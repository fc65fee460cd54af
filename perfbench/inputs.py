"""Seeded inputs for every workload, built before any timing starts.

Serve and certify instances are written straight into the program's
wire format (``repro/v1`` instance payloads) from a NumPy generator, so
the bytes a request carries depend on the seed alone and never on the
program's own generator code.  The batch workload is a batch-spec v3
document, which is the input format ``repro batch`` users write; the
program expands it.

Sizes:

* serve classes — **q-unit** (Q, G(1000, 1000, p) with ~4000 edges,
  unit jobs, 5 speeds), **q-weighted** (same shape, p_j in [1, 19]),
  **r2** (R, m=2, 600 jobs) and **r4** (R, m=4, 2000 jobs).  Request
  streams mix the classes 1:1:1:1 in shuffled blocks of four, so every
  stream prefix has the same class mix.
* batch — nine spec entries of 24-100 jobs covering every
  auto-dispatched family (see :func:`batch_spec`).
* certify — a fixed ladder of hard small instances (Q n=22 m=4, R n=20
  m=4); the seed only shuffles the order of the rungs.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

SERVE_CLASSES = ("q-unit", "q-weighted", "r2", "r4")

# edges per job in the serve and certify graphs (~4000 on 2000 jobs)
_EDGES_PER_JOB = 2


def _graph(rng: np.random.Generator, half: int, edges: float) -> dict[str, Any]:
    """A ``G(half, half, p)`` graph payload with ``edges`` expected edges."""
    cells = half * half
    count = int(rng.binomial(cells, min(1.0, edges / cells)))
    picked = np.sort(rng.choice(cells, size=count, replace=False))
    return {
        "format": "repro/v1",
        "kind": "graph",
        "n": 2 * half,
        "side": [0] * half + [1] * half,
        "edges": [[int(c // half), int(half + c % half)] for c in picked],
    }


def _speeds(rng: np.random.Generator, m: int) -> list[str]:
    """``m`` speeds in halves from 1 to 8, fastest first, as wire strings."""
    halves = sorted((int(x) for x in rng.integers(2, 17, size=m)), reverse=True)
    return [f"{h // 2}" if h % 2 == 0 else f"{h}/2" for h in halves]


def uniform_payload(
    rng: np.random.Generator, half: int, m: int, p_max: int, edges: float
) -> dict[str, Any]:
    """A uniform (Q) instance payload with jobs ``p_j in [1, p_max]``."""
    graph = _graph(rng, half, edges)
    n = 2 * half
    p = [1] * n if p_max == 1 else [int(x) for x in rng.integers(1, p_max + 1, size=n)]
    return {
        "format": "repro/v1",
        "kind": "uniform_instance",
        "graph": graph,
        "p": p,
        "speeds": _speeds(rng, m),
    }


def unrelated_payload(
    rng: np.random.Generator, half: int, m: int, t_max: int, edges: float
) -> dict[str, Any]:
    """An unrelated (R) instance payload with ``p_ij in [1, t_max]``."""
    graph = _graph(rng, half, edges)
    n = 2 * half
    return {
        "format": "repro/v1",
        "kind": "unrelated_instance",
        "graph": graph,
        "times": [
            [str(int(x)) for x in rng.integers(1, t_max + 1, size=n)]
            for _ in range(m)
        ],
    }


def serve_payload(rng: np.random.Generator, cls: str) -> dict[str, Any]:
    """One instance of a serve class (see the module docstring)."""
    if cls == "q-unit":
        return uniform_payload(rng, 1000, 5, 1, 2000 * _EDGES_PER_JOB)
    if cls == "q-weighted":
        return uniform_payload(rng, 1000, 5, 19, 2000 * _EDGES_PER_JOB)
    if cls == "r2":
        return unrelated_payload(rng, 300, 2, 20, 600 * _EDGES_PER_JOB)
    if cls == "r4":
        return unrelated_payload(rng, 1000, 4, 20, 2000 * _EDGES_PER_JOB)
    raise ValueError(f"unknown serve class {cls!r}")


def class_blocks(rng: np.random.Generator, count: int) -> list[str]:
    """``count`` class labels in shuffled blocks holding each class once."""
    labels: list[str] = []
    while len(labels) < count:
        labels.extend(SERVE_CLASSES[i] for i in rng.permutation(len(SERVE_CLASSES)))
    return labels[:count]


def request_line(request_id: int, payload: dict[str, Any]) -> bytes:
    """One pre-encoded ``solve`` request line."""
    request = {"op": "solve", "id": request_id, "instance": payload}
    return (json.dumps(request, separators=(",", ":")) + "\n").encode("utf-8")


def serve_cold(seed: int, count: int) -> list[tuple[str, bytes]]:
    """``count`` distinct ``(class, request line)`` pairs."""
    rng = np.random.default_rng([seed, 1])
    return [
        (cls, request_line(i, serve_payload(rng, cls)))
        for i, cls in enumerate(class_blocks(rng, count))
    ]


HOT_PER_CLASS = 4
ZIPF_S = 1.2


def serve_hot(
    seed: int, count: int
) -> tuple[list[tuple[str, bytes]], list[int]]:
    """The hot set and a request sequence of ``count`` indices into it.

    Four instances per class (16 in all).  The class of each request
    follows :func:`class_blocks`; within a class the member is drawn
    Zipf-style (weight ``1 / rank ** ZIPF_S``, ranks shuffled per seed),
    so the class mix, and with it the mean payload size, does not
    depend on the seed.
    """
    rng = np.random.default_rng([seed, 2])
    hot: list[tuple[str, bytes]] = []
    members: dict[str, list[int]] = {}
    for cls in SERVE_CLASSES:
        for _ in range(HOT_PER_CLASS):
            members.setdefault(cls, []).append(len(hot))
            hot.append((cls, request_line(len(hot), serve_payload(rng, cls))))
    weights = 1.0 / np.arange(1, HOT_PER_CLASS + 1) ** ZIPF_S
    weights /= weights.sum()
    ranked = {cls: [members[cls][i] for i in rng.permutation(HOT_PER_CLASS)]
              for cls in SERVE_CLASSES}
    picks = rng.choice(HOT_PER_CLASS, size=count, p=weights)
    sequence = [
        ranked[cls][int(pick)]
        for cls, pick in zip(class_blocks(rng, count), picks)
    ]
    return hot, sequence


# (entry name, spec entry without seed/count); sizes are job counts
_BATCH_ENTRIES: tuple[tuple[str, dict[str, Any]], ...] = (
    ("q-unit", {"family": "gnnp", "n": 40, "p": 0.05,
                "speeds": "4,3,2,3/2,1", "jobs": "unit"}),
    ("q-weighted", {"family": "gnnp", "n": 40, "p": 0.05,
                    "speeds": "4,3,2,3/2,1", "jobs": "uniform"}),
    ("crown", {"family": "crown", "n": 12, "speeds": "3,2,1", "jobs": "uniform"}),
    ("q2-unit", {"family": "gnnp", "n": 30, "p": 0.06, "speeds": "3,1",
                 "jobs": "unit"}),
    ("q2-weighted", {"family": "gnnp", "n": 30, "p": 0.06, "speeds": "3,1",
                     "jobs": "uniform"}),
    ("r2-correlated", {"family": "gnnp", "n": 25, "p": 0.08,
                       "machines": {"kind": "unrelated", "model": "correlated",
                                    "m": 2}}),
    ("r4-uniform", {"family": "gnnp", "n": 50, "p": 0.04,
                    "machines": {"kind": "unrelated", "model": "uniform_pij",
                                 "m": 4}}),
    ("multipartite", {"graph": {"family": "complete_multipartite", "n": 60,
                                "parts": 4, "free": 6},
                      "machines": {"kind": "uniform", "profile": "random_int",
                                   "m": 4, "high": 9}}),
    # eligibility shape: 3 of 4 machines per job on block graphs whose
    # blocks have at most 3 vertices.  With max_block=4 most tasks are
    # infeasible (typed errors); with 3 every task schedules.
    ("block-eligible", {"graph": {"family": "block", "n": 60, "max_block": 3},
                        "machines": {"kind": "uniform", "profile": "geometric",
                                     "m": 4, "eligibility": {"choices": 3}}}),
)

BATCH_ENTRY_NAMES = tuple(name for name, _ in _BATCH_ENTRIES)


def batch_spec(seed: int, per_entry: int) -> dict[str, Any]:
    """A batch-spec v3 document: ``per_entry`` replicas of every entry.

    Replica seeds are consecutive from an entry base derived from the
    benchmark seed, so distinct benchmark seeds give disjoint tasks.
    """
    base = (seed * 9973) % (1 << 24) * 16
    return {
        "format": "repro/batch-spec/v3",
        "defaults": {"certify": True},
        "instances": [
            {**entry, "name": name, "seed": base + k * (1 << 20), "count": per_entry}
            for k, (name, entry) in enumerate(_BATCH_ENTRIES)
        ],
    }


def batch_tasks(seed: int, count: int) -> list[Any]:
    """Up to ``count`` distinct batch tasks, entries interleaved round-robin.

    A replica whose payload repeats an earlier one (small random
    families can draw the same instance twice) is left out, so the
    batch meets a cold cache on every task.
    """
    from repro.runtime.specs import expand_specs

    per_entry = math.ceil(count / len(_BATCH_ENTRIES))
    tasks = expand_specs(batch_spec(seed, per_entry))
    columns = [tasks[k * per_entry:(k + 1) * per_entry] for k in range(len(_BATCH_ENTRIES))]
    seen: set[str] = set()
    distinct = []
    for task in (col[i] for i in range(per_entry) for col in columns):
        text = json.dumps(task.payload, sort_keys=True)
        if text not in seen:
            seen.add(text)
            distinct.append(task)
    return distinct[:count]


def batch_class(task_name: str) -> str:
    """The spec entry a batch task came from (its class label)."""
    return task_name.rsplit("-s", 1)[0]


# The certify ladder: generator seeds of instances whose proofs take
# 0.1-0.8 s and 1e3-2e4 search nodes, picked once from consecutive seeds.
# The rungs are fixed so every run proves the same instances; the
# benchmark seed only shuffles their order.
LADDER_Q = (0, 4, 6, 9, 17, 21, 26, 32, 36)
LADDER_R = (3, 8, 9, 10, 14, 16, 17, 22, 28)


def ladder_instance(kind: str, rung_seed: int) -> dict[str, Any]:
    """One certify rung: Q (n=22, m=4, p_j in [1, 19]) or R (n=20, m=4)."""
    rng = np.random.default_rng([rung_seed, 3])
    if kind == "q":
        return uniform_payload(rng, 11, 4, 19, 22 * 1.5)
    return unrelated_payload(rng, 10, 4, 9, 20 * 1.5)


def certify_ladder(seed: int) -> list[tuple[str, dict[str, Any]]]:
    """The ladder's ``(label, payload)`` rungs in seed-shuffled order.

    A label is ``"<class>:<rung seed>"`` with class ``q`` or ``r``.
    """
    rungs = [(f"q:{s}", ladder_instance("q", s)) for s in LADDER_Q]
    rungs += [(f"r:{s}", ladder_instance("r", s)) for s in LADDER_R]
    order = np.random.default_rng([seed, 4]).permutation(len(rungs))
    return [rungs[i] for i in order]
