"""Tests for the parallel (root-split) exact oracle.

The contract under test: ``certified_optimal(instance, workers=k)``
returns the *same makespan* as the sequential search for every ``k``,
never hangs or leaks worker processes — including when a worker dies
mid-subtree — and silently degrades to the sequential search where
parallelism cannot apply (daemonic callers, single-branch roots).
"""

from __future__ import annotations

import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from repro.certify import certified_optimal, certify_schedule
from repro.certify.oracle import (
    _CRASH_ENV,
    _SearchContext,
    _effective_workers,
    _enumerate_prefixes,
    _scale_exact,
)
from repro.exceptions import InfeasibleInstanceError
from repro.graphs.conflict import CompleteMultipartiteGraph
from repro.io.serialization import instance_from_dict, instance_to_dict
from repro.machines.profiles import geometric_speeds
from repro.random_graphs.gilbert import gnnp
from repro.scheduling.instance import UniformInstance

CORPUS = (
    Path(__file__).resolve().parent
    / "fixtures"
    / "differential"
    / "corpus.jsonl"
)


def _corpus_instances():
    with CORPUS.open(encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                yield record["id"], instance_from_dict(record["instance"])


def _hard_instance() -> UniformInstance:
    """A search-exhausted instance whose root splits into several subtrees."""
    graph = gnnp(7, 0.3, seed=9)
    rng = np.random.default_rng(17)
    p = [int(x) for x in rng.integers(1, 9, graph.n)]
    return UniformInstance(graph, p, geometric_speeds(3, 2))


def test_corpus_parallel_determinism():
    """workers=2 reproduces the sequential makespan on every frozen
    corpus instance the exact search can afford (the run-heavy records
    reach n~40, past the oracle's reach), and its schedule passes full
    certification."""
    checked = 0
    for tag, instance in _corpus_instances():
        if instance.n > 14:
            continue
        seq = certified_optimal(instance)
        par = certified_optimal(instance, workers=2)
        assert par.makespan == seq.makespan, (
            f"{tag}: parallel makespan {par.makespan} != "
            f"sequential {seq.makespan}"
        )
        certificate = certify_schedule(par.schedule)
        assert certificate.ok, f"{tag}: {certificate.describe()}"
        checked += 1
    assert checked >= 45
    assert multiprocessing.active_children() == []


def test_parallel_metadata_and_teardown():
    instance = _hard_instance()
    seq = certified_optimal(instance)
    par = certified_optimal(instance, workers=2)
    assert seq.workers == 1 and seq.subtrees == 0
    assert par.workers == 2 and par.subtrees > 1
    assert par.makespan == seq.makespan
    assert par.proof == "search-exhausted"
    # the executor must be fully shut down before the result returns
    assert multiprocessing.active_children() == []


def test_worker_crash_falls_back_without_wrong_answer(monkeypatch):
    """A worker killed mid-subtree (the crash-injection hook dies like a
    SIGKILL) must cost only time: the answer matches the sequential
    search and no pool process survives."""
    instance = _hard_instance()
    seq = certified_optimal(instance)
    monkeypatch.setenv(_CRASH_ENV, "0")
    par = certified_optimal(instance, workers=2)
    assert par.makespan == seq.makespan
    assert par.schedule.is_feasible()
    assert multiprocessing.active_children() == []


def test_daemonic_caller_degrades_to_sequential():
    """Inside a daemonic pool worker (the BatchRunner shape) a nested
    oracle must not try to spawn children."""
    payload = instance_to_dict(_hard_instance())
    with multiprocessing.Pool(1) as pool:
        makespan_str, workers, subtrees = pool.apply(
            _oracle_in_daemon, (payload,)
        )
    seq = certified_optimal(_hard_instance())
    assert Fraction(makespan_str) == seq.makespan
    assert workers == 1
    assert subtrees == 0


def _oracle_in_daemon(payload):
    instance = instance_from_dict(payload)
    result = certified_optimal(instance, workers=4)
    return str(result.makespan), result.workers, result.subtrees


def test_effective_workers_guard():
    assert _effective_workers(0) == 1
    assert _effective_workers(1) == 1
    assert _effective_workers(3) == 3


def test_infeasible_instance_raises_with_workers():
    # a triangle of conflicts on two machines has no feasible schedule
    graph = CompleteMultipartiteGraph(3, [[0], [1], [2]])
    instance = UniformInstance(graph, [1, 1, 1], [Fraction(1), Fraction(1)])
    with pytest.raises(InfeasibleInstanceError):
        certified_optimal(instance, workers=2)


def test_incumbent_quantum_is_exact():
    instance = _hard_instance()
    ctx = _SearchContext(instance)
    quantum = ctx.quantum
    seq = certified_optimal(instance)
    scaled = _scale_exact(seq.makespan, quantum)
    assert scaled is not None
    assert Fraction(scaled, quantum) == seq.makespan
    # a value outside the exact grid is refused, not rounded
    assert _scale_exact(Fraction(1, quantum + 1), quantum) is None


def test_prefix_enumeration_covers_root():
    """Every sequential root branch appears among the enumerated
    prefixes (pruned only by exact infeasibility and the symmetry
    break the search itself applies)."""
    instance = _hard_instance()
    ctx = _SearchContext(instance)
    seq = certified_optimal(instance)
    prefixes, explored = _enumerate_prefixes(ctx, seq.makespan + 1, 8)
    assert len(prefixes) > 1
    assert explored >= 1
    depth = len(prefixes[0])
    assert all(len(prefix) == depth for prefix in prefixes)
    assert len(set(prefixes)) == len(prefixes)
    # each prefix names real machines for the first branched jobs
    for prefix in prefixes:
        for rank, machine in enumerate(prefix):
            assert 0 <= machine < instance.m
            assert ctx.times[machine][ctx.branched[rank]] is not None


def test_pool_broken_during_submit_falls_back(monkeypatch):
    """A worker that dies before every subtree is handed out makes
    ``submit`` raise ``BrokenProcessPool``; the unsubmitted prefixes must
    be re-searched in-process instead of the error escaping."""
    instance = _hard_instance()
    seq = certified_optimal(instance)
    original = ProcessPoolExecutor.submit
    calls = []

    def submit_then_break(self, fn, *args, **kwargs):
        calls.append(fn)
        if len(calls) > 1:
            raise BrokenProcessPool("a worker died before submission")
        return original(self, fn, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", submit_then_break)
    par = certified_optimal(instance, workers=2)
    assert len(calls) == 2
    assert par.makespan == seq.makespan
    assert par.schedule.is_feasible()
    assert multiprocessing.active_children() == []
