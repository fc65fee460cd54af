"""The verifier: every answer is checked after the timed region ends.

A schedule is re-certified with :func:`repro.certify.certify_schedule`
against the makespan its answer claims: no conflict edge inside a
machine, every job on an eligible machine, the claimed makespan equal to
the one re-summed from the assignment, and that makespan at least the
environment's exact lower bound.  Workload-level checks come on top
(cache hit shares, cache hits equal to first answers, the same optimum
on every pass).  Each operation that fails a check counts once in
``failed``; a workload-level failure fails the run.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

DIGEST_PREFIX = {"serve-cold": 24, "batch-mixed": 512}
BATCH_RESOLVE_EVERY = 8


@dataclass
class Verdict:
    """What the verifier found for one run."""

    attempted: int = 0
    failed_ops: set[int] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)
    ratios: list[float] = field(default_factory=list)
    makespans: list[str] = field(default_factory=list)
    chosen: Counter[str] = field(default_factory=Counter)
    shape: dict[str, dict[str, float]] = field(default_factory=dict)
    hit_share: float | None = None

    def fail(self, op: int | None, message: str) -> None:
        """Record one problem (``op=None``: a workload-level problem)."""
        if op is not None:
            self.failed_ops.add(op)
        if len(self.problems) < 20:
            self.problems.append(message if op is None else f"op {op}: {message}")

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    @property
    def correct(self) -> bool:
        return not self.problems

    def digest(self, prefix: int | None = None) -> str:
        """sha256 over the first ``prefix`` makespans, in input order."""
        chosen = self.makespans if prefix is None else self.makespans[:prefix]
        return hashlib.sha256("\n".join(chosen).encode()).hexdigest()

    def observe_shape(self, cls: str, n: int, edges: int) -> None:
        """Accumulate the per-class input-shape summary."""
        row = self.shape.setdefault(cls, {"count": 0, "n": 0.0, "edges": 0.0})
        row["count"] += 1
        row["n"] += (n - row["n"]) / row["count"]
        row["edges"] += (edges - row["edges"]) / row["count"]


def certify_claim(
    payload: dict[str, Any], assignment: list[int], claimed: str
) -> tuple[str | None, float | None]:
    """Re-certify one answered schedule: ``(problem or None, Cmax / LB)``."""
    from repro.certify import certify_schedule
    from repro.io import instance_from_dict
    from repro.scheduling.schedule import Schedule

    instance = instance_from_dict(payload)
    if len(assignment) != instance.n:
        return f"assignment covers {len(assignment)} of {instance.n} jobs", None
    if any(not (isinstance(i, int) and 0 <= i < instance.m) for i in assignment):
        return "assignment names a machine out of range", None
    makespan = Fraction(claimed)
    report = certify_schedule(Schedule(instance, assignment, check=False),
                              claimed_makespan=makespan)
    if not report.ok:
        return report.describe(), None
    if report.lower_bound is None or report.lower_bound <= 0:
        return "no positive lower bound to compare against", None
    return None, float(makespan / report.lower_bound)


def _serve_answer(verdict: Verdict, op: int | None, raw: bytes, request_id: int,
                  cached: bool) -> dict[str, Any] | None:
    """Decode one serve answer and check its envelope (``op=None``: warm-up)."""
    try:
        answer = json.loads(raw)
    except ValueError:
        verdict.fail(op, "answer is not JSON")
        return None
    if answer.get("ok") is not True:
        verdict.fail(op, f"not ok: {answer.get('error')}")
        return None
    if answer.get("id") != request_id:
        verdict.fail(op, f"answer id {answer.get('id')!r} != {request_id}")
        return None
    if bool(answer.get("cached")) != cached:
        verdict.fail(op, f"cached={answer.get('cached')!r}, expected {cached}")
        return None
    return answer


def _stats_hit_share(before: dict[str, Any], after: dict[str, Any], sent: int) -> float:
    return (after["cached"] - before["cached"]) / max(sent, 1)


def verify_serve_cold(lines: list[tuple[str, bytes]], run: Any) -> Verdict:
    """Every request distinct: certified answers, no cache hit at all."""
    verdict = Verdict(attempted=len(run.ops))
    for op in run.ops:
        payload = json.loads(lines[op.index][1])["instance"]
        answer = _serve_answer(verdict, op.index, op.answer, op.index, cached=False)
        if answer is None:
            continue
        problem, ratio = certify_claim(payload, answer["assignment"], answer["makespan"])
        if problem is not None:
            verdict.fail(op.index, problem)
            continue
        verdict.ratios.append(ratio)
        verdict.makespans.append(answer["makespan"])
        verdict.chosen[answer["chosen"]] += 1
        verdict.observe_shape(op.cls, answer["n"], answer["edges"])
    verdict.hit_share = _stats_hit_share(run.stats_before, run.stats_after, len(run.ops))
    if verdict.hit_share != 0:
        verdict.fail(None, f"serve-cold cache hit share {verdict.hit_share} != 0")
    return verdict


def verify_serve_hot(
    lines: list[tuple[str, bytes]], sequence: list[int], run: Any
) -> Verdict:
    """Warm-up answers certified; every timed answer a hit equal to them."""
    verdict = Verdict(attempted=len(run.ops))
    first: dict[int, dict[str, Any]] = {}
    for op in run.warm:
        answer = _serve_answer(verdict, None, op.answer, op.index, cached=False)
        if answer is None:
            continue
        payload = json.loads(lines[op.index][1])["instance"]
        problem, ratio = certify_claim(payload, answer["assignment"], answer["makespan"])
        if problem is not None:
            verdict.fail(None, f"hot instance {op.index}: {problem}")
            continue
        first[op.index] = answer
        # quality is counted once per distinct schedule, as on serve-cold
        verdict.ratios.append(ratio)
        verdict.makespans.append(answer["makespan"])
        verdict.observe_shape(op.cls, answer["n"], answer["edges"])
    if len(first) != len(lines):
        verdict.fail(None, f"{len(first)} of {len(lines)} hot instances answered")
    compared = ("key", "chosen", "makespan", "assignment")
    for op in run.ops:
        hot = sequence[op.index]
        answer = _serve_answer(verdict, op.index, op.answer, hot, cached=True)
        if answer is None or hot not in first:
            continue
        if any(answer.get(k) != first[hot].get(k) for k in compared):
            verdict.fail(op.index, f"cache hit differs from the first answer for {hot}")
            continue
        verdict.chosen[answer["chosen"]] += 1
    verdict.hit_share = _stats_hit_share(run.stats_before, run.stats_after, len(run.ops))
    # every hot key was answered once before timing, so every timed
    # request repeats an earlier one
    if verdict.hit_share < 1.0:
        verdict.fail(None, f"serve-hot cache hit share {verdict.hit_share} < 1.0")
    return verdict


def verify_batch(tasks: list[Any], run: Any) -> Verdict:
    """Every record certified; every ``BATCH_RESOLVE_EVERY``-th re-solved."""
    from repro.engine import solve
    from repro.io import frac_str, instance_from_dict

    from perfbench.inputs import batch_class

    verdict = Verdict(attempted=len(run.results))
    for position, result in enumerate(run.results):
        task = tasks[position]
        if result.name != task.name:
            verdict.fail(position, f"result {result.name} answers task {task.name}")
            continue
        if result.error is not None:
            verdict.fail(position, f"typed error: {result.error}")
            continue
        cert = result.certificate or {}
        claimed = frac_str(result.makespan)
        if not (result.feasible and cert.get("ok") and cert.get("claimed_makespan") == claimed
                and cert.get("recomputed_makespan") == claimed):
            verdict.fail(position, f"certificate does not back makespan {claimed}")
            continue
        if result.lower_bound is None or result.lower_bound <= 0 or result.makespan < result.lower_bound:
            verdict.fail(position, "makespan below (or without) the lower bound")
            continue
        if position % BATCH_RESOLVE_EVERY == 0:
            schedule = solve(instance_from_dict(task.payload), algorithm=result.chosen)
            problem, _ = certify_claim(task.payload, list(schedule.assignment), claimed)
            if problem is not None:
                verdict.fail(position, f"re-solve: {problem}")
                continue
        verdict.ratios.append(float(result.makespan / result.lower_bound))
        verdict.makespans.append(claimed)
        verdict.chosen[str(result.chosen)] += 1
        verdict.observe_shape(batch_class(task.name), result.n, result.edges)
    verdict.hit_share = run.cached / max(len(run.results), 1)
    if run.cached:
        verdict.fail(None, f"cold batch answered {run.cached} tasks from its cache")
    return verdict


def verify_certify(ladder: list[tuple[str, Any]], ops: list[Any]) -> Verdict:
    """Every proof's schedule certified; one optimum per rung on every pass."""
    from repro.certify import certify_schedule

    verdict = Verdict(attempted=len(ops))
    optimum: dict[str, Fraction] = {}
    for position, op in enumerate(ops):
        result = op.answer
        report = certify_schedule(result.schedule, claimed_makespan=result.makespan)
        if not report.ok:
            verdict.fail(position, report.describe())
            continue
        if optimum.setdefault(op.cls, result.makespan) != result.makespan:
            verdict.fail(position, f"rung {op.cls}: optimum changed between passes")
            continue
        if report.lower_bound is None or report.lower_bound <= 0:
            verdict.fail(position, "no positive lower bound")
            continue
        verdict.ratios.append(float(result.makespan / report.lower_bound))
        verdict.chosen[f"{result.proof}/{result.seeded_from}"] += 1
        if position < len(ladder):
            instance = ladder[op.index][1]
            verdict.observe_shape(op.cls.split(":")[0], instance.n, instance.graph.edge_count)
    # in rung order, not run order, so the digest does not follow the seed
    verdict.makespans = [str(optimum[label]) for label in sorted(optimum)]
    return verdict
