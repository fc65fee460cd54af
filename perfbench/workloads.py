"""The four workloads: inputs, the untraced run, the traced run, metrics.

An untraced run (``--trace 0``) measures the end-to-end metrics from
outside the program.  A traced run (``--trace 1``) first repeats a
shortened untraced run for the outside-in probes (server counters, pool
start, cache hit share), then replays the same inputs in this process
three times, untraced, traced and untraced again (the tracing overhead
is the traced time minus the mean of the two untraced ones), through
the real entry points:
``EngineService.handle_line`` for serve, ``BatchRunner(workers=1)`` for
batch and ``certified_optimal`` for certify.

The end-to-end timings are given at reference host speed (see
:mod:`perfbench.hostspeed`); the readable report also prints them as
measured.  The per-layer timings of the traced run are as measured.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from perfbench import drive, inputs, trace, verify
from perfbench.hostspeed import HostSpeed

# input pools are sized for this many operations per second; a run that
# exhausts its pool stops early and says so
COLD_RATE_CAP = 20
HOT_RATE_CAP = 2000
BATCH_RATE_CAP = 600

# the end-to-end metrics every workload reports in its result line
E2E_METRICS: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("latency_class_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("makespan_ratio_mean", "ratio", "lower", 0.05),
)

SQRT_CLASSES = ("q-unit", "q-weighted")
SQRT_PHASES = (
    ("independent_set", "sqrt_approx.independent_set"),
    ("to_unrelated", "instance.to_unrelated"),
    ("r2_fptas", "sqrt_approx.r2_fptas"),
    ("coloring", "sqrt_approx.coloring"),
    ("list_scheduling", "sqrt_approx.list_scheduling"),
)
# per-operation self time of one span name, as (metric, span name)
LAYER_SPANS = (
    ("cache.task_key_ms", "cache.task_key"),
    ("cache.lookup_ms", "cache.lookup"),
    ("io.decode_ms", "io.decode"),
    ("io.instance_from_dict_ms", "io.instance_from_dict"),
    ("io.encode_ms", "io.encode"),
    ("dispatch.auto_choice_ms", "dispatch.auto_choice"),
    ("registry.execute_ms", "registry.execute"),
    ("schedule.violations_ms", "schedule.violations"),
    ("validators.lower_bound_ms", "validators.lower_bound"),
    ("validators.certify_schedule_ms", "validators.certify_schedule"),
    ("bounds.min_cover_time_with_loads_ms", "bounds.min_cover_time_with_loads"),
)

# (metric, unit, better) for the traced run's result line
LAYER_METRICS: tuple[tuple[str, str, str], ...] = (
    ("aserve.server_p50_ms", "ms", "lower"),
    ("aserve.outside_service_ms", "ms", "lower"),
    ("aserve.coalesced_share", "ratio", "higher"),
    ("cache.hit_share", "ratio", "higher"),
    ("cache.task_key_ms", "ms", "lower"),
    ("cache.lookup_ms", "ms", "lower"),
    ("io.decode_ms", "ms", "lower"),
    ("io.instance_from_dict_ms", "ms", "lower"),
    ("io.encode_ms", "ms", "lower"),
    ("dispatch.auto_choice_ms", "ms", "lower"),
    ("registry.execute_ms", "ms", "lower"),
    *((f"sqrt_approx.{cls}.{phase}_ms", "ms", "lower")
      for cls in SQRT_CLASSES for phase, _ in SQRT_PHASES),
    ("schedule.violations_calls", "count", "lower"),
    ("schedule.violations_ms", "ms", "lower"),
    ("validators.lower_bound_ms", "ms", "lower"),
    ("validators.certify_schedule_ms", "ms", "lower"),
    ("batch.solve_share", "ratio", "higher"),
    ("batch.pool_start_s", "s", "lower"),
    ("oracle.nodes", "count", "lower"),
    ("oracle.ms_per_node", "ms", "lower"),
    ("oracle.bound_tight_share", "ratio", "higher"),
    ("bounds.min_cover_time_with_loads_calls", "count", "lower"),
    ("bounds.min_cover_time_with_loads_ms", "ms", "lower"),
    ("fastpath.scaled_speeds_hit_share", "ratio", "higher"),
    ("import.repro_s", "s", "lower"),
    ("import.numpy_eager", "count", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.attributed_share", "ratio", "higher"),
)

ROOT_SPANS = ("request", "round", "rung")


@dataclass
class Metric:
    """One reported number with its unit and sample count."""

    value: float
    unit: str
    samples: int


@dataclass
class Report:
    """Everything one run prints."""

    workload: str
    verdict: verify.Verdict
    digest: str
    digest_ops: int
    e2e: dict[str, Metric] = field(default_factory=dict)
    layers: dict[str, Metric] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


def percentile_ms(samples_s: list[float], q: float) -> Metric | None:
    """Nearest-rank percentile in ms, only with >= 10 samples beyond it."""
    n = len(samples_s)
    if n == 0 or n * (1 - q) < 10:
        return None
    ordered = sorted(samples_s)
    rank = max(0, math.ceil(q * n) - 1)
    return Metric(ordered[rank] * 1000.0, "ms", n)


def _class_medians_ms(timed: list[tuple[str, float]]) -> dict[str, float]:
    by_class: dict[str, list[float]] = {}
    for cls, seconds in timed:
        by_class.setdefault(cls, []).append(seconds * 1000.0)
    return {cls: statistics.median(v) for cls, v in sorted(by_class.items())}


def _end_to_end(
    report: Report, *, speed: HostSpeed, setup: list[float], ops: int, wall: float,
    timed: list[tuple[str, float]], rss: float, throughput_name: str,
) -> None:
    """The end-to-end metrics of one untraced run, at reference host speed.

    ``timed`` holds ``(input class, latency s)`` per operation.  Besides
    the median over all operations, ``latency_class_p50_ms`` averages the
    per-class medians: on a mix of classes with separated latencies the
    overall median falls in a gap between two classes, where few
    operations lie, and jumps from run to run.
    """
    verdict = report.verdict
    loop = speed.scale("loop")
    scaled = [(cls, seconds * loop) for cls, seconds in timed]
    latencies = [seconds for _, seconds in scaled]
    medians = _class_medians_ms(scaled)
    rate = Metric(ops / (wall * loop), "1/s", ops)
    setup_s = statistics.median(setup) * speed.scale("setup")
    report.e2e["setup_s"] = Metric(setup_s, "s", len(setup))
    report.e2e["throughput_per_s"] = rate
    report.e2e[throughput_name] = rate
    report.e2e["latency_p50_ms"] = Metric(statistics.median(latencies) * 1000.0, "ms", len(latencies))
    report.e2e["latency_class_p50_ms"] = Metric(statistics.fmean(medians.values()), "ms", len(latencies))
    for name, q in (("latency_p90_ms", 0.9), ("latency_p99_ms", 0.99)):
        value = percentile_ms(latencies, q)
        if value is not None:
            report.e2e[name] = value
    report.e2e["failed_share"] = Metric(verdict.failed / max(verdict.attempted, 1), "ratio", verdict.attempted)
    report.e2e["peak_rss_mb"] = Metric(rss, "MiB", 1)
    if verdict.ratios:
        report.e2e["makespan_ratio_mean"] = Metric(statistics.fmean(verdict.ratios), "ratio", len(verdict.ratios))
    report.notes.append("median latency ms by class: " + ", ".join(
        f"{cls} {value:.4g}" for cls, value in medians.items()))
    report.notes.append(speed.summary())
    report.notes.append(
        f"as measured, not scaled: setup_s {statistics.median(setup):.4g}, "
        f"throughput_per_s {ops / wall:.4g}, "
        f"latency_class_p50_ms {statistics.fmean(_class_medians_ms(timed).values()):.4g}")


# ---------------------------------------------------------------------- #
# inputs
# ---------------------------------------------------------------------- #


def serve_inputs(
    workload: str, seed: int, seconds: float
) -> tuple[list[tuple[str, bytes]], list[int] | None]:
    """Request lines (and, for serve-hot, the sequence over them)."""
    if workload == "serve-cold":
        return inputs.serve_cold(seed, max(24, math.ceil(seconds * COLD_RATE_CAP))), None
    hot, sequence = inputs.serve_hot(seed, math.ceil(seconds * HOT_RATE_CAP))
    return hot, sequence


def _verify_serve(workload: str, lines: Any, sequence: Any, run: drive.ServeRun) -> verify.Verdict:
    if workload == "serve-cold":
        return verify.verify_serve_cold(lines, run)
    return verify.verify_serve_hot(lines, sequence, run)


def _digest(workload: str, verdict: verify.Verdict) -> tuple[str, int]:
    prefix = verify.DIGEST_PREFIX.get(workload)
    used = len(verdict.makespans) if prefix is None else min(prefix, len(verdict.makespans))
    return verdict.digest(used), used


def ladder_instances(seed: int) -> list[tuple[str, Any]]:
    from repro.io import instance_from_dict

    return [(label, instance_from_dict(payload)) for label, payload in inputs.certify_ladder(seed)]


# ---------------------------------------------------------------------- #
# untraced runs
# ---------------------------------------------------------------------- #


def serve_untraced(root: Path, workload: str, seed: int, seconds: float) -> Report:
    lines, sequence = serve_inputs(workload, seed, seconds)
    run = drive.run_serve(root, lines, sequence, seconds, drive.CONNECTIONS[workload])
    verdict = _verify_serve(workload, lines, sequence, run)
    report = Report(workload, verdict, *_digest(workload, verdict))
    _end_to_end(report, speed=run.speed, setup=run.setup_samples, ops=len(run.ops),
                wall=run.wall_s, timed=[(op.cls, op.latency_s) for op in run.ops],
                rss=run.peak_rss_mb, throughput_name="requests_per_s")
    if run.exhausted:
        report.notes.append("input pool exhausted before the time budget")
    _serve_probes(report, run)
    return report


def batch_untraced(root: Path, workload: str, seed: int, seconds: float) -> Report:
    tasks = inputs.batch_tasks(seed, math.ceil(seconds * BATCH_RATE_CAP))
    run = drive.run_batch(tasks, seconds)
    verdict = verify.verify_batch(tasks, run)
    report = Report(workload, verdict, *_digest(workload, verdict))
    _end_to_end(report, speed=run.speed, setup=run.setup_samples, ops=len(run.results),
                wall=run.wall_s, timed=[("round", t) for t in run.round_latencies],
                rss=run.peak_rss_mb, throughput_name="tasks_per_s")
    report.notes.append(f"latency is per run() call of {drive.BATCH_ROUND} tasks")
    if run.exhausted:
        report.notes.append("input pool exhausted before the time budget")
    return report


def certify_untraced(root: Path, workload: str, seed: int, seconds: float) -> Report:
    ladder = ladder_instances(seed)
    run = drive.run_certify(root, ladder, seconds)
    verdict = verify.verify_certify(ladder, run.ops)
    report = Report(workload, verdict, *_digest(workload, verdict))
    _end_to_end(report, speed=run.speed, setup=run.setup_samples, ops=len(run.ops),
                wall=run.wall_s, timed=[(op.cls, op.latency_s) for op in run.ops],
                rss=run.peak_rss_mb, throughput_name="certified_per_s")
    report.notes.append(f"{run.passes} whole passes over {len(ladder)} rungs")
    return report


# ---------------------------------------------------------------------- #
# outside-in probes
# ---------------------------------------------------------------------- #


def _delta(after: dict[str, Any], before: dict[str, Any], *path: str) -> float:
    for key in path:
        after, before = after[key], before[key]
    return float(after) - float(before)


def _serve_probes(report: Report, run: drive.ServeRun) -> dict[str, float]:
    """Server counters read through ``{"op": "stats"}`` around the timed loop."""
    before, after = run.stats_before, run.stats_after
    sent = max(len(run.ops), 1)
    hits = _delta(after, before, "fastpath", "scaled_speeds_cache", "hits")
    misses = _delta(after, before, "fastpath", "scaled_speeds_cache", "misses")
    client_p50 = statistics.median(op.latency_s for op in run.ops) * 1000.0 if run.ops else 0.0
    server_p50 = float(after["latency"]["p50_ms"] or 0.0)
    probes = {
        "cached": _delta(after, before, "cached"),
        "coalesced": _delta(after, before, "coalesced"),
        "rejected": _delta(after, before, "rejected"),
        "errors": _delta(after, before, "errors"),
        "server_p50_ms": server_p50,
        "outside_service_ms": client_p50 - server_p50,
        "coalesced_share": _delta(after, before, "coalesced") / sent,
        "hit_share": _delta(after, before, "cached") / sent,
        "scaled_speeds_hit_share": hits / (hits + misses) if hits + misses else 0.0,
    }
    report.notes.append(
        "server stats over the timed loop: " + ", ".join(
            f"{k}={v:.4g}" for k, v in probes.items()))
    return probes


# ---------------------------------------------------------------------- #
# in-process replays
# ---------------------------------------------------------------------- #


def _replay(recorder: trace.Recorder | None, body: Callable[[], Any]) -> tuple[float, Any, list[str]]:
    """Run ``body`` with the wrappers installed (when tracing); time it."""
    installed = trace.Installed(recorder) if recorder is not None else None
    try:
        start = perf_counter()
        result = body()
        wall = perf_counter() - start
    finally:
        if installed is not None:
            installed.remove()
    return wall, result, installed.missing if installed is not None else []


def replay_serve(
    recorder: trace.Recorder | None, lines: list[tuple[str, str]],
    order: list[int], warm: list[int],
) -> tuple[float, list[str], list[str]]:
    """Answer ``order`` through one fresh ``EngineService.handle_line``."""
    from repro.engine.service import EngineService

    service = EngineService()
    for i in warm:
        service.handle_line(lines[i][1])

    def body() -> list[str]:
        answers = []
        for position, i in enumerate(order):
            cls, line = lines[i]
            if recorder is None:
                answers.append(service.handle_line(line))
                continue
            with recorder.span("request", position, cls):
                answers.append(service.handle_line(line))
        return answers

    return _replay(recorder, body)


def replay_batch(
    recorder: trace.Recorder | None, tasks: list[Any], rounds: int | None,
    seconds: float,
) -> tuple[float, list[Any], list[str]]:
    """``BatchRunner(workers=1, certify=True)`` rounds (count or time bound)."""
    from repro.runtime.batch import BatchRunner
    from repro.runtime.cache import task_key

    runner = BatchRunner(workers=1, certify=True)
    if recorder is not None:
        owner = {task_key(t.payload, "auto", certify=True): (k, inputs.batch_class(t.name))
                 for k, t in enumerate(tasks[:rounds * drive.BATCH_ROUND])}

        def tag(task: tuple[Any, ...]) -> None:
            recorder.op, recorder.cls = owner[task[0]]

        recorder.hooks["batch.solve_task"] = tag

    def body() -> list[Any]:
        results: list[Any] = []
        start = perf_counter()
        k = 0
        while (rounds is None and perf_counter() - start < seconds) or (rounds is not None and k < rounds):
            chunk = tasks[k * drive.BATCH_ROUND:(k + 1) * drive.BATCH_ROUND]
            if not chunk:
                break
            if recorder is None:
                results.extend(runner.run(chunk))
            else:
                with recorder.span("round", k * drive.BATCH_ROUND, ""):
                    results.extend(runner.run(chunk))
            k += 1
        return results

    return _replay(recorder, body)


def replay_certify(
    recorder: trace.Recorder | None, ladder: list[tuple[str, Any]]
) -> tuple[float, list[drive.Op], list[str]]:
    """One pass of ``certified_optimal`` over the ladder."""
    from repro.certify import oracle

    def body() -> list[drive.Op]:
        ops = []
        for index, (label, instance) in enumerate(ladder):
            start = perf_counter()
            if recorder is None:
                result = oracle.certified_optimal(instance)
            else:
                with recorder.span("rung", index, label.split(":")[0]):
                    result = oracle.certified_optimal(instance)
            ops.append(drive.Op(index, label, perf_counter() - start, result))
        return ops

    return _replay(recorder, body)


# ---------------------------------------------------------------------- #
# per-layer metrics
# ---------------------------------------------------------------------- #


def layer_metrics(
    recorder: trace.Recorder, ops: int, class_ops: dict[str, int],
    nodes: int, outside: dict[str, float], untraced_s: float, traced_s: float,
) -> dict[str, Metric]:
    """Every per-layer metric; a layer the workload never reaches reads 0."""
    totals = trace.layer_totals(recorder)
    units = {name: unit for name, unit, _ in LAYER_METRICS}

    def self_s(span: str, cls: str = "*") -> float:
        return totals.get((cls, span), [0.0, 0.0])[0]

    def calls(span: str) -> float:
        return totals.get(("*", span), [0.0, 0.0])[1]

    values: dict[str, float] = {name: 0.0 for name, _, _ in LAYER_METRICS}
    values.update(outside)
    per_op = 1000.0 / max(ops, 1)
    for metric, span in LAYER_SPANS:
        values[metric] = self_s(span) * per_op
    for cls in SQRT_CLASSES:
        count = class_ops.get(cls, 0)
        for phase, span in SQRT_PHASES:
            values[f"sqrt_approx.{cls}.{phase}_ms"] = (
                self_s(span, cls) * 1000.0 / count if count else 0.0)
    solves = calls("dispatch.solve")
    values["schedule.violations_calls"] = calls("schedule.violations") / solves if solves else 0.0
    values["bounds.min_cover_time_with_loads_calls"] = calls("bounds.min_cover_time_with_loads") / max(ops, 1)
    values["oracle.nodes"] = float(nodes)
    if nodes:
        search = self_s("oracle.certified_optimal") + self_s("bounds.min_cover_time_with_loads")
        values["oracle.ms_per_node"] = search * 1000.0 / nodes
    roots = [(start, end, own) for name, start, end, own in zip(
        recorder.names, recorder.starts, recorder.ends, recorder.self_times()) if name in ROOT_SPANS]
    total = sum(end - start for start, end, _ in roots)
    if total:
        values["trace.attributed_share"] = 1.0 - sum(own for _, _, own in roots) / total
    values["trace.overhead_ms"] = (traced_s - untraced_s) * per_op
    values["trace.overhead_share"] = traced_s / untraced_s - 1.0 if untraced_s else 0.0
    return {name: Metric(values[name], units[name], ops) for name, _, _ in LAYER_METRICS}


def _import_probe(root: Path) -> dict[str, float]:
    probe = drive.import_probe(root)
    return {"import.repro_s": probe["repro_s"], "import.numpy_eager": probe["numpy_eager"]}


def _fastpath_stats() -> dict[str, int]:
    from repro.fastpath import scaled_speeds_cache_stats

    return scaled_speeds_cache_stats()


def _fastpath_share(before: dict[str, int], after: dict[str, int]) -> float:
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return hits / (hits + misses) if hits + misses else 0.0


def _spans_path(root: Path, workload: str, seed: int) -> Path:
    return root / "perfbench" / "out" / f"trace-{workload}-seed{seed}.jsonl"


def _same_makespans(report: Report, label: str, first: list[str], second: list[str]) -> None:
    if first != second:
        bad = sum(a != b for a, b in zip(first, second)) + abs(len(first) - len(second))
        report.verdict.fail(None, f"{label}: {bad} makespans differ between replays")


# ---------------------------------------------------------------------- #
# traced runs
# ---------------------------------------------------------------------- #


def serve_traced(root: Path, workload: str, seed: int, seconds: float) -> Report:
    phase = seconds / 3
    lines, sequence = serve_inputs(workload, seed, phase)
    run = drive.run_serve(root, lines, sequence, phase, drive.CONNECTIONS[workload], setups=1)
    verdict = _verify_serve(workload, lines, sequence, run)
    report = Report(workload, verdict, *_digest(workload, verdict))
    probes = _serve_probes(report, run)
    texts = [(cls, line.decode()) for cls, line in lines]
    count = len(run.ops)
    order = sequence[:count] if sequence is not None else list(range(count))
    warm = list(range(len(lines))) if sequence is not None else []
    before_s, plain, _ = replay_serve(None, texts, order, warm)
    recorder = trace.Recorder()
    traced_s, answers, missing = replay_serve(recorder, texts, order, warm)
    untraced_s = (before_s + replay_serve(None, texts, order, warm)[0]) / 2
    recorder.write(_spans_path(root, workload, seed))
    makespans = [json.loads(a).get("makespan") for a in plain]
    _same_makespans(report, "untraced vs traced replay",
                    makespans, [json.loads(a).get("makespan") for a in answers])
    _same_makespans(report, "TCP vs in-process", [json.loads(op.answer).get("makespan") for op in run.ops], makespans)
    class_ops = {cls: sum(lines[i][0] == cls for i in order) for cls in SQRT_CLASSES}
    outside = {
        "aserve.server_p50_ms": probes["server_p50_ms"],
        "aserve.outside_service_ms": probes["outside_service_ms"],
        "aserve.coalesced_share": probes["coalesced_share"],
        "cache.hit_share": probes["hit_share"],
        "fastpath.scaled_speeds_hit_share": probes["scaled_speeds_hit_share"],
        **_import_probe(root),
    }
    report.layers = layer_metrics(recorder, count, class_ops, 0, outside, untraced_s, traced_s)
    report.notes.extend(f"not wrapped: {name}" for name in missing)
    attributed = report.layers["trace.attributed_share"].value
    if attributed < 0.9:
        report.notes.append(f"layer spans cover only {attributed:.1%} of request time")
    return report


def batch_traced(root: Path, workload: str, seed: int, seconds: float) -> Report:
    from repro.runtime.batch import BatchRunner

    phase = seconds / 3
    tasks = inputs.batch_tasks(seed, math.ceil(phase * BATCH_RATE_CAP))
    with BatchRunner(workers=drive.BATCH_WORKERS, certify=True) as runner:
        start = perf_counter()
        runner.worker_pool()
        pool_start = perf_counter() - start
    run = drive.run_batch(tasks, phase, setups=1)
    verdict = verify.verify_batch(tasks, run)
    report = Report(workload, verdict, *_digest(workload, verdict))
    before = _fastpath_stats()
    untraced_s, plain, _ = replay_batch(None, tasks, None, phase)
    fastpath = _fastpath_share(before, _fastpath_stats())
    rounds = math.ceil(len(plain) / drive.BATCH_ROUND)
    recorder = trace.Recorder()
    traced_s, results, missing = replay_batch(recorder, tasks, rounds, phase)
    untraced_s = (untraced_s + replay_batch(None, tasks, rounds, phase)[0]) / 2
    recorder.write(_spans_path(root, workload, seed))
    _same_makespans(report, "untraced vs traced replay",
                    [str(r.makespan) for r in plain], [str(r.makespan) for r in results])
    _same_makespans(report, "pool vs in-process", [str(r.makespan) for r in run.results[:len(plain)]],
                    [str(r.makespan) for r in plain])
    class_ops = {cls: sum(inputs.batch_class(r.name) == cls for r in results) for cls in SQRT_CLASSES}
    outside = {
        "cache.hit_share": verdict.hit_share or 0.0,
        "batch.solve_share": run.solve_time_s / (run.wall_s * drive.BATCH_WORKERS),
        "batch.pool_start_s": pool_start,
        "fastpath.scaled_speeds_hit_share": fastpath,
        **_import_probe(root),
    }
    report.layers = layer_metrics(recorder, len(results), class_ops, 0, outside, untraced_s, traced_s)
    report.notes.extend(f"not wrapped: {name}" for name in missing)
    return report


def certify_traced(root: Path, workload: str, seed: int, seconds: float) -> Report:
    ladder = ladder_instances(seed)
    before = _fastpath_stats()
    untraced_s, plain, _ = replay_certify(None, ladder)
    fastpath = _fastpath_share(before, _fastpath_stats())
    recorder = trace.Recorder()
    traced_s, ops, missing = replay_certify(recorder, ladder)
    recorder.write(_spans_path(root, workload, seed))
    after_s, again, _ = replay_certify(None, ladder)
    untraced_s = (untraced_s + after_s) / 2
    verdict = verify.verify_certify(ladder, plain + ops + again)
    report = Report(workload, verdict, *_digest(workload, verdict))
    nodes = sum(op.answer.nodes for op in ops)
    outside = {
        "oracle.bound_tight_share": sum(op.answer.proof == "bound-tight" for op in ops) / len(ops),
        "fastpath.scaled_speeds_hit_share": fastpath,
        **_import_probe(root),
    }
    report.layers = layer_metrics(recorder, len(ops), {}, nodes, outside, untraced_s, traced_s)
    report.notes.extend(f"not wrapped: {name}" for name in missing)
    return report


WORKLOADS: dict[str, tuple[Callable[..., Report], Callable[..., Report]]] = {
    "serve-cold": (serve_untraced, serve_traced),
    "serve-hot": (serve_untraced, serve_traced),
    "batch-mixed": (batch_untraced, batch_traced),
    "certify-exact": (certify_untraced, certify_traced),
}
