"""End-to-end benchmark of the repro scheduling service, batch engine and oracle.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 20 --trace 0

Workloads (all closed loops with at most two connections or workers):

* ``serve-cold`` — one TCP connection to a fresh ``python -m repro serve
  --port 0``; every request a distinct instance, classes q-unit,
  q-weighted, r2 and r4 mixed 1:1:1:1.  The solvers do the work.
* ``serve-hot`` — the same server, over two connections, fed Zipf-drawn
  requests over a hot set of 16 instances, each answered once before
  timing, so every timed request is a cache hit.  Decode, hashing,
  lookup, encode and transport do the work.
* ``batch-mixed`` — ``BatchRunner(workers=2, certify=True)`` with a cold
  cache over small tasks from a batch-spec v3 covering every
  auto-dispatched family, in calls of 128 tasks.
* ``certify-exact`` — sequential ``certified_optimal`` over a fixed
  ladder of hard small instances, in whole passes.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures
the per-layer metrics (see :mod:`perfbench.workloads`).  End-to-end
timings are given at reference host speed, scaled by a fixed
computation timed between segments of the run (see
:mod:`perfbench.hostspeed`); the report prints them as measured too.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report with provenance.  Every answer is verified after the timed region, and
a failed verification makes the exit code 1.  Trace spans are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# every end-to-end metric of the readable report (the result line carries
# the subset in workloads.E2E_METRICS that every workload defines)
REPORTED_METRICS = (
    ("setup_s", "s"), ("requests_per_s", "1/s"), ("latency_p50_ms", "ms"),
    ("latency_class_p50_ms", "ms"),
    ("latency_p90_ms", "ms"), ("latency_p99_ms", "ms"), ("tasks_per_s", "1/s"),
    ("certified_per_s", "1/s"), ("failed_share", "ratio"), ("peak_rss_mb", "MiB"),
    ("makespan_ratio_mean", "ratio"),
)


def git_revision(root: Path) -> dict[str, object]:
    """The checkout's git revision and dirty flag (``unknown`` outside git)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=root, env=env, capture_output=True, text=True,
            timeout=30, check=True,
        ).stdout

    try:
        rev = git("rev-parse", "HEAD").strip()
        dirty = bool(git("status", "--porcelain", "--untracked-files=no").strip())
    except (OSError, subprocess.SubprocessError):
        return {"rev": "unknown", "dirty": None}
    return {"rev": rev, "dirty": dirty}


def host_facts() -> dict[str, object]:
    from importlib.metadata import PackageNotFoundError, version

    def installed(name: str) -> str:
        try:
            return version(name)
        except PackageNotFoundError:
            return "absent"

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": installed("numpy"),
        "scipy": installed("scipy"),
    }


def print_report(report, args: argparse.Namespace) -> None:
    verdict = report.verdict
    print(f"# workload {report.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print(f"# host {json.dumps(host_facts())}  git {json.dumps(git_revision(ROOT))}")
    shape = {cls: {k: round(v, 1) for k, v in row.items()} for cls, row in sorted(verdict.shape.items())}
    print(f"# input shape {json.dumps(shape)}")
    print(f"# chosen {json.dumps(dict(sorted(verdict.chosen.items())))}")
    print(f"# digest sha256 over {report.digest_ops} makespans: {report.digest}")
    for note in report.notes:
        print(f"# note: {note}")
    if args.trace:
        rows = [(name, m.value, m.unit, m.samples) for name, m in report.layers.items()]
    else:
        rows = []
        for name, unit in REPORTED_METRICS:
            m = report.e2e.get(name)
            rows.append((name, None, unit, 0) if m is None else (name, m.value, m.unit, m.samples))
    width = max(len(r[0]) for r in rows)
    print(f"{'metric':<{width}}  {'value':>14}  {'unit':<6}  samples")
    for name, value, unit, samples in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:<{width}}  {shown:>14}  {unit:<6}  {samples}")
    print(f"verification: {'ok' if verdict.correct else 'FAILED'} "
          f"({verdict.failed} of {verdict.attempted} operations failed)")
    for problem in verdict.problems:
        print(f"  problem: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("serve-cold", "serve-hot", "batch-mixed", "certify-exact"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import E2E_METRICS, LAYER_METRICS, WORKLOADS

    untraced, traced = WORKLOADS[args.workload]
    report = (traced if args.trace else untraced)(ROOT, args.workload, args.seed, args.seconds)
    print_report(report, args)
    if args.trace:
        names = [name for name, _, _ in LAYER_METRICS]
        source = report.layers
    else:
        names = [name for name, _, _, _ in E2E_METRICS]
        source = report.e2e
    missing = [name for name in names if name not in source]
    for name in missing:
        report.verdict.fail(None, f"metric {name} was not measured")
    print(json.dumps({
        "correct": report.verdict.correct,
        "attempted": report.verdict.attempted,
        "failed": report.verdict.failed,
        "metrics": {name: {"value": source[name].value, "unit": source[name].unit}
                    for name in names if name in source},
    }))
    return 0 if report.verdict.correct else 1


if __name__ == "__main__":
    sys.exit(main())
