"""Self-tests of the benchmark: inputs, verifier, catalog and a smoke pass.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs, verify, workloads  # noqa: E402

WORKLOADS = ("serve-cold", "serve-hot", "batch-mixed", "certify-exact")


def test_same_seed_same_request_bytes() -> None:
    assert inputs.serve_cold(5, 8) == inputs.serve_cold(5, 8)
    assert inputs.serve_hot(5, 100) == inputs.serve_hot(5, 100)
    assert inputs.certify_ladder(5) == inputs.certify_ladder(5)
    first = [(t.name, t.payload) for t in inputs.batch_tasks(5, 40)]
    assert first == [(t.name, t.payload) for t in inputs.batch_tasks(5, 40)]


def test_other_seed_other_inputs() -> None:
    assert inputs.serve_cold(5, 4) != inputs.serve_cold(6, 4)
    assert inputs.serve_hot(5, 50) != inputs.serve_hot(6, 50)
    assert [t.payload for t in inputs.batch_tasks(5, 18)] != [
        t.payload for t in inputs.batch_tasks(6, 18)]
    # the ladder rungs are fixed; the seed only reorders them
    assert sorted(inputs.certify_ladder(5)) == sorted(inputs.certify_ladder(6))


def test_serve_class_mix_is_exact_in_blocks() -> None:
    classes = [cls for cls, _ in inputs.serve_cold(9, 12)]
    for block in range(3):
        assert sorted(classes[4 * block:4 * block + 4]) == sorted(inputs.SERVE_CLASSES)
    hot, sequence = inputs.serve_hot(9, 400)
    assert len(hot) == 16
    assert all(0 <= i < 16 for i in sequence)


def test_batch_tasks_are_distinct_and_cover_every_entry() -> None:
    tasks = inputs.batch_tasks(3, 90)
    texts = {json.dumps(t.payload, sort_keys=True) for t in tasks}
    assert len(texts) == len(tasks)
    assert {inputs.batch_class(t.name) for t in tasks} == set(inputs.BATCH_ENTRY_NAMES)


def _small_answer() -> tuple[dict, list[int], str]:
    from repro.engine import solve
    from repro.io import frac_str, instance_from_dict

    payload = inputs.ladder_instance("q", 0)
    schedule = solve(instance_from_dict(payload))
    return payload, list(schedule.assignment), frac_str(schedule.makespan)


def test_verifier_accepts_a_true_answer() -> None:
    payload, assignment, makespan = _small_answer()
    problem, ratio = verify.certify_claim(payload, assignment, makespan)
    assert problem is None and ratio >= 1.0


def test_verifier_rejects_a_corrupted_assignment() -> None:
    payload, assignment, makespan = _small_answer()
    u, v = payload["graph"]["edges"][0]
    corrupted = list(assignment)
    corrupted[v] = corrupted[u]
    problem, _ = verify.certify_claim(payload, corrupted, makespan)
    assert problem is not None and "conflict" in problem


def test_verifier_rejects_a_wrong_makespan() -> None:
    payload, assignment, makespan = _small_answer()
    wrong = Fraction(makespan) + 1
    problem, _ = verify.certify_claim(payload, assignment, f"{wrong.numerator}/{wrong.denominator}")
    assert problem is not None and "mismatch" in problem


def test_serve_cold_verdict_counts_a_corrupted_answer() -> None:
    from repro.engine.service import EngineService

    lines = inputs.serve_cold(2, 4)
    service = EngineService()
    answers = [service.handle_line(line.decode()).encode() for _, line in lines]
    bad = json.loads(answers[1])
    bad["makespan"] = "1/1"
    answers[1] = json.dumps(bad).encode()
    stats = {"cached": 0}
    run = SimpleNamespace(
        ops=[SimpleNamespace(index=i, cls=lines[i][0], answer=a) for i, a in enumerate(answers)],
        stats_before=stats, stats_after=stats,
    )
    verdict = verify.verify_serve_cold(lines, run)
    assert verdict.attempted == 4 and verdict.failed == 1 and not verdict.correct
    assert len(verdict.ratios) == 3


def test_host_speed_scales_by_the_mean_mark_of_a_phase() -> None:
    from perfbench import hostspeed

    speed = hostspeed.HostSpeed()
    speed.marks = {"loop": [0.02, 0.04, 0.03], "setup": [hostspeed.REFERENCE_S]}
    assert speed.scale("loop") == pytest.approx(hostspeed.REFERENCE_S / 0.03)
    assert speed.scale("setup") == 1.0


def test_host_speed_mark_restores_affinity_and_collector() -> None:
    import gc
    import os

    from perfbench import hostspeed

    own = os.sched_getaffinity(0)
    speed = hostspeed.HostSpeed()
    speed.mark("setup")
    assert os.sched_getaffinity(0) == own and gc.isenabled()
    assert len(speed.marks["setup"]) == 1 and speed.marks["setup"][0] > 0


def test_benchmark_json_matches_the_metric_catalog() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in workloads.E2E_METRICS]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in workloads.LAYER_METRICS]


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_pass_emits_every_metric(workload: str, trace: str) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end" if trace == "0" else "per_layer"]]
    done = _run(["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace], ROOT)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == names


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(["--workload", "serve-cold", "--seed", "1", "--seconds", "1"], tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
