"""Optimized hot paths vs their preserved pre-optimization baselines.

Each optimization in this repo ships with the original implementation
(:mod:`repro.perf.baselines`); these tests prove the optimized code
computes the same results — the contract that makes the measured
speedups meaningful.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from repro.certify.oracle import certified_optimal
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.generators import empty_graph
from repro.graphs.matching import hopcroft_karp, is_matching
from repro.io.jsonl import read_jsonl
from repro.io.serialization import instance_from_dict
from repro.machines.profiles import geometric_speeds, power_law_speeds
from repro.perf.baselines import (
    assign_group_greedy_baseline,
    certified_optimal_baseline,
    hopcroft_karp_baseline,
)
from repro.runtime.batch import BatchRunner
from repro.scheduling.instance import (
    UniformInstance,
    UnrelatedInstance,
    unit_uniform_instance,
)
from repro.scheduling.list_scheduling import assign_group_greedy
from repro.random_graphs.gilbert import gnnp

from tests.conftest import random_bipartite


def _matching_size(mate: list[int]) -> int:
    return sum(1 for v in mate if v != -1) // 2


def test_hopcroft_karp_matches_baseline_size_on_random_graphs(rng):
    for _ in range(150):
        g = random_bipartite(rng, max_side=10)
        optimized = hopcroft_karp(g)
        baseline = hopcroft_karp_baseline(g)
        assert is_matching(g, optimized)
        assert _matching_size(optimized) == _matching_size(baseline)


def test_hopcroft_karp_deterministic_per_graph():
    g = gnnp(40, 0.1, seed=12)
    assert hopcroft_karp(g) == hopcroft_karp(g)


def test_hopcroft_karp_deep_path_needs_no_recursion_limit():
    # a single long path forces the longest possible augmenting chains;
    # the recursive baseline needed a recursion-limit raise here
    from repro.graphs.generators import path_graph

    g = path_graph(4001)
    mate = hopcroft_karp(g)
    assert is_matching(g, mate)
    assert _matching_size(mate) == 2000


def test_assign_group_greedy_identical_to_baseline(rng):
    for _ in range(80):
        n = int(rng.integers(1, 40))
        m = int(rng.integers(1, 12))
        p = [int(x) for x in rng.integers(1, 25, n)]
        speeds = sorted(
            (
                Fraction(int(rng.integers(1, 6)), int(rng.integers(1, 4)))
                for _ in range(m)
            ),
            reverse=True,
        )
        inst = UniformInstance(empty_graph(n), p, speeds)
        machines = [int(i) for i in rng.permutation(m)]
        jobs = list(range(n))
        assert assign_group_greedy(inst, jobs, machines) == (
            assign_group_greedy_baseline(inst, jobs, machines)
        )


def test_assign_group_greedy_repeated_speeds_identical_to_baseline():
    # repeated speeds exercise the per-group heap tie-breaking
    inst = UniformInstance(
        empty_graph(9), [4, 4, 3, 3, 2, 2, 1, 1, 1], [2, 2, 1, 1]
    )
    jobs = list(range(9))
    machines = [3, 1, 0, 2]
    assert assign_group_greedy(inst, jobs, machines) == (
        assign_group_greedy_baseline(inst, jobs, machines)
    )


def test_oracle_identical_search_to_baseline(rng):
    for _ in range(20):
        g = random_bipartite(rng, max_side=5)
        p = [int(x) for x in rng.integers(1, 8, g.n)]
        inst = UniformInstance(g, p, geometric_speeds(3, 2))
        a = certified_optimal(inst)
        b = certified_optimal_baseline(inst)
        assert (a.makespan, a.nodes, a.proof) == (b.makespan, b.nodes, b.proof)


def test_oracle_identical_search_to_baseline_unrelated(rng):
    for _ in range(12):
        g = random_bipartite(rng, max_side=4)
        times = [[int(x) for x in rng.integers(1, 15, g.n)] for _ in range(3)]
        inst = UnrelatedInstance(g, times)
        a = certified_optimal(inst)
        b = certified_optimal_baseline(inst)
        assert (a.makespan, a.nodes, a.proof) == (b.makespan, b.nodes, b.proof)


def _same_search(inst) -> int:
    a = certified_optimal(inst)
    b = certified_optimal_baseline(inst)
    assert (a.makespan, a.nodes, a.proof) == (b.makespan, b.nodes, b.proof)
    return a.nodes


def test_oracle_identical_search_to_baseline_rational_speeds(rng):
    # non-integer speeds put the scaled grid (quantum = lcm of the speed
    # numerators) and the capacity thresholds ceil(s_i * best) - 1 to work;
    # unit jobs feed the isolated tail
    speeds = [Fraction(5, 3), Fraction(3, 2), Fraction(1)]
    nodes = 0
    for _ in range(20):
        g = random_bipartite(rng, max_side=6)
        p = [1 if rng.random() < 0.3 else int(rng.integers(2, 8)) for _ in range(g.n)]
        nodes += _same_search(UniformInstance(g, p, speeds))
    assert nodes > 0


def test_oracle_identical_search_to_baseline_fraction_times(rng):
    nodes = 0
    for _ in range(12):
        g = random_bipartite(rng, max_side=4)
        times = [
            [
                None
                if i > 0 and rng.random() < 0.15
                else Fraction(int(rng.integers(1, 15)), int(rng.integers(1, 5)))
                for _ in range(g.n)
            ]
            for i in range(3)
        ]
        nodes += _same_search(UnrelatedInstance(g, times))
    assert nodes > 0


# the two frozen records the oracle needs more than five seconds for
_CORPUS_BEYOND_REACH = {"runheavy-two-group-sizes2-4", "runheavy-two-group-sizes3-5"}


def test_oracle_identical_search_to_baseline_on_frozen_corpus():
    """Every frozen corpus record the oracle proves in under a second
    explores the baseline's tree, node for node."""
    corpus = (
        Path(__file__).resolve().parent
        / "fixtures"
        / "differential"
        / "corpus.jsonl"
    )
    checked = 0
    for record in read_jsonl(corpus):
        if record["id"] in _CORPUS_BEYOND_REACH:
            continue
        _same_search(instance_from_dict(record["instance"]))
        checked += 1
    assert checked >= 60


def _fanout_tasks(runs: int, per_run: int):
    return [
        [
            (
                f"run{s}-task{i}",
                unit_uniform_instance(
                    gnnp(5, 0.2, seed=10 * s + i), power_law_speeds(3)
                ),
            )
            for i in range(per_run)
        ]
        for s in range(runs)
    ]


@pytest.mark.parametrize("persistent", [True, False])
def test_batch_runner_results_invariant_under_pool_mode(persistent):
    reference = [
        [(r.name, r.makespan, r.chosen) for r in BatchRunner().run_to_list(ts)]
        for ts in _fanout_tasks(3, 3)
    ]
    with BatchRunner(workers=2, persistent_pool=persistent) as runner:
        streams = [
            [(r.name, r.makespan, r.chosen) for r in runner.run_to_list(ts)]
            for ts in _fanout_tasks(3, 3)
        ]
    assert streams == reference


def test_batch_runner_reuses_one_pool_across_runs():
    with BatchRunner(workers=2) as runner:
        assert runner._pool is None  # lazy: no pool before the first run
        runner.run_to_list(_fanout_tasks(1, 2)[0])
        pool = runner._pool
        assert pool is not None
        runner.run_to_list(_fanout_tasks(2, 2)[1])
        assert runner._pool is pool
    assert runner._pool is None  # context exit tears it down


def test_batch_runner_close_is_idempotent_and_runner_stays_usable():
    runner = BatchRunner(workers=2)
    tasks = _fanout_tasks(1, 2)[0]
    first = [r.makespan for r in runner.run_to_list(tasks)]
    runner.close()
    runner.close()  # no-op
    # the next run forks a fresh pool transparently
    runner.cache = type(runner.cache)()  # fresh cache: force real solves
    assert [r.makespan for r in runner.run_to_list(tasks)] == first
    runner.close()


def test_batch_runner_in_process_mode_has_no_pool():
    runner = BatchRunner(workers=1)
    runner.run_to_list(_fanout_tasks(1, 2)[0])
    assert runner._pool is None
    runner.close()  # accepted no-op
