"""Tests for schedules and feasibility validation."""

from fractions import Fraction

import numpy as np
import pytest

from repro.exceptions import InvalidScheduleError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.generators import matching_graph, path_graph
from repro.scheduling.instance import UniformInstance, UnrelatedInstance
from repro.scheduling.schedule import Schedule, schedule_from_groups

from tests.conftest import random_bipartite


def simple_instance(m: int = 2) -> UniformInstance:
    return UniformInstance(path_graph(4), [3, 1, 2, 4], [Fraction(2)] + [Fraction(1)] * (m - 1))


class TestScheduleBasics:
    def test_makespan_uniform(self):
        inst = simple_instance()
        s = Schedule(inst, [0, 1, 0, 1])
        # machine 0 (speed 2): p = 3 + 2 = 5 -> 5/2; machine 1: 1 + 4 = 5
        assert s.completion_times() == (Fraction(5, 2), Fraction(5))
        assert s.makespan == Fraction(5)

    def test_makespan_unrelated(self):
        g = BipartiteGraph(2, [])
        inst = UnrelatedInstance(g, [[5, 1], [2, 2]])
        s = Schedule(inst, [1, 0])
        assert s.makespan == Fraction(2)

    def test_empty_schedule(self):
        g = BipartiteGraph(0, [])
        inst = UniformInstance(g, [], [1])
        assert Schedule(inst, []).makespan == 0

    def test_jobs_on(self):
        inst = simple_instance()
        s = Schedule(inst, [0, 1, 0, 1])
        assert s.jobs_on(0) == [0, 2]
        assert s.machine_groups() == [[0, 2], [1, 3]]


class TestValidation:
    def test_conflict_detected(self):
        inst = simple_instance()
        with pytest.raises(InvalidScheduleError, match="incompatible"):
            Schedule(inst, [0, 0, 1, 1])  # jobs 0-1 adjacent on machine 0

    def test_check_false_defers(self):
        inst = simple_instance()
        s = Schedule(inst, [0, 0, 1, 1], check=False)
        assert not s.is_feasible()
        assert len(s.violations()) == 2  # (0,1) on M0 and (2,3) on M1

    def test_forbidden_pair_detected(self):
        g = BipartiteGraph(2, [])
        inst = UnrelatedInstance(g, [[1, None], [1, 1]])
        with pytest.raises(InvalidScheduleError, match="forbidden"):
            Schedule(inst, [0, 0])

    def test_machine_range_checked(self):
        inst = simple_instance()
        with pytest.raises(InvalidScheduleError):
            Schedule(inst, [0, 1, 0, 5])

    def test_length_checked(self):
        inst = simple_instance()
        with pytest.raises(InvalidScheduleError):
            Schedule(inst, [0, 1])

    def test_valid_schedule_passes(self):
        inst = simple_instance()
        s = Schedule(inst, [0, 1, 0, 1])
        assert s.is_feasible()
        assert s.violations() == []


class TestScheduleFromGroups:
    def test_roundtrip(self):
        inst = simple_instance()
        s = schedule_from_groups(inst, {0: [0, 2], 1: [1, 3]})
        assert s.assignment == (0, 1, 0, 1)

    def test_duplicate_assignment_rejected(self):
        inst = simple_instance()
        with pytest.raises(InvalidScheduleError, match="twice"):
            schedule_from_groups(inst, {0: [0, 1], 1: [1, 2, 3]})

    def test_missing_job_rejected(self):
        inst = simple_instance()
        with pytest.raises(InvalidScheduleError, match="not assigned"):
            schedule_from_groups(inst, {0: [0, 2]})


class TestEquality:
    def test_same_assignment_equal(self):
        inst = simple_instance()
        a = Schedule(inst, [0, 1, 0, 1])
        b = Schedule(inst, [0, 1, 0, 1])
        assert a == b and hash(a) == hash(b)

    def test_different_assignment_unequal(self):
        inst = UniformInstance(matching_graph(1), [1, 1], [1, 1])
        assert Schedule(inst, [0, 1]) != Schedule(inst, [1, 0])


def listed_violations(s: Schedule) -> list[str]:
    """The full per-machine listing, written out independently."""
    inst = s.instance
    problems = []
    for i, jobs in enumerate(s.machine_groups()):
        problems += [
            f"job {j} forbidden on machine {i}"
            for j in jobs
            if inst.processing_time(i, j) is None
        ]
        for j in jobs:
            for other in inst.graph.neighbors(j) & set(jobs):
                if j < other:
                    problems.append(
                        f"incompatible jobs {j} and {other} share machine {i}"
                    )
    return problems


class TestViolationsListing:
    """Every assignment, feasible or not, gets the full listing (in
    order, with the same wording) whatever the instance can forbid."""

    @pytest.mark.parametrize("kind", ["uniform", "masked", "unrelated"])
    def test_matches_listing_on_random_assignments(self, kind):
        rng = np.random.default_rng(21)
        for _ in range(60):
            g = random_bipartite(rng, max_side=5)
            m = int(rng.integers(2, 4))
            if kind == "unrelated":
                times = [
                    [None if rng.random() < 0.3 else int(rng.integers(1, 5))
                     for _ in range(g.n)]
                    for _ in range(m)
                ]
                for j in range(g.n):
                    times[int(rng.integers(m))][j] = 1
                inst = UnrelatedInstance(g, times)
            else:
                eligible = None
                if kind == "masked":
                    eligible = [
                        None if rng.random() < 0.4
                        else sorted({int(x) for x in rng.integers(0, m, 2)})
                        for _ in range(g.n)
                    ]
                inst = UniformInstance(g, [1] * g.n, [1] * m, eligible=eligible)
            s = Schedule(inst, [int(x) for x in rng.integers(0, m, g.n)], check=False)
            assert s.violations() == listed_violations(s)
            assert s.is_feasible() == (not listed_violations(s))
