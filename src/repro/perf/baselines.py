"""Pre-optimization reference implementations of the hot paths.

When a hot path is optimized, its original implementation moves here —
verbatim — so that (a) the equivalence tests can prove the optimized
code computes the same results, and (b) ``repro perf`` can keep
producing *reproducible* before/after rows in the BENCH artifacts
instead of numbers measured once and pasted into docs.

These functions are reference material: correct, slow, and frozen.  Do
not "fix" them to match future behaviour changes — change the
equivalence tests' expectations instead, consciously.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.certify.oracle import OracleResult

from repro.exceptions import InfeasibleInstanceError, InvalidInstanceError
from repro.graphs.bipartite import BipartiteGraph
from repro.scheduling.instance import (
    SchedulingInstance,
    UniformInstance,
)
from repro.scheduling.schedule import Schedule

__all__ = [
    "hopcroft_karp_baseline",
    "assign_group_greedy_baseline",
    "certified_optimal_baseline",
]

_INF = float("inf")


def hopcroft_karp_baseline(graph: BipartiteGraph) -> list[int]:
    """The pre-optimization recursive Hopcroft–Karp (reference only).

    Recursion-based augmenting DFS over ``graph.neighbors`` frozensets,
    with a temporary recursion-limit raise for path-like graphs.  The
    optimized :func:`repro.graphs.matching.hopcroft_karp` replaces this
    with an iterative DFS over reused sorted adjacency lists.

    Parameters
    ----------
    graph:
        The bipartite graph to match.

    Returns
    -------
    list of int
        A mate array: ``mate[v]`` is ``v``'s partner or ``-1``.
    """
    left = graph.vertices_on_side(0)
    mate = [-1] * graph.n
    dist: dict[int, float] = {}

    def bfs() -> bool:
        from collections import deque

        q = deque()
        for u in left:
            if mate[u] == -1:
                dist[u] = 0
                q.append(u)
            else:
                dist[u] = _INF
        found = False
        while q:
            u = q.popleft()
            for v in graph.neighbors(u):
                w = mate[v]
                if w == -1:
                    found = True
                elif dist[w] == _INF:
                    dist[w] = dist[u] + 1
                    q.append(w)
        return found

    def dfs(u: int) -> bool:
        for v in graph.neighbors(u):
            w = mate[v]
            if w == -1 or (dist[w] == dist[u] + 1 and dfs(w)):
                mate[u] = v
                mate[v] = u
                return True
        dist[u] = _INF
        return False

    import sys

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, graph.n * 2 + 100))
    try:
        while bfs():
            for u in left:
                if mate[u] == -1:
                    dfs(u)
    finally:
        sys.setrecursionlimit(old_limit)
    return mate


def assign_group_greedy_baseline(
    instance: UniformInstance,
    jobs: Sequence[int],
    machines: Sequence[int],
) -> dict[int, int]:
    """The pre-optimization O(n·m) greedy list scheduling (reference only).

    Evaluates every machine's candidate completion time — one exact
    :class:`~fractions.Fraction` division per (job, machine) pair — for
    every job.  The optimized
    :func:`repro.scheduling.list_scheduling.assign_group_greedy` keeps
    one load-heap per distinct speed instead.

    Parameters
    ----------
    instance:
        The uniform instance supplying ``p`` and ``speeds``.
    jobs:
        The (independent) job class to place.
    machines:
        The machine group receiving it.

    Returns
    -------
    dict
        ``job -> machine`` mapping.
    """
    from repro.scheduling.list_scheduling import lpt_order

    if not machines and jobs:
        raise InvalidInstanceError("cannot schedule jobs on an empty machine group")
    loads: dict[int, int] = {i: 0 for i in machines}
    result: dict[int, int] = {}
    for j in lpt_order(instance, jobs):
        best_i = None
        best_done: Fraction | None = None
        for i in machines:
            done = Fraction(loads[i] + instance.p[j]) / instance.speeds[i]
            if best_done is None or done < best_done:
                best_done = done
                best_i = i
        assert best_i is not None  # repro: allow[RS004] reason=m >= 1 is validated upstream, so the argmin loop always picks a machine
        loads[best_i] += instance.p[j]
        result[j] = best_i
    return result


def certified_optimal_baseline(instance: SchedulingInstance) -> OracleResult:
    """The pre-optimization exact oracle inner loop (reference only).

    Identical search strategy to
    :func:`repro.certify.oracle.certified_optimal` — same incumbent
    seeding, same branch order, same pruning rules — but with the costs
    the optimizations removed: ``Fraction`` completions and incumbents,
    a full :func:`~repro.scheduling.bounds.min_cover_time_with_loads`
    call as the capacity bound at every uniform node, per-node
    recomputation of the unrelated volume bound, per-visit
    ``graph.neighbors`` lookups, and pairwise machine-row comparisons in
    the empty-machine symmetry break.
    Explores the same node set, so equivalence tests compare makespan
    *and* node count.

    Parameters
    ----------
    instance:
        The instance to solve exactly.

    Returns
    -------
    repro.certify.oracle.OracleResult
        Provably optimal schedule plus proof metadata.
    """
    from repro.certify.oracle import OracleResult, _branch_order, _seed_incumbent
    from repro.certify.validators import instance_lower_bound
    from repro.scheduling.bounds import min_cover_time_with_loads

    n, m = instance.n, instance.m
    lower = instance_lower_bound(instance)
    if n == 0:
        return OracleResult(
            Schedule(instance, []), Fraction(0), lower, 0, "bound-tight", None
        )

    incumbent, seeded_from = _seed_incumbent(instance)
    if incumbent is not None and lower is not None and incumbent.makespan == lower:
        return OracleResult(
            incumbent, incumbent.makespan, lower, 0, "bound-tight", seeded_from
        )

    graph = instance.graph
    uniform = isinstance(instance, UniformInstance)
    speeds = instance.speeds if uniform else None
    times: list[list[Fraction | None]] = [
        [instance.processing_time(i, j) for j in range(n)] for i in range(m)
    ]
    branched, tail = _branch_order(instance)
    tail_units = len(tail)
    if uniform:
        suffix_units = [0] * (len(branched) + 1)
        for k in range(len(branched) - 1, -1, -1):
            suffix_units[k] = suffix_units[k + 1] + instance.p[branched[k]]
        suffix_units = [u + tail_units for u in suffix_units]

    best_assignment: list[int] | None = None
    best_makespan: Fraction | None = (
        incumbent.makespan if incumbent is not None else None
    )
    completions: list[Fraction] = [Fraction(0)] * m
    unit_loads: list[int] = [0] * m
    machine_jobs: list[set[int]] = [set() for _ in range(m)]
    assignment: list[int] = [-1] * n
    nodes = 0

    def _finish_tail() -> None:
        nonlocal best_assignment, best_makespan
        if tail_units:
            span = min_cover_time_with_loads(speeds, unit_loads, tail_units)
        else:
            span = max(completions)
        if best_makespan is not None and span >= best_makespan:
            return
        if tail_units:
            from repro.utils.rationals import floor_fraction

            slack = [
                floor_fraction(speeds[i] * span) - unit_loads[i]
                for i in range(m)
            ]
            pos = 0
            for j in tail:
                while slack[pos % m] <= 0:
                    pos += 1
                assignment[j] = pos % m
                slack[pos % m] -= 1
        best_makespan = span
        best_assignment = assignment.copy()
        if tail_units:
            for j in tail:
                assignment[j] = -1

    def _prune_bound(pos: int) -> Fraction:
        bound = max(completions)
        if uniform:
            capacity = min_cover_time_with_loads(
                speeds, unit_loads, suffix_units[pos]
            )
            if capacity > bound:
                bound = capacity
        else:
            volume = sum(completions, Fraction(0))
            for k in range(pos, len(branched)):
                j = branched[k]
                cheapest = min(
                    (times[i][j] for i in range(m) if times[i][j] is not None),
                    default=None,
                )
                if cheapest is not None:
                    volume += cheapest
            if volume / m > bound:
                bound = volume / m
        return bound

    def place(pos: int) -> None:
        nonlocal best_assignment, best_makespan, nodes
        if pos == len(branched):
            _finish_tail()
            return
        nodes += 1
        if best_makespan is not None and _prune_bound(pos) >= best_makespan:
            return
        for k in range(pos, len(branched)):
            jj = branched[k]
            viable = False
            for i in range(m):
                t = times[i][jj]
                if t is None or machine_jobs[i] & graph.neighbors(jj):
                    continue
                if (
                    best_makespan is not None
                    and completions[i] + t >= best_makespan
                ):
                    continue
                viable = True
                break
            if not viable:
                return
        j = branched[pos]
        neighbors = graph.neighbors(j)
        for i in sorted(range(m), key=lambda i: completions[i]):
            t = times[i][j]
            if t is None or machine_jobs[i] & neighbors:
                continue
            if not machine_jobs[i] and _earlier_equivalent_empty(i):
                continue
            done = completions[i] + t
            if best_makespan is not None and done >= best_makespan:
                continue
            completions[i] = done
            machine_jobs[i].add(j)
            assignment[j] = i
            if uniform:
                unit_loads[i] += instance.p[j]
            place(pos + 1)
            completions[i] = done - t
            machine_jobs[i].remove(j)
            assignment[j] = -1
            if uniform:
                unit_loads[i] -= instance.p[j]

    def _earlier_equivalent_empty(i: int) -> bool:
        for other in range(i):
            if machine_jobs[other]:
                continue
            if all(times[other][j] == times[i][j] for j in range(n)):
                return True
        return False

    place(0)

    if best_assignment is None:
        if incumbent is not None:
            return OracleResult(
                incumbent,
                incumbent.makespan,
                lower,
                nodes,
                "search-exhausted",
                seeded_from,
            )
        raise InfeasibleInstanceError("no feasible schedule exists")
    if incumbent is not None and best_makespan == incumbent.makespan:
        schedule = incumbent
    else:
        schedule = Schedule(instance, best_assignment)
    return OracleResult(
        schedule, schedule.makespan, lower, nodes, "search-exhausted", seeded_from
    )
