"""The pruned exact oracle: certified optima beyond brute-force sizes.

:func:`repro.scheduling.brute_force.brute_force_optimal` is exact but
tops out around ``n ~ 16``; guarantee audits want ground truth on the
instance sizes the sweeps actually use.  :func:`certified_optimal`
pushes the frontier to ``n ~ 30`` on the unit-job uniform instances the
paper's exact results target, with four ingredients:

1. **incumbent seeding** — the dispatcher's own output
   (:func:`repro.engine.solve` with ``algorithm="auto"``) starts the
   search with a feasible upper bound, often already optimal;
2. **bound-tight fast path** — when the seed's makespan equals the
   environment's exact lower bound
   (:func:`~repro.scheduling.bounds.uniform_capacity_lower_bound` /
   :func:`~repro.scheduling.bounds.unrelated_lower_bound`), optimality
   is proven with zero search nodes;
3. **partial-assignment pruning** — at every node the residual demand
   must fit the rounded-down residual capacities below the incumbent
   (the bound :func:`~repro.scheduling.bounds.min_cover_time_with_loads`
   computes, decided here by an O(m) integer test, see below), the
   unrelated residual volume must fit ``m`` machines, and every
   unassigned job must still have a conflict-free machine whose
   completion stays below the incumbent;
4. **component decomposition**
   (:func:`repro.graphs.components.connected_components`) — branching
   proceeds component by component so conflict propagation is local,
   and the conflict-free *isolated* unit jobs are not branched on at
   all: once the connected components are placed, the optimal tail is
   computed exactly by the capacity bound and materialised greedily.

The result is a :class:`OracleResult` carrying the proof method and the
node count, so certification reports can show *why* a value is optimal.

**Exact scaled integers.**  The search never touches a ``Fraction``
per node.  With ``quantum`` the lcm of the speed numerators (uniform)
or of the processing-time denominators (unrelated), every processing
time, completion and tail span times ``quantum`` is an integer; the
search keeps completions as those ints, machine job sets as bitmasks,
and the incumbent ``best`` as ``ceil(best * quantum)``, which decides
``C < best`` exactly for every grid value ``C``.  The uniform capacity
prune ``min_cover_time_with_loads(speeds, loads, demand) >= best``
becomes ``sum_i max(0, c_i - load_i) < demand`` with thresholds
``c_i = ceil(s_i * best) - 1`` recomputed only when the incumbent
improves: ``residual(T) = sum_i max(0, floor(s_i * T) - load_i)`` is
non-decreasing and right-continuous, ``floor(s_i * (best - eps)) =
c_i``, and the test runs only once the frontier ``max_i load_i / s_i``
is known to lie below ``best``, so some ``T < best`` covers the demand
exactly when ``residual(best-) >= demand``.  The search tree is the
one the rational reference
:func:`repro.perf.baselines.certified_optimal_baseline` explores, node
for node (measured by ``repro perf --target oracle``).

**Parallel certified search.**  ``certified_optimal(instance,
workers=k)`` with ``k > 1`` root-splits the branch and bound: the first
one or two branching levels of the component-ordered search are
expanded into independent subtree tasks (mirroring the search's own
viability, empty-machine-symmetry and incumbent filters, so the union
of subtrees covers exactly the sequential tree), which fan out over a
:class:`~concurrent.futures.ProcessPoolExecutor`.  Workers share the
search's own scaled incumbent integer ``best * quantum`` through a
64-bit :func:`multiprocessing.RawValue` guarded by a lock, polled every
:data:`_PULL_EVERY` nodes and compare-and-swapped on improvement, so no
rounding and no ``Fraction`` is ever involved.  The
returned makespan is bit-identical to the sequential search (both
compute ``min(seed, OPT)`` exactly); node counts may differ because
cross-worker incumbent propagation prunes differently.  A killed or
crashed worker never changes the answer: its subtree, and every
subtree not yet handed out when the pool broke, is re-searched
sequentially in the parent.  When parallelism cannot apply — a single
root branch, no seed incumbent, an incumbent too large for the shared
64-bit cell, or a daemonic caller such as a
:class:`~repro.runtime.batch.BatchRunner` worker (nested pools are
forbidden by :mod:`multiprocessing`) — the oracle silently runs the
sequential search.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from repro.exceptions import InfeasibleInstanceError, ReproError
from repro.graphs.components import connected_components
from repro.scheduling.bounds import min_cover_time_with_loads
from repro.scheduling.instance import (
    SchedulingInstance,
    UniformInstance,
    UnrelatedInstance,
)
from repro.scheduling.schedule import Schedule
from repro.certify.validators import instance_lower_bound

__all__ = ["OracleResult", "certified_optimal", "certified_optimal_makespan"]

_INT64_SAFE = 2**62
"""Largest scaled incumbent the shared 64-bit cell may carry."""

_PULL_EVERY = 64
"""Worker nodes between reads of the shared incumbent."""

_MAX_SUBTREES = 256
"""Root-splitting stops expanding once this many prefixes exist."""

_CRASH_ENV = "_REPRO_ORACLE_CRASH_SUBTREE"
"""Test hook: a worker handed the subtree with this index dies abruptly
(exercises the crashed-worker requeue path without real kill races)."""


@dataclass(frozen=True)
class OracleResult:
    """A provably optimal schedule plus its proof metadata.

    ``proof`` is ``"bound-tight"`` (the incumbent met the exact lower
    bound; zero nodes explored) or ``"search-exhausted"`` (branch and
    bound closed the gap).  ``seeded_from`` names the dispatch route
    that produced the starting incumbent (``None`` when no heuristic
    applied and the search started cold).

    ``workers`` is the number of search processes that actually ran
    (``1`` for the sequential search, including every parallel
    fallback) and ``subtrees`` the number of root-split tasks fanned
    out (``0`` when no split happened).  ``nodes`` aggregates the
    explored nodes across all workers plus the root expansion.
    """

    schedule: Schedule
    makespan: Fraction
    lower_bound: Fraction | None
    nodes: int
    proof: str
    seeded_from: str | None
    workers: int = 1
    subtrees: int = 0

    @property
    def optimal(self) -> Fraction:
        """Alias for :attr:`makespan` (it is proven optimal)."""
        return self.makespan


def _seed_incumbent(instance: SchedulingInstance) -> tuple[Schedule | None, str | None]:
    """Best feasible heuristic schedule to start the search from."""
    from repro.engine import auto_choice, solve

    best: Schedule | None = None
    chosen: str | None = None
    try:
        name = auto_choice(instance)
        schedule = solve(instance, algorithm=name)
        if schedule.is_feasible():
            best, chosen = schedule, name
    except ReproError:
        pass
    except Exception:  # noqa: BLE001 — a buggy heuristic must not stop
        # the exact search; the auditor reports the crash separately
        pass
    return best, chosen


def _branch_order(instance: SchedulingInstance) -> tuple[list[int], list[int]]:
    """``(branched, isolated_unit_tail)`` job orders.

    Branched jobs are grouped by connected component (largest first, so
    the hardest conflicts bind early), within a component by descending
    processing requirement then degree.  The tail collects isolated
    *unit* jobs of uniform instances that may run on every machine —
    conflict-free and interchangeable, they are finished exactly by the
    capacity bound instead of being branched on.  Every other job is
    branched: the capacity bound knows nothing of eligibility, so a
    masked job cannot join the tail, and on unrelated instances isolated
    jobs are not interchangeable.
    """
    graph = instance.graph
    components = connected_components(graph)
    uniform = isinstance(instance, UniformInstance)

    def weight(j: int) -> int:
        return instance.p[j] if isinstance(instance, UniformInstance) else graph.degree(j)

    tail: list[int] = []
    branched: list[int] = []
    nontrivial = [c for c in components if len(c) > 1]
    singletons = [c[0] for c in components if len(c) == 1]
    nontrivial.sort(key=len, reverse=True)
    for comp in nontrivial:
        branched.extend(
            sorted(comp, key=lambda j: (-weight(j), -graph.degree(j)))
        )
    for j in sorted(singletons, key=lambda j: -weight(j)):
        if (
            uniform
            and instance.p[j] == 1
            and len(instance.eligible_machines(j)) == instance.m
        ):
            tail.append(j)
        else:
            branched.append(j)
    return branched, tail


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _cover_thresholds(
    speed_scale: list[tuple[int, int]], num: int, den: int
) -> list[int]:
    """``ceil(s_i * best) - 1`` per machine, where ``best * quantum == num / den``.

    That is ``floor(s_i * T)`` for every ``T`` just below ``best``: the
    most integer units machine ``i`` finishes strictly before the
    incumbent.  ``speed_scale`` holds ``(num_i, den_i * quantum)`` per
    machine (see :class:`_SearchContext`).
    """
    return [_ceil_div(sn * num, sd * den) - 1 for sn, sd in speed_scale]


def _capacity_prunes(
    thresholds: list[int], loads: list[int], demand: int
) -> bool:
    """Whether the capacity bound reaches the incumbent: an O(m) int test.

    Equal to ``min_cover_time_with_loads(speeds, loads, demand) >= best``
    whenever the frontier ``max_i loads[i] / s_i`` lies below ``best``
    (the search checks that first).  ``residual(T) = sum_i max(0,
    floor(s_i * T) - loads[i])`` is a non-decreasing, right-continuous
    step function, so some ``T`` in ``[frontier, best)`` covers
    ``demand`` exactly when its left limit at ``best`` — the sum below,
    over ``thresholds`` from :func:`_cover_thresholds` — does.
    """
    residual = 0
    for c, load in zip(thresholds, loads):
        if c > load:
            residual += c - load
    return residual < demand


class _SearchContext:
    """Everything the branch and bound precomputes once per instance.

    The search runs on exact scaled integers.  ``quantum`` is the lcm of
    the speed numerators (uniform) or of the processing-time
    denominators (unrelated), so every processing time, every reachable
    completion time and every isolated-tail span times ``quantum`` is an
    integer; ``times[i][j]`` holds that integer (``None`` for a
    forbidden pair).  Neighbour sets are int bitmasks over job ids.

    Immutable during the search, so one context serves both the
    sequential path and (rebuilt from the serialised instance in
    :func:`_subtree_init`) every subtree task a worker process runs.
    """

    __slots__ = (
        "instance",
        "n",
        "m",
        "uniform",
        "speeds",
        "speed_scale",
        "p",
        "quantum",
        "times",
        "options",
        "neighbor_masks",
        "branched",
        "tail",
        "tail_units",
        "suffix_units",
        "suffix_cheapest",
        "earlier_identical",
        "unbounded",
    )

    def __init__(self, instance: SchedulingInstance) -> None:
        n, m = instance.n, instance.m
        self.instance = instance
        self.n = n
        self.m = m
        if isinstance(instance, UniformInstance):
            self.uniform = True
            self.speeds: tuple[Fraction, ...] = instance.speeds
            self.p: tuple[int, ...] = instance.p
            quantum = math.lcm(*(s.numerator for s in self.speeds))
            # grid steps per unit of work on machine i: quantum / s_i
            steps = [quantum // s.numerator * s.denominator for s in self.speeds]
            times: list[list[int | None]] = [
                [
                    self.p[j] * steps[i] if instance.allows(i, j) else None
                    for j in range(n)
                ]
                for i in range(m)
            ]
            # floor(s_i * T) == (num_i * T * quantum) // (den_i * quantum)
            self.speed_scale: list[tuple[int, int]] = [
                (s.numerator, s.denominator * quantum) for s in self.speeds
            ]
            # no completion or tail span exceeds (sum(p) + m) / min(s)
            self.unbounded = (sum(self.p) + m) * max(steps, default=1) + 1
        else:
            self.uniform = False
            self.speeds = ()
            self.p = ()
            self.speed_scale = []
            rational = [
                [instance.processing_time(i, j) for j in range(n)] for i in range(m)
            ]
            quantum = math.lcm(
                *(t.denominator for row in rational for t in row if t is not None)
            )
            times = [
                [
                    None if t is None else t.numerator * (quantum // t.denominator)
                    for t in row
                ]
                for row in rational
            ]
        self.quantum = quantum
        self.times = times
        # per job, the (machine, scaled time) pairs it may run on
        self.options: list[tuple[tuple[int, int], ...]] = [
            tuple((i, t) for i in range(m) if (t := times[i][j]) is not None)
            for j in range(n)
        ]
        graph = instance.graph
        self.neighbor_masks: list[int] = [
            sum(1 << k for k in graph.neighbors(j)) for j in range(n)
        ]
        self.branched, self.tail = _branch_order(instance)
        self.tail_units = len(self.tail)  # all unit jobs
        # residual integer demand after position k of the branched order
        # (uniform only; includes the tail's units)
        if self.uniform:
            suffix_units = [0] * (len(self.branched) + 1)
            for k in range(len(self.branched) - 1, -1, -1):
                suffix_units[k] = suffix_units[k + 1] + self.p[self.branched[k]]
            self.suffix_units: list[int] = [
                u + self.tail_units for u in suffix_units
            ]
            self.suffix_cheapest: list[int] = []
        else:
            # residual volume after position k of the branched order, each
            # job billed at its cheapest eligible machine — static, so the
            # per-node volume bound becomes one addition
            suffix_cheapest = [0] * (len(self.branched) + 1)
            for k in range(len(self.branched) - 1, -1, -1):
                cheapest = min(
                    (t for _, t in self.options[self.branched[k]]), default=0
                )
                suffix_cheapest[k] = suffix_cheapest[k + 1] + cheapest
            self.suffix_cheapest = suffix_cheapest
            self.suffix_units = []
            # no completion exceeds every job on its slowest machine
            self.unbounded = (
                sum(max((t for _, t in opts), default=0) for opts in self.options)
                + 1
            )
        # empty-machine symmetry break: earlier machines with an identical
        # processing-time row
        machine_rows = [tuple(row) for row in times]
        self.earlier_identical: list[tuple[int, ...]] = [
            tuple(
                other
                for other in range(i)
                if machine_rows[other] == machine_rows[i]
            )
            for i in range(m)
        ]


class _SharedIncumbent:
    """The cross-process incumbent: the search's own scaled integer.

    Every search holds its incumbent as ``makespan * quantum`` (see
    :class:`_SearchContext`), so the 64-bit cell carries exactly that
    integer: offers and polls compare ints and never round.
    """

    __slots__ = ("value", "lock")

    def __init__(self, value: Any, lock: Any) -> None:
        self.value = value
        self.lock = lock

    def offer(self, scaled: int) -> None:
        with self.lock:
            if scaled < self.value.value:
                self.value.value = scaled

    def read(self) -> int:
        with self.lock:
            return int(self.value.value)


def _run_search(
    ctx: _SearchContext,
    incumbent_makespan: Fraction | None,
    prefix: tuple[int, ...] = (),
    shared: _SharedIncumbent | None = None,
) -> tuple[Fraction | None, list[int] | None, int]:
    """Branch and bound over the subtree below ``prefix``.

    Returns ``(found_makespan, found_assignment, nodes)`` where the
    found pair is the best *materialised* schedule strictly better than
    every incumbent seen (``None`` when the subtree holds nothing
    better).  With ``prefix=()`` and ``shared=None`` this is the
    sequential search.

    Inside, completions are ints on the ``quantum`` grid and machine job
    sets are bitmasks.  The incumbent ``best`` is held as ``limit =
    ceil(best * quantum)``: a grid value ``C`` satisfies ``C < best``
    exactly when ``C < limit``.
    """
    uniform = ctx.uniform
    speeds = ctx.speeds
    speed_scale = ctx.speed_scale
    p = ctx.p
    quantum = ctx.quantum
    times = ctx.times
    neighbor_masks = ctx.neighbor_masks
    branched = ctx.branched
    depth = len(branched)
    tail = ctx.tail
    tail_units = ctx.tail_units
    suffix_units = ctx.suffix_units
    suffix_cheapest = ctx.suffix_cheapest
    earlier_identical = ctx.earlier_identical
    pending = [(neighbor_masks[j], ctx.options[j]) for j in branched]
    n, m = ctx.n, ctx.m
    columns = [[times[i][j] for i in range(m)] for j in range(n)]

    limit = 0
    volume_limit = 0  # ceil(m * best * quantum): the unrelated volume prune
    thresholds: list[int] = []  # the uniform capacity prune's c_i

    def set_incumbent(num: int, den: int) -> None:
        """Make ``best`` with ``best * quantum == num / den`` the incumbent."""
        nonlocal limit, volume_limit, thresholds
        limit = _ceil_div(num, den)
        volume_limit = _ceil_div(m * num, den)
        thresholds = _cover_thresholds(speed_scale, num, den)

    if incumbent_makespan is None:
        # no incumbent: a limit above every reachable value prunes nothing
        set_incumbent(ctx.unbounded, 1)
    else:
        set_incumbent(
            incumbent_makespan.numerator * quantum, incumbent_makespan.denominator
        )

    found: int | None = None
    best_assignment: list[int] | None = None
    completions: list[int] = [0] * m
    unit_loads: list[int] = [0] * m  # integer units per machine (uniform)
    machine_masks: list[int] = [0] * m
    assignment: list[int] = [-1] * n
    nodes = 0

    for k, i in enumerate(prefix):
        j = branched[k]
        t = times[i][j]
        if t is None or machine_masks[i] & neighbor_masks[j]:
            raise ReproError(
                f"infeasible oracle subtree prefix: job {j} on machine {i}"
            )
        completions[i] += t
        machine_masks[i] |= 1 << j
        assignment[j] = i
        if uniform:
            unit_loads[i] += p[j]

    def finish() -> None:
        """Record the leaf, already known to beat the incumbent."""
        nonlocal found, best_assignment
        if tail_units:
            # the isolated unit tail's exact span on the current loads
            span = min_cover_time_with_loads(speeds, unit_loads, tail_units)
            scaled = span.numerator * quantum // span.denominator
            # materialise greedily within the span: machine i can absorb
            # floor(s_i * span) - load_i more units
            slack = [
                sn * scaled // sd - load
                for (sn, sd), load in zip(speed_scale, unit_loads)
            ]
            pos = 0
            for j in tail:
                while slack[pos % m] <= 0:
                    pos += 1
                assignment[j] = pos % m
                slack[pos % m] -= 1
        else:
            scaled = max(completions)
        found = scaled
        set_incumbent(scaled, 1)
        best_assignment = assignment.copy()
        if shared is not None:
            shared.offer(scaled)
        for j in tail:
            assignment[j] = -1

    def place(pos: int) -> None:
        nonlocal nodes
        if pos < depth:
            nodes += 1
            if shared is not None and nodes % _PULL_EVERY == 0:
                pulled = shared.read()
                if pulled < limit:
                    set_incumbent(pulled, 1)
        # exact lower bounds on every completion of this node (at a leaf
        # they decide whether the leaf, tail included, beats the incumbent)
        if max(completions) >= limit:
            return
        if uniform:
            if _capacity_prunes(thresholds, unit_loads, suffix_units[pos]):
                return
        elif sum(completions) + suffix_cheapest[pos] >= volume_limit:
            return
        if pos == depth:
            finish()
            return
        # every unassigned branched job must retain a viable machine
        for nbr, options in pending[pos:]:
            for i, t in options:
                if not (machine_masks[i] & nbr) and completions[i] + t < limit:
                    break
            else:
                return
        j = branched[pos]
        nbr = neighbor_masks[j]
        bit = 1 << j
        p_j = p[j] if uniform else 0
        row = columns[j]
        for i in sorted(range(m), key=completions.__getitem__):
            t = row[i]
            if t is None or machine_masks[i] & nbr:
                continue
            if not machine_masks[i] and _earlier_equivalent_empty(i):
                continue
            done = completions[i] + t
            if done >= limit:
                continue
            completions[i] = done
            machine_masks[i] |= bit
            assignment[j] = i
            unit_loads[i] += p_j
            place(pos + 1)
            completions[i] = done - t
            machine_masks[i] ^= bit
            assignment[j] = -1
            unit_loads[i] -= p_j

    def _earlier_equivalent_empty(i: int) -> bool:
        for other in earlier_identical[i]:
            if not machine_masks[other]:
                return True
        return False

    place(len(prefix))
    if found is None:
        return None, None, nodes
    return Fraction(found, quantum), best_assignment, nodes


# --------------------------------------------------------------------- #
# root splitting and the worker side
# --------------------------------------------------------------------- #


def _effective_workers(workers: int) -> int:
    """The worker count the oracle may actually use.

    Daemonic processes (:class:`multiprocessing.pool.Pool` workers, as
    used by :class:`repro.runtime.batch.BatchRunner`) cannot spawn
    children, so a nested oracle silently degrades to the sequential
    search instead of crashing the outer pool.
    """
    if workers <= 1:
        return 1
    if multiprocessing.current_process().daemon:
        return 1
    return int(workers)


def _scale_exact(value: Fraction, quantum: int) -> int | None:
    """``value * quantum`` as an int64-safe integer, else ``None``."""
    num = value.numerator * quantum
    if num % value.denominator:
        return None
    scaled = num // value.denominator
    return scaled if 0 <= scaled < _INT64_SAFE else None


def _enumerate_prefixes(
    ctx: _SearchContext, incumbent_makespan: Fraction, want: int
) -> tuple[list[tuple[int, ...]], int]:
    """The root split: depth-1 (or depth-2) branching prefixes.

    Mirrors :func:`_run_search`'s own candidate filters — forbidden
    pairs, conflict edges, the empty-machine symmetry break, and the
    seed-incumbent completion prune — so the surviving prefixes cover
    every branch the sequential search could descend (pruning here uses
    only the *seed* incumbent, a superset of what the evolving
    sequential incumbent keeps).  Expansion goes one level deeper when
    the first level yields fewer than ``want`` tasks, and stops rather
    than exceed :data:`_MAX_SUBTREES`.  Returns the prefixes plus the
    number of root nodes expanded (counted into the aggregate total).
    """
    if not ctx.branched:
        return [()], 0
    limit = _ceil_div(
        incumbent_makespan.numerator * ctx.quantum, incumbent_makespan.denominator
    )
    prefixes: list[tuple[int, ...]] = [()]
    explored = 0
    depth = 0
    while depth < 2 and depth < len(ctx.branched) and len(prefixes) < want:
        nxt: list[tuple[int, ...]] = []
        for prefix in prefixes:
            completions = [0] * ctx.m
            machine_masks = [0] * ctx.m
            for k, i in enumerate(prefix):
                t = ctx.times[i][ctx.branched[k]]
                if t is None:  # pragma: no cover - filtered at creation
                    raise ReproError("forbidden pair in an oracle prefix")
                completions[i] += t
                machine_masks[i] |= 1 << ctx.branched[k]
            explored += 1
            j = ctx.branched[depth]
            neighbors = ctx.neighbor_masks[j]
            for i in sorted(range(ctx.m), key=completions.__getitem__):
                t = ctx.times[i][j]
                if t is None or machine_masks[i] & neighbors:
                    continue
                if not machine_masks[i] and any(
                    not machine_masks[o] for o in ctx.earlier_identical[i]
                ):
                    continue
                if completions[i] + t >= limit:
                    continue
                nxt.append(prefix + (i,))
        if len(nxt) > _MAX_SUBTREES:
            break
        prefixes = nxt
        depth += 1
        if not prefixes:
            break
    return prefixes, explored


_WORKER_CTX: _SearchContext | None = None
_WORKER_SHARED: _SharedIncumbent | None = None


def _subtree_init(payload: dict[str, Any], value: Any, lock: Any) -> None:
    """Worker-process initializer: rebuild the search context once.

    The instance travels as its JSON dict
    (:func:`repro.io.serialization.instance_to_dict` round-trips every
    graph family deterministically, so the worker's branch order is the
    parent's) and the shared incumbent cell plus its lock are inherited
    through the process start.
    """
    global _WORKER_CTX, _WORKER_SHARED
    from repro.io.serialization import instance_from_dict

    _WORKER_CTX = _SearchContext(instance_from_dict(payload))
    _WORKER_SHARED = _SharedIncumbent(value, lock)


def _solve_subtree(
    task: tuple[int, tuple[int, ...]]
) -> tuple[Fraction | None, list[int] | None, int]:
    """One root-split task: search the subtree under ``task``'s prefix."""
    index, prefix = task
    if os.environ.get(_CRASH_ENV) == str(index):
        os._exit(1)  # the crash-injection hook: die like a SIGKILL would
    ctx, shared = _WORKER_CTX, _WORKER_SHARED
    if ctx is None or shared is None:  # pragma: no cover - initializer ran
        raise ReproError("oracle subtree worker used before initialization")
    return _run_search(
        ctx, Fraction(shared.read(), ctx.quantum), prefix=prefix, shared=shared
    )


def _parallel_certified(
    instance: SchedulingInstance,
    ctx: _SearchContext,
    incumbent: Schedule,
    seeded_from: str | None,
    lower: Fraction | None,
    workers: int,
) -> OracleResult | None:
    """Fan the root-split subtrees over a process pool.

    Returns ``None`` when parallelism cannot apply (single root branch,
    incumbent outside the shared cell's range) — the caller then runs
    the sequential search.  Crashed or killed workers lose nothing but
    time: their subtrees are re-searched in-process before aggregation.
    """
    from repro.io.serialization import instance_to_dict

    seed_scaled = _scale_exact(incumbent.makespan, ctx.quantum)
    if seed_scaled is None:
        return None
    prefixes, explored = _enumerate_prefixes(
        ctx, incumbent.makespan, 4 * workers
    )
    if len(prefixes) <= 1:
        return None

    mp_ctx = multiprocessing.get_context()
    value = mp_ctx.RawValue("q", seed_scaled)
    lock = mp_ctx.Lock()
    payload = instance_to_dict(instance)
    results: dict[int, tuple[Fraction | None, list[int] | None, int]] = {}
    failed: list[int] = []
    pool = ProcessPoolExecutor(
        max_workers=min(workers, len(prefixes)),
        mp_context=mp_ctx,
        initializer=_subtree_init,
        initargs=(payload, value, lock),
    )
    futures: dict[Future[Any], int] = {}
    try:
        for k, prefix in enumerate(prefixes):
            try:
                futures[pool.submit(_solve_subtree, (k, prefix))] = k
            except BrokenProcessPool:
                # a worker died before every subtree was handed out:
                # the rest are searched in-process below
                failed.extend(range(k, len(prefixes)))
                break
        for future, k in futures.items():
            try:
                results[k] = future.result()
            except Exception:  # noqa: BLE001 — a dead worker (SIGKILL,
                # BrokenProcessPool) must degrade to a sequential
                # re-search of its subtree, never to a wrong answer
                failed.append(k)
    finally:
        pool.shutdown(wait=True)

    nodes = explored + sum(r[2] for r in results.values())
    # re-search lost subtrees in-process, pruning with the best value
    # any surviving worker established
    if failed:
        prune = incumbent.makespan
        for found, _, _ in results.values():
            if found is not None and found < prune:
                prune = found
        for k in sorted(failed):
            found, found_assignment, sub_nodes = _run_search(
                ctx, prune, prefix=prefixes[k]
            )
            nodes += sub_nodes
            results[k] = (found, found_assignment, sub_nodes)
            if found is not None and found < prune:
                prune = found

    best_index: int | None = None
    best_makespan: Fraction | None = None
    for k in sorted(results):
        found, found_assignment, _ = results[k]
        if found is None or found_assignment is None:
            continue
        if best_makespan is None or found < best_makespan:
            best_makespan, best_index = found, k
    if best_index is None:
        # no subtree beat the seed: the incumbent was optimal
        return OracleResult(
            incumbent,
            incumbent.makespan,
            lower,
            nodes,
            "search-exhausted",
            seeded_from,
            workers=workers,
            subtrees=len(prefixes),
        )
    assignment = results[best_index][1]
    if assignment is None:  # pragma: no cover - filtered above
        raise ReproError("winning oracle subtree lost its assignment")
    schedule = Schedule(instance, assignment)
    return OracleResult(
        schedule,
        schedule.makespan,
        lower,
        nodes,
        "search-exhausted",
        seeded_from,
        workers=workers,
        subtrees=len(prefixes),
    )


def certified_optimal(
    instance: SchedulingInstance, workers: int = 1
) -> OracleResult:
    """A provably optimal schedule, with the proof that it is one.

    Parameters
    ----------
    instance:
        The instance to solve exactly (uniform or unrelated).
    workers:
        Search processes for the root-split parallel branch and bound;
        ``1`` (the default) runs the sequential search.  The makespan
        is identical either way — parallelism only changes how fast
        the proof closes (node counts may differ).  Requests from
        daemonic processes, instances with a single root branch, and
        other inapplicable cases silently degrade to ``workers=1``;
        :attr:`OracleResult.workers` reports what actually ran.

    Returns
    -------
    OracleResult
        The optimal schedule, its makespan, the proof method
        (``"bound-tight"`` or ``"search-exhausted"``), the explored
        node count, and the dispatch route that seeded the incumbent.

    Raises
    ------
    repro.exceptions.InfeasibleInstanceError
        If no feasible schedule exists.

    Notes
    -----
    Exponential in the worst case, but the pruning stack keeps unit-job
    uniform bipartite instances tractable to ``n ~ 30``.
    """
    n = instance.n
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

    ctx = _SearchContext(instance)
    effective = _effective_workers(workers)
    if effective > 1 and incumbent is not None:
        parallel = _parallel_certified(
            instance, ctx, incumbent, seeded_from, lower, effective
        )
        if parallel is not None:
            return parallel

    found_makespan, best_assignment, nodes = _run_search(
        ctx, None if incumbent is None else incumbent.makespan
    )

    if best_assignment is None:
        if incumbent is not None:
            # nothing strictly better exists: the incumbent was optimal
            # (the analogue of catching BoundExcludedError from a seeded
            # brute_force_optimal call — a feasible instance must never
            # be misreported as infeasible)
            return OracleResult(
                incumbent,
                incumbent.makespan,
                lower,
                nodes,
                "search-exhausted",
                seeded_from,
            )
        raise InfeasibleInstanceError("no feasible schedule exists")
    if incumbent is not None and found_makespan == incumbent.makespan:
        schedule = incumbent
    else:
        schedule = Schedule(instance, best_assignment)
    return OracleResult(
        schedule, schedule.makespan, lower, nodes, "search-exhausted", seeded_from
    )


def certified_optimal_makespan(instance: SchedulingInstance) -> Fraction:
    """Makespan of :func:`certified_optimal` (convenience)."""
    return certified_optimal(instance).makespan
