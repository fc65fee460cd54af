"""Differential proof: the oracle's integer capacity prune decides like the bound.

The exact oracle prunes a uniform node when
``min_cover_time_with_loads(speeds, loads, demand) >= best``.  The
search evaluates that as an O(m) integer test on scaled thresholds
``ceil(s_i * best) - 1`` (:func:`repro.certify.oracle._cover_thresholds`
and :func:`~repro.certify.oracle._capacity_prunes`), valid whenever the
frontier ``max_i loads[i] / s_i`` lies below ``best``.  These tests run
the integer decision against the rational bound on every
``REPRO_FASTPATH`` tier, including incumbents where ``s_i * best`` is an
exact integer (the off-by-one edge) and operands above ``2**63``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from diffutil import fastpath_mode
from repro.certify.oracle import (
    _SearchContext,
    _capacity_prunes,
    _cover_thresholds,
)
from repro.graphs.generators import empty_graph
from repro.scheduling import bounds
from repro.scheduling.instance import UniformInstance

_TIERS = ("0", "int", None)

_speeds = st.lists(
    st.builds(Fraction, st.integers(1, 12), st.integers(1, 7)),
    min_size=1,
    max_size=5,
)


def _context(speeds: list[Fraction]) -> _SearchContext:
    ordered = sorted(speeds, reverse=True)
    return _SearchContext(UniformInstance(empty_graph(1), [1], ordered))


def _integer_decision(
    ctx: _SearchContext, loads: list[int], demand: int, best: Fraction
) -> bool:
    thresholds = _cover_thresholds(
        ctx.speed_scale, best.numerator * ctx.quantum, best.denominator
    )
    return _capacity_prunes(thresholds, loads, demand)


def _assert_same_decision(
    ctx: _SearchContext, loads: list[int], demand: int, best: Fraction
) -> None:
    frontier = max(Fraction(load) / s for load, s in zip(loads, ctx.speeds))
    assert frontier < best  # the search tests the frontier first
    decision = _integer_decision(ctx, loads, demand, best)
    for tier in _TIERS:
        with fastpath_mode(tier):
            bound = bounds.min_cover_time_with_loads(ctx.speeds, loads, demand)
        assert decision == (bound >= best), (tier, bound, best)


@st.composite
def _cases(draw: st.DrawFn, big: bool = False):
    speeds = draw(_speeds)
    if big:
        # numerators past 2**63 and loads/demands of the same order
        speeds = [s * (2**64 + draw(st.integers(0, 5))) for s in speeds]
    ctx = _context(speeds)
    m = ctx.m
    top = 2**65 if big else 30
    loads = draw(st.lists(st.integers(0, top), min_size=m, max_size=m))
    frontier = max(Fraction(load) / s for load, s in zip(loads, ctx.speeds))
    if draw(st.booleans()):
        # a jump point of some machine: s_k * best is an exact integer
        k = draw(st.integers(0, m - 1))
        s_k = ctx.speeds[k]
        first = math.floor(s_k * frontier) + 1
        best = Fraction(first + draw(st.integers(0, 3 * m + 40)), 1) / s_k
    else:
        gap = Fraction(draw(st.integers(1, 400)), draw(st.integers(1, 60)))
        best = frontier + gap
    if draw(st.booleans()):
        demand = draw(st.integers(0, top + 40))
    else:
        # within a few units of the capacity at best itself, where an
        # off-by-one threshold would flip the decision
        at_best = sum(
            max(0, math.floor(s * best) - load)
            for s, load in zip(ctx.speeds, loads)
        )
        demand = max(0, at_best + draw(st.integers(-m - 1, 1)))
    return ctx, loads, demand, best


@given(case=_cases())
def test_integer_capacity_prune_matches_bound(case):
    _assert_same_decision(*case)


@given(case=_cases(big=True))
def test_integer_capacity_prune_matches_bound_beyond_int64(case):
    _assert_same_decision(*case)


@pytest.mark.parametrize(
    "speeds, loads, demand",
    [
        # s * best integral on every machine: the threshold is one below
        ([Fraction(2), Fraction(1)], [0, 0], 3),
        ([Fraction(3, 2), Fraction(5, 3), Fraction(1)], [1, 2, 0], 4),
        ([Fraction(1)], [0], 0),
    ],
)
def test_integer_capacity_prune_at_exact_jump_points(speeds, loads, demand):
    ctx = _context(speeds)
    frontier = max(Fraction(load) / s for load, s in zip(loads, ctx.speeds))
    with fastpath_mode("0"):
        cover = bounds.min_cover_time_with_loads(ctx.speeds, loads, demand)
    # just past the least covering time the test keeps the node; exactly
    # at it (and below, above the frontier) the node is pruned
    candidates = {cover, cover + Fraction(1, 97)}
    candidates |= {c / s for s in ctx.speeds for c in range(1, 12)}
    for best in sorted(candidates):
        if best > frontier:
            _assert_same_decision(ctx, loads, demand, best)
