"""Host speed reference: every end-to-end timing is given at a fixed speed.

On a 2-vCPU cloud VM the effective CPU speed drifts with the load of
the neighbours: back-to-back runs of identical inputs differed by 1.7x
in proofs per second within two minutes, and a fixed loop timed once a
second ranged over 2x.  A wall-clock metric taken as is would measure
the neighbours rather than the program.

So a run's set-ups and its timed loop are cut into segments of at most
``SEGMENT_S`` seconds, and between two segments, while the program sits
idle, :meth:`HostSpeed.mark` times a fixed computation of the
benchmark's own (:func:`burst`) on every CPU of the run.  A duration
measured in a phase (set-up or loop) is scaled by ``REFERENCE_S`` over
the mean burst time of the phase's marks: the duration the same work
would take on a host where one burst takes ``REFERENCE_S``.  The mean,
not the median, because a slow moment of the host slows the program's
total time by its share of the phase, and the marks sample such moments
in that share.  The burst never calls the program, so a change to the
program moves the scaled figures in the same proportion as the raw ones.

The correction is only as good as the burst's likeness to the program:
a neighbour's load can slow the two by different factors.  On that VM
the scaled throughputs of ten seeds spread (quartile distance over
median) 0.04-0.08, where the raw ones of five seeds spread 0.13-0.45;
but in short episodes of heavy load the scaled figures overshot by up
to a quarter.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
from fractions import Fraction
from time import perf_counter

# nominal duration of one burst; it fixes the scale of the reported
# figures (close to a quiet moment of a 2-vCPU cloud host) and nothing else
REFERENCE_S = 0.0055
# bursts per CPU at each mark, and the longest timed work between two
# marks: the host's speed swings by a third within a second, so many
# short marks spread over the run estimate its mean better than a few
# long ones
BURSTS = 2
SEGMENT_S = 0.5

_NODES = 1500


def burst() -> float:
    """Seconds taken by one fixed computation of the program's kind.

    Pure-Python graph search over dicts and lists, exact rationals, a
    JSON round trip and a keyed sort: the operations the solvers and
    the service spend their time in, without calling them.  The caller
    turns the garbage collector off: a full collection walks the whole
    heap of the benchmark process, which grows during a run.
    """
    start = perf_counter()
    state = 12345
    adjacency: dict[int, list[int]] = {}
    for v in range(_NODES):
        row = []
        for _ in range(4):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            row.append(state % _NODES)
        adjacency[v] = row
    seen = {0}
    frontier = [0]
    while frontier:
        following = []
        for v in frontier:
            for w in adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    following.append(w)
        frontier = following
    total = Fraction(0)
    for k in range(1, 300):
        total += Fraction(k, k + 7)
    json.loads(json.dumps({"rows": [[v, adjacency[v]] for v in range(_NODES)]}))
    sorted(range(10 * _NODES), key=lambda i: (i * 7919) % 30011)
    return perf_counter() - start


class HostSpeed:
    """Marks of the host's speed, taken between segments, by phase."""

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.marks: dict[str, list[float]] = {}

    def mark(self, phase: str) -> None:
        """Time the burst on every CPU; record the median under ``phase``."""
        own = os.sched_getaffinity(0)
        collecting = gc.isenabled()
        samples: list[float] = []
        gc.disable()
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                samples.extend(burst() for _ in range(BURSTS))
        finally:
            os.sched_setaffinity(0, own)
            if collecting:
                gc.enable()
        self.marks.setdefault(phase, []).append(statistics.median(samples))

    def scale(self, phase: str) -> float:
        """Factor taking a duration measured in ``phase`` to reference speed."""
        return REFERENCE_S / statistics.fmean(self.marks[phase])

    def summary(self) -> str:
        """One line for the readable report."""
        return "host speed, mean burst ms by phase: " + ", ".join(
            f"{phase} {statistics.fmean(ms) * 1000:.4g} over {len(ms)} marks "
            f"({min(ms) * 1000:.4g}-{max(ms) * 1000:.4g})"
            for phase, ms in self.marks.items()) + f"; reference {REFERENCE_S * 1000:.4g} ms"
