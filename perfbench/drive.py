"""Untraced workload runs and the outside-in probes.

Each ``run_*`` function runs one workload from outside the program, in a closed
loop, for a time budget, and returns the raw observations (per-op
latencies, responses, set-up samples, server counters) for the verifier
and the report.  Nothing here interprets an answer.

* serve — a fresh ``python -m repro serve --port 0`` subprocess (the
  asyncio tier, ``workers=1``) pinned to one CPU, driven over TCP by
  client threads on the other CPU, each with one connection
  (:data:`CONNECTIONS`);
* batch — ``BatchRunner(workers=2, certify=True)`` in-process, fed
  fixed-size rounds of tasks through :meth:`BatchRunner.run`;
* certify — sequential ``certified_optimal`` over the ladder, in
  whole passes.

Every run takes :class:`~perfbench.hostspeed.HostSpeed` marks around
its set-ups (phase ``setup``) and between segments of its timed loop
(phase ``loop``), so the report can give its durations at reference
host speed.
"""

from __future__ import annotations

import json
import os
import resource
import select
import socket
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from perfbench.hostspeed import SEGMENT_S, HostSpeed

# client connections per serve workload.  serve-cold uses one: the
# workers=1 tier runs two requests' GIL-bound solves at once, and with
# two connections a request's latency mostly measured which class the
# other connection held.  On a 2-vCPU host the spread across seeds of
# latency_class_p50_ms was 0.11 with two connections and 0.07 with one.
CONNECTIONS = {"serve-cold": 1, "serve-hot": 2}
SETUP_REPEATS = 3
# a batch set-up (pool spawn and one task) takes tens of milliseconds,
# so it is repeated more often for a steady median
BATCH_SETUP_REPEATS = 25
# batch set-ups between two host speed marks
BATCH_SETUPS_PER_MARK = 5
BATCH_WORKERS = 2
BATCH_ROUND = 128
START_TIMEOUT_S = 60.0
IO_TIMEOUT_S = 120.0


def repro_env(root: Path) -> dict[str, str]:
    """The environment a program subprocess runs with (``src`` on the path)."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cpu_split() -> tuple[set[int], set[int]]:
    """``(server CPUs, client CPUs)``: one CPU each when there are two.

    The serve tier is one GIL-bound process; left unpinned, its solver
    threads and the client threads migrate between the two CPUs, and
    runs of the same inputs differed by up to 1.5x in throughput.  Pinned,
    the load generator stays off the server's CPU.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return {cpus[0]}, {cpus[1]}


def peak_rss_mb_self() -> float:
    """Peak RSS of this process and its reaped children, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def import_probe(root: Path) -> dict[str, float]:
    """Fresh-interpreter ``import repro``: median wall time, numpy eagerness."""
    code = "import sys, repro; print(int('numpy' in sys.modules))"
    times: list[float] = []
    eager = 0
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=root, env=repro_env(root),
            capture_output=True, text=True, timeout=START_TIMEOUT_S, check=True,
        )
        times.append(perf_counter() - start)
        eager = int(out.stdout.strip() or 0)
    return {"repro_s": statistics.median(times), "numpy_eager": eager}


# ---------------------------------------------------------------------- #
# serve
# ---------------------------------------------------------------------- #


class Server:
    """One ``repro serve --port 0`` subprocess and its control channel."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.proc: subprocess.Popen[bytes] | None = None
        self.port = 0
        self.setup_s = 0.0

    def start(self) -> "Server":
        """Spawn the server; ``setup_s`` runs from spawn to the first ping."""
        start = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=self.root, env=repro_env(self.root),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        # set while the child is still importing, before it starts threads
        os.sched_setaffinity(self.proc.pid, cpu_split()[0])
        assert self.proc.stderr is not None
        deadline = start + START_TIMEOUT_S
        line = b""
        while b"serving on" not in line:
            if perf_counter() > deadline or self.proc.poll() is not None:
                raise RuntimeError(f"server did not start: {line!r}")
            ready, _, _ = select.select([self.proc.stderr], [], [], 1.0)
            if ready:
                line = self.proc.stderr.readline()
        self.port = int(line.decode().strip().rsplit(":", 1)[1])
        if self.call({"op": "ping"}).get("ok") is not True:
            raise RuntimeError("server did not answer ping")
        self.setup_s = perf_counter() - start
        return self

    def call(self, request: dict[str, Any]) -> dict[str, Any]:
        """One control request on a fresh connection."""
        with socket.create_connection(("127.0.0.1", self.port), timeout=IO_TIMEOUT_S) as sock:
            sock.sendall((json.dumps(request) + "\n").encode())
            with sock.makefile("rb") as stream:
                return json.loads(stream.readline())

    def vm_hwm_mb(self) -> float:
        """Peak resident set (``VmHWM``) of the server process, in MiB."""
        assert self.proc is not None
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not found")

    def close(self) -> None:
        """Stop the subprocess and wait until it has ended."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        if self.proc.stderr is not None:
            self.proc.stderr.close()
        self.proc = None

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def start_servers(
    root: Path, repeats: int, speed: HostSpeed
) -> tuple[Server, list[float]]:
    """Start ``repeats`` servers one after another; keep the last running."""
    samples: list[float] = []
    for k in range(repeats):
        speed.mark("setup")
        server = Server(root)
        try:
            server.start()
        except BaseException:
            server.close()
            raise
        samples.append(server.setup_s)
        if k < repeats - 1:
            server.close()
    try:
        speed.mark("setup")
    except BaseException:
        server.close()
        raise
    return server, samples


@dataclass
class Op:
    """One answered operation: input index, class, latency, raw answer."""

    index: int
    cls: str
    latency_s: float
    answer: Any


def closed_loop(
    port: int,
    take: Callable[[], tuple[int, str, bytes] | None],
    deadline: float,
    connections: int,
) -> tuple[list[Op], float]:
    """Drive ``connections`` closed-loop clients until ``deadline``.

    ``take`` hands out the next ``(index, class, line)`` (``None`` when
    the inputs run out).  Returns the answered ops and the wall time
    from the first send to the last answer.
    """
    ops: list[Op] = []
    errors: list[BaseException] = []
    lock = threading.Lock()

    def client() -> None:
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=IO_TIMEOUT_S) as sock:
                with sock.makefile("rb") as stream:
                    while perf_counter() < deadline:
                        with lock:
                            item = take()
                        if item is None:
                            return
                        index, cls, line = item
                        sent = perf_counter()
                        sock.sendall(line)
                        answer = stream.readline()
                        latency = perf_counter() - sent
                        if not answer:
                            raise ConnectionError("server closed the connection")
                        with lock:
                            ops.append(Op(index, cls, latency, answer))
        except BaseException as exc:  # noqa: BLE001 — re-raised after join
            errors.append(exc)

    threads = [threading.Thread(target=client) for _ in range(connections)]
    start = perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=IO_TIMEOUT_S + max(0.0, deadline - perf_counter()))
        if thread.is_alive():
            raise RuntimeError("client thread did not finish")
    wall = perf_counter() - start
    if errors:
        raise errors[0]
    ops.sort(key=lambda op: op.index)
    return ops, wall


@dataclass
class ServeRun:
    """Raw observations of one serve run."""

    ops: list[Op]
    wall_s: float
    setup_samples: list[float]
    speed: HostSpeed
    stats_before: dict[str, Any]
    stats_after: dict[str, Any]
    peak_rss_mb: float
    exhausted: bool
    warm: list[Op] = field(default_factory=list)


def feeder(
    lines: list[tuple[str, bytes]], order: Any
) -> Callable[[], tuple[int, str, bytes] | None]:
    """A ``take`` callable walking ``order`` (indices into ``lines``)."""
    feed = enumerate(order)

    def take() -> tuple[int, str, bytes] | None:
        item = next(feed, None)
        if item is None:
            return None
        position, i = item
        return position, lines[i][0], lines[i][1]

    return take


def run_serve(
    root: Path,
    lines: list[tuple[str, bytes]],
    sequence: list[int] | None,
    seconds: float,
    connections: int,
    setups: int = SETUP_REPEATS,
) -> ServeRun:
    """One serve run: ``sequence`` indexes ``lines`` (``None``: each once).

    With a sequence (serve-hot), every distinct line is sent once before
    timing, so the timed requests find a warm cache.
    """
    speed = HostSpeed()
    server, setup = start_servers(root, setups, speed)
    own_cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpu_split()[1])
    try:
        with server:
            return _serve_loop(server, lines, sequence, seconds, connections, setup, speed)
    finally:
        os.sched_setaffinity(0, own_cpus)


def _serve_loop(
    server: Server, lines: list[tuple[str, bytes]], sequence: list[int] | None,
    seconds: float, connections: int, setup: list[float], speed: HostSpeed,
) -> ServeRun:
    warm: list[Op] = []
    if sequence is not None:
        warm, _ = closed_loop(
            server.port, feeder(lines, range(len(lines))),
            perf_counter() + IO_TIMEOUT_S, connections,
        )
    order = sequence if sequence is not None else range(len(lines))
    total = len(order)
    take = feeder(lines, order)
    before = server.call({"op": "stats"})["stats"]
    ops: list[Op] = []
    wall = 0.0
    # the connections finish their request in flight at the end of a
    # segment; the next segment opens fresh ones after the mark
    while len(ops) < total and wall < seconds:
        speed.mark("loop")
        done, taken = closed_loop(
            server.port, take, perf_counter() + min(SEGMENT_S, seconds - wall),
            connections)
        ops.extend(done)
        wall += taken
    speed.mark("loop")
    after = server.call({"op": "stats"})["stats"]
    return ServeRun(ops, wall, setup, speed, before, after, server.vm_hwm_mb(),
                    len(ops) >= total, warm)


# ---------------------------------------------------------------------- #
# batch
# ---------------------------------------------------------------------- #


@dataclass
class BatchRun:
    """Raw observations of one batch run (one latency per ``run()`` call)."""

    results: list[Any]
    round_latencies: list[float]
    wall_s: float
    setup_samples: list[float]
    speed: HostSpeed
    solve_time_s: float
    cached: int
    peak_rss_mb: float
    exhausted: bool


def batch_setup(task: Any) -> float:
    """From a fresh runner to its first task returned (pool spawn included)."""
    from repro.runtime.batch import BatchRunner

    start = perf_counter()
    with BatchRunner(workers=BATCH_WORKERS, certify=True) as runner:
        next(iter(runner.run([task])))
        return perf_counter() - start


def run_batch(
    tasks: list[Any], seconds: float, setups: int = BATCH_SETUP_REPEATS
) -> BatchRun:
    """Closed loop of ``BATCH_ROUND``-task :meth:`BatchRunner.run` calls."""
    from repro.runtime.batch import BatchRunner

    speed = HostSpeed()
    setup: list[float] = []
    for k in range(setups):
        if k % BATCH_SETUPS_PER_MARK == 0:
            speed.mark("setup")
        setup.append(batch_setup(tasks[k]))
    speed.mark("setup")
    results: list[Any] = []
    latencies: list[float] = []
    solve_time = 0.0
    cached = 0
    with BatchRunner(workers=BATCH_WORKERS, certify=True) as runner:
        runner.worker_pool()  # pool start belongs to setup_s, not to the loop
        since_mark = SEGMENT_S  # the first round opens a segment
        position = 0
        while position < len(tasks) and sum(latencies) < seconds:
            if since_mark >= SEGMENT_S:
                speed.mark("loop")
                since_mark = 0.0
            chunk = tasks[position:position + BATCH_ROUND]
            sent = perf_counter()
            results.extend(runner.run(chunk))
            latencies.append(perf_counter() - sent)
            since_mark += latencies[-1]
            solve_time += runner.stats.wall_time_s
            cached += runner.stats.cached
            position += len(chunk)
        speed.mark("loop")
    return BatchRun(results, latencies, sum(latencies), setup, speed, solve_time,
                    cached, peak_rss_mb_self(), position >= len(tasks))


# ---------------------------------------------------------------------- #
# certify
# ---------------------------------------------------------------------- #


@dataclass
class CertifyRun:
    """Raw observations of one certify run (whole ladder passes)."""

    ops: list[Op]
    setup_samples: list[float]
    speed: HostSpeed
    passes: int
    peak_rss_mb: float

    @property
    def wall_s(self) -> float:
        return sum(op.latency_s for op in self.ops)


def certify_setup(root: Path) -> float:
    """Fresh interpreter to a loaded oracle (what a one-shot audit pays)."""
    start = perf_counter()
    subprocess.run(
        [sys.executable, "-c", "from repro.certify.oracle import certified_optimal"],
        cwd=root, env=repro_env(root), timeout=START_TIMEOUT_S, check=True,
    )
    return perf_counter() - start


def run_certify(
    root: Path, ladder: list[tuple[str, Any]], seconds: float
) -> CertifyRun:
    """Whole passes of ``certified_optimal`` over ``ladder`` until ``seconds``."""
    from repro.certify.oracle import certified_optimal

    speed = HostSpeed()
    setup = []
    for _ in range(SETUP_REPEATS):
        speed.mark("setup")
        setup.append(certify_setup(root))
    speed.mark("setup")
    ops: list[Op] = []
    passes = 0
    timed = 0.0
    since_mark = SEGMENT_S  # the first rung opens a segment
    while passes == 0 or timed < seconds:
        for index, (cls, instance) in enumerate(ladder):
            if since_mark >= SEGMENT_S:
                speed.mark("loop")
                since_mark = 0.0
            sent = perf_counter()
            result = certified_optimal(instance)
            latency = perf_counter() - sent
            ops.append(Op(index, cls, latency, result))
            timed += latency
            since_mark += latency
        passes += 1
    speed.mark("loop")
    return CertifyRun(ops, setup, speed, passes, peak_rss_mb_self())
