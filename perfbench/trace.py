"""The traced run: timing wrappers around each layer's public entry points.

The benchmark installs a wrapper on every name in :data:`WRAPS` — the
module or class attribute a caller looks up at call time — so the real
code runs unchanged while each call becomes a span.  A span records its
name, start, end, parent span, and the operation (request, batch task
or ladder rung) and input class it belongs to.  Spans stay in memory
and are written out as JSON lines when the run ends.

A span's self time is its duration minus the time its direct child
spans cover; summed per name and divided by the operation count it
gives a layer's per-operation self time.  The traced replay is bracketed
by untraced replays of the same inputs in the same process, and the
difference is the tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import json
import types
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

# (owner: module or module.Class, attribute, span name).  One span name
# may sit on several call sites: the same layer reached from serve,
# batch and the oracle.
WRAPS: tuple[tuple[str, str, str], ...] = (
    ("repro.engine.service", "parse_solve_request", "service.parse_request"),
    ("repro.engine.service", "build_solve_record", "service.build_record"),
    ("repro.engine.service", "task_key", "cache.task_key"),
    ("repro.engine.service", "instance_from_dict", "io.instance_from_dict"),
    ("repro.engine.service", "auto_choice", "dispatch.auto_choice"),
    ("repro.engine.service", "solve", "dispatch.solve"),
    ("repro.runtime.batch", "_solve_task", "batch.solve_task"),
    ("repro.runtime.batch", "task_key", "cache.task_key"),
    ("repro.runtime.batch", "instance_from_dict", "io.instance_from_dict"),
    ("repro.runtime.batch", "auto_choice", "dispatch.auto_choice"),
    ("repro.runtime.batch", "solve", "dispatch.solve"),
    ("repro.runtime.batch", "instance_lower_bound", "validators.lower_bound"),
    ("repro.engine", "auto_choice", "dispatch.auto_choice"),
    ("repro.engine", "solve", "dispatch.solve"),
    ("repro.engine.registry.AlgorithmSpec", "execute", "registry.execute"),
    ("repro.core.sqrt_approx", "max_weight_independent_set_containing",
     "sqrt_approx.independent_set"),
    ("repro.core.sqrt_approx", "r2_fptas", "sqrt_approx.r2_fptas"),
    ("repro.core.sqrt_approx", "inequitable_two_coloring", "sqrt_approx.coloring"),
    ("repro.core.sqrt_approx", "schedule_job_classes", "sqrt_approx.list_scheduling"),
    ("repro.core.sqrt_approx", "uniform_capacity_lower_bound",
     "sqrt_approx.capacity_bound"),
    ("repro.scheduling.instance.UniformInstance", "to_unrelated",
     "instance.to_unrelated"),
    ("repro.scheduling.schedule.Schedule", "violations", "schedule.violations"),
    ("repro.certify", "certify_schedule", "validators.certify_schedule"),
    ("repro.certify.validators", "instance_lower_bound", "validators.lower_bound"),
    ("repro.certify.oracle", "instance_lower_bound", "validators.lower_bound"),
    ("repro.certify.oracle", "certified_optimal", "oracle.certified_optimal"),
    ("repro.certify.oracle", "min_cover_time_with_loads",
     "bounds.min_cover_time_with_loads"),
    ("repro.runtime.cache.ResultCache", "__contains__", "cache.lookup"),
    ("repro.runtime.cache.ResultCache", "record", "cache.lookup"),
    ("repro.runtime.cache.ResultCache", "put", "cache.put"),
)

# the request-line codec of the sync service: ``json.loads`` of the
# request and ``json.dumps`` of the response, and nothing else there
SERVICE_CODEC = ("repro.engine.service", {"loads": "io.decode", "dumps": "io.encode"})


class Recorder:
    """In-memory spans of one traced replay (single-threaded)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.classes: list[str] = []
        self._stack: list[int] = []
        self.op = -1
        self.cls = ""
        # span name -> callback run with the call's arguments before the
        # span opens (lets a replay tag spans with the operation they serve)
        self.hooks: dict[str, Callable[..., None]] = {}

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.classes.append(self.cls)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, op: int, cls: str) -> Iterator[None]:
        """A root span for one operation; nested spans inherit op and class."""
        self.op, self.cls = op, cls
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            hook = self.hooks.get(name)
            if hook is not None:
                hook(*args, **kwargs)
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its direct children cover."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[index] - self.starts[index]
        return own

    def write(self, path: Path) -> None:
        """All spans as JSON lines (times in microseconds from the first)."""
        base = self.starts[0] if self.starts else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for index, name in enumerate(self.names):
                out.write(json.dumps({
                    "id": index, "name": name, "parent": self.parents[index],
                    "op": self.ops[index], "class": self.classes[index],
                    "start_us": round((self.starts[index] - base) * 1e6, 1),
                    "end_us": round((self.ends[index] - base) * 1e6, 1),
                }) + "\n")


def _owner(path: str) -> Any:
    """The module, or the class inside a module, named by ``path``."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Installed:
    """The wrappers of one traced replay; :meth:`remove` restores them."""

    def __init__(self, recorder: Recorder) -> None:
        self._saved: list[tuple[Any, str, Any]] = []
        self.missing: list[str] = []
        for owner_path, attr, name in WRAPS:
            owner = _owner(owner_path)
            original = vars(owner).get(attr)
            if original is None:
                self.missing.append(f"{owner_path}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(original, name))
        module_path, names = SERVICE_CODEC
        module = importlib.import_module(module_path)
        codec = module.json
        self._saved.append((module, "json", codec))
        module.json = types.SimpleNamespace(
            **{fn: recorder.wrap(getattr(codec, fn), span) for fn, span in names.items()}
        )

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def layer_totals(recorder: Recorder) -> dict[tuple[str, str], list[float]]:
    """``(class, span name) -> [self time s, calls]``; class ``*`` is all."""
    totals: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0.0, 0.0])
    for name, cls, own in zip(recorder.names, recorder.classes, recorder.self_times()):
        for key in ((cls, name), ("*", name)):
            totals[key][0] += own
            totals[key][1] += 1
    return totals
