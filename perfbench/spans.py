"""In-memory spans for the traced benchmark run.

A span records name, start, end, the span that was open when it began,
and the run it belongs to.  Spans are kept in memory and written as JSON
once, at exit.  The benchmark opens spans around its own calls into the
library and, for the traced CLI pipeline, wraps the library's public
functions in place for the duration of that pipeline only.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

# Public functions wrapped during the traced CLI pipeline.  Generators
# (enumerate_accounted) are left out: a wrapper would only time their
# creation.  Their cost shows in the self time of the callers.
TRACED_FUNCTIONS = {
    "intsplits.qdimacs": ("scan", "parse_file", "write"),
    "intsplits.splitter": (
        "plan",
        "split_formula",
        "emit_subproblem",
        "expanded_copy",
        "write_manifest",
        "read_manifest",
        "verify_manifest",
    ),
    "intsplits.evaluator": ("evaluate",),
    "intsplits.merger": ("ingest", "merge", "speedup_report", "render_certificate"),
}


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any thread; one parent stack per thread.

    A span opened in a worker thread with nothing open on that thread
    takes the innermost open span of the creating thread as its parent,
    so tasks run by a pool nest under the stage that started the pool.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = ""
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home: list[int] = []
        self._local.stack = self._home

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        home = self._home[-1:]  # one slice, so another thread's pop cannot race
        parent = stack[-1] if stack else (home[0] if home else None)
        with self._lock:
            span_id = next(self._ids)
        stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent, self.run))

    def wrap(self, name: str, function: Callable) -> Callable:
        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return traced

    @contextmanager
    def patched(self) -> Iterator[None]:
        """Wrap TRACED_FUNCTIONS everywhere the library binds them.

        Modules import each other's functions by name (``from .splitter
        import plan``), so every module attribute bound to a target is
        replaced, and restored on exit.
        """
        wrappers: dict[Callable, Callable] = {}
        for module_name, names in TRACED_FUNCTIONS.items():
            module = importlib.import_module(module_name)
            for name in names:
                original = getattr(module, name)
                wrappers[original] = self.wrap(f"{module_name.rsplit('.', 1)[-1]}.{name}", original)
        undo = []
        for module in _library_modules():
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    undo.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        try:
            yield
        finally:
            for module, attr, value in undo:
                setattr(module, attr, value)

    def write(self, path: Path) -> None:
        selfs = self_times(self.spans)
        rows = [{**asdict(s), "self": selfs[s.id]} for s in self.spans]
        path.write_text(json.dumps(rows, indent=0) + "\n")


def _library_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "intsplits" or name.startswith("intsplits."))
    ]


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it covered by its child spans.

    Children of one span may overlap when they ran on several threads;
    the union of their intervals is subtracted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - _covered(children.get(s.id, []), s.start, s.end) for s in spans
    }


def self_time_by_name(spans: list[Span]) -> dict[str, tuple[float, int]]:
    """Summed self time and call count per span name."""
    selfs = self_times(spans)
    table: dict[str, tuple[float, int]] = {}
    for s in spans:
        total, count = table.get(s.name, (0.0, 0))
        table[s.name] = (total + selfs[s.id], count + 1)
    return table
