"""Per-layer tracing from outside the program.

The benchmark never edits the program: it times calls into each layer's
public functions by swapping them, for the traced repetitions only, for
wrappers that add the call's wall time to a named total.  A metric name
may cover several functions (``core.fit_s`` covers both the classifier
and the cascade ``fit``); a call nested inside another call of the same
name is not counted twice.

Time covered by *outermost* wrapped calls is ``covered_s``; the traced
wall time minus that is the stage time the wrappers did not attribute.

Forked workers inherit the wrappers.  Each ``multiprocessing`` child
resets its copy of the totals and, when it exits normally, writes them
to ``<spool>/worker-<pid>.json``; :meth:`LayerTracer.collect_workers`
folds those files into the parent's totals.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

#: spans kept per process; a traced repetition stays well below this
MAX_SPANS = 200_000


class LayerTracer:
    """Named wall-time totals, call counts and spans for wrapped calls."""

    def __init__(self, spool: Path) -> None:
        self.spool = spool
        self.seconds: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.covered_s = 0.0
        #: (name, start, end, parent index or -1, pid)
        self.spans: list[tuple[str, float, float, int, int]] = []
        self._depth: Counter[str] = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []
        multiprocessing.util.register_after_fork(self, LayerTracer._after_fork)

    # -- wrapping ----------------------------------------------------------

    def wrap_method(
        self,
        cls: type,
        attr: str,
        name: str,
        count: Callable[[tuple, dict, Any], dict[str, float]] | None = None,
    ) -> None:
        """Time ``cls.attr`` (looked up on the class, so subclasses see it)."""
        original = cls.__dict__.get(attr)
        if original is None:
            original = getattr(cls, attr)
            self._restore.append((cls, attr, _MISSING))
        else:
            self._restore.append((cls, attr, original))
        setattr(cls, attr, self._timed(getattr(cls, attr), name, count))

    def wrap_function(
        self,
        module: Any,
        attr: str,
        name: str,
        count: Callable[[tuple, dict, Any], dict[str, float]] | None = None,
    ) -> None:
        """Time a module-level function and every imported alias of it."""
        original = getattr(module, attr)
        timed = self._timed(original, name, count)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    self._restore.append((loaded, key, original))
                    setattr(loaded, key, timed)

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def _timed(self, func, name, count):
        tracer = self

        @functools.wraps(func)
        def timed(*args, **kwargs):
            if tracer._depth[name]:
                return func(*args, **kwargs)
            tracer._depth[name] += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            tracer._stack.append(index)
            if index < MAX_SPANS:
                tracer.spans.append((name, 0.0, 0.0, parent, os.getpid()))
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._stack.pop()
                tracer._depth[name] -= 1
                tracer.seconds[name] += elapsed
                tracer.calls[name] += 1
                if not tracer._stack:
                    tracer.covered_s += elapsed
                if index < MAX_SPANS:
                    tracer.spans[index] = (
                        name, start, start + elapsed, parent, os.getpid()
                    )
            if count is not None:
                tracer.counts.update(count(args, kwargs, result))
            return result

        return timed

    # -- totals -------------------------------------------------------------

    def reset(self) -> None:
        self.seconds.clear()
        self.calls.clear()
        self.counts.clear()
        self.covered_s = 0.0
        self.spans.clear()

    def _totals(self) -> dict:
        return {
            "seconds": dict(self.seconds),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "spans": self.spans,
        }

    def _after_fork(self) -> None:
        # The child starts inside the parent's open wrappers; its own
        # totals begin at zero and leave through the spool at exit.
        self.reset()
        self._depth.clear()
        self._stack.clear()
        multiprocessing.util.Finalize(None, self._dump_worker, exitpriority=100)

    def _dump_worker(self) -> None:
        path = self.spool / f"worker-{os.getpid()}.json"
        path.write_text(json.dumps(self._totals()))

    def collect_workers(self) -> int:
        """Fold every finished worker's totals in; returns workers read."""
        files = sorted(self.spool.glob("worker-*.json"))
        for path in files:
            data = json.loads(path.read_text())
            self.seconds.update(data["seconds"])
            self.calls.update(data["calls"])
            self.counts.update(data["counts"])
            base = len(self.spans)
            for name, start, end, parent, pid in data["spans"]:
                if len(self.spans) >= MAX_SPANS:
                    break
                parent = parent + base if parent >= 0 else -1
                self.spans.append((name, start, end, parent, pid))
            path.unlink()
        return len(files)

    def write_spans(self, path: Path) -> None:
        """Spans as JSON lines: name, start, end, parent index, pid."""
        with path.open("w") as out:
            for name, start, end, parent, pid in self.spans:
                out.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "pid": pid}
                ) + "\n")


_MISSING = object()
