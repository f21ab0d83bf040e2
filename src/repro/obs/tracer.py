"""The structured tracer: spans with causality, typed events, no wall clock.

A **span** is one unit of work with a begin/end on a simulated clock
(``t_start``/``t_end``), a bag of typed attributes, a list of point
**events**, and child spans.  Causality is the tree: a span opened while
another is open on the same thread becomes its child; otherwise it is a
**root** span, registered under a ``(category, key)`` identity.

Determinism
-----------
Traces must be byte-reproducible across runs, which drives three rules:

* **Timestamps are simulated.**  Hook sites pass ``t`` from the
  transport's app-frame clock (crawl side), the global simulated clock
  (serve side), or an iteration index (training).  Wall time never
  appears.
* **Roots are canonically ordered.**  The export sorts root spans by
  ``(category, key)``, not by completion order — so the order in which
  concurrent work happens to finish cannot reach the bytes.
* **Last recording wins.**  Re-recording a root key replaces the
  previous recording, so a trace holds exactly one root per identity.

Exports can be restricted to some categories (``categories=...``).
"""

from __future__ import annotations

import json
import threading
from typing import Any

from repro.durable import atomic_write

__all__ = ["TraceEvent", "Span", "NULL_SPAN", "Tracer"]


class TraceEvent:
    """One typed point event inside a span."""

    __slots__ = ("name", "t", "attrs")

    def __init__(
        self, name: str, t: float = 0.0, attrs: dict[str, Any] | None = None
    ) -> None:
        self.name = name
        self.t = t
        self.attrs = attrs if attrs is not None else {}

    def to_jsonable(self) -> dict[str, Any]:
        return {"name": self.name, "t": self.t, "attrs": self.attrs}


class Span:
    """One traced unit of work (see module docstring)."""

    __slots__ = (
        "name", "key", "category", "t_start", "t_end",
        "attrs", "events", "children",
    )

    def __init__(
        self,
        name: str,
        key: str,
        category: str,
        t_start: float = 0.0,
        attrs: dict[str, Any] | None = None,
    ) -> None:
        self.name = name
        self.key = key
        self.category = category
        self.t_start = t_start
        self.t_end = t_start
        self.attrs: dict[str, Any] = attrs or {}
        self.events: list[TraceEvent] = []
        self.children: list["Span"] = []

    def note(self, **attrs: Any) -> None:
        """Merge attributes into the span (usable even after close)."""
        self.attrs.update(attrs)

    def end(self, t: float) -> None:
        """Set the span's end timestamp (same clock as ``t_start``)."""
        self.t_end = t

    @property
    def duration_s(self) -> float:
        return max(0.0, self.t_end - self.t_start)

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "key": self.key,
            "category": self.category,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "attrs": self.attrs,
            "events": [event.to_jsonable() for event in self.events],
            "children": [child.to_jsonable() for child in self.children],
        }


class _NullSpan(Span):
    """The shared do-nothing span the null observer hands out."""

    def __init__(self) -> None:
        super().__init__("", "", "")

    def note(self, **attrs: Any) -> None:
        return None

    def end(self, t: float) -> None:
        return None


NULL_SPAN = _NullSpan()


class _SpanContext:
    """The context manager :meth:`Tracer.span` hands out.

    A hand-rolled CM (not ``@contextmanager``): span open/close sits on
    the hottest instrumented paths, and the generator machinery costs
    several times the bookkeeping it wraps.
    """

    __slots__ = ("_tracer", "_span", "_parent")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        tls = self._tracer._tls
        stack = getattr(tls, "stack", None)
        if stack is None:
            stack = tls.stack = []
        self._parent = stack[-1] if stack else None
        stack.append(self._span)
        return self._span

    def __exit__(self, *exc: Any) -> None:
        tracer = self._tracer
        span = self._span
        tracer._tls.stack.pop()
        parent = self._parent
        if parent is not None:
            parent.children.append(span)
        else:
            with tracer._lock:
                # Last recording wins per (category, key).
                tracer._roots[(span.category, span.key)] = span
        return None


class Tracer:
    """Collects spans/events; exports a canonical JSONL trace."""

    def __init__(self) -> None:
        self._roots: dict[tuple[str, str], Span] = {}
        self._auto: dict[tuple[str, str], int] = {}
        self._lock = threading.Lock()
        self._tls = threading.local()

    # -- the span stack (per thread) ---------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def _auto_key(self, category: str, name: str) -> str:
        """A deterministic per-``(category, name)`` sequence key.

        Only safe for single-threaded span families (serve requests,
        SVM fits); parallel crawl spans key on the app ID instead.
        """
        with self._lock:
            index = self._auto.get((category, name), 0)
            self._auto[(category, name)] = index + 1
        return f"{index:06d}"

    def span(
        self,
        name: str,
        key: str | None = None,
        category: str = "crawl",
        t: float = 0.0,
        **attrs: Any,
    ) -> _SpanContext:
        """Open a span; nested spans become children, others roots."""
        if key is None:
            key = self._auto_key(category, name)
        return _SpanContext(
            self, Span(name, key=key, category=category, t_start=t, attrs=attrs)
        )

    def event(
        self, name: str, t: float = 0.0, category: str = "crawl", **attrs: Any
    ) -> None:
        """Record a point event on the current span (or a category root)."""
        stack = getattr(self._tls, "stack", None)
        if stack:
            stack[-1].events.append(TraceEvent(name, t, attrs))
            return
        with self._lock:
            root = self._roots.get((category, "_root"))
            if root is None:
                root = Span("_root", key="_root", category=category)
                self._roots[(category, "_root")] = root
            root.events.append(TraceEvent(name, t, attrs))

    # -- export ------------------------------------------------------------

    def roots(self, categories: tuple[str, ...] | None = None) -> list[Span]:
        """Root spans in canonical ``(category, key)`` order."""
        with self._lock:
            items = sorted(self._roots.items())
        return [
            span for (category, _key), span in items
            if categories is None or category in categories
        ]

    def to_jsonl(self, categories: tuple[str, ...] | None = None) -> str:
        """One canonical JSON line per root span, sorted keys throughout."""
        lines = [
            json.dumps(span.to_jsonable(), sort_keys=True, separators=(",", ":"))
            for span in self.roots(categories)
        ]
        return "".join(line + "\n" for line in lines)

    def export(
        self, path, categories: tuple[str, ...] | None = None
    ):
        """Write the canonical trace to *path* atomically; returns the path."""
        return atomic_write(path, self.to_jsonl(categories))
