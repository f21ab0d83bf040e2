"""The ``Observer`` protocol: one injection point for all instrumentation.

Every hook site in the crawl/score/serve stack does the same two-step::

    obs = get_observer()
    if obs.enabled:
        obs.event("retry.attempt", t=..., endpoint=..., app_id=...)

The default observer is :data:`NULL_OBSERVER`, whose every method is a
no-op and whose ``enabled`` is ``False`` — so the disabled path costs
one global read and one attribute check, consumes **no RNG draws and no
simulated-clock time**, and the instrumented pipeline is bit-identical
to an uninstrumented one (asserted in ``tests/test_obs_identity.py``).

A :class:`TracingObserver` composes the three observability backends —
the structured :class:`~repro.obs.tracer.Tracer`, the
:class:`~repro.obs.metrics.MetricsRegistry`, and the
:class:`~repro.obs.profiler.Profiler` — behind the same protocol.

Determinism contract
--------------------
Hook sites supply their own timestamps (``t=...``), always taken from a
*simulated* clock: the transport's app-frame clock on the crawl side
(independent of where the global clock stood when the app's crawl
began), the global simulated clock on the serve side
(single-threaded), and the iteration index during SVM training.  Wall
time never enters a trace; it only enters the profiler, whose output is
explicitly non-deterministic and kept out of trace exports.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import Profiler
from repro.obs.tracer import NULL_SPAN, Span, Tracer

__all__ = [
    "Observer",
    "NullObserver",
    "TracingObserver",
    "NULL_OBSERVER",
    "get_observer",
    "set_observer",
    "observation",
]


class Observer:
    """The no-op base every hook site talks to.

    Subclasses override what they need; the base class is itself the
    null implementation so a partial observer (metrics only, say) stays
    trivially correct.  ``enabled`` gates *everything*: hook sites skip
    even timestamp reads when it is ``False``.
    """

    enabled: bool = False

    # -- tracing -----------------------------------------------------------

    def span(
        self,
        name: str,
        key: str | None = None,
        category: str = "crawl",
        t: float = 0.0,
        **attrs: Any,
    ):
        """A context manager yielding a span handle (no-op: NULL_SPAN)."""
        return _NULL_SPAN_CM

    def event(
        self, name: str, t: float = 0.0, category: str = "crawl", **attrs: Any
    ) -> None:
        """Record one typed point event (attached to the current span)."""

    # -- metrics -----------------------------------------------------------

    def count(self, name: str, value: float = 1.0, **labels: str) -> None:
        """Increment a counter."""

    def gauge(self, name: str, value: float, **labels: str) -> None:
        """Set a gauge."""

    def observe(
        self,
        name: str,
        value: float,
        edges: tuple[float, ...] | None = None,
        **labels: str,
    ) -> None:
        """Record one sample into a bounded histogram."""

    def scrape(self, prefix: str, source: Any) -> None:
        """Scrape a component's uniform ``snapshot() -> dict`` into gauges."""

    # -- profiling ---------------------------------------------------------

    def profile(self, stage: str):
        """A context manager attributing real CPU time to *stage*."""
        return _NULL_SPAN_CM

    def sim_cost(self, stage: str, seconds: float) -> None:
        """Attribute *seconds* of simulated cost to *stage*."""


class _NullSpanContext:
    """Reusable no-op context manager yielding the shared null span."""

    __slots__ = ()

    def __enter__(self) -> Span:
        return NULL_SPAN

    def __exit__(self, *exc: Any) -> None:
        return None


_NULL_SPAN_CM = _NullSpanContext()


class NullObserver(Observer):
    """The default: observation off, every hook a no-op."""


NULL_OBSERVER = NullObserver()


class TracingObserver(Observer):
    """Tracer + metrics registry + profiler behind the Observer protocol."""

    enabled = True

    def __init__(
        self,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        profiler: Profiler | None = None,
    ) -> None:
        self.tracer = tracer or Tracer()
        self.metrics = metrics or MetricsRegistry()
        self.profiler = profiler or Profiler()
        # Hook sites call these thousands of times per run; the backend
        # signatures match the protocol exactly, so bind the bound
        # methods directly and each hook costs one call frame.
        self.span = self.tracer.span
        self.event = self.tracer.event
        self.count = self.metrics.count
        self.gauge = self.metrics.gauge
        self.observe = self.metrics.observe
        self.profile = self.profiler.stage
        self.sim_cost = self.profiler.add_sim

    def scrape(self, prefix: str, source: Any) -> None:
        self.metrics.scrape(prefix, source.snapshot())


# -- the current observer ---------------------------------------------------
#
# One process-wide slot, defaulting to the null observer.  Every thread
# reads the same slot, so a single ``set_observer`` instruments a whole
# run.

_current: Observer = NULL_OBSERVER


def get_observer() -> Observer:
    """The observer hook sites report to (default: :data:`NULL_OBSERVER`)."""
    return _current


def set_observer(observer: Observer | None) -> Observer:
    """Install *observer* (``None`` = null); returns the previous one."""
    global _current
    previous = _current
    _current = observer if observer is not None else NULL_OBSERVER
    return previous


@contextmanager
def observation(observer: Observer | None) -> Iterator[Observer]:
    """Install *observer* for the duration of a ``with`` block."""
    previous = set_observer(observer)
    try:
        yield get_observer()
    finally:
        set_observer(previous)
