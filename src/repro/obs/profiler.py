"""Profiling hooks: simulated-cost and real CPU time per pipeline stage.

The simulated clock says what a run *would have cost* on the modelled
platform (crawl latency, backoff, cache hits); ``time.process_time``
says what it *did cost* in CPU on this machine.  The profiler keeps the
two attributions side by side per stage (``crawl``, ``score``,
``serve``, ``train``), so a report can show e.g. that 97% of simulated
time is crawl latency while 80% of real CPU is SVM scoring.

The profiler is the one observability backend whose output is **not**
deterministic (CPU time varies run to run); it is therefore kept out of
trace exports and compared only as structure, never bytes.  Reading
``process_time`` happens only when observation is enabled, so the
disabled path touches no clock of any kind.
"""

from __future__ import annotations

import threading
import time
from typing import Any

__all__ = ["StageProfile", "Profiler"]


class StageProfile:
    """Accumulated attribution for one stage."""

    __slots__ = ("calls", "cpu_s", "sim_s")

    def __init__(self) -> None:
        self.calls = 0
        self.cpu_s = 0.0
        self.sim_s = 0.0

    def to_jsonable(self) -> dict[str, Any]:
        return {"calls": self.calls, "cpu_s": self.cpu_s, "sim_s": self.sim_s}


class _StageTimer:
    """The CM :meth:`Profiler.stage` hands out (hand-rolled for speed)."""

    __slots__ = ("_profiler", "_profile", "_started")

    def __init__(self, profiler: "Profiler", profile: StageProfile) -> None:
        self._profiler = profiler
        self._profile = profile

    def __enter__(self) -> StageProfile:
        self._started = time.process_time()
        return self._profile

    def __exit__(self, *exc: Any) -> None:
        elapsed = time.process_time() - self._started
        profile = self._profile
        with self._profiler._lock:
            profile.calls += 1
            profile.cpu_s += elapsed
        return None


class Profiler:
    """Per-stage CPU/simulated-cost attribution (thread-safe)."""

    def __init__(self) -> None:
        self._stages: dict[str, StageProfile] = {}
        self._lock = threading.Lock()

    def _stage(self, name: str) -> StageProfile:
        profile = self._stages.get(name)
        if profile is None:
            profile = self._stages.setdefault(name, StageProfile())
        return profile

    def stage(self, name: str) -> _StageTimer:
        """Attribute the block's real CPU time to *name*."""
        return _StageTimer(self, self._stage(name))

    def add_sim(self, name: str, seconds: float) -> None:
        """Attribute *seconds* of simulated cost to stage *name*."""
        profile = self._stage(name)
        with self._lock:
            profile.sim_s += float(seconds)

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """``{stage: {calls, cpu_s, sim_s}}``, stages sorted."""
        with self._lock:
            return {
                name: self._stages[name].to_jsonable()
                for name in sorted(self._stages)
            }

    def render(self) -> str:
        """A fixed-width per-stage table (CPU vs simulated attribution)."""
        rows = self.snapshot()
        if not rows:
            return "(no profiled stages)"
        width = max(12, *map(len, rows))
        lines = [f"{'stage':<{width}} {'calls':>8} {'cpu_s':>10} {'sim_s':>12}"]
        for name, data in rows.items():
            lines.append(
                f"{name:<{width}} {data['calls']:>8} "
                f"{data['cpu_s']:>10.3f} {data['sim_s']:>12.1f}"
            )
        return "\n".join(lines)
