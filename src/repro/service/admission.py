"""Admission control: a bounded queue that sheds by priority.

The service's first line of defence against overload is refusing work
*early and loudly*.  The queue holds at most ``max_depth`` admitted
requests; when a request arrives at a full queue the policy is:

* if anything queued is *less* important than the arrival (``bulk``
  below ``interactive``, internal ``refresh`` below both), the youngest
  such entry is evicted to make room — shed bulk before interactive;
* otherwise the arrival itself is shed.

Either way the shed request is returned to the caller so the service
can answer it with a typed ``overloaded`` response — nothing queues
unboundedly and nothing disappears silently.

Service order is strict priority (interactive first), FIFO within a
priority class.  All choices are deterministic: ties break on the
requests' monotone ``sequence`` numbers, never on dict order or clocks.
"""

from __future__ import annotations

import math
from collections import Counter

from repro.service.types import PRIORITIES, BatchPlan, ScoreRequest

__all__ = ["AdmissionQueue", "BATCH_HEADROOM_S", "plan_batch"]


class AdmissionQueue:
    """Bounded, priority-aware admission queue with eviction shedding."""

    def __init__(self, max_depth: int = 16) -> None:
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        self.max_depth = max_depth
        #: one FIFO per priority class, in importance order
        self._lanes: dict[str, list[ScoreRequest]] = {
            priority: [] for priority in PRIORITIES
        }
        #: requests shed at admission, by priority (for the report)
        self.shed_counts: Counter[str] = Counter()
        #: requests offered, by priority
        self.offered_counts: Counter[str] = Counter()
        #: high-water mark of the queue depth ever observed
        self.max_depth_seen = 0
        #: requests queued across all lanes; every lane mutation below
        #: keeps it equal to the lanes' total, so the serving loop's
        #: depth checks never walk the lanes
        self._depth = 0

    def __len__(self) -> int:
        return self._depth

    def __bool__(self) -> bool:
        return self._depth > 0

    def depth_of(self, priority: str) -> int:
        return len(self._lanes[priority])

    def offer(self, request: ScoreRequest) -> list[ScoreRequest]:
        """Admit *request* if possible; return the requests shed by it.

        The returned list is empty (admitted, room to spare), contains
        an evicted lower-priority request (admitted by displacement),
        or contains *request* itself (rejected).
        """
        self.offered_counts[request.priority] += 1
        if self._depth < self.max_depth:
            self._lanes[request.priority].append(request)
            self._depth += 1
            if self._depth > self.max_depth_seen:
                self.max_depth_seen = self._depth
            return []
        victim = self._youngest_below(request.rank)
        if victim is None:
            self.shed_counts[request.priority] += 1
            return [request]
        # Evict-and-append: the depth (already the high-water mark) holds.
        self._lanes[victim.priority].remove(victim)
        self.shed_counts[victim.priority] += 1
        self._lanes[request.priority].append(request)
        return [victim]

    def _youngest_below(self, rank: int) -> ScoreRequest | None:
        """The youngest queued request strictly less important than *rank*."""
        for priority in reversed(PRIORITIES):
            if PRIORITIES.index(priority) <= rank:
                return None
            lane = self._lanes[priority]
            if lane:
                return lane[-1]
        return None

    def pop(self) -> ScoreRequest:
        """The most important queued request (FIFO within its class)."""
        for priority in PRIORITIES:
            lane = self._lanes[priority]
            if lane:
                self._depth -= 1
                return lane.pop(0)
        raise IndexError("pop from an empty AdmissionQueue")

    def pop_batch(self, limit: int) -> list[ScoreRequest]:
        """Up to *limit* requests in strict priority order (FIFO per lane).

        The batch fills across priority lanes: the head lane is drained
        first, then — if the budget allows — the next lane, and so on.
        This is exactly the order ``limit`` consecutive :meth:`pop`
        calls would return (so ``pop_batch(1)`` is ``[pop()]``), which
        means batching can never reorder or starve a class relative to
        unbatched serving; it only lets one tick pay the scoring cost
        once for what :meth:`pop` would have served anyway.  Draining
        only the head lane — the previous behaviour — left batch slots
        empty whenever the interactive lane was shallow, capping the
        batched-service speedup on mixed workloads.
        """
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        batch: list[ScoreRequest] = []
        for priority in PRIORITIES:
            lane = self._lanes[priority]
            if not lane:
                continue
            take = limit - len(batch)
            batch.extend(lane[:take])
            del lane[:take]
            if len(batch) == limit:
                break
        if not batch:
            raise IndexError("pop from an empty AdmissionQueue")
        self._depth -= len(batch)
        return batch

    def peek_batch(self, limit: int) -> list[ScoreRequest]:
        """The requests :meth:`pop_batch` would return, without removal.

        Same cross-lane strict-priority order; lets the adaptive
        batching controller inspect deadline headroom before deciding
        how much to drain, without mutating the queue.
        """
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        batch: list[ScoreRequest] = []
        for priority in PRIORITIES:
            lane = self._lanes[priority]
            if not lane:
                continue
            batch.extend(lane[: limit - len(batch)])
            if len(batch) == limit:
                break
        return batch

    def total_shed(self) -> int:
        return sum(self.shed_counts.values())

    def snapshot(self) -> dict:
        """A uniform, JSON-serialisable image of the queue's counters.

        Same shape contract as ``TransportStats.snapshot`` and
        ``VerdictCache.snapshot``: scalars and ``{str: number}``
        sub-dicts only, so the metrics registry can fold it into gauges
        (``MetricsRegistry.scrape``) without a bespoke adapter.
        """
        return {
            "depth": len(self),
            "max_depth": self.max_depth,
            "max_depth_seen": self.max_depth_seen,
            "offered": {p: int(self.offered_counts[p]) for p in PRIORITIES},
            "shed": {p: int(self.shed_counts[p]) for p in PRIORITIES},
            "total_shed": self.total_shed(),
        }

    def shed_rate(self, priority: str) -> float:
        """Fraction of *priority* offers shed at admission (0 if none)."""
        offered = self.offered_counts[priority]
        if offered == 0:
            return 0.0
        return self.shed_counts[priority] / offered


#: per-request service-time estimate (simulated seconds) the serving
#: tick passes to :func:`plan_batch` as ``service_estimate_s``
BATCH_HEADROOM_S = 5.0


def plan_batch(
    queue: AdmissionQueue,
    now_s: float,
    batch_max: int,
    service_estimate_s: float,
) -> BatchPlan:
    """Decide how many requests the next tick drains (adaptive batching).

    The inference-server-style continuous-batching rule: the batch
    *grows* with queue depth — a deep queue means per-tick fixed costs
    (the scoring pass) should amortise over more requests — and
    *shrinks* while the tightest deadline headroom in the candidate
    batch cannot absorb serving the whole batch.  Every response of a
    tick completes at the tick's end, so a ``k``-batch delays its most
    urgent member by roughly ``k`` per-request service times; the loop
    takes the largest ``k <= min(depth, batch_max)`` whose most urgent
    member still has ``k * service_estimate_s`` of slack (an already
    expired head degenerates to ``k = 1``, answering it immediately
    with a typed ``deadline`` response).

    A pure function of the queue state and ``now_s``: no clocks, no
    randomness, no queue mutation — the whole adaptive service stays a
    deterministic function of its seed and configuration.
    """
    depth = len(queue)
    size = min(depth, batch_max)
    if size <= 1:
        return BatchPlan(size=1, depth=depth, headroom_s=math.inf, reason="depth")
    heads = queue.peek_batch(size)
    # Prefix minima of the absolute deadlines, in drain order: the
    # tightest deadline among the first k candidates.
    tightest: list[float] = []
    low = math.inf
    for request in heads:
        low = min(low, request.deadline_at)
        tightest.append(low)
    reason = "max" if size == batch_max else "depth"
    while size > 1 and tightest[size - 1] - now_s < size * service_estimate_s:
        size -= 1
        reason = "headroom"
    return BatchPlan(
        size=size,
        depth=depth,
        headroom_s=tightest[size - 1] - now_s,
        reason=reason,
    )
