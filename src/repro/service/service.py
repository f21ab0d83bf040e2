"""The online FRAppE verdict service (the paper's Sec 5 oracle, served).

``VerdictService`` answers "is this app malicious?" under load, on the
*simulated* clock (:class:`~repro.platform.transport.TransportStats`) —
no wall clock anywhere, so every run is a pure function of its seed and
configuration.  A request flows through four defences:

1. **Admission** — a bounded queue (:class:`AdmissionQueue`) sheds by
   priority when full: internal refreshes first, then bulk, and
   interactive only when nothing less important is left.  Shed requests
   get a typed ``overloaded`` response, never an unbounded queue.
2. **Deadline budgets** — each request carries a deadline from its
   arrival.  Requests that age out in the queue get a typed
   ``deadline`` response; admitted ones propagate the remaining budget
   down into :class:`~repro.crawler.resilience.ResilientExecutor` and
   the transport, so one slow Graph API call cannot eat the request.
3. **Bulkheads** — per-endpoint-class compartments of the budget plus
   the executor's shared :class:`CircuitBreaker`s
   (:mod:`repro.service.bulkhead`).
4. **The degradation ladder** — full FRAppE → FRAppE Lite → cached /
   stale verdict → summary-only advisory → decline-to-condemn, each
   response recording which rung answered and why.

A stale-while-revalidate :class:`VerdictCache` sits across the ladder:
fresh hits skip the crawl entirely, stale hits are served immediately
while a background refresh (priority ``refresh``, sheddable, debited to
the same simulated clock) revalidates them, and authoritative
``PERMANENT`` removals are negative-cached for much longer.

Every request is served by one scheduling tick: :func:`plan_batch`
sizes a batch (up to ``ServiceConfig.batch_max``), and the tick crawls
its cache misses one by one and scores them in one
:meth:`~repro.core.frappe.FrappeCascade.score_batch` pass.

With ``fault_rate == 0``, a cold cache, and ``batch_max=1``, the
service's verdicts are bit-identical to
:meth:`repro.core.frappe.FrappeCascade.predict` over the same records —
the whole overload machinery is a strict no-op on the verdict itself.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.config import ServiceConfig
from repro.core.features import CONFIDENCE_BY_TIER, FeatureExtractor
from repro.core.frappe import FrappeCascade
from repro.core.watchdog import AppWatchdog
from repro.crawler.crawler import AppCrawler, CrawlRecord, make_crawler
from repro.crawler.resilience import (
    PERMANENT,
    CircuitBreaker,
    RetryPolicy,
)
from repro.obs.observer import get_observer
from repro.platform.transport import TransportStats
from repro.service.admission import (
    BATCH_HEADROOM_S,
    AdmissionQueue,
    plan_batch,
)
from repro.service.bulkhead import Bulkhead
from repro.service.cache import FRESH, MISS, STALE, CacheEntry, VerdictCache
from repro.service.rollout import RolloutController
from repro.service.types import (
    DEADLINE,
    INTERACTIVE,
    OVERLOADED,
    REFRESH,
    RUNG_ADVISORY,
    RUNG_CACHED,
    RUNG_FULL,
    RUNG_LITE,
    RUNG_NONE,
    RUNG_STALE,
    SERVED,
    ScoreRequest,
    VerdictResponse,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ecosystem.simulation import SimulatedWorld

__all__ = ["VerdictService", "ServiceReport", "make_service"]

#: tier -> ladder rung for live-crawl verdicts
_TIER_RUNG = {"frappe": RUNG_FULL, "lite": RUNG_LITE}


def _jsonable(value: Any) -> Any:
    """Coerce snapshot material to plain JSON-round-trippable types.

    Tuples/sets become sorted-or-ordered lists, numpy scalars become
    Python numbers, dict keys become strings — so ``json.loads(
    json.dumps(x))`` is an identity on the result.
    """
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(str(item) for item in value)
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int) or hasattr(value, "__index__"):
        return int(value)
    if isinstance(value, float) or hasattr(value, "__float__"):
        return float(value)
    return str(value)


@dataclass
class ServiceReport:
    """Everything one :meth:`VerdictService.serve` run produced."""

    #: client responses, in completion order (internal refreshes excluded)
    responses: list[VerdictResponse] = field(default_factory=list)
    #: client requests offered / shed at admission, by priority
    offered: dict[str, int] = field(default_factory=dict)
    shed: dict[str, int] = field(default_factory=dict)
    max_queue_depth: int = 0
    queue_bound: int = 0
    #: background refreshes completed / shed at admission / aged out
    refreshes_done: int = 0
    refreshes_shed: int = 0
    refreshes_expired: int = 0
    cache_hits_fresh: int = 0
    cache_hits_stale: int = 0
    cache_misses: int = 0
    #: simulated seconds the run spanned, and of that, worker idleness
    elapsed_s: float = 0.0
    idle_s: float = 0.0
    transport: dict[str, Any] = field(default_factory=dict)
    #: rollout state machine snapshot (empty when no rollout attached)
    rollout: dict[str, Any] = field(default_factory=dict)

    # -- derived views -----------------------------------------------------

    def outcome_counts(self) -> Counter[str]:
        return Counter(response.outcome for response in self.responses)

    def rung_counts(self) -> Counter[str]:
        return Counter(
            response.rung for response in self.responses
            if response.outcome == SERVED
        )

    def version_outcome_counts(self) -> dict[int, Counter[str]]:
        """Per-model-version outcome tallies (the lifecycle audit view)."""
        counts: dict[int, Counter[str]] = {}
        for response in self.responses:
            counts.setdefault(response.model_version, Counter())[
                response.outcome
            ] += 1
        return counts

    def version_rung_counts(self) -> dict[int, Counter[str]]:
        """Per-model-version rung tallies over served responses."""
        counts: dict[int, Counter[str]] = {}
        for response in self.responses:
            if response.outcome != SERVED:
                continue
            counts.setdefault(response.model_version, Counter())[
                response.rung
            ] += 1
        return counts

    def shed_rate(self, priority: str) -> float:
        offered = self.offered.get(priority, 0)
        if offered == 0:
            return 0.0
        return self.shed.get(priority, 0) / offered

    def served_latencies(self) -> list[float]:
        return sorted(
            response.latency_s
            for response in self.responses
            if response.outcome == SERVED
        )

    def latency_percentile(self, quantile: float) -> float:
        """Deterministic (nearest-rank) latency percentile of served."""
        latencies = self.served_latencies()
        if not latencies:
            return 0.0
        rank = min(
            len(latencies) - 1,
            max(0, int(round(quantile / 100.0 * (len(latencies) - 1)))),
        )
        return latencies[rank]

    def throughput_rps(self) -> float:
        if self.elapsed_s <= 0:
            return 0.0
        served = sum(
            1 for response in self.responses if response.outcome == SERVED
        )
        return served / self.elapsed_s

    # -- persistence -------------------------------------------------------

    #: response fields persisted by :meth:`snapshot`; ``record`` is
    #: deliberately absent — a live CrawlRecord is not JSON material,
    #: and nothing in :meth:`summary` reads it
    _RESPONSE_FIELDS = (
        "app_id", "outcome", "rung", "verdict", "risk_score", "confidence",
        "priority", "reason", "advisories", "cache_state", "arrival_s",
        "started_s", "finished_s", "attempts", "faults", "batch_size",
        "model_version",
    )

    def snapshot(self) -> dict[str, Any]:
        """A JSON-round-trippable image of the whole run.

        ``ServiceReport.from_snapshot(json.loads(json.dumps(s)))`` must
        reproduce :meth:`summary` byte-for-byte, so serve runs can be
        persisted (``repro serve --store`` / ``--snapshot-out``) and
        diffed across sessions.  All numerics are coerced to plain
        Python types — a numpy scalar reaching ``json.dumps`` is a
        ``TypeError``, and a margin-derived float must not silently
        change width through the store.
        """
        responses = []
        for response in self.responses:
            row: dict[str, Any] = {}
            for name in self._RESPONSE_FIELDS:
                value = getattr(response, name)
                if name == "verdict":
                    value = None if value is None else bool(value)
                elif name == "advisories":
                    value = [str(item) for item in value]
                elif name in ("attempts", "faults", "batch_size",
                              "model_version"):
                    value = int(value)
                elif not isinstance(value, str):
                    value = float(value)
                row[name] = value
            responses.append(row)
        return {
            "responses": responses,
            "offered": {str(k): int(v) for k, v in self.offered.items()},
            "shed": {str(k): int(v) for k, v in self.shed.items()},
            "max_queue_depth": int(self.max_queue_depth),
            "queue_bound": int(self.queue_bound),
            "refreshes_done": int(self.refreshes_done),
            "refreshes_shed": int(self.refreshes_shed),
            "refreshes_expired": int(self.refreshes_expired),
            "cache_hits_fresh": int(self.cache_hits_fresh),
            "cache_hits_stale": int(self.cache_hits_stale),
            "cache_misses": int(self.cache_misses),
            "elapsed_s": float(self.elapsed_s),
            "idle_s": float(self.idle_s),
            "transport": _jsonable(self.transport),
            "rollout": _jsonable(self.rollout),
        }

    @classmethod
    def from_snapshot(cls, data: dict[str, Any]) -> "ServiceReport":
        """Rebuild a report (minus live records) from :meth:`snapshot`."""
        responses = [
            VerdictResponse(**{
                name: (
                    tuple(row.get(name, ())) if name == "advisories"
                    else row[name]
                )
                for name in cls._RESPONSE_FIELDS
            })
            for row in data.get("responses", [])
        ]
        return cls(
            responses=responses,
            offered=dict(data.get("offered", {})),
            shed=dict(data.get("shed", {})),
            max_queue_depth=int(data.get("max_queue_depth", 0)),
            queue_bound=int(data.get("queue_bound", 0)),
            refreshes_done=int(data.get("refreshes_done", 0)),
            refreshes_shed=int(data.get("refreshes_shed", 0)),
            refreshes_expired=int(data.get("refreshes_expired", 0)),
            cache_hits_fresh=int(data.get("cache_hits_fresh", 0)),
            cache_hits_stale=int(data.get("cache_hits_stale", 0)),
            cache_misses=int(data.get("cache_misses", 0)),
            elapsed_s=float(data.get("elapsed_s", 0.0)),
            idle_s=float(data.get("idle_s", 0.0)),
            transport=dict(data.get("transport", {})),
            rollout=dict(data.get("rollout", {})),
        )

    def summary(self) -> str:
        outcome = self.outcome_counts()
        rungs = self.rung_counts()
        lines = [
            f"requests:    {len(self.responses)} "
            f"(served={outcome.get(SERVED, 0)}, "
            f"overloaded={outcome.get(OVERLOADED, 0)}, "
            f"deadline={outcome.get(DEADLINE, 0)})",
            "rungs:       "
            + (", ".join(f"{r}={n}" for r, n in sorted(rungs.items())) or "-"),
            f"queue:       depth<= {self.max_queue_depth}/{self.queue_bound}, "
            + ", ".join(
                f"{p} shed {self.shed.get(p, 0)}/{self.offered.get(p, 0)}"
                for p in sorted(self.offered)
            ),
            f"cache:       fresh={self.cache_hits_fresh} "
            f"stale={self.cache_hits_stale} miss={self.cache_misses}; "
            f"refreshes done={self.refreshes_done} shed={self.refreshes_shed} "
            f"expired={self.refreshes_expired}",
            f"latency:     p50={self.latency_percentile(50):.1f}s "
            f"p95={self.latency_percentile(95):.1f}s "
            f"p99={self.latency_percentile(99):.1f}s (simulated)",
            f"clock:       {self.elapsed_s:.0f}s simulated "
            f"({self.idle_s:.0f}s idle), "
            f"throughput {self.throughput_rps() * 3600:.0f} served/h",
        ]
        # Only surface the model-version breakdown when a rollout was
        # live: a rollout-free run's summary stays byte-identical.
        versions = self.version_outcome_counts()
        if any(version != 0 for version in versions):
            rungs = self.version_rung_counts()
            for version in sorted(versions):
                outcome = versions[version]
                rung_note = ", ".join(
                    f"{r}={n}" for r, n in sorted(rungs.get(version, {}).items())
                ) or "-"
                lines.append(
                    f"model v{version}:    "
                    f"served={outcome.get(SERVED, 0)} "
                    f"overloaded={outcome.get(OVERLOADED, 0)} "
                    f"deadline={outcome.get(DEADLINE, 0)}; rungs {rung_note}"
                )
            if self.rollout:
                lines.append(
                    f"rollout:     champion=v{self.rollout.get('champion', 0)} "
                    f"canary=v{self.rollout.get('canary', 0)} "
                    f"promotions={self.rollout.get('promotions', 0)} "
                    f"rollbacks={self.rollout.get('rollbacks', 0)}"
                )
        return "\n".join(lines)


class VerdictService:
    """Admission-controlled, deadline-budgeted, cache-backed scoring."""

    def __init__(
        self,
        world: "SimulatedWorld",
        cascade: FrappeCascade,
        extractor: FeatureExtractor,
        config: ServiceConfig | None = None,
        crawler: AppCrawler | None = None,
        rollout: RolloutController | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self._cascade = cascade
        #: champion–challenger controller; None = static model (v0),
        #: every rollout branch below is a strict no-op
        self.rollout = rollout
        self._extractor = extractor
        self._crawler = crawler or AppCrawler(world)
        # Service breakers are tuned separately from the batch crawl's.
        executor = self._crawler.executor
        for endpoint in ("summary", "feed", "install"):
            executor.breakers.setdefault(
                endpoint,
                CircuitBreaker(
                    failure_threshold=self.config.breaker_failure_threshold,
                    cooldown_s=self.config.breaker_cooldown_s,
                ),
            )
        self._bulkhead = Bulkhead(
            dict(self.config.bulkhead_fractions), executor
        )
        # The watchdog scores; caching and the stale rule are the
        # VerdictCache's alone.
        self._watchdog = AppWatchdog(cascade, extractor, self._crawler.stats)
        self.cache = VerdictCache(
            ttl_s=self.config.cache_ttl_s,
            stale_ttl_s=self.config.cache_stale_ttl_s,
            negative_ttl_s=self.config.negative_ttl_s,
        )
        self.queue = AdmissionQueue(max_depth=self.config.max_queue_depth)
        #: the shared simulated clock (the crawler's transport stats),
        #: held directly so a clock read is one property, not three hops
        self._stats = self._crawler.stats
        self._sequence = 0
        self._report = ServiceReport(queue_bound=self.config.max_queue_depth)
        #: simulated instant the (overlapped) scoring stage is busy
        #: until; stays 0.0 — and the whole overlap machinery inert —
        #: at batch_max=1
        self._score_busy_until = 0.0

    # -- clock -------------------------------------------------------------

    @property
    def cascade(self) -> FrappeCascade:
        """The static cascade (champion payload when a rollout attaches)."""
        return self._cascade

    @property
    def stats(self) -> TransportStats:
        return self._stats

    @property
    def now_s(self) -> float:
        return self._stats.elapsed_s

    # -- the public one-shot API -------------------------------------------

    def score(
        self,
        app_id: str,
        deadline_s: float | None = None,
        priority: str = INTERACTIVE,
    ) -> VerdictResponse:
        """Answer one request right now (no queueing — concurrency 1)."""
        if deadline_s is None:
            deadline_s = self.config.deadline_for(priority)
        request = ScoreRequest(
            app_id=app_id,
            arrival_s=self.now_s,
            deadline_s=deadline_s,
            priority=priority,
            sequence=self._next_sequence(),
        )
        # No next tick to overlap with: the score cost lands on the
        # clock before the response completes.
        [(_, response)] = self._handle_batch([request], overlap=False)
        # One-shot mode has no serve loop to run scheduled background
        # refreshes; drain them now (after the response is complete, so
        # its latency is untouched — the cost still lands on the clock).
        self.drain()
        return response

    def drain(self) -> None:
        """Process queued work (notably background refreshes) to empty."""
        while self.queue:
            for request, response in self._serve_tick(self.now_s):
                if not request.internal:
                    self._report.responses.append(response)
        self._sync_scorer(self.now_s)

    def _sync_scorer(self, now_s: float, horizon_s: float | None = None) -> float:
        """Advance the clock into outstanding overlapped score work.

        At ``batch_max > 1`` a tick's scoring runs concurrently (on the
        simulated clock) with the next tick's crawl I/O, so the clock
        is not advanced when the score cost is incurred.  Whenever the
        worker would otherwise go idle — or the run ends — the clock
        catches up to the scorer here, up to ``horizon_s`` (e.g. the
        next arrival).  A strict no-op at ``batch_max=1``.

        *now_s* is the caller's current clock read; the return value is
        the clock after the catch-up (re-read only when it debited).
        """
        pending = self._score_busy_until - now_s
        if horizon_s is not None:
            pending = min(pending, horizon_s - now_s)
        if pending <= 0.0:
            return now_s
        self._stats.add_service(pending)
        return self._stats.elapsed_s

    # -- the served workload -----------------------------------------------

    def serve(self, requests: list[ScoreRequest]) -> ServiceReport:
        """Run an open-loop workload to completion; return the report.

        Arrivals are admitted in arrival order whenever the (single)
        worker is free; the worker serves the queue in priority order.
        The loop ends when every arrival has a response and the queue —
        including background refreshes — has drained.
        """
        arrivals = sorted(
            requests, key=lambda r: (r.arrival_s, r.sequence)
        )
        count = len(arrivals)
        queue = self.queue
        stats = self._stats
        started_at = stats.elapsed_s
        report = self._report = ServiceReport(
            queue_bound=self.config.max_queue_depth
        )
        responses = report.responses
        index = 0
        while True:
            # One clock read per iteration: admitting arrivals never
            # debits the clock, so the read holds through the tick's
            # planning.
            now = stats.elapsed_s
            while index < count and arrivals[index].arrival_s <= now:
                self._admit(arrivals[index], now)
                index += 1
            if not queue:
                if index >= count:
                    self._sync_scorer(now)
                    break
                upcoming = arrivals[index].arrival_s
                idle = upcoming - self._sync_scorer(now, horizon_s=upcoming)
                if idle > 0.0:
                    stats.add_wait(idle)
                    report.idle_s += idle
                continue
            for request, response in self._serve_tick(now):
                if not request.internal:
                    responses.append(response)
        report.elapsed_s = stats.elapsed_s - started_at
        report.offered = {
            priority: count
            for priority, count in sorted(self.queue.offered_counts.items())
            if priority != REFRESH
        }
        report.shed = {
            priority: count
            for priority, count in sorted(self.queue.shed_counts.items())
            if priority != REFRESH
        }
        report.refreshes_shed = self.queue.shed_counts[REFRESH]
        report.max_queue_depth = self.queue.max_depth_seen
        report.cache_hits_fresh = self.cache.hits_fresh
        report.cache_hits_stale = self.cache.hits_stale
        report.cache_misses = self.cache.misses
        report.transport = self.stats.snapshot()
        if self.rollout is not None:
            report.rollout = self.rollout.snapshot()
        obs = get_observer()
        if obs.enabled:
            # The three uniform snapshot() components, folded into gauges.
            obs.scrape("transport", self.stats)
            obs.scrape("admission", self.queue)
            obs.scrape("cache", self.cache)
            obs.gauge("serve_elapsed_seconds", report.elapsed_s)
            obs.gauge("serve_idle_seconds", report.idle_s)
        return report

    # -- admission ----------------------------------------------------------

    def _admit(self, request: ScoreRequest, now: float) -> None:
        for victim in self.queue.offer(request):
            self._shed(victim, now)

    def _shed(self, victim: ScoreRequest, now: float) -> None:
        """Answer a request evicted (or rejected) by admission control."""
        obs = get_observer()
        if obs.enabled:
            obs.event(
                "serve.shed",
                t=now,
                category="serve",
                app_id=victim.app_id,
                priority=victim.priority,
                internal=victim.internal,
            )
            obs.count("serve_shed_total", priority=victim.priority)
        if victim.internal:
            self.cache.abandon_revalidation(victim.app_id)
            return
        self._report.responses.append(
            VerdictResponse(
                app_id=victim.app_id,
                outcome=OVERLOADED,
                rung=RUNG_NONE,
                verdict=None,
                priority=victim.priority,
                reason=(
                    f"admission queue full "
                    f"(bound {self.queue.max_depth}); "
                    f"{victim.priority} load shed"
                ),
                arrival_s=victim.arrival_s,
                started_s=now,
                finished_s=now,
            )
        )

    def _next_sequence(self) -> int:
        self._sequence += 1
        return self._sequence

    # -- request handling ----------------------------------------------------

    def _note_response(self, obs, span, response: VerdictResponse) -> None:
        """Close a ``serve.request`` span with the response's verdict path."""
        span.end(response.finished_s)
        span.note(
            outcome=response.outcome,
            rung=response.rung,
            cache_state=response.cache_state,
        )
        obs.count(
            "serve_requests_total",
            priority=response.priority,
            outcome=response.outcome,
        )
        if response.outcome == SERVED:
            obs.count("serve_rungs_total", rung=response.rung)
        obs.observe("serve_latency_seconds", response.latency_s)
        obs.sim_cost("serve", response.latency_s)

    def _consult_cache(
        self, request: ScoreRequest, started: float, obs
    ) -> tuple[VerdictResponse | None, str]:
        """Cache-served response, or the cache state a live crawl records."""
        with obs.profile("serve.cache"):
            version = (
                self.rollout.champion.version
                if self.rollout is not None else None
            )
            state, entry = self.cache.lookup(
                request.app_id, started, model_version=version
            )
            if obs.enabled:
                obs.event(
                    "cache.lookup",
                    t=started,
                    category="serve",
                    app_id=request.app_id,
                    state=state,
                )
                obs.count("cache_lookups_total", state=state)
            if state == FRESH and entry is not None:
                return self._from_cache(
                    request, entry, started,
                    rung=RUNG_CACHED,
                    cache_state="negative" if entry.negative else "fresh",
                    reason="verdict cache hit" + (
                        " (negative: authoritative removal)"
                        if entry.negative else ""
                    ),
                ), ""
            if state == STALE and entry is not None:
                self._schedule_refresh(request.app_id, started)
                return self._from_cache(
                    request, entry, started,
                    rung=RUNG_STALE,
                    cache_state="stale",
                    reason=(
                        f"stale verdict ({entry.age_s(started):.0f}s old) "
                        "served while a background refresh revalidates"
                    ),
                ), ""
            return None, ("miss" if state == MISS else "expired")

    # -- batched ticks -------------------------------------------------------

    def _serve_tick(
        self, now: float
    ) -> list[tuple[ScoreRequest, VerdictResponse]]:
        """Drain one scheduling tick of the queue.

        Every tick drains a :func:`plan_batch`-planned number of
        requests — the batch grows with queue depth up to
        ``batch_max`` and shrinks when deadline headroom is tight — and
        hands them to :meth:`_handle_batch`.  With ``batch_max > 1`` the
        tick's scoring overlaps the next tick's crawl I/O; at
        ``batch_max=1`` every tick is one request scored in line.

        *now* is the caller's clock read; nothing debits the clock
        between that read and the end of planning.
        """
        obs = get_observer()
        with obs.profile("serve.pop"):
            plan = plan_batch(
                self.queue,
                now,
                batch_max=self.config.batch_max,
                service_estimate_s=BATCH_HEADROOM_S,
            )
            batch = self.queue.pop_batch(plan.size)
        if obs.enabled:
            obs.event(
                "serve.batch_planned",
                t=now,
                category="serve",
                size=plan.size,
                depth=plan.depth,
                reason=plan.reason,
            )
            obs.observe("serve_batch_planned", float(plan.size))
        return self._handle_batch(batch, overlap=self.config.batch_max > 1)

    def _handle_batch(
        self, batch: list[ScoreRequest], overlap: bool
    ) -> list[tuple[ScoreRequest, VerdictResponse]]:
        """Handle one drained batch with a single classification pass.

        The only request handler: serve ticks and one-shot
        :meth:`score` calls (a batch of one) both come here.
        Per-request admission semantics are unchanged — deadline checks,
        cache consults, and crawls happen request by request on the
        simulated clock, in FIFO order.  What is batched is the scoring:
        every live crawl of the tick goes through one
        :meth:`FrappeCascade.score_batch` call (per-model sub-batches
        under a rollout), and the per-request ``score_cost_s`` is
        charged once for the whole batch.  All of the tick's responses
        complete together (at the tick's end) and record the drained
        batch size.

        Without *overlap* the score cost is debited to the clock in
        line.  With it, the cost is *not* debited to the shared clock
        here: the scorer is modelled as a stage of its own that stays
        busy until ``max(now, previously busy until) + score_cost_s``,
        so the next tick's crawl I/O proceeds concurrently on the
        simulated clock and :meth:`_sync_scorer` reconciles any
        remainder when the worker idles or the run ends.  Live
        responses finish when the scorer does.
        """
        size = len(batch)
        obs = get_observer()
        stats = self._stats
        staged: list[tuple[ScoreRequest, VerdictResponse | None]] = []
        spans: list[Any] = []
        live: list[tuple[int, float, str | None]] = []
        records: list[CrawlRecord] = []
        # One ``serve`` profile block per tick — the tick is the unit
        # of work on the batched path, so CPU attribution amortises
        # per batch instead of paying a timer pair per request.
        with obs.profile("serve"):
            for request in batch:
                # Re-read per request: the previous one's cache hit or
                # crawl debited the clock.
                started = stats.elapsed_s
                if not obs.enabled:
                    self._stage(request, started, obs, staged, live, records)
                    continue
                # The span closes at the end of this stage; batched
                # responses finish together later, so the span's end
                # time and outcome attrs are patched in below
                # (``note``/``end`` work after close).
                with obs.span(
                    "serve.request",
                    key=f"{request.sequence:06d}",
                    category="serve",
                    t=started,
                    app_id=request.app_id,
                    priority=request.priority,
                ) as span:
                    spans.append(span)
                    self._stage(request, started, obs, staged, live, records)
        if live:
            if overlap:
                start = stats.elapsed_s
                if self._score_busy_until > start:
                    start = self._score_busy_until
                finish = start + self.config.score_cost_s
                self._score_busy_until = finish
            else:
                stats.add_service(self.config.score_cost_s)
                finish = stats.elapsed_s
            with obs.profile("score"), obs.profile("serve.score"):
                scored = self._score_live_batch(staged, live, records)
            if obs.enabled:
                obs.sim_cost("score", self.config.score_cost_s)
                obs.observe("serve_batch_live", float(len(live)))
            with obs.profile("serve.respond"):
                for (
                    (index, started, cache_state),
                    record,
                    (prediction, margin, tier, version, shadow_prediction),
                ) in zip(live, records, scored):
                    request = staged[index][0]
                    if cache_state is None:
                        response = self._finish_refresh(
                            request, started, record, prediction, tier,
                            version=version, margin=margin, finished=finish,
                        )
                    else:
                        response = self._respond_live(
                            request, started, cache_state, record, prediction,
                            tier, version=version,
                            shadow_prediction=shadow_prediction,
                            margin=margin, finished=finish,
                        )
                    staged[index] = (request, response)
        for _, response in staged:
            response.batch_size = size
        if obs.enabled:
            for (_, response), span in zip(staged, spans):
                self._note_response(obs, span, response)
                span.note(batch_size=size)
        return staged

    def _stage(
        self,
        request: ScoreRequest,
        started: float,
        obs,
        staged: list[tuple[ScoreRequest, VerdictResponse | None]],
        live: list[tuple[int, float, str | None]],
        records: list[CrawlRecord],
    ) -> None:
        """Answer one drained request now, or crawl it for the batch.

        Expired requests and cache hits are answered on the spot;
        refreshes and cache misses are crawled here and left as
        ``None`` in *staged* for the batch's one scoring pass.
        """
        if started > request.deadline_at:
            staged.append((request, self._expired(request, started)))
            return
        if request.internal:
            cache_state = None
        else:
            hit, cache_state = self._consult_cache(request, started, obs)
            if hit is not None:
                staged.append((request, hit))
                return
        records.append(self._crawl_request(request))
        live.append((len(staged), started, cache_state))
        staged.append((request, None))

    def _expired(self, request: ScoreRequest, now: float) -> VerdictResponse:
        if request.internal:
            self.cache.abandon_revalidation(request.app_id)
            self._report.refreshes_expired += 1
        return VerdictResponse(
            app_id=request.app_id,
            outcome=DEADLINE,
            rung=RUNG_NONE,
            verdict=None,
            priority=request.priority,
            reason=(
                f"deadline budget ({request.deadline_s:.0f}s) expired "
                f"{now - request.deadline_at:.0f}s before service started"
            ),
            arrival_s=request.arrival_s,
            started_s=now,
            finished_s=now,
        )

    def _schedule_refresh(self, app_id: str, now: float) -> None:
        if not self.cache.begin_revalidation(app_id):
            return  # one in flight already
        refresh = ScoreRequest(
            app_id=app_id,
            arrival_s=now,
            deadline_s=self.config.refresh_deadline_s,
            priority=REFRESH,
            sequence=self._next_sequence(),
        )
        obs = get_observer()
        if obs.enabled:
            obs.event(
                "cache.refresh_scheduled",
                t=now,
                category="serve",
                app_id=app_id,
            )
            obs.count("cache_refreshes_scheduled_total")
        self._admit(refresh, now)

    def _from_cache(
        self,
        request: ScoreRequest,
        entry: CacheEntry,
        started: float,
        rung: str,
        cache_state: str,
        reason: str,
    ) -> VerdictResponse:
        stats = self._stats
        stats.add_service(self.config.cache_hit_cost_s)
        return VerdictResponse(
            app_id=request.app_id,
            outcome=SERVED,
            rung=rung,
            verdict=entry.verdict,
            risk_score=entry.risk_score,
            confidence=entry.confidence if rung == RUNG_CACHED else "stale",
            priority=request.priority,
            reason=reason,
            advisories=entry.advisories,
            cache_state=cache_state,
            arrival_s=request.arrival_s,
            started_s=started,
            finished_s=stats.elapsed_s,
            model_version=entry.model_version,
        )

    # -- live scoring --------------------------------------------------------

    def _crawl_request(self, request: ScoreRequest) -> CrawlRecord:
        with get_observer().profile("serve.crawl"):
            return self._crawler.crawl_app(
                request.app_id,
                deadline_at=request.deadline_at,
                bulkhead=self._bulkhead,
            )

    def _select_model(self, request: ScoreRequest) -> tuple[Any, int, Any]:
        """(cascade, version, shadow) scoring this request.

        Without a rollout: the static cascade, version 0, no shadow.
        Under a rollout, client requests hash-split between champion and
        canary; when the canary draws the request, the champion comes
        along as *shadow* for the health gate's disagreement measure.
        Internal refreshes always use the champion — background cache
        work is not part of the canary experiment.
        """
        if self.rollout is None:
            return self._cascade, 0, None
        champion = self.rollout.champion.version
        if request.internal:
            return self.rollout.model_for(champion), champion, None
        version = self.rollout.assign(request.app_id)
        if version == champion:
            return self.rollout.model_for(version), version, None
        return (
            self.rollout.model_for(version),
            version,
            self.rollout.model_for(champion),
        )

    def _account_canary(self, prediction: int, shadow_prediction: int) -> None:
        """Feed one canary verdict (+ champion shadow) to the health gate."""
        assert self.rollout is not None
        if self.rollout.canary is None:
            # The canary left probation (promoted or rolled back) while
            # this tick's batch was in flight; the remaining verdicts
            # of the batch were still scored by it, but there is no
            # probation left to account them against.
            return
        transition = self.rollout.record_canary(
            bool(prediction), bool(shadow_prediction), t=self.now_s
        )
        if transition != "canary" and self.rollout.consume_flush():
            self.cache.retain_version(self.rollout.champion.version)

    def _score_live_batch(
        self,
        staged: list[tuple[ScoreRequest, VerdictResponse | None]],
        live: list[tuple[int, float, str | None]],
        records: list[CrawlRecord],
    ) -> list[tuple[int, float, str, int, int | None]]:
        """``(prediction, margin, tier, version, shadow_prediction)``
        per live record of the tick, aligned with *live*.

        The tick splits into per-model-version sub-batches — without a
        rollout, one (the static cascade, version 0); under a rollout,
        champion requests and internal refreshes, and canary requests —
        each scored with one ``score_batch`` pass, plus one champion
        shadow pass over the canary sub-batch for the health gate.
        """
        selections = [
            self._select_model(staged[index][0]) for index, _, _ in live
        ]
        # Positions sharing a model version form one sub-batch; the
        # shadow (champion or None) is uniform within a version.
        groups: dict[int, list[int]] = {}
        for position, (_, version, _) in enumerate(selections):
            groups.setdefault(version, []).append(position)
        scored: list[tuple[int, float, str, int, int | None]] = (
            [(0, 0.0, "none", 0, None)] * len(live)
        )
        for version, positions in groups.items():
            cascade, _, shadow = selections[positions[0]]
            subrecords = [records[position] for position in positions]
            results = cascade.score_batch(subrecords)
            if shadow is not None:
                shadow_predictions: list[int | None] = [
                    result[0] for result in shadow.score_batch(subrecords)
                ]
            else:
                shadow_predictions = [None] * len(positions)
            for position, (prediction, margin, tier), shadow_prediction in zip(
                positions, results, shadow_predictions
            ):
                scored[position] = (
                    prediction, margin, tier, version, shadow_prediction
                )
        return scored

    @staticmethod
    def _crawl_effort(record: CrawlRecord) -> tuple[int, int]:
        attempts = sum(o.attempts for o in record.outcomes.values())
        faults = sum(len(o.faults) for o in record.outcomes.values())
        return attempts, faults

    def _store(
        self, record: CrawlRecord, entry: CacheEntry, now_s: float
    ) -> None:
        summary = record.outcomes.get("summary")
        entry.negative = summary is not None and summary.status == PERMANENT
        self.cache.store(entry, now_s)

    def _respond_live(
        self,
        request: ScoreRequest,
        started: float,
        cache_state: str,
        record: CrawlRecord,
        prediction: int,
        tier: str,
        version: int,
        shadow_prediction: int | None,
        margin: float,
        finished: float,
    ) -> VerdictResponse:
        attempts, faults = self._crawl_effort(record)
        if tier in _TIER_RUNG:
            if shadow_prediction is not None:
                self._account_canary(prediction, shadow_prediction)
            # (margin, tier) come from the model that renders the
            # verdict, so the risk score always agrees with it.
            assessment = self._watchdog.assess_record(
                record, scored=(margin, tier)
            )
            if shadow_prediction is None:
                # Only champion verdicts are cached: a canary on
                # probation must never leave verdicts behind that a
                # rollback would then serve.
                entry = CacheEntry(
                    app_id=request.app_id,
                    verdict=bool(prediction),
                    risk_score=assessment.risk_score,
                    confidence=assessment.confidence,
                    rung=_TIER_RUNG[tier],
                    advisories=assessment.advisories,
                    model_version=version,
                )
                self._store(record, entry, now_s=finished)
            return VerdictResponse(
                app_id=request.app_id,
                outcome=SERVED,
                rung=_TIER_RUNG[tier],
                verdict=bool(prediction),
                risk_score=assessment.risk_score,
                confidence=assessment.confidence,
                priority=request.priority,
                reason=self._degradation_reason(record, tier),
                advisories=assessment.advisories,
                cache_state=cache_state,
                arrival_s=request.arrival_s,
                started_s=started,
                finished_s=finished,
                attempts=attempts,
                faults=faults,
                record=record,
                model_version=version,
            )
        # The live crawl cannot support even FRAppE Lite: fall back to
        # any cached verdict (however old), then a summary-only
        # advisory, then decline to condemn.
        resort = self.cache.last_resort(request.app_id)
        if resort is not None:
            return VerdictResponse(
                app_id=request.app_id,
                outcome=SERVED,
                rung=RUNG_STALE,
                verdict=resort.verdict,
                risk_score=resort.risk_score,
                confidence="stale",
                priority=request.priority,
                reason=(
                    self._degradation_reason(record, tier)
                    + "; serving the last cached verdict "
                    f"({resort.age_s(finished):.0f}s old)"
                ),
                advisories=resort.advisories,
                cache_state=cache_state,
                arrival_s=request.arrival_s,
                started_s=started,
                finished_s=finished,
                attempts=attempts,
                faults=faults,
                record=record,
                model_version=resort.model_version,
            )
        if tier == "summary_only":
            assessment = self._watchdog.assess_record(
                record, scored=(margin, tier)
            )
            return VerdictResponse(
                app_id=request.app_id,
                outcome=SERVED,
                rung=RUNG_ADVISORY,
                verdict=bool(prediction),
                risk_score=assessment.risk_score,
                confidence=assessment.confidence,
                priority=request.priority,
                reason=self._degradation_reason(record, tier)
                + "; summary-only advisory",
                advisories=assessment.advisories,
                cache_state=cache_state,
                arrival_s=request.arrival_s,
                started_s=started,
                finished_s=finished,
                attempts=attempts,
                faults=faults,
                record=record,
                model_version=version,
            )
        return VerdictResponse(
            app_id=request.app_id,
            outcome=SERVED,
            rung=RUNG_NONE,
            verdict=None,
            risk_score=50.0,
            confidence=CONFIDENCE_BY_TIER["none"],
            priority=request.priority,
            reason=self._degradation_reason(record, tier)
            + "; no trustworthy evidence — declining to condemn",
            cache_state=cache_state,
            arrival_s=request.arrival_s,
            started_s=started,
            finished_s=finished,
            attempts=attempts,
            faults=faults,
            record=record,
            model_version=version,
        )

    def _finish_refresh(
        self,
        request: ScoreRequest,
        started: float,
        record: CrawlRecord,
        prediction: int,
        tier: str,
        version: int,
        margin: float,
        finished: float,
    ) -> VerdictResponse:
        attempts, faults = self._crawl_effort(record)
        if tier in _TIER_RUNG:
            assessment = self._watchdog.assess_record(
                record, scored=(margin, tier)
            )
            entry = CacheEntry(
                app_id=request.app_id,
                verdict=bool(prediction),
                risk_score=assessment.risk_score,
                confidence=assessment.confidence,
                rung=_TIER_RUNG[tier],
                advisories=assessment.advisories,
                model_version=version,
            )
            self._store(record, entry, now_s=finished)
            self._report.refreshes_done += 1
        else:
            # The refresh crawl came back without trustworthy evidence;
            # keep the old entry and allow a later retry.
            self.cache.abandon_revalidation(request.app_id)
        return VerdictResponse(
            app_id=request.app_id,
            outcome=SERVED,
            rung=_TIER_RUNG.get(tier, RUNG_NONE),
            verdict=bool(prediction) if tier in _TIER_RUNG else None,
            priority=REFRESH,
            reason="background cache revalidation",
            arrival_s=request.arrival_s,
            started_s=started,
            finished_s=finished,
            attempts=attempts,
            faults=faults,
            record=record,
            model_version=version,
        )

    @staticmethod
    def _degradation_reason(record: CrawlRecord, tier: str) -> str:
        degraded = record.degraded_collections
        if not degraded:
            return "all collections crawled"
        notes = []
        for collection in degraded:
            outcome = record.outcomes[collection]
            kinds = sorted(set(outcome.faults)) or ["gave up"]
            notes.append(f"{collection} gave up ({', '.join(kinds)})")
        return "; ".join(notes)


def make_service(
    result,
    config: ServiceConfig | None = None,
    rollout: RolloutController | None = None,
) -> VerdictService:
    """Build a :class:`VerdictService` from a pipeline result.

    Trains a :class:`FrappeCascade` on D-Sample when the pipeline did
    not already build one (fault-free runs train only the full model),
    and wires a crawler whose transport matches the world's fault
    configuration — the same faults the batch crawl fought, now fought
    per-request under deadlines.
    """
    cascade = result.cascade
    if cascade is None:
        records, labels = result.sample_records()
        cascade = FrappeCascade(result.extractor).fit(records, labels)
    world = result.world
    config = config or ServiceConfig()
    # The service's retry budget is deliberately smaller than the batch
    # crawler's: an online caller is waiting, and the per-request
    # deadline — not the per-app crawl budget — is the true limit.
    policy = RetryPolicy(max_attempts=config.retry_attempts)
    crawler = AppCrawler(
        world,
        transport=make_crawler(world).transport,
        retry_policy=policy,
    )
    return VerdictService(
        world,
        cascade,
        result.extractor,
        config=config,
        crawler=crawler,
        rollout=rollout,
    )
