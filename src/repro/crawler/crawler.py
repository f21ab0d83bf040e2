"""The Selenium-style app crawler (Sec 2.3), now failure-aware.

For each app ID the crawler attempts three collections over the
March–May window:

* **summaries** — weekly queries of ``graph.facebook.com/<id>``; a
  removed app makes the query fail,
* **profile feed** — one pass over ``graph.facebook.com/<id>/feed``,
* **install URL** — following the installation-URL redirect chain to
  observe the permission dialog (permission set, client ID, redirect
  URI).  This fails for removed apps *and* for the many apps whose
  redirect flows are built for humans, which is why D-Inst is the
  smallest dataset.

All platform access goes through a transport
(:mod:`repro.platform.transport`) under a retry policy and per-endpoint
circuit breakers (:mod:`repro.crawler.resilience`): transient faults
(rate limits, 5xx, timeouts) are retried with jittered backoff, while
authoritative failures (app removed) are never retried.  Each
collection's :class:`~repro.crawler.resilience.CrawlOutcome` is kept on
the record so downstream consumers can tell *the platform said no*
(informative missingness, Sec 4.1) from *we gave up* (no signal).

The crawler returns raw observations only; feature computation lives in
:mod:`repro.core.features`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING
from typing import Any

from repro.crawler.resilience import (
    GAVE_UP,
    OK,
    CrawlOutcome,
    ResilientExecutor,
    RetryPolicy,
)
from repro.obs.observer import get_observer
from repro.platform.transport import (
    FaultPlan,
    FaultyTransport,
    TransportStats,
    draw_blackout_windows,
)
from repro.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.crawler.checkpoint import CrashPlan, CrawlJournal
    from repro.ecosystem.simulation import SimulatedWorld

__all__ = [
    "CrawlRecord",
    "AppCrawler",
    "make_crawler",
    "outcome_tallies",
    "recovery_rate",
]

#: collection names, in crawl order
COLLECTIONS = ("summary", "feed", "install")


@dataclass
class CrawlRecord:
    """Everything the crawler observed about one app ID."""

    app_id: str
    # summary crawl
    summary_ok: bool = False
    name: str | None = None
    description: str = ""
    company: str = ""
    category: str = ""
    mau_observations: list[int] = field(default_factory=list)
    # profile-feed crawl
    feed_ok: bool = False
    profile_posts: list[dict[str, Any]] = field(default_factory=list)
    # install-URL crawl
    inst_ok: bool = False
    permissions: tuple[str, ...] = ()
    observed_client_id: str | None = None
    redirect_uri: str | None = None
    #: per-collection crawl outcomes (empty for records built elsewhere,
    #: e.g. loaded from an export — treated as authoritative)
    outcomes: dict[str, CrawlOutcome] = field(default_factory=dict)

    @property
    def client_id_mismatch(self) -> bool | None:
        """Did the install URL hand out a different app's client ID?

        Tri-state: ``None`` means the install crawl yielded nothing —
        whether because the flow is human-only, the app is removed, or
        the crawl gave up — and *must not* be conflated with ``False``
        (verified match).  Callers deciding "is this suspicious?" should
        test ``is True``; callers deciding "is this verified-clean?"
        should test ``is False``.
        """
        if not self.inst_ok or self.observed_client_id is None:
            return None
        return self.observed_client_id != self.app_id

    @property
    def median_mau(self) -> int:
        if not self.mau_observations:
            return 0
        ordered = sorted(self.mau_observations)
        return ordered[len(ordered) // 2]

    @property
    def max_mau(self) -> int:
        return max(self.mau_observations, default=0)

    @property
    def complete(self) -> bool:
        """Did all three collections succeed (D-Complete membership)?"""
        return self.summary_ok and self.feed_ok and self.inst_ok

    # -- failure-awareness -------------------------------------------------

    def gave_up(self, collection: str) -> bool:
        """Did this collection end in a transient give-up (no verdict)?"""
        outcome = self.outcomes.get(collection)
        return outcome is not None and outcome.status == GAVE_UP

    @property
    def degraded_collections(self) -> tuple[str, ...]:
        """Collections whose absence is *uninformative* (crawler gave up)."""
        return tuple(c for c in COLLECTIONS if self.gave_up(c))

    @property
    def degraded(self) -> bool:
        return bool(self.degraded_collections)


class AppCrawler:
    """Crawls app IDs against the simulated platform, resiliently.

    The default transport is a :class:`FaultyTransport` under the
    default ``FaultPlan()``, which injects nothing: no transient fault
    can occur, every collection succeeds or fails authoritatively on
    the first attempt, and the records are identical to a crawler with
    no resilience layer at all.  :func:`make_crawler` builds the
    transport the world's configuration asks for.
    """

    def __init__(
        self,
        world: "SimulatedWorld",
        transport: FaultyTransport | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        self._world = world
        self._transport = transport or FaultyTransport(
            world.graph_api, world.installer, FaultPlan()
        )
        self._policy = retry_policy or RetryPolicy()
        self._executor = ResilientExecutor(
            self._policy,
            self._transport.stats,
            seed=derive_seed(world.config.master_seed, "crawler-retry"),
        )

    @property
    def stats(self) -> TransportStats:
        """Latency and fault accounting for everything this crawler did."""
        return self._transport.stats

    @property
    def transport(self) -> FaultyTransport:
        """The transport under this crawler (shared with the service)."""
        return self._transport

    @property
    def executor(self) -> ResilientExecutor:
        return self._executor

    def crawl_app(
        self,
        app_id: str,
        deadline_at: float | None = None,
        bulkhead: "object | None" = None,
    ) -> CrawlRecord:
        """Crawl one app's three collections under a deadline budget.

        By default the deadline is the retry policy's per-app budget
        from now.  The online service passes an explicit *deadline_at*
        (the request's absolute deadline on the simulated clock) and a
        *bulkhead* (:class:`repro.service.bulkhead.Bulkhead`) that caps
        each endpoint class to its compartment of the remaining budget,
        so one slow Graph API class cannot consume the whole request.

        An explicit *deadline_at* is strict: a collection whose start
        already lies past it is not attempted at all, and its outcome
        is a transient give-up tagged ``"deadline"`` (uninformative
        missingness — the classifier must degrade, not condemn).  The
        batch crawler's default budget keeps the historical lenient
        behaviour, where an exhausted deadline still allows fault-free
        attempts.

        Internally the whole crawl runs in a fresh *app frame* (time
        since this call started): the default deadline is the policy
        budget verbatim and an absolute *deadline_at* is converted on
        entry.  Frame-relative arithmetic keeps an app's record
        independent of where the global clock stood when its crawl
        began.
        """
        record = CrawlRecord(app_id=app_id)
        self._executor.begin_app()
        obs = get_observer()
        # The app frame opens at exactly 0.0, so the root span's t_start
        # is a literal — no clock read on the disabled path.
        with obs.span("crawl.app", key=app_id, category="crawl", t=0.0) as span, \
                obs.profile("crawl"):
            strict = deadline_at is not None
            if strict:
                rel_deadline = deadline_at - self.stats.elapsed_s
            else:
                rel_deadline = self._policy.per_app_deadline_s
            for crawl, endpoint in (
                (self._crawl_summaries, "summary"),
                (self._crawl_profile_feed, "feed"),
                (self._crawl_install_url, "install"),
            ):
                if strict and self.stats.app_elapsed_s >= rel_deadline:
                    record.outcomes[endpoint] = CrawlOutcome(
                        endpoint, status=GAVE_UP, faults=["deadline"]
                    )
                    if obs.enabled:
                        obs.event(
                            "crawl.deadline_skip",
                            t=self.stats.app_elapsed_s,
                            endpoint=endpoint,
                            app_id=app_id,
                        )
                        obs.count("crawl_deadline_skips_total", endpoint=endpoint)
                    continue
                endpoint_deadline = rel_deadline
                if bulkhead is not None:
                    endpoint_deadline = bulkhead.endpoint_deadline(
                        endpoint, self.stats.app_elapsed_s, rel_deadline
                    )
                if obs.enabled:
                    with obs.span(
                        f"crawl.{endpoint}",
                        key=app_id,
                        category="crawl",
                        t=self.stats.app_elapsed_s,
                    ) as child:
                        crawl(record, endpoint_deadline)
                        child.end(self.stats.app_elapsed_s)
                        outcome = record.outcomes.get(endpoint)
                        if outcome is not None:
                            child.note(
                                status=outcome.status, attempts=outcome.attempts
                            )
                else:
                    crawl(record, endpoint_deadline)
            if obs.enabled:
                elapsed = self.stats.app_elapsed_s
                span.end(elapsed)
                span.note(degraded=record.degraded, complete=record.complete)
                obs.count("crawl_apps_total")
                obs.observe("crawl_app_seconds", elapsed)
                obs.sim_cost("crawl", elapsed)
        return record

    def crawl_many(
        self,
        app_ids: list[str] | set[str],
        journal: "CrawlJournal | None" = None,
        crash_plan: "CrashPlan | None" = None,
    ) -> dict[str, CrawlRecord]:
        """Crawl *app_ids* in sorted order, optionally crash-safely.

        With a :class:`~repro.crawler.checkpoint.CrawlJournal`, the call
        starts from its durable start state (or makes the current state
        its start line), and every completed record is made durable
        (written, flushed, fsynced) before the next app starts.  An app
        already durable in this call is crawled again and checked
        against its line instead of appended, so interrupting anywhere
        and resuming yields records byte-identical to an uninterrupted
        run.

        *crash_plan* injects a :class:`SimulatedCrash` at a configured
        point of a freshly crawled app (crash-injection tests); ``None``
        means never.
        """
        records: dict[str, CrawlRecord] = {}
        if journal is not None:
            journal.check_fingerprint(self.checkpoint_fingerprint())
            start = journal.begin(self.snapshot_state())
            if start is not None:
                self.restore_state(start)
        for app_id in sorted(app_ids):
            durable = journal.durable(app_id) if journal is not None else None
            if durable is None and crash_plan is not None:
                crash_plan.advance()
                crash_plan.check("before_app")
            record = self.crawl_app(app_id)
            if durable is not None:
                journal.check(journal.line(record), durable, f"app {app_id}")
            else:
                if crash_plan is not None:
                    crash_plan.check("after_crawl")
                if journal is not None:
                    tear = crash_plan is not None and crash_plan.due("mid_append")
                    if tear:
                        crash_plan.fired = True
                    journal.append(record, self.stats.elapsed_s, tear=tear)
                    if crash_plan is not None:
                        crash_plan.check("after_append")
            records[app_id] = record
        return records

    # -- checkpoint support -----------------------------------------------

    def snapshot_state(self) -> dict:
        """The crawler's continuation state (JSON-serialisable).

        Everything the next request's behaviour can depend on: the
        transport (simulated clock, fault-plan call indexes, vanished
        apps, installer RNG position) and the per-endpoint circuit
        breakers.  Retry jitter needs no capture — it is derived
        statelessly per ``(endpoint, app, attempt)``.
        """
        return {
            "transport": self._transport.snapshot_state(),
            "breakers": self._executor.snapshot_breakers(),
        }

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`snapshot_state` image, in place."""
        self._transport.restore_state(state["transport"])
        self._executor.restore_breakers(state["breakers"])

    def checkpoint_fingerprint(self) -> dict:
        """What a checkpoint must match before this crawler resumes it.

        Seed, scale, fault plan, and retry policy — the knobs that
        change what an identical crawl would observe.
        """
        config = self._world.config
        plan = self._transport.plan
        fingerprint: dict = {
            "master_seed": config.master_seed,
            "scale": config.scale,
            "fault_plan": {"fault_rate": plan.fault_rate, "seed": plan.seed},
            "retry_policy": {
                "max_attempts": self._policy.max_attempts,
                "base_delay_s": self._policy.base_delay_s,
                "max_delay_s": self._policy.max_delay_s,
                "per_app_deadline_s": self._policy.per_app_deadline_s,
            },
        }
        if plan.blackout_windows:
            # Lists, not tuples: the stored fingerprint round-trips
            # through JSON and must compare equal afterwards.
            fingerprint["fault_plan"]["blackout_windows"] = [
                [start, end] for start, end in plan.blackout_windows
            ]
        return fingerprint

    # -- individual collections ------------------------------------------

    def _crawl_summaries(self, record: CrawlRecord, deadline_at: float) -> None:
        schedule = self._world.schedule
        outcome = CrawlOutcome("summary")
        record.outcomes["summary"] = outcome
        first = schedule.summary_crawl_day
        last = first + schedule.crawl_months * 30
        for day in range(first, last, 7):
            summary = self._executor.call(
                "summary",
                record.app_id,
                lambda day=day: self._transport.summary(record.app_id, day=day),
                outcome,
                deadline_at=deadline_at,
            )
            if summary is None:
                continue
            record.summary_ok = True
            record.name = summary["name"]
            record.description = summary["description"]
            record.company = summary["company"]
            record.category = summary["category"]
            record.mau_observations.append(int(summary["monthly_active_users"]))

    def _crawl_profile_feed(self, record: CrawlRecord, deadline_at: float) -> None:
        outcome = CrawlOutcome("feed")
        record.outcomes["feed"] = outcome
        feed = self._executor.call(
            "feed",
            record.app_id,
            lambda: self._transport.profile_feed(
                record.app_id, day=self._world.schedule.profilefeed_crawl_day
            ),
            outcome,
            deadline_at=deadline_at,
        )
        if feed is None:
            return
        record.feed_ok = True
        record.profile_posts = feed

    def _crawl_install_url(self, record: CrawlRecord, deadline_at: float) -> None:
        day = self._world.schedule.inst_crawl_day
        outcome = CrawlOutcome("install")
        record.outcomes["install"] = outcome
        app = self._world.registry.maybe_get(record.app_id)
        if app is None or not app.install_flow_crawlable:
            return  # human-only redirect flow: the crawler gets stuck
        prompt = self._executor.call(
            "install",
            record.app_id,
            lambda: self._transport.visit_install_url(record.app_id, day=day),
            outcome,
            deadline_at=deadline_at,
        )
        if prompt is None:
            return
        record.inst_ok = True
        record.permissions = prompt.permissions
        record.observed_client_id = prompt.client_id
        record.redirect_uri = prompt.redirect_uri

    # -- summaries over many crawls ---------------------------------------

    def outcome_tallies(
        self, records: dict[str, CrawlRecord]
    ) -> dict[str, dict[str, int]]:
        return outcome_tallies(records)

    def recovery_rate(self, records: dict[str, CrawlRecord]) -> float | None:
        return recovery_rate(records)


def outcome_tallies(
    records: dict[str, CrawlRecord]
) -> dict[str, dict[str, int]]:
    """``{collection: {status: count}}`` over crawled *records*."""
    tallies: dict[str, dict[str, int]] = {c: {} for c in COLLECTIONS}
    for record in records.values():
        for collection in COLLECTIONS:
            outcome = record.outcomes.get(collection)
            status = outcome.status if outcome else OK
            per = tallies[collection]
            per[status] = per.get(status, 0) + 1
    return tallies


def recovery_rate(records: dict[str, CrawlRecord]) -> float | None:
    """Of the collections that saw transient faults, how many recovered?

    Recovery means retries still reached a definitive result — data
    (OK) or an authoritative removal (PERMANENT); only an exhausted
    budget (GAVE_UP) is a loss.  ``None`` when no collection was
    transiently faulted (nothing to recover — e.g. a fault-free crawl).
    """
    recovered = faulted = 0
    for record in records.values():
        for outcome in record.outcomes.values():
            if outcome.transiently_failed:
                faulted += 1
                if outcome.recovered:
                    recovered += 1
    if faulted == 0:
        return None
    return recovered / faulted


def make_crawler(world: "SimulatedWorld") -> AppCrawler:
    """Build the crawler the world's :class:`ScaleConfig` asks for.

    Its :class:`FaultyTransport` runs a plan seeded from the master
    seed with the configured fault rate and blackout windows, so the
    whole faulted study stays a pure function of the seed.  At
    ``fault_rate == 0`` with no blackouts the plan injects nothing and
    the crawl is the paper's fault-free one.
    """
    config = world.config
    policy = RetryPolicy(max_attempts=config.retry_budget)
    plan = FaultPlan(
        fault_rate=config.fault_rate,
        seed=derive_seed(config.master_seed, "fault-plan"),
        blackout_windows=draw_blackout_windows(
            derive_seed(config.master_seed, "blackout-plan"), config.blackouts
        ),
    )
    transport = FaultyTransport(world.graph_api, world.installer, plan)
    return AppCrawler(world, transport=transport, retry_policy=policy)
