"""The always-on monitoring daemon behind ``repro monitor``.

FRAppE's conclusion frames the system as "an independent watchdog for
app assessment and ranking"; this module is that watchdog's engine.
Instead of one-shot crawls it runs *epochs*: every epoch shifts the
crawl calendar forward by a stride, re-crawls the apps the tiered
scheduler (:mod:`repro.crawler.recrawl`) says are due, scores them,
diffs each observation against the app's history, and records the
*forensic events* only a long-running monitor can see — deletion,
rename, permission change, post-rate collapse (Kagan et al.,
arXiv:1309.4067).

Robustness is the contract, not a feature:

* **Kill-anywhere resume.** Every observation (and each epoch's
  dispatch plan) is one checksummed, fsynced line in a
  :class:`MonitorJournal` — a :mod:`repro.durable` log.  The line
  carries the crawler state, the scheduler state, and the epoch
  cursor, so SIGKILL at any instant resumes to a byte-identical history
  store and schedule.
* **Blackout backpressure.**  Before dispatching an app the monitor
  polls the transport for an active blackout window
  (:meth:`FaultyTransport.active_blackout`); inside one it *pauses* —
  jumps the simulated clock to the window's end and counts a
  scheduler-level pause — instead of crawling into the outage and
  burning retry budgets and breaker state.
* **Quarantine, never halt.**  Besides the :mod:`repro.durable`
  torn-tail and corruption policy, contradictory history entries
  (conflicting duplicates, observations that resurrect an app after a
  recorded deletion) are moved to ``.corrupt`` sidecars and the loop
  continues.
* **Supervised epochs.**  :class:`SupervisedEpochRunner` forks each
  epoch into a worker, watches its heartbeats, restarts hung or dead
  workers with backoff, and unconditionally falls back to inline
  execution — the journal makes every rung resume-correct.

With monitoring features disabled (no lifecycle events, no forensics,
no blackouts) one epoch is the sequential ``crawl_many`` loop verbatim:
same dispatch order, same per-app calls, byte-identical records.
"""

from __future__ import annotations

import dataclasses
import logging
import os
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from repro.crawler.checkpoint import (
    CrawlJournal,
    record_from_jsonable,
    record_to_jsonable,
)
from repro.crawler.crawler import AppCrawler, CrawlRecord
from repro.crawler.recrawl import RecrawlScheduler
from repro.crawler.resilience import PERMANENT
from repro.durable import (
    atomic_write,
    canonical,
    check_fingerprint,
    encode_line,
    quarantine,
    scan,
    sweep_tmp,
)
from repro.ecosystem.app_lifecycle import LifecycleScript
from repro.obs.observer import get_observer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.watchdog import AppWatchdog
    from repro.service.cache import VerdictCache

__all__ = [
    "MONITOR_CHAOS_ENV",
    "ForensicEvent",
    "FORENSIC_EVENT_KINDS",
    "MonitorConfig",
    "MonitorJournal",
    "MonitorReport",
    "AppMonitor",
    "SupervisedEpochRunner",
]

logger = logging.getLogger(__name__)

#: environment variable carrying an epoch-worker chaos spec
#: (``kill:<observation_index>`` or ``hang:<observation_index>``) so
#: CLI/CI runs can inject mid-epoch deaths without code
MONITOR_CHAOS_ENV = "REPRO_MONITOR_CHAOS"

#: the forensic event taxonomy (DESIGN.md §12)
FORENSIC_EVENT_KINDS = (
    "deletion",
    "rename",
    "permission_change",
    "post_rate_collapse",
)


@dataclass(frozen=True)
class ForensicEvent:
    """One observed app-lifecycle change (history diff, not ground truth)."""

    epoch: int
    app_id: str
    kind: str
    detail: str = ""

    def jsonable(self) -> dict:
        return {
            "epoch": self.epoch,
            "app_id": self.app_id,
            "kind": self.kind,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class MonitorConfig:
    """Knobs of one monitoring run (all part of the journal fingerprint)."""

    epochs: int = 3
    #: calendar shift between epochs, in simulated days
    stride_days: int = 7
    #: detect + record forensic events (and feed the extractor columns)
    forensics: bool = False
    #: apply the simulated lifecycle script (ground truth for forensics)
    lifecycle: bool = False

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.stride_days < 1:
            raise ValueError(
                f"stride_days must be >= 1, got {self.stride_days}"
            )


@dataclass
class MonitorReport:
    """What one ``run()`` did (derived from the journal, so resumable)."""

    epochs_run: int = 0
    observations: int = 0
    forensic_events: list[ForensicEvent] = field(default_factory=list)
    pauses: int = 0
    tier_census: dict[str, int] = field(default_factory=dict)
    quarantined: int = 0


class MonitorJournal:
    """The monitor's WAL: observations + epoch plans, one line each.

    A :mod:`repro.durable` log with the checkpoint journal's entry
    schema (fsync per append), read under its torn-tail and corruption
    policy.  On top of it every decoded entry must pass the history's
    admission checks: a malformed schema, a duplicate ``(epoch,
    app_id)`` with conflicting content, or an observation that
    contradicts recorded history (an app alive again after a journaled
    deletion event) is quarantined to the same sidecar — even on the
    final line — and the loop continues without it.  An identical
    duplicate is dropped.
    """

    JOURNAL_NAME = "monitor.jsonl"
    META_NAME = "meta.json"
    #: app_id of a journaled epoch dispatch plan
    PLAN_SENTINEL = "__plan__"
    #: one line's entry, or ``None`` if damaged
    decode = staticmethod(CrawlJournal.decode)

    def __init__(self, directory: str | Path, resume: bool = True) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: valid entries in durability order (observations and plans)
        self.entries: list[dict] = []
        #: (epoch, app_id) -> observation entry
        self._observations: dict[tuple[int, str], dict] = {}
        #: epoch -> journaled dispatch plan
        self._plans: dict[int, list[str]] = {}
        #: apps with a journaled deletion event, and at which epoch
        self._deleted_at: dict[str, int] = {}
        self.quarantined = 0
        self.truncated_torn_line = False
        if not resume and self.journal_path.exists() \
                and self.journal_path.stat().st_size > 0:
            raise FileExistsError(
                f"monitor directory {self.directory} already holds history; "
                "pass resume=True (CLI: --resume) to continue it, or point "
                "--checkpoint at a fresh directory"
            )
        sweep_tmp(self.directory)
        self._load()
        self._fh = open(self.journal_path, "ab")

    @property
    def journal_path(self) -> Path:
        return self.directory / self.JOURNAL_NAME

    @property
    def meta_path(self) -> Path:
        return self.directory / self.META_NAME

    # -- loading -----------------------------------------------------------

    def _load(self) -> None:
        path = self.journal_path
        if not path.exists():
            return
        decoded, bad, torn = scan(path.read_bytes(), self.decode)
        good: list[tuple[bytes, dict]] = []
        for piece, payload in decoded:
            problem = self._admit(payload)
            if problem is None:
                good.append((piece, payload))
            elif problem == "duplicate":
                pass  # byte-identical replay of a durable line: drop one
            else:
                logger.warning(
                    "quarantining contradictory monitor entry "
                    "(%s): epoch=%s app=%s",
                    problem, payload.get("epoch"), payload.get("app_id"),
                )
                bad.append(piece)
        if bad:
            sidecar = quarantine(path, bad)
            self.quarantined = len(bad)
            logger.warning(
                "quarantined %d corrupt/contradictory monitor line(s) in "
                "%s to sidecar %s; the monitor continues without them",
                len(bad), path, sidecar,
            )
        if bad or torn or len(good) != len(decoded):
            # Absorb the damage once: rewrite to exactly the survivors.
            atomic_write(path, b"".join(piece + b"\n" for piece, _ in good))
            self.truncated_torn_line = torn

    def _admit(self, payload: dict) -> str | None:
        """Fold one decoded entry in; a string names why it is rejected."""
        epoch = payload.get("epoch")
        app_id = payload.get("app_id")
        if not isinstance(epoch, int) or epoch < 0 or not isinstance(app_id, str):
            return "malformed"
        if app_id == self.PLAN_SENTINEL:
            plan = payload.get("plan")
            if not isinstance(plan, list):
                return "malformed"
            stored = self._plans.get(epoch)
            if stored is not None:
                return "duplicate" if stored == plan else "conflicting-plan"
            self._plans[epoch] = [str(a) for a in plan]
            self.entries.append(payload)
            return None
        if not isinstance(payload.get("record"), dict):
            return "malformed"
        key = (epoch, app_id)
        stored = self._observations.get(key)
        if stored is not None:
            return "duplicate" if stored == payload else "conflicting-observation"
        deleted_epoch = self._deleted_at.get(app_id)
        if (
            deleted_epoch is not None
            and epoch > deleted_epoch
            and payload["record"].get("summary_ok")
        ):
            # A deleted app never comes back; an entry claiming it did
            # contradicts durable history and must not poison it.
            return "resurrection"
        self._observations[key] = payload
        self.entries.append(payload)
        for event in payload.get("events", []):
            if event.get("kind") == "deletion":
                self._deleted_at.setdefault(app_id, epoch)
        return None

    # -- replay API --------------------------------------------------------

    def observed(self, epoch: int) -> set[str]:
        """Apps with a durable observation at *epoch*."""
        return {a for (e, a) in self._observations if e == epoch}

    def plan_for(self, epoch: int) -> list[str] | None:
        return self._plans.get(epoch)

    @property
    def state(self) -> dict | None:
        """The continuation state of the last durable entry."""
        if not self.entries:
            return None
        return self.entries[-1].get("state")

    def latest_records(self) -> dict[str, CrawlRecord]:
        """Each app's most recent durable observation, decoded fresh."""
        latest: dict[str, dict] = {}
        for entry in self.entries:
            if entry["app_id"] != self.PLAN_SENTINEL:
                latest[entry["app_id"]] = entry["record"]
        return {
            app_id: record_from_jsonable(data)
            for app_id, data in latest.items()
        }

    def history_of(self, app_id: str) -> list[dict]:
        """All durable observations of one app, oldest first."""
        return [
            e for e in self.entries
            if e["app_id"] == app_id and e["app_id"] != self.PLAN_SENTINEL
        ]

    def forensic_events(self) -> list[ForensicEvent]:
        events: list[ForensicEvent] = []
        for entry in self.entries:
            for ev in entry.get("events", []):
                events.append(ForensicEvent(
                    epoch=int(ev["epoch"]),
                    app_id=str(ev["app_id"]),
                    kind=str(ev["kind"]),
                    detail=str(ev.get("detail", "")),
                ))
        return events

    # -- writing -----------------------------------------------------------

    def _append(self, payload: dict) -> None:
        if self._fh is None:
            raise RuntimeError("monitor journal is closed")
        line = encode_line(payload)
        self._fh.write(line)
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def append_plan(self, epoch: int, plan: list[str], state: dict) -> None:
        """Pin this epoch's dispatch order before the first crawl.

        Without the pinned plan, a mid-epoch resume would recompute the
        plan from *updated* schedule entries, and an exploration policy
        could pick different extras than the uninterrupted run did.
        """
        payload = {
            "v": 1,
            "app_id": self.PLAN_SENTINEL,
            "epoch": epoch,
            "plan": list(plan),
            "state": state,
        }
        self._append(payload)
        self._plans[epoch] = list(plan)
        self.entries.append(payload)

    def append_observation(
        self,
        epoch: int,
        record: CrawlRecord,
        assessment: dict | None,
        events: list[ForensicEvent],
        state: dict,
    ) -> None:
        """Make one observation durable (written + flushed + fsynced)."""
        payload = {
            "v": 1,
            "app_id": record.app_id,
            "epoch": epoch,
            "record": record_to_jsonable(record),
            "assessment": assessment,
            "events": [e.jsonable() for e in events],
            "state": state,
        }
        self._append(payload)
        self._observations[(epoch, record.app_id)] = payload
        self.entries.append(payload)
        for event in events:
            if event.kind == "deletion":
                self._deleted_at.setdefault(record.app_id, epoch)
        obs = get_observer()
        if obs.enabled:
            clock = (
                state.get("crawler", {}).get("transport", {}).get("stats", {})
            )
            obs.event(
                "monitor.append",
                t=float(clock.get("service_s", 0.0))
                + float(clock.get("wait_s", 0.0)),
                category="monitor",
                app_id=record.app_id,
                epoch=epoch,
                events=len(events),
            )
            obs.count("monitor_appends_total")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "MonitorJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class AppMonitor:
    """Epoch loop: shift the calendar, recrawl the due set, diff history.

    One instance owns a crawler, a :class:`RecrawlScheduler`, an
    optional :class:`MonitorJournal`, and optionally a trained
    :class:`~repro.core.watchdog.AppWatchdog` (suspicion scores) and a
    :class:`~repro.service.cache.VerdictCache` (forensic events evict
    cached verdicts).  All state needed to continue rides on every
    journal line; :meth:`run` resumes transparently from whatever is
    durable.
    """

    def __init__(
        self,
        world,
        crawler: AppCrawler,
        app_ids,
        config: MonitorConfig | None = None,
        scheduler: RecrawlScheduler | None = None,
        journal: MonitorJournal | None = None,
        watchdog: "AppWatchdog | None" = None,
        verdict_cache: "VerdictCache | None" = None,
    ) -> None:
        self._world = world
        self._crawler = crawler
        self._app_ids = sorted(app_ids)
        self.config = config or MonitorConfig()
        self.scheduler = scheduler or RecrawlScheduler()
        self._journal = journal
        self._watchdog = watchdog
        self._verdict_cache = verdict_cache
        self._base_schedule = world.schedule
        self._lifecycle: LifecycleScript | None = None
        if self.config.lifecycle:
            self._lifecycle = LifecycleScript.generate(
                world,
                start_day=self._base_schedule.profilefeed_crawl_day,
                horizon_days=self.config.epochs * self.config.stride_days,
            )
        #: first epoch run() still has to execute
        self._next_epoch = 0
        #: forensic tallies per app (feeds FeatureExtractor.set_forensics)
        self.forensic_tallies: dict[str, dict[str, int]] = {}
        if self._journal is not None:
            check_fingerprint(
                self._journal.meta_path, self.fingerprint(), "monitor history"
            )
            self._restore_from_journal()

    # -- identity ----------------------------------------------------------

    def fingerprint(self) -> dict:
        """Crawler fingerprint + monitor knobs: what a resume must match."""
        return {
            "crawler": self._crawler.checkpoint_fingerprint(),
            "monitor": {
                "epochs": self.config.epochs,
                "stride_days": self.config.stride_days,
                "forensics": self.config.forensics,
                "lifecycle": self.config.lifecycle,
                "policy": getattr(self.scheduler.policy, "name", "tiered"),
                "app_count": len(self._app_ids),
            },
        }

    # -- resume ------------------------------------------------------------

    def _restore_from_journal(self) -> None:
        state = self._journal.state
        if state is None:
            return
        self._crawler.restore_state(state["crawler"])
        self.scheduler.restore(state["scheduler"])
        self._next_epoch = int(state["epoch"])
        self._rebuild_tallies()
        # The restored epoch may already be complete (its state rode on
        # the last observation); run_epoch detects that via the plan.

    def _rebuild_tallies(self) -> None:
        self.forensic_tallies = {}
        for event in self._journal.forensic_events():
            per = self.forensic_tallies.setdefault(event.app_id, {})
            per[event.kind] = per.get(event.kind, 0) + 1

    def resync_from_journal(self) -> None:
        """Reload everything from disk (after a forked worker appended)."""
        if self._journal is None:
            raise RuntimeError("resync requires a journal")
        directory = self._journal.directory
        self._journal.close()
        self._journal = MonitorJournal(directory)
        self._restore_from_journal()

    @property
    def journal(self) -> MonitorJournal | None:
        return self._journal

    # -- epoch mechanics ---------------------------------------------------

    def _epoch_schedule(self, epoch: int):
        shift = epoch * self.config.stride_days
        base = self._base_schedule
        return dataclasses.replace(
            base,
            profilefeed_crawl_day=base.profilefeed_crawl_day + shift,
            summary_crawl_day=base.summary_crawl_day + shift,
            inst_crawl_day=base.inst_crawl_day + shift,
        )

    def _epoch_day(self, epoch: int) -> int:
        """The epoch's assessment day (its last collection day)."""
        return self._base_schedule.inst_crawl_day \
            + epoch * self.config.stride_days

    def _snapshot(self, epoch: int) -> dict:
        return {
            "crawler": self._crawler.snapshot_state(),
            "scheduler": self.scheduler.snapshot(),
            "epoch": epoch,
        }

    def _suspicion(self, record: CrawlRecord, epoch: int) -> tuple[float, dict | None]:
        if self._watchdog is not None:
            assessment = self._watchdog.assess_record(
                record, day=self._epoch_day(epoch)
            )
            return assessment.risk_score, {
                "risk_score": assessment.risk_score,
                "confidence": assessment.confidence,
            }
        # No trained classifier attached: a deterministic stand-in so
        # the ladder still moves.  Removed apps are the paper's prime
        # suspects; a client-ID mismatch is near-certain malice.
        score = 50.0
        summary = record.outcomes.get("summary")
        if summary is not None and summary.status == PERMANENT:
            score = 75.0
        if record.client_id_mismatch is True:
            score = 90.0
        return score, None

    def _diff(
        self, previous: CrawlRecord | None, record: CrawlRecord, epoch: int
    ) -> list[ForensicEvent]:
        """Forensic events: what changed since the app's last observation."""
        if previous is None:
            return []
        events: list[ForensicEvent] = []
        summary = record.outcomes.get("summary")
        if (
            previous.summary_ok
            and summary is not None
            and summary.status == PERMANENT
        ):
            events.append(ForensicEvent(
                epoch, record.app_id, "deletion",
                detail=f"summary turned PERMANENT (was live as "
                       f"{previous.name!r})",
            ))
        if (
            previous.name is not None
            and record.name is not None
            and previous.name != record.name
        ):
            events.append(ForensicEvent(
                epoch, record.app_id, "rename",
                detail=f"{previous.name!r} -> {record.name!r}",
            ))
        if (
            previous.inst_ok
            and record.inst_ok
            and previous.permissions != record.permissions
        ):
            events.append(ForensicEvent(
                epoch, record.app_id, "permission_change",
                detail=f"{sorted(previous.permissions)} -> "
                       f"{sorted(record.permissions)}",
            ))
        if (
            previous.feed_ok
            and record.feed_ok
            and len(record.profile_posts) < len(previous.profile_posts)
        ):
            events.append(ForensicEvent(
                epoch, record.app_id, "post_rate_collapse",
                detail=f"{len(previous.profile_posts)} -> "
                       f"{len(record.profile_posts)} posts",
            ))
        return events

    def _on_events(self, events: list[ForensicEvent]) -> None:
        obs = get_observer()
        for event in events:
            per = self.forensic_tallies.setdefault(event.app_id, {})
            per[event.kind] = per.get(event.kind, 0) + 1
            if obs.enabled:
                obs.event(
                    "monitor.forensic",
                    t=self._crawler.stats.elapsed_s,
                    category="monitor",
                    app_id=event.app_id,
                    kind=event.kind,
                    epoch=event.epoch,
                )
                obs.count("monitor_forensic_events_total", kind=event.kind)
            if self._verdict_cache is not None:
                self._verdict_cache.invalidate_forensic(
                    event.app_id,
                    reason=event.kind,
                    now_s=self._crawler.stats.elapsed_s,
                )

    def _pause_for_blackout(self, window: tuple[float, float], epoch: int) -> None:
        """Scheduler-level backpressure: sleep the window out, once.

        Jumping the simulated clock to the window's end means no crawl
        call, no retry, and no breaker transition happens inside the
        outage — the tier simply resumes when the platform does.  The
        jump is pure clock arithmetic, so an interrupted-and-resumed
        run re-derives the identical pause.
        """
        stats = self._crawler.stats
        wait = window[1] - stats.elapsed_s
        if wait > 0:
            stats.add_wait(wait)
        self.scheduler.record_pause(window[1])
        obs = get_observer()
        if obs.enabled:
            obs.event(
                "monitor.backpressure_pause",
                t=stats.elapsed_s,
                category="monitor",
                epoch=epoch,
                resume_at=window[1],
                paused_s=max(0.0, wait),
            )
            obs.count("monitor_backpressure_pauses_total")

    # -- the epoch loop ----------------------------------------------------

    def run_epoch(
        self,
        epoch: int,
        heartbeat: Callable[[str, int], None] | None = None,
    ) -> int:
        """Run (or finish) one epoch; returns fresh observations made.

        Idempotent over the journal: apps already durable at this epoch
        are skipped, and the dispatch order comes from the journaled
        plan when one exists (pinning resume order under exploration
        policies).  *heartbeat* is called after each durable
        observation — the supervised runner's liveness signal.
        """
        obs = get_observer()
        self._world.schedule = self._epoch_schedule(epoch)
        if self._lifecycle is not None and epoch >= 1:
            self._lifecycle.apply_until(self._world, self._epoch_day(epoch))
        self.scheduler.ensure(self._app_ids)
        previous_records = (
            self._journal.latest_records() if self._journal is not None else {}
        )
        if self._journal is not None:
            plan = self._journal.plan_for(epoch)
            if plan is None:
                plan = self.scheduler.plan(epoch)
                self._journal.append_plan(epoch, plan, self._snapshot(epoch))
            done = self._journal.observed(epoch)
        else:
            plan = self.scheduler.plan(epoch)
            done = set()
        fresh = 0
        span_ctx = span = None
        if obs.enabled:
            span_ctx = obs.span(
                "monitor.epoch",
                key=str(epoch),
                category="monitor",
                t=self._crawler.stats.elapsed_s,
            )
            span = span_ctx.__enter__()
        try:
            for app_id in plan:
                if app_id in done:
                    continue
                blackout = getattr(
                    self._crawler.transport, "active_blackout", None
                )
                if blackout is not None:
                    window = blackout()
                    if window is not None:
                        self._pause_for_blackout(window, epoch)
                record = self._crawler.crawl_app(app_id)
                suspicion, assessment = self._suspicion(record, epoch)
                events = (
                    self._diff(previous_records.get(app_id), record, epoch)
                    if self.config.forensics else []
                )
                self._on_events(events)
                self.scheduler.observe(
                    app_id, epoch, suspicion, forensic_hits=len(events)
                )
                if self._journal is not None:
                    self._journal.append_observation(
                        epoch, record, assessment, events,
                        self._snapshot(epoch),
                    )
                previous_records[app_id] = record
                fresh += 1
                if heartbeat is not None:
                    heartbeat(app_id, fresh)
        finally:
            if span_ctx is not None:
                span.note(fresh=fresh, planned=len(plan))
                span.end(self._crawler.stats.elapsed_s)
                span_ctx.__exit__(None, None, None)
        if obs.enabled:
            obs.count("monitor_epochs_total")
            obs.gauge("monitor_epoch", float(epoch))
        self._next_epoch = max(self._next_epoch, epoch + 1)
        return fresh

    def run(self, supervised: bool = False) -> MonitorReport:
        """Run every remaining epoch; resumes from the journal if present."""
        runner = SupervisedEpochRunner(self) if supervised else None
        for epoch in range(self._next_epoch, self.config.epochs):
            if runner is not None:
                runner.run_epoch(epoch)
            else:
                self.run_epoch(epoch)
        return self.report()

    # -- results -----------------------------------------------------------

    def records(self) -> dict[str, CrawlRecord]:
        """Each app's latest observation (the living dataset)."""
        if self._journal is not None:
            return self._journal.latest_records()
        return {}

    def report(self) -> MonitorReport:
        events = (
            self._journal.forensic_events() if self._journal is not None else []
        )
        observations = (
            sum(
                1 for e in self._journal.entries
                if e["app_id"] != MonitorJournal.PLAN_SENTINEL
            )
            if self._journal is not None else 0
        )
        return MonitorReport(
            epochs_run=self._next_epoch,
            observations=observations,
            forensic_events=events,
            pauses=self.scheduler.pauses,
            tier_census=self.scheduler.tier_census(),
            quarantined=(
                self._journal.quarantined if self._journal is not None else 0
            ),
        )

    def export_history_bytes(self) -> bytes:
        """The canonical byte image of the durable history store.

        This is what the kill-anywhere invariant compares: an
        interrupted-and-resumed run must produce these bytes exactly.
        """
        if self._journal is None:
            return canonical({"entries": []})
        return canonical({"entries": self._journal.entries})

    def export_dataset_bytes(self) -> bytes:
        """Canonical bytes of the latest record per app (the dataset)."""
        latest: dict[str, dict] = {}
        for entry in (self._journal.entries if self._journal else []):
            if entry["app_id"] != MonitorJournal.PLAN_SENTINEL:
                latest[entry["app_id"]] = entry["record"]
        return canonical({
            "records": [latest[app_id] for app_id in sorted(latest)]
        })


# -- the supervised epoch runner --------------------------------------------


def _epoch_worker(
    monitor: AppMonitor,
    epoch: int,
    conn: Any,
    chaos: tuple[str, int] | None,
    incarnation: int,
) -> None:
    """Forked worker: run one epoch against the shared journal.

    The journal is the only channel back to the parent — the worker
    reopens it for itself (a forked file handle must not be shared),
    runs the epoch, and heartbeats after every durable observation.
    Chaos (first incarnation only) kills or hangs the worker after the
    target observation, exercising the restart ladder.
    """
    monitor.resync_from_journal()

    def heartbeat(app_id: str, fresh: int) -> None:
        conn.send({
            "type": "heartbeat",
            "epoch": epoch,
            "app_id": app_id,
            "fresh": fresh,
        })
        if chaos is not None and incarnation == 0 and fresh == chaos[1]:
            if chaos[0] == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            elif chaos[0] == "hang":
                while True:  # silence: the parent's deadline reaps us
                    time.sleep(0.05)

    try:
        monitor.run_epoch(epoch, heartbeat=heartbeat)
        conn.send({"type": "done", "epoch": epoch})
    except Exception as err:  # noqa: BLE001 - reported, then die nonzero
        try:
            conn.send({"type": "error", "epoch": epoch, "message": repr(err)})
        except OSError:  # pragma: no cover - parent already gone
            pass
        os._exit(1)
    finally:
        conn.close()


def _chaos_from_env() -> tuple[str, int] | None:
    """Parse :data:`MONITOR_CHAOS_ENV` (``kill:<n>`` / ``hang:<n>``)."""
    raw = os.environ.get(MONITOR_CHAOS_ENV, "").strip()
    if not raw:
        return None
    mode, _, index = raw.partition(":")
    if mode not in ("kill", "hang") or not index.isdigit():
        raise ValueError(
            f"{MONITOR_CHAOS_ENV}={raw!r}: expected kill:<n> or hang:<n>"
        )
    return mode, int(index)


class SupervisedEpochRunner:
    """Fork-watch-restart for epochs, with an unconditional inline rung.

    Each epoch runs in a forked worker that heartbeats per observation
    over a pipe.  A worker that dies
    (SIGKILL, nonzero exit) or goes silent past the heartbeat deadline
    is restarted with exponential backoff, at most ``max_restarts``
    times; after that the epoch runs *inline* in the parent — which
    always succeeds at making progress, because every durable
    observation survives every rung.  Without a journal there is
    nothing for a worker to persist, so supervision degrades to inline
    execution directly.
    """

    def __init__(
        self,
        monitor: AppMonitor,
        heartbeat_timeout_s: float = 30.0,
        max_restarts: int = 2,
        restart_backoff_s: float = 0.05,
        chaos: tuple[str, int] | None = None,
    ) -> None:
        if heartbeat_timeout_s <= 0:
            raise ValueError(
                f"heartbeat_timeout_s must be > 0, got {heartbeat_timeout_s}"
            )
        self._monitor = monitor
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.max_restarts = max_restarts
        self.restart_backoff_s = restart_backoff_s
        self.chaos = chaos if chaos is not None else _chaos_from_env()
        self.restarts = 0
        self.heartbeat_gaps = 0
        self.inline_fallbacks = 0

    def run_epoch(self, epoch: int) -> None:
        import multiprocessing

        if (
            self._monitor.journal is None
            or "fork" not in multiprocessing.get_all_start_methods()
        ):
            self.inline_fallbacks += 1
            self._monitor.run_epoch(epoch)
            return
        obs = get_observer()
        for incarnation in range(self.max_restarts + 1):
            if incarnation > 0:
                backoff = self.restart_backoff_s * (2 ** (incarnation - 1))
                if backoff > 0:
                    time.sleep(backoff)
                self.restarts += 1
                if obs.enabled:
                    obs.count("monitor_supervisor_restarts_total")
            if self._run_worker(epoch, incarnation):
                # Fold the worker's durable progress into this process.
                # The journaled cursor points at the epoch the worker
                # was running; it finished, so advance past it.
                self._monitor.resync_from_journal()
                self._monitor._next_epoch = max(
                    self._monitor._next_epoch, epoch + 1
                )
                return
        # Every incarnation died: the unconditional last rung.  The
        # journal already holds whatever the workers completed, so the
        # inline epoch only crawls the remainder.
        self.inline_fallbacks += 1
        if obs.enabled:
            obs.count("monitor_supervisor_inline_fallbacks_total")
        logger.warning(
            "epoch %d worker restart budget exhausted; finishing inline",
            epoch,
        )
        self._monitor.resync_from_journal()
        self._monitor.run_epoch(epoch)

    def _run_worker(self, epoch: int, incarnation: int) -> bool:
        """Fork one worker; True iff it completed the epoch."""
        import multiprocessing
        from multiprocessing.connection import wait as connection_wait

        ctx = multiprocessing.get_context("fork")
        recv_conn, send_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_epoch_worker,
            args=(self._monitor, epoch, send_conn, self.chaos, incarnation),
            daemon=True,
            name=f"repro-monitor-e{epoch}-r{incarnation}",
        )
        proc.start()
        send_conn.close()  # worker death now surfaces as EOF
        last_seen = time.monotonic()
        done = False
        try:
            while True:
                ready = connection_wait(
                    [recv_conn], timeout=min(0.05, self.heartbeat_timeout_s / 4)
                )
                now = time.monotonic()
                if ready:
                    try:
                        message = recv_conn.recv()
                    except (EOFError, OSError):
                        break  # EOF: the worker is gone
                    last_seen = now
                    kind = message.get("type")
                    if kind == "done":
                        done = True
                        break
                    if kind == "error":
                        logger.warning(
                            "epoch %d worker error: %s",
                            epoch, message.get("message"),
                        )
                elif now - last_seen > self.heartbeat_timeout_s:
                    # Hung worker: wall-clock silence past the deadline.
                    self.heartbeat_gaps += 1
                    obs = get_observer()
                    if obs.enabled:
                        obs.count("monitor_heartbeat_gaps_total")
                    if proc.is_alive():
                        proc.kill()
                    break
        finally:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.kill()
                proc.join(timeout=5.0)
            recv_conn.close()
        return done and proc.exitcode == 0
