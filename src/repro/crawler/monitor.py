"""The always-on monitoring daemon behind ``repro monitor``.

FRAppE's conclusion frames the system as "an independent watchdog for
app assessment and ranking"; this module is that watchdog's engine.
Instead of one-shot crawls it runs *epochs*: every epoch shifts the
crawl calendar forward by a stride, re-crawls the apps the tiered
scheduler (:mod:`repro.crawler.recrawl`) says are due, ranks them on
the suspicion ladder, diffs each observation against the app's
history, and records the *forensic events* only a long-running
monitor can see — deletion, rename, permission change, post-rate
collapse (Kagan et al., arXiv:1309.4067).

Robustness is the contract, not a feature:

* **Kill-anywhere resume.** Every observation (and each epoch's
  dispatch plan) is one checksummed, fsynced line in a
  :class:`MonitorJournal` — a :mod:`repro.durable` log.  Crawler and
  scheduler state ride on two lines per epoch only: the plan line
  (the epoch's start) and the epoch's last planned observation (its
  end).  A restart restores the start of the earliest epoch with a
  hole, or else the end of the last epoch, and walks the plan again:
  an observation that is already durable is re-derived and checked
  against its line instead of appended.  So SIGKILL at any instant
  resumes to a byte-identical history store and schedule.
* **Blackout backpressure.**  Before dispatching an app the monitor
  polls the transport for an active blackout window
  (:meth:`~repro.platform.transport.FaultyTransport.active_blackout`);
  inside one it *pauses* — jumps the simulated clock to the window's
  end and counts a scheduler-level pause — instead of crawling into
  the outage and burning retry budgets and breaker state.
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
import gc
import logging
import os
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.crawler.checkpoint import record_from_jsonable, record_to_jsonable
from repro.crawler.crawler import AppCrawler, CrawlRecord
from repro.crawler.recrawl import RecrawlScheduler
from repro.crawler.resilience import PERMANENT
from repro.durable import Journal, canonical, decode_line
from repro.ecosystem.app_lifecycle import LifecycleScript
from repro.obs.observer import get_observer

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
    #: detect + record forensic events
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


class MonitorJournal(Journal):
    """The monitor's WAL: observations + epoch plans, one line each.

    A :class:`~repro.durable.Journal` — the crawl checkpoint's base, so
    it opens, reads, repairs, appends and checks replays the same way.
    This class adds the history's schema and admission rules: a
    malformed schema, a duplicate ``(epoch, app_id)`` with conflicting
    content, or an observation that contradicts recorded history (an
    app alive again after a journaled deletion event) is quarantined
    to the same sidecar — even on the final line — and the loop
    continues without it.  An identical duplicate is dropped.

    Lines are format ``v`` 4: after the header (the
    :meth:`AppMonitor.fingerprint`), an observation line holds the record
    and its forensic events, and only an epoch's plan line and its last
    planned observation carry ``state`` (crawler, scheduler, and the
    epoch cursor — the epoch for the plan line, the next one for the
    last observation).  A journal holding any other version is refused
    with :class:`~repro.durable.JournalVersionError`.
    """

    JOURNAL_NAME = "monitor.jsonl"
    FORMAT_VERSION = 4
    WHAT = "monitor history"
    #: app_id of a journaled epoch dispatch plan
    PLAN_SENTINEL = "__plan__"

    @staticmethod
    def decode(line: bytes) -> dict | None:
        """One journal entry or the header; ``None`` if damaged or neither."""
        payload = decode_line(line)
        if payload is None or payload.keys().isdisjoint(("app_id", "fingerprint")):
            return None
        return payload

    def __init__(self, directory: str | Path, resume: bool = True) -> None:
        #: valid entries in durability order (observations and plans)
        self.entries: list[dict] = []
        #: (epoch, app_id) -> observation entry
        self._observations: dict[tuple[int, str], dict] = {}
        #: epoch -> journaled dispatch plan
        self._plans: dict[int, list[str]] = {}
        #: (cursor, is plan line) -> journaled state; the key sorts an
        #: epoch's end before the next epoch's plan line
        self._states: dict[tuple[int, bool], dict] = {}
        #: apps with a journaled deletion event, and at which epoch
        self._deleted_at: dict[str, int] = {}
        super().__init__(directory, resume)

    def _admit(self, payload: dict) -> str | None:
        """Fold one decoded entry in; a string names why it is rejected."""
        epoch = payload.get("epoch")
        app_id = payload.get("app_id")
        if not isinstance(epoch, int) or epoch < 0 or not isinstance(app_id, str):
            return "malformed"
        state = payload.get("state")
        if state is not None and not (
            isinstance(state, dict) and isinstance(state.get("epoch"), int)
        ):
            return "malformed"
        if app_id == self.PLAN_SENTINEL:
            plan = payload.get("plan")
            if not isinstance(plan, list):
                return "malformed"
            stored = self._plans.get(epoch)
            if stored is not None:
                return "duplicate" if stored == plan else "conflicting-plan"
            self._index(payload)
            return None
        if not isinstance(payload.get("record"), dict):
            return "malformed"
        stored = self._observations.get((epoch, app_id))
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
        self._index(payload)
        return None

    def _index(self, payload: dict) -> None:
        """Add one admitted (or freshly appended) entry to the indexes."""
        epoch, app_id = payload["epoch"], payload["app_id"]
        state = payload.get("state")
        if state is not None:
            self._states[(state["epoch"], app_id == self.PLAN_SENTINEL)] = state
        if app_id == self.PLAN_SENTINEL:
            self._plans[epoch] = [str(a) for a in payload["plan"]]
        else:
            self._observations[(epoch, app_id)] = payload
            for event in payload.get("events", []):
                if event.get("kind") == "deletion":
                    self._deleted_at.setdefault(app_id, epoch)
        self.entries.append(payload)

    # -- replay API --------------------------------------------------------

    def plan_for(self, epoch: int) -> list[str] | None:
        return self._plans.get(epoch)

    def observation(self, epoch: int, app_id: str) -> dict | None:
        """The durable observation of *app_id* at *epoch*, if any."""
        return self._observations.get((epoch, app_id))

    def _first_hole(self) -> int | None:
        """The earliest epoch with no plan or a planned app unobserved."""
        last = max(
            [*self._plans, *(epoch for epoch, _ in self._observations)],
            default=-1,
        )
        for epoch in range(last + 1):
            plan = self._plans.get(epoch)
            if plan is None or any(
                (epoch, app_id) not in self._observations for app_id in plan
            ):
                return epoch
        return None

    def resume_state(self) -> dict | None:
        """The journaled state a restart continues from.

        The start of the earliest epoch with a hole (its plan line, or
        the previous epoch's end when the plan line itself is lost);
        with no hole, the end of the last epoch.
        """
        hole = self._first_hole()
        keys = [
            key for key in self._states
            if hole is None or key <= (hole, True)
        ]
        return self._states[max(keys)] if keys else None

    def latest_jsonable(self, before: int | None = None) -> dict[str, dict]:
        """Each app's highest-epoch durable record (below *before*), as JSON.

        Highest epoch, not last line: a re-crawled hole is appended
        after observations of later epochs.
        """
        latest: dict[str, tuple[int, dict]] = {}
        for (epoch, app_id), entry in self._observations.items():
            if before is not None and epoch >= before:
                continue
            held = latest.get(app_id)
            if held is None or epoch > held[0]:
                latest[app_id] = (epoch, entry["record"])
        return {app_id: record for app_id, (_, record) in latest.items()}

    def latest_records(self, before: int | None = None) -> dict[str, CrawlRecord]:
        """Each app's most recent durable observation, decoded fresh."""
        return {
            app_id: record_from_jsonable(data)
            for app_id, data in self.latest_jsonable(before).items()
        }

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
        self._write(payload)
        self._index(payload)

    def append_plan(self, epoch: int, plan: list[str], state: dict) -> None:
        """Pin this epoch's dispatch order and start state before crawling.

        Without the pinned plan, a mid-epoch resume would recompute the
        plan from *updated* schedule entries, and an exploration policy
        could pick different extras than the uninterrupted run did.
        """
        self._append({
            "v": self.FORMAT_VERSION,
            "app_id": self.PLAN_SENTINEL,
            "epoch": epoch,
            "plan": list(plan),
            "state": state,
        })

    def append_observation(
        self,
        epoch: int,
        record: CrawlRecord,
        events: list[ForensicEvent],
        state: dict | None = None,
    ) -> None:
        """Make one observation durable (written + flushed + fsynced).

        *state* is the epoch's end state, given only with the epoch's
        last planned observation.
        """
        self._append(self.observation_line(epoch, record, events, state))

    @classmethod
    def observation_line(
        cls,
        epoch: int,
        record: CrawlRecord,
        events: list[ForensicEvent],
        state: dict | None = None,
    ) -> dict:
        """The entry :meth:`append_observation` writes for these values."""
        payload = {
            "v": cls.FORMAT_VERSION,
            "app_id": record.app_id,
            "epoch": epoch,
            "record": record_to_jsonable(record),
            "events": [e.jsonable() for e in events],
        }
        if state is not None:
            payload["state"] = state
        return payload


class AppMonitor:
    """Epoch loop: shift the calendar, recrawl the due set, diff history.

    One instance owns a crawler, a :class:`RecrawlScheduler` and a
    :class:`MonitorJournal`; every observation goes through the journal,
    so a run's report, records and dataset are read back from it.  The
    state needed to continue rides on each epoch's plan line and last
    planned observation; :meth:`run` resumes transparently from
    whatever is durable.
    """

    def __init__(
        self,
        world,
        crawler: AppCrawler,
        app_ids,
        journal: MonitorJournal,
        config: MonitorConfig | None = None,
        scheduler: RecrawlScheduler | None = None,
    ) -> None:
        self._world = world
        self._crawler = crawler
        self._app_ids = sorted(app_ids)
        self.config = config or MonitorConfig()
        self.scheduler = scheduler or RecrawlScheduler()
        self._journal = journal
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
        journal.check_fingerprint(self.fingerprint())
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
        state = self._journal.resume_state()
        if state is None:
            return
        self._crawler.restore_state(state["crawler"])
        self.scheduler.restore(state["scheduler"])
        self._next_epoch = int(state["epoch"])

    def resync_from_journal(self) -> None:
        """Reload everything from disk (after a forked worker appended)."""
        directory = self._journal.directory
        self._journal.close()
        self._journal = MonitorJournal(directory)
        self._restore_from_journal()

    @property
    def journal(self) -> MonitorJournal:
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
        """The epoch's last collection day (lifecycle events apply to it)."""
        return self._base_schedule.inst_crawl_day \
            + epoch * self.config.stride_days

    def _snapshot(self, cursor: int) -> dict:
        """Crawler + scheduler state, and the epoch a restart runs next."""
        return {
            "crawler": self._crawler.snapshot_state(),
            "scheduler": self.scheduler.snapshot(),
            "epoch": cursor,
        }

    @staticmethod
    def _suspicion(record: CrawlRecord) -> float:
        """The record's rung on the suspicion ladder.

        A deterministic rule, not a trained classifier: removed apps are
        the paper's prime suspects; a client-ID mismatch is near-certain
        malice.
        """
        score = 50.0
        summary = record.outcomes.get("summary")
        if summary is not None and summary.status == PERMANENT:
            score = 75.0
        if record.client_id_mismatch is True:
            score = 90.0
        return score

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
        if not obs.enabled:
            return
        for event in events:
            obs.event(
                "monitor.forensic",
                t=self._crawler.stats.elapsed_s,
                category="monitor",
                app_id=event.app_id,
                kind=event.kind,
                epoch=event.epoch,
            )
            obs.count("monitor_forensic_events_total", kind=event.kind)

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

        One loop for live and resumed epochs: it walks the whole plan
        from the restored state, in the journaled order when a plan is
        durable (pinning resume order under exploration policies).  An
        app already durable at this epoch is crawled again and checked
        against its line (:class:`~repro.durable.ReplayError` if it differs)
        instead of appended, traced or heartbeated — restored state
        plus the same calls gives the same records, so the replay is
        what carries crawler and scheduler across the durable prefix.
        An epoch before the restored cursor is complete: a no-op.
        *heartbeat* is called after each fresh durable observation — the
        supervised runner's liveness signal.
        """
        if epoch < self._next_epoch:
            return 0
        obs = get_observer()
        self._world.schedule = self._epoch_schedule(epoch)
        if self._lifecycle is not None and epoch >= 1:
            self._lifecycle.apply_until(self._world, self._epoch_day(epoch))
        self.scheduler.ensure(self._app_ids)
        journal = self._journal
        previous_records = journal.latest_records(before=epoch)
        plan = journal.plan_for(epoch)
        if plan is None:
            plan = self.scheduler.plan(epoch)
            journal.append_plan(epoch, plan, self._snapshot(epoch))
        last = plan[-1] if plan else None
        fresh = 0
        stats = self._crawler.stats
        transport = self._crawler.transport
        with obs.span(
            "monitor.epoch", key=str(epoch), category="monitor",
            t=stats.elapsed_s,
        ) as span:
            for app_id in plan:
                window = transport.active_blackout()
                if window is not None:
                    self._pause_for_blackout(window, epoch)
                record = self._crawler.crawl_app(app_id)
                events = (
                    self._diff(previous_records.get(app_id), record, epoch)
                    if self.config.forensics else []
                )
                self.scheduler.observe(
                    app_id, epoch, self._suspicion(record),
                    forensic_hits=len(events),
                )
                state = self._snapshot(epoch + 1) if app_id == last else None
                durable = journal.observation(epoch, app_id)
                if durable is not None:
                    journal.check(
                        MonitorJournal.observation_line(
                            epoch, record, events, state
                        ),
                        durable,
                        f"epoch {epoch} app {app_id}",
                    )
                    continue
                self._on_events(events)
                journal.append_observation(epoch, record, events, state)
                if obs.enabled:
                    obs.event(
                        "monitor.append",
                        t=stats.elapsed_s,
                        category="monitor",
                        app_id=app_id,
                        epoch=epoch,
                        events=len(events),
                    )
                    obs.count("monitor_appends_total")
                fresh += 1
                if heartbeat is not None:
                    heartbeat(app_id, fresh)
            span.note(fresh=fresh, planned=len(plan))
            span.end(stats.elapsed_s)
        if obs.enabled:
            obs.count("monitor_epochs_total")
            obs.gauge("monitor_epoch", float(epoch))
        self._next_epoch = max(self._next_epoch, epoch + 1)
        return fresh

    def run(self, supervised: bool = False) -> MonitorReport:
        """Run every remaining epoch; resumes from the journal."""
        runner = SupervisedEpochRunner(self) if supervised else None
        for epoch in range(self._next_epoch, self.config.epochs):
            if runner is not None:
                runner.run_epoch(epoch)
            else:
                self.run_epoch(epoch)
        return self.report()

    # -- results -----------------------------------------------------------

    def records(self) -> dict[str, CrawlRecord]:
        """Each app's highest-epoch observation (the living dataset)."""
        return self._journal.latest_records()

    def report(self) -> MonitorReport:
        journal = self._journal
        return MonitorReport(
            epochs_run=self._next_epoch,
            observations=sum(
                1 for e in journal.entries
                if e["app_id"] != MonitorJournal.PLAN_SENTINEL
            ),
            forensic_events=journal.forensic_events(),
            pauses=self.scheduler.pauses,
            tier_census=self.scheduler.tier_census(),
            quarantined=journal.quarantined,
        )

    def export_history_bytes(self) -> bytes:
        """The canonical byte image of the durable history store.

        This is what the kill-anywhere invariant compares: an
        interrupted-and-resumed run must produce these bytes exactly.
        """
        return canonical({"entries": self._journal.entries})

    def export_dataset_bytes(self) -> bytes:
        """Canonical bytes of the latest record per app (the dataset)."""
        latest = self._journal.latest_jsonable()
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

    The journal is the only channel back to the parent.  The worker
    starts from the parent's state (the parent resyncs from the journal
    after every worker exit) and appends through the journal handle it
    inherits.  That forked handle is safe to share: the parent flushes
    each append before returning, so the fork copies no pending bytes;
    the parent writes nothing while a worker lives; and the handle is
    in append mode, so each worker write lands at the file's end.  A
    journal opens its handle only at its first write, after repairing
    any damage it read, so a worker forked from a freshly resynced
    parent repairs and opens its own.  The worker heartbeats after every
    durable observation.  Chaos (first incarnation only) kills or hangs
    the worker after the target observation, exercising the restart
    ladder.
    """
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
    observation survives every rung.  Where the platform cannot fork,
    every epoch runs inline.
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

        if "fork" not in multiprocessing.get_all_start_methods():
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
            done = self._run_worker(epoch, incarnation)
            # Fold the worker's durable progress into this process, the
            # state the next worker (or the inline rung) forks from.
            self._monitor.resync_from_journal()
            if done:
                # The journaled cursor points at the epoch the worker
                # was running; it finished, so advance past it.
                self._monitor._next_epoch = max(
                    self._monitor._next_epoch, epoch + 1
                )
                return
        # Every incarnation died: the unconditional last rung.  The
        # journal already holds whatever the workers completed, so the
        # inline epoch replays that and crawls only the remainder.
        self.inline_fallbacks += 1
        if obs.enabled:
            obs.count("monitor_supervisor_inline_fallbacks_total")
        logger.warning(
            "epoch %d worker restart budget exhausted; finishing inline",
            epoch,
        )
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
        # Move every live object to the permanent generation before the
        # fork, so a collection in the worker does not walk (and so
        # copy) the parent's heap page by page.
        gc.freeze()
        try:
            proc.start()
        finally:
            gc.unfreeze()
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
