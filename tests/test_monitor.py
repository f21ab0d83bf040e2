"""The continuous monitoring daemon (PR 8 tentpole).

Pins the contracts ``repro monitor`` is built on:

* with monitoring features off, one epoch is the sequential
  ``crawl_many`` loop byte-for-byte (records *and* clock);
* the tier ladder and the pluggable recrawl policies are deterministic
  pure functions of journaled state;
* scripted lifecycle events are detected as forensic events and force
  apps onto the hot tier;
* an active blackout triggers scheduler-level backpressure (a counted
  pause, a clock jump) instead of retry burn;
* SIGKILL-anywhere resume: interrupting a faulted, blacked-out,
  forensics-on run at arbitrary points and resuming from the journal
  yields a byte-identical history store, schedule, and dataset;
* corrupt or contradictory history lines quarantine to ``.corrupt``
  sidecars without halting;
* journal lines are format v3 — state only on each epoch's plan line
  and last observation — and a journal of another version is refused;
* the supervised epoch runner restarts killed/hung workers and falls
  back inline, preserving byte-identity throughout.
"""

from __future__ import annotations

import dataclasses
import gc
import json

import pytest

from repro.config import ScaleConfig
from repro.crawler.checkpoint import record_to_jsonable
from repro.crawler.crawler import make_crawler
from repro.crawler.datasets import DatasetBuilder
from repro.crawler.monitor import (
    AppMonitor,
    FORENSIC_EVENT_KINDS,
    MonitorConfig,
    MonitorJournal,
    SupervisedEpochRunner,
)
from repro.crawler.recrawl import (
    ActiveLearningPolicy,
    RecrawlScheduler,
    ScheduleEntry,
    TieredPolicy,
    TierLadder,
)
from repro.durable import JournalVersionError, encode_line
from repro.ecosystem.app_lifecycle import LifecycleScript
from repro.ecosystem.simulation import run_simulation
from repro.mypagekeeper.classifier import UrlClassifier
from repro.mypagekeeper.monitor import MyPageKeeper

MON_SEED = 424242
MON_SCALE = 0.01

#: lifecycle event kind -> the forensic event kind that detects it
_DETECTS = {
    "rename": "rename",
    "permission_change": "permission_change",
    "delete": "deletion",
    "mute": "post_rate_collapse",
}


def build_world(**overrides):
    settings = {
        "scale": MON_SCALE, "master_seed": MON_SEED, "fault_rate": 0.0,
    }
    settings.update(overrides)
    return run_simulation(ScaleConfig(**settings))


def sample_ids(world) -> list[str]:
    report = MyPageKeeper(
        UrlClassifier(world.services.blacklist), world.post_log
    ).scan()
    return sorted(DatasetBuilder(world, report).build(crawl=False).d_sample)


@pytest.fixture(scope="module")
def app_ids() -> list[str]:
    return sample_ids(build_world())


class TestTierLadder:
    def test_suspicion_rungs(self):
        ladder = TierLadder()
        assert ladder.classify(90.0, 0, 0) == "hot"
        assert ladder.classify(60.0, 0, 0) == "warm"
        assert ladder.classify(30.0, 0, 0) == "cold"
        assert ladder.classify(5.0, 0, 0) == "dormant"

    def test_forensic_activity_forces_hot(self):
        assert TierLadder().classify(5.0, 0, forensic_hits=1) == "hot"

    def test_age_promotes_one_rung(self):
        ladder = TierLadder()
        # dormant interval is 8: unobserved for 16 epochs -> cold
        assert ladder.classify(5.0, 16, 0) == "cold"
        assert ladder.classify(5.0, 15, 0) == "dormant"

    def test_due(self):
        ladder = TierLadder()
        never = ScheduleEntry(app_id="a")
        assert never.due(0, ladder)
        warm = ScheduleEntry(app_id="a", tier="warm", last_epoch=0)
        assert not warm.due(1, ladder)  # warm interval is 2
        assert warm.due(2, ladder)


class TestPolicies:
    def entries(self):
        return {
            "hot1": ScheduleEntry("hot1", tier="hot", last_epoch=1,
                                  suspicion=90.0),
            "warm1": ScheduleEntry("warm1", tier="warm", last_epoch=0,
                                   suspicion=55.0),
            "cold1": ScheduleEntry("cold1", tier="cold", last_epoch=1,
                                   suspicion=49.0),
            "new1": ScheduleEntry("new1"),
        }

    def test_tiered_policy_crawls_the_due_set_hot_first(self):
        plan = TieredPolicy().plan(self.entries(), epoch=2, ladder=TierLadder())
        # hot interval 1 -> due; warm due after 2 epochs; cold (4) not
        # due; never-observed always due.  Hot rung first, canonical
        # app-ID order within a rung (new1 defaults to warm).
        assert plan == ["hot1", "new1", "warm1"]

    def test_active_learning_adds_boundary_uncertain_extras(self):
        plan = ActiveLearningPolicy(exploration_budget=1).plan(
            self.entries(), epoch=2, ladder=TierLadder()
        )
        # cold1 (|49 - 50| = 1) is the most uncertain not-due app.
        assert plan == ["hot1", "new1", "warm1", "cold1"]

    def test_zero_budget_is_the_tiered_plan(self):
        entries = self.entries()
        ladder = TierLadder()
        assert ActiveLearningPolicy(exploration_budget=0).plan(
            entries, 2, ladder
        ) == TieredPolicy().plan(entries, 2, ladder)


class TestSchedulerState:
    def test_snapshot_restore_roundtrip(self):
        scheduler = RecrawlScheduler()
        scheduler.ensure(["b", "a"])
        scheduler.observe("a", 0, 80.0, forensic_hits=1)
        scheduler.record_pause(123.0)
        image = scheduler.snapshot()
        # Round-trips through JSON (it rides on journal lines).
        image = json.loads(json.dumps(image))
        restored = RecrawlScheduler()
        restored.restore(image)
        assert restored.snapshot() == scheduler.snapshot()
        assert restored.entries["a"].tier == "hot"
        assert restored.pauses == 1


class TestEpochZeroIdentity:
    def test_monitor_epoch_matches_crawl_many_byte_for_byte(
        self, app_ids, tmp_path
    ):
        """Features off => one epoch IS the sequential crawl loop."""
        world = build_world()
        reference = make_crawler(world)
        records = reference.crawl_many(app_ids)
        expected = {a: record_to_jsonable(r) for a, r in records.items()}

        world2 = build_world()
        crawler = make_crawler(world2)
        journal = MonitorJournal(tmp_path / "mon")
        monitor = AppMonitor(
            world2, crawler, app_ids,
            config=MonitorConfig(epochs=1), journal=journal,
        )
        monitor.run()
        journal.close()
        observed = {
            a: record_to_jsonable(r) for a, r in monitor.records().items()
        }
        assert observed == expected
        assert crawler.stats.snapshot() == reference.stats.snapshot()


class TestForensics:
    @pytest.fixture(scope="class")
    def monitored(self, app_ids, tmp_path_factory):
        world = build_world()
        crawler = make_crawler(world)
        journal = MonitorJournal(tmp_path_factory.mktemp("mon"))
        monitor = AppMonitor(
            world, crawler, app_ids,
            config=MonitorConfig(epochs=3, forensics=True, lifecycle=True),
            journal=journal,
        )
        report = monitor.run()
        journal.close()
        return world, monitor, report

    def test_detects_scripted_lifecycle_events(self, monitored, app_ids):
        world, monitor, report = monitored
        assert report.forensic_events, "no forensic events detected"
        # Regenerate the ground-truth script from a *fresh* world:
        # generation reads pre-event app state, and the monitored world
        # has already had the events applied to it.
        pristine = build_world()
        script = LifecycleScript.generate(
            pristine,
            start_day=pristine.schedule.profilefeed_crawl_day,
            horizon_days=21,
        )
        truth = {
            (e.app_id, _DETECTS[e.kind]) for e in script.events
        }
        # The moderation engine's own deletions are the other legitimate
        # source: an app policed on a day between two epochs' summary
        # crawls turns PERMANENT without a scripted lifecycle cause.
        moderated = {
            app.app_id
            for app in pristine.registry.all_apps()
            if app.deleted_day is not None
        }
        for event in report.forensic_events:
            assert event.kind in FORENSIC_EVENT_KINDS
            if event.kind == "deletion" and event.app_id in moderated:
                continue
            assert (event.app_id, event.kind) in truth, (
                f"detected {event.kind} on {event.app_id} without a "
                "scripted lifecycle cause (fault_rate is 0)"
            )

    def test_multiple_kinds_detected(self, monitored):
        _, _, report = monitored
        kinds = {e.kind for e in report.forensic_events}
        assert len(kinds) >= 2

    def test_forensic_hits_force_the_hot_tier(self, monitored):
        # The hot pin applies to the observation that carried the event;
        # a later event-free recrawl may legitimately demote again.
        _, monitor, report = monitored
        checked = 0
        for event in report.forensic_events:
            entry = monitor.scheduler.entries[event.app_id]
            if entry.last_epoch == event.epoch:
                assert entry.tier == "hot"
                checked += 1
        assert checked > 0

    def test_forensics_off_records_no_events(self, app_ids, tmp_path):
        world = build_world()
        crawler = make_crawler(world)
        journal = MonitorJournal(tmp_path / "mon")
        monitor = AppMonitor(
            world, crawler, app_ids,
            config=MonitorConfig(epochs=2, forensics=False, lifecycle=True),
            journal=journal,
        )
        report = monitor.run()
        journal.close()
        assert report.forensic_events == []


class TestBlackoutBackpressure:
    def test_pause_jumps_the_clock_instead_of_retrying(
        self, app_ids, tmp_path
    ):
        world = build_world(blackouts=1)
        crawler = make_crawler(world)
        plan = crawler.transport.plan
        # One long window the crawl is guaranteed to run into.
        crawler.transport.plan = dataclasses.replace(
            plan, blackout_windows=((10.0, 700.0),)
        )
        journal = MonitorJournal(tmp_path / "mon")
        monitor = AppMonitor(
            world, crawler, app_ids,
            config=MonitorConfig(epochs=1), journal=journal,
        )
        report = monitor.run()
        journal.close()
        assert report.pauses >= 1
        assert monitor.scheduler.paused_until_s == 700.0
        # Backpressure, not retry burn: at most one app's worth of
        # blackout faults (the app whose crawl the window opened under);
        # every later dispatch paused at the poll instead.
        assert crawler.stats.injected.get("blackout", 0) <= 12
        # The pause is a wait on the simulated clock: most of the
        # window's 690 s was slept out, not crawled into.
        assert crawler.stats.wait_s >= 600.0


class TestKillAnywhereResume:
    def test_interrupted_resume_is_byte_identical(self, app_ids, tmp_path):
        """The PR's acceptance invariant, at fault_rate=0.2 with both a
        blackout schedule and forensics+lifecycle enabled."""
        overrides = {"fault_rate": 0.2, "blackouts": 2}
        mc = MonitorConfig(
            epochs=3, stride_days=7, forensics=True, lifecycle=True
        )

        def fresh(journal):
            world = build_world(**overrides)
            return AppMonitor(
                world, make_crawler(world), app_ids, config=mc,
                journal=journal,
            )

        ref_dir = tmp_path / "ref"
        journal = MonitorJournal(ref_dir)
        monitor = fresh(journal)
        monitor.run()
        history = monitor.export_history_bytes()
        dataset = monitor.export_dataset_bytes()
        schedule = monitor.scheduler.snapshot()
        journal.close()

        class Interrupt(Exception):
            pass

        def run_interrupted(step: int) -> AppMonitor:
            directory = tmp_path / f"step{step}"
            journal = MonitorJournal(directory)
            monitor = fresh(journal)
            for _ in range(400):  # bound the loop; never hit in practice
                seen = [0]

                def heartbeat(app_id, fresh_count):
                    seen[0] += 1
                    if seen[0] >= step:
                        # The journal line is already durable: this is
                        # the instant after which SIGKILL may arrive.
                        raise Interrupt()

                try:
                    for epoch in range(monitor._next_epoch, mc.epochs):
                        monitor.run_epoch(epoch, heartbeat=heartbeat)
                    monitor.journal.close()
                    return monitor
                except Interrupt:
                    # Simulated process death: throw everything away and
                    # come back up from nothing but the directory.
                    monitor.journal.close()
                    monitor = fresh(MonitorJournal(directory))
            raise AssertionError("interrupted run never completed")

        for step in (3, 17):
            resumed = run_interrupted(step)
            assert resumed.export_history_bytes() == history
            assert resumed.export_dataset_bytes() == dataset
            assert resumed.scheduler.snapshot() == schedule


class TestJournalQuarantine:
    def payload(self, epoch, app_id, **extra):
        base = {
            "v": 4,
            "app_id": app_id,
            "epoch": epoch,
            "record": {"app_id": app_id, "summary_ok": True},
            "events": [],
        }
        base.update(extra)
        return base

    def write_lines(self, directory, payloads, raw_suffix=b""):
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / MonitorJournal.JOURNAL_NAME
        with open(path, "wb") as handle:
            for payload in payloads:
                handle.write(encode_line(payload))
            handle.write(raw_suffix)
        return path

    def test_torn_final_line_truncated_silently(self, tmp_path):
        directory = tmp_path / "mon"
        self.write_lines(
            directory,
            [self.payload(0, "a")],
            raw_suffix=b"deadbeef\t{\"half\": tru",
        )
        journal = MonitorJournal(directory)
        assert journal.truncated_torn_line
        assert journal.quarantined == 0
        assert len(journal.entries) == 1
        journal.close()

    def test_interior_corruption_quarantines_to_sidecar(self, tmp_path):
        directory = tmp_path / "mon"
        good = [self.payload(0, "a"), self.payload(0, "b")]
        path = self.write_lines(directory, good)
        lines = path.read_bytes().splitlines(keepends=True)
        lines.insert(1, b"not a checksum\tnot json\n")
        path.write_bytes(b"".join(lines))
        journal = MonitorJournal(directory)
        assert journal.quarantined == 1
        assert len(journal.entries) == 2
        sidecar = directory / f"{MonitorJournal.JOURNAL_NAME}.corrupt"
        assert not sidecar.exists()  # opening only reads
        journal.append_plan(1, [], {"epoch": 1})  # the first write repairs
        assert sidecar.exists()
        assert b"not a checksum" in sidecar.read_bytes()
        # The journal was rewritten to exactly the survivors before the
        # append: a second open sees a clean file and quarantines nothing.
        journal.close()
        again = MonitorJournal(directory)
        assert again.quarantined == 0
        assert len(again.entries) == 3
        assert again.entries[:2] == good
        again.close()

    def test_conflicting_observation_quarantined(self, tmp_path):
        directory = tmp_path / "mon"
        first = self.payload(0, "a")
        conflicting = self.payload(0, "a")
        conflicting["record"] = {"app_id": "a", "summary_ok": False}
        self.write_lines(directory, [first, conflicting])
        journal = MonitorJournal(directory)
        assert journal.quarantined == 1
        assert journal._observations[(0, "a")]["record"]["summary_ok"] is True
        journal.close()

    def test_identical_duplicate_dropped_without_quarantine(self, tmp_path):
        directory = tmp_path / "mon"
        entry = self.payload(0, "a")
        self.write_lines(directory, [entry, entry])
        journal = MonitorJournal(directory)
        assert journal.quarantined == 0
        assert len(journal.entries) == 1
        journal.close()

    def test_resurrection_after_deletion_quarantined(self, tmp_path):
        directory = tmp_path / "mon"
        dead = self.payload(
            1, "a",
            record={"app_id": "a", "summary_ok": False},
            events=[{
                "epoch": 1, "app_id": "a", "kind": "deletion", "detail": "",
            }],
        )
        zombie = self.payload(2, "a")  # summary_ok True after deletion
        self.write_lines(directory, [self.payload(0, "a"), dead, zombie])
        journal = MonitorJournal(directory)
        assert journal.quarantined == 1
        assert (2, "a") not in journal._observations
        journal.close()

    def test_malformed_schema_quarantined(self, tmp_path):
        directory = tmp_path / "mon"
        bad = self.payload(0, "a")
        bad["epoch"] = -3
        self.write_lines(directory, [bad, self.payload(0, "b")])
        journal = MonitorJournal(directory)
        assert journal.quarantined == 1
        assert len(journal.entries) == 1
        journal.close()

    def test_v1_journal_refused_with_a_typed_error(self, tmp_path):
        directory = tmp_path / "mon"
        path = self.write_lines(
            directory,
            [self.payload(0, "a", v=1, state={"epoch": 0})],
        )
        before = path.read_bytes()
        with pytest.raises(JournalVersionError) as excinfo:
            MonitorJournal(directory)
        message = str(excinfo.value)
        assert str(directory) in message
        assert "fresh history" in message
        assert path.read_bytes() == before  # refused, not rewritten

    def test_fresh_directory_refused_without_resume(self, tmp_path):
        directory = tmp_path / "mon"
        self.write_lines(directory, [self.payload(0, "a")])
        with pytest.raises(FileExistsError):
            MonitorJournal(directory, resume=False)

    def test_fingerprint_mismatch_refused(self, app_ids, tmp_path):
        world = build_world()
        journal = MonitorJournal(tmp_path / "mon")
        AppMonitor(
            world, make_crawler(world), app_ids,
            config=MonitorConfig(epochs=2), journal=journal,
        )
        journal.close()
        journal = MonitorJournal(tmp_path / "mon")
        world2 = build_world()
        with pytest.raises(ValueError, match="different configuration"):
            AppMonitor(
                world2, make_crawler(world2), app_ids,
                config=MonitorConfig(epochs=3), journal=journal,
            )
        journal.close()


class TestJournalFormat:
    def test_state_only_on_plan_lines_and_each_epochs_last_observation(
        self, app_ids, tmp_path
    ):
        world = build_world()
        journal = MonitorJournal(tmp_path / "mon")
        monitor = AppMonitor(
            world, make_crawler(world), app_ids,
            config=MonitorConfig(epochs=2, forensics=True, lifecycle=True),
            journal=journal,
        )
        monitor.run()
        journal.close()
        carriers = [
            (e["epoch"], e["app_id"], e["state"]["epoch"])
            for e in journal.entries if "state" in e
        ]
        expected = []
        for epoch in range(2):
            plan = journal.plan_for(epoch)
            expected += [
                (epoch, MonitorJournal.PLAN_SENTINEL, epoch),
                (epoch, plan[-1], epoch + 1),
            ]
        assert carriers == expected
        assert {e["v"] for e in journal.entries} == {4}
        assert not any("assessment" in e for e in journal.entries)


class TestSupervisedRunner:
    def reference_history(self, app_ids, tmp_path):
        world = build_world()
        journal = MonitorJournal(tmp_path / "ref")
        monitor = AppMonitor(
            world, make_crawler(world), app_ids,
            config=MonitorConfig(epochs=1), journal=journal,
        )
        monitor.run()
        journal.close()
        return monitor.export_history_bytes()

    def test_clean_worker_matches_inline_and_leaves_gc_unfrozen(
        self, app_ids, tmp_path
    ):
        expected = self.reference_history(app_ids, tmp_path)
        world = build_world()
        journal = MonitorJournal(tmp_path / "mon")
        monitor = AppMonitor(
            world, make_crawler(world), app_ids,
            config=MonitorConfig(epochs=1), journal=journal,
        )
        runner = SupervisedEpochRunner(monitor, heartbeat_timeout_s=10.0)
        runner.run_epoch(0)
        journal.close()
        assert runner.restarts == 0
        assert runner.inline_fallbacks == 0
        # The fork-time freeze is undone in the supervisor.
        assert gc.get_freeze_count() == 0
        assert monitor.export_history_bytes() == expected

    def test_killed_worker_restarts_and_stays_byte_identical(
        self, app_ids, tmp_path
    ):
        expected = self.reference_history(app_ids, tmp_path)
        world = build_world()
        journal = MonitorJournal(tmp_path / "mon")
        monitor = AppMonitor(
            world, make_crawler(world), app_ids,
            config=MonitorConfig(epochs=1), journal=journal,
        )
        runner = SupervisedEpochRunner(
            monitor, chaos=("kill", 5), heartbeat_timeout_s=10.0
        )
        runner.run_epoch(0)
        journal.close()
        assert runner.restarts == 1
        assert gc.get_freeze_count() == 0
        assert monitor.export_history_bytes() == expected

    def test_worker_killed_after_its_last_observation_is_not_rerun(
        self, app_ids, tmp_path
    ):
        # The epoch is complete on disk when the worker dies; the
        # restarted worker resumes past it and has nothing to replay.
        expected = self.reference_history(app_ids, tmp_path)
        world = build_world()
        journal = MonitorJournal(tmp_path / "mon")
        monitor = AppMonitor(
            world, make_crawler(world), app_ids,
            config=MonitorConfig(epochs=1), journal=journal,
        )
        runner = SupervisedEpochRunner(
            monitor, chaos=("kill", len(app_ids)), heartbeat_timeout_s=10.0
        )
        runner.run_epoch(0)
        journal.close()
        assert runner.restarts == 1
        assert runner.inline_fallbacks == 0
        assert monitor.export_history_bytes() == expected

    def test_hung_worker_reaped_by_heartbeat_deadline(
        self, app_ids, tmp_path
    ):
        expected = self.reference_history(app_ids, tmp_path)
        world = build_world()
        journal = MonitorJournal(tmp_path / "mon")
        monitor = AppMonitor(
            world, make_crawler(world), app_ids,
            config=MonitorConfig(epochs=1), journal=journal,
        )
        runner = SupervisedEpochRunner(
            monitor, chaos=("hang", 3), heartbeat_timeout_s=0.5
        )
        runner.run_epoch(0)
        journal.close()
        assert runner.heartbeat_gaps == 1
        assert runner.restarts == 1
        assert monitor.export_history_bytes() == expected

    def test_exhausted_restart_budget_falls_back_inline(
        self, app_ids, tmp_path, monkeypatch
    ):
        expected = self.reference_history(app_ids, tmp_path)
        world = build_world()
        journal = MonitorJournal(tmp_path / "mon")
        monitor = AppMonitor(
            world, make_crawler(world), app_ids,
            config=MonitorConfig(epochs=1), journal=journal,
        )
        runner = SupervisedEpochRunner(
            monitor, chaos=("kill", 2), heartbeat_timeout_s=10.0,
            max_restarts=0,
        )
        # With zero restarts the one (killed) incarnation exhausts the
        # budget and the epoch must finish inline, unconditionally.
        runner.run_epoch(0)
        journal.close()
        assert runner.inline_fallbacks == 1
        assert gc.get_freeze_count() == 0
        assert monitor.export_history_bytes() == expected

    def test_raising_worker_restarts_and_stays_byte_identical(
        self, app_ids, tmp_path, monkeypatch, caplog
    ):
        expected = self.reference_history(app_ids, tmp_path)
        world = build_world()
        journal = MonitorJournal(tmp_path / "mon")
        monitor = AppMonitor(
            world, make_crawler(world), app_ids,
            config=MonitorConfig(epochs=1), journal=journal,
        )
        # The first worker raises after its third durable observation;
        # the marker file (forked workers share no memory) lets the
        # restarted worker run clean.
        marker = tmp_path / "raised"
        real_run_epoch = AppMonitor.run_epoch

        def run_epoch_raising_once(self, epoch, heartbeat=None):
            def beat(app_id, fresh):
                heartbeat(app_id, fresh)
                if fresh == 3 and not marker.exists():
                    marker.touch()
                    raise RuntimeError("injected epoch failure")

            return real_run_epoch(self, epoch, heartbeat=beat)

        monkeypatch.setattr(AppMonitor, "run_epoch", run_epoch_raising_once)
        runner = SupervisedEpochRunner(monitor, heartbeat_timeout_s=10.0)
        with caplog.at_level("WARNING", logger="repro.crawler.monitor"):
            runner.run_epoch(0)
        journal.close()
        assert marker.exists()
        assert "injected epoch failure" in caplog.text
        assert runner.restarts == 1
        assert runner.inline_fallbacks == 0
        assert monitor.export_history_bytes() == expected

    def test_nonpositive_heartbeat_timeout_is_rejected(
        self, app_ids, tmp_path
    ):
        world = build_world()
        journal = MonitorJournal(tmp_path / "mon")
        monitor = AppMonitor(
            world, make_crawler(world), app_ids[:5],
            config=MonitorConfig(epochs=1), journal=journal,
        )
        journal.close()
        for timeout in (0.0, -1.0):
            with pytest.raises(ValueError, match="heartbeat_timeout_s"):
                SupervisedEpochRunner(monitor, heartbeat_timeout_s=timeout)

    def test_chaos_env_parsing(self, monkeypatch):
        from repro.crawler.monitor import MONITOR_CHAOS_ENV, _chaos_from_env

        monkeypatch.setenv(MONITOR_CHAOS_ENV, "kill:7")
        assert _chaos_from_env() == ("kill", 7)
        monkeypatch.setenv(MONITOR_CHAOS_ENV, "hang:0")
        assert _chaos_from_env() == ("hang", 0)
        monkeypatch.setenv(MONITOR_CHAOS_ENV, "explode:1")
        with pytest.raises(ValueError):
            _chaos_from_env()
        monkeypatch.delenv(MONITOR_CHAOS_ENV)
        assert _chaos_from_env() is None


class TestMonitorCli:
    ARGS = [
        "--scale", "0.01", "monitor", "--epochs", "2",
        "--forensics", "--lifecycle",
    ]

    def test_run_without_checkpoint_journals_to_a_temporary_directory(
        self, tmp_path, capsys, monkeypatch
    ):
        """No --checkpoint still journals: the same report, forked
        supervised workers, and a history for --store to ingest."""
        import sqlite3

        from repro.cli import main

        assert main(["--checkpoint", str(tmp_path / "mon"), *self.ARGS]) == 0
        checkpointed = capsys.readouterr().out
        assert "durable observations" in checkpointed
        assert " 0 durable observations" not in checkpointed

        runners: list[SupervisedEpochRunner] = []
        original = SupervisedEpochRunner.__init__

        def init(runner, *args, **kwargs):
            original(runner, *args, **kwargs)
            runners.append(runner)

        monkeypatch.setattr(SupervisedEpochRunner, "__init__", init)
        store = tmp_path / "store.sqlite"
        assert main(
            ["--store", str(store), *self.ARGS, "--supervised"]
        ) == 0
        assert capsys.readouterr().out == checkpointed
        [runner] = runners
        assert runner.inline_fallbacks == 0
        observations = int(
            checkpointed.split("history:")[1].split()[0]
        )
        with sqlite3.connect(store) as db:
            [(rows,)] = db.execute("SELECT COUNT(*) FROM observations")
        assert rows == observations

    def test_v2_history_refused_with_one_error_line(self, tmp_path, capsys):
        from repro.cli import main

        directory = tmp_path / "mon"
        directory.mkdir()
        (directory / MonitorJournal.JOURNAL_NAME).write_bytes(encode_line({
            "v": 2, "app_id": "a", "epoch": 0, "assessment": None,
            "record": {"app_id": "a", "summary_ok": True}, "events": [],
        }))
        assert main([
            "--checkpoint", str(directory), "--resume", *self.ARGS
        ]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("repro: error:")
        assert "v2" in err[0] and "v4" in err[0]
