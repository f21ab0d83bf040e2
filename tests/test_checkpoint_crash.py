"""Crash-injection tests: the kill-anywhere resume invariant.

The contract under test (see :mod:`repro.crawler.checkpoint`): interrupt
a checkpointed crawl at *any* point — every :class:`CrashPlan` injection
site, including the torn-write window mid-append, and a real SIGKILL of
the CLI process — then resume with the same configuration, and the final
records (and the exported dataset) are byte-identical to an
uninterrupted run.  With checkpointing disabled the pipeline must be
bit-identical to a journal-less build.

Set ``REPRO_CHAOS_DIR`` to keep the journals of failing tests for
post-mortem (CI uploads them as artifacts).
"""

from __future__ import annotations

import errno
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.config import ScaleConfig
from repro.core.pipeline import FrappePipeline
from repro.crawler.checkpoint import (
    CRASH_POINTS,
    MID_APPEND,
    CrashPlan,
    CrawlJournal,
    SimulatedCrash,
    record_to_jsonable,
)
from repro.crawler.crawler import make_crawler
from repro.crawler.datasets import DatasetBuilder
from repro.ecosystem.simulation import run_simulation
from repro.io import export_dataset
from repro.mypagekeeper.classifier import UrlClassifier
from repro.mypagekeeper.monitor import MyPageKeeper

from tests.conftest import TEST_SCALE, TEST_SEED

FAULT_RATE = 0.2
#: apps under the kill-anywhere sweep (keeps the point × index grid fast)
N_APPS = 8

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def faulted_world():
    return run_simulation(
        ScaleConfig(scale=TEST_SCALE, master_seed=TEST_SEED, fault_rate=FAULT_RATE)
    )


@pytest.fixture(scope="module")
def sample(faulted_world):
    report = MyPageKeeper(
        UrlClassifier(faulted_world.services.blacklist), faulted_world.post_log
    ).scan()
    bundle = DatasetBuilder(faulted_world, report).build(crawl=False)
    return sorted(bundle.d_sample)


@pytest.fixture(scope="module")
def baseline(faulted_world, sample):
    """(apps, canonical bytes) of an uninterrupted crawl of N_APPS apps."""
    apps = sample[:N_APPS]
    state = faulted_world.installer.rng_state()
    records = make_crawler(faulted_world).crawl_many(apps)
    faulted_world.installer.restore_rng_state(state)
    return apps, _canon(records)


@pytest.fixture()
def pristine_world(faulted_world):
    state = faulted_world.installer.rng_state()
    yield faulted_world
    faulted_world.installer.restore_rng_state(state)


@pytest.fixture()
def chaos_dir(tmp_path, request):
    """Journal home: a kept directory under $REPRO_CHAOS_DIR, else tmp.

    Pointing the journals at a persistent directory lets CI upload the
    journal + ``.corrupt`` sidecars of a failed chaos test as artifacts.
    """
    base = os.environ.get("REPRO_CHAOS_DIR")
    if not base:
        return tmp_path
    safe = re.sub(r"[^\w.-]+", "_", request.node.name)
    path = Path(base) / safe
    path.mkdir(parents=True, exist_ok=True)
    return path


def _canon(records) -> bytes:
    return json.dumps(
        {a: record_to_jsonable(r) for a, r in sorted(records.items())},
        sort_keys=True,
    ).encode()


# -- kill-anywhere, every injection point -----------------------------------


@pytest.mark.parametrize("point", CRASH_POINTS)
@pytest.mark.parametrize("app_index", [0, N_APPS // 2, N_APPS - 1])
def test_crash_anywhere_then_resume_is_byte_identical(
    chaos_dir, pristine_world, baseline, point, app_index
):
    apps, expected = baseline
    plan = CrashPlan(app_index=app_index, point=point)
    journal = CrawlJournal(chaos_dir)
    with pytest.raises(SimulatedCrash):
        make_crawler(pristine_world).crawl_many(
            apps, journal=journal, crash_plan=plan
        )
    journal.close()
    assert plan.fired

    # 'reboot': fresh journal object, fresh crawler, same configuration
    resumed_journal = CrawlJournal(chaos_dir)
    if point == MID_APPEND:
        assert resumed_journal.truncated_torn_line
    resumed = make_crawler(pristine_world).crawl_many(
        apps, journal=resumed_journal
    )
    resumed_journal.close()
    assert _canon(resumed) == expected


def test_random_crash_plan_resumes(chaos_dir, pristine_world, baseline):
    apps, expected = baseline
    plan = CrashPlan.random(seed=TEST_SEED, n_apps=len(apps))
    journal = CrawlJournal(chaos_dir)
    with pytest.raises(SimulatedCrash):
        make_crawler(pristine_world).crawl_many(
            apps, journal=journal, crash_plan=plan
        )
    journal.close()
    resumed_journal = CrawlJournal(chaos_dir)
    resumed = make_crawler(pristine_world).crawl_many(apps, journal=resumed_journal)
    resumed_journal.close()
    assert _canon(resumed) == expected


def test_double_crash_then_resume(chaos_dir, pristine_world, baseline):
    """Two successive incarnations die before one finally finishes."""
    apps, expected = baseline
    for plan in (
        CrashPlan(app_index=1, point=MID_APPEND),
        CrashPlan(app_index=2, point="after_crawl"),
    ):
        journal = CrawlJournal(chaos_dir)
        with pytest.raises(SimulatedCrash):
            make_crawler(pristine_world).crawl_many(
                apps, journal=journal, crash_plan=plan
            )
        journal.close()
    final_journal = CrawlJournal(chaos_dir)
    resumed = make_crawler(pristine_world).crawl_many(apps, journal=final_journal)
    final_journal.close()
    assert _canon(resumed) == expected


# -- pipeline-level byte identity -------------------------------------------


def _pipeline_config(**kw) -> ScaleConfig:
    return ScaleConfig(
        scale=TEST_SCALE, master_seed=TEST_SEED, fault_rate=FAULT_RATE, **kw
    )


def test_pipeline_checkpointing_disabled_is_bit_identical(tmp_path):
    """checkpoint_dir=None must not perturb the study in any way."""
    plain = FrappePipeline(_pipeline_config()).run(sweep_unlabelled=False)
    export_dataset(plain, tmp_path / "plain.json")
    ckpt = FrappePipeline(
        _pipeline_config(checkpoint_dir=str(tmp_path / "ck"))
    ).run(sweep_unlabelled=False)
    export_dataset(ckpt, tmp_path / "ckpt.json")
    plain_bytes = (tmp_path / "plain.json").read_bytes()
    assert (tmp_path / "ckpt.json").read_bytes() == plain_bytes


def test_pipeline_crash_resume_export_byte_identical(chaos_dir, tmp_path):
    """Kill a checkpointed pipeline mid-crawl; the resumed export matches."""
    plain = FrappePipeline(_pipeline_config()).run(sweep_unlabelled=False)
    export_dataset(plain, tmp_path / "plain.json")
    plain_bytes = (tmp_path / "plain.json").read_bytes()

    config = _pipeline_config(checkpoint_dir=str(chaos_dir), resume=True)
    world = run_simulation(config)
    report = MyPageKeeper(
        UrlClassifier(world.services.blacklist), world.post_log
    ).scan()
    bundle = DatasetBuilder(world, report).build(crawl=False)
    journal = CrawlJournal(chaos_dir)
    with pytest.raises(SimulatedCrash):
        make_crawler(world).crawl_many(
            bundle.d_sample,
            journal=journal,
            crash_plan=CrashPlan(app_index=5, point=MID_APPEND),
        )
    journal.close()

    resumed = FrappePipeline(config).run(sweep_unlabelled=False)
    export_dataset(resumed, tmp_path / "resumed.json")
    assert (tmp_path / "resumed.json").read_bytes() == plain_bytes


# -- a real SIGKILL of the CLI ----------------------------------------------


def _run_crawl_cli(checkpoint: Path, resume: bool = False):
    argv = [
        sys.executable, "-m", "repro",
        "--scale", str(TEST_SCALE), "--seed", str(TEST_SEED),
        "--fault-rate", str(FAULT_RATE),
        "--checkpoint", str(checkpoint),
    ]
    if resume:
        argv.append("--resume")
    argv.append("crawl")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.Popen(
        argv,
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )


def test_cli_survives_kill_dash_nine(chaos_dir, tmp_path):
    """SIGKILL the crawl CLI at a random-ish time; resume; compare stdout.

    Replay progress goes to stderr precisely so that stdout stays
    byte-comparable between a resumed and an uninterrupted run.
    """
    # the reference: an uninterrupted checkpointed run, timed
    start = time.monotonic()
    reference = _run_crawl_cli(tmp_path / "reference")
    ref_stdout, _ = reference.communicate(timeout=600)
    duration = time.monotonic() - start
    assert reference.returncode == 0

    # the victim: same run, SIGKILLed mid-crawl (~60% through)
    victim = _run_crawl_cli(chaos_dir)
    time.sleep(max(0.2, duration * 0.6))
    victim.kill()
    victim.communicate()
    assert victim.returncode != 0

    # resume to completion; stdout must match the uninterrupted run
    resumed = _run_crawl_cli(chaos_dir, resume=True)
    resumed_stdout, _ = resumed.communicate(timeout=600)
    assert resumed.returncode == 0
    assert resumed_stdout == ref_stdout


# -- simulated disk-full (ENOSPC) -------------------------------------------


class _DiskFullHandle:
    """A file-handle proxy whose Nth write fills the disk mid-line.

    Models ENOSPC the way it actually bites an appender: part of the
    line makes it to the page cache, then the write fails — leaving the
    same torn-final-line artifact as a power cut mid-append.
    """

    def __init__(self, fh, fail_at_write: int) -> None:
        self._fh = fh
        self._fail_at = fail_at_write
        self._writes = 0

    def write(self, data: bytes) -> int:
        self._writes += 1
        if self._writes == self._fail_at:
            self._fh.write(data[: max(1, len(data) // 3)])
            self._fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")
        return self._fh.write(data)

    def flush(self) -> None:
        self._fh.flush()

    def fileno(self) -> int:
        return self._fh.fileno()

    def close(self) -> None:
        self._fh.close()


def test_enospc_mid_append_resumes_byte_identical(
    chaos_dir, pristine_world, baseline
):
    """Disk fills mid-append: the torn entry is absorbed on resume, the
    resumed crawl is byte-identical, and no retry budget or fault draw
    is double-counted for the app whose durability write died."""
    apps, expected = baseline

    # Uninterrupted reference for the no-double-counted-budget check.
    state = pristine_world.installer.rng_state()
    reference = make_crawler(pristine_world)
    reference.crawl_many(apps)
    pristine_world.installer.restore_rng_state(state)
    expected_stats = reference.stats.snapshot()

    journal = CrawlJournal(chaos_dir)
    # Disk fills while appending the third app's journal line (the
    # first writes are the header and the call's start line).  The
    # append handle opens lazily, at the first write, so open it here
    # to wrap it.
    journal._fh = _DiskFullHandle(journal._handle(), fail_at_write=5)
    with pytest.raises(OSError) as excinfo:
        make_crawler(pristine_world).crawl_many(apps, journal=journal)
    assert excinfo.value.errno == errno.ENOSPC
    journal.close()

    # 'reboot' after the operator frees space: the torn line is the
    # expected crash artifact — truncated, not quarantined, not fatal.
    resumed_journal = CrawlJournal(chaos_dir)
    assert resumed_journal.truncated_torn_line
    assert len(resumed_journal) == 2  # exactly the durable prefix
    crawler = make_crawler(pristine_world)
    resumed = crawler.crawl_many(apps, journal=resumed_journal)
    resumed_journal.close()
    assert _canon(resumed) == expected
    # The app with the torn line was re-crawled exactly once: total
    # requests and injected-fault draws match the uninterrupted run.
    assert crawler.stats.snapshot() == expected_stats


def test_enospc_on_monitor_journal_resumes_byte_identical(tmp_path):
    """The monitor's history store absorbs a disk-full append the same
    way: torn entry truncated on reopen, resumed history byte-identical."""
    from repro.crawler.monitor import AppMonitor, MonitorConfig, MonitorJournal

    config = ScaleConfig(
        scale=TEST_SCALE, master_seed=TEST_SEED, fault_rate=FAULT_RATE
    )

    def fresh(directory):
        world = run_simulation(config)
        report = MyPageKeeper(
            UrlClassifier(world.services.blacklist), world.post_log
        ).scan()
        apps = sorted(
            DatasetBuilder(world, report).build(crawl=False).d_sample
        )[:N_APPS]
        return AppMonitor(
            world, make_crawler(world), apps,
            config=MonitorConfig(epochs=1),
            journal=MonitorJournal(directory),
        )

    monitor = fresh(tmp_path / "ref")
    monitor.run()
    expected = monitor.export_history_bytes()
    monitor.journal.close()

    monitor = fresh(tmp_path / "mon")
    monitor.journal._fh = _DiskFullHandle(
        monitor.journal._handle(), fail_at_write=4
    )
    with pytest.raises(OSError) as excinfo:
        monitor.run()
    assert excinfo.value.errno == errno.ENOSPC
    monitor.journal.close()

    monitor = fresh(tmp_path / "mon")
    assert monitor.journal.truncated_torn_line
    monitor.run()
    assert monitor.export_history_bytes() == expected
    monitor.journal.close()
