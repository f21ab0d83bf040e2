"""Unit tests for the crash-safe checkpoint layer.

Covers the pieces in isolation: atomic writes, the journal's append /
load round-trip, the corruption policy (torn final line silently
truncated, checksum-mismatched interior line quarantined and re-crawled),
snapshot compaction, the configuration fingerprint, and CrashPlan
mechanics.  The kill-anywhere resume invariant lives in
``test_checkpoint_crash.py``.
"""

from __future__ import annotations

import json
import logging

import pytest

from repro.config import ScaleConfig
from repro.crawler.checkpoint import (
    CRASH_POINTS,
    CrashPlan,
    CrawlJournal,
    SimulatedCrash,
    record_from_jsonable,
    record_to_jsonable,
)
from repro.crawler.crawler import make_crawler
from repro.crawler.datasets import DatasetBuilder
from repro.durable import atomic_write, next_sidecar_path
from repro.ecosystem.simulation import run_simulation
from repro.mypagekeeper.classifier import UrlClassifier
from repro.mypagekeeper.monitor import MyPageKeeper

from tests.conftest import TEST_SCALE, TEST_SEED

FAULT_RATE = 0.2


@pytest.fixture(scope="module")
def faulted_world():
    """A small world whose crawls go through the fault-injecting transport."""
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


@pytest.fixture()
def pristine_world(faulted_world):
    """The module world with its installer RNG restored after each test.

    Crawling draws from the installer's client-ID-rotation stream, the
    one piece of world state a crawl mutates; restoring it keeps every
    test's crawl deterministic regardless of execution order.
    """
    state = faulted_world.installer.rng_state()
    yield faulted_world
    faulted_world.installer.restore_rng_state(state)


def _crawl(world, apps, journal=None, crash_plan=None):
    return make_crawler(world).crawl_many(
        apps, journal=journal, crash_plan=crash_plan
    )


def _canon(records) -> bytes:
    """Byte-comparable image of a record dict."""
    return json.dumps(
        {a: record_to_jsonable(r) for a, r in sorted(records.items())},
        sort_keys=True,
    ).encode()


# -- atomic_write -----------------------------------------------------------


def test_atomic_write_creates_and_replaces(tmp_path):
    target = tmp_path / "data.json"
    atomic_write(target, '{"v": 1}')
    assert target.read_text() == '{"v": 1}'
    atomic_write(target, b'{"v": 2}')
    assert target.read_bytes() == b'{"v": 2}'
    # no half-written temporaries survive a successful write
    assert list(tmp_path.glob("*.tmp")) == []


def test_journal_sweeps_stale_tmp_files(tmp_path):
    (tmp_path / "snapshot.json.abc123.tmp").write_bytes(b"half-written")
    with CrawlJournal(tmp_path):
        pass
    assert list(tmp_path.glob("*.tmp")) == []


# -- record round-trip ------------------------------------------------------


def test_record_jsonable_roundtrip(pristine_world, sample):
    records = _crawl(pristine_world, sample[:4])
    for app_id, record in records.items():
        clone = record_from_jsonable(record_to_jsonable(record))
        assert record_to_jsonable(clone) == record_to_jsonable(record)
        # outcomes come back in crawl order, not canonical-JSON order
        assert list(clone.outcomes) == list(record.outcomes)
        assert clone.app_id == app_id


# -- journal append / load --------------------------------------------------


def test_journal_roundtrip(tmp_path, pristine_world, sample):
    apps = sample[:6]
    with CrawlJournal(tmp_path) as journal:
        records = _crawl(pristine_world, apps, journal=journal)
        assert len(journal) == len(apps)
        assert all(a in journal for a in apps)
    reopened = CrawlJournal(tmp_path)
    assert _canon(reopened.records) == _canon(records)
    assert reopened.state is not None
    reopened.close()


def test_journal_refuses_existing_without_resume(tmp_path, pristine_world, sample):
    with CrawlJournal(tmp_path) as journal:
        _crawl(pristine_world, sample[:2], journal=journal)
    with pytest.raises(FileExistsError, match="--resume"):
        CrawlJournal(tmp_path, resume=False)


def test_fresh_directory_allowed_without_resume(tmp_path):
    journal = CrawlJournal(tmp_path / "new", resume=False)
    assert len(journal) == 0
    journal.close()


# -- corruption policy ------------------------------------------------------


def test_torn_final_line_silently_truncated(tmp_path, pristine_world, sample):
    apps = sample[:4]
    with CrawlJournal(tmp_path) as journal:
        _crawl(pristine_world, apps, journal=journal)
    path = tmp_path / "journal.jsonl"
    raw = path.read_bytes()
    # tear the last line: drop its trailing newline and final third
    torn = raw[: len(raw) - len(raw.splitlines(keepends=True)[-1]) // 3 - 1]
    path.write_bytes(torn)

    reopened = CrawlJournal(tmp_path)
    assert reopened.truncated_torn_line
    assert len(reopened) == len(apps) - 1
    assert reopened.quarantined == ()  # silent: a torn tail is expected
    assert not (tmp_path / "journal.jsonl.corrupt").exists()
    # the journal was rewritten clean: a second open sees no damage
    reopened.close()
    again = CrawlJournal(tmp_path)
    assert not again.truncated_torn_line
    assert len(again) == len(apps) - 1
    again.close()


def test_interior_corruption_quarantined(
    tmp_path, pristine_world, sample, caplog
):
    apps = sample[:5]
    with CrawlJournal(tmp_path) as journal:
        _crawl(pristine_world, apps, journal=journal)
    path = tmp_path / "journal.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    victim = json.loads(lines[2].split(b"\t", 1)[1])["app_id"]
    # flip one payload byte (past the app_id field, so the quarantine
    # can still name the victim): the checksum no longer matches
    mid = len(lines[2]) // 2
    lines[2] = lines[2][:mid] + b"X" + lines[2][mid + 1:]
    path.write_bytes(b"".join(lines))

    with caplog.at_level(logging.WARNING, logger="repro.crawler.checkpoint"):
        reopened = CrawlJournal(tmp_path)
    assert len(reopened) == len(apps) - 1
    assert victim not in reopened
    assert victim in reopened.quarantined
    sidecar = tmp_path / "journal.jsonl.corrupt"
    assert sidecar.exists() and sidecar.stat().st_size > 0
    assert any("quarantined" in r.message for r in caplog.records)
    # resuming re-crawls the quarantined app instead of crashing
    resumed = _crawl(pristine_world, apps, journal=reopened)
    assert sorted(resumed) == apps
    reopened.close()


def test_next_sidecar_path_counts_up(tmp_path):
    target = tmp_path / "journal.jsonl"
    first = next_sidecar_path(target)
    assert first == tmp_path / "journal.jsonl.corrupt"
    first.write_bytes(b"evidence one\n")
    second = next_sidecar_path(target)
    assert second == tmp_path / "journal.jsonl.corrupt.1"
    second.write_bytes(b"evidence two\n")
    assert next_sidecar_path(target) == tmp_path / "journal.jsonl.corrupt.2"


def _corrupt_interior_line(path, index=1):
    """Flip a byte in the middle of journal line *index*; return its app."""
    lines = path.read_bytes().splitlines(keepends=True)
    victim = json.loads(lines[index].split(b"\t", 1)[1])["app_id"]
    mid = len(lines[index]) // 2
    lines[index] = lines[index][:mid] + b"X" + lines[index][mid + 1:]
    path.write_bytes(b"".join(lines))
    return victim


def test_repeated_quarantine_never_overwrites_a_sidecar(
    tmp_path, pristine_world, sample
):
    """Interrupt-and-resume twice: both ``.corrupt`` sidecars survive.

    The first quarantine takes the plain ``.corrupt`` name; a second
    corruption event on a later resume must go to ``.corrupt.1`` —
    overwriting (or appending to) the first sidecar would destroy or
    interleave the evidence of the earlier corruption.
    """
    apps = sample[:6]
    with CrawlJournal(tmp_path) as journal:
        _crawl(pristine_world, apps, journal=journal)
    path = tmp_path / "journal.jsonl"

    first_victim = _corrupt_interior_line(path, index=1)
    reopened = CrawlJournal(tmp_path)
    first_sidecar = tmp_path / "journal.jsonl.corrupt"
    assert first_sidecar.exists()
    evidence = first_sidecar.read_bytes()
    # resume: re-crawl the quarantined app, making the journal whole again
    _crawl(pristine_world, apps, journal=reopened)
    reopened.close()

    second_victim = _corrupt_interior_line(path, index=2)
    again = CrawlJournal(tmp_path)
    second_sidecar = tmp_path / "journal.jsonl.corrupt.1"
    assert second_sidecar.exists(), "second quarantine must get a new name"
    # the first sidecar is untouched, byte for byte
    assert first_sidecar.read_bytes() == evidence
    assert second_sidecar.read_bytes() != evidence
    assert first_victim not in again.quarantined  # it was re-crawled
    assert second_victim in again.quarantined
    again.close()


def test_corrupt_snapshot_quarantined(tmp_path, pristine_world, sample, caplog):
    apps = sample[:4]
    with CrawlJournal(tmp_path, snapshot_every=2) as journal:
        _crawl(pristine_world, apps, journal=journal)
    snapshot = tmp_path / "snapshot.json"
    assert snapshot.exists()
    snapshot.write_text(snapshot.read_text()[:-20])  # truncate mid-document

    with caplog.at_level(logging.WARNING, logger="repro.crawler.checkpoint"):
        reopened = CrawlJournal(tmp_path)
    assert (tmp_path / "snapshot.json.corrupt").exists()
    assert not snapshot.exists()
    # the snapshot's apps fall back to not-durable and get re-crawled
    resumed = _crawl(pristine_world, apps, journal=reopened)
    assert sorted(resumed) == apps
    reopened.close()


# -- compaction -------------------------------------------------------------


def test_compaction_preserves_resume(tmp_path, pristine_world, sample):
    apps = sample[:7]
    plain = _crawl(pristine_world, apps)
    with CrawlJournal(tmp_path, snapshot_every=3) as journal:
        journaled = _crawl(pristine_world, apps, journal=journal)
    assert (tmp_path / "snapshot.json").exists()
    # the journal holds only the appends since the last compaction
    journal_lines = (tmp_path / "journal.jsonl").read_bytes().count(b"\n")
    assert journal_lines == len(apps) % 3
    reopened = CrawlJournal(tmp_path, snapshot_every=3)
    assert _canon(reopened.records) == _canon(journaled) == _canon(plain)
    reopened.close()


# -- configuration fingerprint ----------------------------------------------


def test_fingerprint_mismatch_refused(tmp_path, pristine_world, sample):
    with CrawlJournal(tmp_path) as journal:
        _crawl(pristine_world, sample[:2], journal=journal)
    other_world = run_simulation(
        ScaleConfig(scale=TEST_SCALE, master_seed=TEST_SEED + 1, fault_rate=FAULT_RATE)
    )
    journal = CrawlJournal(tmp_path)
    with pytest.raises(ValueError, match="different configuration"):
        make_crawler(other_world).crawl_many(sample[:2], journal=journal)
    journal.close()


# -- CrashPlan --------------------------------------------------------------


def test_crash_plan_fires_once_at_its_point():
    plan = CrashPlan(app_index=1, point="after_crawl")
    plan.advance()  # app 0
    assert not plan.due("after_crawl")
    plan.check("after_crawl")  # no-op
    plan.advance()  # app 1
    assert plan.due("after_crawl")
    assert not plan.due("before_app")
    with pytest.raises(SimulatedCrash):
        plan.check("after_crawl")
    assert plan.fired
    plan.advance()
    assert not plan.due("after_crawl")  # inert after firing


def test_crash_plan_validates_inputs():
    with pytest.raises(ValueError, match="unknown crash point"):
        CrashPlan(app_index=0, point="during_lunch")
    with pytest.raises(ValueError, match="app_index"):
        CrashPlan(app_index=-1)


def test_crash_plan_random_is_seeded():
    a = CrashPlan.random(seed=99, n_apps=20)
    b = CrashPlan.random(seed=99, n_apps=20)
    assert (a.app_index, a.point) == (b.app_index, b.point)
    assert 0 <= a.app_index < 20
    assert a.point in CRASH_POINTS


def test_simulated_crash_not_caught_by_except_exception():
    with pytest.raises(SimulatedCrash):
        try:
            raise SimulatedCrash("die")
        except Exception:  # noqa: BLE001 - the point of the test
            pytest.fail("SimulatedCrash must not be swallowed as Exception")
