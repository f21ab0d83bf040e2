"""Unit tests for the crash-safe checkpoint layer.

Covers the pieces in isolation: atomic writes, the journal's append /
load round-trip and line format, the corruption policy (torn final line
silently truncated, checksum-mismatched interior line quarantined and
re-crawled), the refusal of older formats, the configuration
fingerprint, and CrashPlan mechanics.  The kill-anywhere resume
invariant lives in ``test_checkpoint_crash.py``.
"""

from __future__ import annotations

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

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
from repro.cli import main
from repro.durable import (
    JournalVersionError,
    ReplayError,
    atomic_write,
    decode_line,
    encode_line,
    next_sidecar_path,
)
from repro.ecosystem.simulation import run_simulation
from repro.mypagekeeper.classifier import UrlClassifier
from repro.mypagekeeper.monitor import MyPageKeeper

from tests.conftest import TEST_SCALE, TEST_SEED

FAULT_RATE = 0.2
REPO_ROOT = Path(__file__).resolve().parent.parent


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


def test_journal_sweeps_stale_tmp_files(tmp_path, pristine_world, sample):
    (tmp_path / "journal.jsonl.abc123.tmp").write_bytes(b"half-written")
    with CrawlJournal(tmp_path):
        pass  # opening only reads
    assert len(list(tmp_path.glob("*.tmp"))) == 1
    with CrawlJournal(tmp_path) as journal:
        _crawl(pristine_world, sample[:1], journal=journal)  # first write
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
    raw = (tmp_path / "journal.jsonl").read_bytes()
    reopened = CrawlJournal(tmp_path)
    assert len(reopened) == len(apps)
    # a fully durable call replays every app and appends nothing
    assert _canon(_crawl(pristine_world, apps, journal=reopened)) == _canon(
        records
    )
    reopened.close()
    assert (tmp_path / "journal.jsonl").read_bytes() == raw


def _payloads(path) -> list[dict]:
    return [decode_line(piece) for piece in path.read_bytes().splitlines()]


def test_only_start_lines_carry_state(tmp_path, pristine_world, sample):
    """After the header, one start line per crawl_many call; app lines
    hold only the record."""
    crawler = make_crawler(pristine_world)
    with CrawlJournal(tmp_path) as journal:
        crawler.crawl_many(sample[:3], journal=journal)
        crawler.crawl_many(sample[3:5], journal=journal)
    assert [p.name for p in tmp_path.iterdir()] == ["journal.jsonl"]
    header, *payloads = _payloads(tmp_path / "journal.jsonl")
    assert header == {
        "v": CrawlJournal.FORMAT_VERSION,
        "fingerprint": crawler.checkpoint_fingerprint(),
    }
    starts = [p for p in payloads if "state" in p]
    assert [(p["call"], sorted(p)) for p in starts] == [
        (0, ["call", "state", "v"]), (1, ["call", "state", "v"]),
    ]
    assert payloads[0] is starts[0] and payloads[4] is starts[1]
    others = [p for p in payloads if "state" not in p]
    assert [p["app_id"] for p in others] == sample[:5]
    assert {tuple(sorted(p)) for p in others} == {
        ("app_id", "call", "record", "v")
    }
    assert {p["v"] for p in payloads} == {CrawlJournal.FORMAT_VERSION}


def test_a_tampered_durable_record_raises_on_replay(
    tmp_path, pristine_world, sample
):
    apps = sample[:4]
    with CrawlJournal(tmp_path) as journal:
        _crawl(pristine_world, apps, journal=journal)
    path = tmp_path / "journal.jsonl"
    payloads = _payloads(path)
    payloads[2]["record"]["mau_observations"] = [1, 2, 3]
    path.write_bytes(b"".join(encode_line(p) for p in payloads))
    with CrawlJournal(tmp_path) as reopened:
        with pytest.raises(ReplayError, match=payloads[2]["app_id"]):
            _crawl(pristine_world, apps, journal=reopened)


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
    assert reopened.quarantined == 0  # silent: a torn tail is expected
    assert path.read_bytes() == torn  # opening only reads
    # the first write truncates the torn line, then re-crawls its app
    _crawl(pristine_world, apps, journal=reopened)
    assert not (tmp_path / "journal.jsonl.corrupt").exists()
    assert path.read_bytes() == raw
    # the journal was rewritten clean: a second open sees no damage
    reopened.close()
    again = CrawlJournal(tmp_path)
    assert not again.truncated_torn_line
    assert len(again) == len(apps)
    again.close()


def test_interior_corruption_quarantined(
    tmp_path, pristine_world, sample, caplog
):
    apps = sample[:5]
    with CrawlJournal(tmp_path) as journal:
        control = _crawl(pristine_world, apps, journal=journal)
    path = tmp_path / "journal.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    victim = json.loads(lines[2].split(b"\t", 1)[1])["app_id"]
    # flip one payload byte (past the app_id field, so the quarantine
    # can still name the victim): the checksum no longer matches
    mid = len(lines[2]) // 2
    lines[2] = lines[2][:mid] + b"X" + lines[2][mid + 1:]
    path.write_bytes(b"".join(lines))

    with caplog.at_level(logging.WARNING, logger="repro.durable"):
        reopened = CrawlJournal(tmp_path)
        assert len(reopened) == len(apps) - 1
        assert victim not in reopened
        assert reopened.quarantined == 1
        sidecar = tmp_path / "journal.jsonl.corrupt"
        assert not sidecar.exists()  # opening only reads
        # resuming re-crawls the quarantined app in its place: the
        # records are the uninterrupted crawl's
        resumed = _crawl(pristine_world, apps, journal=reopened)
    assert _canon(resumed) == _canon(control)
    # the first write moved the victim's line to the sidecar
    assert sidecar.read_bytes() == lines[2]
    assert any("quarantined" in r.message for r in caplog.records)
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
    """Flip a byte in the middle of journal line *index*; return the line."""
    lines = path.read_bytes().splitlines(keepends=True)
    mid = len(lines[index]) // 2
    lines[index] = lines[index][:mid] + b"X" + lines[index][mid + 1:]
    path.write_bytes(b"".join(lines))
    return lines[index]


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
    # resume: re-crawl the quarantined app, making the journal whole again
    _crawl(pristine_world, apps, journal=reopened)
    reopened.close()
    first_sidecar = tmp_path / "journal.jsonl.corrupt"
    assert first_sidecar.exists()
    evidence = first_sidecar.read_bytes()

    second_victim = _corrupt_interior_line(path, index=2)
    again = CrawlJournal(tmp_path)
    _crawl(pristine_world, apps, journal=again)
    again.close()
    second_sidecar = tmp_path / "journal.jsonl.corrupt.1"
    assert second_sidecar.exists(), "second quarantine must get a new name"
    # the first sidecar is untouched, byte for byte
    assert first_sidecar.read_bytes() == evidence
    assert second_sidecar.read_bytes() != evidence
    assert evidence == first_victim  # it was re-crawled, not quarantined again
    assert second_sidecar.read_bytes() == second_victim


# -- older formats ------------------------------------------------------------


def _v1_line(app_id: str) -> bytes:
    return encode_line({
        "v": 1, "app_id": app_id, "record": {"app_id": app_id},
        "state": {"transport": {}, "breakers": {}},
    })


def test_v1_lines_refused_untouched(tmp_path):
    path = tmp_path / "journal.jsonl"
    path.write_bytes(_v1_line("a") + _v1_line("b") + b"torn")
    before = path.read_bytes()
    with pytest.raises(JournalVersionError, match="fresh history") as excinfo:
        CrawlJournal(tmp_path)
    assert str(tmp_path) in str(excinfo.value)
    assert path.read_bytes() == before  # refused, not rewritten
    assert sorted(p.name for p in tmp_path.iterdir()) == ["journal.jsonl"]


def test_leftover_snapshot_refused_untouched(tmp_path):
    snapshot = tmp_path / "snapshot.json"
    snapshot.write_text('{"payload": {}, "sha256": "0"}')
    (tmp_path / "journal.jsonl").write_bytes(_v1_line("a"))
    with pytest.raises(JournalVersionError, match="snapshot.json"):
        CrawlJournal(tmp_path)
    assert snapshot.read_text() == '{"payload": {}, "sha256": "0"}'
    assert (tmp_path / "journal.jsonl").read_bytes() == _v1_line("a")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "journal.jsonl", "snapshot.json",
    ]


def _old_directories(command: str) -> list[tuple[int, dict[str, bytes]]]:
    """``(format version, files)`` of directories older builds wrote.

    The v1 format, and the format just before the header line, which
    kept the fingerprint in a ``meta.json`` beside the journal.
    """
    name = "journal.jsonl" if command == "crawl" else "monitor.jsonl"
    meta = json.dumps(
        {"format_version": 1, "fingerprint": {"master_seed": TEST_SEED}}
    ).encode()
    if command == "crawl":
        previous, lines = 2, encode_line({"v": 2, "call": 0, "state": {}}) \
            + encode_line({"v": 2, "call": 0, "app_id": "a",
                           "record": {"app_id": "a"}})
    else:
        previous, lines = 3, encode_line({
            "v": 3, "app_id": "__plan__", "epoch": 0, "plan": ["a"],
            "state": {"epoch": 0},
        })
    return [
        (1, {name: _v1_line("a")}),
        (previous, {name: lines, "meta.json": meta}),
    ]


@pytest.mark.parametrize("command", ["crawl", "monitor"])
def test_cli_refuses_an_old_checkpoint_in_one_line(tmp_path, capsys, command):
    for version, files in _old_directories(command):
        directory = tmp_path / f"ck-v{version}"
        directory.mkdir()
        for name, data in files.items():
            (directory / name).write_bytes(data)
        code = main([
            "--scale", str(TEST_SCALE), "--seed", str(TEST_SEED),
            "--checkpoint", str(directory), "--resume", command,
        ])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("repro: error: ")] \
            == [err[-1]]
        assert str(directory) in err[-1]
        assert f"holds format v{version} lines" in err[-1]
        assert {p.name: p.read_bytes() for p in directory.iterdir()} == files


@pytest.mark.parametrize("command", ["crawl", "monitor"])
def test_cli_refuses_a_used_or_foreign_checkpoint_in_one_line(
    tmp_path, capsys, command
):
    directory = str(tmp_path / "ck")
    tail = [command] + (["--epochs", "1"] if command == "monitor" else [])

    def run(seed, *flags):
        code = main([
            "--scale", str(TEST_SCALE), "--seed", str(seed),
            "--checkpoint", directory, *flags, *tail,
        ])
        return code, capsys.readouterr().err.splitlines()

    assert run(TEST_SEED)[0] == 0
    for flags, seed, reason in (
        ((), TEST_SEED, "--resume"),  # used directory, no --resume
        (("--resume",), TEST_SEED + 1, "different configuration"),
    ):
        code, err = run(seed, *flags)
        assert code == 2
        assert [line for line in err if line.startswith("repro: error: ")] \
            == [err[-1]]
        assert directory in err[-1] and reason in err[-1]


@pytest.mark.parametrize("command", ["crawl", "monitor"])
def test_cli_leaves_a_refused_damaged_directory_untouched(tmp_path, command):
    """A damaged directory that cannot resume is refused as it is.

    An interior line flipped, resumed under another seed: the
    fingerprint check comes before the repair, so there is no sidecar,
    no rewrite, and no progress or quarantine line before the error.
    The header line flipped, resumed under the same seed: nothing shows
    which configuration wrote the directory, so it is refused too.
    """
    tail = [command] + (["--epochs", "1"] if command == "monitor" else [])
    name = "journal.jsonl" if command == "crawl" else "monitor.jsonl"

    def run(directory, seed, *flags):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        return subprocess.run(
            [sys.executable, "-m", "repro", "--scale", str(TEST_SCALE),
             "--seed", str(seed), "--checkpoint", str(directory), *flags,
             *tail],
            cwd=REPO_ROOT, env=env, capture_output=True, check=False,
        )

    for line, seed in ((2, 3), (0, 2012)):
        directory = tmp_path / f"ck-line{line}"
        assert run(directory, 2012).returncode == 0
        lines = (directory / name).read_bytes().splitlines(keepends=True)
        mid = len(lines[line]) // 2
        lines[line] = lines[line][:mid] + b"X" + lines[line][mid + 1:]
        (directory / name).write_bytes(b"".join(lines))
        before = {p.name: p.read_bytes() for p in directory.iterdir()}

        refused = run(directory, seed, "--resume")
        assert refused.returncode == 2
        err = refused.stderr.decode().splitlines()
        assert len(err) == 1 and err[0].startswith("repro: error: ")
        assert {p.name: p.read_bytes() for p in directory.iterdir()} == before


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
