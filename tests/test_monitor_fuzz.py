"""Crash-point fuzzer for both journals: the monitor's and the crawl's.

A monitor control run writes a 3-epoch history at fault_rate=0.2 with
two blackout windows and forensics + lifecycle on (the
``TestKillAnywhereResume`` campaign); a crawl control run crawls the
same world's D-Sample in two ``crawl_many`` calls on one crawler, as
the pipeline's D-Sample crawl and sweep do.  Each case damages a
control journal at one byte — truncating the file there, as a crash
mid-append does, or flipping the byte, as a bad disk does — and
resumes the run in a fresh world from nothing but the damaged
directory.  Whatever was lost is re-crawled.  The resumed monitor
history holds the control's entries (keyed by ``(epoch, app_id)``,
crawler state aside), and the exported dataset and the schedule are
byte-identical; the resumed crawl returns the control's records and
leaves the control's journal lines, keyed by call and app.  Line 0 is
the header, the configuration fingerprint: a cut there resumes like
any other, while a flipped byte leaves nothing to prove which
configuration wrote the rest, so the resume is refused with
:class:`~repro.durable.ConfigMismatchError` and the directory is left
untouched.

The structured cases pin the damage that needs the replay of a
durable prefix: a hole inside an early epoch or call (the re-crawl
lands after later lines), a lost end-of-run state line, and a lost
crawl start line.  A checksum-valid line that the replay contradicts
raises :class:`~repro.durable.ReplayError` in both journals.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.crawler.checkpoint import CrawlJournal, record_to_jsonable
from repro.crawler.crawler import make_crawler
from repro.crawler.monitor import AppMonitor, MonitorConfig, MonitorJournal
from repro.durable import (
    ConfigMismatchError,
    ReplayError,
    canonical,
    decode_line,
    encode_line,
)

from tests.test_monitor import app_ids, build_world  # noqa: F401 - fixture

OVERRIDES = {"fault_rate": 0.2, "blackouts": 2}
CONFIG = MonitorConfig(epochs=3, stride_days=7, forensics=True, lifecycle=True)
#: crawl_many calls of the crawl control (apps dealt round-robin)
CRAWL_CALLS = 2


def fresh(app_ids, directory: Path) -> AppMonitor:
    world = build_world(**OVERRIDES)
    return AppMonitor(
        world, make_crawler(world), app_ids, config=CONFIG,
        journal=MonitorJournal(directory),
    )


def keyed(entries: list[dict]) -> dict:
    """Entries by ``(epoch, app_id)``, without the state and version."""
    return {
        (e["epoch"], e["app_id"]): {
            k: v for k, v in e.items() if k not in ("state", "v")
        }
        for e in entries
    }


def crawl(app_ids, directory: Path) -> bytes:
    """The crawl control's calls in a fresh world; canonical records."""
    world = build_world(**OVERRIDES)
    crawler = make_crawler(world)
    records = {}
    with CrawlJournal(directory) as journal:
        for call in range(CRAWL_CALLS):
            records.update(crawler.crawl_many(
                app_ids[call::CRAWL_CALLS], journal=journal
            ))
    return canonical({
        app_id: record_to_jsonable(records[app_id]) for app_id in records
    })


def crawl_lines(directory: Path) -> dict:
    """A crawl journal's lines keyed by ``(call, app_id)``.

    A start line's app is None, and so are both of the header's keys.
    """
    raw = (directory / CrawlJournal.JOURNAL_NAME).read_bytes()
    payloads = [decode_line(piece) for piece in raw.splitlines()]
    return {(p.get("call"), p.get("app_id")): p for p in payloads}


@pytest.fixture(scope="module")
def control(app_ids, tmp_path_factory):
    directory = tmp_path_factory.mktemp("monitor-fuzz")
    monitor = fresh(app_ids, directory / "control")
    monitor.run()
    monitor.journal.close()
    raw = (directory / "control" / MonitorJournal.JOURNAL_NAME).read_bytes()
    return {
        "journal": MonitorJournal.JOURNAL_NAME,
        "raw": raw,
        "lines": raw.splitlines(keepends=True),
        "entries": keyed(monitor.journal.entries),
        "dataset": monitor.export_dataset_bytes(),
        "schedule": monitor.scheduler.snapshot(),
        "workdir": directory,
    }


@pytest.fixture(scope="module")
def crawl_control(app_ids, tmp_path_factory):
    directory = tmp_path_factory.mktemp("crawl-fuzz")
    records = crawl(app_ids, directory / "control")
    raw = (directory / "control" / CrawlJournal.JOURNAL_NAME).read_bytes()
    return {
        "journal": CrawlJournal.JOURNAL_NAME,
        "raw": raw,
        "lines": raw.splitlines(keepends=True),
        "records": records,
        "keyed": crawl_lines(directory / "control"),
        "workdir": directory,
    }


def damage(control, line: int, offset: int, flip: int | None) -> bytes:
    """The control journal cut at, or with one byte flipped at, a point."""
    lines = control["lines"]
    at = sum(len(piece) for piece in lines[:line]) + offset
    raw = bytearray(control["raw"])
    if flip is None:
        return bytes(raw[:at])
    raw[at] ^= flip
    return bytes(raw)


@contextmanager
def damaged_directory(control, raw: bytes):
    """A scratch directory holding only *raw* as the control's journal."""
    directory = Path(tempfile.mkdtemp(dir=control["workdir"]))
    (directory / control["journal"]).write_bytes(raw)
    try:
        yield directory
    finally:
        shutil.rmtree(directory, ignore_errors=True)


@contextmanager
def resumed(app_ids, control, raw: bytes):
    """A fresh-world monitor over a directory holding only *raw*."""
    with damaged_directory(control, raw) as directory:
        monitor = fresh(app_ids, directory)
        try:
            yield monitor
        finally:
            monitor.journal.close()


def resume_and_check(app_ids, control, raw: bytes) -> None:
    with resumed(app_ids, control, raw) as monitor:
        monitor.run()
        assert monitor.export_dataset_bytes() == control["dataset"]
        assert monitor.scheduler.snapshot() == control["schedule"]
        assert keyed(monitor.journal.entries) == control["entries"]


def resume_crawl_and_check(app_ids, control, raw: bytes) -> None:
    with damaged_directory(control, raw) as directory:
        assert crawl(app_ids, directory) == control["records"]
        assert crawl_lines(directory) == control["keyed"]


#: per journal: (resume and check, start a resume over a directory)
CHECKS = {
    "monitor": (resume_and_check, fresh),
    "crawl": (resume_crawl_and_check, crawl),
}


@pytest.fixture(scope="module", params=list(CHECKS))
def journal_case(request):
    """``(control, resume-and-check, start)`` of one journal."""
    name = "control" if request.param == "monitor" else "crawl_control"
    return (request.getfixturevalue(name), *CHECKS[request.param])


@given(
    line=st.integers(min_value=0),
    offset=st.integers(min_value=0),
    flip=st.none() | st.integers(1, 255),
)
@example(line=0, offset=40, flip=None)  # a cut inside the header
@example(line=0, offset=70, flip=0x20)  # a flipped byte in the header
@settings(deadline=None, max_examples=20)
def test_any_cut_or_flipped_byte_resumes_to_the_control(
    app_ids, journal_case, line, offset, flip
):
    control, check, start = journal_case
    lines = control["lines"]
    line %= len(lines)
    offset %= len(lines[line])
    raw = damage(control, line, offset, flip)
    if line > 0 or flip is None:
        check(app_ids, control, raw)
        return
    with damaged_directory(control, raw) as directory:
        with pytest.raises(ConfigMismatchError, match="no intact"):
            start(app_ids, directory)
        assert [p.name for p in directory.iterdir()] == [control["journal"]]
        assert (directory / control["journal"]).read_bytes() == raw


def _line_roles(control) -> dict[str, int]:
    """Line indexes by role in the control journal."""
    payloads = [
        json.loads(piece.split(b"\t", 1)[1]) for piece in control["lines"]
    ]
    plans = [
        i for i, p in enumerate(payloads) if p.get("app_id") == "__plan__"
    ]
    assert len(plans) == CONFIG.epochs
    return {
        # an interior observation of epoch 0: its re-crawl is appended
        # after epochs 1 and 2, and must not become the latest record
        "epoch0-interior": plans[0] + 3,
        # epoch 1's plan line: the epoch's plan and start state are lost
        "epoch1-plan": plans[1],
        # the end-of-epoch-1 state line
        "epoch1-end": plans[2] - 1,
        # the run's last line, which carries the final state
        "final-state": len(payloads) - 1,
        "last-epoch-interior": (plans[2] + len(payloads)) // 2,
    }


@pytest.mark.parametrize(
    "role",
    ["epoch0-interior", "epoch1-plan", "epoch1-end", "final-state",
     "last-epoch-interior"],
)
@pytest.mark.parametrize("flip", [None, 0x20], ids=["cut", "flip"])
def test_structured_damage_resumes_to_the_control(app_ids, control, role, flip):
    line = _line_roles(control)[role]
    offset = len(control["lines"][line]) // 2
    resume_and_check(app_ids, control, damage(control, line, offset, flip))


def test_a_replay_that_disagrees_with_its_line_raises(app_ids, control):
    """A checksum-valid line that the deterministic re-run contradicts is
    not silently overwritten: the resume raises a typed error."""
    roles = _line_roles(control)
    line = roles["last-epoch-interior"]
    payload = json.loads(control["lines"][line].split(b"\t", 1)[1])
    payload["record"]["name"] = "tampered"
    # Keep the tampered line, drop everything after it: the resume
    # replays the last epoch from its plan line through that line.
    raw = b"".join(control["lines"][:line]) + encode_line(payload)
    with resumed(app_ids, control, raw) as monitor:
        with pytest.raises(ReplayError, match="durable line"):
            monitor.run()


def _crawl_line_roles(control) -> dict[str, int]:
    """Line indexes by role in the crawl control journal."""
    calls = [  # the header, line 0, counts as call -1
        json.loads(piece.split(b"\t", 1)[1]).get("call", -1)
        for piece in control["lines"]
    ]
    starts = [calls.index(call) for call in range(CRAWL_CALLS)]
    assert starts == [1, calls.index(1)] and calls == sorted(calls)
    return {
        # the first call's start state: the re-run writes it afresh
        "call0-start": starts[0],
        # an app of the first call: re-crawled in place, appended last
        "call0-interior": starts[0] + 3,
        # the second call's start state, after the first call's apps
        "call1-start": starts[1],
        "call1-interior": (starts[1] + len(calls)) // 2,
    }


@pytest.mark.parametrize(
    "role", ["call0-start", "call0-interior", "call1-start", "call1-interior"]
)
@pytest.mark.parametrize("flip", [None, 0x20], ids=["cut", "flip"])
def test_structured_crawl_damage_resumes_to_the_control(
    app_ids, crawl_control, role, flip
):
    line = _crawl_line_roles(crawl_control)[role]
    offset = len(crawl_control["lines"][line]) // 2
    resume_crawl_and_check(
        app_ids, crawl_control, damage(crawl_control, line, offset, flip)
    )


def test_a_crawl_replay_that_disagrees_with_its_line_raises(
    app_ids, crawl_control
):
    """A checksum-valid crawl line the re-crawl contradicts raises too."""
    line = _crawl_line_roles(crawl_control)["call0-interior"]
    lines = list(crawl_control["lines"])
    payload = json.loads(lines[line].split(b"\t", 1)[1])
    payload["record"]["name"] = "tampered"
    lines[line] = encode_line(payload)
    with damaged_directory(crawl_control, b"".join(lines)) as directory:
        with pytest.raises(ReplayError, match="durable line"):
            crawl(app_ids, directory)
