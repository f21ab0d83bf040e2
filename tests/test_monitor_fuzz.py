"""Crash-point fuzzer for the monitor journal.

A control run writes a 3-epoch history at fault_rate=0.2 with two
blackout windows and forensics + lifecycle on (the
``TestKillAnywhereResume`` campaign).  Each case damages that journal
at one byte — truncating the file there, as a crash mid-append does,
or flipping the byte, as a bad disk does — and resumes the campaign
in a fresh world from nothing but the damaged directory.  Whatever
was lost is re-crawled: the resumed history holds the control's
entries (keyed by ``(epoch, app_id)``, crawler state aside), and the
exported dataset and the schedule are byte-identical.

The structured cases pin the damage that needs the replay of a
durable prefix: a hole inside an early epoch (the re-crawl lands after
later epochs' lines), and a lost end-of-run state line.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.crawler.crawler import make_crawler
from repro.crawler.monitor import (
    AppMonitor,
    MonitorConfig,
    MonitorJournal,
    MonitorReplayError,
)
from repro.durable import encode_line

from tests.test_monitor import app_ids, build_world  # noqa: F401 - fixture

OVERRIDES = {"fault_rate": 0.2, "blackouts": 2}
CONFIG = MonitorConfig(epochs=3, stride_days=7, forensics=True, lifecycle=True)


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


@pytest.fixture(scope="module")
def control(app_ids, tmp_path_factory):
    directory = tmp_path_factory.mktemp("monitor-fuzz")
    monitor = fresh(app_ids, directory / "control")
    monitor.run()
    monitor.journal.close()
    raw = (directory / "control" / MonitorJournal.JOURNAL_NAME).read_bytes()
    return {
        "raw": raw,
        "lines": raw.splitlines(keepends=True),
        "entries": keyed(monitor.journal.entries),
        "dataset": monitor.export_dataset_bytes(),
        "schedule": monitor.scheduler.snapshot(),
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
def resumed(app_ids, control, raw: bytes):
    """A fresh-world monitor over a directory holding only *raw*."""
    directory = Path(tempfile.mkdtemp(dir=control["workdir"]))
    (directory / MonitorJournal.JOURNAL_NAME).write_bytes(raw)
    monitor = fresh(app_ids, directory)
    try:
        yield monitor
    finally:
        monitor.journal.close()
        shutil.rmtree(directory, ignore_errors=True)


def resume_and_check(app_ids, control, raw: bytes) -> None:
    with resumed(app_ids, control, raw) as monitor:
        monitor.run()
        assert monitor.export_dataset_bytes() == control["dataset"]
        assert monitor.scheduler.snapshot() == control["schedule"]
        assert keyed(monitor.journal.entries) == control["entries"]


@given(
    line=st.integers(min_value=0),
    offset=st.integers(min_value=0),
    flip=st.none() | st.integers(1, 255),
)
@settings(deadline=None, max_examples=20)
def test_any_cut_or_flipped_byte_resumes_to_the_control(
    app_ids, control, line, offset, flip
):
    lines = control["lines"]
    line %= len(lines)
    offset %= len(lines[line])
    resume_and_check(app_ids, control, damage(control, line, offset, flip))


def _line_roles(control) -> dict[str, int]:
    """Line indexes by role in the control journal."""
    payloads = [
        json.loads(piece.split(b"\t", 1)[1]) for piece in control["lines"]
    ]
    plans = [i for i, p in enumerate(payloads) if p["app_id"] == "__plan__"]
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
        with pytest.raises(MonitorReplayError, match="durable line"):
            monitor.run()
