"""The durable-log module: the line codec, the scan and its four readers.

The scan is pure, so its property tests need no filesystem: any
truncation and any single-byte corruption of a log must leave every
original line in exactly one place, and the survivors must re-scan to
themselves.  One parametrised test then drives the four readers built
on the scan (crawl journal, monitor journal, trace ingest, monitor
history ingest) through the case a crash cannot produce: a corrupt
complete line before a torn tail.  Last comes the journal's header,
the configuration fingerprint on its first line.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.crawler.checkpoint import CrawlJournal
from repro.crawler.monitor import MonitorJournal
from repro.durable import (
    ConfigMismatchError,
    decode_line,
    encode_line,
    scan,
)
from repro.store import AnalyticsStore, ingest_monitor_history, ingest_trace


@st.composite
def damaged_logs(draw):
    """``(payloads, lines, damaged bytes, corrupted offset, cut offset)``."""
    n = draw(st.integers(0, 6))
    payloads = [
        {"app_id": f"app-{i}", "n": draw(st.integers()),
         "text": draw(st.text(max_size=6))}
        for i in range(n)
    ]
    lines = [encode_line(p) for p in payloads]
    raw = bytearray(b"".join(lines))
    corrupt = None
    if raw and draw(st.booleans()):
        corrupt = draw(st.integers(0, len(raw) - 1))
        raw[corrupt] ^= draw(st.integers(1, 255))
    cut = draw(st.integers(0, len(raw))) if draw(st.booleans()) else len(raw)
    return payloads, lines, bytes(raw[:cut]), corrupt, cut


def _spans(lines: list[bytes]) -> list[tuple[int, int]]:
    spans, start = [], 0
    for line in lines:
        spans.append((start, start + len(line)))
        start += len(line)
    return spans


@given(damaged_logs())
@settings(deadline=None, max_examples=300)
def test_every_line_ends_up_in_exactly_one_place(log):
    payloads, lines, damaged, corrupt, cut = log
    good, bad, torn = scan(damaged, decode_line)
    survivors = [line for line, _ in good]
    spans = _spans(lines)
    present = [i for i, (start, _) in enumerate(spans) if start < cut]

    def intact(i: int) -> bool:
        start, end = spans[i]
        # the previous line's newline delimits this line too
        return end <= cut and (corrupt is None or not start - 1 <= corrupt < end)

    # Every intact line survives byte-identically with its payload, in order.
    assert good == [
        (lines[i][:-1], payloads[i]) for i in present if intact(i)
    ]
    # Every complete piece of the damaged file is in exactly one place.
    pieces = damaged.split(b"\n")
    tail = pieces.pop()
    dropped = [] if tail or not torn else pieces[-1:]
    assert sorted(survivors + bad + dropped) == sorted(pieces)
    assert all(decode_line(line) is None for line in bad)
    # Torn: an unterminated tail, else a complete final line that fails.
    assert torn == bool(
        tail or (pieces and decode_line(pieces[-1]) is None)
    )
    newline_hit = corrupt is not None and corrupt < cut and (
        damaged[corrupt] == 0x0A or corrupt in {end - 1 for _, end in spans}
    )
    if newline_hit:
        return  # a split or merged line has no single image to follow
    for i in present:
        if intact(i):
            assert lines[i][:-1] not in bad
            continue
        start, end = spans[i]
        image = damaged[start:min(end, cut)].removesuffix(b"\n")
        final_and_torn = i == present[-1] and torn
        assert (image in bad) != final_and_torn, (i, image)
        assert image not in survivors


@given(damaged_logs())
@settings(deadline=None, max_examples=150)
def test_survivors_rescan_to_themselves(log):
    _payloads, _lines, damaged, _corrupt, _cut = log
    good, _bad, _torn = scan(damaged, decode_line)
    clean = b"".join(line + b"\n" for line, _ in good)
    assert scan(clean, decode_line) == (good, [], False)


def test_only_the_unterminated_tail_is_torn():
    good, bad = encode_line({"app_id": "a"}), b"0" * 64 + b"\t{}\n"
    tail = encode_line({"app_id": "c"})[:20]
    assert scan(good + bad + tail, decode_line) == (
        [(good[:-1], {"app_id": "a"})], [bad[:-1]], True
    )
    # Without the tail the complete final line is the torn one.
    assert scan(good + bad, decode_line) == (
        [(good[:-1], {"app_id": "a"})], [], True
    )


# -- the four readers: a corrupt complete line before a torn tail ------------


def _entry(app_id: str) -> dict:
    return {
        "v": 4, "app_id": app_id, "epoch": 0,
        "record": {"app_id": app_id, "summary_ok": True},
        "events": [], "state": {"epoch": 1},
    }


def _crawl_entry(app_id: str) -> dict:
    return {
        "v": 3, "call": 0, "app_id": app_id,
        "record": {"app_id": app_id, "summary_ok": True},
    }


def _checksummed(name: str, entry=_entry):
    good = encode_line(entry("a"))
    bad = encode_line(entry("b")).replace(b"summary_ok", b"summary_OK")
    return name, good, bad, encode_line(entry("c"))[:40]


def _plain(name: str):
    good = json.dumps({"category": "crawl", "key": "a", "name": "x"}).encode()
    return name, good + b"\n", b'{"category":"crawl","key":\n', b'{"cat'


def _open_crawl_journal(directory: Path, store):
    """Open, then write once (a start line): the write repairs first."""
    with CrawlJournal(directory) as journal:
        journal.begin({})
    written = encode_line({"v": 3, "call": 0, "state": {}})
    return journal.quarantined, journal.truncated_torn_line, written


def _open_monitor_journal(directory: Path, store):
    """Open, then write once (a plan line): the write repairs first."""
    with MonitorJournal(directory) as journal:
        journal.append_plan(1, [], {"epoch": 1})
    written = encode_line({
        "v": 4, "app_id": MonitorJournal.PLAN_SENTINEL, "epoch": 1,
        "plan": [], "state": {"epoch": 1},
    })
    return journal.quarantined, journal.truncated_torn_line, written


def _ingest_trace(directory: Path, store):
    result = ingest_trace(store, directory / "trace.jsonl")
    return result.quarantined, result.torn, b""


def _ingest_monitor_history(directory: Path, store):
    result = ingest_monitor_history(store, directory)
    return result.quarantined, result.torn, b""


@pytest.mark.parametrize(
    ("reader", "lines", "rewrites"),
    [
        (_open_crawl_journal,
         _checksummed(CrawlJournal.JOURNAL_NAME, _crawl_entry), True),
        (_open_monitor_journal, _checksummed(MonitorJournal.JOURNAL_NAME),
         True),
        (_ingest_trace, _plain("trace.jsonl"), False),
        (_ingest_monitor_history, _checksummed(MonitorJournal.JOURNAL_NAME),
         False),
    ],
    ids=["crawl-journal", "monitor-journal", "ingest-trace",
         "ingest-monitor-history"],
)
def test_corrupt_line_before_torn_tail_is_quarantined(
    tmp_path, reader, lines, rewrites
):
    name, good, bad, tail = lines
    directory = tmp_path / "log"
    directory.mkdir()
    path = directory / name
    damaged = good + bad + tail
    path.write_bytes(damaged)
    with AnalyticsStore(tmp_path / "s.sqlite") as store:
        quarantined, torn, written = reader(directory, store)
    assert quarantined == 1
    assert torn
    # A journal's first write moves the damage to a sidecar before it
    # appends; the store only reads.
    if rewrites:
        assert path.with_name(name + ".corrupt").read_bytes() == bad
        assert path.read_bytes() == good + written
    else:
        assert [p.name for p in directory.iterdir()] == [name]
        assert path.read_bytes() == damaged


# -- the header: the configuration fingerprint on the first line ----------------


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in directory.iterdir()}


@pytest.mark.parametrize(
    "kind", [CrawlJournal, MonitorJournal], ids=["crawl", "monitor"]
)
def test_the_header_is_the_first_write_and_must_lead(tmp_path, kind):
    """A fresh directory gets one header line and nothing beside it; a
    mismatch, or lines with no header before them, are refused untouched."""
    with kind(tmp_path) as journal:
        journal.check_fingerprint({"seed": 1})
        journal.check_fingerprint({"seed": 1})  # a match writes nothing
    header = encode_line({"v": kind.FORMAT_VERSION, "fingerprint": {"seed": 1}})
    assert _files(tmp_path) == {kind.JOURNAL_NAME: header}
    with kind(tmp_path) as reopened:
        assert reopened.quarantined == 0  # the header is not an entry
        with pytest.raises(ConfigMismatchError, match="different configuration"):
            reopened.check_fingerprint({"seed": 2})
    assert _files(tmp_path) == {kind.JOURNAL_NAME: header}

    line = encode_line(_crawl_entry("a") if kind is CrawlJournal else _entry("a"))
    headless = {kind.JOURNAL_NAME: line + encode_line({"v": 0})[:20]}
    (tmp_path / kind.JOURNAL_NAME).write_bytes(headless[kind.JOURNAL_NAME])
    with kind(tmp_path) as journal:
        with pytest.raises(ConfigMismatchError, match="no intact configuration"):
            journal.check_fingerprint({"seed": 1})
    assert _files(tmp_path) == headless


def test_a_fingerprint_from_another_build_is_named_as_such(tmp_path):
    """Other fields where sections nest mean another build; a leaf key
    that follows a setting (blackout windows) is a settings change."""
    plan = {"fault_rate": 0.2, "seed": 1}
    with CrawlJournal(tmp_path) as journal:
        journal.check_fingerprint({"crawler": {"seed": 1, "fault_plan": plan}})
    windows = dict(plan, blackout_windows=[[0.0, 60.0]])
    journal = CrawlJournal(tmp_path)
    with pytest.raises(ConfigMismatchError, match="different configuration"):
        journal.check_fingerprint(
            {"crawler": {"seed": 1, "fault_plan": windows}}
        )
    with pytest.raises(ConfigMismatchError, match="another build") as excinfo:
        journal.check_fingerprint({
            "crawler": {"seed": 1, "transport": "X", "fault_plan": plan},
        })
    journal.close()
    assert "original settings" not in str(excinfo.value)
