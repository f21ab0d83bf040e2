"""Sinks and ingesters: everything that writes the analytics store.

One artifact = one **ingest** = one atomic sqlite transaction, keyed by
the sha256 of its cleaned content.  Re-offering an artifact the store
already holds is detected before any write begins and changes zero
bytes — ingestion is idempotent by construction, so crash-and-rerun
loops (the operational norm) can re-offer everything blindly.

JSONL inputs are read under the :mod:`repro.durable` torn-tail and
corruption policy, with one rule of the store's own: inputs are
read-only.  Damaged lines are quarantined to a sidecar next to the
input, but the input itself is never rewritten; the content hash is
computed over the survivors, so re-ingesting a repaired input is still
a no-op.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.crawler.monitor import MonitorJournal
from repro.durable import quarantine, scan
from repro.obs.observer import TracingObserver
from repro.store.db import AnalyticsStore, canonical_json, content_sha256

__all__ = [
    "IngestResult",
    "StoreSink",
    "read_jsonl_tolerant",
    "ingest_trace",
    "ingest_trace_text",
    "ingest_metrics",
    "ingest_metrics_text",
    "ingest_experiments",
    "ingest_service_report",
    "ingest_incidents",
    "ingest_monitor_history",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class IngestResult:
    """What one ingest attempt did (``skipped`` = already durable)."""

    kind: str
    label: str
    ingest_id: int
    rows: int
    skipped: bool = False
    torn: bool = False
    quarantined: int = 0

    def describe(self) -> str:
        note = "already ingested, unchanged" if self.skipped else \
            f"{self.rows} rows"
        extras = []
        if self.torn:
            extras.append("torn final line dropped")
        if self.quarantined:
            extras.append(f"{self.quarantined} corrupt line(s) quarantined")
        tail = f" ({'; '.join(extras)})" if extras else ""
        return f"{self.kind}[{self.label}]: {note}{tail}"


# -- tolerant JSONL reading --------------------------------------------------


def _json_object(line: bytes) -> dict | None:
    try:
        payload = json.loads(line)
    except ValueError:
        return None
    return payload if isinstance(payload, dict) else None


def read_jsonl_tolerant(
    path: str | Path,
    decode: Callable[[bytes], dict | None] = _json_object,
) -> tuple[list[dict], bytes, bool, int]:
    """Read a JSONL artifact the way the crawl WAL reads its journal.

    Returns ``(rows, clean_bytes, torn, quarantined)`` where
    ``clean_bytes`` is exactly the surviving lines (the idempotency-key
    material), ``torn`` flags a dropped torn final line, and
    ``quarantined`` counts interior lines moved to a ``.corrupt``
    sidecar.  *decode* parses one line (plain JSON objects by default).
    """
    path = Path(path)
    good, bad, torn = scan(path.read_bytes(), decode)
    if bad:
        sidecar = quarantine(path, bad)
        logger.warning(
            "quarantined %d corrupt line(s) of %s to sidecar %s; "
            "ingesting the %d survivors",
            len(bad), path, sidecar, len(good),
        )
    rows = [payload for _, payload in good]
    return rows, b"".join(p + b"\n" for p, _ in good), torn, len(bad)


# -- traces ------------------------------------------------------------------


def _flatten_span(
    span: dict, rows: list[tuple], events: list[tuple],
    root_ord: int, parent_ord: int | None, depth: int,
) -> None:
    ord_ = len(rows)
    rows.append((
        ord_, root_ord, parent_ord, depth,
        str(span.get("category", "")), str(span.get("key", "")),
        str(span.get("name", "")),
        float(span.get("t_start", 0.0)), float(span.get("t_end", 0.0)),
        canonical_json(span.get("attrs", {})),
    ))
    for index, event in enumerate(span.get("events", ())):
        events.append((
            ord_, index, str(event.get("name", "")),
            float(event.get("t", 0.0)),
            canonical_json(event.get("attrs", {})),
        ))
    for child in span.get("children", ()):
        _flatten_span(child, rows, events, root_ord, ord_, depth + 1)


def ingest_trace_text(
    store: AnalyticsStore, text: str | bytes, label: str = "",
    torn: bool = False, quarantined: int = 0,
) -> IngestResult:
    """Ingest a canonical trace export (the ``Tracer.to_jsonl`` text)."""
    if isinstance(text, bytes):
        raw_lines = [ln for ln in text.split(b"\n") if ln]
        roots = [json.loads(ln) for ln in raw_lines]
        clean = b"".join(ln + b"\n" for ln in raw_lines)
    else:
        roots = [json.loads(ln) for ln in text.splitlines() if ln]
        clean = text
    sha = content_sha256(clean)
    existing = store.find_ingest("trace", sha)
    span_rows: list[tuple] = []
    event_rows: list[tuple] = []
    for root in roots:
        _flatten_span(root, span_rows, event_rows,
                      root_ord=len(span_rows), parent_ord=None, depth=0)
    if existing is not None:
        return IngestResult("trace", label, existing, len(span_rows),
                            skipped=True, torn=torn, quarantined=quarantined)
    with store.transaction() as con:
        ingest_id = store.register_ingest(
            con, "trace", label, sha, len(span_rows)
        )
        con.executemany(
            "INSERT INTO spans VALUES(?,?,?,?,?,?,?,?,?,?,?)",
            [(ingest_id, *row) for row in span_rows],
        )
        con.executemany(
            "INSERT INTO span_events VALUES(?,?,?,?,?,?)",
            [(ingest_id, *row) for row in event_rows],
        )
    return IngestResult("trace", label, ingest_id, len(span_rows),
                        torn=torn, quarantined=quarantined)


def ingest_trace(
    store: AnalyticsStore, path: str | Path, label: str | None = None
) -> IngestResult:
    """Ingest a ``--trace`` JSONL export file (torn/corrupt tolerated)."""
    _rows, clean, torn, quarantined = read_jsonl_tolerant(path)
    return ingest_trace_text(
        store, clean, label=label if label is not None else str(path),
        torn=torn, quarantined=quarantined,
    )


# -- metrics -----------------------------------------------------------------


def _metric_row(ord_: int, series: dict) -> tuple:
    histogram = series.get("type") == "histogram"
    return (
        ord_, str(series.get("type", "")), str(series.get("name", "")),
        canonical_json(series.get("labels", {})),
        None if histogram else float(series.get("value", 0.0)),
        float(series["sum"]) if histogram else None,
        int(series["count"]) if histogram else None,
        canonical_json(series["edges"]) if histogram else None,
        canonical_json(series["counts"]) if histogram else None,
    )


def ingest_metrics_text(
    store: AnalyticsStore, text: str | bytes, label: str = "",
    torn: bool = False, quarantined: int = 0,
) -> IngestResult:
    """Ingest a metrics JSONL dump (the ``MetricsRegistry.to_jsonl`` text)."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    series = [json.loads(ln) for ln in text.splitlines() if ln]
    sha = content_sha256(text)
    existing = store.find_ingest("metrics", sha)
    if existing is not None:
        return IngestResult("metrics", label, existing, len(series),
                            skipped=True, torn=torn, quarantined=quarantined)
    rows = [_metric_row(i, s) for i, s in enumerate(series)]
    with store.transaction() as con:
        ingest_id = store.register_ingest(
            con, "metrics", label, sha, len(rows)
        )
        con.executemany(
            "INSERT INTO metrics VALUES(?,?,?,?,?,?,?,?,?,?)",
            [(ingest_id, *row) for row in rows],
        )
    return IngestResult("metrics", label, ingest_id, len(rows),
                        torn=torn, quarantined=quarantined)


def ingest_metrics(
    store: AnalyticsStore, path: str | Path, label: str | None = None
) -> IngestResult:
    """Ingest a ``--metrics`` JSONL export file (torn/corrupt tolerated)."""
    _rows, clean, torn, quarantined = read_jsonl_tolerant(path)
    return ingest_metrics_text(
        store, clean, label=label if label is not None else str(path),
        torn=torn, quarantined=quarantined,
    )


# -- the Observer-compatible sink --------------------------------------------


class StoreSink(TracingObserver):
    """A :class:`TracingObserver` that can persist what it saw.

    Drop-in wherever an ``Observer`` goes (``set_observer``,
    ``observation(...)``); at the end of the run :meth:`flush` sinks
    the tracer's canonical spans/events and the metrics snapshot into
    an analytics store — the same bytes ``--trace`` / ``--metrics``
    would have exported, so a file export ingested later is recognised
    as a duplicate and skipped.
    """

    def flush(
        self, store: AnalyticsStore, label: str = ""
    ) -> list[IngestResult]:
        results = []
        trace_text = self.tracer.to_jsonl()
        if trace_text:
            results.append(ingest_trace_text(store, trace_text, label=label))
        metrics_text = self.metrics.to_jsonl()
        if metrics_text:
            results.append(
                ingest_metrics_text(store, metrics_text, label=label)
            )
        return results


# -- experiments -------------------------------------------------------------


def ingest_experiments(
    store: AnalyticsStore, reports: Iterable[Any], label: str = ""
) -> IngestResult:
    """Persist ``ExperimentReport`` results (the paper's tables/figures)."""
    payload = [
        {
            "experiment_id": report.experiment_id,
            "title": report.title,
            "notes": report.notes,
            "rows": [list(row) for row in report.rows],
        }
        for report in reports
    ]
    text = canonical_json(payload)
    sha = content_sha256(text)
    existing = store.find_ingest("experiments", sha)
    if existing is not None:
        return IngestResult("experiments", label, existing, len(payload),
                            skipped=True)
    with store.transaction() as con:
        ingest_id = store.register_ingest(
            con, "experiments", label, sha, len(payload)
        )
        con.executemany(
            "INSERT INTO experiments VALUES(?,?,?,?,?,?)",
            [
                (ingest_id, ord_, entry["experiment_id"], entry["title"],
                 entry["notes"], canonical_json(entry["rows"]))
                for ord_, entry in enumerate(payload)
            ],
        )
    return IngestResult("experiments", label, ingest_id, len(payload))


# -- verdict histories -------------------------------------------------------


def _verdict_row(ord_: int, response: dict) -> tuple:
    verdict = response.get("verdict")
    return (
        ord_, str(response["app_id"]), str(response["outcome"]),
        str(response.get("rung", "none")),
        None if verdict is None else int(bool(verdict)),
        float(response.get("risk_score", 50.0)),
        str(response.get("confidence", "none")),
        str(response.get("priority", "interactive")),
        str(response.get("cache_state", "")),
        str(response.get("reason", "")),
        float(response.get("arrival_s", 0.0)),
        float(response.get("started_s", 0.0)),
        float(response.get("finished_s", 0.0)),
        int(response.get("attempts", 0)), int(response.get("faults", 0)),
        int(response.get("batch_size", 1)),
        int(response.get("model_version", 0)),
    )


def _incident_row(ord_: int, incident: Any) -> tuple:
    if not isinstance(incident, dict):
        incident = incident.jsonable()
    return (
        ord_, float(incident["t"]), int(incident["canary_version"]),
        int(incident["restored_version"]), str(incident["reason"]),
        int(incident.get("disagreements", 0)),
        int(incident.get("canary_scored", 0)),
    )


def ingest_service_report(
    store: AnalyticsStore,
    snapshot: dict,
    label: str = "",
    incidents: Iterable[Any] | None = None,
) -> IngestResult:
    """Persist one serve run: a ``ServiceReport.snapshot()`` + incidents.

    The full snapshot is kept verbatim (so the run can be rebuilt with
    ``ServiceReport.from_snapshot`` and diffed across sessions) and the
    responses are unpacked into queryable ``verdicts`` rows.  Incidents
    default to the snapshot's own ``incidents`` key, so ingesting a
    ``--snapshot-out`` file hashes identically to the in-process sink.
    """
    if incidents is None:
        incidents = snapshot.get("incidents", ())
    incident_rows = [_incident_row(i, inc) for i, inc in enumerate(incidents)]
    body = {k: v for k, v in snapshot.items() if k != "incidents"}
    text = canonical_json(
        {"snapshot": body, "incidents": incident_rows}
    )
    sha = content_sha256(text)
    responses = snapshot.get("responses", [])
    existing = store.find_ingest("serve", sha)
    if existing is not None:
        return IngestResult("serve", label, existing, len(responses),
                            skipped=True)
    with store.transaction() as con:
        ingest_id = store.register_ingest(
            con, "serve", label, sha, len(responses)
        )
        con.execute(
            "INSERT INTO serve_runs VALUES(?,?)",
            (ingest_id, canonical_json(body)),
        )
        con.executemany(
            "INSERT INTO verdicts VALUES(?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?)",
            [(ingest_id, *_verdict_row(i, r)) for i, r in enumerate(responses)],
        )
        con.executemany(
            "INSERT INTO rollout_incidents VALUES(?,?,?,?,?,?,?,?)",
            [(ingest_id, *row) for row in incident_rows],
        )
    return IngestResult("serve", label, ingest_id, len(responses))


def ingest_incidents(
    store: AnalyticsStore, path: str | Path, label: str | None = None
) -> IngestResult:
    """Ingest a standalone rollout-incident JSONL file."""
    rows, clean, torn, quarantined = read_jsonl_tolerant(path)
    label = label if label is not None else str(path)
    sha = content_sha256(clean)
    existing = store.find_ingest("incidents", sha)
    if existing is not None:
        return IngestResult("incidents", label, existing, len(rows),
                            skipped=True, torn=torn, quarantined=quarantined)
    with store.transaction() as con:
        ingest_id = store.register_ingest(
            con, "incidents", label, sha, len(rows)
        )
        con.executemany(
            "INSERT INTO rollout_incidents VALUES(?,?,?,?,?,?,?,?)",
            [(ingest_id, *_incident_row(i, r)) for i, r in enumerate(rows)],
        )
    return IngestResult("incidents", label, ingest_id, len(rows),
                        torn=torn, quarantined=quarantined)


# -- monitor histories -------------------------------------------------------


def ingest_monitor_history(
    store: AnalyticsStore, directory: str | Path, label: str | None = None
) -> IngestResult:
    """Ingest a monitor history store (its :class:`MonitorJournal` WAL).

    Read-only: the journal is decoded with the monitor's own line
    decode but never rewritten — the monitor owns its journal; the
    analytics store only observes it.
    """
    directory = Path(directory)
    path = directory / MonitorJournal.JOURNAL_NAME
    label = label if label is not None else str(directory)
    entries, clean, torn, quarantined = (
        read_jsonl_tolerant(path, MonitorJournal.decode)
        if path.exists() else ([], b"", False, 0)
    )
    sha = content_sha256(clean)
    observation_rows: list[tuple] = []
    event_rows: list[tuple] = []
    for entry in entries:
        app_id = entry.get("app_id")
        if not isinstance(app_id, str) or app_id == MonitorJournal.PLAN_SENTINEL:
            continue
        record = entry.get("record")
        if not isinstance(record, dict):
            continue
        observation_rows.append((
            len(observation_rows), int(entry.get("epoch", 0)), app_id,
            int(bool(record.get("summary_ok"))),
            len(entry.get("events", ())), canonical_json(record),
        ))
        for event in entry.get("events", ()):
            event_rows.append((
                len(event_rows), int(event.get("epoch", 0)),
                str(event.get("app_id", app_id)),
                str(event.get("kind", "")), str(event.get("detail", "")),
            ))
    existing = store.find_ingest("monitor", sha)
    if existing is not None:
        return IngestResult("monitor", label, existing,
                            len(observation_rows), skipped=True,
                            torn=torn, quarantined=quarantined)
    with store.transaction() as con:
        ingest_id = store.register_ingest(
            con, "monitor", label, sha, len(observation_rows)
        )
        con.executemany(
            "INSERT INTO observations VALUES(?,?,?,?,?,?,?)",
            [(ingest_id, *row) for row in observation_rows],
        )
        con.executemany(
            "INSERT INTO forensic_events VALUES(?,?,?,?,?,?)",
            [(ingest_id, *row) for row in event_rows],
        )
    return IngestResult("monitor", label, ingest_id, len(observation_rows),
                        torn=torn, quarantined=quarantined)
