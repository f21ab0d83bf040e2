"""The analytics store: schema, idempotent ingestion, queries, report.

The contracts under test (see :mod:`repro.store.db`):

* every ingest is stamped with the schema version current at write time;
* re-offering an already-ingested artifact changes **zero file bytes**;
* two fresh stores built by the same ingest sequence are byte-identical
  files;
* torn/corrupt inputs are absorbed the way the crawl WAL absorbs its
  journal (final line truncated, interior lines quarantined to a
  ``.corrupt`` sidecar);
* ``ServiceReport.snapshot()`` JSON-round-trips and rebuilds
  :meth:`summary` byte-for-byte;
* the stored-data queries agree with the in-process tallies, and
  ``repro report --paper-only`` is byte-identical to the
  ``repro experiments`` stdout it was fed from.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.config import ScaleConfig
from repro.core.pipeline import FrappePipeline
from repro.durable import encode_line
from repro.service import (
    LoadProfile,
    estimate_capacity_rps,
    generate_requests,
    make_service,
)
from repro.service.service import ServiceReport
from repro.store import (
    SCHEMA_VERSION,
    AnalyticsStore,
    StoreSink,
    appnet_evolution,
    campaign_timeline,
    census,
    ingest_incidents,
    ingest_metrics_text,
    ingest_monitor_history,
    ingest_service_report,
    ingest_trace,
    ingest_trace_text,
    render_paper_tables,
    rung_mix,
    slo_burndown,
    version_mix,
)
from repro.store.db import StoreSchemaError

from tests.conftest import TEST_SCALE, TEST_SEED

TRACE_TEXT = (
    json.dumps({
        "category": "crawl", "key": "app1", "name": "crawl_app",
        "t_start": 0.0, "t_end": 2.0, "attrs": {"attempts": 2},
        "events": [{"name": "fault", "t": 0.5, "attrs": {"kind": "t"}}],
        "children": [{
            "category": "crawl", "key": "app1.fetch", "name": "fetch",
            "t_start": 0.5, "t_end": 1.5, "attrs": {},
            "events": [], "children": [],
        }],
    }, sort_keys=True)
    + "\n"
    + json.dumps({
        "category": "serve", "key": "r0", "name": "score",
        "t_start": 3.0, "t_end": 4.0, "attrs": {},
        "events": [], "children": [],
    }, sort_keys=True)
    + "\n"
)

METRICS_TEXT = (
    json.dumps({"type": "counter", "name": "requests_total",
                "labels": {}, "value": 7.0}, sort_keys=True)
    + "\n"
    + json.dumps({"type": "histogram", "name": "latency_s", "labels": {},
                  "sum": 3.5, "count": 4, "edges": [1.0, 2.0],
                  "counts": [3, 1, 0]}, sort_keys=True)
    + "\n"
)


def file_sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def service_run():
    """A private faulted serve run with a bad canary (so incidents exist)."""
    from repro.cli import _build_canary_rollout

    result = FrappePipeline(
        ScaleConfig(scale=TEST_SCALE, master_seed=TEST_SEED, fault_rate=0.2)
    ).run(sweep_unlabelled=False)
    service = make_service(result)
    service.rollout = _build_canary_rollout(service, "bad")
    capacity = estimate_capacity_rps(result.world.schedule)
    profile = LoadProfile(
        n_requests=200, rate_rps=capacity * 2.0,
        interactive_fraction=0.7, pool_size=60, seed=TEST_SEED,
    )
    report = service.serve(
        generate_requests(sorted(result.bundle.d_sample), profile)
    )
    return report, list(service.rollout.incidents)


# -- schema and stamping ------------------------------------------------------


class TestSchema:
    def test_schema_version_stamped_on_store_and_ingests(self, tmp_path):
        with AnalyticsStore(tmp_path / "s.sqlite") as store:
            assert store.schema_version() == SCHEMA_VERSION
            ingest_trace_text(store, TRACE_TEXT, label="t")
            rows = store.query("SELECT kind, schema_version FROM ingests")
            assert rows == [("trace", SCHEMA_VERSION)]
            assert census(store)[0].schema_version == SCHEMA_VERSION

    def test_newer_schema_era_is_refused(self, tmp_path):
        path = tmp_path / "s.sqlite"
        with AnalyticsStore(path) as store:
            with store.transaction() as con:
                con.execute(
                    "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                    (str(SCHEMA_VERSION + 1),),
                )
        with pytest.raises(StoreSchemaError):
            AnalyticsStore(path)

    def test_readonly_requires_existing_store(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            AnalyticsStore(tmp_path / "missing.sqlite", readonly=True)

    def test_non_store_file_is_refused(self, tmp_path):
        path = tmp_path / "bogus.sqlite"
        path.write_bytes(b"")
        with pytest.raises(StoreSchemaError):
            AnalyticsStore(path, readonly=True)


# -- trace and metrics ingestion ---------------------------------------------


class TestTraceIngest:
    def test_nested_spans_are_flattened_preorder(self, tmp_path):
        with AnalyticsStore(tmp_path / "s.sqlite") as store:
            result = ingest_trace_text(store, TRACE_TEXT, label="t")
            assert result.rows == 3 and not result.skipped
            spans = store.query(
                "SELECT ord, root_ord, parent_ord, depth, key FROM spans "
                "ORDER BY ord"
            )
            assert spans == [
                (0, 0, None, 0, "app1"),
                (1, 0, 0, 1, "app1.fetch"),
                (2, 2, None, 0, "r0"),
            ]
            events = store.query(
                "SELECT span_ord, name, t FROM span_events"
            )
            assert events == [(0, "fault", 0.5)]

    def test_metrics_ingest_keeps_histograms(self, tmp_path):
        with AnalyticsStore(tmp_path / "s.sqlite") as store:
            result = ingest_metrics_text(store, METRICS_TEXT, label="m")
            assert result.rows == 2
            rows = store.query(
                "SELECT type, name, value, sum, count, edges FROM metrics "
                "ORDER BY ord"
            )
            assert rows[0] == ("counter", "requests_total", 7.0,
                               None, None, None)
            assert rows[1][:2] == ("histogram", "latency_s")
            assert json.loads(rows[1][5]) == [1.0, 2.0]

    def test_store_sink_flush_matches_file_export(self, tmp_path):
        """The sink persists the same bytes --trace would export, so a
        later file ingest of that export is recognised as a duplicate."""
        sink = StoreSink()
        with sink.tracer.span("crawl_app", category="crawl", key="a"):
            sink.count("x_total")
        trace_file = tmp_path / "trace.jsonl"
        trace_file.write_text(sink.tracer.to_jsonl())
        with AnalyticsStore(tmp_path / "s.sqlite") as store:
            results = sink.flush(store, label="run")
            assert results and not any(r.skipped for r in results)
            again = ingest_trace(store, trace_file)
            assert again.skipped


# -- idempotency and determinism ---------------------------------------------


class TestIdempotency:
    def test_reingest_changes_zero_file_bytes(self, tmp_path):
        path = tmp_path / "s.sqlite"
        trace_file = tmp_path / "trace.jsonl"
        trace_file.write_text(TRACE_TEXT)
        with AnalyticsStore(path) as store:
            ingest_trace(store, trace_file)
        before = file_sha(path)
        with AnalyticsStore(path) as store:
            result = ingest_trace(store, trace_file)
            assert result.skipped
        assert file_sha(path) == before

    def test_fresh_builds_are_byte_identical(self, tmp_path):
        shas = []
        for name in ("a.sqlite", "b.sqlite"):
            with AnalyticsStore(tmp_path / name) as store:
                ingest_trace_text(store, TRACE_TEXT, label="t")
                ingest_metrics_text(store, METRICS_TEXT, label="m")
            shas.append(file_sha(tmp_path / name))
        assert shas[0] == shas[1]

    def test_same_content_different_kind_is_not_a_duplicate(self, tmp_path):
        with AnalyticsStore(tmp_path / "s.sqlite") as store:
            ingest_trace_text(store, TRACE_TEXT, label="t")
            # metrics ingest of different text: both land
            result = ingest_metrics_text(store, METRICS_TEXT, label="m")
            assert not result.skipped
            assert [r.kind for r in census(store)] == ["trace", "metrics"]


# -- torn and corrupt inputs --------------------------------------------------


class TestCorruptInputs:
    def test_torn_final_line_is_truncated(self, tmp_path):
        trace_file = tmp_path / "trace.jsonl"
        trace_file.write_bytes(
            TRACE_TEXT.encode() + b'{"category":"crawl","key":"to'
        )
        with AnalyticsStore(tmp_path / "s.sqlite") as store:
            result = ingest_trace(store, trace_file)
            assert result.torn and not result.quarantined
            assert result.rows == 3  # the survivors only
            # the torn file hashes like the clean one: re-ingest of the
            # repaired export is a no-op
            clean = tmp_path / "clean.jsonl"
            clean.write_text(TRACE_TEXT)
            assert ingest_trace(store, clean).skipped

    def test_interior_corruption_is_quarantined_to_sidecar(self, tmp_path):
        lines = TRACE_TEXT.splitlines()
        trace_file = tmp_path / "trace.jsonl"
        trace_file.write_text(
            lines[0] + "\n" + "NOT JSON \x00garbage\n" + lines[1] + "\n"
        )
        with AnalyticsStore(tmp_path / "s.sqlite") as store:
            result = ingest_trace(store, trace_file)
            assert result.quarantined == 1 and not result.torn
            assert result.rows == 3
            sidecar = tmp_path / "trace.jsonl.corrupt"
            assert sidecar.read_text() == "NOT JSON \x00garbage\n"
            # input file itself is never rewritten
            assert "garbage" in trace_file.read_text()


# -- serve snapshots ----------------------------------------------------------


class TestServeSnapshots:
    def test_snapshot_json_round_trips_summary_bytes(self, service_run):
        report, _ = service_run
        snapshot = json.loads(json.dumps(report.snapshot()))
        rebuilt = ServiceReport.from_snapshot(snapshot)
        assert rebuilt.summary() == report.summary()
        assert rebuilt.outcome_counts() == report.outcome_counts()
        assert rebuilt.rung_counts() == report.rung_counts()

    def test_embedded_incidents_hash_like_the_inprocess_sink(
        self, tmp_path, service_run
    ):
        """A --snapshot-out file (incidents embedded) must dedup against
        the in-process ingest of the same run."""
        report, incidents = service_run
        snapshot = report.snapshot()
        snapshot["incidents"] = [inc.jsonable() for inc in incidents]
        with AnalyticsStore(tmp_path / "s.sqlite") as store:
            first = ingest_service_report(
                store, report.snapshot(), label="live", incidents=incidents
            )
            assert not first.skipped
            # simulate `repro ingest --serve-snapshot`: dict from the file
            again = ingest_service_report(
                store, json.loads(json.dumps(snapshot)), label="file"
            )
            assert again.skipped and again.ingest_id == first.ingest_id

    def test_queries_agree_with_inprocess_tallies(
        self, tmp_path, service_run
    ):
        report, incidents = service_run
        with AnalyticsStore(tmp_path / "s.sqlite") as store:
            ingest_service_report(
                store, report.snapshot(), label="run", incidents=incidents
            )
            outcome = report.outcome_counts()
            burndown = slo_burndown(store)
            assert sum(w.requests for w in burndown) == len(report.responses)
            assert sum(w.served for w in burndown) == outcome.get("served", 0)
            assert all(
                w.violations == w.requests - w.served for w in burndown
            )
            # cumulative budget burn is monotone
            spent = [w.budget_spent for w in burndown]
            assert spent == sorted(spent)

            mix = rung_mix(store)
            rungs: dict[str, int] = {}
            for window in mix:
                for rung, count in window.rungs.items():
                    rungs[rung] = rungs.get(rung, 0) + count
            assert rungs == report.rung_counts()

            versions = version_mix(store)
            assert sum(
                count for v in versions for count in v.outcomes.values()
            ) == len(report.responses)
            stored_incidents = store.query(
                "SELECT canary_version, restored_version "
                "FROM rollout_incidents ORDER BY ord"
            )
            assert len(stored_incidents) == len(incidents)

    def test_incident_file_ingest(self, tmp_path, service_run):
        _, incidents = service_run
        assert incidents, "bad canary must have tripped the health gate"
        path = tmp_path / "incidents.jsonl"
        path.write_text("".join(
            json.dumps(inc.jsonable(), sort_keys=True) + "\n"
            for inc in incidents
        ))
        with AnalyticsStore(tmp_path / "s.sqlite") as store:
            result = ingest_incidents(store, path)
            assert result.rows == len(incidents)
            assert ingest_incidents(store, path).skipped


# -- monitor histories --------------------------------------------------------


def write_monitor_journal(directory: Path, entries: list[dict]) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "monitor.jsonl"
    with open(path, "wb") as handle:
        for entry in entries:
            handle.write(encode_line(entry))
    return path


def observation(epoch: int, app_id: str, alive: bool,
                events: list[dict] | None = None) -> dict:
    return {
        "v": 1, "app_id": app_id, "epoch": epoch,
        "record": {"app_id": app_id, "summary_ok": alive},
        "assessment": None, "events": events or [], "state": {},
    }


class TestMonitorIngest:
    def test_history_ingest_and_evolution_queries(self, tmp_path):
        journal = [
            {"v": 1, "app_id": "__plan__", "epoch": 0,
             "plan": ["a", "b"], "state": {}},
            observation(0, "a", True),
            observation(0, "b", True),
            observation(1, "a", True, events=[
                {"epoch": 1, "app_id": "a", "kind": "permission_change",
                 "detail": "+publish_stream"},
            ]),
            observation(1, "b", False, events=[
                {"epoch": 1, "app_id": "b", "kind": "deletion", "detail": ""},
            ]),
        ]
        write_monitor_journal(tmp_path / "mon", journal)
        with AnalyticsStore(tmp_path / "s.sqlite") as store:
            result = ingest_monitor_history(store, tmp_path / "mon")
            assert result.rows == 4  # the plan entry is not an observation

            evolution = appnet_evolution(store)
            assert [(e.epoch, e.observed, e.alive, e.deleted_cumulative)
                    for e in evolution] == [(0, 2, 2, 0), (1, 2, 1, 1)]
            assert evolution[1].events == {
                "deletion": 1, "permission_change": 1,
            }
            timeline = campaign_timeline(store)
            assert [(r.epoch, r.kind, r.count, r.apps)
                    for r in timeline] == [
                (1, "deletion", 1, ("b",)),
                (1, "permission_change", 1, ("a",)),
            ]
            assert ingest_monitor_history(store, tmp_path / "mon").skipped

    def test_corrupt_interior_journal_line_is_quarantined(self, tmp_path):
        path = write_monitor_journal(tmp_path / "mon", [
            observation(0, "a", True),
            observation(0, "b", True),
        ])
        raw = path.read_bytes().split(b"\n")
        raw[0] = b"0" * 64 + b"\t{\"checksum\": \"mismatch\"}"
        path.write_bytes(b"\n".join(raw))
        with AnalyticsStore(tmp_path / "s.sqlite") as store:
            result = ingest_monitor_history(store, tmp_path / "mon")
            assert result.quarantined == 1 and result.rows == 1
            assert (tmp_path / "mon" / "monitor.jsonl.corrupt").exists()


# -- the paper tables, from store --------------------------------------------


class TestReport:
    def test_paper_tables_from_store_are_byte_identical(
        self, tmp_path, capsys
    ):
        """repro experiments --store, then repro report --paper-only:
        the from-store rendering is the in-process stdout, byte for byte."""
        from repro import cli

        path = tmp_path / "s.sqlite"
        assert cli.main([
            "--scale", str(TEST_SCALE), "--seed", str(TEST_SEED),
            "--store", str(path), "experiments",
        ]) == 0
        inprocess = capsys.readouterr().out
        assert cli.main(["--store", str(path), "report", "--paper-only"]) == 0
        assert capsys.readouterr().out == inprocess
        with AnalyticsStore(path, readonly=True) as store:
            assert render_paper_tables(store) == inprocess

    def test_full_report_renders_all_ingested_sections(
        self, tmp_path, service_run
    ):
        from repro.store import render_report

        report, incidents = service_run
        write_monitor_journal(tmp_path / "mon", [
            observation(0, "a", True),
            observation(1, "a", False, events=[
                {"epoch": 1, "app_id": "a", "kind": "deletion", "detail": ""},
            ]),
        ])
        with AnalyticsStore(tmp_path / "s.sqlite") as store:
            ingest_service_report(
                store, report.snapshot(), label="serve", incidents=incidents
            )
            ingest_monitor_history(store, tmp_path / "mon")
            text = render_report(store)
            for heading in (
                "== store census ==",
                "== SLO burn-down",
                "== degradation-rung mix",
                "== model-version served/rung mix ==",
                "== rollout incidents ==",
                "== AppNet evolution (per monitoring epoch) ==",
                "== campaign timeline (forensic events) ==",
            ):
                assert heading in text
            assert f"schema_version: {SCHEMA_VERSION}" in text
