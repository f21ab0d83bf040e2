"""Graceful degradation: tiers, the cascade, and watchdog confidence.

Verifies that classification falls back through
FRAppE -> FRAppE Lite -> summary-only as transient crawl failures take
collections away, that *authoritative* missingness (app removed) stays
on the full-FRAppE path, that the ``client_id_mismatch`` tri-state never
conflates "unverified" with "mismatch observed", and that the watchdog
serves a degraded crawl's verdict with degraded confidence.
"""

from __future__ import annotations

import copy

import pytest

from repro.core.features import (
    ALL_FEATURES,
    CONFIDENCE_BY_TIER,
    ON_DEMAND_FEATURES,
    SUMMARY_ONLY_FEATURES,
    TIER_FEATURES,
    classification_tier,
)
from repro.core.frappe import FrappeCascade, frappe
from repro.core.watchdog import AppWatchdog
from repro.crawler.crawler import CrawlRecord
from repro.crawler.resilience import GAVE_UP, OK, PERMANENT, CrawlOutcome
from repro.platform.transport import TransportStats


def record_with(statuses: dict[str, str], **fields) -> CrawlRecord:
    record = CrawlRecord(app_id=fields.pop("app_id", "1000000000000000"), **fields)
    for collection, status in statuses.items():
        record.outcomes[collection] = CrawlOutcome(collection, status=status)
    return record


def degraded_copy(record: CrawlRecord, *collections: str) -> CrawlRecord:
    clone = copy.deepcopy(record)
    for collection in collections:
        clone.outcomes[collection] = CrawlOutcome(
            collection, status=GAVE_UP, faults=["server_error"]
        )
    return clone


@pytest.fixture(scope="module")
def cascade(pipeline_result) -> FrappeCascade:
    records, labels = pipeline_result.sample_records()
    return FrappeCascade(pipeline_result.extractor).fit(records, labels)


class TestClassificationTier:
    def test_clean_crawl_is_full_frappe(self):
        record = record_with({c: OK for c in ("summary", "feed", "install")})
        assert classification_tier(record) == "frappe"

    def test_no_outcome_bookkeeping_is_authoritative(self):
        # Records loaded from an export predate outcome tracking.
        assert classification_tier(CrawlRecord(app_id="42")) == "frappe"

    def test_authoritative_missingness_keeps_the_full_model(self):
        # App removed: the empty summary IS the signal (Sec 4.1).
        record = record_with(
            {"summary": PERMANENT, "feed": PERMANENT, "install": PERMANENT}
        )
        assert classification_tier(record) == "frappe"

    def test_one_transient_loss_degrades_to_lite(self):
        for lost in ("feed", "install"):
            record = record_with({"summary": OK, lost: GAVE_UP})
            assert classification_tier(record) == "lite"

    def test_both_on_demand_losses_degrade_to_summary_only(self):
        record = record_with(
            {"summary": OK, "feed": GAVE_UP, "install": GAVE_UP}
        )
        assert classification_tier(record) == "summary_only"

    def test_summary_loss_means_no_evidence_at_all(self):
        record = record_with({"summary": GAVE_UP, "feed": OK, "install": OK})
        assert classification_tier(record) == "none"

    def test_tier_feature_sets(self):
        assert TIER_FEATURES["frappe"] == ALL_FEATURES
        assert TIER_FEATURES["lite"] == ON_DEMAND_FEATURES
        assert TIER_FEATURES["summary_only"] == SUMMARY_ONLY_FEATURES
        assert set(CONFIDENCE_BY_TIER) == {"frappe", "lite", "summary_only", "none"}


class TestClientIdMismatchTriState:
    def test_missing_install_crawl_is_none(self):
        assert CrawlRecord(app_id="1").client_id_mismatch is None

    def test_verified_match_is_false(self):
        record = CrawlRecord(app_id="1", inst_ok=True, observed_client_id="1")
        assert record.client_id_mismatch is False

    def test_mismatch_is_true(self):
        record = CrawlRecord(app_id="1", inst_ok=True, observed_client_id="2")
        assert record.client_id_mismatch is True

    def test_feature_encodes_missing_and_benign_identically(self, pipeline_result):
        # The paper's D-Inst protocol: the feature is 0.0 for both
        # "verified match" and "nothing collected" — the distinction is
        # carried by the tier machinery, not the Lite feature vector.
        extractor = pipeline_result.extractor
        missing = CrawlRecord(app_id="1")
        benign = CrawlRecord(app_id="1", inst_ok=True, observed_client_id="1")
        hijacked = CrawlRecord(app_id="1", inst_ok=True, observed_client_id="2")
        value = extractor.feature_value
        assert value("client_id_mismatch", missing) == 0.0
        assert value("client_id_mismatch", benign) == 0.0
        assert value("client_id_mismatch", hijacked) == 1.0

    def test_advisory_never_fires_on_unverified(self, pipeline_result, cascade):
        # An advisory claiming "hands out a different app's client ID"
        # over a crawl that never saw the install URL would be a lie.
        watchdog = AppWatchdog(
            cascade, pipeline_result.extractor, TransportStats()
        )
        records, labels = pipeline_result.sample_records()
        mismatch_note = "its install URL hands out a different app's client ID"
        for record, label in zip(records, labels):
            if label != 1 or record.inst_ok:
                continue
            assessment = watchdog.assess_record(record)
            assert all(mismatch_note not in note for note in assessment.advisories)


class TestFrappeCascade:
    def test_drop_in_on_clean_records(self, pipeline_result, cascade):
        records, labels = pipeline_result.sample_records()
        plain = frappe(pipeline_result.extractor).fit(records, labels)
        assert (cascade.predict(records) == plain.predict(records)).all()

    def test_degraded_records_route_to_their_tier_model(
        self, pipeline_result, cascade
    ):
        records, _ = pipeline_result.sample_records()
        sample = records[:10]
        lite_copies = [degraded_copy(r, "install") for r in sample]
        expected = cascade.model("lite").predict(lite_copies)
        assert (cascade.predict(lite_copies) == expected).all()
        summary_copies = [degraded_copy(r, "feed", "install") for r in sample]
        expected = cascade.model("summary_only").predict(summary_copies)
        assert (cascade.predict(summary_copies) == expected).all()

    def test_tier_none_declines_to_condemn(self, pipeline_result, cascade):
        records, labels = pipeline_result.sample_records()
        # Pick a record the full model condemns; losing the summary
        # crawl transiently must withdraw that verdict, not zero-fill it.
        condemned = next(
            r
            for r, label in zip(records, labels)
            if label == 1 and cascade.predict_one(r)
        )
        blinded = degraded_copy(condemned, "summary")
        assert not cascade.predict_one(blinded)
        assert cascade.decision_function_one(blinded) == (0.0, "none")

    def test_mixed_batch_prediction_matches_per_record(
        self, pipeline_result, cascade
    ):
        records, _ = pipeline_result.sample_records()
        batch = [
            records[0],
            degraded_copy(records[1], "feed"),
            degraded_copy(records[2], "feed", "install"),
            degraded_copy(records[3], "summary"),
        ]
        batched = cascade.predict(batch)
        singles = [cascade.predict_one(r) for r in batch]
        assert list(batched.astype(bool)) == singles


class TestWatchdogConfidence:
    def test_confidence_follows_the_tier(self, pipeline_result, cascade):
        watchdog = AppWatchdog(cascade, pipeline_result.extractor, TransportStats())
        records, _ = pipeline_result.sample_records()
        record = records[0]
        assert watchdog.assess_record(record).confidence == "high"
        for collections, expected in (
            (("install",), "medium"),
            (("feed", "install"), "low"),
            (("summary",), "none"),
        ):
            degraded = degraded_copy(record, *collections)
            assessment = watchdog.assess_record(degraded)
            assert assessment.confidence == expected
            assert f"[confidence: {expected}]" in assessment.summary()

    def test_degraded_collections_are_disclosed(self, pipeline_result, cascade):
        watchdog = AppWatchdog(cascade, pipeline_result.extractor, TransportStats())
        records, _ = pipeline_result.sample_records()
        degraded = degraded_copy(records[0], "feed")
        assessment = watchdog.assess_record(degraded)
        assert any(
            "profile-feed crawl could not be completed" in note
            for note in assessment.advisories
        )


class TestOutcomeSerialization:
    def test_outcomes_survive_an_export_round_trip(
        self, pipeline_result, tmp_path
    ):
        from repro.io import export_dataset, load_dataset

        path = export_dataset(pipeline_result, tmp_path / "dataset.json")
        records, _, _ = load_dataset(path)
        originals = {a: r for a, r in pipeline_result.bundle.records.items()}
        for loaded in records:
            original = originals[loaded.app_id]
            assert set(loaded.outcomes) == set(original.outcomes)
            for collection, outcome in loaded.outcomes.items():
                source = original.outcomes[collection]
                assert outcome.status == source.status
                assert outcome.attempts == source.attempts
                assert outcome.faults == source.faults
            assert classification_tier(loaded) == classification_tier(original)

    def test_legacy_records_without_outcomes_read_as_authoritative(self):
        from repro.io import _record_from_dict

        loaded = _record_from_dict(
            {"app_id": "7", "summary_ok": True, "feed_ok": False, "inst_ok": False}
        )
        assert loaded.outcomes == {}
        assert classification_tier(loaded) == "frappe"
        assert not loaded.degraded
