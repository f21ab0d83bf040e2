"""Tests for the watchdog service, dataset export, and the CLI."""

import json

import numpy as np
import pytest

from repro.core.frappe import frappe
from repro.core.watchdog import AppWatchdog
from repro.crawler.crawler import AppCrawler
from repro.io import export_dataset, load_dataset
from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def assessments(pipeline_result):
    """Fresh crawls of 15 malicious and 15 benign D-Sample apps, scored."""
    records, labels = pipeline_result.sample_records()
    classifier = frappe(pipeline_result.extractor).fit(records, labels)
    crawler = AppCrawler(pipeline_result.world)
    watchdog = AppWatchdog(classifier, pipeline_result.extractor, crawler.stats)
    bundle = pipeline_result.bundle
    return {
        label: [
            watchdog.assess_record(crawler.crawl_app(app_id))
            for app_id in sorted(app_ids)[:15]
        ]
        for label, app_ids in (
            ("malicious", bundle.d_sample_malicious),
            ("benign", bundle.d_sample_benign),
        )
    }


class TestWatchdog:
    def test_scores_separate_the_classes(self, assessments):
        malicious_scores = [a.risk_score for a in assessments["malicious"]]
        benign_scores = [a.risk_score for a in assessments["benign"]]
        assert np.mean(malicious_scores) > np.mean(benign_scores) + 30
        assert all(0 <= s <= 100 for s in malicious_scores + benign_scores)

    def test_risky_assessments_carry_advisories(self, assessments):
        risky = [a for a in assessments["malicious"] if a.is_risky]
        assert risky
        for assessment in risky:
            assert assessment.advisories
            assert "HIGH RISK" in assessment.summary()

    def test_decision_boundary_maps_to_50(self):
        assert AppWatchdog.risk_from_margin(0.0) == pytest.approx(50.0)
        assert AppWatchdog.risk_from_margin(5.0) > 95
        assert AppWatchdog.risk_from_margin(-5.0) < 5


class TestDatasetIo:
    def test_export_load_roundtrip(self, pipeline_result, tmp_path):
        path = export_dataset(pipeline_result, tmp_path / "dsample.json")
        records, labels, metadata = load_dataset(path)
        assert len(records) == len(pipeline_result.bundle.d_sample)
        assert sum(labels) == len(pipeline_result.bundle.d_sample_malicious)
        assert metadata["n_malicious"] == sum(labels)
        # Spot-check a record's fields.
        original_id = records[0].app_id
        original = pipeline_result.bundle.records[original_id]
        assert records[0].permissions == original.permissions
        assert records[0].summary_ok == original.summary_ok
        assert len(records[0].profile_posts) == len(original.profile_posts)

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 99, "records": []}))
        with pytest.raises(ValueError):
            load_dataset(path)

    def test_loaded_records_work_with_a_classifier(
        self, pipeline_result, tmp_path
    ):
        path = export_dataset(pipeline_result, tmp_path / "d.json")
        records, labels, _ = load_dataset(path)
        # On-demand features survive the round trip, so a Lite model
        # trained on loaded data performs like one trained in-process.
        from repro.core.frappe import frappe_lite

        classifier = frappe_lite(pipeline_result.extractor).fit(records, labels)
        predictions = classifier.predict(records)
        assert (predictions == np.asarray(labels)).mean() > 0.9


class TestCli:
    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(["--scale", "0.05", "simulate"])
        assert args.command == "simulate"
        assert args.scale == 0.05
        args = parser.parse_args(["evaluate", "123", "456"])
        assert args.app_ids == ["123", "456"]
        args = parser.parse_args(["export", "out.json"])
        assert args.output == "out.json"

    def test_simulate_command(self, capsys):
        exit_code = main(["--scale", "0.01", "--seed", "5", "simulate"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "apps:" in out and "posts:" in out

    def test_export_command(self, tmp_path, capsys):
        output = tmp_path / "sample.json"
        exit_code = main(
            ["--scale", "0.01", "--seed", "5", "export", str(output)]
        )
        assert exit_code == 0
        records, labels, _ = load_dataset(output)
        assert records and len(records) == len(labels)

    @staticmethod
    def record_crawlers(monkeypatch) -> list:
        """Record every crawler `make_crawler` builds for the CLI."""
        import repro.crawler.crawler as crawler_module

        crawlers = []
        build = crawler_module.make_crawler

        def recording(world):
            crawlers.append(build(world))
            return crawlers[-1]

        monkeypatch.setattr(crawler_module, "make_crawler", recording)
        return crawlers

    def test_evaluate_crawls_under_the_configured_faults(
        self, capsys, monkeypatch
    ):
        """`evaluate` honours --fault-rate: it crawls with the crawler
        `make_crawler` builds, so it fights injected faults."""
        crawlers = self.record_crawlers(monkeypatch)
        exit_code = main(
            ["--scale", "0.01", "--fault-rate", "0.5", "evaluate"]
        )
        assert exit_code == 0
        assert capsys.readouterr().out.strip()
        [crawler] = crawlers
        assert crawler.stats.requests > 0
        assert crawler.stats.fault_count() > 0
        assert crawler.transport.plan.fault_rate == 0.5

    def test_evaluate_crawls_a_repeated_id_once(
        self, pipeline_result, capsys, monkeypatch
    ):
        first, second = sorted(pipeline_result.bundle.d_sample)[:2]
        crawlers = self.record_crawlers(monkeypatch)
        head = ["--scale", "0.01", "--seed", "424242", "evaluate"]
        outputs = []
        for app_ids in ([first, second], [first, second, first]):
            assert main(head + app_ids) == 0
            outputs.append(capsys.readouterr().out)
        twice, thrice = (
            [line for line in out.splitlines() if not line.startswith("  - ")]
            for out in outputs
        )
        assert len(twice) == 2 and len(thrice) == 3
        assert thrice == [twice[0], *twice]  # printed in sorted-ID order
        assert crawlers[0].stats.requests == crawlers[1].stats.requests > 0
