"""The end-to-end FRAppE pipeline.

Chains the complete measurement study: simulate the world → run
MyPageKeeper over the post log → build the datasets (Table 1) → extract
features → train FRAppE on D-Sample → sweep the unlabelled remainder of
D-Total (Sec 5.3) → validate the flags (Table 8).

Every benchmark and example consumes a :class:`PipelineResult`, so the
expensive steps run once per configuration.

All crawling goes through one transport built from the configuration
(:func:`~repro.crawler.crawler.make_crawler`): with
``ScaleConfig.fault_rate == 0`` that is the fault-free direct transport
and the study is exactly the paper's; with a positive rate the crawler
fights injected rate limits, 5xx errors, timeouts, truncated feeds, and
mid-crawl deletions, and the classification of records it could not
fully recover degrades through the :class:`FrappeCascade` tiers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import ScaleConfig
from repro.core.features import FeatureExtractor
from repro.core.frappe import FrappeCascade, FrappeClassifier, frappe
from repro.core.validation import FlagValidator, ValidationResult
from repro.crawler.checkpoint import CrawlJournal
from repro.crawler.crawler import AppCrawler, CrawlRecord, make_crawler
from repro.crawler.datasets import DatasetBuilder, DatasetBundle
from repro.ecosystem.params import GenerationParams
from repro.ecosystem.simulation import CrawlSchedule, SimulatedWorld, run_simulation
from repro.mypagekeeper.classifier import UrlClassifier
from repro.mypagekeeper.monitor import MonitorReport, MyPageKeeper
from repro.platform.transport import TransportStats

__all__ = ["PipelineResult", "FrappePipeline"]


@dataclass
class PipelineResult:
    """Everything the study produced, in dependency order."""

    world: SimulatedWorld
    monitor_report: MonitorReport
    bundle: DatasetBundle
    extractor: FeatureExtractor
    classifier: FrappeClassifier
    #: crawl records of the unlabelled (non-D-Sample) apps
    unlabelled_records: dict[str, CrawlRecord] = field(default_factory=dict)
    #: apps FRAppE flagged in the unlabelled remainder
    flagged_new: set[str] = field(default_factory=set)
    validation: ValidationResult | None = None
    #: the degradation cascade (present when fault injection is on)
    cascade: FrappeCascade | None = None
    #: requests / injected faults / simulated latency of every crawl
    transport_stats: TransportStats | None = None

    def sample_records(self) -> tuple[list[CrawlRecord], list[int]]:
        """(records, labels) over D-Sample, in a stable order."""
        records, labels = [], []
        for app_id in sorted(self.bundle.d_sample):
            records.append(self.bundle.records[app_id])
            labels.append(self.bundle.label(app_id))
        return records, labels

    def complete_records(self) -> tuple[list[CrawlRecord], list[int]]:
        """(records, labels) over D-Complete — the CV training set."""
        benign, malicious = self.bundle.d_complete
        records, labels = [], []
        for app_id in sorted(benign | malicious):
            records.append(self.bundle.records[app_id])
            labels.append(1 if app_id in malicious else 0)
        return records, labels


class FrappePipeline:
    """Builds and runs the complete study."""

    def __init__(
        self,
        config: ScaleConfig | None = None,
        params: GenerationParams | None = None,
        schedule: CrawlSchedule | None = None,
    ) -> None:
        self._config = config or ScaleConfig()
        self._params = params or GenerationParams()
        self._schedule = schedule or CrawlSchedule()

    def run(self, sweep_unlabelled: bool = True) -> PipelineResult:
        world = run_simulation(self._config, self._params, self._schedule)
        return self.run_on_world(world, sweep_unlabelled=sweep_unlabelled)

    def run_on_world(
        self, world: SimulatedWorld, sweep_unlabelled: bool = True
    ) -> PipelineResult:
        """Run the measurement chain over an already built world.

        With ``ScaleConfig.checkpoint_dir`` set, all crawling (D-Sample
        and the unlabelled sweep) runs against one crash-safe
        :class:`~repro.crawler.checkpoint.CrawlJournal`: kill the
        process anywhere, re-run the same configuration with
        ``resume=True``, and the study completes with records — and an
        exported dataset — byte-identical to an uninterrupted run.
        With ``checkpoint_dir=None`` the pipeline is bit-identical to a
        journal-less build.
        """
        journal = self._open_journal(world)
        try:
            return self._run_on_world(world, sweep_unlabelled, journal)
        finally:
            if journal is not None:
                journal.close()

    def _open_journal(self, world: SimulatedWorld) -> CrawlJournal | None:
        config = world.config
        if not config.checkpoint_dir:
            return None
        return CrawlJournal(
            config.checkpoint_dir,
            snapshot_every=config.checkpoint_every,
            resume=config.resume,
        )

    def _run_on_world(
        self,
        world: SimulatedWorld,
        sweep_unlabelled: bool,
        journal: CrawlJournal | None,
    ) -> PipelineResult:
        url_classifier = UrlClassifier(world.services.blacklist)
        report = MyPageKeeper(url_classifier, world.post_log).scan()
        # One crawler (hence one transport and fault state) serves both
        # the D-Sample crawl and the unlabelled sweep, so the stats
        # describe the whole study and a mid-crawl deletion stays gone.
        crawler = make_crawler(world)
        bundle = DatasetBuilder(world, report).build(
            crawl=True,
            crawler=crawler,
            journal=journal,
        )
        extractor = self.make_extractor(world, bundle)

        records, labels = [], []
        for app_id in sorted(bundle.d_sample):
            records.append(bundle.records[app_id])
            labels.append(bundle.label(app_id))
        faulted = world.config.fault_rate > 0.0
        cascade = None
        if faulted:
            cascade = FrappeCascade(extractor).fit(records, labels)
            classifier = cascade.full
        else:
            classifier = frappe(extractor).fit(records, labels)

        result = PipelineResult(
            world=world,
            monitor_report=report,
            bundle=bundle,
            extractor=extractor,
            classifier=classifier,
            cascade=cascade,
            transport_stats=crawler.stats,
        )
        if sweep_unlabelled:
            self._sweep_unlabelled(result, crawler, journal)
        return result

    @staticmethod
    def make_extractor(
        world: SimulatedWorld, bundle: DatasetBundle
    ) -> FeatureExtractor:
        """Wire the feature extractor's aggregation context."""
        malicious_names = FeatureExtractor.name_counter(
            bundle.records, bundle.d_sample_malicious
        )
        # Names of apps whose summary crawl failed come from post
        # metadata — how the paper knows the names of deleted apps.
        id_to_name = world.post_log.app_names()
        for name_source_id in bundle.d_sample_malicious:
            record = bundle.records.get(name_source_id)
            if record is not None and not record.name:
                observed = id_to_name.get(name_source_id)
                if observed:
                    malicious_names[observed] += 1
        return FeatureExtractor(
            wot=world.services.wot,
            post_log=world.post_log,
            malicious_names=malicious_names,
            known_malicious_ids=set(bundle.d_sample_malicious),
            id_to_name=id_to_name,
        )

    def _sweep_unlabelled(
        self,
        result: PipelineResult,
        crawler: AppCrawler,
        journal: CrawlJournal | None = None,
    ) -> None:
        """Apply FRAppE to every D-Total app outside D-Sample (Sec 5.3).

        Under fault injection the sweep routes each record through the
        cascade, so transiently degraded crawls are judged by the tier
        their surviving collections support instead of by imputed zeros.
        """
        unlabelled = result.bundle.d_total - result.bundle.d_sample
        result.unlabelled_records = crawler.crawl_many(unlabelled, journal=journal)
        ordered = sorted(result.unlabelled_records)
        records = [result.unlabelled_records[a] for a in ordered]
        if records:
            model = result.cascade or result.classifier
            predictions = model.predict(records)
            result.flagged_new = {
                app_id for app_id, hit in zip(ordered, predictions) if hit
            }
        validator = FlagValidator(result.world, result.bundle)
        result.validation = validator.validate(result.flagged_new)
