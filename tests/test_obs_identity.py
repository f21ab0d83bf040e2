"""The observability determinism contract: watching changes nothing.

The hard requirement of ``repro.obs``: with the default null observer
the instrumented code paths consume **no RNG draws and no clock time**,
and with a :class:`TracingObserver` installed every pipeline output —
crawl records, transport accounting, journal bytes, verdicts, service
reports — is *byte-identical* to an unobserved run.

Worlds are private per run: crawling and serving mutate transport and
installer state, so on/off comparisons rebuild from the same config.
"""

from __future__ import annotations

from repro.config import ScaleConfig, ServiceConfig
from repro.core.pipeline import FrappePipeline
from repro.crawler.checkpoint import CrawlJournal
from repro.crawler.crawler import make_crawler
from repro.ecosystem.simulation import run_simulation
from repro.obs import (
    NULL_OBSERVER,
    NULL_SPAN,
    TracingObserver,
    get_observer,
    observation,
)
from repro.service import LoadProfile, generate_requests, make_service

CHAOS = dict(scale=0.01, master_seed=424242, fault_rate=0.2)
N_APPS = 24


def chaos_crawl(observer=None, journal_dir=None):
    """A fresh chaos crawl of the first N apps; returns (records, stats)."""
    world = run_simulation(ScaleConfig(**CHAOS))
    crawler = make_crawler(world)
    apps = sorted(app.app_id for app in world.registry.all_apps())[:N_APPS]
    journal = None
    if journal_dir is not None:
        journal = CrawlJournal(journal_dir, snapshot_every=8, resume=False)
    try:
        with observation(observer):
            records = crawler.crawl_many(apps, journal=journal)
    finally:
        if journal is not None:
            journal.close()
    return records, crawler.stats


def serve_run(observer):
    """A fresh chaos pipeline + batched serve; returns (result, report)."""
    with observation(observer):
        result = FrappePipeline(ScaleConfig(**CHAOS)).run(sweep_unlabelled=False)
        service = make_service(
            result, ServiceConfig(batch_max=4, max_queue_depth=8)
        )
        profile = LoadProfile(
            n_requests=40, rate_rps=0.5, pool_size=12, seed=7
        )
        requests = generate_requests(sorted(result.bundle.d_sample), profile)
        report = service.serve(requests)
    return result, report


def response_image(report):
    return [
        (r.app_id, r.outcome, r.rung, r.verdict, r.cache_state,
         r.latency_s, r.batch_size)
        for r in report.responses
    ]


def test_default_observer_is_the_null_observer():
    assert get_observer() is NULL_OBSERVER
    assert not NULL_OBSERVER.enabled


def test_null_span_context_is_reusable_and_inert():
    cm = NULL_OBSERVER.span("anything", t=123.0, whatever="x")
    for _ in range(2):  # the same CM object must survive re-entry
        with cm as span:
            assert span is NULL_SPAN
            span.note(ignored=True)
            span.end(999.0)
    assert NULL_SPAN.attrs == {} and NULL_SPAN.t_end == 0.0


def test_chaos_crawl_is_byte_identical_with_observation_on(tmp_path):
    """Records, stats, and journal bytes match an unobserved run."""
    off_records, off_stats = chaos_crawl(
        observer=None, journal_dir=tmp_path / "off"
    )
    observer = TracingObserver()
    on_records, on_stats = chaos_crawl(
        observer=observer, journal_dir=tmp_path / "on"
    )
    assert [repr(r) for r in on_records] == [repr(r) for r in off_records]
    assert on_stats.snapshot() == off_stats.snapshot()
    assert (tmp_path / "on" / "journal.jsonl").read_bytes() == (
        tmp_path / "off" / "journal.jsonl"
    ).read_bytes()
    # ... and the observed run actually recorded the crawl.
    assert observer.metrics.counter_value("crawl_apps_total") == N_APPS
    assert len(observer.tracer.roots(categories=("crawl",))) >= N_APPS


def test_pipeline_and_batched_serve_identical_with_observation_on():
    """Training, cascade scoring, and serving are untouched by tracing."""
    _off_result, off_report = serve_run(observer=None)
    observer = TracingObserver()
    _on_result, on_report = serve_run(observer=observer)
    assert response_image(on_report) == response_image(off_report)
    assert on_report.summary() == off_report.summary()
    assert on_report.transport == off_report.transport
    # The observed run recorded spans for training and every *handled*
    # request; admission-shed requests are answered without a span but
    # leave a ``serve.shed`` event instead.
    assert observer.tracer.roots(categories=("train",))
    serve_roots = observer.tracer.roots(categories=("serve",))
    named = [s for s in serve_roots if s.name == "serve.request"]
    client_spans = [s for s in named if s.attrs.get("priority") != "refresh"]
    overloaded = sum(
        1 for r in on_report.responses if r.outcome == "overloaded"
    )
    assert len(client_spans) + overloaded == len(on_report.responses)
    shed_events = sum(
        len([e for e in s.events if e.name == "serve.shed"])
        for s in serve_roots
    )
    assert shed_events >= overloaded


def test_watchdog_assessments_identical_with_observation_on():
    """The watchdog's spans/metrics (PR 8) only watch: assessments and
    re-crawl decisions are byte-identical with a tracer installed."""
    from repro.core.watchdog import AppWatchdog
    from repro.crawler.crawler import AppCrawler

    def assess_run(observer):
        result = FrappePipeline(ScaleConfig(**CHAOS)).run(sweep_unlabelled=False)
        watchdog = AppWatchdog(
            result.classifier,
            result.extractor,
            AppCrawler(result.world),
            max_staleness_days=0,  # force the stale -> re-crawl path too
        )
        apps = sorted(result.bundle.d_sample)[:8]
        with observation(observer):
            first = watchdog.bulk_assess(apps, day=400)
            second = watchdog.bulk_assess(apps, day=400)  # cache hits
        return [
            (a.app_id, a.risk_score, a.confidence, tuple(a.advisories))
            for a in first + second
        ]

    observer = TracingObserver()
    assert assess_run(None) == assess_run(observer)
    # ... and the run actually recorded watchdog telemetry.
    metrics = observer.metrics
    assert metrics.counter_value("watchdog_assessments_total",
                                 confidence="high") > 0
    assert metrics.counter_value("watchdog_cache_hits_total") > 0
    assert metrics.histogram_of("watchdog_risk_score") is not None
    assert metrics.histogram_of("watchdog_staleness_days") is not None


def test_monitor_epoch_identical_with_observation_on(tmp_path):
    """The monitor's spans, backpressure events, and append telemetry
    leave the history store byte-identical."""
    from repro.crawler.datasets import DatasetBuilder
    from repro.crawler.monitor import AppMonitor, MonitorConfig, MonitorJournal
    from repro.mypagekeeper.classifier import UrlClassifier
    from repro.mypagekeeper.monitor import MyPageKeeper

    def monitor_run(observer, directory):
        world = run_simulation(ScaleConfig(**CHAOS, blackouts=2))
        report = MyPageKeeper(
            UrlClassifier(world.services.blacklist), world.post_log
        ).scan()
        apps = sorted(
            DatasetBuilder(world, report).build(crawl=False).d_sample
        )[:N_APPS]
        journal = MonitorJournal(directory)
        monitor = AppMonitor(
            world, make_crawler(world), apps,
            config=MonitorConfig(epochs=2, forensics=True, lifecycle=True),
            journal=journal,
        )
        with observation(observer):
            monitor.run()
        journal.close()
        return monitor.export_history_bytes()

    observer = TracingObserver()
    unobserved = monitor_run(None, tmp_path / "off")
    observed = monitor_run(observer, tmp_path / "on")
    assert unobserved == observed
    assert observer.metrics.counter_value("monitor_appends_total") > 0
    assert observer.metrics.counter_value("monitor_epochs_total") == 2.0
