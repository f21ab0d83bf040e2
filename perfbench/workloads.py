"""The three end-to-end paths of the FRAppE reproduction, as workloads.

* ``study``   -- the paper's batch study, as ``repro experiments`` runs it.
* ``serve``   -- the online verdict service under an open-loop schedule of
  steady and burst phases.
* ``monitor`` -- the supervised continuous-monitoring daemon.

Each workload splits into ``setup`` (input generation and world
building, timed as ``setup_s``), ``run`` (the timed repetition) and
``check`` (untimed: output checks and the figures the metrics need).
Every repetition gets freshly built inputs: serving and monitoring
change state their pipeline result shares (a second service on one
result answers some requests differently from the first), and the same
inputs must give the same outputs, and digest, in every repetition.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from layers import LayerTracer


class CheckFailed(AssertionError):
    """A workload produced wrong output."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the smoke tests shrink them."""

    study_scale: float = 0.05
    serve_scale: float = 0.02
    #: steady/burst phase pairs in one serve repetition
    serve_cycles: int = 100
    serve_steady_requests: int = 300
    serve_burst_requests: int = 300
    monitor_scale: float = 0.02
    monitor_epochs: int = 2
    #: apps the service is asked about and the daemon watches.  D-Sample
    #: at scale 0.02 holds 222 to 340 apps depending on the seed; a
    #: fixed-size seeded sample of it keeps the work per input constant.
    apps: int = 200


@dataclass
class RepResult:
    """What one repetition reports besides its wall time."""

    digest: str
    attempted: int
    failed: int
    #: end-to-end figures not derived from the wall time
    e2e: dict[str, float]
    #: per-layer figures the program computes (counts, fractions)
    layer: dict[str, float]
    #: end-to-end rates: name -> (count, seconds it took, or None for the
    #: repetition's wall time)
    rates: dict[str, tuple[float, float | None]]
    notes: dict[str, Any] = dataclasses.field(default_factory=dict)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, as ``ServiceReport.latency_percentile``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, round(q / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


def input_seed(seed: int, *labels: object) -> int:
    """A 31-bit seed for one input of a run, derived from ``--seed``."""
    key = "/".join(str(part) for part in (seed, *labels)).encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:4], "big") >> 1


def app_sample(app_ids, size: int, seed: int) -> list[str]:
    """A seeded, sorted sample of *size* apps (all of them if fewer)."""
    ordered = sorted(app_ids)
    if len(ordered) <= size:
        return ordered
    return sorted(random.Random(seed).sample(ordered, size))


def digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def record_sim_seconds(outcomes) -> float:
    """Simulated seconds one app's crawl took, over its collections."""
    total = 0.0
    for outcome in outcomes.values():
        total += outcome["elapsed_s"] if isinstance(outcome, dict) else outcome.elapsed_s
    return total


# -- study -------------------------------------------------------------------


class Study:
    """Simulate, scan, crawl, train, sweep, validate, then every table."""

    name = "study"
    #: seconds one repetition takes on the reference host
    rep_s = 22.0

    def __init__(self, sizes: Sizes, workdir: Path) -> None:
        self.scale = sizes.study_scale
        self.workdir = workdir

    def setup_samples(self, env: dict[str, str], count: int) -> list[float]:
        """Fresh-interpreter import times of the program."""
        times = []
        for _ in range(count):
            start = time.perf_counter()
            subprocess.run(
                [sys.executable, "-c", "import repro.experiments.runner"],
                env=env, check=True, timeout=60,
            )
            times.append(time.perf_counter() - start)
        return times

    def setup(self, seed: int) -> int:
        return seed

    def run(self, seed: int) -> Any:
        from repro.experiments import common, runner

        # The memo would turn a repeated input into a dict lookup; each
        # repetition builds its world anew.
        common.clear_cache()
        return runner.run_all(self.scale, seed=seed)

    def check(self, seed: int, reports: Any) -> RepResult:
        from repro import io
        from repro.experiments import common

        result, _ = common.get_collusion(self.scale, seed)
        common.clear_cache()
        bundle = result.bundle
        verdicted = bundle.d_total & (
            set(bundle.d_sample) | set(result.unlabelled_records)
        )
        check(result.validation is not None, "study: flags were not validated")
        check(result.flagged_new <= set(result.unlabelled_records),
              "study: a flag outside the swept apps")
        tables = "\n\n".join(report.render() for report in reports)
        export = self.workdir / "study-export.json"
        io.export_dataset(result, export)
        export_bytes = export.stat().st_size
        export.unlink()
        records = list(bundle.records.values()) + list(
            result.unlabelled_records.values()
        )
        latencies = [record_sim_seconds(r.outcomes) for r in records]
        stats = result.transport_stats
        return RepResult(
            digest=digest(tables),
            attempted=len(bundle.d_total),
            failed=len(bundle.d_total) - len(verdicted),
            e2e={
                "served_fraction": len(verdicted) / len(bundle.d_total),
                "validated_fraction": result.validation.validated_fraction,
                "latency_p50_sim_s": percentile(latencies, 50),
                "latency_p99_sim_s": percentile(latencies, 99),
                "history_mb": export_bytes / 1e6,
            },
            layer={
                "platform.requests": stats.requests,
                "core.flagged": len(result.flagged_new),
            },
            rates={
                "apps_per_s": (len(verdicted), None),
                "served_per_s": (len(verdicted), None),
                "observations_per_s": (len(records), None),
            },
            # Table 5's 5-fold CV at 1:1 needs at least 3 of these.
            notes={"d_complete_malicious": len(bundle.d_complete[1])},
        )


# -- serve -------------------------------------------------------------------

#: arrival rates, as multiples of the estimated cold-crawl capacity
STEADY_LOAD = 0.2
BURST_LOAD = 3.0
QUEUE_DEPTH = 64
BATCH_MAX = 8


class Serve:
    """Open-loop steady/burst traffic against the verdict service."""

    name = "serve"
    #: with set-up and check; the median of three inputs keeps one
    #: world with a much-requested false positive from setting
    #: validated_fraction
    rep_s = 10.0

    def __init__(self, sizes: Sizes, workdir: Path) -> None:
        self.sizes = sizes

    def setup(self, seed: int) -> Any:
        from repro.config import ScaleConfig
        from repro.core.pipeline import FrappePipeline

        config = ScaleConfig(
            scale=self.sizes.serve_scale, master_seed=seed, fault_rate=0.2
        )
        result = FrappePipeline(config).run(sweep_unlabelled=False)
        return result, self.schedule(result, seed)

    def schedule(self, result, seed: int) -> list:
        """Alternating steady and burst phases over a sample of D-Sample.

        Each phase is a ``generate_requests`` stream of its own seed,
        shifted to start where the previous phase ended and renumbered.
        The clock is simulated, so arrivals are never late.
        """
        from repro.service import LoadProfile, estimate_capacity_rps, generate_requests

        capacity = estimate_capacity_rps(result.world.schedule)
        pool = app_sample(result.bundle.d_sample, self.sizes.apps, seed)
        requests: list = []
        offset = 0.0
        phases = (
            ("steady", self.sizes.serve_steady_requests, STEADY_LOAD),
            ("burst", self.sizes.serve_burst_requests, BURST_LOAD),
        )
        for cycle in range(self.sizes.serve_cycles):
            for kind, count, load in phases:
                profile = LoadProfile(
                    n_requests=count,
                    rate_rps=capacity * load,
                    seed=input_seed(seed, kind, cycle),
                )
                for request in generate_requests(pool, profile):
                    requests.append(dataclasses.replace(
                        request,
                        arrival_s=request.arrival_s + offset,
                        sequence=len(requests),
                    ))
                offset = requests[-1].arrival_s
        return requests

    def run(self, state: Any) -> Any:
        from repro.config import ServiceConfig
        from repro.service import make_service

        result, requests = state
        service = make_service(
            result,
            ServiceConfig(max_queue_depth=QUEUE_DEPTH, batch_max=BATCH_MAX),
        )
        start = time.perf_counter()
        report = service.serve(requests)
        return service, report, time.perf_counter() - start

    def check(self, state: Any, outcome: Any) -> RepResult:
        from repro.service.service import ServiceReport
        from repro.service.types import BULK, DEADLINE, INTERACTIVE, OVERLOADED, SERVED

        result, requests = state
        service, report, serve_s = outcome
        outcomes = report.outcome_counts()
        served = outcomes[SERVED]
        typed = served + outcomes[OVERLOADED] + outcomes[DEADLINE]
        check(len(report.responses) == len(requests),
              f"serve: {len(report.responses)} responses to {len(requests)} requests")
        check(typed == len(requests),
              f"serve: served+overloaded+deadline = {typed} != {len(requests)} offered")
        persisted = json.dumps(report.snapshot(), sort_keys=True, indent=2) + "\n"
        rebuilt = ServiceReport.from_snapshot(json.loads(persisted))
        check(rebuilt.summary() == report.summary(),
              "serve: ServiceReport.from_snapshot does not rebuild summary()")
        truly_malicious = {app.app_id for app in result.world.registry.malicious()}
        flagged = [
            r.app_id for r in report.responses
            if r.outcome == SERVED and r.verdict
        ]
        interactive = [
            r.latency_s for r in report.responses
            if r.outcome == SERVED and r.priority == INTERACTIVE
        ]
        waits = [r.queue_wait_s for r in report.responses if r.outcome == SERVED]
        lookups = report.cache_hits_fresh + report.cache_hits_stale + report.cache_misses
        stats = service.stats
        return RepResult(
            digest=digest(persisted),
            attempted=len(requests),
            failed=len(requests) - typed,
            e2e={
                "served_fraction": served / len(requests),
                "validated_fraction": (
                    sum(a in truly_malicious for a in flagged) / len(flagged)
                    if flagged else 1.0
                ),
                "latency_p50_sim_s": percentile(interactive, 50),
                "latency_p99_sim_s": percentile(interactive, 99),
                "history_mb": len(persisted) / 1e6,
            },
            layer={
                "platform.requests": stats.requests,
                "platform.faults_injected": sum(stats.injected.values()),
                "service.cache_hit_fraction": (
                    (report.cache_hits_fresh + report.cache_hits_stale) / lookups
                    if lookups else 0.0
                ),
                "service.shed_fraction_interactive": report.shed_rate(INTERACTIVE),
                "service.shed_fraction_bulk": report.shed_rate(BULK),
                "service.queue_wait_p99_sim_s": percentile(waits, 99),
            },
            rates={
                "apps_per_s": (served, None),
                "served_per_s": (served, serve_s),
                "observations_per_s": (
                    report.cache_misses + report.refreshes_done, None
                ),
            },
            notes={
                "served": served,
                "overloaded": outcomes[OVERLOADED],
                "deadline": outcomes[DEADLINE],
                "max_queue_depth": report.max_queue_depth,
            },
        )


# -- monitor -----------------------------------------------------------------


class Monitor:
    """The supervised ``AppMonitor`` daemon over D-Sample apps, journal on disk."""

    name = "monitor"
    #: with set-up
    rep_s = 7.5

    def __init__(self, sizes: Sizes, workdir: Path) -> None:
        self.sizes = sizes
        self.workdir = workdir
        self._setups = 0

    def setup(self, seed: int) -> Any:
        from repro.config import ScaleConfig
        from repro.crawler.crawler import make_crawler
        from repro.crawler.datasets import DatasetBuilder
        from repro.crawler.monitor import MonitorJournal
        from repro.ecosystem.simulation import run_simulation
        from repro.mypagekeeper.classifier import UrlClassifier
        from repro.mypagekeeper.monitor import MyPageKeeper

        config = ScaleConfig(
            scale=self.sizes.monitor_scale, master_seed=seed, fault_rate=0.2
        )
        world = run_simulation(config)
        report = MyPageKeeper(
            UrlClassifier(world.services.blacklist), world.post_log
        ).scan()
        bundle = DatasetBuilder(world, report).build(crawl=False)
        crawler = make_crawler(world)
        self._setups += 1
        directory = self.workdir / f"monitor-{self._setups}"
        shutil.rmtree(directory, ignore_errors=True)
        journal = MonitorJournal(directory, resume=False)
        apps = app_sample(bundle.d_sample, self.sizes.apps, seed)
        return world, apps, crawler, journal, directory

    def run(self, state: Any) -> Any:
        from repro.crawler import monitor as monitor_module

        world, apps, crawler, journal, _ = state
        monitor = monitor_module.AppMonitor(
            world,
            crawler,
            apps,
            config=monitor_module.MonitorConfig(
                epochs=self.sizes.monitor_epochs, forensics=True, lifecycle=True
            ),
            journal=journal,
        )
        # The daemon keeps its SupervisedEpochRunner to itself; catch it
        # to read its restart and inline-fallback counters afterwards.
        runners: list = []
        cls = monitor_module.SupervisedEpochRunner
        original = cls.__init__

        def init(runner, *args, **kwargs):
            original(runner, *args, **kwargs)
            runners.append(runner)

        cls.__init__ = init
        try:
            report = monitor.run(supervised=True)
        finally:
            cls.__init__ = original
        return monitor, report, runners

    def check(self, state: Any, outcome: Any) -> RepResult:
        from repro.crawler.monitor import MonitorJournal

        _, _, crawler, _, directory = state
        monitor, report, runners = outcome
        epochs = self.sizes.monitor_epochs
        journal = monitor.journal
        planned = sum(len(journal.plan_for(epoch) or []) for epoch in range(epochs))
        history = monitor.export_history_bytes()
        journal.close()
        on_disk = sum(p.stat().st_size for p in directory.iterdir() if p.is_file())
        reread = MonitorJournal(directory, resume=True)
        observations = [e for e in reread.entries if "record" in e]
        reread_quarantined = reread.quarantined
        reread.close()
        shutil.rmtree(directory)
        inline = sum(runner.inline_fallbacks for runner in runners)
        restarts = sum(runner.restarts for runner in runners)
        check(report.epochs_run == epochs,
              f"monitor: {report.epochs_run} of {epochs} epochs ran")
        check(report.observations == planned,
              f"monitor: {report.observations} observations for {planned} planned")
        check(report.quarantined == 0 and reread_quarantined == 0,
              "monitor: journal lines were quarantined")
        check(bool(runners) and inline == 0,
              f"monitor: {inline} epochs fell back to running inline")
        check(len(observations) == report.observations,
              "monitor: the journal re-read from disk disagrees with the report")
        latencies = [record_sim_seconds(e["record"]["outcomes"]) for e in observations]
        return RepResult(
            digest=digest(history),
            attempted=planned,
            failed=planned - report.observations,
            e2e={
                "served_fraction": report.observations / planned,
                "validated_fraction": len(observations) / report.observations,
                "latency_p50_sim_s": percentile(latencies, 50),
                "latency_p99_sim_s": percentile(latencies, 99),
                "history_mb": on_disk / 1e6,
            },
            layer={
                "platform.requests": crawler.stats.requests,
                "crawler.history_bytes_per_observation": on_disk / report.observations,
                "crawler.worker_restarts": restarts,
            },
            rates={
                "apps_per_s": (report.observations, None),
                "served_per_s": (report.observations, None),
                "observations_per_s": (report.observations, None),
            },
            notes={"worker_restarts": restarts, "observations": report.observations},
        )


WORKLOADS = {cls.name: cls for cls in (Study, Serve, Monitor)}


# -- per-layer wrap targets --------------------------------------------------


def install_layer_wrappers(tracer: LayerTracer) -> None:
    """Wrap the public entry point of every layer a workload reaches."""
    import importlib
    import pkgutil

    import repro.experiments
    from repro.collusion.appnets import CollusionAnalyzer
    from repro.core.frappe import FrappeCascade, FrappeClassifier
    from repro.core.validation import FlagValidator
    from repro.crawler import monitor
    from repro.crawler.crawler import AppCrawler
    from repro.crawler.datasets import DatasetBuilder
    from repro.ecosystem import simulation
    from repro.ml import crossval
    from repro.ml.svm import SVC
    from repro.mypagekeeper.monitor import MyPageKeeper
    from repro.text import clustering

    tracer.wrap_function(
        simulation, "run_simulation", "ecosystem.simulate_s",
        count=lambda a, k, world: {"ecosystem.posts": len(world.post_log)},
    )
    tracer.wrap_method(
        MyPageKeeper, "scan", "mypagekeeper.scan_s",
        count=lambda a, k, report: {"mypagekeeper.posts": report.posts_scanned},
    )
    tracer.wrap_method(DatasetBuilder, "build", "crawler.build_s")
    tracer.wrap_method(AppCrawler, "crawl_many", "crawler.crawl_many_s")
    tracer.wrap_method(AppCrawler, "crawl_app", "crawler.crawl_app_s")
    for cls in (FrappeClassifier, FrappeCascade):
        tracer.wrap_method(cls, "fit", "core.fit_s")
        tracer.wrap_method(cls, "predict", "core.predict_s")
    tracer.wrap_method(SVC, "fit", "ml.svc_fit_s")
    tracer.wrap_method(
        FrappeCascade, "score_batch", "core.score_batch_s",
        count=lambda a, k, rows: {"core.score_batch_rows": len(rows)},
    )
    tracer.wrap_method(FlagValidator, "validate", "core.validate_s")
    tracer.wrap_method(CollusionAnalyzer, "discover", "collusion.discover_s")
    tracer.wrap_function(clustering, "cluster_names", "text.cluster_names_s")
    tracer.wrap_function(crossval, "cross_validate", "ml.cross_validate_s")
    for info in pkgutil.iter_modules(repro.experiments.__path__):
        if info.name in ("common", "runner", "__main__"):
            continue
        module = importlib.import_module(f"repro.experiments.{info.name}")
        if callable(getattr(module, "run", None)):
            tracer.wrap_function(module, "run", "experiments.tables_s")
    tracer.wrap_method(monitor.SupervisedEpochRunner, "run_epoch", "crawler.epoch_s")
    tracer.wrap_method(monitor.AppMonitor, "resync_from_journal", "crawler.resync_s")
    tracer.wrap_method(
        monitor.MonitorJournal, "append_observation", "crawler.append_s"
    )
