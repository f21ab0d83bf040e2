"""Micro-benchmarks for the computational kernels of the pipeline.

These time the hot paths with multiple rounds (unlike the experiment
benchmarks, which run heavy analyses once).
"""

import numpy as np

from repro.collusion.appnets import CollusionAnalyzer
from repro.core.frappe import frappe
from repro.ml.svm import SVC
from repro.mypagekeeper.classifier import UrlClassifier
from repro.mypagekeeper.monitor import MyPageKeeper
from repro.text.clustering import cluster_names
from repro.text.editdist import damerau_levenshtein


def test_perf_svm_training(benchmark, result):
    records, labels = result.complete_records()
    x = result.extractor.matrix(records)
    y = np.asarray(labels)

    def train():
        return SVC().fit(x, y)

    model = benchmark(train)
    assert model.n_support_ > 0


def test_perf_feature_extraction(benchmark, result):
    records, _ = result.sample_records()

    def extract():
        return result.extractor.matrix(records)

    matrix = benchmark(extract)
    assert matrix.shape[0] == len(records)


def test_perf_prediction_throughput(benchmark, result):
    records, labels = result.sample_records()
    classifier = frappe(result.extractor).fit(records, labels)

    def predict():
        return classifier.predict(records)

    predictions = benchmark(predict)
    assert len(predictions) == len(records)


def test_perf_edit_distance(benchmark):
    pairs = [
        ("What Does Your Name Mean?", "What ur name implies!!!"),
        ("Profile Watchers v4.32", "Profile Watchers v8"),
        ("FarmVille", "FarmVile"),
    ] * 30

    def distances():
        return [damerau_levenshtein(a, b) for a, b in pairs]

    values = benchmark(distances)
    assert all(v >= 0 for v in values)


def test_perf_name_clustering(benchmark, result):
    from repro.experiments.fig10 import sample_names

    names = sample_names(result)["malicious"]

    def cluster():
        return cluster_names(names, 0.8)

    clustering = benchmark.pedantic(cluster, rounds=2, iterations=1)
    assert clustering.n_clusters >= 1


def test_perf_name_clustering_at_scale(benchmark):
    """The fast kernel on a 10K-name skewed corpus (the paper's regime).

    The naive kernel needs minutes here (that comparison lives in
    ``repro bench --full``); this benchmark tracks the fast kernel's
    absolute wall time so a pruning regression shows up in CI history.
    """
    from repro.bench import _clustering_corpus

    names = _clustering_corpus(10_000, seed=2012)

    def cluster():
        return cluster_names(names, 0.8, kernel="fast")

    clustering = benchmark.pedantic(cluster, rounds=2, iterations=1)
    assert clustering.n_clusters >= 1


def test_perf_batched_service_throughput(benchmark, result):
    from repro.config import ServiceConfig
    from repro.service import LoadProfile, generate_requests, make_service

    app_ids = sorted(result.bundle.d_sample)
    profile = LoadProfile(
        n_requests=150, rate_rps=0.5, pool_size=25, seed=2012
    )
    requests = generate_requests(app_ids, profile)

    def serve():
        # serving consumes the shared world's installer RNG; restore it
        # so every round (and every later benchmark) sees the same state
        state = result.world.installer.rng_state()
        try:
            service = make_service(result, ServiceConfig(batch_max=8))
            return service.serve(list(requests))
        finally:
            result.world.installer.restore_rng_state(state)

    report = benchmark.pedantic(serve, rounds=2, iterations=1)
    assert len(report.responses) == 150
    assert max(r.batch_size for r in report.responses) > 1


def test_perf_mypagekeeper_scan(benchmark, result):
    classifier = UrlClassifier(result.world.services.blacklist)
    monitor = MyPageKeeper(classifier, result.world.post_log)
    report = benchmark.pedantic(monitor.scan, rounds=1, iterations=1)
    assert report.posts_scanned == len(result.world.post_log)


def test_perf_collusion_discovery(benchmark, result):
    analyzer = CollusionAnalyzer(result.world, probe_visits=2000)
    collusion = benchmark.pedantic(analyzer.discover, rounds=1, iterations=1)
    assert len(collusion.graph) > 0
