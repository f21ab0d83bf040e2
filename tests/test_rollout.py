"""The champion–challenger rollout: gates, canary, rollback, coherence.

Unit tests of :mod:`repro.service.rollout` plus an end-to-end serve run
with an injected bad canary, asserting the satellite contracts: the
health gate rolls the bad model back, the incident lands on the trace
and in the per-model-version :class:`ServiceReport` tallies, and the
verdict cache never serves anything the bad model touched.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ScaleConfig, ServiceConfig
from repro.core.pipeline import FrappePipeline
from repro.obs import TracingObserver, observation
from repro.service import (
    CacheEntry,
    LoadProfile,
    ModelRegistry,
    RolloutConfig,
    RolloutController,
    VerdictCache,
    generate_requests,
    make_service,
)


class FixedModel:
    """Predicts a constant label; accuracy is the class prevalence."""

    def __init__(self, label: int) -> None:
        self.label = label

    def predict(self, x):
        return np.full(len(x), self.label, dtype=int)


def make_controller(config=None, champion=FixedModel(0)):
    registry = ModelRegistry()
    registry.register(champion, note="champion")
    return RolloutController(registry, 1, config)


# -- registry ------------------------------------------------------------


def test_registry_is_append_only_and_versions_start_at_one():
    registry = ModelRegistry()
    first = registry.register("model-a")
    second = registry.register("model-b", trained_day=30, note="retrain")
    assert (first.version, second.version) == (1, 2)
    assert registry.versions() == [1, 2]
    assert 2 in registry and 3 not in registry
    assert registry.get(2).note == "retrain"
    with pytest.raises(KeyError):
        registry.get(0)  # 0 is reserved for the static model


def test_config_validation():
    with pytest.raises(ValueError):
        RolloutConfig(canary_fraction=0.0)
    with pytest.raises(ValueError):
        RolloutConfig(canary_requests=0)
    with pytest.raises(ValueError):
        RolloutConfig(min_canary_sample=0)


# -- promotion gate ------------------------------------------------------


def test_promotion_gate_compares_holdout_accuracy():
    controller = make_controller()
    better = controller.registry.register(FixedModel(1))
    x = np.zeros((10, 2))
    y = np.array([1] * 7 + [0] * 3)  # champion(0): 0.3, challenger(1): 0.7
    assert controller.evaluate_challenger(better.version, x, y)
    y_flipped = 1 - y
    assert not controller.evaluate_challenger(better.version, x, y_flipped)


def test_only_one_canary_at_a_time():
    controller = make_controller()
    challenger = controller.registry.register(FixedModel(1))
    controller.start_canary(challenger.version, t=1.0)
    with pytest.raises(RuntimeError):
        controller.start_canary(challenger.version, t=2.0)
    with pytest.raises(KeyError):
        make_controller().start_canary(99)


def test_record_canary_requires_a_canary():
    with pytest.raises(RuntimeError):
        make_controller().record_canary(True, True, t=0.0)


# -- traffic assignment --------------------------------------------------


def test_assignment_is_deterministic_and_split():
    config = RolloutConfig(canary_fraction=0.3)
    app_ids = [f"app-{i:04d}" for i in range(400)]

    def assignments():
        controller = make_controller(config)
        challenger = controller.registry.register(FixedModel(1))
        controller.start_canary(challenger.version)
        return [controller.assign(app_id) for app_id in app_ids]

    first, second = assignments(), assignments()
    assert first == second  # bit-identical across controllers
    canary_share = sum(1 for v in first if v == 2) / len(first)
    assert 0.2 < canary_share < 0.4
    # Without a canary everything is the champion's.
    steady = make_controller(config)
    assert {steady.assign(app_id) for app_id in app_ids} == {1}


# -- the health gate -----------------------------------------------------


def promote_path(controller):
    outcome = "canary"
    while outcome == "canary":
        outcome = controller.record_canary(False, False, t=1.0)
    return outcome


def test_agreeing_canary_is_promoted():
    controller = make_controller(RolloutConfig(canary_requests=12))
    challenger = controller.registry.register(FixedModel(0))
    controller.start_canary(challenger.version, t=0.0)
    assert promote_path(controller) == "promoted"
    assert controller.champion.version == 2
    assert controller.canary is None
    assert controller.promotions == [(1.0, 2)]
    assert controller.consume_flush() is True
    assert controller.consume_flush() is False  # exactly once


def test_disagreeing_canary_is_rolled_back_with_incident():
    config = RolloutConfig(canary_requests=50, min_canary_sample=5)
    controller = make_controller(config)
    challenger = controller.registry.register(FixedModel(1))
    controller.start_canary(challenger.version, t=0.0)
    outcome = "canary"
    scored = 0
    while outcome == "canary":
        outcome = controller.record_canary(True, False, t=3.0)
        scored += 1
    assert outcome == "rolled_back"
    assert scored == config.min_canary_sample  # gate armed exactly there
    assert controller.champion.version == 1  # champion restored
    (incident,) = controller.incidents
    assert incident.canary_version == 2
    assert incident.restored_version == 1
    assert "disagreement" in incident.reason
    assert controller.consume_flush() is True


def test_trigger_happy_canary_trips_the_positive_excess_gate():
    """Agreement alone is not health: a canary whose positives vastly
    exceed the champion's shadow rate is pathological."""
    config = RolloutConfig(
        canary_requests=50,
        min_canary_sample=5,
        max_disagreement=1.1,  # disarm the disagreement gate
        max_positive_excess=0.5,
    )
    controller = make_controller(config)
    challenger = controller.registry.register(FixedModel(1))
    controller.start_canary(challenger.version, t=0.0)
    outcome = "canary"
    while outcome == "canary":
        outcome = controller.record_canary(True, False, t=4.0)
    assert outcome == "rolled_back"
    (incident,) = controller.incidents
    assert "positive excess" in incident.reason


def test_early_disagreement_does_not_kill_a_healthy_canary():
    config = RolloutConfig(canary_requests=20, min_canary_sample=10)
    controller = make_controller(config)
    challenger = controller.registry.register(FixedModel(0))
    controller.start_canary(challenger.version, t=0.0)
    # One early disagreement, then agreement: the gate must wait for
    # min_canary_sample and by then the rate has diluted below 0.25.
    assert controller.record_canary(True, False, t=0.0) == "canary"
    outcome = "canary"
    while outcome == "canary":
        outcome = controller.record_canary(False, False, t=1.0)
    assert outcome == "promoted"


def test_rollout_counters_reach_the_metrics_registry():
    observer = TracingObserver()
    with observation(observer):
        test_disagreeing_canary_is_rolled_back_with_incident()
    assert observer.metrics.counter_value("rollout_rollbacks_total") == 1.0


# -- cache coherence -----------------------------------------------------


def entry(app_id, version, negative=False):
    return CacheEntry(
        app_id=app_id,
        verdict=True,
        risk_score=0.9,
        confidence="high",
        rung="full",
        negative=negative,
        model_version=version,
    )


def test_lookup_evicts_entries_from_retired_models():
    cache = VerdictCache()
    cache.store(entry("a", version=1), now_s=0.0)
    state, hit = cache.lookup("a", now_s=1.0, model_version=1)
    assert state == "fresh" and hit is not None
    state, hit = cache.lookup("a", now_s=1.0, model_version=2)
    assert state == "miss" and hit is None
    assert cache.version_evictions == 1
    assert "a" not in cache
    # Version-blind lookup (no rollout attached) never evicts.
    cache.store(entry("b", version=3), now_s=0.0)
    state, hit = cache.lookup("b", now_s=1.0)
    assert state == "fresh" and hit is not None
    assert cache.version_evictions == 1


def test_retain_version_flushes_negative_entries_too():
    cache = VerdictCache()
    cache.store(entry("keep", version=2), now_s=0.0)
    cache.store(entry("old", version=1), now_s=0.0)
    cache.store(entry("removed", version=1, negative=True), now_s=0.0)
    flushed = cache.retain_version(2)
    assert flushed == 2
    assert "keep" in cache and "old" not in cache and "removed" not in cache
    assert cache.version_evictions == 2
    assert cache.snapshot()["version_evictions"] == 2


# -- end to end: a bad canary against the real service -------------------

SCALE = dict(scale=0.01, master_seed=424242)


def serve_with_canary(kind: str, observer=None):
    from repro.cli import _build_canary_rollout

    with observation(observer):
        result = FrappePipeline(ScaleConfig(**SCALE)).run(
            sweep_unlabelled=False
        )
        service = make_service(result, ServiceConfig(max_queue_depth=12))
        service.rollout = _build_canary_rollout(service, kind)
        profile = LoadProfile(
            n_requests=60, rate_rps=0.2, pool_size=20, seed=7
        )
        requests = generate_requests(sorted(result.bundle.d_sample), profile)
        report = service.serve(requests)
    return service, report


def test_bad_canary_is_rolled_back_end_to_end():
    observer = TracingObserver()
    service, report = serve_with_canary("bad", observer)
    controller = service.rollout

    # The health gate fired and the champion was restored.
    (incident,) = controller.incidents
    assert incident.canary_version == 2
    assert controller.champion.version == 1
    assert report.rollout["rollbacks"] == 1
    assert report.rollout["champion"] == 1

    # The rollback is visible on the trace and in the counters.
    assert observer.metrics.counter_value("rollout_rollbacks_total") == 1.0

    # Per-version tallies: the bad model served some verdicts before
    # the gate tripped, the champion served the rest, and the summary
    # renders both.
    versions = report.version_outcome_counts()
    assert incident.canary_version in versions
    assert versions[incident.canary_version]["served"] >= 1
    assert versions[1]["served"] >= 1
    assert "model v1:" in report.summary()
    assert "rollout:" in report.summary()

    # Cache coherence: nothing the bad model scored survives, so no
    # response after the rollback carries its version.
    rolled_back_at = incident.t
    assert all(
        response.model_version != incident.canary_version
        for response in report.responses
        if response.started_s > rolled_back_at
    )
    assert service.cache.version_evictions >= 0
    for app_id in list(getattr(service.cache, "_entries", {})):
        assert service.cache._entries[app_id].model_version == 1


def test_good_canary_is_promoted_end_to_end():
    service, report = serve_with_canary("good")
    controller = service.rollout
    assert not controller.incidents
    assert controller.promotions
    assert controller.champion.version == 2
    assert report.rollout["promotions"] == 1
    versions = report.version_rung_counts()
    assert set(versions) <= {1, 2}


@pytest.mark.parametrize("kind", ["bad", "good"])
def test_risk_score_agrees_with_the_verdict_under_a_rollout(kind):
    # The risk score comes from the model that rendered the verdict,
    # canary or champion, never from the static cascade.
    _, report = serve_with_canary(kind)
    rendered = [r for r in report.responses if r.verdict is not None]
    assert any(r.model_version == 2 for r in rendered)
    for response in rendered:
        assert response.verdict == (response.risk_score > 50.0), response
