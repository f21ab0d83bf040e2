"""The rollout-off identity contract: no controller, no behaviour change.

In the style of ``tests/test_obs_identity.py``: the drift/rollout
machinery of this PR must be invisible unless a controller is attached.
With ``rollout=None`` the service walks the exact seed code paths —
batched scoring stays batched, the cache is version-blind, responses
carry ``model_version == 0``, and the report summary prints no model
lines.  And a *steady* controller (champion = the same cascade, nobody
on probation) may stamp versions but must not change a single verdict.

Worlds are private per run: serving mutates transport state, so every
comparison rebuilds from the same config.
"""

from __future__ import annotations

from repro.config import ScaleConfig, ServiceConfig
from repro.core.pipeline import FrappePipeline
from repro.service import (
    LoadProfile,
    ModelRegistry,
    RolloutController,
    generate_requests,
    make_service,
)

CHAOS = dict(scale=0.01, master_seed=424242, fault_rate=0.2)


def serve_run(attach):
    """A fresh chaos pipeline + batched serve; ``attach`` mounts the
    (possibly absent) rollout controller onto the built service."""
    result = FrappePipeline(ScaleConfig(**CHAOS)).run(sweep_unlabelled=False)
    service = make_service(
        result, ServiceConfig(batch_max=4, max_queue_depth=8)
    )
    attach(service)
    profile = LoadProfile(n_requests=40, rate_rps=0.5, pool_size=12, seed=7)
    requests = generate_requests(sorted(result.bundle.d_sample), profile)
    report = service.serve(requests)
    return service, report


def steady_controller(service):
    """Champion = the service's own cascade; no canary ever starts."""
    registry = ModelRegistry()
    champion = registry.register(service.cascade, note="steady champion")
    service.rollout = RolloutController(registry, champion.version)


def response_image(report, with_version=True):
    return [
        (
            r.app_id, r.outcome, r.rung, r.verdict, r.cache_state,
            r.latency_s, r.batch_size,
        )
        + ((r.model_version,) if with_version else ())
        for r in report.responses
    ]


def test_rollout_off_runs_are_byte_identical():
    _, first = serve_run(attach=lambda service: None)
    _, second = serve_run(attach=lambda service: None)
    assert response_image(first) == response_image(second)
    assert first.summary() == second.summary()
    assert first.transport == second.transport


def test_rollout_off_is_version_free():
    service, report = serve_run(attach=lambda service: None)
    assert service.rollout is None
    assert all(r.model_version == 0 for r in report.responses)
    assert report.rollout == {}
    # The summary stays in its seed shape: no model/rollout lines.
    assert "model v" not in report.summary()
    assert "rollout:" not in report.summary()
    # The version-blind cache never evicts on version.
    assert service.cache.version_evictions == 0
    assert report.version_outcome_counts().keys() <= {0}


def test_steady_controller_changes_no_verdicts():
    """Versions are bookkeeping: with the same model as champion and no
    canary, every outcome/rung/verdict/latency matches rollout=None."""
    _, bare = serve_run(attach=lambda service: None)
    service, steady = serve_run(attach=steady_controller)
    assert response_image(steady, with_version=False) == response_image(
        bare, with_version=False
    )
    # Only the stamp differs: overload/deadline answers keep version 0,
    # everything the champion rendered says so.
    assert {r.model_version for r in steady.responses} <= {0, 1}
    assert any(r.model_version == 1 for r in steady.responses)
    assert service.cache.version_evictions == 0
    assert not service.rollout.incidents
    assert not service.rollout.promotions


def test_steady_summary_gains_only_model_lines():
    _, bare = serve_run(attach=lambda service: None)
    _, steady = serve_run(attach=steady_controller)
    bare_lines = bare.summary().splitlines()
    steady_lines = [
        line
        for line in steady.summary().splitlines()
        if not line.startswith(("model v", "rollout:"))
    ]
    assert steady_lines == bare_lines
