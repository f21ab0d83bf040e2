"""Adaptive continuous batching and the overlapped service core.

Contracts under test:

* :func:`plan_batch` is a pure, deterministic function of queue state:
  the batch grows with depth, caps at ``batch_max``, and shrinks while
  the tightest deadline in the candidate batch lacks the headroom to
  absorb serving the whole batch.
* ``batch_max=1`` serves one request per tick through the same batched
  tick, byte-stable run to run (responses, summary, transport,
  canonical trace export), and attributes its score cost in the
  profile.
* At ``batch_max>1`` the adaptive service is deterministic at a fixed
  seed and reaches full batches under overload while still varying the
  size.
* Under a rollout, per-model sub-batch scoring returns exactly what
  record-by-record scoring with each request's assigned model returns.
"""

from __future__ import annotations

import math

import pytest

from repro.config import ScaleConfig, ServiceConfig
from repro.core.pipeline import FrappePipeline
from repro.obs import TracingObserver, observation
from repro.service import (
    BULK,
    INTERACTIVE,
    SERVED,
    AdmissionQueue,
    LoadProfile,
    ScoreRequest,
    estimate_capacity_rps,
    generate_requests,
    make_service,
)
from repro.service.admission import plan_batch


@pytest.fixture(scope="module")
def clean_result():
    """A private fault-free pipeline (module-owned; serving mutates it)."""
    return FrappePipeline(
        ScaleConfig(scale=0.01, master_seed=424242, fault_rate=0.0)
    ).run(sweep_unlabelled=False)


def request(app_id, arrival=0.0, deadline=600.0, priority=INTERACTIVE, seq=0):
    return ScoreRequest(
        app_id=app_id, arrival_s=arrival, deadline_s=deadline,
        priority=priority, sequence=seq,
    )


def filled_queue(specs, depth=64):
    queue = AdmissionQueue(max_depth=depth)
    for seq, spec in enumerate(specs):
        assert queue.offer(request(**spec, seq=seq)) == []
    return queue


# -- plan_batch ---------------------------------------------------------------


class TestPlanBatch:
    def test_empty_and_single_queue_plan_one(self):
        queue = AdmissionQueue(max_depth=8)
        plan = plan_batch(queue, 0.0, batch_max=8, service_estimate_s=5.0)
        assert (plan.size, plan.depth, plan.reason) == (1, 0, "depth")
        assert plan.headroom_s == math.inf
        queue.offer(request("a"))
        plan = plan_batch(queue, 0.0, batch_max=8, service_estimate_s=5.0)
        assert (plan.size, plan.depth, plan.reason) == (1, 1, "depth")

    def test_batch_grows_with_depth_up_to_the_cap(self):
        for depth, want_size, want_reason in (
            (3, 3, "depth"), (8, 8, "max"), (20, 8, "max"),
        ):
            queue = filled_queue([{"app_id": f"a{i}"} for i in range(depth)])
            plan = plan_batch(queue, 0.0, batch_max=8, service_estimate_s=5.0)
            assert (plan.size, plan.depth, plan.reason) == (
                want_size, depth, want_reason
            )

    def test_tight_headroom_shrinks_the_batch(self):
        # Four queued, but the head's deadline allows only ~2 service
        # times of slack: a 4-batch would blow it, a 2-batch fits.
        queue = filled_queue(
            [{"app_id": "urgent", "deadline": 12.0}]
            + [{"app_id": f"lax{i}"} for i in range(3)]
        )
        plan = plan_batch(queue, 0.0, batch_max=8, service_estimate_s=5.0)
        assert (plan.size, plan.reason) == (2, "headroom")
        assert plan.headroom_s == pytest.approx(12.0)

    def test_expired_head_degenerates_to_one(self):
        queue = filled_queue(
            [{"app_id": "dead", "deadline": 1.0}]
            + [{"app_id": f"lax{i}"} for i in range(5)]
        )
        plan = plan_batch(queue, 100.0, batch_max=8, service_estimate_s=5.0)
        assert (plan.size, plan.reason) == (1, "headroom")

    def test_headroom_tracks_the_tightest_not_the_head(self):
        # The urgent request sits behind a lax one in the same lane;
        # the prefix minimum must still see it.
        queue = filled_queue([
            {"app_id": "lax", "deadline": 600.0},
            {"app_id": "urgent", "deadline": 12.0},
            {"app_id": "lax2", "deadline": 600.0},
        ])
        plan = plan_batch(queue, 0.0, batch_max=8, service_estimate_s=5.0)
        assert (plan.size, plan.reason) == (2, "headroom")

    def test_planning_is_pure_and_repeatable(self):
        queue = filled_queue([{"app_id": f"a{i}"} for i in range(6)])
        before = len(queue)
        plans = [
            plan_batch(queue, 0.0, batch_max=4, service_estimate_s=5.0)
            for _ in range(3)
        ]
        assert len(queue) == before
        assert plans[0] == plans[1] == plans[2]
        assert plans[0].size == 4 and plans[0].reason == "max"


# -- batch_max=1: one request per tick ----------------------------------------


def _overload_requests(result, n_requests=48, seed=7):
    capacity = estimate_capacity_rps(result.world.schedule)
    profile = LoadProfile(
        n_requests=n_requests,
        rate_rps=capacity * 3.0,
        interactive_deadline_s=600.0,
        bulk_deadline_s=1800.0,
        pool_size=None,
        seed=seed,
    )
    return generate_requests(sorted(result.bundle.d_sample), profile)


def _serve(result, config, observer=None, n_requests=48):
    requests = _overload_requests(result, n_requests=n_requests)
    with observation(observer):
        service = make_service(result, config)
        report = service.serve(requests)
    return report


def _image(report):
    return [
        {**vars(response), "record": None} for response in report.responses
    ]


def test_batch_max_one_is_deterministic_one_request_per_tick(clean_result):
    """At ``batch_max=1`` two runs agree on responses, summary,
    transport and the canonical trace export, and no tick drains more
    than one request."""
    config = ServiceConfig(batch_max=1)
    first_obs, second_obs = TracingObserver(), TracingObserver()
    first = _serve(clean_result, config, first_obs)
    second = _serve(clean_result, config, second_obs)
    assert _image(first) == _image(second)
    assert first.summary() == second.summary()
    assert first.transport == second.transport
    assert first_obs.tracer.to_jsonl() == second_obs.tracer.to_jsonl()
    assert all(r.batch_size == 1 for r in first.responses)


def test_batch_max_one_attributes_score_cost_in_the_profile(clean_result):
    """Every live crawl at ``batch_max=1`` charges ``score_cost_s`` to
    the ``score`` profile stage, as a batched tick does."""
    config = ServiceConfig(batch_max=1)
    observer = TracingObserver()
    _serve(clean_result, config, observer)
    score = observer.profiler.snapshot()["score"]
    assert score["calls"] > 0
    assert score["sim_s"] == pytest.approx(
        config.score_cost_s * score["calls"]
    )


def test_adaptive_serving_is_deterministic_at_a_fixed_seed(clean_result):
    config = ServiceConfig(batch_max=8, max_queue_depth=64)
    first_obs, second_obs = TracingObserver(), TracingObserver()
    first = _serve(clean_result, config, first_obs)
    second = _serve(clean_result, config, second_obs)
    assert _image(first) == _image(second)
    assert first.summary() == second.summary()
    assert first_obs.tracer.to_jsonl() == second_obs.tracer.to_jsonl()


def test_overload_drives_full_and_varied_batches(clean_result):
    """Under 3x overload the controller reaches ``batch_max`` and the
    drained size actually varies over the run (it is adaptive, not a
    fixed drain)."""
    report = _serve(
        clean_result, ServiceConfig(batch_max=8, max_queue_depth=64)
    )
    sizes = {r.batch_size for r in report.responses}
    assert max(sizes) == 8
    assert len(sizes) > 1
    assert report.outcome_counts().get(SERVED, 0) > 0


def test_batch_planned_events_land_on_the_trace(clean_result):
    observer = TracingObserver()
    _serve(
        clean_result,
        ServiceConfig(batch_max=8, max_queue_depth=64),
        observer,
    )
    histogram = observer.metrics.histogram_of("serve_batch_planned")
    assert histogram is not None and histogram.count > 0
    planned = [
        event
        for root in observer.tracer.roots(categories=("serve",))
        for event in root.events
        if event.name == "serve.batch_planned"
    ]
    assert planned
    assert {event.attrs["reason"] for event in planned} <= {
        "depth", "max", "headroom",
    }


def test_deadline_budgets_still_respected_under_batching(clean_result):
    """A request whose deadline expired in the queue still gets the
    typed ``deadline`` outcome from a batched tick."""
    report = _serve(
        clean_result,
        ServiceConfig(batch_max=8, max_queue_depth=64),
        n_requests=64,
    )
    for response in report.responses:
        assert response.outcome in ("served", "overloaded", "deadline")


# -- rollout sub-batches ------------------------------------------------------


def test_rollout_sub_batches_match_record_by_record(clean_result):
    """Per-model-version sub-batch scoring is exactly record-by-record
    scoring with each request's assigned model."""
    from repro.cli import _build_canary_rollout

    config = ServiceConfig(batch_max=8, max_queue_depth=64)
    service = make_service(clean_result, config)
    service.rollout = _build_canary_rollout(service, "bad")

    apps = sorted(clean_result.bundle.d_sample)[:12]
    requests = [request(a, seq=i) for i, a in enumerate(apps)]
    records = [service._crawl_request(r) for r in requests]
    staged = [(r, None) for r in requests]
    live = [(i, 0.0, "miss") for i in range(len(requests))]

    got = service._score_live_batch(staged, live, records)

    expected = []
    for req, rec in zip(requests, records):
        cascade, version, shadow = service._select_model(req)
        prediction, margin, tier = cascade.score_record(rec)
        shadow_prediction = (
            shadow.score_record(rec)[0] if shadow is not None else None
        )
        expected.append((prediction, margin, tier, version, shadow_prediction))

    assert len(got) == len(expected)
    for (gp, gm, gt, gv, gs), (ep, em, et, ev, es) in zip(got, expected):
        assert (gp, gt, gv, gs) == (ep, et, ev, es)
        assert gm == pytest.approx(em, abs=1e-12)
    # both models actually appeared (the sub-batching was exercised)
    assert len({v for _, _, _, v, _ in got}) >= 2


def test_rollout_serve_smoke_under_adaptive_batching(clean_result):
    """A full adaptive serve with a live rollout completes with typed
    outcomes and per-version tallies."""
    from repro.cli import _build_canary_rollout

    requests = _overload_requests(clean_result, n_requests=40)
    service = make_service(
        clean_result, ServiceConfig(batch_max=8, max_queue_depth=64)
    )
    service.rollout = _build_canary_rollout(service, "good")
    report = service.serve(requests)
    assert len(report.responses) == 40
    assert report.outcome_counts().get(SERVED, 0) > 0
    assert set(report.version_outcome_counts()) >= {1}


# -- fused scoring over mixed tiers -------------------------------------------


def test_fused_score_batch_matches_per_record_on_degraded_records():
    """With transient faults the batch mixes tiers; the fused shared
    matrix must route and score each record exactly like
    ``score_record``."""
    result = FrappePipeline(
        ScaleConfig(scale=0.01, master_seed=424242, fault_rate=0.25)
    ).run(sweep_unlabelled=False)
    records, labels = result.sample_records()
    from repro.core.frappe import FrappeCascade

    cascade = FrappeCascade(result.extractor).fit(records, labels)
    tiers = {cascade.tier_of(record) for record in records}
    assert len(tiers) > 1, "fault run should produce mixed tiers"
    scored = cascade.score_batch(records)
    for record, (prediction, margin, tier) in zip(records, scored):
        want_p, want_m, want_t = cascade.score_record(record)
        assert (prediction, tier) == (want_p, want_t)
        assert margin == pytest.approx(want_m, abs=1e-12)
