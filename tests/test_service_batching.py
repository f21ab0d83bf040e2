"""Batched serving: drain-compatible requests, score them in one pass.

The contract has two halves.  **Exactness**: ``batch_max=1`` serves
one request per tick, ``pop_batch(1)`` is exactly ``[pop()]``, and
``FrappeCascade.score_batch`` routes and scores each record
bit-identically to ``score_record``.  **Batching**: with
``batch_max>1`` a tick drains up to that many queued requests in
strict priority order — filling across lanes, exactly the order that
many consecutive ``pop`` calls would return — pays the scoring cost
once, and stamps every response of the batch with the drained size.
"""

from __future__ import annotations

import pytest

from repro.config import ScaleConfig, ServiceConfig
from repro.core.frappe import FrappeCascade
from repro.core.pipeline import FrappePipeline
from repro.service import (
    BULK,
    INTERACTIVE,
    SERVED,
    AdmissionQueue,
    ScoreRequest,
    make_service,
)


@pytest.fixture(scope="module")
def clean_result():
    """A private fault-free pipeline (module-owned; serving mutates it)."""
    return FrappePipeline(
        ScaleConfig(scale=0.01, master_seed=424242, fault_rate=0.0)
    ).run(sweep_unlabelled=False)


def request(app_id, priority=INTERACTIVE, sequence=0):
    return ScoreRequest(
        app_id=app_id, arrival_s=0.0, deadline_s=600.0,
        priority=priority, sequence=sequence,
    )


# -- AdmissionQueue.pop_batch ------------------------------------------------


class TestPopBatch:
    def queue(self, depth: int = 16) -> AdmissionQueue:
        return AdmissionQueue(max_depth=depth)

    def fill(self, queue, specs):
        for sequence, (app_id, priority) in enumerate(specs):
            assert queue.offer(request(app_id, priority, sequence)) == []

    def test_pop_batch_one_is_exactly_pop(self):
        specs = [("a", BULK), ("b", INTERACTIVE), ("c", INTERACTIVE)]
        via_pop, via_batch = self.queue(), self.queue()
        self.fill(via_pop, specs)
        self.fill(via_batch, specs)
        while len(via_pop):
            assert via_batch.pop_batch(1) == [via_pop.pop()]
        assert len(via_batch) == 0

    def test_batch_fills_across_lanes_in_priority_order(self):
        """A batch drains lanes in strict priority order, FIFO within."""
        queue = self.queue()
        self.fill(queue, [("a", BULK), ("b", INTERACTIVE), ("c", BULK)])
        batch = queue.pop_batch(10)
        assert [r.app_id for r in batch] == ["b", "a", "c"]
        assert len(queue) == 0

    def test_batch_limit_respected_across_lanes(self):
        """The cross-lane fill stops exactly at the limit."""
        queue = self.queue()
        self.fill(queue, [("a", BULK), ("b", INTERACTIVE), ("c", BULK)])
        assert [r.app_id for r in queue.pop_batch(2)] == ["b", "a"]
        assert [r.app_id for r in queue.pop_batch(2)] == ["c"]

    def test_batch_order_is_exactly_repeated_pop(self):
        """pop_batch(k) returns what k consecutive pop() calls would."""
        specs = [
            ("a", BULK), ("b", INTERACTIVE), ("c", BULK),
            ("d", INTERACTIVE), ("e", BULK),
        ]
        via_pop, via_batch = self.queue(), self.queue()
        self.fill(via_pop, specs)
        self.fill(via_batch, specs)
        reference = [via_pop.pop() for _ in range(len(specs))]
        assert via_batch.pop_batch(len(specs)) == reference

    def test_shed_semantics_preserved_after_cross_lane_drain(self):
        """Draining across lanes does not disturb admission/shedding."""
        queue = self.queue(depth=2)
        self.fill(queue, [("a", BULK), ("b", INTERACTIVE)])
        # full queue: a bulk arrival is itself shed, an interactive
        # arrival displaces the youngest bulk entry — unchanged
        rejected = queue.offer(request("c", BULK, 2))
        assert [r.app_id for r in rejected] == ["c"]
        evicted = queue.offer(request("d", INTERACTIVE, 3))
        assert [r.app_id for r in evicted] == ["a"]
        assert [r.app_id for r in queue.pop_batch(10)] == ["b", "d"]
        assert queue.snapshot()["total_shed"] == 2

    def test_batch_preserves_fifo_order_within_a_lane(self):
        queue = self.queue()
        self.fill(queue, [(f"app{i}", INTERACTIVE) for i in range(5)])
        batch = queue.pop_batch(3)
        assert [r.app_id for r in batch] == ["app0", "app1", "app2"]
        assert [r.app_id for r in queue.pop_batch(3)] == ["app3", "app4"]

    def test_empty_queue_raises(self):
        with pytest.raises(IndexError):
            self.queue().pop_batch(4)

    def test_limit_validated(self):
        with pytest.raises(ValueError):
            self.queue().pop_batch(0)


# -- FrappeCascade.score_batch ----------------------------------------------


def test_score_batch_of_one_is_bit_identical(clean_result):
    records, labels = clean_result.sample_records()
    cascade = FrappeCascade(clean_result.extractor).fit(records, labels)
    for record in records[:20]:
        assert cascade.score_batch([record]) == [cascade.score_record(record)]


def test_score_batch_matches_score_record(clean_result):
    """Batched scoring routes and decides exactly like per-record scoring.

    Predictions and tiers are equal; margins agree to float noise only
    (a multi-row BLAS matmul and a single-row matvec round differently
    in the last ulp), which is why the service's bit-identity contract
    is stated at batch size 1.
    """
    records, labels = clean_result.sample_records()
    cascade = FrappeCascade(clean_result.extractor).fit(records, labels)
    batch = records[:40]
    scored = cascade.score_batch(batch)
    reference = [cascade.score_record(record) for record in batch]
    for (got_p, got_m, got_t), (want_p, want_m, want_t) in zip(scored, reference):
        assert (got_p, got_t) == (want_p, want_t)
        assert got_m == pytest.approx(want_m, abs=1e-12)


# -- the batched service ----------------------------------------------------


def _serve(result, batch_max, app_ids):
    service = make_service(result, ServiceConfig(batch_max=batch_max))
    requests = [request(a, sequence=i) for i, a in enumerate(app_ids)]
    return service, service.serve(requests)


def test_unbatched_serving_is_deterministic(clean_result):
    apps = sorted(clean_result.bundle.d_sample)[:12]
    _, first = _serve(clean_result, 1, apps)
    _, second = _serve(clean_result, 1, apps)

    def image(report):
        return [
            {**vars(response), "record": None}
            for response in report.responses
        ]

    assert image(first) == image(second)
    assert all(r.batch_size == 1 for r in first.responses)


def test_batched_ticks_drain_and_stamp_the_batch(clean_result):
    apps = sorted(clean_result.bundle.d_sample)[:12]
    _, report = _serve(clean_result, 4, apps)
    assert len(report.responses) == len(apps)
    # all requests share arrival 0, so the queue is deep from the first
    # tick and batches of the configured size must occur
    assert max(r.batch_size for r in report.responses) == 4
    assert all(1 <= r.batch_size <= 4 for r in report.responses)
    assert report.outcome_counts()[SERVED] == len(apps)


def test_batched_verdicts_match_the_batch_classifier(clean_result):
    apps = sorted(clean_result.bundle.d_sample)[:12]
    service, report = _serve(clean_result, 4, apps)
    cascade = service._cascade
    for response in report.responses:
        assert response.outcome == SERVED
        assert response.record is not None
        expected = int(cascade.predict([response.record])[0])
        assert response.verdict == bool(expected)


def test_batch_size_one_and_batched_agree_on_verdicts(clean_result):
    apps = sorted(clean_result.bundle.d_sample)[:12]
    _, unbatched = _serve(clean_result, 1, apps)
    _, batched = _serve(clean_result, 4, apps)
    by_app_unbatched = {r.app_id: r.verdict for r in unbatched.responses}
    by_app_batched = {r.app_id: r.verdict for r in batched.responses}
    assert by_app_batched == by_app_unbatched
