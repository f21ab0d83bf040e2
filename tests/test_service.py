"""The online verdict service: admission, cache, bulkheads, degradation.

Unit tests for the service's parts (queue, cache, bulkhead, typed
request/response values) plus end-to-end behaviour on a private small
world — the shared session fixtures are *not* used because serving
advances the world's installer RNG, and these tests need worlds whose
state they fully own.
"""

from __future__ import annotations

import pytest

from repro.config import ScaleConfig, ServiceConfig
from repro.core.pipeline import FrappePipeline
from repro.crawler.resilience import CircuitBreaker, ResilientExecutor, RetryPolicy
from repro.platform.transport import TransportStats
from repro.service import (
    BULK,
    DEADLINE,
    INTERACTIVE,
    REFRESH,
    RUNG_CACHED,
    RUNG_FULL,
    RUNG_STALE,
    SERVED,
    AdmissionQueue,
    Bulkhead,
    CacheEntry,
    ScoreRequest,
    VerdictCache,
    make_service,
)
from repro.service.cache import EXPIRED, FRESH, MISS, STALE


def request(
    app_id: str = "app",
    priority: str = INTERACTIVE,
    sequence: int = 0,
    arrival_s: float = 0.0,
    deadline_s: float = 60.0,
) -> ScoreRequest:
    return ScoreRequest(
        app_id=app_id,
        arrival_s=arrival_s,
        deadline_s=deadline_s,
        priority=priority,
        sequence=sequence,
    )


def entry(app_id: str = "app", negative: bool = False) -> CacheEntry:
    return CacheEntry(
        app_id=app_id,
        verdict=True,
        risk_score=90.0,
        confidence="high",
        rung=RUNG_FULL,
        negative=negative,
    )


@pytest.fixture(scope="module")
def clean_result():
    """A private fault-free pipeline (module-owned; serving mutates it)."""
    return FrappePipeline(
        ScaleConfig(scale=0.01, master_seed=424242, fault_rate=0.0)
    ).run(sweep_unlabelled=False)


class TestScoreRequest:
    def test_deadline_and_rank(self):
        r = request(priority=BULK, arrival_s=10.0, deadline_s=5.0)
        assert r.deadline_at == pytest.approx(15.0)
        assert r.rank == 1
        assert not r.internal

    def test_refresh_is_internal(self):
        assert request(priority=REFRESH).internal

    def test_validation(self):
        with pytest.raises(ValueError):
            request(priority="vip")
        with pytest.raises(ValueError):
            request(deadline_s=0.0)


class TestAdmissionQueue:
    def test_depth_never_exceeds_bound(self):
        queue = AdmissionQueue(max_depth=3)
        for i in range(10):
            queue.offer(request(f"a{i}", sequence=i))
        assert len(queue) == 3
        assert queue.max_depth_seen == 3

    def test_full_queue_of_equals_rejects_the_arrival(self):
        queue = AdmissionQueue(max_depth=2)
        queue.offer(request("a", sequence=0))
        queue.offer(request("b", sequence=1))
        arrival = request("c", sequence=2)
        assert queue.offer(arrival) == [arrival]
        assert queue.shed_counts[INTERACTIVE] == 1

    def test_interactive_evicts_the_youngest_bulk(self):
        queue = AdmissionQueue(max_depth=3)
        old_bulk = request("b0", priority=BULK, sequence=0)
        young_bulk = request("b1", priority=BULK, sequence=1)
        queue.offer(old_bulk)
        queue.offer(young_bulk)
        queue.offer(request("i0", sequence=2))
        shed = queue.offer(request("i1", sequence=3))
        assert shed == [young_bulk]  # youngest lower-priority entry goes
        assert queue.shed_counts[BULK] == 1
        assert queue.shed_counts[INTERACTIVE] == 0
        assert len(queue) == 3

    def test_refresh_is_shed_before_bulk(self):
        queue = AdmissionQueue(max_depth=2)
        refresh = request("r", priority=REFRESH, sequence=0)
        bulk = request("b", priority=BULK, sequence=1)
        queue.offer(refresh)
        queue.offer(bulk)
        assert queue.offer(request("b2", priority=BULK, sequence=2)) == [refresh]
        assert queue.depth_of(BULK) == 2

    def test_bulk_cannot_displace_interactive(self):
        queue = AdmissionQueue(max_depth=1)
        queue.offer(request("i", sequence=0))
        bulk = request("b", priority=BULK, sequence=1)
        assert queue.offer(bulk) == [bulk]

    def test_pop_is_priority_then_fifo(self):
        queue = AdmissionQueue(max_depth=8)
        queue.offer(request("b0", priority=BULK, sequence=0))
        queue.offer(request("i0", sequence=1))
        queue.offer(request("r0", priority=REFRESH, sequence=2))
        queue.offer(request("i1", sequence=3))
        assert [queue.pop().app_id for _ in range(4)] == ["i0", "i1", "b0", "r0"]
        with pytest.raises(IndexError):
            queue.pop()

    def test_shed_rate_accounting(self):
        queue = AdmissionQueue(max_depth=1)
        queue.offer(request("a", sequence=0))
        queue.offer(request("b", sequence=1))
        assert queue.shed_rate(INTERACTIVE) == pytest.approx(0.5)
        assert queue.shed_rate(BULK) == 0.0
        assert queue.total_shed() == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionQueue(max_depth=0)


class TestVerdictCache:
    def cache(self) -> VerdictCache:
        return VerdictCache(ttl_s=100.0, stale_ttl_s=300.0, negative_ttl_s=1000.0)

    def test_fresh_within_ttl(self):
        cache = self.cache()
        cache.store(entry(), now_s=0.0)
        state, found = cache.lookup("app", now_s=100.0)
        assert state == FRESH
        assert found is not None and found.verdict is True
        assert cache.hits_fresh == 1

    def test_stale_between_ttls(self):
        cache = self.cache()
        cache.store(entry(), now_s=0.0)
        state, found = cache.lookup("app", now_s=200.0)
        assert state == STALE
        assert found is not None
        assert cache.hits_stale == 1

    def test_expired_past_stale_ttl_counts_as_miss(self):
        cache = self.cache()
        cache.store(entry(), now_s=0.0)
        state, found = cache.lookup("app", now_s=301.0)
        assert state == EXPIRED
        assert cache.misses == 1
        # ... but the last resort still surfaces it for the ladder.
        assert cache.last_resort("app") is found

    def test_unknown_app_is_a_miss(self):
        cache = self.cache()
        assert cache.lookup("ghost", now_s=0.0) == (MISS, None)
        assert cache.last_resort("ghost") is None

    def test_negative_entries_use_the_long_ttl_and_skip_stale(self):
        cache = self.cache()
        cache.store(entry(negative=True), now_s=0.0)
        # Fresh far past the positive TTLs...
        assert cache.state_of(cache.last_resort("app"), now_s=900.0) == FRESH
        # ...and expired (not stale) once the negative TTL runs out:
        # a removal needs no revalidation, only eventual expiry.
        assert cache.state_of(cache.last_resort("app"), now_s=1001.0) == EXPIRED

    def test_revalidation_is_single_flight(self):
        cache = self.cache()
        assert cache.begin_revalidation("app")
        assert not cache.begin_revalidation("app")
        cache.abandon_revalidation("app")
        assert cache.begin_revalidation("app")
        cache.store(entry(), now_s=0.0)  # a store resolves the flight
        assert cache.begin_revalidation("app")

    def test_hit_rate(self):
        cache = self.cache()
        assert cache.hit_rate() == 0.0
        cache.store(entry(), now_s=0.0)
        cache.lookup("app", 10.0)
        cache.lookup("ghost", 10.0)
        assert cache.hit_rate() == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            VerdictCache(ttl_s=100.0, stale_ttl_s=50.0)


class TestBulkhead:
    def bulkhead(self, **fractions) -> Bulkhead:
        executor = ResilientExecutor(RetryPolicy(), TransportStats())
        return Bulkhead(fractions or {"summary": 0.5}, executor)

    def test_endpoint_gets_its_fraction_of_the_remaining_budget(self):
        bulkhead = self.bulkhead(summary=0.5)
        assert bulkhead.endpoint_deadline(
            "summary", now_s=10.0, deadline_at=110.0
        ) == pytest.approx(60.0)

    def test_unknown_endpoint_gets_the_whole_budget(self):
        bulkhead = self.bulkhead(summary=0.5)
        assert bulkhead.endpoint_deadline(
            "feed", now_s=10.0, deadline_at=110.0
        ) == pytest.approx(110.0)

    def test_never_past_the_overall_deadline(self):
        bulkhead = self.bulkhead(summary=1.0)
        assert bulkhead.endpoint_deadline(
            "summary", now_s=200.0, deadline_at=110.0
        ) == pytest.approx(110.0)

    def test_open_endpoints_reports_open_breakers(self):
        executor = ResilientExecutor(RetryPolicy(), TransportStats())
        bulkhead = Bulkhead({"summary": 0.5}, executor)
        breaker = bulkhead.breaker("summary")
        assert bulkhead.open_endpoints(now_s=0.0) == ()
        for _ in range(breaker.failure_threshold):
            breaker.record_failure(now_s=0.0)
        assert bulkhead.open_endpoints(now_s=0.0) == ("summary",)
        # Past the cooldown the endpoint is probe-able again.
        assert bulkhead.open_endpoints(now_s=breaker.cooldown_s + 1.0) == ()

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            self.bulkhead(summary=0.0)
        with pytest.raises(ValueError):
            self.bulkhead(summary=1.5)


class TestServiceConfig:
    def test_deadline_for_priority(self):
        config = ServiceConfig()
        assert config.deadline_for(INTERACTIVE) == config.interactive_deadline_s
        assert config.deadline_for(BULK) == config.bulk_deadline_s
        assert config.deadline_for(REFRESH) == config.refresh_deadline_s

    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(max_queue_depth=0)
        with pytest.raises(ValueError):
            ServiceConfig(cache_ttl_s=100.0, cache_stale_ttl_s=10.0)


class TestVerdictServiceOneShot:
    """End-to-end scoring on a private fault-free world."""

    def test_fault_free_verdicts_match_the_batch_classifier(self, clean_result):
        # The tentpole invariant: fault_rate == 0, cold cache, one
        # request at a time -> bit-identical to FrappeCascade.predict
        # on the records the service crawled.
        service = make_service(clean_result)
        cascade = service._cascade
        sample = sorted(clean_result.bundle.d_sample)[:20]
        for app_id in sample:
            response = service.score(app_id)
            assert response.outcome == SERVED
            assert response.rung == RUNG_FULL  # no faults -> never degraded
            assert response.cache_state == "miss"
            assert response.record is not None
            expected = int(cascade.predict([response.record])[0])
            assert response.verdict == bool(expected)

    def test_second_call_is_a_fresh_cache_hit(self, clean_result):
        service = make_service(clean_result)
        app_id = sorted(clean_result.bundle.d_sample)[0]
        first = service.score(app_id)
        requests_after_first = service.stats.requests
        second = service.score(app_id)
        assert second.outcome == SERVED
        assert second.rung == RUNG_CACHED
        assert second.cache_state == "fresh"
        assert second.verdict == first.verdict
        assert second.attempts == 0
        assert service.stats.requests == requests_after_first  # no crawl
        assert second.latency_s < first.latency_s

    def test_stale_serves_immediately_and_revalidates_in_background(
        self, clean_result
    ):
        config = ServiceConfig(cache_ttl_s=50.0, cache_stale_ttl_s=100_000.0)
        service = make_service(clean_result, config)
        app_id = sorted(clean_result.bundle.d_sample)[0]
        first = service.score(app_id)
        service.stats.add_wait(60.0)  # age the entry past ttl, not stale_ttl
        stale = service.score(app_id)
        assert stale.rung == RUNG_STALE
        assert stale.cache_state == "stale"
        assert stale.confidence == "stale"
        assert stale.verdict == first.verdict
        assert stale.attempts == 0  # the client never waited on a crawl
        # score() drained the scheduled background refresh, so the entry
        # is fresh again — revalidation happened off the client's path.
        third = service.score(app_id)
        assert third.rung == RUNG_CACHED
        assert third.cache_state == "fresh"

    def test_permanent_removal_is_negative_cached(self, clean_result):
        world = clean_result.world
        gone = [
            app_id
            for app_id in sorted(clean_result.bundle.d_sample)
            if (app := world.registry.get(app_id)).deleted_day is not None
            and app.deleted_day <= world.schedule.summary_crawl_day
        ]
        assert gone, "the small world should contain pre-crawl removals"
        service = make_service(clean_result)
        first = service.score(gone[0])
        assert first.outcome == SERVED
        stored = service.cache.last_resort(gone[0])
        assert stored is not None and stored.negative
        second = service.score(gone[0])
        assert second.rung == RUNG_CACHED
        assert second.cache_state == "negative"
        assert second.verdict == first.verdict
        # Negative entries stay fresh far beyond the positive TTL.
        far = service.now_s + service.config.cache_ttl_s * 2
        assert service.cache.state_of(stored, far) == FRESH

    def test_tiny_deadline_degrades_instead_of_failing(self, clean_result):
        # A deadline smaller than one crawl can ever fit still yields a
        # typed, served (degraded) response — never an exception.
        service = make_service(clean_result)
        app_id = sorted(clean_result.bundle.d_sample)[1]
        response = service.score(app_id, deadline_s=0.5)
        assert response.outcome == SERVED
        assert response.rung != RUNG_FULL
        assert "gave up" in response.reason
        record = response.record
        assert record is not None
        assert any(
            "deadline" in outcome.faults
            for outcome in record.outcomes.values()
        )

    def test_failed_crawl_serves_the_last_cached_verdict(self, clean_result):
        # An expired entry is not served as a hit, but when the live
        # crawl cannot support even FRAppE Lite it beats advising from
        # nothing: same score and advisories, confidence "stale".
        service = make_service(clean_result)
        app_id = sorted(clean_result.bundle.d_sample_malicious)[0]
        first = service.score(app_id)
        assert first.rung == RUNG_FULL and first.advisories
        cached = service.cache.last_resort(app_id)
        service.stats.add_wait(service.config.cache_stale_ttl_s + 1.0)
        response = service.score(app_id, deadline_s=0.5)
        assert response.cache_state == "expired"
        assert response.rung == RUNG_STALE
        assert response.confidence == "stale"
        assert response.verdict == first.verdict
        assert response.risk_score == cached.risk_score == first.risk_score
        assert response.advisories is cached.advisories
        assert "serving the last cached verdict" in response.reason

    def test_queue_aged_requests_expire_with_a_typed_outcome(self, clean_result):
        service = make_service(clean_result)
        app_id = sorted(clean_result.bundle.d_sample)[0]
        aged = ScoreRequest(
            app_id=app_id, arrival_s=0.0, deadline_s=5.0, sequence=1
        )
        service.stats.add_wait(10.0)  # the worker got to it too late
        [response] = service.serve([aged]).responses
        assert response.outcome == DEADLINE
        assert response.verdict is None
        assert "expired" in response.reason

    def test_breakers_are_shared_with_the_bulkhead(self, clean_result):
        service = make_service(clean_result)
        executor = service._crawler.executor
        for endpoint in ("summary", "feed", "install"):
            assert service._bulkhead.breaker(endpoint) is executor.breakers[endpoint]
            assert (
                executor.breakers[endpoint].failure_threshold
                == service.config.breaker_failure_threshold
            )

    def test_breaker_objects_survive(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown_s=10.0)
        snapshot = breaker.snapshot()
        assert snapshot["probe_in_flight"] is False
