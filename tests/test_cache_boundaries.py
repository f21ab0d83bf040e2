"""Verdict-cache boundary cases: exact-tick expiry and refresh races.

The stale-while-revalidate windows are closed intervals on the
simulated clock (``age <= ttl`` is fresh, ``age <= stale_ttl`` is
stale), so an entry whose age lands *exactly* on a boundary tick must
take the more-available branch — served, not expired.  And the
single-flight revalidation marker must survive every interleaving with
a negative store: a ``PERMANENT`` removal landing mid-refresh cannot
wedge the marker or resurrect the stale window.
"""

from __future__ import annotations

import pytest

from repro.config import ScaleConfig, ServiceConfig
from repro.core.pipeline import FrappePipeline
from repro.service import (
    INTERACTIVE,
    RUNG_FULL,
    RUNG_STALE,
    SERVED,
    CacheEntry,
    ScoreRequest,
    VerdictCache,
    make_service,
)
from repro.service.cache import EXPIRED, FRESH, MISS, STALE


def entry(app_id: str = "app", negative: bool = False) -> CacheEntry:
    return CacheEntry(
        app_id=app_id,
        verdict=True,
        risk_score=90.0,
        confidence="high",
        rung=RUNG_FULL,
        negative=negative,
    )


def cache() -> VerdictCache:
    return VerdictCache(ttl_s=100.0, stale_ttl_s=300.0, negative_ttl_s=1000.0)


class TestExactBoundaryTicks:
    """``age == boundary`` takes the more-available branch, everywhere."""

    def test_age_exactly_ttl_is_still_fresh(self):
        c = cache()
        c.store(entry(), now_s=0.0)
        state, hit = c.lookup("app", now_s=100.0)
        assert state == FRESH and hit is not None
        assert c.hits_fresh == 1

    def test_one_tick_past_ttl_is_stale(self):
        c = cache()
        c.store(entry(), now_s=0.0)
        state, hit = c.lookup("app", now_s=100.0 + 1e-9)
        assert state == STALE and hit is not None

    def test_age_exactly_stale_ttl_is_still_served_stale(self):
        c = cache()
        c.store(entry(), now_s=0.0)
        state, hit = c.lookup("app", now_s=300.0)
        assert state == STALE and hit is not None
        assert c.hits_stale == 1

    def test_one_tick_past_stale_ttl_expires_and_counts_as_miss(self):
        c = cache()
        c.store(entry(), now_s=0.0)
        state, hit = c.lookup("app", now_s=300.0 + 1e-9)
        assert state == EXPIRED and hit is not None
        assert c.misses == 1 and c.hits_stale == 0

    def test_negative_entry_exactly_at_its_ttl_is_fresh(self):
        c = cache()
        c.store(entry(negative=True), now_s=0.0)
        state, hit = c.lookup("app", now_s=1000.0)
        assert state == FRESH and hit is not None and hit.negative

    def test_negative_entry_past_its_ttl_skips_stale_entirely(self):
        # A removal needs no revalidation: the window after its TTL is
        # EXPIRED, never STALE — no background refresh is ever owed.
        c = cache()
        c.store(entry(negative=True), now_s=0.0)
        state, _hit = c.lookup("app", now_s=1000.0 + 1e-9)
        assert state == EXPIRED

    def test_zero_width_stale_window_goes_straight_to_expired(self):
        c = VerdictCache(ttl_s=100.0, stale_ttl_s=100.0, negative_ttl_s=1000.0)
        c.store(entry(), now_s=0.0)
        assert c.lookup("app", now_s=100.0)[0] == FRESH
        assert c.lookup("app", now_s=100.0 + 1e-9)[0] == EXPIRED


class TestNegativeStoreVsRefreshRace:
    """A negative store landing mid-revalidation leaves a sane cache."""

    def test_refresh_is_single_flight_until_resolved(self):
        c = cache()
        c.store(entry(), now_s=0.0)
        assert c.begin_revalidation("app")
        assert not c.begin_revalidation("app")

    def test_negative_store_clears_the_revalidation_marker(self):
        # The in-flight refresh discovers a PERMANENT removal and stores
        # a negative entry.  The marker must clear with the store — a
        # wedged marker would block every future revalidation of the app.
        c = cache()
        c.store(entry(), now_s=0.0)
        assert c.begin_revalidation("app")
        c.store(entry(negative=True), now_s=150.0)
        assert c.lookup("app", now_s=150.0) == (FRESH, c.last_resort("app"))
        assert c.last_resort("app").negative
        assert c.begin_revalidation("app")  # marker did not wedge

    def test_abandoned_refresh_allows_a_retry(self):
        c = cache()
        c.store(entry(), now_s=0.0)
        assert c.begin_revalidation("app")
        c.abandon_revalidation("app")  # shed / aged out in the queue
        assert c.begin_revalidation("app")

    def test_eviction_mid_refresh_clears_both_sides(self):
        c = cache()
        c.store(entry(), now_s=0.0)
        assert c.begin_revalidation("app")
        c.evict("app")
        assert c.lookup("app", now_s=0.0) == (MISS, None)
        assert c.begin_revalidation("app")


@pytest.fixture(scope="module")
def clean_result():
    """A private fault-free pipeline (module-owned; serving mutates it)."""
    return FrappePipeline(
        ScaleConfig(scale=0.01, master_seed=424242, fault_rate=0.0)
    ).run(sweep_unlabelled=False)


class TestServiceAtTheBoundary:
    def test_entry_expiring_exactly_at_the_request_tick_serves_stale(
        self, clean_result
    ):
        """age == stale_ttl at service time → stale rung, one refresh."""
        service = make_service(clean_result, ServiceConfig())
        app_id = sorted(clean_result.bundle.d_sample)[0]
        cfg = service.config
        seeded = entry(app_id)
        service.cache.store(seeded, now_s=0.0)
        # Backdate so the age at now_s lands exactly on stale_ttl_s.
        seeded.stored_s = service.now_s - cfg.cache_stale_ttl_s
        response = service.score(app_id)
        assert response.outcome == SERVED
        assert response.rung == RUNG_STALE
        assert service.cache.hits_stale == 1
        # score() drains the scheduled refresh; the entry is fresh again.
        assert service.cache.lookup(app_id, service.now_s)[0] == FRESH
        assert service._report.refreshes_done == 1

    def test_concurrent_stale_hits_schedule_exactly_one_refresh(
        self, clean_result
    ):
        """Two stale hits racing in one tick → single-flight refresh."""
        service = make_service(clean_result, ServiceConfig())
        app_id = sorted(clean_result.bundle.d_sample)[1]
        seeded = entry(app_id)
        service.cache.store(seeded, now_s=0.0)
        seeded.stored_s = service.now_s - service.config.cache_ttl_s - 1.0
        now = service.now_s
        requests = [
            ScoreRequest(
                app_id=app_id,
                arrival_s=now,
                deadline_s=60.0,
                priority=INTERACTIVE,
                sequence=sequence,
            )
            for sequence in (1, 2)
        ]
        report = service.serve(requests)
        assert [r.rung for r in report.responses] == [RUNG_STALE, RUNG_STALE]
        assert report.refreshes_done == 1
        assert report.refreshes_shed == 0
