"""Sustained platform outages: seeded blackout windows (PR 8).

Blackouts are a *distinct* fault kind from the per-call draws: a window
is platform-wide state on the global simulated clock, it fails every
request started inside it (even at ``fault_rate=0``), it consumes no
per-call randomness, and the default window durations sit below the
breaker cooldown — so breakers opened by an outage open once and close
once instead of flapping per call.
"""

from __future__ import annotations

import pytest

from repro.config import ScaleConfig
from repro.crawler.crawler import AppCrawler, make_crawler
from repro.ecosystem.simulation import run_simulation
from repro.obs import TracingObserver, load_trace, observation, walk_events
from repro.platform.transport import (
    FaultPlan,
    FaultyTransport,
    PlatformBlackoutError,
    TransientGraphApiError,
    draw_blackout_windows,
)

WORLD_SEED = 98765


@pytest.fixture(scope="module")
def small_world():
    """A private world: blackout crawls consume installer RNG draws."""
    return run_simulation(ScaleConfig(scale=0.01, master_seed=WORLD_SEED))


def faulty_crawler(world, windows, fault_rate=0.0) -> AppCrawler:
    plan = FaultPlan(fault_rate=fault_rate, seed=7, blackout_windows=windows)
    transport = FaultyTransport(world.graph_api, world.installer, plan)
    return AppCrawler(world, transport=transport)


def live_app_ids(world, count):
    return [
        app.app_id
        for app in sorted(world.registry.all_apps(), key=lambda a: a.app_id)
        if not app.is_deleted()
    ][:count]


class TestWindowDrawing:
    def test_deterministic(self):
        first = draw_blackout_windows(2012, 4)
        second = draw_blackout_windows(2012, 4)
        assert first == second
        assert first != draw_blackout_windows(2013, 4)

    def test_sorted_non_overlapping_and_durations_below_breaker_cooldown(self):
        windows = draw_blackout_windows(99, 8)
        assert len(windows) == 8
        previous_end = -1.0
        for start, end in windows:
            assert start > previous_end
            # The default duration range (60-150 s) sits below the
            # breaker cooldown (180 s): a breaker opened by the outage
            # probes *after* the platform is back.  No flapping.
            assert 60.0 <= end - start <= 150.0
            previous_end = end

    def test_zero_count_is_empty(self):
        assert draw_blackout_windows(1, 0) == ()

    def test_plan_rejects_malformed_windows(self):
        with pytest.raises(ValueError):
            FaultPlan(blackout_windows=((50.0, 40.0),))
        with pytest.raises(ValueError):
            FaultPlan(blackout_windows=((0.0, 60.0), (30.0, 90.0)))

    def test_blackout_at_is_closed_open(self):
        plan = FaultPlan(blackout_windows=((100.0, 200.0),))
        assert plan.blackout_at(99.9) is None
        assert plan.blackout_at(100.0) == (100.0, 200.0)
        assert plan.blackout_at(199.9) == (100.0, 200.0)
        assert plan.blackout_at(200.0) is None  # the window just closed


class TestInjection:
    def test_blackout_fails_requests_even_at_fault_rate_zero(self, small_world):
        crawler = faulty_crawler(small_world, ((0.0, 10_000.0),))
        app_id = live_app_ids(small_world, 1)[0]
        record = crawler.crawl_app(app_id)
        assert crawler.stats.injected.get("blackout", 0) > 0
        assert not record.summary_ok

    def test_no_injection_outside_windows(self, small_world):
        crawler = faulty_crawler(small_world, ((1e9, 1e9 + 60.0),))
        app_id = live_app_ids(small_world, 1)[0]
        record = crawler.crawl_app(app_id)
        assert crawler.stats.fault_count() == 0
        assert record.summary_ok

    def test_blackout_consumes_no_call_index(self, small_world):
        """A request failed by the outage must not advance the per-call
        fault sequence: the same crawl replayed after the window sees
        exactly the per-call faults it would have seen without it."""
        crawler = faulty_crawler(small_world, ((0.0, 10_000.0),))
        app_id = live_app_ids(small_world, 1)[0]
        crawler.crawl_app(app_id)
        assert crawler.transport.snapshot_state()["call_index"] == []

    def test_error_carries_resume_time(self, small_world):
        transport = faulty_crawler(
            small_world, ((0.0, 321.0),)
        ).transport
        with pytest.raises(PlatformBlackoutError) as excinfo:
            transport.summary(live_app_ids(small_world, 1)[0])
        assert excinfo.value.resume_at == 321.0
        assert excinfo.value.kind == "blackout"
        assert isinstance(excinfo.value, TransientGraphApiError)

    def test_active_blackout_polling_surface(self, small_world):
        crawler = faulty_crawler(small_world, ((0.0, 500.0),))
        assert crawler.transport.active_blackout() == (0.0, 500.0)
        crawler.stats.add_wait(500.0)
        assert crawler.transport.active_blackout() is None


class TestBreakerInterplay:
    def test_breakers_open_once_and_close_after_the_window(
        self, small_world, tmp_path
    ):
        """The chaos property the window durations were chosen for: an
        outage opens each endpoint breaker at most once, the cooldown
        outlasts the window, and the first half-open probe finds the
        platform healthy — open once, close once, no per-call flap."""
        # A ~150 s window: several apps' crawls start inside it.
        windows = ((0.0, 150.0),)
        crawler = faulty_crawler(small_world, windows)
        observer = TracingObserver()
        with observation(observer):
            for app_id in live_app_ids(small_world, 12):
                crawler.crawl_app(app_id)
        assert crawler.stats.injected.get("blackout", 0) > 0
        roots = load_trace(observer.tracer.export(tmp_path / "trace.jsonl"))
        transitions: dict[str, list[tuple[str, str]]] = {}
        for _span, event in walk_events(roots):
            if event["name"] != "breaker.transition":
                continue
            transitions.setdefault(event["attrs"]["endpoint"], []).append(
                (event["attrs"]["from_state"], event["attrs"]["to_state"])
            )
        assert transitions, "the outage never opened a breaker"
        for endpoint, seen in transitions.items():
            opens = seen.count(("closed", "open"))
            reopens = seen.count(("half_open", "open"))
            closes = seen.count(("half_open", "closed"))
            assert opens == 1, (
                f"{endpoint}: breaker opened {opens} times (flapping)"
            )
            assert reopens == 0, (
                f"{endpoint}: half-open probe failed {reopens} times — "
                "the probe landed inside the window"
            )
            assert closes == 1, f"{endpoint}: breaker never closed"
        # After the dust settles every breaker is closed again.
        for breaker in crawler.executor.breakers.values():
            assert breaker.state == breaker.CLOSED

    def test_later_crawls_recover_fully(self, small_world):
        crawler = faulty_crawler(small_world, ((0.0, 120.0),))
        apps = live_app_ids(small_world, 12)
        for app_id in apps:
            record = crawler.crawl_app(app_id)
        # The last app starts long after the window: clean crawl.
        assert record.summary_ok


class TestConfigWiring:
    def test_scale_config_draws_windows_into_the_fingerprint(self):
        config = ScaleConfig(
            scale=0.01, master_seed=424242, fault_rate=0.0, blackouts=2
        )
        world = run_simulation(config)
        crawler = make_crawler(world)
        windows = crawler.transport.plan.blackout_windows
        assert len(windows) == 2
        fingerprint = crawler.checkpoint_fingerprint()
        assert fingerprint["fault_plan"]["blackout_windows"] == [
            list(w) for w in windows
        ]

    def test_blackouts_zero_draws_no_window(self):
        world = run_simulation(
            ScaleConfig(scale=0.01, master_seed=424242, fault_rate=0.0)
        )
        crawler = make_crawler(world)
        assert crawler.transport.plan.blackout_windows == ()
        assert crawler.transport.active_blackout() is None
        assert "blackout_windows" not in (
            crawler.checkpoint_fingerprint()["fault_plan"]
        )
