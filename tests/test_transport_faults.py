"""The fault-injecting transport layer (platform.transport).

Covers the error taxonomy, the deterministic stateless fault plan,
per-kind injection behaviour (rate limit / 5xx / timeout / truncate /
vanish), latency accounting, and the strict-no-op guarantee of a
disabled plan (the fault-free crawl).
"""

from __future__ import annotations

import pytest

from repro.config import ScaleConfig
from repro.crawler.crawler import AppCrawler
from repro.ecosystem.simulation import run_simulation
from repro.platform.graph_api import GraphApiError
from repro.platform.install import AppRemovedError
from repro.platform.transport import (
    FaultPlan,
    FaultyTransport,
    RateLimitError,
    RequestTimeoutError,
    TransientGraphApiError,
    TransientServerError,
    TransportStats,
)

WORLD_SEED = 98765


@pytest.fixture(scope="module")
def small_world():
    """A private world: transport tests consume installer RNG draws."""
    return run_simulation(ScaleConfig(scale=0.01, master_seed=WORLD_SEED))


def only(kind: str, fault_rate: float = 0.9, **extra) -> FaultPlan:
    """A plan that injects exactly one fault kind."""
    weights = {
        "rate_limit_weight": 0.0,
        "server_error_weight": 0.0,
        "timeout_weight": 0.0,
        "truncate_weight": 0.0,
        "vanish_weight": 0.0,
        f"{kind}_weight": 1.0,
    }
    return FaultPlan(fault_rate=fault_rate, seed=7, **weights, **extra)


def alive_app_id(world, *, crawlable: bool = False) -> str:
    for app in sorted(world.registry.all_apps(), key=lambda a: a.app_id):
        if app.is_deleted():
            continue
        if crawlable and not app.install_flow_crawlable:
            continue
        return app.app_id
    raise AssertionError("no live app in the test world")


class TestErrorTaxonomy:
    def test_transient_errors_are_graph_api_errors(self):
        # A crawler catching the permanent base class by accident would
        # swallow retryable faults — the subclass relation is the hook
        # that makes "catch transient first" possible at all.
        for cls in (RateLimitError, TransientServerError, RequestTimeoutError):
            assert issubclass(cls, TransientGraphApiError)
            assert issubclass(cls, GraphApiError)

    def test_kind_tags(self):
        assert RateLimitError("a", retry_after=30.0).kind == "rate_limit"
        assert TransientServerError("a").kind == "server_error"
        assert RequestTimeoutError("a", elapsed=30.0).kind == "timeout"

    def test_rate_limit_carries_retry_after(self):
        error = RateLimitError("app", retry_after=42.5)
        assert error.retry_after == 42.5
        assert error.app_id == "app"

    def test_exports(self):
        import repro.platform as platform

        for name in (
            "RateLimitError",
            "TransientServerError",
            "TransientGraphApiError",
            "FaultyTransport",
            "FaultPlan",
        ):
            assert hasattr(platform, name)


class TestFaultPlan:
    def test_disabled_plan_never_draws(self):
        plan = FaultPlan(fault_rate=0.0)
        assert plan.disabled
        assert all(
            plan.draw("summary", f"app{i}", j) is None
            for i in range(20)
            for j in range(5)
        )

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(fault_rate=1.0)
        with pytest.raises(ValueError):
            FaultPlan(fault_rate=-0.1)

    def test_draws_are_stateless_and_deterministic(self):
        plan = FaultPlan(fault_rate=0.5, seed=11)
        first = [plan.draw("summary", "app1", i) for i in range(50)]
        # Interleaving draws for other apps/endpoints changes nothing.
        for i in range(50):
            plan.draw("feed", "app2", i)
        second = [plan.draw("summary", "app1", i) for i in range(50)]
        assert first == second
        assert any(fault is not None for fault in first)

    def test_seed_changes_the_plan(self):
        a = FaultPlan(fault_rate=0.5, seed=1)
        b = FaultPlan(fault_rate=0.5, seed=2)
        draws_a = [a.draw("summary", "app", i) for i in range(100)]
        draws_b = [b.draw("summary", "app", i) for i in range(100)]
        assert draws_a != draws_b

    def test_truncate_only_applies_to_feeds(self):
        plan = FaultPlan(fault_rate=0.9, seed=3)
        kinds = {
            fault.kind
            for endpoint in ("summary", "install")
            for i in range(200)
            if (fault := plan.draw(endpoint, "app", i)) is not None
        }
        assert "truncate" not in kinds
        feed_kinds = {
            fault.kind
            for i in range(300)
            if (fault := plan.draw("feed", "app", i)) is not None
        }
        assert "truncate" in feed_kinds

    def test_fault_mix_covers_all_kinds(self):
        plan = FaultPlan(fault_rate=0.9, seed=5)
        kinds = {
            fault.kind
            for i in range(500)
            if (fault := plan.draw("feed", "app", i)) is not None
        }
        assert kinds == {
            "rate_limit", "server_error", "timeout", "truncate", "vanish"
        }

    def test_rate_limit_retry_after_within_range(self):
        plan = only("rate_limit", retry_after_range=(10.0, 20.0))
        for i in range(50):
            fault = plan.draw("summary", "app", i)
            if fault is not None:
                assert 10.0 <= fault.retry_after <= 20.0


class TestFaultyTransport:
    def expect(self, transport, call, error_type, tries: int = 60):
        """Call until the plan injects *error_type*; return the error."""
        for _ in range(tries):
            try:
                call()
            except error_type as error:
                return error
        raise AssertionError(f"{error_type.__name__} never injected")

    def test_rate_limit_injection(self, small_world):
        app_id = alive_app_id(small_world)
        transport = FaultyTransport(
            small_world.graph_api, small_world.installer, only("rate_limit")
        )
        error = self.expect(
            transport, lambda: transport.summary(app_id), RateLimitError
        )
        low, high = transport.plan.retry_after_range
        assert low <= error.retry_after <= high
        assert transport.stats.injected["rate_limit"] >= 1

    def test_server_error_injection(self, small_world):
        app_id = alive_app_id(small_world)
        transport = FaultyTransport(
            small_world.graph_api, small_world.installer, only("server_error")
        )
        self.expect(
            transport, lambda: transport.summary(app_id), TransientServerError
        )

    def test_timeout_costs_the_full_timeout(self, small_world):
        app_id = alive_app_id(small_world)
        transport = FaultyTransport(
            small_world.graph_api,
            small_world.installer,
            only("timeout", timeout_s=30.0),
        )
        before = transport.stats.service_s
        error = self.expect(
            transport, lambda: transport.summary(app_id), RequestTimeoutError
        )
        assert error.elapsed == 30.0
        # At least one timeout was paid in full simulated latency.
        assert transport.stats.service_s - before >= 30.0

    def test_truncated_feed_is_shorter_but_nonempty(self, small_world):
        # Find an app with a feed long enough to observe truncation.
        app_id = None
        for app in sorted(small_world.registry.all_apps(), key=lambda a: a.app_id):
            if not app.is_deleted() and len(
                small_world.graph_api.profile_feed(app.app_id)
            ) >= 5:
                app_id = app.app_id
                break
        assert app_id is not None, "no app with a long feed in the test world"
        full = small_world.graph_api.profile_feed(app_id)
        transport = FaultyTransport(
            small_world.graph_api, small_world.installer, only("truncate")
        )
        truncated = None
        for _ in range(60):
            feed = transport.profile_feed(app_id)
            if len(feed) < len(full):
                truncated = feed
                break
        assert truncated is not None
        assert 1 <= len(truncated) < len(full)
        assert truncated == full[: len(truncated)]
        assert transport.stats.truncated_feeds >= 1

    def test_vanish_is_permanent_for_every_endpoint(self, small_world):
        app_id = alive_app_id(small_world, crawlable=True)
        transport = FaultyTransport(
            small_world.graph_api, small_world.installer, only("vanish")
        )
        error = self.expect(
            transport, lambda: transport.summary(app_id), GraphApiError
        )
        assert not isinstance(error, TransientGraphApiError)
        assert app_id in transport.stats.vanished
        # From now on, every query about the app fails authoritatively.
        with pytest.raises(GraphApiError):
            transport.summary(app_id)
        with pytest.raises(GraphApiError):
            transport.profile_feed(app_id)
        with pytest.raises(AppRemovedError):
            transport.visit_install_url(app_id)

    def test_fault_free_latency_accounting(self, small_world):
        app_id = alive_app_id(small_world)
        transport = FaultyTransport(
            small_world.graph_api,
            small_world.installer,
            FaultPlan(base_latency_s=0.5),
        )
        transport.summary(app_id)
        transport.profile_feed(app_id)
        assert transport.stats.requests == 2
        assert transport.stats.service_s == pytest.approx(1.0)
        assert transport.stats.wait_s == 0.0
        assert transport.stats.elapsed_s == pytest.approx(1.0)
        assert transport.stats.fault_count() == 0

    def test_fault_free_plan_keeps_no_per_call_state(self, small_world):
        # At fault_rate 0 no draw happens, so no call index advances and
        # the continuation state stays as small as the stats alone.
        app_ids = sorted(
            a.app_id for a in small_world.registry.all_apps()
        )[:8]
        crawler = AppCrawler(small_world)
        crawler.crawl_many(app_ids)
        state = crawler.transport.snapshot_state()
        assert state["call_index"] == [] and state["vanished"] == []
        assert crawler.stats.requests > 0
        assert crawler.stats.fault_count() == 0

    def test_stats_shared_with_injection(self, small_world):
        app_id = alive_app_id(small_world)
        stats = TransportStats()
        transport = FaultyTransport(
            small_world.graph_api,
            small_world.installer,
            only("server_error", fault_rate=0.5),
            stats=stats,
        )
        for _ in range(20):
            try:
                transport.summary(app_id)
            except TransientServerError:
                pass
        assert stats.requests == 20
        assert 0 < stats.injected["server_error"] < 20
        # Errors return faster than successful requests.
        successes = 20 - stats.injected["server_error"]
        expected = (
            successes * transport.plan.base_latency_s
            + stats.injected["server_error"] * transport.plan.error_latency_s
        )
        assert stats.service_s == pytest.approx(expected)


class TestTransportStatsThreadSafety:
    def test_concurrent_mutation_loses_no_updates(self):
        # The stats object is the service's shared clock; hammer it from
        # several threads and check the counters balance exactly.
        import threading

        stats = TransportStats()
        n_threads, n_ops = 8, 500

        def worker(index: int) -> None:
            for _ in range(n_ops):
                stats.add_request()
                stats.add_service(0.25)
                stats.add_wait(0.5)
                stats.add_fault("server_error")
                stats.add_vanished(f"app-{index}")

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = n_threads * n_ops
        assert stats.requests == total
        assert stats.injected["server_error"] == total
        assert stats.service_s == pytest.approx(0.25 * total)
        assert stats.wait_s == pytest.approx(0.5 * total)
        assert stats.elapsed_s == pytest.approx(0.75 * total)
        assert len(stats.vanished) == n_threads

    def test_snapshot_is_consistent_under_concurrent_writes(self):
        import threading

        stats = TransportStats()
        stop = threading.Event()

        def writer() -> None:
            while not stop.is_set():
                # service and wait move together; a torn snapshot would
                # show them out of step.
                stats.add_service(1.0)
                stats.add_wait(1.0)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(200):
                image = stats.snapshot()
                assert image["service_s"] >= 0.0
                assert image["wait_s"] >= 0.0
                clone = TransportStats()
                clone.restore(image)
                assert clone.elapsed_s == pytest.approx(
                    image["service_s"] + image["wait_s"]
                )
        finally:
            stop.set()
            thread.join()
