"""The network transport under the crawler, with seeded fault injection.

The paper's nine-month crawl was defined by failure: rate limits,
5xx responses, hung redirect chains, feeds cut short mid-pagination,
and apps deleted between one weekly snapshot and the next.  This module
models that reality as a *transport* layer between the crawler and the
Graph API facade:

* :class:`DirectTransport` — the fault-free transport; every request
  reaches the platform and only *authoritative* errors (app removed)
  come back.  This is a strict no-op wrapper: with it, the crawler
  behaves byte-for-byte as it would talking to the API directly.
* :class:`FaultyTransport` — wraps the same endpoints but injects
  transient faults from a deterministic, seeded :class:`FaultPlan`:
  rate limits (with a retry-after hint), transient 5xx errors, timeouts,
  truncated feed pages, and mid-crawl app deletion.

Fault decisions are *stateless*: each is derived by hashing
``(seed, endpoint, app_id, call index)``, so the same plan replayed over
the same crawl order injects exactly the same faults — retries and
crawler refactors cannot perturb other apps' fault draws.

Both transports account simulated latency in a shared
:class:`TransportStats` clock, so benchmarks can measure what a fault
rate *costs* in crawl time, not just in data loss.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.obs.observer import get_observer
from repro.platform.graph_api import GraphApi, GraphApiError
from repro.platform.install import (
    AppRemovedError,
    InstallationService,
    InstallPrompt,
)
from repro.rng import derive_seed

__all__ = [
    "TransientGraphApiError",
    "RateLimitError",
    "TransientServerError",
    "RequestTimeoutError",
    "PlatformBlackoutError",
    "Fault",
    "FaultPlan",
    "draw_blackout_windows",
    "TransportStats",
    "DirectTransport",
    "FaultyTransport",
]


# -- error taxonomy --------------------------------------------------------
#
# GraphApiError / AppRemovedError are *permanent*: the platform answered
# authoritatively that the app is gone, and retrying cannot change that.
# The subclasses below are *transient*: the request failed, the platform
# said nothing about the app, and a retry may succeed.


class TransientGraphApiError(GraphApiError):
    """A request failed without an authoritative answer; retrying may help.

    Contrast with the base :class:`~repro.platform.graph_api.GraphApiError`,
    which is *permanent* (the app is removed from the graph): callers must
    never retry the base class, and must always consider retrying this one.
    """

    #: fault-kind tag (see :class:`FaultPlan`), e.g. ``"rate_limit"``
    kind: str = "transient"

    def __init__(self, app_id: str, message: str | None = None) -> None:
        super().__init__(message or app_id)
        self.app_id = app_id


class RateLimitError(TransientGraphApiError):
    """HTTP 429 analogue: the crawler exceeded its request quota.

    Transient — the request itself was fine; it must be *re-sent after
    waiting* at least :attr:`retry_after` simulated seconds.
    """

    kind = "rate_limit"

    def __init__(self, app_id: str, retry_after: float) -> None:
        super().__init__(app_id, f"rate limited on {app_id}")
        self.retry_after = float(retry_after)


class TransientServerError(TransientGraphApiError):
    """HTTP 5xx analogue: the platform hiccuped.

    Transient — unlike a summary query returning ``false`` (app removed,
    permanent), a 5xx carries no verdict about the app and is safe to
    retry with backoff.
    """

    kind = "server_error"


class RequestTimeoutError(TransientGraphApiError):
    """The request hung past the client timeout (stuck redirect chains).

    Transient, but expensive: the caller already paid the full timeout
    in latency before learning nothing.
    """

    kind = "timeout"

    def __init__(self, app_id: str, elapsed: float) -> None:
        super().__init__(app_id, f"timed out on {app_id}")
        self.elapsed = float(elapsed)


class PlatformBlackoutError(TransientGraphApiError):
    """The whole platform is down: a sustained outage window is active.

    Unlike the per-call faults, a blackout fails *every* request whose
    simulated start time falls inside the window, regardless of the
    per-call fault draw — the multi-call failure pattern that opens
    circuit breakers for real.  ``resume_at`` is the simulated global
    time the window ends; schedulers can use it to pause and re-plan
    instead of burning retry budgets against a wall.
    """

    kind = "blackout"

    def __init__(self, app_id: str, resume_at: float) -> None:
        super().__init__(app_id, f"platform blackout until t={resume_at:.0f}s")
        self.resume_at = float(resume_at)


# -- the fault plan --------------------------------------------------------


@dataclass(frozen=True)
class Fault:
    """One injected fault decision (already materialised draws)."""

    kind: str  # rate_limit | server_error | timeout | vanish | truncate
    retry_after: float = 0.0  # rate_limit only
    keep_fraction: float = 1.0  # truncate only


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic recipe for which requests fail and how.

    ``fault_rate`` is the per-request probability of *any* fault; the
    ``*_weight`` fields apportion it across fault kinds.  Truncation
    only applies to feed pages and vanishing only to apps still alive,
    so the effective mix per endpoint renormalises over the applicable
    kinds.  A plan with ``fault_rate=0`` never injects anything.
    """

    fault_rate: float = 0.0
    seed: int = 2012
    rate_limit_weight: float = 3.0
    server_error_weight: float = 3.0
    timeout_weight: float = 2.0
    truncate_weight: float = 1.0
    vanish_weight: float = 0.5
    #: rate-limit retry-after window, simulated seconds
    retry_after_range: tuple[float, float] = (15.0, 90.0)
    #: client-side timeout, simulated seconds (paid on every timeout fault)
    timeout_s: float = 30.0
    #: service time of a request that reaches the platform
    base_latency_s: float = 0.35
    #: service time of a fast failure (429/5xx responses return quickly)
    error_latency_s: float = 0.12
    #: sustained-outage windows ``(start_s, end_s)`` on the *global*
    #: simulated clock.  A request started inside a window fails with
    #: :class:`PlatformBlackoutError` before any per-call draw — the
    #: outage is platform-wide state, not a per-request coin flip.
    #: Distinct from ``fault_rate``: windows work at ``fault_rate=0``.
    blackout_windows: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.fault_rate < 1.0:
            raise ValueError(f"fault_rate must be in [0, 1), got {self.fault_rate}")
        previous_end = -1.0
        for start, end in self.blackout_windows:
            if not 0.0 <= start < end:
                raise ValueError(
                    f"blackout window must satisfy 0 <= start < end, "
                    f"got ({start}, {end})"
                )
            if start <= previous_end:
                raise ValueError(
                    "blackout windows must be sorted and non-overlapping"
                )
            previous_end = end

    # -- blackout windows ---------------------------------------------------

    def blackout_at(self, now_s: float) -> tuple[float, float] | None:
        """The outage window containing *now_s*, or ``None``.

        Closed at the start, open at the end: a request issued exactly
        when the window closes reaches the platform again.
        """
        for start, end in self.blackout_windows:
            if start <= now_s < end:
                return (start, end)
            if now_s < start:
                return None
        return None

    @property
    def disabled(self) -> bool:
        return self.fault_rate == 0.0

    def _weights(self, endpoint: str) -> list[tuple[str, float]]:
        kinds = [
            ("rate_limit", self.rate_limit_weight),
            ("server_error", self.server_error_weight),
            ("timeout", self.timeout_weight),
            ("vanish", self.vanish_weight),
        ]
        if endpoint == "feed":
            kinds.append(("truncate", self.truncate_weight))
        return [(kind, weight) for kind, weight in kinds if weight > 0]

    def draw(self, endpoint: str, app_id: str, call_index: int) -> Fault | None:
        """The fault (if any) for one request, independent of all others."""
        if self.disabled:
            return None
        rng = np.random.default_rng(
            derive_seed(self.seed, f"fault:{endpoint}:{app_id}:{call_index}")
        )
        if rng.random() >= self.fault_rate:
            return None
        weighted = self._weights(endpoint)
        total = sum(weight for _, weight in weighted)
        pick = rng.random() * total
        cumulative = 0.0
        kind = weighted[-1][0]
        for candidate, weight in weighted:
            cumulative += weight
            if pick < cumulative:
                kind = candidate
                break
        if kind == "rate_limit":
            low, high = self.retry_after_range
            return Fault(kind, retry_after=float(rng.uniform(low, high)))
        if kind == "truncate":
            return Fault(kind, keep_fraction=float(rng.uniform(0.1, 0.9)))
        return Fault(kind)


def draw_blackout_windows(
    seed: int,
    count: int,
    horizon_s: float = 4.0 * 3600.0,
    duration_range: tuple[float, float] = (60.0, 150.0),
) -> tuple[tuple[float, float], ...]:
    """*count* seeded, sorted, non-overlapping outage windows.

    Window starts are drawn uniformly over ``[0, horizon_s)`` and
    durations over *duration_range*; overlapping draws are merged apart
    by shifting each window past its predecessor.  A pure function of
    the arguments, so the same seed always produces the same outage
    schedule — the blackout analogue of :meth:`FaultPlan.draw`.

    The default duration range sits *below* the default breaker
    cooldown (180 s), so a breaker opened by a blackout waits out one
    cooldown and finds the platform healthy again: open once, close
    once, no flapping.
    """
    if count <= 0:
        return ()
    rng = np.random.default_rng(derive_seed(seed, "blackout-windows"))
    starts = sorted(float(rng.uniform(0.0, horizon_s)) for _ in range(count))
    low, high = duration_range
    windows: list[tuple[float, float]] = []
    cursor = 0.0
    for start in starts:
        start = max(start, cursor)
        end = start + float(rng.uniform(low, high))
        windows.append((start, end))
        cursor = end + 1.0  # keep windows strictly apart
    return tuple(windows)


# -- latency + fault accounting --------------------------------------------


@dataclass
class TransportStats:
    """What the crawl cost: requests, injected faults, simulated time.

    ``service_s`` accumulates per-request service time (including paid
    timeouts); ``wait_s`` accumulates time the *crawler* chose to sleep
    (backoff, retry-after, circuit-breaker cooldowns).  Their sum is the
    simulated wall clock the resilience layer schedules against.

    The verdict service shares one transport (hence one stats clock)
    across in-flight requests, so every mutation goes through a method
    that holds an internal lock; lost updates would silently shrink the
    simulated clock and break deterministic replay.
    """

    requests: int = 0
    injected: Counter[str] = field(default_factory=Counter)
    truncated_feeds: int = 0
    service_s: float = 0.0
    wait_s: float = 0.0
    vanished: set[str] = field(default_factory=set)
    #: the *app frame*: time accumulated since the last
    #: :meth:`begin_app`.  All deadline/backoff/breaker arithmetic runs
    #: in this frame, which every crawl integrates from exactly 0.0.
    #: Checkpoint snapshots carry the frame so a resumed crawl continues
    #: mid-frame exactly, and crawl-side trace timestamps are read in it
    #: so an app's spans do not depend on where the global clock stood.
    app_service_s: float = 0.0
    app_wait_s: float = 0.0
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    @property
    def elapsed_s(self) -> float:
        """The simulated clock: total service plus deliberate waiting."""
        with self._lock:
            return self.service_s + self.wait_s

    @property
    def app_elapsed_s(self) -> float:
        """The app-frame clock: time since the last :meth:`begin_app`."""
        with self._lock:
            return self.app_service_s + self.app_wait_s

    def begin_app(self) -> float:
        """Start a new app frame; returns the closed frame's extent.

        The returned delta is how far the old frame ran — callers use it
        to rebase frame-relative timestamps (breaker open times) into
        the new frame.
        """
        with self._lock:
            delta = self.app_service_s + self.app_wait_s
            self.app_service_s = 0.0
            self.app_wait_s = 0.0
            return delta

    def add_request(self) -> None:
        with self._lock:
            self.requests += 1

    def add_service(self, seconds: float) -> None:
        with self._lock:
            self.service_s += seconds
            self.app_service_s += seconds

    def add_wait(self, seconds: float) -> None:
        with self._lock:
            self.wait_s += seconds
            self.app_wait_s += seconds

    def add_fault(self, kind: str) -> None:
        with self._lock:
            self.injected[kind] += 1

    def add_truncated_feed(self) -> None:
        with self._lock:
            self.truncated_feeds += 1

    def add_vanished(self, app_id: str) -> None:
        with self._lock:
            self.vanished.add(app_id)

    def fault_count(self) -> int:
        with self._lock:
            return sum(self.injected.values())

    # -- checkpoint support -----------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A JSON-serialisable image of the accounting (for checkpoints)."""
        with self._lock:
            return {
                "requests": self.requests,
                "injected": dict(self.injected),
                "truncated_feeds": self.truncated_feeds,
                "service_s": self.service_s,
                "wait_s": self.wait_s,
                "app_service_s": self.app_service_s,
                "app_wait_s": self.app_wait_s,
                "vanished": sorted(self.vanished),
            }

    def restore(self, data: dict[str, Any]) -> None:
        """Restore accounting from a :meth:`snapshot` image, in place."""
        with self._lock:
            self.requests = int(data["requests"])
            self.injected = Counter(
                {kind: int(count) for kind, count in data["injected"].items()}
            )
            self.truncated_feeds = int(data["truncated_feeds"])
            self.service_s = float(data["service_s"])
            self.wait_s = float(data["wait_s"])
            self.app_service_s = float(data.get("app_service_s", 0.0))
            self.app_wait_s = float(data.get("app_wait_s", 0.0))
            self.vanished = set(data["vanished"])


# -- transports ------------------------------------------------------------


class DirectTransport:
    """The fault-free transport: requests always reach the platform.

    Only authoritative errors (:class:`GraphApiError` /
    :class:`AppRemovedError`, both meaning *app removed*) propagate.
    Latency is still accounted so fault-free baselines have a crawl-cost
    denominator.
    """

    def __init__(
        self,
        graph_api: GraphApi,
        installer: InstallationService,
        stats: TransportStats | None = None,
        base_latency_s: float = 0.35,
    ) -> None:
        self._graph_api = graph_api
        self._installer = installer
        self._base_latency_s = base_latency_s
        self.stats = stats or TransportStats()

    def _account(self, endpoint: str, app_id: str) -> None:
        self.stats.add_request()
        self.stats.add_service(self._base_latency_s)
        obs = get_observer()
        if obs.enabled:
            # Error-biased recording: successful calls are the hot path
            # and already bounded by the enclosing crawl span (and the
            # retry layer's ``retry.attempt`` events), so they keep
            # aggregate metrics only — no per-call trace event.
            obs.count("transport_requests_total", endpoint=endpoint)
            obs.observe("transport_service_seconds", self._base_latency_s)

    # -- checkpoint support -----------------------------------------------

    def snapshot_state(self) -> dict[str, Any]:
        """Everything needed to continue this transport deterministically.

        Includes the installer's RNG state: the install URL of a
        colluding app *draws* which sibling's client ID it hands out, so
        a resumed crawl must continue that stream exactly where the
        interrupted run left it.
        """
        return {
            "stats": self.stats.snapshot(),
            "installer_rng": self._installer.rng_state(),
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        self.stats.restore(state["stats"])
        self._installer.restore_rng_state(state["installer_rng"])

    def summary(self, app_id: str, day: int | None = None) -> dict[str, Any]:
        self._account("summary", app_id)
        return self._graph_api.summary(app_id, day=day)

    def profile_feed(
        self, app_id: str, day: int | None = None
    ) -> list[dict[str, Any]]:
        self._account("feed", app_id)
        return self._graph_api.profile_feed(app_id, day=day)

    def visit_install_url(
        self, app_id: str, day: int | None = None
    ) -> InstallPrompt:
        self._account("install", app_id)
        return self._installer.visit_install_url(app_id, day=day)


class FaultyTransport:
    """A transport that injects the faults a :class:`FaultPlan` dictates.

    Fault decisions happen *before* the underlying platform call, so an
    injected fault consumes no platform randomness: the simulated world
    observed through a faulty transport is the same world, just seen
    through a lossy network.

    A ``vanish`` fault models the app being deleted mid-crawl: from that
    request on, this transport answers every query about the app with
    the *permanent* :class:`GraphApiError`, exactly as the live site
    starts 404ing halfway through a weekly crawl window.
    """

    def __init__(
        self,
        graph_api: GraphApi,
        installer: InstallationService,
        plan: FaultPlan,
        stats: TransportStats | None = None,
    ) -> None:
        self._graph_api = graph_api
        self._installer = installer
        self.plan = plan
        self.stats = stats or TransportStats()
        self._vanished: set[str] = set()
        self._call_index: Counter[tuple[str, str]] = Counter()

    # -- checkpoint support -----------------------------------------------

    def snapshot_state(self) -> dict[str, Any]:
        """The faulty transport's full continuation state.

        On top of the stats clock and installer RNG this captures the
        per-``(endpoint, app)`` call indexes (fault draws are a pure
        function of them) and the vanished-app set, so a resumed crawl
        replays exactly the fault plan the interrupted run was on.
        """
        return {
            "stats": self.stats.snapshot(),
            "installer_rng": self._installer.rng_state(),
            "vanished": sorted(self._vanished),
            "call_index": [
                [endpoint, app_id, count]
                for (endpoint, app_id), count in sorted(
                    self._call_index.items()
                )
            ],
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        self.stats.restore(state["stats"])
        self._installer.restore_rng_state(state["installer_rng"])
        self._vanished = set(state.get("vanished", []))
        self._call_index = Counter(
            {
                (endpoint, app_id): int(count)
                for endpoint, app_id, count in state.get("call_index", [])
            }
        )

    def active_blackout(self) -> tuple[float, float] | None:
        """The outage window covering the current simulated instant.

        The recrawl scheduler polls this before dispatching an app so a
        sustained outage triggers *backpressure* (pause and re-plan)
        instead of burning retry budgets and breaker state per call.
        """
        return self.plan.blackout_at(self.stats.elapsed_s)

    # -- fault machinery ---------------------------------------------------

    def _next_index(self, endpoint: str, app_id: str) -> int:
        key = (endpoint, app_id)
        index = self._call_index[key]
        self._call_index[key] = index + 1
        return index

    def _inject(self, endpoint: str, app_id: str) -> Fault | None:
        """Account the request and raise if a fault is due.

        Returns the fault for kinds the endpoint handler must apply to
        the *response* (truncation); raises for request-level faults.
        """
        self.stats.add_request()
        obs = get_observer()
        window = self.plan.blackout_at(self.stats.elapsed_s)
        if window is not None:
            # A platform-wide outage beats every per-app consideration:
            # nothing answers, so no per-call randomness is consumed and
            # no call index advances — the same crawl replayed after the
            # window sees exactly the per-call faults it would have.
            self.stats.add_fault("blackout")
            self.stats.add_service(self.plan.error_latency_s)
            if obs.enabled:
                self._note_fault(obs, endpoint, app_id, "blackout")
            raise PlatformBlackoutError(app_id, resume_at=window[1])
        if app_id in self._vanished:
            self.stats.add_service(self.plan.base_latency_s)
            if obs.enabled:
                self._note_request(obs, endpoint, app_id, "gone")
            raise GraphApiError(app_id)
        fault = self.plan.draw(endpoint, app_id, self._next_index(endpoint, app_id))
        if fault is None:
            self.stats.add_service(self.plan.base_latency_s)
            if obs.enabled:
                # Error-biased recording: the fault-free fast path keeps
                # aggregate metrics only — the retry layer has already
                # recorded this call's ``retry.attempt`` event, and
                # faults below still get their own trace events.
                obs.count("transport_requests_total", endpoint=endpoint)
                obs.observe("transport_service_seconds", self.plan.base_latency_s)
            return None
        self.stats.add_fault(fault.kind)
        if fault.kind == "rate_limit":
            self.stats.add_service(self.plan.error_latency_s)
            if obs.enabled:
                self._note_fault(obs, endpoint, app_id, fault.kind)
            raise RateLimitError(app_id, retry_after=fault.retry_after)
        if fault.kind == "server_error":
            self.stats.add_service(self.plan.error_latency_s)
            if obs.enabled:
                self._note_fault(obs, endpoint, app_id, fault.kind)
            raise TransientServerError(app_id)
        if fault.kind == "timeout":
            self.stats.add_service(self.plan.timeout_s)
            if obs.enabled:
                self._note_fault(obs, endpoint, app_id, fault.kind)
            raise RequestTimeoutError(app_id, elapsed=self.plan.timeout_s)
        if fault.kind == "vanish":
            self._vanished.add(app_id)
            self.stats.add_vanished(app_id)
            self.stats.add_service(self.plan.base_latency_s)
            if obs.enabled:
                self._note_fault(obs, endpoint, app_id, fault.kind)
            raise GraphApiError(app_id)
        # truncate: the request succeeds but the response is cut short.
        self.stats.add_service(self.plan.base_latency_s)
        if obs.enabled:
            self._note_fault(obs, endpoint, app_id, fault.kind)
        return fault

    def _note_request(self, obs, endpoint: str, app_id: str, outcome: str) -> None:
        obs.event(
            "transport.request",
            t=self.stats.app_elapsed_s,
            endpoint=endpoint,
            app_id=app_id,
            outcome=outcome,
        )
        obs.count("transport_requests_total", endpoint=endpoint)

    def _note_fault(self, obs, endpoint: str, app_id: str, kind: str) -> None:
        obs.event(
            "transport.fault",
            t=self.stats.app_elapsed_s,
            endpoint=endpoint,
            app_id=app_id,
            kind=kind,
        )
        obs.count("transport_faults_total", kind=kind)

    # -- endpoints ---------------------------------------------------------

    def summary(self, app_id: str, day: int | None = None) -> dict[str, Any]:
        self._inject("summary", app_id)
        return self._graph_api.summary(app_id, day=day)

    def profile_feed(
        self, app_id: str, day: int | None = None
    ) -> list[dict[str, Any]]:
        fault = self._inject("feed", app_id)
        feed = self._graph_api.profile_feed(app_id, day=day)
        if fault is not None and fault.kind == "truncate" and feed:
            kept = max(1, int(len(feed) * fault.keep_fraction))
            if kept < len(feed):
                self.stats.add_truncated_feed()
                feed = feed[:kept]
        return feed

    def visit_install_url(
        self, app_id: str, day: int | None = None
    ) -> InstallPrompt:
        try:
            self._inject("install", app_id)
        except GraphApiError as err:
            if app_id in self._vanished and not isinstance(
                err, TransientGraphApiError
            ):
                # The install URL of a vanished app 404s.
                raise AppRemovedError(app_id) from err
            raise
        return self._installer.visit_install_url(app_id, day=day)
