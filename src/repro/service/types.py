"""Typed requests and responses of the online verdict service.

Every interaction with the service is a value: a :class:`ScoreRequest`
goes in, a :class:`VerdictResponse` comes out — *always*.  Overload,
expired deadlines, open breakers, and failed crawls are encoded as
typed outcomes on the response, never as exceptions escaping the
service, so a caller (or a chaos test) can account for 100% of its
requests.

Vocabulary
----------
*Priority* orders requests for admission and shedding: ``interactive``
(a user is waiting in front of the install dialog) is shed last,
``bulk`` (batch rescoring) before it, and ``refresh`` (internal
stale-cache revalidation) first — background work is the first ballast
overboard.

*Outcome* says what happened to the request as a whole:

``served``
    A verdict (possibly degraded) was produced.
``overloaded``
    Admission control shed the request: the bounded queue was full of
    equal-or-higher-priority work.  The caller is told loudly instead
    of queueing unboundedly.
``deadline``
    The request's deadline budget expired before a verdict could be
    produced (typically: it aged out while queued).

*Rung* says which step of the degradation ladder answered a served
request: ``full`` → ``lite`` → ``cached`` / ``stale`` → ``advisory`` →
``none`` (decline to condemn — no trustworthy evidence at all).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "INTERACTIVE",
    "BULK",
    "REFRESH",
    "PRIORITIES",
    "SERVED",
    "OVERLOADED",
    "DEADLINE",
    "RUNG_FULL",
    "RUNG_LITE",
    "RUNG_CACHED",
    "RUNG_STALE",
    "RUNG_ADVISORY",
    "RUNG_NONE",
    "RUNGS",
    "ScoreRequest",
    "VerdictResponse",
    "BatchPlan",
]

# -- priorities, most important first ---------------------------------------

INTERACTIVE = "interactive"
BULK = "bulk"
REFRESH = "refresh"

#: admission order: index = importance (lower sheds later)
PRIORITIES = (INTERACTIVE, BULK, REFRESH)

# -- request outcomes -------------------------------------------------------

SERVED = "served"
OVERLOADED = "overloaded"
DEADLINE = "deadline"

# -- degradation-ladder rungs ----------------------------------------------

RUNG_FULL = "full"
RUNG_LITE = "lite"
RUNG_CACHED = "cached"
RUNG_STALE = "stale"
RUNG_ADVISORY = "advisory"
RUNG_NONE = "none"

#: ladder order, best evidence first
RUNGS = (
    RUNG_FULL,
    RUNG_LITE,
    RUNG_CACHED,
    RUNG_STALE,
    RUNG_ADVISORY,
    RUNG_NONE,
)


def rank_of(priority: str) -> int:
    """Importance rank of *priority* (0 = most important)."""
    try:
        return PRIORITIES.index(priority)
    except ValueError:
        raise ValueError(
            f"unknown priority {priority!r}; expected one of {PRIORITIES}"
        ) from None


@dataclass(frozen=True)
class BatchPlan:
    """One adaptive continuous-batching decision.

    Produced by :func:`repro.service.admission.plan_batch` as a pure
    function of the queue's state at the start of a tick: ``size``
    requests will be drained, out of ``depth`` queued, with
    ``headroom_s`` of simulated slack between now and the tightest
    deadline in the planned batch.  ``reason`` says which constraint
    bound the decision: ``"depth"`` (queue shallower than the cap),
    ``"max"`` (capped at ``batch_max``), or ``"headroom"`` (shrunk so
    the most urgent request is not delayed past its deadline by the
    batch it rides in).
    """

    size: int
    depth: int
    headroom_s: float
    reason: str


@dataclass(frozen=True)
class ScoreRequest:
    """One ``score(app_id, deadline, priority)`` call.

    ``arrival_s`` is the simulated instant the request reached the
    service; ``deadline_s`` is the *budget* from that instant, so the
    absolute deadline is ``arrival_s + deadline_s``.  ``sequence``
    breaks ties deterministically when two requests share an arrival
    instant (open-loop generators emit monotone sequences).
    """

    app_id: str
    arrival_s: float = 0.0
    deadline_s: float = 60.0
    priority: str = INTERACTIVE
    sequence: int = 0

    def __post_init__(self) -> None:
        rank_of(self.priority)  # validate
        if self.deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive, got {self.deadline_s}")

    @property
    def deadline_at(self) -> float:
        return self.arrival_s + self.deadline_s

    @property
    def rank(self) -> int:
        return rank_of(self.priority)

    @property
    def internal(self) -> bool:
        """Internal bookkeeping work (cache refresh), not a client call."""
        return self.priority == REFRESH


@dataclass
class VerdictResponse:
    """The service's structured answer to one :class:`ScoreRequest`.

    ``verdict`` is ``True`` (malicious), ``False`` (benign), or ``None``
    (no verdict: the request was shed, expired, or reached the ``none``
    rung).  ``reason`` is a short human-readable note on *why* the rung
    or outcome was what it was — which collections gave up, whether a
    breaker was open, what was evicted.
    """

    app_id: str
    outcome: str
    rung: str = RUNG_NONE
    verdict: bool | None = None
    risk_score: float = 50.0
    confidence: str = "none"
    priority: str = INTERACTIVE
    reason: str = ""
    advisories: tuple[str, ...] = ()
    #: fresh | stale | miss | negative | "" (cache not consulted)
    cache_state: str = ""
    arrival_s: float = 0.0
    started_s: float = 0.0
    finished_s: float = 0.0
    #: crawl attempts / transient faults seen while serving (0 on
    #: cache hits and shed requests)
    attempts: int = 0
    faults: int = 0
    #: how many requests the serving tick drained together (always 1 at
    #: batch_max=1 and for one-shot score(); all responses of one
    #: batch share a value)
    batch_size: int = 1
    #: model version that rendered the verdict (0 = the static model,
    #: i.e. no rollout controller attached; >= 1 under a rollout)
    model_version: int = 0
    #: the record the live crawl produced (None for cache hits and shed
    #: requests) — kept so equivalence against the batch classifier is
    #: checkable on exactly the evidence the service saw
    record: object | None = None

    @property
    def latency_s(self) -> float:
        """Arrival-to-answer simulated latency (what the caller felt)."""
        return max(0.0, self.finished_s - self.arrival_s)

    @property
    def queue_wait_s(self) -> float:
        """Time spent queued before the service started on it."""
        return max(0.0, self.started_s - self.arrival_s)

    @property
    def shed(self) -> bool:
        return self.outcome == OVERLOADED
