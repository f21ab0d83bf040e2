"""The verdict cache: TTL, stale-while-revalidate, negative entries.

A verdict is expensive (a full resilient crawl plus an SVM evaluation)
and apps change slowly, so the service caches verdicts on the simulated
clock:

* within ``ttl_s`` of being stored an entry is **fresh** — served
  directly, no crawl;
* between ``ttl_s`` and ``stale_ttl_s`` it is **stale** — still served
  immediately (an old verdict beats a timeout), while the service
  schedules a background *revalidation* whose crawl cost is debited to
  the shared simulated clock like any other work;
* past ``stale_ttl_s`` it is **expired** and ignored, except as the
  last resort of the degradation ladder (an expired verdict still beats
  a summary-only advisory built from nothing).

**Negative caching**: an authoritative ``PERMANENT`` removal cannot
un-happen, so "this app is gone (and that absence is itself a malice
signal)" is cached under the longer ``negative_ttl_s`` instead of being
re-crawled on every request.

No wall clock anywhere: ``now_s`` always comes from the caller, which
reads the :class:`~repro.platform.transport.TransportStats` clock.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CacheEntry", "VerdictCache", "FRESH", "STALE", "EXPIRED", "MISS"]

FRESH = "fresh"
STALE = "stale"
EXPIRED = "expired"
MISS = "miss"


@dataclass
class CacheEntry:
    """One cached verdict and the evidence context it was computed in."""

    app_id: str
    verdict: bool | None
    risk_score: float
    confidence: str
    rung: str
    advisories: tuple[str, ...] = ()
    stored_s: float = 0.0
    #: authoritative PERMANENT removal (negative entry, longer TTL)
    negative: bool = False
    #: model version that produced the verdict (0 = the static model);
    #: part of the lookup key when the service runs under a rollout
    model_version: int = 0

    def age_s(self, now_s: float) -> float:
        return max(0.0, now_s - self.stored_s)


class VerdictCache:
    """TTL + stale-while-revalidate cache over app verdicts."""

    def __init__(
        self,
        ttl_s: float = 3600.0,
        stale_ttl_s: float = 6 * 3600.0,
        negative_ttl_s: float = 24 * 3600.0,
    ) -> None:
        if stale_ttl_s < ttl_s:
            raise ValueError(
                f"stale_ttl_s must be >= ttl_s ({stale_ttl_s} < {ttl_s})"
            )
        self.ttl_s = ttl_s
        self.stale_ttl_s = stale_ttl_s
        self.negative_ttl_s = negative_ttl_s
        self._entries: dict[str, CacheEntry] = {}
        #: apps with a background revalidation already scheduled
        self._revalidating: set[str] = set()
        self.hits_fresh = 0
        self.hits_stale = 0
        self.misses = 0
        #: entries dropped because they were scored by a retired model
        self.version_evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, app_id: str) -> bool:
        return app_id in self._entries

    # -- lookup ------------------------------------------------------------

    def state_of(self, entry: CacheEntry, now_s: float) -> str:
        """FRESH / STALE / EXPIRED for *entry* at *now_s*."""
        age = entry.age_s(now_s)
        ttl = self.negative_ttl_s if entry.negative else self.ttl_s
        if age <= ttl:
            return FRESH
        # Negative entries skip the stale window: a removal does not
        # need revalidation until its (long) TTL runs out entirely.
        if not entry.negative and age <= self.stale_ttl_s:
            return STALE
        return EXPIRED

    def lookup(
        self,
        app_id: str,
        now_s: float,
        model_version: int | None = None,
    ) -> tuple[str, CacheEntry | None]:
        """(state, entry) for *app_id*; counts the hit/miss.

        When *model_version* is given, an entry produced by any other
        model version is a miss *and* is evicted on the spot: after a
        promotion or rollback the next request re-scores under the
        current champion rather than serving a stale-model verdict.
        """
        entry = self._entries.get(app_id)
        if entry is not None and (
            model_version is not None and entry.model_version != model_version
        ):
            self.evict(app_id)
            self.version_evictions += 1
            entry = None
        if entry is None:
            self.misses += 1
            return MISS, None
        state = self.state_of(entry, now_s)
        if state == FRESH:
            self.hits_fresh += 1
            return FRESH, entry
        if state == STALE:
            self.hits_stale += 1
            return STALE, entry
        self.misses += 1
        return EXPIRED, entry

    def last_resort(self, app_id: str) -> CacheEntry | None:
        """Any entry at all, however old — the ladder's cached rung.

        Used only when a live crawl could not support even FRAppE Lite:
        an expired verdict computed from real evidence still beats
        advising from nothing.  Does not count as a hit.
        """
        return self._entries.get(app_id)

    # -- mutation ----------------------------------------------------------

    def store(self, entry: CacheEntry, now_s: float) -> None:
        entry.stored_s = now_s
        self._entries[entry.app_id] = entry
        self._revalidating.discard(entry.app_id)

    def evict(self, app_id: str) -> None:
        self._entries.pop(app_id, None)
        self._revalidating.discard(app_id)

    def retain_version(self, model_version: int) -> int:
        """Flush every entry not scored by *model_version*.

        Called on promotion and on rollback.  Negative entries are
        flushed too: a PERMANENT removal is model-independent evidence,
        but its cached *verdict* was still rendered by the old model, and
        a rollback must never serve anything the bad model touched.
        Returns the number of entries flushed.
        """
        stale = [
            app_id
            for app_id, entry in self._entries.items()
            if entry.model_version != model_version
        ]
        for app_id in stale:
            self.evict(app_id)
        self.version_evictions += len(stale)
        return len(stale)

    # -- revalidation bookkeeping -----------------------------------------

    def begin_revalidation(self, app_id: str) -> bool:
        """Mark a background refresh as scheduled; False if already one."""
        if app_id in self._revalidating:
            return False
        self._revalidating.add(app_id)
        return True

    def abandon_revalidation(self, app_id: str) -> None:
        """The scheduled refresh was shed or expired; allow another."""
        self._revalidating.discard(app_id)

    # -- report helpers ----------------------------------------------------

    def hit_rate(self) -> float:
        total = self.hits_fresh + self.hits_stale + self.misses
        if total == 0:
            return 0.0
        return (self.hits_fresh + self.hits_stale) / total

    def snapshot(self) -> dict:
        """A uniform, JSON-serialisable image of the cache's counters.

        Same shape contract as ``TransportStats.snapshot`` and
        ``AdmissionQueue.snapshot``, so the metrics registry can fold it
        into gauges (``MetricsRegistry.scrape``) without an adapter.
        """
        return {
            "entries": len(self._entries),
            "revalidating": len(self._revalidating),
            "hits_fresh": self.hits_fresh,
            "hits_stale": self.hits_stale,
            "misses": self.misses,
            "version_evictions": self.version_evictions,
            "hit_rate": self.hit_rate(),
        }
