"""A Web-of-Trust-style domain reputation service (Fig 8).

WOT assigns each domain a trust score between 0 and 100; domains it has
never collected enough evidence about have *no* score, which the paper
maps to a sentinel value of -1.  Reputation is per registered domain.
"""

from __future__ import annotations

import numpy as np

from repro.urlinfra.url import domain_of, registered_domain

__all__ = ["WotService", "WOT_UNKNOWN"]

#: The paper's sentinel for "WOT has no score for this domain".
WOT_UNKNOWN = -1.0


class WotService:
    """Domain → trust score database with partial coverage.

    Well-established domains (facebook.com, large companies) carry high
    scores; freshly registered spam domains are usually absent from the
    database, and the few that are present score very low.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._scores: dict[str, float] = {}
        # The platform itself is maximally trusted.
        self.set_score("facebook.com", 94.0)

    def set_score(self, domain: str, score: float) -> None:
        if not WOT_UNKNOWN <= score <= 100.0:
            raise ValueError(f"score out of range: {score}")
        self._scores[registered_domain(domain)] = float(score)

    def forget(self, domain: str) -> None:
        """Remove a domain from the database (it becomes unknown)."""
        self._scores.pop(registered_domain(domain), None)

    def score_domain(self, domain: str) -> float:
        """Trust score for a domain; :data:`WOT_UNKNOWN` if uncovered."""
        return self._scores.get(registered_domain(domain), WOT_UNKNOWN)

    def score_url(self, url: str) -> float:
        """Trust score of the registered domain behind *url*."""
        domain = domain_of(url)
        if not domain:
            return WOT_UNKNOWN
        return self.score_domain(domain)

    # -- seeding helpers used by the ecosystem generator -----------------

    def seed_reputable(self, domain: str, low: float = 70.0, high: float = 98.0) -> None:
        """Record a reputable domain with a high score."""
        self.set_score(domain, float(self._rng.uniform(low, high)))

    def seed_spammy(
        self, domain: str, coverage_probability: float = 0.2, high: float = 5.0
    ) -> None:
        """Record a spam domain: usually unknown, occasionally scored <= *high*.

        Matches Fig 8: 80% of malicious redirect domains have no WOT
        score and 95% score below 5.
        """
        if self._rng.random() < coverage_probability:
            self.set_score(domain, float(self._rng.uniform(0.0, high)))
        else:
            self.forget(domain)
