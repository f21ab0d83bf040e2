"""The independent app watchdog (the paper's long-term vision).

The conclusion frames FRAppE as "a step towards creating an independent
watchdog for app assessment and ranking, so as to warn Facebook users
before installing apps."  This module builds that service on top of a
trained classifier:

* a calibrated **risk score** in [0, 100] per app (sigmoid of the SVM
  margin, rescaled so the decision boundary maps to 50),
* an **assessment cache** with explicit re-crawl staleness,
* a **ranking** of the riskiest apps,
* human-readable **advisories** explaining which features drove the
  verdict, and
* a **confidence tier** per assessment: a verdict computed from a
  partially failed crawl (transient give-ups, not authoritative
  removals) is served with degraded confidence rather than presented
  as if every feature had been observed — and a re-crawl that fails
  outright degrades the *cached* verdict's confidence instead of
  silently serving stale data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.features import (
    CONFIDENCE_BY_TIER,
    FeatureExtractor,
    classification_tier,
)
from repro.core.frappe import FrappeCascade, FrappeClassifier
from repro.crawler.crawler import AppCrawler, CrawlRecord
from repro.obs.observer import get_observer

__all__ = ["AppAssessment", "AppWatchdog"]

#: Feature -> human explanation used in advisories.  The predicate
#: receives the feature's raw value and says whether it is suspicious.
#: Tri-state features only fire on their *positive* encoding: a missing
#: install crawl leaves ``client_id_mismatch`` at None -> 0.0, which
#: must read as "unverified", never as "mismatch observed".
_ADVISORY_RULES: tuple[tuple[str, str, object], ...] = (
    ("has_description", "the app provides no description",
     lambda v: v == 0.0),
    ("has_company", "no company is listed", lambda v: v == 0.0),
    ("has_category", "no category is configured", lambda v: v == 0.0),
    ("has_profile_posts", "the app's profile page has no posts",
     lambda v: v == 0.0),
    ("permission_count", "it requests only a single permission "
     "(just enough to post on your wall)", lambda v: v == 1.0),
    ("client_id_mismatch", "its install URL hands out a different "
     "app's client ID", lambda v: v == 1.0),
    ("wot_score", "it redirects to a domain with no or poor web "
     "reputation", lambda v: v < 5.0),
    ("name_matches_malicious", "it shares its name with known "
     "malicious apps", lambda v: v == 1.0),
    ("external_link_ratio", "most of its posts push links outside "
     "Facebook", lambda v: v >= 0.5),
)

#: collection -> advisory note when its crawl transiently gave up
_DEGRADED_NOTES: dict[str, str] = {
    "summary": "the summary crawl could not be completed",
    "feed": "the profile-feed crawl could not be completed",
    "install": "the install-URL crawl could not be completed",
}


@dataclass
class AppAssessment:
    """One cached watchdog verdict."""

    app_id: str
    name: str | None
    risk_score: float  # 0 (safe) .. 100 (malicious), 50 = boundary
    advisories: list[str] = field(default_factory=list)
    assessed_day: int = 0
    #: high | medium | low | none | stale — how much crawl evidence
    #: backs the score (see features.CONFIDENCE_BY_TIER; "stale" marks
    #: a cached verdict whose refresh crawl failed)
    confidence: str = "high"

    @property
    def is_risky(self) -> bool:
        # Strictly above the boundary: a score of exactly 50 is "no
        # verdict" (SVM margin 0 — notably the no-evidence fallback of a
        # fully failed crawl), and the classifier flags only positive
        # margins, so the watchdog must not condemn on it either.
        return self.risk_score > 50.0

    def summary(self) -> str:
        label = "HIGH RISK" if self.is_risky else "low risk"
        head = f"{self.name or self.app_id}: {label} ({self.risk_score:.0f}/100)"
        if self.confidence != "high":
            head += f" [confidence: {self.confidence}]"
        if not self.advisories:
            return head
        return head + "\n  - " + "\n  - ".join(self.advisories)


class AppWatchdog:
    """Assesses, caches, and ranks apps with a trained classifier.

    Accepts either a plain :class:`FrappeClassifier` (every record is
    scored by the one model, as in the paper) or a
    :class:`FrappeCascade` (degraded records fall back to the best tier
    their surviving collections support).  Either way the assessment
    carries the confidence tier the record's crawl outcomes warrant.
    """

    def __init__(
        self,
        classifier: FrappeClassifier | FrappeCascade,
        extractor: FeatureExtractor,
        crawler: AppCrawler,
        max_staleness_days: int = 14,
        margin_scale: float = 1.5,
    ) -> None:
        self._classifier = classifier
        self._extractor = extractor
        self._crawler = crawler
        self.max_staleness_days = max_staleness_days
        self._margin_scale = margin_scale
        self._cache: dict[str, AppAssessment] = {}

    # -- scoring -----------------------------------------------------------

    def risk_from_margin(self, margin: float) -> float:
        """Map the SVM margin to [0, 100] with 50 at the boundary.

        Public because the online verdict service
        (:mod:`repro.service`) scores every degradation-ladder rung on
        the same calibrated scale the watchdog uses, so a cached
        verdict and a freshly computed one are directly comparable.
        """
        return 100.0 / (1.0 + math.exp(-margin * self._margin_scale))

    def _margin_and_tier(self, record: CrawlRecord) -> tuple[float, str]:
        if isinstance(self._classifier, FrappeCascade):
            return self._classifier.decision_function_one(record)
        # A plain classifier has no fallback: score with the one model
        # and let the confidence tier carry the caveat.
        tier = classification_tier(record)
        return float(self._classifier.decision_function([record])[0]), tier

    def _advisory_features(self, tier: str) -> tuple[str, ...]:
        if isinstance(self._classifier, FrappeCascade):
            if tier == "none":
                return ()
            return self._classifier.model(tier).features
        return self._classifier.features

    def _advisories(self, record: CrawlRecord, tier: str) -> list[str]:
        features = self._advisory_features(tier)
        notes = []
        for feature, text, predicate in _ADVISORY_RULES:
            if feature not in features:
                continue
            value = self._extractor.feature_value(feature, record)
            if predicate(value):
                notes.append(text)
        return notes

    def assess_record(
        self,
        record: CrawlRecord,
        day: int = 0,
        scored: tuple[float, str] | None = None,
    ) -> AppAssessment:
        """Assess an already crawled record (no caching).

        ``scored`` optionally supplies an already computed
        ``(margin, tier)`` pair for *record* from this watchdog's own
        classifier — the verdict service scores every live record
        before assessing it, so passing the result through skips a
        bit-identical re-evaluation of the decision function.
        """
        obs = get_observer()
        span_cm = span = None
        if obs.enabled:
            span_cm = obs.span(
                "watchdog.assess",
                key=record.app_id,
                category="watchdog",
                t=self._crawler.stats.elapsed_s,
            )
            span = span_cm.__enter__()
        margin, tier = scored if scored is not None else self._margin_and_tier(record)
        # Deleted apps have no crawlable summary; fall back to the name
        # observed in post metadata (how the paper knows dead apps' names).
        name = record.name or self._extractor.name_of(record.app_id)
        assessment = AppAssessment(
            app_id=record.app_id,
            name=name,
            risk_score=self.risk_from_margin(margin),
            assessed_day=day,
            confidence=CONFIDENCE_BY_TIER[tier],
        )
        if assessment.is_risky:
            assessment.advisories = self._advisories(record, tier)
        for collection in record.degraded_collections:
            assessment.advisories.append(_DEGRADED_NOTES[collection])
        if span_cm is not None:
            span.note(
                tier=tier,
                risk=round(assessment.risk_score, 3),
                confidence=assessment.confidence,
            )
            span.end(self._crawler.stats.elapsed_s)
            span_cm.__exit__(None, None, None)
            obs.count("watchdog_assessments_total", confidence=assessment.confidence)
            obs.observe(
                "watchdog_risk_score",
                assessment.risk_score,
                edges=(10.0, 25.0, 50.0, 75.0, 90.0),
            )
        return assessment

    # -- the service surface -------------------------------------------------

    def assess(self, app_id: str, day: int = 0) -> AppAssessment:
        """Crawl-and-assess with caching and staleness-driven re-crawls.

        A stale cache entry triggers a re-crawl.  If the re-crawl comes
        back with no trustworthy evidence at all (every collection gave
        up transiently) while a previous verdict exists, the previous
        verdict is *degraded* — same score, confidence ``"stale"`` —
        rather than silently served as-is or replaced by a score
        computed from zeros.
        """
        obs = get_observer()
        cached = self._cache.get(app_id)
        if cached is not None:
            staleness = day - cached.assessed_day
            if staleness <= self.max_staleness_days:
                if obs.enabled:
                    obs.count("watchdog_cache_hits_total")
                    obs.observe(
                        "watchdog_staleness_days",
                        float(staleness),
                        edges=(1.0, 3.0, 7.0, 14.0, 30.0),
                    )
                return cached
            if obs.enabled:
                obs.event(
                    "watchdog.stale",
                    t=self._crawler.stats.elapsed_s,
                    category="watchdog",
                    app_id=app_id,
                    staleness_days=staleness,
                )
                obs.observe(
                    "watchdog_staleness_days",
                    float(staleness),
                    edges=(1.0, 3.0, 7.0, 14.0, 30.0),
                )
        span_cm = None
        if obs.enabled:
            span_cm = obs.span(
                "watchdog.recrawl",
                key=app_id,
                category="watchdog",
                t=self._crawler.stats.elapsed_s,
            )
            span = span_cm.__enter__()
            obs.count("watchdog_recrawls_total")
        record = self._crawler.crawl_app(app_id)
        if span_cm is not None:
            span.note(degraded=record.degraded)
            span.end(self._crawler.stats.elapsed_s)
            span_cm.__exit__(None, None, None)
        if cached is not None and classification_tier(record) == "none":
            if obs.enabled:
                obs.count("watchdog_stale_degradations_total")
            degraded = AppAssessment(
                app_id=cached.app_id,
                name=cached.name,
                risk_score=cached.risk_score,
                advisories=list(cached.advisories)
                + ["re-crawl failed; verdict may be out of date"],
                assessed_day=day,
                confidence="stale",
            )
            self._cache[app_id] = degraded
            return degraded
        assessment = self.assess_record(record, day=day)
        self._cache[app_id] = assessment
        return assessment

    def cached_count(self) -> int:
        return len(self._cache)

    def ranking(self, top: int = 10) -> list[AppAssessment]:
        """The riskiest cached apps, most dangerous first."""
        ordered = sorted(
            self._cache.values(), key=lambda a: a.risk_score, reverse=True
        )
        return ordered[:top]

    def bulk_assess(self, app_ids, day: int = 0) -> list[AppAssessment]:
        return [self.assess(app_id, day=day) for app_id in sorted(app_ids)]
