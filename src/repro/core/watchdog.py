"""The independent app watchdog's scorer (the paper's long-term vision).

The conclusion frames FRAppE as "a step towards creating an independent
watchdog for app assessment and ranking, so as to warn Facebook users
before installing apps."  The online half of that watchdog is
:class:`repro.service.VerdictService`: it crawls, caches verdicts, and
serves the last cached verdict at confidence ``"stale"`` when a live
crawl cannot support even FRAppE Lite (``VerdictCache.last_resort``).
This module is the stateless scorer it and ``repro evaluate`` share.
Given a crawled record it returns

* a calibrated **risk score** in [0, 100] (sigmoid of the SVM margin,
  rescaled so the decision boundary maps to 50),
* human-readable **advisories** explaining which features drove the
  verdict, and
* a **confidence tier**: a verdict computed from a partially failed
  crawl (transient give-ups, not authoritative removals) is served with
  degraded confidence rather than presented as if every feature had
  been observed.

It keeps no cache and never crawls; a ranking is a sort of the
assessments it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.features import (
    CONFIDENCE_BY_TIER,
    FeatureExtractor,
    classification_tier,
)
from repro.core.frappe import FrappeCascade, FrappeClassifier
from repro.crawler.crawler import CrawlRecord
from repro.obs.observer import get_observer
from repro.platform.transport import TransportStats

__all__ = ["AppAssessment", "AppWatchdog"]

#: slope of the margin -> risk sigmoid
MARGIN_SCALE = 1.5

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
    """One watchdog verdict."""

    app_id: str
    name: str | None
    risk_score: float  # 0 (safe) .. 100 (malicious), 50 = boundary
    advisories: tuple[str, ...] = ()
    #: high | medium | low | none — how much crawl evidence backs the
    #: score (see features.CONFIDENCE_BY_TIER)
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
    """Scores crawled records with a trained classifier.

    Accepts either a plain :class:`FrappeClassifier` (every record is
    scored by the one model, as in the paper) or a
    :class:`FrappeCascade` (degraded records fall back to the best tier
    their surviving collections support).  Either way the assessment
    carries the confidence tier the record's crawl outcomes warrant.
    ``stats`` is the simulated clock the ``watchdog.assess`` spans are
    stamped with (the crawler's transport stats).
    """

    def __init__(
        self,
        classifier: FrappeClassifier | FrappeCascade,
        extractor: FeatureExtractor,
        stats: TransportStats,
    ) -> None:
        self._classifier = classifier
        self._extractor = extractor
        self._stats = stats

    @staticmethod
    def risk_from_margin(margin: float) -> float:
        """Map the SVM margin to [0, 100] with 50 at the boundary.

        Every verdict the online verdict service (:mod:`repro.service`)
        serves, on any degradation-ladder rung, is on this one
        calibrated scale, so a cached verdict and a freshly computed
        one are directly comparable.
        """
        return 100.0 / (1.0 + math.exp(-margin * MARGIN_SCALE))

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
        scored: tuple[float, str] | None = None,
    ) -> AppAssessment:
        """Assess an already crawled record.

        ``scored`` optionally supplies an already computed
        ``(margin, tier)`` pair for *record* — the verdict service
        scores every live record with the model that renders its
        verdict before assessing it, so the risk score and the verdict
        always come from the same model, and the decision function is
        not evaluated twice.
        """
        obs = get_observer()
        span_cm = span = None
        if obs.enabled:
            span_cm = obs.span(
                "watchdog.assess",
                key=record.app_id,
                category="watchdog",
                t=self._stats.elapsed_s,
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
            confidence=CONFIDENCE_BY_TIER[tier],
        )
        notes = self._advisories(record, tier) if assessment.is_risky else []
        for collection in record.degraded_collections:
            notes.append(_DEGRADED_NOTES[collection])
        assessment.advisories = tuple(notes)
        if span_cm is not None:
            span.note(
                tier=tier,
                risk=round(assessment.risk_score, 3),
                confidence=assessment.confidence,
            )
            span.end(self._stats.elapsed_s)
            span_cm.__exit__(None, None, None)
            obs.count("watchdog_assessments_total", confidence=assessment.confidence)
            obs.observe(
                "watchdog_risk_score",
                assessment.risk_score,
                edges=(10.0, 25.0, 50.0, 75.0, 90.0),
            )
        return assessment
