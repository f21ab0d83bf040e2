"""FRAppE's feature extraction (Sec 4, Tables 4 and 7).

Two feature classes:

* **on-demand** — computable from a single crawl of the app ID
  (summary completeness, profile-feed posts, permission count,
  client-ID mismatch, WOT reputation of the redirect URI).  These feed
  FRAppE Lite.
* **aggregation-based** — requiring a cross-user, cross-app view over
  time (name similarity to known malicious apps, external-link-to-post
  ratio).  These additionally feed full FRAppE.

Sec 7 singles out the subset that hackers cannot cheaply obfuscate;
:data:`ROBUST_FEATURES` is that subset.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING

import numpy as np

from repro.crawler.crawler import CrawlRecord
from repro.urlinfra.url import is_facebook_url
from repro.urlinfra.wot import WotService

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.platform.posts import PostLog

__all__ = [
    "ON_DEMAND_FEATURES",
    "AGGREGATION_FEATURES",
    "ALL_FEATURES",
    "ROBUST_FEATURES",
    "SUMMARY_ONLY_FEATURES",
    "TIER_FEATURES",
    "CONFIDENCE_BY_TIER",
    "classification_tier",
    "FeatureExtractor",
]

#: Table 4 — FRAppE Lite's inputs, crawlable on demand from an app ID.
ON_DEMAND_FEATURES: tuple[str, ...] = (
    "has_category",
    "has_company",
    "has_description",
    "has_profile_posts",
    "permission_count",
    "client_id_mismatch",
    "wot_score",
)

#: Table 7 — the cross-user/cross-app additions used by full FRAppE.
AGGREGATION_FEATURES: tuple[str, ...] = (
    "name_matches_malicious",
    "external_link_ratio",
)

ALL_FEATURES: tuple[str, ...] = ON_DEMAND_FEATURES + AGGREGATION_FEATURES

#: Sec 7 — features robust to hacker adaptation: obfuscating any of
#: these costs the hacker victims or campaign capability.
ROBUST_FEATURES: tuple[str, ...] = (
    "permission_count",
    "client_id_mismatch",
    "wot_score",
    "name_matches_malicious",
    "external_link_ratio",
)

#: The last-resort feature set when only the summary crawl is usable.
SUMMARY_ONLY_FEATURES: tuple[str, ...] = (
    "has_category",
    "has_company",
    "has_description",
)

# -- degraded-crawl classification tiers -----------------------------------
#
# A crawl collection can be missing for two very different reasons:
#
# * *authoritatively* — the app is removed, or its install flow is
#   human-only.  The paper treats this absence as a feature in itself
#   (Sec 4.1: malicious apps are exactly the ones with empty summaries),
#   so the default 0/-1 encodings stand and the full model applies;
# * *transiently* — the crawler exhausted its retry budget.  The zeros
#   would be lies, so classification falls back to a model trained on
#   the features the surviving collections can vouch for:
#   FRAppE -> FRAppE Lite -> summary-only -> none.

#: classifier tier -> feature set it consumes ("none": no model applies)
TIER_FEATURES: dict[str, tuple[str, ...]] = {
    "frappe": ALL_FEATURES,
    "lite": ON_DEMAND_FEATURES,
    "summary_only": SUMMARY_ONLY_FEATURES,
}

#: classifier tier -> the confidence surfaced in watchdog assessments
CONFIDENCE_BY_TIER: dict[str, str] = {
    "frappe": "high",
    "lite": "medium",
    "summary_only": "low",
    "none": "none",
}


def classification_tier(record: CrawlRecord) -> str:
    """Which classifier tier a (possibly degraded) crawl record supports.

    Only *transient* give-ups degrade the tier; authoritative failures
    keep the record on the full-FRAppE path, where missingness is
    itself a signal.  Records without outcome bookkeeping (e.g. loaded
    from an export) are treated as authoritative.
    """
    if record.gave_up("summary"):
        return "none"
    if record.gave_up("feed") and record.gave_up("install"):
        return "summary_only"
    if record.gave_up("feed") or record.gave_up("install"):
        return "lite"
    return "frappe"


class FeatureExtractor:
    """Turns crawl records (+ post-log context) into feature vectors.

    The aggregation features need a reference corpus: ``malicious_names``
    counts how many *known* malicious apps carry each name.  When
    extracting for an app that itself contributed to those counts
    (training on D-Sample), pass its IDs via ``known_malicious_ids`` so
    the app's own contribution is subtracted — the feature asks about
    *other* apps sharing the name.
    """

    def __init__(
        self,
        wot: WotService,
        post_log: "PostLog | None" = None,
        malicious_names: Counter[str] | None = None,
        known_malicious_ids: set[str] | None = None,
        id_to_name: dict[str, str] | None = None,
    ) -> None:
        self._wot = wot
        self._post_log = post_log
        self._malicious_names = malicious_names or Counter()
        self._known_malicious_ids = known_malicious_ids or set()
        self._id_to_name = id_to_name or {}

    def name_of(self, app_id: str) -> str | None:
        """Display name observed in post metadata (None if never seen)."""
        return self._id_to_name.get(app_id)

    # -- individual features ------------------------------------------------

    def feature_value(self, name: str, record: CrawlRecord) -> float:
        method = getattr(self, f"_feature_{name}", None)
        if method is None:
            raise KeyError(f"unknown feature: {name}")
        return float(method(record))

    def _feature_has_category(self, record: CrawlRecord) -> float:
        return 1.0 if record.category else 0.0

    def _feature_has_company(self, record: CrawlRecord) -> float:
        return 1.0 if record.company else 0.0

    def _feature_has_description(self, record: CrawlRecord) -> float:
        return 1.0 if record.description else 0.0

    def _feature_has_profile_posts(self, record: CrawlRecord) -> float:
        return 1.0 if record.profile_posts else 0.0

    def _feature_permission_count(self, record: CrawlRecord) -> float:
        return float(len(record.permissions))

    def _feature_client_id_mismatch(self, record: CrawlRecord) -> float:
        # Tri-state source: True -> 1.0; both False (verified match) and
        # None (install crawl yielded nothing) -> 0.0.  Folding None into
        # the benign encoding is the paper's protocol — the feature is
        # measured over D-Inst, where the crawl succeeded — and keeps the
        # vector identical whether the install data is authoritatively
        # absent or never collected.  The missing-vs-benign distinction
        # is carried by classification_tier / CrawlRecord.gave_up, not
        # smuggled into the Lite feature vector.
        return 1.0 if record.client_id_mismatch else 0.0

    def _feature_wot_score(self, record: CrawlRecord) -> float:
        if not record.redirect_uri:
            return -1.0
        return self._wot.score_url(record.redirect_uri)

    def _feature_name_matches_malicious(self, record: CrawlRecord) -> float:
        """Does the app share its name with a *known* malicious app?"""
        name = record.name or self._id_to_name.get(record.app_id)
        if name is None:
            return 0.0
        count = self._malicious_names.get(name, 0)
        if record.app_id in self._known_malicious_ids:
            count -= 1  # don't let the app match itself
        return 1.0 if count > 0 else 0.0

    def _feature_external_link_ratio(self, record: CrawlRecord) -> float:
        """Fraction of the app's observed posts carrying external links."""
        if self._post_log is None:
            return 0.0
        total = self._post_log.post_count(record.app_id)
        if total == 0:
            return 0.0
        external = sum(
            count
            for url, count in self._post_log.urls_of_app(record.app_id).items()
            if not is_facebook_url(url)
        )
        return external / total

    # -- vectors ----------------------------------------------------------------

    def vector(
        self, record: CrawlRecord, features: tuple[str, ...] = ALL_FEATURES
    ) -> np.ndarray:
        return np.array([self.feature_value(f, record) for f in features])

    def matrix(
        self,
        records: list[CrawlRecord],
        features: tuple[str, ...] = ALL_FEATURES,
    ) -> np.ndarray:
        """Batch feature extraction, one column at a time.

        Produces bit-identical values to stacking :meth:`vector` per
        record (the per-record path stays as the reference; the tests
        assert equality), but avoids its per-value costs:

        * each feature method is resolved once per *column*, not once
          per value;
        * WOT lookups are memoised per distinct ``redirect_uri``;
        * external-link ratios are computed in a single pass over each
          app's live URL multiset (no Counter copies), with
          ``is_facebook_url`` memoised per distinct URL.
        """
        if not records:
            return np.zeros((0, len(features)))
        out = np.empty((len(records), len(features)), dtype=np.float64)
        batched = {
            "wot_score": self._column_wot_score,
            "external_link_ratio": self._column_external_link_ratio,
        }
        for j, name in enumerate(features):
            builder = batched.get(name)
            if builder is not None:
                out[:, j] = builder(records)
                continue
            method = getattr(self, f"_feature_{name}", None)
            if method is None:
                raise KeyError(f"unknown feature: {name}")
            out[:, j] = [method(r) for r in records]
        return out

    # -- batched columns --------------------------------------------------------

    def _column_wot_score(self, records: list[CrawlRecord]) -> np.ndarray:
        scores = np.empty(len(records), dtype=np.float64)
        memo: dict[str, float] = {}
        for i, record in enumerate(records):
            uri = record.redirect_uri
            if not uri:
                scores[i] = -1.0
                continue
            score = memo.get(uri)
            if score is None:
                score = memo[uri] = self._wot.score_url(uri)
            scores[i] = score
        return scores

    def _column_external_link_ratio(self, records: list[CrawlRecord]) -> np.ndarray:
        ratios = np.zeros(len(records), dtype=np.float64)
        log = self._post_log
        if log is None:
            return ratios
        is_external: dict[str, bool] = {}
        for i, record in enumerate(records):
            total = log.post_count(record.app_id)
            if total == 0:
                continue
            external = 0
            for url, count in log.url_counts(record.app_id).items():
                verdict = is_external.get(url)
                if verdict is None:
                    verdict = is_external[url] = not is_facebook_url(url)
                if verdict:
                    external += count
            ratios[i] = external / total
        return ratios

    @staticmethod
    def name_counter(
        records: dict[str, CrawlRecord], malicious_ids: set[str]
    ) -> Counter[str]:
        """Count names over the known-malicious apps (for aggregation)."""
        counter: Counter[str] = Counter()
        for app_id in malicious_ids:
            record = records.get(app_id)
            if record is not None and record.name:
                counter[record.name] += 1
        return counter
