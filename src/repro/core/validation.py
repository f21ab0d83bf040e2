"""Validating FRAppE's newly flagged apps (Sec 5.3, Table 8).

When FRAppE is applied to the unlabelled remainder of D-Total, there is
no ground truth for the apps it flags.  The paper validates the flags
with five complementary techniques, applied in order so each app is
counted once:

1. **deleted from the Facebook graph** — Facebook's own enforcement
   removed the app by the October re-check,
2. **app-name similarity** — identical name to known malicious apps
   (including the version-suffix pattern 'Profile Watchers v4.32'),
3. **posted-link similarity** — the app posted a URL also posted by a
   known malicious app (same spam campaign),
4. **typosquatting** of a popular app's name,
5. **manual verification** — remaining apps are clustered by identical
   name and one representative of every cluster larger than four is
   inspected by an analyst (simulated here by consulting the hidden
   ground-truth label of the representative — the stand-in for a
   human expert examining the app).

The same machinery also bounds the false-positive rate of the training
labels themselves (the paper's ≤ 2.6% bound).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.crawler.datasets import DatasetBundle
from repro.text.fastdist import char_signature
from repro.text.typosquat import is_typosquat, strip_version_suffix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ecosystem.simulation import SimulatedWorld

__all__ = ["ValidationResult", "FlagValidator"]

#: Order of techniques, as in Table 8.
TECHNIQUES = (
    "deleted_from_graph",
    "app_name_similarity",
    "posted_link_similarity",
    "typosquatting",
    "manual_verification",
)


@dataclass(frozen=True)
class ValidationResult:
    """Per-technique and cumulative validation counts (Table 8)."""

    n_flagged: int
    #: technique -> apps validated by the technique (not cumulative;
    #: each counts apps validated by this technique regardless of order)
    validated_by: dict[str, set[str]]

    @property
    def validated(self) -> set[str]:
        out: set[str] = set()
        for apps in self.validated_by.values():
            out |= apps
        return out

    @property
    def unknown(self) -> int:
        return self.n_flagged - len(self.validated)

    @property
    def validated_fraction(self) -> float:
        if self.n_flagged == 0:
            return 0.0
        return len(self.validated) / self.n_flagged

    def table8_rows(self) -> list[tuple[str, int, int]]:
        """(technique, validated-by-technique, cumulative) rows."""
        rows: list[tuple[str, int, int]] = []
        cumulative: set[str] = set()
        for technique in TECHNIQUES:
            apps = self.validated_by.get(technique, set())
            cumulative |= apps
            rows.append((technique, len(apps), len(cumulative)))
        return rows


class FlagValidator:
    """Implements the five validation techniques over a world."""

    def __init__(
        self,
        world: "SimulatedWorld",
        bundle: DatasetBundle,
        popular_names: set[str] | None = None,
    ) -> None:
        self._world = world
        self._bundle = bundle
        self._names = world.post_log.app_names()
        self._known_names = self._collect_known_names()
        self._known_version_bases = self._collect_version_bases()
        self._known_urls = self._collect_known_urls()
        self._popular_names = popular_names or self._default_popular_names()
        self._popular_signatures = {
            name: char_signature(name) for name in self._popular_names
        }

    # -- reference corpora from the known-malicious sample ----------------

    def _collect_known_names(self) -> Counter[str]:
        return Counter(
            self._names[a]
            for a in self._bundle.d_sample_malicious
            if a in self._names
        )

    def _collect_version_bases(self) -> Counter[str]:
        bases: Counter[str] = Counter()
        for name in self._known_names:
            base, had_version = strip_version_suffix(name)
            if had_version:
                bases[base] += 1
        return bases

    def _collect_known_urls(self) -> set[str]:
        urls: set[str] = set()
        for app_id in self._bundle.d_sample_malicious:
            urls.update(self._world.post_log.urls_of_app(app_id))
        return urls

    def _default_popular_names(self) -> set[str]:
        """Names of the most popular apps (by observed post volume)."""
        log = self._world.post_log
        ranked = sorted(
            self._bundle.d_total, key=log.post_count, reverse=True
        )
        return {
            self._names[a] for a in ranked[:100] if a in self._names
        }

    # -- techniques -----------------------------------------------------------

    def _deleted_from_graph(self, app_id: str) -> bool:
        return not self._world.graph_api.exists(
            app_id, day=self._world.schedule.validation_day
        )

    def _app_name_similarity(self, app_id: str) -> bool:
        name = self._names.get(app_id)
        if name is None:
            return False
        if self._known_names.get(name, 0) >= 1:
            return True
        base, had_version = strip_version_suffix(name)
        return had_version and self._known_version_bases.get(base, 0) >= 2

    def _posted_link_similarity(self, app_id: str) -> bool:
        urls = self._world.post_log.urls_of_app(app_id)
        return any(url in self._known_urls for url in urls)

    def _typosquatting(self, app_id: str) -> bool:
        name = self._names.get(app_id)
        if name is None:
            return False
        return is_typosquat(
            name, self._popular_names, signatures=self._popular_signatures
        )

    def _manual_clusters(self, remaining: set[str], min_cluster: int = 5) -> set[str]:
        """Simulated analyst pass over name clusters of the remainder."""
        clusters: dict[str, list[str]] = {}
        for app_id in remaining:
            name = self._names.get(app_id)
            if name is not None:
                clusters.setdefault(name, []).append(app_id)
        validated: set[str] = set()
        registry = self._world.registry
        for name, members in clusters.items():
            if len(members) < min_cluster:
                continue
            representative = registry.maybe_get(sorted(members)[0])
            # The analyst inspects one app per cluster; the hidden label
            # stands in for that human judgement.
            if representative is not None and representative.truth_malicious:
                validated.update(members)
        return validated

    # -- entry points ---------------------------------------------------------------

    def validate(self, flagged: set[str]) -> ValidationResult:
        """Run all five techniques over the flagged set, in order."""
        validated_by: dict[str, set[str]] = {t: set() for t in TECHNIQUES}
        for app_id in flagged:
            if self._deleted_from_graph(app_id):
                validated_by["deleted_from_graph"].add(app_id)
            if self._app_name_similarity(app_id):
                validated_by["app_name_similarity"].add(app_id)
            if self._posted_link_similarity(app_id):
                validated_by["posted_link_similarity"].add(app_id)
            if self._typosquatting(app_id):
                validated_by["typosquatting"].add(app_id)
        remaining = flagged - set().union(*validated_by.values())
        validated_by["manual_verification"] = self._manual_clusters(remaining)
        return ValidationResult(n_flagged=len(flagged), validated_by=validated_by)

    def ground_truth_bound(self) -> float:
        """Upper bound on the training labels' FP rate (Sec 5.3).

        Of the D-Sample malicious apps: those deleted by the October
        re-check, plus those sharing a name with a deleted one, are
        independently corroborated.  The rest bound the FP rate.
        """
        sample = self._bundle.d_sample_malicious
        if not sample:
            return 0.0
        deleted = {a for a in sample if self._deleted_from_graph(a)}
        deleted_names = {
            self._names[a] for a in deleted if a in self._names
        }
        corroborated = set(deleted)
        for app_id in sample - deleted:
            if self._names.get(app_id) in deleted_names:
                corroborated.add(app_id)
        return 1.0 - len(corroborated) / len(sample)
