"""The MyPageKeeper monitor and the app-level ground-truth heuristic.

The monitor periodically crawls the walls/news feeds of subscribed
users; in the simulation the post log *is* the observed corpus, so a
scan walks the log, groups posts by URL, classifies each URL once, and
marks every post carrying a flagged URL (Sec 2.2).

:class:`AppLabeler` then applies the paper's heuristic (Sec 2.3): an
app with at least one flagged post is labelled malicious.  The labeler
also exposes each app's malicious-to-all-posts ratio, which Sec 6.2
uses to spot piggybacked popular apps.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mypagekeeper.classifier import UrlClassifier
from repro.platform.posts import Post, PostLog

__all__ = ["MonitorReport", "MyPageKeeper", "AppLabeler"]


@dataclass
class MonitorReport:
    """Everything one MyPageKeeper scan produced."""

    posts_scanned: int
    flagged_urls: set[str]
    flagged_post_ids: set[int]
    #: app_id -> (flagged posts, total posts); None key = app-less posts
    app_post_counts: dict[str | None, tuple[int, int]]

    @property
    def flagged_posts(self) -> int:
        return len(self.flagged_post_ids)

    def flagged_count(self, app_id: str | None) -> int:
        return self.app_post_counts.get(app_id, (0, 0))[0]

    def total_count(self, app_id: str | None) -> int:
        return self.app_post_counts.get(app_id, (0, 0))[1]

    def malicious_post_ratio(self, app_id: str) -> float:
        """Fraction of the app's posts flagged malicious (Fig 16)."""
        flagged, total = self.app_post_counts.get(app_id, (0, 0))
        return flagged / total if total else 0.0

    @property
    def flagged_by_apps_fraction(self) -> float:
        """Share of flagged posts that carry an application field (Sec 3)."""
        if not self.flagged_post_ids:
            return 0.0
        with_app = sum(
            flagged
            for app_id, (flagged, _total) in self.app_post_counts.items()
            if app_id is not None
        )
        return with_app / len(self.flagged_post_ids)


class MyPageKeeper:
    """The security app: URL-granularity post classification."""

    def __init__(self, classifier: UrlClassifier, post_log: PostLog) -> None:
        self._classifier = classifier
        self._post_log = post_log

    def scan(self, day: int | None = None) -> MonitorReport:
        """Classify every URL seen in the log (up to *day*, if given)."""
        posts_by_url: dict[str, list[Post]] = {}
        scanned = 0
        counts: dict[str | None, list[int]] = {}
        eligible: list[Post] = []
        for post in self._post_log:
            if day is not None and post.day > day:
                continue
            scanned += 1
            eligible.append(post)
            if post.link is not None:
                posts_by_url.setdefault(post.link, []).append(post)

        flagged_urls = self._classifier.classify_many(posts_by_url, day)
        flagged_post_ids: set[int] = set()
        for post in eligible:
            flagged = post.link in flagged_urls
            if flagged:
                flagged_post_ids.add(post.post_id)
            entry = counts.setdefault(post.app_id, [0, 0])
            entry[0] += int(flagged)
            entry[1] += 1
        return MonitorReport(
            posts_scanned=scanned,
            flagged_urls=flagged_urls,
            flagged_post_ids=flagged_post_ids,
            app_post_counts={k: (v[0], v[1]) for k, v in counts.items()},
        )


class AppLabeler:
    """Sec 2.3's heuristic: >= 1 flagged post => the app is malicious."""

    def __init__(self, report: MonitorReport) -> None:
        self._report = report

    @property
    def report(self) -> MonitorReport:
        return self._report

    def is_malicious(self, app_id: str) -> bool:
        return self._report.flagged_count(app_id) > 0

    def malicious_app_ids(self) -> set[str]:
        return {
            app_id
            for app_id, (flagged, _total) in self._report.app_post_counts.items()
            if app_id is not None and flagged > 0
        }

    def observed_app_ids(self) -> set[str]:
        return {
            app_id
            for app_id in self._report.app_post_counts
            if app_id is not None
        }
