"""Dataset construction (Sec 2.3, Table 1).

Builds the paper's dataset hierarchy from the observed world:

* **D-Total** — every app seen posting,
* **D-Sample** — MyPageKeeper-flagged apps (minus the popular-app
  whitelist) plus an equal number of benign apps (Social-Bakers-vetted
  first, topped up with the highest-volume unflagged apps),
* **D-Summary / D-Inst / D-ProfileFeed** — the D-Sample apps whose
  respective crawls succeeded,
* **D-Complete** — the intersection, used to train the classifiers.

The labels produced here are the pipeline's *operational* ground truth
(derived from MyPageKeeper, not from the simulation's hidden labels),
including its imperfections — exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.crawler.crawler import AppCrawler, CrawlRecord
from repro.mypagekeeper.monitor import AppLabeler, MonitorReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.crawler.checkpoint import CrawlJournal
    from repro.ecosystem.simulation import SimulatedWorld

__all__ = ["DatasetBundle", "DatasetBuilder"]


@dataclass
class DatasetBundle:
    """The assembled datasets plus the crawl records behind them."""

    d_total: set[str]
    whitelist: set[str]
    d_sample_malicious: set[str]
    d_sample_benign: set[str]
    records: dict[str, CrawlRecord] = field(default_factory=dict)

    @property
    def d_sample(self) -> set[str]:
        return self.d_sample_malicious | self.d_sample_benign

    def label(self, app_id: str) -> int:
        """Operational label: 1 = malicious (MyPageKeeper-derived)."""
        if app_id in self.d_sample_malicious:
            return 1
        if app_id in self.d_sample_benign:
            return 0
        raise KeyError(f"app not in D-Sample: {app_id}")

    # -- crawl-defined subsets -------------------------------------------

    def _subset(self, predicate) -> tuple[set[str], set[str]]:
        benign = {
            a for a in self.d_sample_benign
            if a in self.records and predicate(self.records[a])
        }
        malicious = {
            a for a in self.d_sample_malicious
            if a in self.records and predicate(self.records[a])
        }
        return benign, malicious

    @property
    def d_summary(self) -> tuple[set[str], set[str]]:
        """(benign, malicious) apps with a crawled summary."""
        return self._subset(lambda r: r.summary_ok)

    @property
    def d_inst(self) -> tuple[set[str], set[str]]:
        """(benign, malicious) apps with a crawled permission set."""
        return self._subset(lambda r: r.inst_ok)

    @property
    def d_profilefeed(self) -> tuple[set[str], set[str]]:
        """(benign, malicious) apps with a crawled profile feed."""
        return self._subset(lambda r: r.feed_ok)

    @property
    def d_complete(self) -> tuple[set[str], set[str]]:
        """(benign, malicious) apps with every crawl successful."""
        return self._subset(lambda r: r.complete)

    def table1_rows(self) -> list[tuple[str, int, int]]:
        """(dataset, benign, malicious) rows as in Table 1."""
        rows = [("D-Total", len(self.d_total), -1)]
        for name, (benign, malicious) in (
            ("D-Sample", (self.d_sample_benign, self.d_sample_malicious)),
            ("D-Summary", self.d_summary),
            ("D-Inst", self.d_inst),
            ("D-ProfileFeed", self.d_profilefeed),
            ("D-Complete", self.d_complete),
        ):
            rows.append((name, len(benign), len(malicious)))
        return rows


class DatasetBuilder:
    """Assembles the dataset hierarchy from a monitor report."""

    def __init__(
        self,
        world: "SimulatedWorld",
        report: MonitorReport,
        whitelist_top_fraction: float = 0.01,
    ) -> None:
        self._world = world
        self._report = report
        self._labeler = AppLabeler(report)
        self._whitelist_top_fraction = whitelist_top_fraction

    def build(
        self,
        crawl: bool = True,
        crawler: AppCrawler | None = None,
        journal: "CrawlJournal | None" = None,
    ) -> DatasetBundle:
        """Assemble the bundle, optionally crawling D-Sample.

        Pass *crawler* to crawl through a configured transport (fault
        injection, retry policy); the default is a fault-free crawler.
        Pass *journal* to make the crawl crash-safe: completed records
        become durable as they land and a rebuilt builder resumes from
        them (see :mod:`repro.crawler.checkpoint`).
        """
        d_total = self._labeler.observed_app_ids()
        whitelist = self._build_whitelist(d_total)
        flagged = self._labeler.malicious_app_ids()
        d_sample_malicious = flagged - whitelist
        d_sample_benign = self._select_benign(d_total, flagged, len(d_sample_malicious))
        bundle = DatasetBundle(
            d_total=d_total,
            whitelist=whitelist,
            d_sample_malicious=d_sample_malicious,
            d_sample_benign=d_sample_benign,
        )
        if crawl:
            crawler = crawler or AppCrawler(self._world)
            bundle.records = crawler.crawl_many(bundle.d_sample, journal=journal)
        return bundle

    def _build_whitelist(self, d_total: set[str]) -> set[str]:
        """The popular-app whitelist (Sec 2.3).

        The paper whitelisted "the most popular apps" with manual
        effort; popularity is proxied by observed post volume — the
        piggybacked apps (FarmVille, 'Facebook for iPhone', ...) are
        precisely the ones hackers pick *because* they are popular.
        """
        ranked = sorted(
            d_total,
            key=lambda app_id: (-self._report.total_count(app_id), app_id),
        )
        top = max(1, int(len(ranked) * self._whitelist_top_fraction))
        return set(ranked[:top])

    def _select_benign(
        self, d_total: set[str], flagged: set[str], needed: int
    ) -> set[str]:
        """Benign half of D-Sample: vetted apps first, then top posters.

        Candidates are ranked in a canonical order (ties broken by app
        ID) so the selection — and everything downstream of it — is
        identical for a given seed regardless of the process's string
        hash seed (set iteration order is not deterministic otherwise).
        """
        socialbakers = self._world.socialbakers
        unflagged = sorted(a for a in d_total if a not in flagged)
        vetted = [a for a in unflagged if socialbakers.is_vetted(a)]
        chosen = set(vetted[:needed]) if len(vetted) >= needed else set(vetted)
        if len(chosen) < needed:
            by_volume = sorted(
                (a for a in unflagged if a not in chosen),
                key=lambda app_id: (-self._report.total_count(app_id), app_id),
            )
            chosen.update(by_volume[: needed - len(chosen)])
        return chosen
