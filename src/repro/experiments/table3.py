"""Table 3 — domains hosting malicious apps' redirect URIs (D-Inst).

The paper's top five domains host 83% of the 491 malicious apps in
D-Inst; the comparable shape is that a handful of domains dominate.
"""

from __future__ import annotations

from collections import Counter

from repro.analysis.report import ExperimentReport
from repro.config import PAPER
from repro.core.pipeline import PipelineResult
from repro.urlinfra.url import domain_of

__all__ = ["run", "hosting_domain_histogram"]


def hosting_domain_histogram(result: PipelineResult) -> Counter[str]:
    """Domain -> number of malicious D-Inst apps redirecting there."""
    _benign, malicious = result.bundle.d_inst
    histogram: Counter[str] = Counter()
    for app_id in malicious:
        record = result.bundle.records[app_id]
        if record.redirect_uri:
            domain = domain_of(record.redirect_uri)
            if domain:
                histogram[domain] += 1
    return histogram


def run(result: PipelineResult) -> ExperimentReport:
    report = ExperimentReport(
        "table3", "Top domains hosting malicious apps (D-Inst)"
    )
    histogram = hosting_domain_histogram(result)
    total = sum(histogram.values())
    # Equal counts rank by domain name, not by the iteration order of
    # the malicious set (which follows the process hash seed).
    top5 = sorted(histogram.items(), key=lambda item: (-item[1], item[0]))[:5]
    for rank, ((paper_domain, paper_count), measured) in enumerate(
        zip(PAPER.top_hosting_domains, top5), start=1
    ):
        domain, count = measured
        report.add(
            f"#{rank}",
            f"{paper_domain} ({paper_count} apps)",
            f"{domain} ({count} apps)",
        )
    coverage = sum(c for _, c in top5) / total if total else 0.0
    report.add_fraction(
        "top-5 domain coverage", PAPER.top5_hosting_domains_coverage, coverage
    )
    return report
