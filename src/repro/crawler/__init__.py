"""The measurement apparatus: crawler, vetting directory, dataset builder.

This package reproduces Sec 2.3's data collection: weekly crawls of the
Graph API and installation URLs over the March–May window, the Social
Bakers vetting used to select benign apps, the popular-app whitelist
that rescues piggybacked apps from mislabelling, and the construction of
the D-Total / D-Sample / D-Summary / D-Inst / D-ProfileFeed / D-Complete
datasets (Table 1).

Crawls run through a transport layer that may inject faults
(:mod:`repro.platform.transport`); :mod:`repro.crawler.resilience`
provides the retry/backoff policy, circuit breakers, and per-collection
outcome records the crawler uses to survive them, and
:mod:`repro.crawler.checkpoint` makes the whole crawl crash-safe: a
write-ahead :class:`CrawlJournal` (an app is *durable* — survives any
process kill — once its journal line is written, flushed, and fsynced)
and kill-anywhere resume, which restores each crawl's start state and
re-crawls and checks its durable prefix, with crash injection
(:class:`CrashPlan` / :exc:`SimulatedCrash`).
"""

from repro.crawler.socialbakers import SocialBakers
from repro.crawler.crawler import (
    AppCrawler,
    CrawlRecord,
    make_crawler,
    outcome_tallies,
    recovery_rate,
)
from repro.crawler.datasets import DatasetBundle, DatasetBuilder
from repro.crawler.resilience import (
    GAVE_UP,
    OK,
    PERMANENT,
    SKIPPED,
    CircuitBreaker,
    CrawlOutcome,
    ResilientExecutor,
    RetryPolicy,
)
# checkpoint imports crawler.crawler, so it must come after it here.
from repro.crawler.checkpoint import CrashPlan, CrawlJournal, SimulatedCrash
from repro.durable import atomic_write

__all__ = [
    "CrawlJournal",
    "CrashPlan",
    "SimulatedCrash",
    "atomic_write",
    "SocialBakers",
    "AppCrawler",
    "CrawlRecord",
    "make_crawler",
    "outcome_tallies",
    "recovery_rate",
    "DatasetBundle",
    "DatasetBuilder",
    "OK",
    "GAVE_UP",
    "PERMANENT",
    "SKIPPED",
    "RetryPolicy",
    "CircuitBreaker",
    "CrawlOutcome",
    "ResilientExecutor",
]
