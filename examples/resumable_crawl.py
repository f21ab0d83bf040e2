"""Resumable crawl: kill the study anywhere, resume it, lose nothing.

The paper's dataset took nine months of continuous crawling — no single
process survives that long.  This example runs the D-Sample crawl with a
crash-safe checkpoint journal, 'kills' the process three times at nasty
moments (including mid-way through writing a journal line, leaving a
torn write on disk), resumes after each death, and shows that the final
records are byte-identical to a run that was never interrupted.

Run:  python examples/resumable_crawl.py
"""

import hashlib
import json
import shutil
import tempfile
from pathlib import Path

from repro.config import ScaleConfig
from repro.crawler.checkpoint import (
    CrashPlan,
    CrawlJournal,
    SimulatedCrash,
    record_to_jsonable,
)
from repro.crawler.crawler import make_crawler
from repro.crawler.datasets import DatasetBuilder
from repro.ecosystem.simulation import run_simulation
from repro.mypagekeeper.classifier import UrlClassifier
from repro.mypagekeeper.monitor import MyPageKeeper

SCALE = 0.02
SEED = 2012
FAULT_RATE = 0.2  # the network misbehaves too, for good measure

#: (app index within the incarnation, crash point) of each injected death
DEATHS = [
    (5, "after_crawl"),   # work done, nothing journaled yet
    (8, "mid_append"),    # dies WHILE writing — leaves a torn line
    (3, "before_app"),    # dies between apps
]


def fingerprint(records) -> str:
    canonical = json.dumps(
        {a: record_to_jsonable(r) for a, r in sorted(records.items())},
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def main() -> None:
    config = ScaleConfig(scale=SCALE, master_seed=SEED, fault_rate=FAULT_RATE)
    world = run_simulation(config)
    report = MyPageKeeper(
        UrlClassifier(world.services.blacklist), world.post_log
    ).scan()
    apps = sorted(DatasetBuilder(world, report).build(crawl=False).d_sample)
    print(f"D-Sample: {len(apps)} apps to crawl "
          f"(fault rate {FAULT_RATE:.0%})\n")

    # The reference: one uninterrupted crawl.
    rng_state = world.installer.rng_state()
    reference = make_crawler(world).crawl_many(apps)
    print(f"uninterrupted run    {len(reference)} records, "
          f"fingerprint {fingerprint(reference)}\n")

    # The crash-ridden run: same world, same configuration, three deaths.
    checkpoint = Path(tempfile.mkdtemp(prefix="repro-checkpoint-"))
    world.installer.restore_rng_state(rng_state)
    records = None
    incarnation = 0
    deaths = iter(DEATHS)
    while records is None:
        incarnation += 1
        journal = CrawlJournal(checkpoint)
        durable = len(journal)
        plan = None
        death = next(deaths, None)
        if death is not None:
            plan = CrashPlan(app_index=death[0], point=death[1])
        try:
            records = make_crawler(world).crawl_many(
                apps, journal=journal, crash_plan=plan
            )
        except SimulatedCrash as crash:
            print(f"incarnation {incarnation}: resumed with {durable} apps "
                  f"durable, then died — {crash}")
        finally:
            journal.close()
    print(f"incarnation {incarnation}: resumed with {durable} apps durable "
          "and finished the crawl\n")

    match = fingerprint(records) == fingerprint(reference)
    print(f"final run            {len(records)} records, "
          f"fingerprint {fingerprint(records)}")
    print(f"byte-identical to the uninterrupted run: {match}")
    assert match, "resume invariant violated"
    shutil.rmtree(checkpoint, ignore_errors=True)

    print("\nThe journal made every completed app durable (written, "
          "flushed, fsynced)\nbefore the next one started. Each resume "
          "restored the crawl's start state,\nre-crawled every durable app "
          "and checked it against its line, and appended\nthe rest; the "
          "torn line from death #2 was truncated and its app crawled\n"
          "again in its place. See repro.crawler.checkpoint for the "
          "contract.")


if __name__ == "__main__":
    main()
