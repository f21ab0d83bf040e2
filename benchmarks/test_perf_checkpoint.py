"""Checkpoint benchmark: what crash-safety costs the crawl.

Crawls the same D-Sample three ways — no journal, a write-ahead journal
(fsync per app), and a resume from a journal that holds the first half
of the crawl (the durable half is re-crawled and checked, the rest
crawled and appended) — and prints the wall-clock overhead of each.
The records must be byte-identical across all three: the journal is
pure bookkeeping, never allowed to perturb the study.

Run with ``pytest benchmarks/test_perf_checkpoint.py --benchmark-only -s``.
"""

from __future__ import annotations

import itertools
import json
import time

import pytest

from repro.config import ScaleConfig
from repro.crawler.checkpoint import (
    AFTER_APPEND,
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

CKPT_SCALE = 0.04
CKPT_SEED = 2012
CKPT_FAULT_RATE = 0.2

VARIANTS = ("no-journal", "journal", "journal-resume-half")

_world_cache: dict = {}
_canons: dict[str, bytes] = {}
_durations: dict[str, float] = {}
_dir_counter = itertools.count()


def _world_and_sample():
    if not _world_cache:
        world = run_simulation(
            ScaleConfig(
                scale=CKPT_SCALE,
                master_seed=CKPT_SEED,
                fault_rate=CKPT_FAULT_RATE,
            )
        )
        report = MyPageKeeper(
            UrlClassifier(world.services.blacklist), world.post_log
        ).scan()
        bundle = DatasetBuilder(world, report).build(crawl=False)
        _world_cache["world"] = world
        _world_cache["sample"] = sorted(bundle.d_sample)
        _world_cache["rng_state"] = world.installer.rng_state()
    return _world_cache["world"], _world_cache["sample"]


def _canon(records) -> bytes:
    return json.dumps(
        {a: record_to_jsonable(r) for a, r in sorted(records.items())},
        sort_keys=True,
    ).encode()


def _half_durable(world, apps, directory) -> None:
    """Leave *directory* holding the first half of the crawl, durably."""
    with CrawlJournal(directory) as journal:
        try:
            make_crawler(world).crawl_many(
                apps,
                journal=journal,
                crash_plan=CrashPlan(len(apps) // 2 - 1, AFTER_APPEND),
            )
        except SimulatedCrash:
            pass
    world.installer.restore_rng_state(_world_cache["rng_state"])


@pytest.mark.parametrize("variant", VARIANTS)
def test_perf_checkpoint_overhead(benchmark, tmp_path, variant):
    world, apps = _world_and_sample()

    def run():
        world.installer.restore_rng_state(_world_cache["rng_state"])
        journal = None
        if variant != "no-journal":
            directory = tmp_path / f"ck{next(_dir_counter)}"
            if variant == "journal-resume-half":
                _half_durable(world, apps, directory)
            journal = CrawlJournal(directory)
        started = time.perf_counter()
        try:
            records = make_crawler(world).crawl_many(apps, journal=journal)
        finally:
            if journal is not None:
                journal.close()
        _durations[variant] = time.perf_counter() - started
        return records

    records = benchmark.pedantic(run, rounds=1, iterations=1)
    _canons[variant] = _canon(records)

    print()
    print(f"variant           {variant}")
    print(f"apps crawled      {len(records)}")
    print(f"crawl wall time   {_durations[variant] * 1000:.0f} ms")
    if variant != "no-journal" and "no-journal" in _durations:
        base = _durations["no-journal"]
        overhead = _durations[variant] / base - 1.0 if base > 0 else 0.0
        print(f"journal overhead  {overhead:+.1%} vs no-journal")
        # Identical records: durability is bookkeeping, not behaviour.
        assert _canons[variant] == _canons["no-journal"]
