"""The perf-regression harness behind ``repro bench``.

Every optimisation in this codebase keeps its naive reference path
alive (``FeatureExtractor.vector``, ``_smo(row_cache=False)``,
``batch_max=1``, and the edit-distance DPs with
``naive_cluster_names`` in :mod:`repro.text.reference`) because
exactness is asserted against it.  This harness turns those
pairs into a regression gate: each component is timed fast-vs-reference
on an identical deterministic workload, and the *speedup ratios* go
into a JSON report (``BENCH_<n>.json``).

CI compares a fresh report against the committed baseline and fails
when a gated ratio drops by more than the tolerance (default 20%).
Ratios — not absolute throughputs — are the comparison unit on
purpose: a ratio of fast to naive on the *same* machine and workload
cancels the machine out, so a laptop baseline remains meaningful on a
CI runner.  Absolute throughputs are recorded alongside for reading,
never for gating.

Workloads are pure functions of the seed; only the measured wall time
(``time.perf_counter``) varies between runs.
"""

from __future__ import annotations

import json
import os
import platform
import random
import sys
import time
from typing import Any, Callable

__all__ = ["run_bench", "compare", "main"]

BENCH_VERSION = 1

#: ratios stable enough to gate on (large, workload-dominated, or —
#: for smo and batched_service — repeated and normalised until they
#: are); the remaining components are recorded for information only.
GATED_COMPONENTS = (
    "feature_matrix",
    "name_clustering",
    "similarity_kernel",
    "smo",
    "batched_service",
)

#: machine-independent absolute floors, checked on the *current* report
#: regardless of the baseline: an optimisation that stops winning at
#: all is a regression even if the baseline also recorded a loss.
#: ``strict=True`` demands measured > floor; otherwise measured >= floor.
ABSOLUTE_GATES = (
    ("batched_service_speedup", 1.0, True),
    ("smo_speedup", 1.0, False),
)


def _time(fn: Callable[[], Any], repeats: int = 1) -> tuple[float, Any]:
    """Best-of-``repeats`` wall time of ``fn`` and its last result."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best, value


# -- deterministic workloads -------------------------------------------------


def _clustering_corpus(n_names: int, seed: int) -> list[str]:
    """A skewed app-name corpus: franchise variants plus noise names.

    Mimics the paper's D-Sample name distribution — a few heavily
    reused malicious names with typo/version variants, and a long tail
    of unrelated names (Fig 10/11's regime).
    """
    rnd = random.Random(seed)
    stems = [
        "Farm Ville", "Mafia Wars", "Candy Crush Saga",
        "Texas HoldEm Poker", "Pet Society", "Castle Age",
        "Birthday Cards", "Daily Horoscope", "Photo Frames",
        "Who Viewed My Profile",
    ]

    def variant(stem: str) -> str:
        chars = list(stem)
        op = rnd.randrange(4)
        if op == 0 and len(chars) > 2:
            k = rnd.randrange(len(chars) - 1)
            chars[k], chars[k + 1] = chars[k + 1], chars[k]
        elif op == 1:
            chars[rnd.randrange(len(chars))] = rnd.choice("abcdefgh ")
        elif op == 2:
            chars.insert(rnd.randrange(len(chars) + 1), rnd.choice("xyz"))
        else:
            return stem + " " + str(rnd.randrange(1, 30))
        return "".join(chars)

    n_variants = (n_names * 4) // 5
    names = [variant(rnd.choice(stems)) for _ in range(n_variants)]
    names += [
        "".join(rnd.choice("abcdefghijklmnop ") for _ in range(rnd.randrange(5, 25)))
        for _ in range(n_names - n_variants)
    ]
    rnd.shuffle(names)
    return names


def _pipeline_result(scale: float, seed: int):
    from repro.experiments import common

    return common.get_result(scale=scale, seed=seed, sweep=False)


# -- component benchmarks ----------------------------------------------------


def _bench_feature_matrix(result, rows: int) -> dict[str, Any]:
    import numpy as np

    from repro.core.features import ALL_FEATURES

    records, _ = result.sample_records()
    batch = (records * (rows // len(records) + 1))[:rows]
    extractor = result.extractor

    naive_s, reference = _time(
        lambda: np.vstack([extractor.vector(r, ALL_FEATURES) for r in batch]),
        repeats=2,
    )
    fast_s, matrix = _time(lambda: extractor.matrix(batch, ALL_FEATURES), repeats=3)
    assert np.array_equal(matrix, reference)
    return {
        "rows": len(batch),
        "naive_s": naive_s,
        "fast_s": fast_s,
        "rows_per_s": len(batch) / fast_s,
        "speedup": naive_s / fast_s,
    }


def _bench_name_clustering(n_names: int, seed: int) -> dict[str, Any]:
    from repro.text.clustering import cluster_names
    from repro.text.reference import naive_cluster_names

    names = _clustering_corpus(n_names, seed)
    threshold = 0.8
    fast_s, fast = _time(lambda: cluster_names(names, threshold))
    naive_s, naive = _time(lambda: naive_cluster_names(names, threshold))
    assert fast.clusters == naive.clusters
    return {
        "names": len(names),
        "unique": len(set(names)),
        "threshold": threshold,
        "n_clusters": fast.n_clusters,
        "naive_s": naive_s,
        "fast_s": fast_s,
        "names_per_s": len(names) / fast_s,
        "speedup": naive_s / fast_s,
    }


def _bench_similarity_kernel(n_names: int, seed: int) -> dict[str, Any]:
    from repro.text.fastdist import similar
    from repro.text.reference import name_similarity

    names = sorted(set(_clustering_corpus(n_names, seed)))
    pairs = [
        (names[i], names[j])
        for i in range(len(names))
        for j in range(i + 1, min(i + 40, len(names)))
    ]
    threshold = 0.8

    naive_s, reference = _time(
        lambda: [name_similarity(a, b) >= threshold for a, b in pairs],
        repeats=2,
    )
    fast_s, verdicts = _time(
        lambda: [similar(a, b, threshold) for a, b in pairs], repeats=3
    )
    assert verdicts == reference
    return {
        "pairs": len(pairs),
        "threshold": threshold,
        "naive_s": naive_s,
        "fast_s": fast_s,
        "pairs_per_s": len(pairs) / fast_s,
        "speedup": naive_s / fast_s,
    }


def _bench_smo(n_samples: int, seed: int) -> dict[str, Any]:
    import numpy as np

    from repro.ml.kernels import rbf_kernel
    from repro.ml.svm import _smo

    rng = np.random.default_rng(seed)
    half = n_samples // 2
    x = np.vstack(
        [rng.normal(0.0, 1.0, (half, 9)), rng.normal(0.25, 1.0, (half, 9))]
    )
    signs = np.array([-1.0] * half + [1.0] * half)
    kernel_matrix = rbf_kernel(x, x, gamma=1.0 / 9.0)

    # Best-of-5: a single SMO run is short enough at CI scale that
    # scheduler noise alone once pushed the ratio below 1.0x.
    naive_s, reference = _time(
        lambda: _smo(kernel_matrix, signs, 1.0, 1e-3, 200, row_cache=False),
        repeats=5,
    )
    fast_s, fitted = _time(
        lambda: _smo(kernel_matrix, signs, 1.0, 1e-3, 200, row_cache=True),
        repeats=5,
    )
    assert np.array_equal(reference[0], fitted[0]) and reference[1] == fitted[1]
    return {
        "samples": n_samples,
        "iterations": fitted[2],
        "naive_s": naive_s,
        "fast_s": fast_s,
        "speedup": naive_s / fast_s,
    }


def _bench_batched_service(
    result, n_requests: int, batch_max: int, seed: int, repeats: int = 2
) -> dict[str, Any]:
    from repro.config import ServiceConfig
    from repro.core.frappe import FrappeCascade
    from repro.service.loadgen import (
        LoadProfile,
        estimate_capacity_rps,
        generate_requests,
    )
    from repro.service.service import make_service
    from repro.service.types import SERVED

    # Train the cascade once, outside every timed region.  The old
    # harness let ``make_service`` retrain it inside each timed run — a
    # constant cost larger than serving itself at CI scale, diluting
    # the measured ratio toward 1.0 regardless of how serving changed.
    if result.cascade is None:
        records, labels = result.sample_records()
        result.cascade = FrappeCascade(result.extractor).fit(records, labels)

    app_ids = sorted(result.bundle.d_sample)
    # Open-loop overload (3x the analytic single-worker capacity) over
    # the whole app pool: adaptive batching only wins when the queue
    # builds depth *and* the ticks actually score (a tiny hot pool
    # turns the run into cache hits, which cost the same either way).
    # Generous deadlines keep the headroom rule from forcing the batch
    # back down to 1 the moment the backlog grows.
    profile = LoadProfile(
        n_requests=n_requests,
        rate_rps=estimate_capacity_rps(result.world.schedule) * 3.0,
        interactive_deadline_s=600.0,
        bulk_deadline_s=1800.0,
        pool_size=None,
        seed=seed,
    )
    requests = generate_requests(app_ids, profile)
    queue_depth = 64

    def timed_serve(config: ServiceConfig):
        """Best-of-``repeats`` serve time; construction stays untimed."""
        best_s = float("inf")
        best = None
        for _ in range(repeats):
            service = make_service(result, config)
            start = time.perf_counter()
            report = service.serve(list(requests))
            elapsed = time.perf_counter() - start
            if elapsed < best_s:
                best_s, best = elapsed, report
        return best_s, best

    unbatched_s, seq_report = timed_serve(
        ServiceConfig(max_queue_depth=queue_depth)
    )
    batched_s, batch_report = timed_serve(
        ServiceConfig(max_queue_depth=queue_depth, batch_max=batch_max)
    )
    served_unbatched = seq_report.outcome_counts().get(SERVED, 0)
    served_batched = batch_report.outcome_counts().get(SERVED, 0)
    # Both runs consume the *identical* offered workload, but batching
    # moves simulated time, so the served subsets can differ by a few
    # requests; wall time per served request is the fair unit.
    per_served_unbatched = unbatched_s / max(1, served_unbatched)
    per_served_batched = batched_s / max(1, served_batched)
    return {
        "requests": n_requests,
        "batch_max": batch_max,
        "queue_depth": queue_depth,
        "served_unbatched": served_unbatched,
        "served": served_batched,
        "max_batch_drained": max(r.batch_size for r in batch_report.responses),
        "unbatched_s": unbatched_s,
        "batched_s": batched_s,
        "requests_per_s": served_batched / batched_s,
        "speedup": per_served_unbatched / per_served_batched,
    }


def _bench_store_ingest(n_rows: int, seed: int) -> dict[str, Any]:
    """Analytics-store ingest + query throughput vs raw-artifact reparse.

    The store's value proposition in numbers: ingest N synthetic
    verdict rows once (rows/s recorded), then compute the operational
    aggregates (SLO burn-down, rung mix, version mix) from SQL, against
    the naive alternative a storeless report has — re-parse the JSONL
    artifact and aggregate in Python on every query.  Not gated: both
    sides are small at CI scale and sqlite cold-cache effects are
    wall-clock noisy.
    """
    import tempfile

    from repro.store import (
        AnalyticsStore,
        ingest_service_report,
        rung_mix,
        slo_burndown,
        version_mix,
    )

    rnd = random.Random(seed)
    outcomes = ("served", "served", "served", "overloaded", "deadline")
    rungs = ("full", "lite", "cached", "stale", "advisory")
    responses = []
    for index in range(n_rows):
        outcome = outcomes[rnd.randrange(len(outcomes))]
        arrival = index * 0.25
        responses.append({
            "app_id": f"app{index % 97:05d}",
            "outcome": outcome,
            "rung": rungs[rnd.randrange(len(rungs))]
            if outcome == "served" else "none",
            "verdict": rnd.random() < 0.3 if outcome == "served" else None,
            "risk_score": round(rnd.random() * 100.0, 3),
            "confidence": "high", "priority": "interactive",
            "reason": "", "advisories": [], "cache_state": "",
            "arrival_s": arrival, "started_s": arrival + 0.5,
            "finished_s": arrival + 1.5, "attempts": 1, "faults": 0,
            "batch_size": 4, "model_version": index % 3,
        })
    text = "".join(
        json.dumps(r, sort_keys=True) + "\n" for r in responses
    )

    def naive():
        rows = [json.loads(line) for line in text.splitlines()]
        t0 = min(r["arrival_s"] for r in rows)
        windows: dict[int, list[int]] = {}
        mix: dict[int, dict[str, int]] = {}
        versions: dict[int, dict[str, int]] = {}
        for row in rows:
            window = int((row["finished_s"] - t0) / 60.0)
            counts = windows.setdefault(window, [0, 0])
            counts[0] += 1
            served = row["outcome"] == "served"
            counts[1] += served
            if served:
                per = mix.setdefault(window, {})
                per[row["rung"]] = per.get(row["rung"], 0) + 1
            per_version = versions.setdefault(row["model_version"], {})
            per_version[row["outcome"]] = \
                per_version.get(row["outcome"], 0) + 1
        return windows, mix, versions

    naive_s, _ = _time(naive, repeats=3)
    with tempfile.TemporaryDirectory() as tmp:
        store = AnalyticsStore(os.path.join(tmp, "bench.sqlite"))
        try:
            ingest_s, _ = _time(lambda: ingest_service_report(
                store, {"responses": responses}, label="bench"
            ))
            fast_s, _ = _time(
                lambda: (
                    slo_burndown(store, window_s=60.0),
                    rung_mix(store, window_s=60.0),
                    version_mix(store),
                ),
                repeats=3,
            )
        finally:
            store.close()
    return {
        "n_rows": n_rows,
        "ingest_s": ingest_s,
        "ingest_rows_per_s": n_rows / ingest_s,
        "query_rows_per_s": n_rows / fast_s,
        "naive_s": naive_s,
        "fast_s": fast_s,
        "speedup": naive_s / fast_s,
    }


# -- the harness -------------------------------------------------------------


def run_bench(mode: str = "quick", seed: int = 2012) -> dict[str, Any]:
    """Run every component benchmark; return the report dict.

    ``mode="quick"`` sizes workloads for CI (a couple of minutes);
    ``mode="full"`` runs the acceptance-scale workloads (10K names for
    clustering) and is what the committed ``BENCH_<n>.json`` records.
    """
    import numpy as np

    if mode not in ("quick", "full"):
        raise ValueError(f"unknown mode: {mode!r}")
    full = mode == "full"
    result = _pipeline_result(scale=0.02 if full else 0.01, seed=seed)

    components = {
        "feature_matrix": _bench_feature_matrix(
            result, rows=100_000 if full else 20_000
        ),
        "name_clustering": _bench_name_clustering(
            n_names=10_000 if full else 2_000, seed=seed
        ),
        "similarity_kernel": _bench_similarity_kernel(
            n_names=1_500 if full else 600, seed=seed
        ),
        "smo": _bench_smo(n_samples=600 if full else 300, seed=seed),
        "batched_service": _bench_batched_service(
            result,
            n_requests=120 if full else 60,
            batch_max=8,
            seed=seed,
        ),
        "store_ingest": _bench_store_ingest(
            n_rows=50_000 if full else 10_000, seed=seed
        ),
    }
    return {
        "schema_version": BENCH_VERSION,
        "bench_version": BENCH_VERSION,  # legacy alias for old tooling
        "mode": mode,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "components": components,
        "gates": {
            f"{name}_speedup": components[name]["speedup"]
            for name in GATED_COMPONENTS
        },
    }


def compare(
    current: dict[str, Any],
    baseline: dict[str, Any],
    tolerance: float = 0.2,
) -> list[str]:
    """Regression check: gated ratios must not drop > ``tolerance``.

    Returns a list of human-readable failures (empty = pass).  Only the
    machine-independent speedup ratios are gated; extra gates in the
    current report (new components) pass trivially.  On top of the
    relative check, :data:`ABSOLUTE_GATES` demands that the batched
    service and the SMO row cache keep *winning at all* — a fast path
    slower than its reference is a bug, whatever the baseline says.
    """
    failures = []
    gates = current.get("gates", {})
    for gate, floor, strict in ABSOLUTE_GATES:
        measured = gates.get(gate)
        if measured is None:
            failures.append(f"{gate}: missing from the current report")
        elif measured < floor or (strict and measured == floor):
            op = ">" if strict else ">="
            failures.append(
                f"{gate}: {measured:.2f}x violates the absolute floor "
                f"(must be {op} {floor:.2f}x: the fast path must not "
                "lose to its reference)"
            )
    if current.get("mode") != baseline.get("mode"):
        failures.append(
            f"mode mismatch: current={current.get('mode')!r} "
            f"baseline={baseline.get('mode')!r} — ratios are only "
            "comparable between same-mode runs"
        )
    for gate, reference in sorted(baseline.get("gates", {}).items()):
        measured = current.get("gates", {}).get(gate)
        if measured is None:
            failures.append(f"{gate}: missing from the current report")
            continue
        floor = (1.0 - tolerance) * reference
        if measured < floor:
            failures.append(
                f"{gate}: {measured:.2f}x is below {floor:.2f}x "
                f"(baseline {reference:.2f}x - {tolerance:.0%})"
            )
    return failures


def render(report: dict[str, Any]) -> str:
    lines = [
        f"bench mode={report['mode']} seed={report['seed']} "
        f"(python {report['python']}, numpy {report['numpy']})"
    ]
    timing_keys = ("naive_s", "fast_s", "unbatched_s", "batched_s", "speedup")
    for name, data in report["components"].items():
        gated = " [gated]" if name in GATED_COMPONENTS else ""
        slow = data.get("naive_s", data.get("unbatched_s"))
        fast = data.get("fast_s", data.get("batched_s"))
        detail = ", ".join(
            f"{key}={value:.3g}" if isinstance(value, float) else f"{key}={value}"
            for key, value in data.items()
            if key not in timing_keys
        )
        lines.append(
            f"  {name:<18} {data['speedup']:6.1f}x "
            f"(reference {slow:.2f}s -> fast {fast:.2f}s; {detail}){gated}"
        )
    return "\n".join(lines)


def main(args) -> int:
    """Entry point for ``repro bench`` (and ``benchmarks/baseline.py``)."""
    report = run_bench(mode="full" if args.full else "quick", seed=args.seed)
    print(render(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    if args.compare:
        # A missing baseline is a first-run / fresh-checkout situation,
        # not a regression: warn and pass so CI can bootstrap the
        # baseline instead of tracebacking.
        if not os.path.exists(args.compare):
            print(
                f"warning: baseline {args.compare} not found; skipping "
                "the regression gate (write one with --out)",
                file=sys.stderr,
            )
            return 0
        with open(args.compare, encoding="utf-8") as handle:
            baseline = json.load(handle)
        failures = compare(report, baseline, tolerance=args.tolerance)
        if failures:
            print(f"PERF REGRESSION vs {args.compare}:")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        print(
            f"no regression vs {args.compare} "
            f"(tolerance {args.tolerance:.0%} on "
            f"{len(baseline.get('gates', {}))} gated ratios)"
        )
    return 0
