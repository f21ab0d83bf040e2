"""Observability overhead gate: tracing must stay cheap where it counts.

The gate targets the **batched-scoring path** — the stage
``VerdictService._handle_batch`` runs per drained tick: one
:meth:`FrappeCascade.score_batch` pass over the tick's live crawl
records, wrapped in a ``score`` profile block with the per-batch
simulated-cost and batch-size hooks.  Instrumentation on this path is
*per batch* by design, so it amortises against real feature-extraction
and kernel work; enabled tracing must stay under 10% there.

Two instrumented layers sit deliberately outside the gate and are
priced separately as a printed diagnostic:

* the per-request ``serve.request`` spans (admission/dispatch cost,
  paid once per request regardless of batching), and
* the crawl layer, which records an event per retry attempt by design
  (the causal-chain contract in ``tests/test_obs_tracer.py``).

Both are honest per-item costs against a simulated transport whose
"work" is microseconds of Python; the end-to-end serve number below
reports them instead of hiding them inside the scoring figure.

Wall-time ratio, best-of-N on interleaved runs, so scheduler noise hits
both sides evenly.  Run with ``pytest benchmarks/test_perf_obs.py -s``.
"""

from __future__ import annotations

import time

from repro.config import ScaleConfig, ServiceConfig
from repro.core.pipeline import FrappePipeline
from repro.obs import TracingObserver, get_observer, observation
from repro.service import LoadProfile, generate_requests, make_service

SCALE = 0.04
SEED = 424242
BATCH_SIZE = 8
ROUNDS = 5
MAX_OVERHEAD = 0.10
#: stand-in for ``ServiceConfig.score_cost_s`` in the mirrored stage
SCORE_COST_S = 0.01


def _pipeline():
    # fault_rate > 0 so the pipeline trains the degradation cascade —
    # the same model object the service scores batches through.
    return FrappePipeline(
        ScaleConfig(scale=SCALE, master_seed=SEED, fault_rate=0.2)
    ).run(sweep_unlabelled=False)


def _score_batches(cascade, records, observer):
    """The service's batched-scoring stage, hook for hook.

    Mirrors exactly what ``_handle_batch`` wraps around
    :meth:`FrappeCascade.score_batch` for each tick's live records: the
    ``score`` profile block, the per-batch simulated-cost attribution,
    and the batch-size histogram sample.
    """
    scored = []
    with observation(observer):
        obs = get_observer()
        start = time.perf_counter()
        for base in range(0, len(records), BATCH_SIZE):
            batch = records[base : base + BATCH_SIZE]
            with obs.profile("score"):
                scored = cascade.score_batch(batch)
            if obs.enabled:
                obs.sim_cost("score", SCORE_COST_S)
                obs.observe("serve_batch_live", float(len(batch)))
        elapsed = time.perf_counter() - start
    assert len(scored) > 0
    return elapsed


def _serve_once(result, observer):
    """End-to-end serve with cache misses (crawl + score), for the
    diagnostic: per-request spans plus the crawl layer's per-attempt
    events."""
    service = make_service(
        result, ServiceConfig(batch_max=BATCH_SIZE, max_queue_depth=32)
    )
    profile = LoadProfile(
        n_requests=400, rate_rps=0.5, pool_size=200, seed=SEED
    )
    requests = generate_requests(sorted(result.bundle.d_sample), profile)
    with observation(observer):
        start = time.perf_counter()
        report = service.serve(requests)
        elapsed = time.perf_counter() - start
    assert report.responses
    return elapsed


def test_enabled_tracing_overhead_under_10_percent_on_batched_scoring():
    result = _pipeline()
    records, _labels = result.sample_records()
    cascade = result.cascade
    assert cascade is not None

    # Warm both paths once (imports, allocator, cache lines).
    _score_batches(cascade, records, None)
    _score_batches(cascade, records, TracingObserver())

    disabled = enabled = float("inf")
    for _ in range(ROUNDS):
        disabled = min(disabled, _score_batches(cascade, records, None))
        enabled = min(
            enabled, _score_batches(cascade, records, TracingObserver())
        )
    overhead = enabled / disabled - 1.0
    print(
        f"\nbatched scoring ({len(records)} records, "
        f"batch_size={BATCH_SIZE}): off={disabled * 1000:.1f}ms "
        f"on={enabled * 1000:.1f}ms overhead={overhead:+.1%} "
        f"(gate {MAX_OVERHEAD:.0%})"
    )

    # Diagnostic only: the full serve path adds per-request spans and
    # the crawl layer's deliberate per-retry-attempt events.
    serve_off = serve_on = float("inf")
    for _ in range(2):
        serve_off = min(serve_off, _serve_once(result, None))
        serve_on = min(serve_on, _serve_once(result, TracingObserver()))
    print(
        f"end-to-end serve incl. crawl (diagnostic): "
        f"off={serve_off * 1000:.1f}ms on={serve_on * 1000:.1f}ms "
        f"overhead={serve_on / serve_off - 1.0:+.1%}"
    )

    assert overhead < MAX_OVERHEAD, (
        f"enabled tracing costs {overhead:+.1%} on the batched-scoring "
        f"path (budget {MAX_OVERHEAD:.0%})"
    )
