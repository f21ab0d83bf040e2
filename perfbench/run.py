"""End-to-end benchmark of the FRAppE reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload study|serve|monitor --seed N \
        --seconds S --trace 0|1

The script re-launches itself in a fresh interpreter with pinned BLAS
threads and a fixed hash seed, runs the workload's repetitions for
about ``--seconds`` seconds, checks every repetition's output, and
prints one JSON object as its last line: the end-to-end metrics of
``BENCHMARK.json`` (``--trace 0``) or its per-layer metrics
(``--trace 1``).  A line before it, ``{"info": ...}``, records the
host (``nproc``, load average), the output digest and the raw samples.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".perfbench"

#: set in the re-launched interpreter
CHILD_FLAG = "PERFBENCH_CHILD"
HYGIENE = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
#: the whole run, set-up included, ends within this or is killed
CHILD_TIMEOUT_S = 170
#: no input is started once a run has taken this many times --seconds
#: (a host much slower than the one ``rep_s`` was measured on still
#: finishes in time; two studies take about 1.6 times 30 s)
LAST_START = 2.0
#: a run measures at least this many inputs, however long they take
MIN_INPUTS = 2
MIN_INPUTS_TRACED = 1
#: fresh-interpreter import samples for the study's set-up time
SETUP_SAMPLES = 3


def child_env() -> dict[str, str]:
    env = dict(os.environ, **HYGIENE)
    env.pop(CHILD_FLAG, None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return env


def launch(argv: list[str]) -> int:
    """Run the benchmark in a fresh interpreter and wait for it."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    env[CHILD_FLAG] = "1"
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *argv],
        env=env, cwd=ROOT, start_new_session=True,
    )
    try:
        return proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: killed after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


class Rep(NamedTuple):
    """One timed repetition."""

    input: int
    traced: bool
    wall: float
    result: Any


def peak_rss_mb() -> float:
    """Peak RSS of this process or of any worker it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


#: per-layer wall times, as named by the wrappers in ``workloads``
TIMED_LAYERS = (
    "ecosystem.simulate_s", "mypagekeeper.scan_s", "crawler.build_s",
    "crawler.crawl_many_s", "crawler.crawl_app_s", "core.fit_s",
    "ml.svc_fit_s", "core.predict_s", "core.score_batch_s", "core.validate_s",
    "collusion.discover_s", "text.cluster_names_s", "ml.cross_validate_s",
    "experiments.tables_s", "crawler.epoch_s", "crawler.resync_s",
    "crawler.append_s",
)


def layer_values(tracer, result, wall_s: float) -> dict[str, float]:
    """One traced repetition's per-layer figures."""
    seconds, calls, counts = tracer.seconds, tracer.calls, tracer.counts
    scan_s = seconds["mypagekeeper.scan_s"]
    values = {name: seconds[name] for name in TIMED_LAYERS}
    values.update({
        "ecosystem.posts": counts["ecosystem.posts"],
        "mypagekeeper.posts_per_s": (
            counts["mypagekeeper.posts"] / scan_s if scan_s else 0.0
        ),
        "crawler.crawl_app_calls": calls["crawler.crawl_app_s"],
        "core.score_batch_calls": calls["core.score_batch_s"],
        "core.score_batch_rows": counts["core.score_batch_rows"],
        "crawler.append_calls": calls["crawler.append_s"],
        "trace.unattributed_s": wall_s - tracer.covered_s,
    })
    values.update(result.layer)
    return values


def end_to_end_values(reps: list[Rep], setup_times: list[float]) -> dict[str, float]:
    """Medians over a run's repetitions of every end-to-end figure."""
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(rep.wall for rep in reps),
        "peak_rss_mb": peak_rss_mb(),
    }
    first = reps[0].result
    for name in first.rates:
        values[name] = statistics.median(
            count / (rep.wall if span is None else span)
            for rep in reps
            for count, span in [rep.result.rates[name]]
        )
    for name in first.e2e:
        values[name] = statistics.median(rep.result.e2e[name] for rep in reps)
    return values


def layer_summary(reps: list[Rep], layers: list[dict[str, float]]) -> dict[str, float]:
    """Per-layer figures averaged over the traced repetitions."""
    values = {
        name: statistics.fmean(layer[name] for layer in layers)
        for name in layers[0]
    }
    values["trace.overhead_s"] = statistics.median(
        rep.wall for rep in reps if rep.traced
    ) - statistics.median(rep.wall for rep in reps if not rep.traced)
    return values


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes=None,
    spans_path: Path | None = None,
    inputs: int | None = None,
) -> tuple[dict, dict]:
    """Run one workload; returns (result object, info).

    *sizes* and *inputs* (the number of input sets) let the smoke tests
    run a tiny benchmark; a real run derives both from the defaults.
    """
    from layers import LayerTracer
    from workloads import (
        WORKLOADS, CheckFailed, Sizes, digest, input_seed, install_layer_wrappers,
    )

    spec = json.loads(SPEC.read_text())
    group = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "spool").mkdir(parents=True)
    info: dict = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "nproc": os.cpu_count(), "loadavg_start": os.getloadavg(),
    }
    try:
        bench = WORKLOADS[workload](sizes or Sizes(), workdir)
        tracer = LayerTracer(workdir / "spool") if trace else None
        start = time.perf_counter()
        setup_times: list[float] = []
        # The study's set-up is loading the program, sampled in fresh
        # interpreters; the other workloads time their own set-up.
        timed_setup = not hasattr(bench, "setup_samples")
        if not timed_setup:
            setup_times = bench.setup_samples(child_env(), SETUP_SAMPLES)
        # Each repetition runs on its own inputs, derived from the seed,
        # so a run's median spans several worlds rather than one.  The
        # count depends only on --seconds, never on how fast the host is.
        if inputs is None:
            inputs = max(MIN_INPUTS, int(seconds // bench.rep_s))
            if trace:
                inputs = max(MIN_INPUTS_TRACED, inputs // 2)
        reps: list[Rep] = []
        layers: list[dict[str, float]] = []
        for index in range(inputs):
            if reps and time.perf_counter() - start > LAST_START * seconds:
                break
            # A traced run repeats every input traced, for the overhead
            # and for the check that tracing leaves the outputs alone.
            for traced in (False, True) if trace else (False,):
                gc.collect()
                began = time.perf_counter()
                state = bench.setup(input_seed(seed, index))
                if timed_setup:
                    setup_times.append(time.perf_counter() - began)
                gc.collect()
                if traced:
                    tracer.reset()
                    install_layer_wrappers(tracer)
                began = time.perf_counter()
                try:
                    outcome = bench.run(state)
                    wall = time.perf_counter() - began
                finally:
                    if traced:
                        tracer.unwrap_all()
                result = bench.check(state, outcome)
                del state, outcome
                if traced:
                    tracer.collect_workers()
                    if spans_path is not None and not layers:
                        tracer.write_spans(spans_path)
                    layers.append(layer_values(tracer, result, wall))
                reps.append(Rep(index, traced, wall, result))
        by_input: dict[int, set[str]] = {}
        for rep in reps:
            by_input.setdefault(rep.input, set()).add(rep.result.digest)
        if any(len(found) != 1 for found in by_input.values()):
            raise CheckFailed(f"{workload}: traced and untraced outputs differ")
        digests = [found.pop() for _, found in sorted(by_input.items())]
        if trace:
            values = layer_summary(reps, layers)
        else:
            values = end_to_end_values(reps, setup_times)
        # A layer the workload never calls is reported as 0; an
        # end-to-end metric must always be measured.
        unknown = sorted(set(values) - set(units))
        unmeasured = [] if trace else sorted(set(units) - set(values))
        if unknown or unmeasured:
            raise RuntimeError(
                f"metrics differ from BENCHMARK.json: unknown {unknown}, "
                f"unmeasured {unmeasured}"
            )
        metrics = {
            name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        }
        info.update({
            "digest": digest("".join(digests)),
            "input_digests": digests,
            "reps": len(reps),
            "walls": [rep.wall for rep in reps if not rep.traced],
            "traced_walls": [rep.wall for rep in reps if rep.traced],
            "setup_times": setup_times,
            "notes": [rep.result.notes for rep in reps],
            "loadavg_end": os.getloadavg(),
        })
        return {
            "correct": True,
            "attempted": sum(rep.result.attempted for rep in reps),
            "failed": sum(rep.result.failed for rep in reps),
            "metrics": metrics,
        }, info
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("study", "serve", "monitor"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if os.environ.get(CHILD_FLAG) != "1":
        return launch(argv)
    sys.path.insert(0, str(HERE))
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-{args.seed}.jsonl" if args.trace else None
    from workloads import CheckFailed

    try:
        result, info = measure(
            args.workload, args.seed, args.seconds, bool(args.trace),
            spans_path=spans,
        )
    except CheckFailed as err:
        print(f"perfbench: output check failed: {err}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
