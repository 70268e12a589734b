"""``sweep-regular``: a cold sweep of the reduced Table III space for the
six branch-free kernels on all four GPUs, each (kernel, GPU) sweep
followed by warm sweeps of the same work served from the cache.

Pricing (``kernel_time``, ``exact_counts``, noise) and cache writes and
reads do almost all the work; branch fractions do none and compiles are
few.  The seed orders the (kernel, GPU) sweeps and draws the oracle
sample; the work list itself is fixed.
"""

from __future__ import annotations

import random
import shutil
import time

import harness

KERNELS = ("atax", "bicg", "gemm", "gesummv", "matvec2d", "mvt")
WARM_SWEEPS = 3
MIN_ITERATIONS = 2
TAIL_PCT = 75
"""Two iterations give 48 sweep calls, so 12 lie beyond the 75th
percentile."""


def run(seed: int, seconds: float, scratch, recorder=None) -> dict:
    from repro.arch.specs import ALL_GPUS
    from repro.engine import CacheStore, SweepEngine
    from repro.experiments.common import reduced_space, sizes_for
    from repro.kernels import get_benchmark

    rng = random.Random(seed)
    space = reduced_space()
    work = [(get_benchmark(k), gpu, sizes_for(k, full=False))
            for k in KERNELS for gpu in ALL_GPUS]
    rng.shuffle(work)
    pair_points = {f"{bm.name}/{gpu.name}": len(sizes) * len(space)
                   for bm, gpu, sizes in work}
    points = sum(pair_points.values())

    first_bm, first_gpu, first_sizes = work[0]
    setup_s = None
    if recorder is None:
        setup_s = harness.probe_setup("sweep-regular", {
            "kernel": first_bm.name, "gpu": first_gpu.name,
            "config": dict(next(iter(space))), "size": first_sizes[0],
        }, scratch)

    labels = [f"{bm.name}/{gpu.name}" for bm, gpu, _s in work]
    cold_t = {u: [] for u in labels}
    warm_t = {u: [] for u in labels}
    calls, problems, reference = [], [], None
    attempted = failed = iterations = 0
    start = time.perf_counter()
    while (iterations < MIN_ITERATIONS
           or harness.another_round(start, iterations, seconds)):
        store = scratch / f"cache-{iterations}"
        with CacheStore(store) as cache:
            engine = SweepEngine(jobs=1, cache=cache)
            cold, warm_hits = [], 0
            for label, (bm, gpu, sizes) in zip(labels, work):
                t = time.perf_counter()
                results = engine.sweep(bm, gpu, space, sizes)
                cold_t[label].append(time.perf_counter() - t)
                cold.append(results)
                # the warm sweeps follow each cold sweep, so warm samples
                # are spread over the whole run like the cold ones
                for _ in range(WARM_SWEEPS):
                    t = time.perf_counter()
                    warm = engine.sweep(bm, gpu, space, sizes)
                    warm_t[label].append(time.perf_counter() - t)
                    warm_hits += engine.last_stats.hits
                    if warm != results:
                        problems.append(f"{label}: warm results differ "
                                        f"from cold results")
            calls += [cold_t[u][-1] for u in labels]
            attempted += points * (1 + WARM_SWEEPS)
            failed += engine.total_failures
            if warm_hits != points * WARM_SWEEPS:
                problems.append(f"warm sweeps served {warm_hits} of "
                                f"{points * WARM_SWEEPS} points from cache")
        shutil.rmtree(store, ignore_errors=True)
        if reference is None:
            reference = cold
        elif cold != reference:
            problems.append("cold results differ between iterations")
        iterations += 1

    snapshot = recorder.snapshot() if recorder is not None else None
    problems += harness.check_digests("sweep-regular", {
        label: harness.digest([harness.measurement_doc(m) for m in results])
        for label, results in zip(labels, reference)
    })
    problems += harness.oracle(rng, {(bm.name, gpu.name)
                                     for bm, gpu, _s in work})

    lat = harness.tail_summary(calls, TAIL_PCT)
    kernels_priced = sum(len(sizes) * len(space) * len(bm.specs)
                         for bm, _g, sizes in work)
    return {
        "e2e": {
            "setup_s": setup_s,
            "points_per_s": harness.rate(pair_points, cold_t),
            "warm_points_per_s": harness.rate(pair_points, warm_t),
            "session_p50_s": lat["p50"],
            "session_tail_s": lat["tail"],
            "sessions_per_s": harness.rate(dict.fromkeys(labels, 1), cold_t),
            "peak_rss_mb": harness.peak_rss_mb(),
        },
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "sessions": len(calls),
        "snapshot": snapshot,
        # what the traced run must have seen (reconciliation)
        "expect": {
            "sim.timing.kernel_time_calls": iterations * kernels_priced,
            "sim.counting.branch_fraction_calls": 0,
            "engine.points": attempted,
        },
        "report": [
            f"iterations={iterations} points/pass={points} "
            f"warm sweeps per cold sweep={WARM_SWEEPS}",
            harness.tail_report("one SweepEngine.sweep call of a cold pass",
                                lat),
        ],
    }
