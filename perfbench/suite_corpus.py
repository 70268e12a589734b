"""``suite-corpus``: ``accuracy_row`` and ``quality_row`` for every corpus
member on one GPU (kepler), through one engine over a fresh cache store,
each member's rows followed by the same rows again, served warm.

The only workload that runs the emulator back-validation, the ``core``
analyzer and the input-aware counting of the irregular kernels, and the
one with the redundant per-``Measurer`` compiles.  The seed orders the
members and draws the oracle sample.
"""

from __future__ import annotations

import random
import shutil
import time
from collections import defaultdict

import harness

GPU = "kepler"
MIN_ITERATIONS = 3
"""Each member's time is its median over iterations, which needs three
to be robust."""
TAIL_PCT = 94
"""Three iterations give 180 row calls (15 members x 2 rows x cold/warm
x 3), so 10 lie beyond the 94th percentile."""


def _rows(bm, gpu, engine, times, points, calls, phase) -> tuple:
    """One member's two rows; appends their time to ``times``, their
    points to ``points`` and each row call's latency to ``calls`` (keyed
    by member, row and ``phase``)."""
    from repro.suite import accuracy_row, corpus_sizes, corpus_space, \
        quality_row

    space, sizes = corpus_space(bm), corpus_sizes(bm)
    before = _engine_points(engine)
    t = time.perf_counter()
    acc = accuracy_row(bm, gpu, space, sizes, engine=engine)
    t1 = time.perf_counter()
    qual = quality_row(bm, gpu, space, sizes[-1], engine=engine)
    t2 = time.perf_counter()
    calls[bm.name, "accuracy", phase].append(t1 - t)
    calls[bm.name, "quality", phase].append(t2 - t1)
    times[bm.name].append(t2 - t)
    points[bm.name] = _engine_points(engine) - before
    return acc, qual


def _engine_points(engine) -> int:
    return engine.total_hits + engine.total_measured + engine.total_failures


def run(seed: int, seconds: float, scratch, recorder=None) -> dict:
    from repro.arch.specs import get_gpu
    from repro.engine import CacheStore, SweepEngine
    from repro.suite import corpus_members, corpus_sizes, corpus_space

    rng = random.Random(seed)
    gpu = get_gpu(GPU)
    members = corpus_members()
    rng.shuffle(members)

    setup_s = None
    if recorder is None:
        first = members[0]
        setup_s = harness.probe_setup("suite-corpus", {
            "kernel": first.name, "gpu": gpu.name,
            "config": dict(next(iter(corpus_space(first)))),
            "size": corpus_sizes(first)[0],
        }, scratch)

    cold_t = {bm.name: [] for bm in members}
    warm_t = {bm.name: [] for bm in members}
    cold_points, warm_points = {}, {}
    calls = defaultdict(list)
    problems, reference = [], None
    attempted = failed = iterations = 0
    start = time.perf_counter()
    while (iterations < MIN_ITERATIONS
           or harness.another_round(start, iterations, seconds)):
        store = scratch / f"cache-{iterations}"
        with CacheStore(store) as cache:
            engine = SweepEngine(jobs=1, cache=cache)
            cold, warm = [], []
            for bm in members:
                # each member's warm rows follow its cold rows, so warm
                # samples are spread over the whole run like the cold ones
                cold.append(_rows(bm, gpu, engine, cold_t, cold_points,
                                  calls, "cold"))
                warm.append(_rows(bm, gpu, engine, warm_t, warm_points,
                                  calls, "warm"))
            if warm != cold:
                problems.append("warm suite rows differ from cold rows")
            attempted += _engine_points(engine)
            failed += engine.total_failures
        shutil.rmtree(store, ignore_errors=True)
        if reference is None:
            reference = cold
        elif cold != reference:
            problems.append("suite rows differ between iterations")
        iterations += 1

    snapshot = recorder.snapshot() if recorder is not None else None
    for acc, _qual in reference:
        if acc["count_err"] != 0:
            problems.append(f"suite: {acc['kernel']} back-validation "
                            f"count_err {acc['count_err']}")
    problems += harness.check_digests("suite-corpus", {
        bm.name: harness.digest(rows)
        for bm, rows in zip(members, reference)
    })
    problems += harness.oracle(rng, {(bm.name, gpu.name) for bm in members})

    lat = harness.tail_summary([t for v in calls.values() for t in v],
                               TAIL_PCT)
    return {
        "e2e": {
            "setup_s": setup_s,
            "points_per_s": harness.rate(cold_points, cold_t),
            "warm_points_per_s": harness.rate(warm_points, warm_t),
            "session_p50_s": lat["p50"],
            "session_tail_s": lat["tail"],
            "sessions_per_s": harness.rate(
                dict.fromkeys(cold_t, 2), cold_t),
            "peak_rss_mb": harness.peak_rss_mb(),
        },
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "sessions": iterations * len(calls),
        "snapshot": snapshot,
        "expect": {"engine.points": attempted},
        "report": [
            f"iterations={iterations} members={len(members)} gpu={GPU}",
            harness.tail_report("one accuracy_row or quality_row call, cold "
                                "or warm", lat),
        ],
    }
