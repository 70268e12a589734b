"""Record the reference output digests the benchmark checks against.

    python3 perfbench/record.py [WORKLOAD ...]

Computes every item a workload can produce through the plain library
path -- an uncached ``SweepEngine`` for the sweeps, ``engine=None`` for
the suite rows, in-process ``repro.api.tune`` for every request in the
``tune-service`` pool -- and writes ``perfbench/digests.json``.  Rerun
it only when the program's outputs are meant to change.
"""

from __future__ import annotations

import json
import sys

import harness


def sweep_regular() -> dict:
    from repro.arch.specs import ALL_GPUS
    from repro.engine import SweepEngine
    from repro.experiments.common import reduced_space, sizes_for
    from repro.kernels import get_benchmark
    from sweep_regular import KERNELS

    engine = SweepEngine(jobs=1)
    return {
        f"{k}/{gpu.name}": harness.digest([
            harness.measurement_doc(m) for m in engine.sweep(
                get_benchmark(k), gpu, reduced_space(), sizes_for(k, False))
        ])
        for k in KERNELS for gpu in ALL_GPUS
    }


def suite_corpus() -> dict:
    from repro.arch.specs import get_gpu
    from repro.suite import accuracy_row, corpus_members, corpus_sizes, \
        corpus_space, quality_row
    from suite_corpus import GPU

    gpu = get_gpu(GPU)
    out = {}
    for bm in corpus_members():
        space, sizes = corpus_space(bm), corpus_sizes(bm)
        out[bm.name] = harness.digest((
            accuracy_row(bm, gpu, space, sizes),
            quality_row(bm, gpu, space, sizes[-1]),
        ))
    return out


def tune_service() -> dict:
    from repro.api import tune
    from tune_service import pool, result_digest

    return {
        r.key: result_digest(tune(
            r.kernel, r.gpu, r.size, search=r.search, budget=r.budget,
            use_rule=r.use_rule, **r.search_args))
        for r in pool()
    }


RECORDERS = {"sweep-regular": sweep_regular, "suite-corpus": suite_corpus,
             "tune-service": tune_service}


def main(argv) -> int:
    harness.require_source()
    names = argv or list(RECORDERS)
    table = (json.loads(harness.DIGESTS.read_text())
             if harness.DIGESTS.exists() else {})
    for name in names:
        table[name] = RECORDERS[name]()
        print(f"{name}: {len(table[name])} digests", file=sys.stderr)
    harness.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True)
                               + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
