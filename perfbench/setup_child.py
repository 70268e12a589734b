"""Set-up probe: one fresh process that imports what a workload imports,
opens a sweep engine over a fresh cache store, measures the workload's
first point and prints ``ready``.

Usage: ``setup_child.py WORKLOAD STORE_DIR POINT_JSON`` where
``POINT_JSON`` is ``{"kernel", "gpu", "config", "size"}``.
"""

import json
import sys


def main() -> int:
    workload, store, point = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
    from repro.arch.specs import get_gpu
    from repro.engine import CacheStore, SweepEngine
    from repro.kernels import get_benchmark

    if workload == "suite-corpus":
        import repro.suite  # noqa: F401
    else:
        import repro.experiments.common  # noqa: F401
    with CacheStore(store) as cache:
        engine = SweepEngine(jobs=1, cache=cache)
        engine.run(get_benchmark(point["kernel"]), get_gpu(point["gpu"]),
                   [(point["config"], point["size"])])
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
