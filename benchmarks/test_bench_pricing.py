"""Pricing bench: the per-point cost of measuring variants.

Times :meth:`Measurer.measure_many` over one reduced (kernel, GPU) sweep
-- 256 variants at three sizes of the two-kernel atax on kepler -- with
the modules compiled and the pricing plans built by a first pass.  What
is left is the per-launch work every cold sweep point pays: the
timing model's straight-line arithmetic over a cached plan, the
register-instruction total, occupancy and the seeded noise.
"""

from repro.arch import get_gpu
from repro.autotune.measure import Measurer
from repro.experiments.common import reduced_space
from repro.kernels import get_benchmark


def test_bench_pricing_reduced_sweep(benchmark):
    bm = get_benchmark("atax")
    measurer = Measurer(bm, get_gpu("kepler"))
    items = [(config, n) for n in bm.sizes[::2] for config in reduced_space()]
    first = measurer.measure_many(items)

    again = benchmark.pedantic(
        measurer.measure_many, args=(items,), rounds=5, iterations=1,
    )
    assert again == first
    per_point = benchmark.stats.stats.median / len(items)
    print(f"\n{len(items)} points, {per_point * 1e6:.1f} us per point")
