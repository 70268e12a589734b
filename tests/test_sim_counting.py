"""The keystone validation: closed-form exact counts == emulator counts.

Also covers branch-fraction exactness (ex14FJ boundary formula), the
affine-in-threads cache, and warp-level count semantics.
"""

import pytest

from repro.arch import K20, M2050
from repro.codegen.compiler import CompileOptions, compile_module
from repro.kernels import get_benchmark
from repro.sim.counting import exact_branch_fraction, exact_counts
from repro.sim.emulator import run_benchmark_emulated
from repro.codegen.regions import RegionKind

from tests.conftest import make_benchmark_run

ALL_NAMES = ("atax", "bicg", "matvec2d", "ex14fj")


def _model_totals(mod, env, tc, bc):
    from collections import Counter

    total = Counter()
    reg_ops = 0.0
    for ck in mod:
        dc = exact_counts(ck, env, tc, bc)
        for cat, v in dc.by_category.items():
            total[cat] += v
        reg_ops += dc.reg_ops
    return total, reg_ops


@pytest.mark.parametrize("name", ALL_NAMES)
@pytest.mark.parametrize("tc,bc", [(32, 4), (64, 3), (96, 2)])
class TestModelMatchesEmulator:
    def test_category_counts_exact(self, name, tc, bc):
        bm, n, inputs, _ = make_benchmark_run(name)
        env = bm.param_env(n)
        mod = compile_module(name, list(bm.specs), CompileOptions(gpu=K20))
        _, emu = run_benchmark_emulated(mod, inputs, tc=tc, bc=bc)
        model, model_regs = _model_totals(mod, env, tc, bc)
        for cat in set(model) | set(emu.thread_counts):
            assert model.get(cat, 0) == pytest.approx(
                emu.thread_counts.get(cat, 0), abs=0.5
            ), f"{name} {cat} tc={tc} bc={bc}"
        assert model_regs == pytest.approx(emu.reg_ops, abs=0.5)


class TestModelMatchesEmulatorVariants:
    @pytest.mark.parametrize("uf,fm", [(3, False), (2, True)])
    def test_unrolled_fast_math(self, uf, fm):
        bm, n, inputs, _ = make_benchmark_run("ex14fj")
        env = bm.param_env(n)
        mod = compile_module(
            "ex14fj", list(bm.specs),
            CompileOptions(gpu=K20, unroll_factor=uf, fast_math=fm),
        )
        _, emu = run_benchmark_emulated(mod, inputs, tc=64, bc=2)
        model, _ = _model_totals(mod, env, 64, 2)
        for cat in set(model) | set(emu.thread_counts):
            assert model.get(cat, 0) == pytest.approx(
                emu.thread_counts.get(cat, 0), abs=0.5
            )

    def test_fermi_addressing(self):
        bm, n, inputs, _ = make_benchmark_run("atax")
        env = bm.param_env(n)
        mod = compile_module("atax", list(bm.specs),
                             CompileOptions(gpu=M2050))
        _, emu = run_benchmark_emulated(mod, inputs, tc=32, bc=2)
        model, _ = _model_totals(mod, env, 32, 2)
        for cat in set(model) | set(emu.thread_counts):
            assert model.get(cat, 0) == pytest.approx(
                emu.thread_counts.get(cat, 0), abs=0.5
            )


class TestBranchFractions:
    def test_ex14fj_boundary_fraction_exact(self):
        """The THEN fraction must equal 1 - (N-2)^3 / N^3 exactly."""
        bm = get_benchmark("ex14fj")
        for n in (8, 16, 32):
            env = bm.param_env(n)
            mod = compile_module("ex14fj", list(bm.specs),
                                 CompileOptions(gpu=K20))
            ck = mod.kernels[0]
            then_regions = [
                r for r in ck.root_region.walk()
                if r.kind is RegionKind.THEN
            ]
            assert len(then_regions) == 1
            ploop = next(
                r for r in ck.root_region.walk()
                if r.kind is RegionKind.PLOOP
            )
            frac = exact_branch_fraction(then_regions[0], env, [ploop])
            expected = 1.0 - (n - 2) ** 3 / n**3
            assert frac == pytest.approx(expected, abs=1e-12)

    def test_warp_level_at_least_thread_level(self):
        bm = get_benchmark("ex14fj")
        env = bm.param_env(16)
        mod = compile_module("ex14fj", list(bm.specs),
                             CompileOptions(gpu=K20))
        ck = mod.kernels[0]
        t = exact_counts(ck, env, 64, 4, warp_level=False)
        w = exact_counts(ck, env, 64, 4, warp_level=True)
        for cat, n in t.by_category.items():
            assert w.by_category[cat] >= n - 0.5


class TestAffineCache:
    def test_counts_affine_in_threads(self):
        """counts(T) must be exactly affine: the cached reconstruction at
        any T equals a direct evaluation."""
        from repro.codegen.regions import evaluate_region_tree

        bm = get_benchmark("atax")
        env = bm.param_env(32)
        mod = compile_module("atax", list(bm.specs), CompileOptions(gpu=K20))
        ck = mod.kernels[0]
        via_cache = exact_counts(ck, env, 96, 7)
        from repro.sim.counting import exact_branch_fraction as ebf

        direct = evaluate_region_tree(
            ck.root_region, env, total_threads=96 * 7, branch_fraction=ebf
        )
        for cat, v in direct.by_category.items():
            assert via_cache.by_category[cat] == pytest.approx(v)
        assert via_cache.reg_ops == pytest.approx(direct.reg_ops)
        assert via_cache.dram_bytes == pytest.approx(direct.dram_bytes)

    def test_repeat_calls_consistent(self):
        bm = get_benchmark("matvec2d")
        env = bm.param_env(16)
        mod = compile_module("matvec2d", list(bm.specs),
                             CompileOptions(gpu=K20))
        a = exact_counts(mod.kernels[0], env, 32, 2)
        b = exact_counts(mod.kernels[0], env, 32, 2)
        assert a.by_category == b.by_category


def _bits(dc):
    """Every number of a DynamicCounts, bit for bit and in order."""
    return (
        [(cat, float(v).hex()) for cat, v in dc.by_category.items()],
        float(dc.reg_ops).hex(),
        float(dc.mem_transactions).hex(),
        float(dc.dram_bytes).hex(),
        [(acc, float(n).hex()) for acc, n in dc.mem_traffic],
    )


def _clear_memos():
    from repro.sim import counting

    counting._fraction_cache.clear()
    counting._count_cache.clear()


def _if_else_kernel():
    from repro.codegen import dsl

    N = dsl.sparam("N")
    y = dsl.farray("y")
    n = dsl.ivar("n")
    v = dsl.var("v", "f32")
    return dsl.kernel("eo", [N, y], [
        dsl.pfor(n, N, [
            dsl.assign("v", dsl.to_f32(n)),
            dsl.when((n % 3).eq(0),
                     [dsl.assign("v", v * 2.0 + 1.0)],
                     [dsl.assign("v", v * 3.0 - 1.0)]),
            y.store(n, v),
        ]),
    ])


class TestStructuralMemos:
    def test_cold_equals_warm_bitwise_over_corpus(self):
        """Memoized counts equal counts computed from empty memos, for
        every corpus member at its two smallest sizes, thread and warp
        level, with and without the input arrays bound."""
        import numpy as np

        from repro.suite import corpus_members
        from repro.util.rng import rng_for

        cases = []
        for bm in corpus_members():
            mod = compile_module(bm.name, list(bm.specs),
                                 CompileOptions(gpu=K20))
            for n in bm.sizes[:2]:
                inputs = bm.make_inputs(n, rng_for("tests", bm.name, n))
                aware = dict(bm.param_env(n), **{
                    k: v for k, v in inputs.items()
                    if isinstance(v, np.ndarray)})
                for env in (bm.param_env(n), aware):
                    for ck in mod:
                        for warp in (False, True):
                            cases.append((ck, env, warp))
        cold = []
        for ck, env, warp in cases:
            _clear_memos()
            cold.append(_bits(exact_counts(ck, env, 64, 3, warp)))
        for ck, env, warp in cases:  # fills the memos
            exact_counts(ck, env, 64, 3, warp)
        warm = [_bits(exact_counts(ck, env, 64, 3, warp))
                for ck, env, warp in cases]
        assert warm == cold

    def test_then_else_pair_costs_one_evaluation(self, monkeypatch):
        from repro.sim import counting

        calls = []
        real = counting._cond_fraction

        def counted(*args):
            calls.append(args[0].id)
            return real(*args)

        monkeypatch.setattr(counting, "_cond_fraction", counted)
        _clear_memos()
        ck = compile_module("eo", [_if_else_kernel()],
                            CompileOptions(gpu=K20)).kernels[0]
        ploop = next(r for r in ck.root_region.walk()
                     if r.kind is RegionKind.PLOOP)
        then, other = [r for r in ck.root_region.walk()
                       if r.kind in (RegionKind.THEN, RegionKind.ELSE)]
        env = {"N": 300}
        f = exact_branch_fraction(then, env, [ploop])
        g = exact_branch_fraction(other, env, [ploop])
        assert f == 100 / 300 and g == 1.0 - f
        assert len(calls) == 1
        # thread and warp level, T=0 and T=1 share it too
        exact_counts(ck, env, 64, 2, warp_level=False)
        exact_counts(ck, env, 64, 2, warp_level=True)
        assert len(calls) == 1

    def test_unroll_variants_share_branch_evaluations(self, monkeypatch):
        from repro.sim import counting

        calls = []
        real = counting._cond_fraction
        monkeypatch.setattr(counting, "_cond_fraction",
                            lambda *a: calls.append(1) or real(*a))
        _clear_memos()
        bm = get_benchmark("ex14fj")
        env = bm.param_env(16)
        for uf in (1, 2, 3):
            for fm in (False, True):
                mod = compile_module("ex14fj", list(bm.specs), CompileOptions(
                    gpu=K20, unroll_factor=uf, fast_math=fm))
                for warp in (False, True):
                    exact_counts(mod.kernels[0], env, 32, 4, warp)
        assert len(calls) == 1

    def test_memoized_fallback(self, monkeypatch):
        """A data-dependent condition without its input array falls back
        to 0.5, once."""
        from repro.sim import counting

        calls = []
        real = counting._cond_fraction
        monkeypatch.setattr(counting, "_cond_fraction",
                            lambda *a: calls.append(1) or real(*a))
        _clear_memos()
        bm = get_benchmark("compact")
        ck = compile_module(bm.name, list(bm.specs),
                            CompileOptions(gpu=K20)).kernels[0]
        env = bm.param_env(bm.sizes[0])  # scalars only: no flags array
        then = next(r for r in ck.root_region.walk()
                    if r.kind is RegionKind.THEN)
        stack = [r for r in ck.root_region.walk()
                 if r.kind is RegionKind.PLOOP]
        assert exact_branch_fraction(then, env, stack) == 0.5
        assert exact_branch_fraction(then, env, stack) == 0.5
        assert len(calls) == 1

    def test_array_envs_keyed_by_content(self):
        import numpy as np

        from repro.sim.counting import _env_key

        a = np.arange(10, dtype=np.int32)
        b = a.copy()
        b[3] = -1
        assert _env_key({"x": a, "N": 10}) == _env_key({"N": 10, "x": a.copy()})
        assert _env_key({"x": a}) != _env_key({"x": b})
        assert _env_key({"x": a}) != _env_key({"x": a.astype(np.int64)})
        assert _env_key({"x": a}) != _env_key({"x": a.reshape(2, 5)})

    @pytest.mark.parametrize("memo", ["_fraction_cache", "_count_cache"])
    def test_memo_stays_within_cap(self, memo, monkeypatch):
        from repro.sim import counting

        cache = getattr(counting, memo)
        monkeypatch.setattr(cache, "cap", 5)
        cache.clear()
        ck = compile_module("eo", [_if_else_kernel()],
                            CompileOptions(gpu=K20)).kernels[0]
        first = exact_counts(ck, {"N": 97}, 32, 2)
        for n in range(100, 120):
            exact_counts(ck, {"N": n}, 32, 2)
            assert len(cache) <= 5
        assert _bits(exact_counts(ck, {"N": 97}, 32, 2)) == _bits(first)


HASHSEED_SCRIPT = """
from repro.arch import ALL_GPUS
from repro.codegen.compiler import CompileOptions, compile_module
from repro.kernels import get_benchmark
from repro.sim.timing import LaunchConfig, measure_benchmark

for name, n in (("ex14fj", 16), ("atax", 64), ("jacobi2d", 64), ("dot", 256)):
    bm = get_benchmark(name)
    for gpu in ALL_GPUS:
        for uf in (1, 3):
            mod = compile_module(name, list(bm.specs),
                                 CompileOptions(gpu=gpu, unroll_factor=uf))
            for tc, bc in ((32, 48), (128, 24), (256, 96)):
                s = measure_benchmark(mod, LaunchConfig(tc, bc),
                                      bm.param_env(n))
                print(name, gpu.name, uf, tc, bc, s.hex())
"""


def test_prices_bitwise_equal_across_hash_seeds():
    """Times do not depend on the per-process string-hash seed, so pool
    workers, the serial path and the service price identically."""
    import os
    import subprocess
    import sys

    outs = []
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", HASHSEED_SCRIPT],
                              env=env, capture_output=True, text=True,
                              check=True)
        outs.append(proc.stdout)
    assert outs[0].count("\n") == 4 * 4 * 2 * 3
    assert outs[0] == outs[1] == outs[2]
