"""The process-wide compiled-module memo behind ``compile_module``."""

import sys
import threading

import pytest

from repro.arch import K20, M2050
from repro.codegen import compiler, dsl
from repro.codegen.compiler import CompileOptions, compile_kernel, compile_module
from repro.kernels import get_benchmark


def _scale_kernel(k: float):
    N = dsl.sparam("N")
    y = dsl.farray("y")
    n = dsl.ivar("n")
    return dsl.kernel("fz", [N, y], [
        dsl.pfor(n, N, [y.store(n, y[n] * k)]),
    ])


class TestModuleMemo:
    def test_equal_key_returns_same_module(self):
        bm = get_benchmark("atax")
        a = compile_module("atax", list(bm.specs), CompileOptions(gpu=K20))
        b = compile_module("atax", list(bm.specs), CompileOptions(gpu=K20))
        assert a is b

    def test_options_are_part_of_the_key(self):
        bm = get_benchmark("atax")
        base = compile_module("atax", list(bm.specs), CompileOptions(gpu=K20))
        for options in (CompileOptions(gpu=M2050),
                        CompileOptions(gpu=K20, unroll_factor=2),
                        CompileOptions(gpu=K20, fast_math=True),
                        CompileOptions(gpu=K20, l1_pref_kb=48)):
            other = compile_module("atax", list(bm.specs), options)
            assert other is not base and other.options == options

    def test_same_name_different_specs_compile_apart(self):
        """Fuzzing and shrinking reuse one name for many programs."""
        one = compile_module("fz", [_scale_kernel(2.0)],
                             CompileOptions(gpu=K20))
        two = compile_module("fz", [_scale_kernel(3.0)],
                             CompileOptions(gpu=K20))
        assert one is not two
        assert one.kernels[0].disassembly() != two.kernels[0].disassembly()

    def test_signed_zero_constants_do_not_share(self):
        """``0.0 == -0.0``, but the two compile to different code."""
        pos = _scale_kernel(0.0)
        neg = _scale_kernel(-0.0)
        a = compile_module("fz", [pos], CompileOptions(gpu=K20))
        b = compile_module("fz", [neg], CompileOptions(gpu=K20))
        assert a is not b
        assert a.kernels[0].content_key != b.kernels[0].content_key

    def test_kernel_content_key(self):
        bm = get_benchmark("ex14fj")
        spec = bm.specs[0]
        a = compile_kernel(spec, CompileOptions(gpu=K20))
        b = compile_kernel(spec, CompileOptions(gpu=K20))
        c = compile_kernel(spec, CompileOptions(gpu=K20, unroll_factor=2))
        assert a is not b and a.content_key == b.content_key
        assert c.content_key != a.content_key

    def test_stays_within_cap(self, monkeypatch):
        cache = compiler._module_cache
        monkeypatch.setattr(cache, "cap", 3)
        cache.clear()
        first = compile_module("fz", [_scale_kernel(1.0)],
                               CompileOptions(gpu=K20))
        for k in range(2, 10):
            compile_module("fz", [_scale_kernel(float(k))],
                           CompileOptions(gpu=K20))
            assert len(cache) <= 3
        again = compile_module("fz", [first.kernels[0].source_spec],
                               CompileOptions(gpu=K20))
        assert again is not first  # evicted, recompiled
        assert again.kernels[0].disassembly() == first.kernels[0].disassembly()

    def test_concurrent_compiles(self):
        compiler._module_cache.clear()
        bm = get_benchmark("gemm")
        keys = [CompileOptions(gpu=K20, unroll_factor=u) for u in (1, 2)] * 4
        barrier = threading.Barrier(len(keys))
        results, errors = [None] * len(keys), []

        def work(i, options):
            try:
                barrier.wait()
                results[i] = compile_module("gemm", list(bm.specs), options)
            except Exception as e:  # pragma: no cover - the failure path
                errors.append(e)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i, o))
                       for i, o in enumerate(keys)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(compiler._module_cache) == 2
        for uf in (1, 2):
            mods = {id(m) for m, o in zip(results, keys)
                    if o.unroll_factor == uf}
            assert len(mods) == 1

    def test_empty_spec_list_rejected(self):
        with pytest.raises(ValueError):
            compile_module("x", [], CompileOptions(gpu=K20))
