"""The pricing plan against a frozen copy of the per-call timing model.

:func:`oracle_kernel_time` is ``TimingModel.kernel_time`` as it was
before pricing moved onto a precomputed plan: it rebuilds every count
with :func:`exact_counts` and classifies every memory access on each
call.  It is kept here, frozen, as the oracle the plan must match on
every :class:`KernelTiming` field, bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.arch import ALL_GPUS
from repro.arch.throughput import InstrCategory, PipeClass, throughput_for
from repro.autotune.measure import Measurer
from repro.codegen import compiler
from repro.codegen.ast_nodes import evaluate_expr
from repro.codegen.compiler import CompileOptions, compile_module
from repro.kernels import get_benchmark, list_benchmarks
from repro.ptx.isa import MemSpace
from repro.sim import counting
from repro.sim.counting import exact_counts
from repro.sim.occupancy_hw import hw_resident_blocks
from repro.sim.timing import (
    _UNLAUNCHABLE,
    DEFAULT_PARAMS,
    KernelTiming,
    LaunchConfig,
    ModelParams,
    TimingModel,
)
from repro.util.rng import rng_for

# -- the frozen oracle ------------------------------------------------------


def _oracle_dram_bytes(model, acc, warp_execs, active_warps, l1_pref_kb):
    if acc.space is not MemSpace.GLOBAL:
        return 0.0
    elem = acc.dtype.nbytes
    if acc.pattern == "uniform":
        return warp_execs * 32.0 * model.params.uniform_l2_bytes_factor
    if acc.pattern == "coalesced":
        if acc.seq_stride == 0 and not acc.is_store and not acc.is_atomic:
            return warp_execs * 32.0 * model.params.uniform_l2_bytes_factor
        segs = max(1.0, 32.0 * elem / 32.0)
        return warp_execs * segs * 32.0
    worst_segs = 32.0
    if acc.seq_stride == 1:
        line = 128.0
        ideal_segs = 32.0 * elem / 32.0
        working = active_warps * 32.0 * line
        fixed = model.params.l1_kb_fixed.get(model.gpu.sm_version)
        l1 = (fixed if fixed is not None else l1_pref_kb) * 1024.0
        fit = min(1.0, l1 / max(working, 1.0))
        segs = worst_segs - fit * (worst_segs - ideal_segs)
    else:
        segs = worst_segs
    return warp_execs * segs * 32.0


def _oracle_chain_latency(model, acc):
    if acc.space is not MemSpace.GLOBAL:
        return 4.0
    if acc.pattern == "uniform":
        return model.params.rmw_latency * 0.5
    if acc.seq_stride == 0 and not acc.is_store:
        return model.params.rmw_latency
    return model.gpu.dram_latency_cycles / model.params.mem_mlp


def oracle_kernel_time(model, ck, launch, env) -> KernelTiming:
    gpu = model.gpu
    p = model.params
    tc, bc = launch.tc, launch.bc

    resident = hw_resident_blocks(
        gpu, tc, ck.regs_per_thread, ck.static_smem_bytes
    )
    if resident == 0:
        return _UNLAUNCHABLE

    if ck.parallel_extent is not None:
        m = max(0, int(evaluate_expr(ck.parallel_extent, env)))
    else:
        m = launch.total_threads
    working_blocks = max(1, min(bc, -(-m // tc))) if m else 1
    warps_per_block = gpu.warps_per_block(tc)
    sms_used = min(gpu.multiprocessors, working_blocks)
    blocks_per_sm = -(-working_blocks // sms_used)
    active_blocks = min(resident, blocks_per_sm)
    waves = -(-blocks_per_sm // resident)
    active_warps = active_blocks * warps_per_block
    occupancy = min(
        1.0,
        active_warps * gpu.warp_size / gpu.max_threads_per_mp,
    )
    work_frac = blocks_per_sm / working_blocks

    tcounts = exact_counts(ck, env, tc, bc, warp_level=False)
    wcounts = exact_counts(ck, env, tc, bc, warp_level=True)
    wloop = exact_counts(ck, env, 1, 0, warp_level=True)

    all_blocks_per_sm = -(-bc // min(gpu.multiprocessors, bc))
    root_frac = all_blocks_per_sm / bc

    issue = 0.0
    total_ops = max(1.0, sum(wcounts.by_category.values()))
    sfu_frac = wcounts.by_category.get(
        InstrCategory.LOG_SIN_COS, 0.0
    ) / total_ops
    for cat, n in wcounts.by_category.items():
        n_loop = wloop.by_category.get(cat, 0.0)
        n_root = max(0.0, n - n_loop)
        issue += (
            n_loop * work_frac + n_root * root_frac
        ) / throughput_for(gpu).ipc(cat)
    max_wpb = gpu.max_threads_per_block // gpu.warp_size
    churn = 1.0 + p.block_switch * (1.0 - warps_per_block / max_wpb)
    w_need = p.w_need_base + p.w_need_sfu * sfu_frac
    hiding = min(1.0, active_warps / w_need)
    issue *= churn / hiding

    dram_bytes = 0.0
    atomic_chip = 0.0
    for acc, execs in tcounts.mem_traffic:
        warp_execs = execs / 32.0
        dram_bytes += _oracle_dram_bytes(
            model, acc, warp_execs, active_warps, ck.options.l1_pref_kb
        )
        if acc.is_atomic:
            if acc.pattern == "uniform":
                atomic_chip += execs * p.atomic_conflict_cycles
            else:
                issue += warp_execs * work_frac * p.atomic_coalesced_cycles

    active_threads = max(1, min(launch.total_threads, max(m, 1)))
    lat_per_thread = 0.0
    for cat, n in tcounts.by_category.items():
        per = n / active_threads
        if cat.pipe is PipeClass.MEM:
            continue
        if cat in (InstrCategory.FP32, InstrCategory.FP64):
            lat_per_thread += per * p.chain_fp
        elif cat is InstrCategory.LOG_SIN_COS:
            lat_per_thread += per * p.chain_sfu
        elif cat.pipe is PipeClass.CTRL:
            lat_per_thread += per * p.chain_ctrl
        else:
            lat_per_thread += per * p.chain_alu
    for acc, execs in tcounts.mem_traffic:
        lat_per_thread += (
            execs / active_threads
        ) * _oracle_chain_latency(model, acc)
    latency_cycles = lat_per_thread * waves

    bw_bytes_per_cycle = gpu.peak_bandwidth_gbs * 1e9 * gpu.cycle_time_s
    eff = p.bw_floor + (1.0 - p.bw_floor) * min(
        1.0, active_warps / p.bw_ramp_warps
    )
    mem_cycles = dram_bytes / bw_bytes_per_cycle / eff + atomic_chip

    cycles = max(issue, latency_cycles, mem_cycles)
    cycles += p.block_start_cycles * blocks_per_sm
    seconds = p.launch_overhead_s + cycles * gpu.cycle_time_s
    return KernelTiming(
        seconds=seconds,
        cycles=cycles,
        issue_cycles=issue,
        latency_cycles=latency_cycles,
        mem_cycles=mem_cycles,
        dram_bytes=dram_bytes,
        occupancy=occupancy,
        active_warps=float(active_warps),
        working_blocks=working_blocks,
        waves=waves,
    )


# -- helpers ----------------------------------------------------------------


def _bits(kt: KernelTiming) -> tuple:
    """Every field of a KernelTiming; floats as ``float.hex``."""
    return tuple(
        v.hex() if isinstance(v, float) else v
        for v in (kt.seconds, kt.cycles, kt.issue_cycles,
                  kt.latency_cycles, kt.mem_cycles, kt.dram_bytes,
                  kt.occupancy, kt.active_warps, kt.working_blocks,
                  kt.waves, kt.unlaunchable)
    )


def _module(name: str, gpu, unroll: int = 1, fast_math: bool = False,
            pl: int = 16):
    bm = get_benchmark(name)
    return compile_module(name, list(bm.specs), CompileOptions(
        gpu=gpu, unroll_factor=unroll, fast_math=fast_math, l1_pref_kb=pl,
    ))


def _env(name: str, with_inputs: bool) -> dict:
    """The benchmark's smallest-size parameters, optionally with its
    input arrays bound (input-aware counting)."""
    bm = get_benchmark(name)
    n = bm.sizes[0]
    env = bm.param_env(n)
    if with_inputs:
        inputs = bm.make_inputs(n, rng_for("pricing-test", name, n))
        env.update({k: v for k, v in inputs.items()
                    if isinstance(v, np.ndarray)})
    return env


def _clear_memos() -> None:
    counting._fraction_cache.clear()
    counting._count_cache.clear()
    compiler._module_cache.clear()


CORPUS = [bm.name for bm in list_benchmarks()]

# -- the plan equals the oracle ---------------------------------------------


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    name=st.sampled_from(CORPUS),
    gpu=st.sampled_from(ALL_GPUS),
    unroll=st.sampled_from((1, 3)),
    fast_math=st.booleans(),
    pl=st.sampled_from((16, 48)),
    tc=st.integers(min_value=1, max_value=2048),
    bc=st.integers(min_value=1, max_value=4096),
    with_inputs=st.booleans(),
)
def test_plan_price_equals_oracle_bitwise(name, gpu, unroll, fast_math, pl,
                                          tc, bc, with_inputs):
    """Every corpus kernel on every GPU at any (TC, BC), launchable or
    not (TC up to 2048 exceeds every GPU's block limit), with and
    without input arrays bound."""
    mod = _module(name, gpu, unroll, fast_math, pl)
    env = _env(name, with_inputs)
    model = TimingModel(gpu)
    launch = LaunchConfig(tc, bc)
    for ck in mod:
        assert _bits(model.kernel_time(ck, launch, env)) == _bits(
            oracle_kernel_time(model, ck, launch, env))


def test_plan_prices_a_kernel_compiled_for_another_gpu():
    """The plan is keyed by the pricing GPU, not only by the kernel
    (whose content key holds the compile GPU)."""
    mod = _module("ex14fj", ALL_GPUS[0])
    env = _env("ex14fj", False)
    launch = LaunchConfig(128, 48)
    for gpu in ALL_GPUS:
        model = TimingModel(gpu)
        for ck in mod:
            assert _bits(model.kernel_time(ck, launch, env)) == _bits(
                oracle_kernel_time(model, ck, launch, env))


def test_plan_reads_model_params_on_every_call():
    """The plan holds no ModelParams value: two models with different
    calibrations price one cached plan differently, each like its
    oracle."""
    gpu = ALL_GPUS[1]
    tweaked = ModelParams(chain_fp=11.0, rmw_latency=45.0, mem_mlp=8.0,
                          uniform_l2_bytes_factor=0.1,
                          atomic_conflict_cycles=3.0,
                          atomic_coalesced_cycles=2.0,
                          l1_kb_fixed={})
    launch = LaunchConfig(256, 96)
    for name in ("atax", "dot", "histogram", "ex14fj"):
        env = _env(name, False)
        for ck in _module(name, gpu):
            for params in (DEFAULT_PARAMS, tweaked):
                model = TimingModel(gpu, params)
                assert _bits(model.kernel_time(ck, launch, env)) == _bits(
                    oracle_kernel_time(model, ck, launch, env))


@pytest.mark.parametrize("name", ["atax", "ex14fj", "dot", "spmv_csr"])
def test_cleared_memos_price_identically(name):
    """Prices do not depend on what the memos held before the call."""
    gpu = ALL_GPUS[2]
    env = _env(name, name == "spmv_csr")
    model = TimingModel(gpu)
    launches = [LaunchConfig(tc, bc) for tc in (32, 96, 512, 1024)
                for bc in (1, 48, 144)]
    warm = [_bits(model.kernel_time(ck, launch, env))
            for launch in launches for ck in _module(name, gpu)]
    cold = []
    for launch in launches:
        _clear_memos()
        for ck in _module(name, gpu):
            cold.append(_bits(model.kernel_time(ck, launch, env)))
    assert cold == warm


def test_plan_lives_in_the_count_memo(monkeypatch):
    """Plans share the count memo's cap instead of growing a memo of
    their own."""
    monkeypatch.setattr(counting._count_cache, "cap", 4)
    counting._count_cache.clear()
    gpu = ALL_GPUS[0]
    model = TimingModel(gpu)
    mod = _module("gemm", gpu)
    for n in (16, 24, 32, 40, 48):
        model.kernel_time(mod.kernels[0], LaunchConfig(64, 48), {"N": n})
        assert len(counting._count_cache) <= 4


# -- register instructions ----------------------------------------------------


@pytest.mark.parametrize("name", ["atax", "gemver", "ex14fj", "dot"])
def test_reg_instructions_equal_summed_exact_counts(name):
    gpu = ALL_GPUS[1]
    bm = get_benchmark(name)
    m = Measurer(bm, gpu)
    size = bm.sizes[1]
    env = bm.param_env(size)
    for tc, bc, uif in ((32, 48, 1), (256, 144, 3), (2048, 48, 1)):
        config = {"TC": tc, "BC": bc, "UIF": uif, "PL": 16, "CFLAGS": ""}
        got = m.measure(config, size).reg_instructions
        want = sum(exact_counts(ck, env, tc, bc).reg_ops
                   for ck in m.module_for(config))
        assert float(got).hex() == float(want).hex()


def test_count_pair_is_the_cached_affine_pair():
    ck = _module("bicg", ALL_GPUS[0]).kernels[0]
    env = {"N": 64}
    at0, at1 = counting.count_pair(ck, env)
    assert counting.count_pair(ck, env)[0] is at0
    dc = exact_counts(ck, env, 96, 48)
    t = 96 * 48
    assert dc.reg_ops == at0.reg_ops + t * (at1.reg_ops - at0.reg_ops)
