"""Analytic GPU timing model -- the "hardware" the autotuner measures on.

For one kernel launch the model combines the first-order mechanisms the
paper reasons about qualitatively:

1. **Work distribution / spread.**  Grid-stride kernels only put work in
   the first ``ceil(M / TC)`` blocks when the parallel extent ``M`` is
   smaller than the grid.  For the row-parallel kernels (atax, BiCG:
   M = N <= 512) a large ``TC`` concentrates all work on one or two SMs --
   the mechanism behind their preference for the *lower* thread ranges.
2. **Issue throughput with block-switching overhead.**  The busiest SM
   issues its warps' instructions at the Table II category IPCs; divergent
   branches pay for both arms (warp-level counts); many small resident
   blocks add scheduler churn ("unnecessary switching of blocks may degrade
   performance" -- paper Sec. III-B1), which is what tilts the
   compute-dense kernels (matVec2D, ex14FJ) toward *larger* blocks.
3. **Pipelined latency floor.**  Dependent per-thread work (accumulator
   chains, SFU chains, outstanding-load limits) bounds execution below,
   independent of spread; it flattens the low-TC end for the small-M
   kernels.
4. **DRAM bandwidth with a cache model.**  Transactions follow each
   access's coalescing pattern; strided accesses with sequential line reuse
   (the row-walk in atax/BiCG) keep their lines only while the resident
   working set fits in L1 -- more warps, more thrash.  The Orio ``PL``
   parameter sets the L1 split on Fermi/Kepler.  Bandwidth utilization
   itself needs queue depth: effective bandwidth ramps with resident warps.
5. **Atomic serialization.**  Same-address atomics serialize chip-wide;
   spread-out atomics are absorbed by the L2 banks.
6. **Wave quantization and fixed launch/block overheads.**

The model is deterministic; :func:`measure_benchmark` adds seeded lognormal
noise and applies the paper's measurement protocol (Sec. IV-A: ten
repetitions, take the fifth trial).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.arch.specs import GPUSpec
from repro.arch.throughput import InstrCategory, PipeClass, throughput_for
from repro.codegen.ast_nodes import evaluate_expr
from repro.codegen.compiler import CompiledKernel, CompiledModule
from repro.codegen.regions import MemAccess
from repro.ptx.isa import MemSpace
from repro.sim.counting import _count_cache, _env_key, affine_terms, count_pair
from repro.sim.occupancy_hw import hw_resident_blocks
from repro.util.rng import rng_for


@dataclass(frozen=True)
class LaunchConfig:
    """A kernel launch configuration (the runtime slice of Table III)."""

    tc: int
    """Threads per block (Orio ``TC``)."""

    bc: int
    """Blocks in the grid (Orio ``BC``)."""

    def __post_init__(self):
        if self.tc <= 0 or self.bc <= 0:
            raise ValueError("tc and bc must be positive")

    @property
    def total_threads(self) -> int:
        return self.tc * self.bc


@dataclass(frozen=True)
class ModelParams:
    """Calibration constants of the timing model."""

    # pipelined latency floor: per-instruction dependent-chain costs
    chain_fp: float = 9.0
    chain_alu: float = 2.5
    chain_sfu: float = 40.0
    chain_ctrl: float = 2.0
    mem_mlp: float = 16.0
    """Outstanding loads per thread (memory-level parallelism) dividing the
    DRAM latency on the per-thread chain."""

    rmw_latency: float = 30.0
    """Serial latency of a same-address load inside a loop (naive
    read-modify-write updates: hits L1 but serializes)."""

    block_switch: float = 0.55
    """Relative issue slowdown at maximum resident-block churn."""

    w_need_base: float = 6.0
    w_need_sfu: float = 280.0
    """Warps needed to keep issue busy: base + sfu * (SFU fraction of the
    instruction stream).  Special-function chains (integer div/mod, exp)
    have long latencies, so SFU-dense kernels need high occupancy -- the
    paper's "compute-intensive kernels perform well with larger block
    sizes" observation."""

    bw_ramp_warps: float = 24.0
    bw_floor: float = 0.55
    """Effective DRAM bandwidth = peak * (floor + (1-floor) * min(1, W/ramp))."""

    atomic_conflict_cycles: float = 2.0
    """Chip-wide cycles per same-address atomic operation."""

    atomic_coalesced_cycles: float = 1.0
    """Extra issue cycles per warp for conflict-free atomics."""

    uniform_l2_bytes_factor: float = 0.04
    """Fraction of uniform-access bytes that actually reach DRAM."""

    launch_overhead_s: float = 4.0e-6
    block_start_cycles: float = 220.0
    noise_sigma: float = 0.03
    short_run_sigma: float = 0.30
    """Extra relative noise for runs dominated by launch overhead: real
    measurements of microsecond kernels are jitter-dominated, so sub-10us
    variants rank mostly by luck (as on real hardware)."""

    l1_kb_fixed: dict = field(default_factory=lambda: {52: 48, 60: 64})
    """Maxwell/Pascal have fixed L1/tex capacity; Fermi/Kepler honour PL."""


DEFAULT_PARAMS = ModelParams()


@dataclass(frozen=True)
class KernelTiming:
    """Timing breakdown for one kernel launch."""

    seconds: float
    cycles: float
    issue_cycles: float
    latency_cycles: float
    mem_cycles: float
    dram_bytes: float
    occupancy: float
    active_warps: float
    working_blocks: int
    waves: int
    unlaunchable: bool = False


_UNLAUNCHABLE = KernelTiming(
    seconds=float("inf"), cycles=float("inf"), issue_cycles=0.0,
    latency_cycles=0.0, mem_cycles=0.0, dram_bytes=0.0, occupancy=0.0,
    active_warps=0.0, working_blocks=0, waves=0, unlaunchable=True,
)


class PricingPlan(NamedTuple):
    """Everything :meth:`TimingModel.kernel_time` needs of one kernel on
    one parameter environment and pricing GPU that does not depend on
    the launch.

    Counts are affine in the launched thread count T, so each count
    enters as ``(a, d)`` with ``count(T) = a + T * d`` -- the same
    arithmetic as :func:`~repro.sim.counting.exact_counts`.  The plan
    holds no :class:`ModelParams` value (they are not hashable, so they
    cannot key a memo); the codes below pick them on every call.
    """

    extent: int | None
    """The parallel extent M, or None when the kernel has none."""

    warp: tuple
    """Warp-level categories: ``(a, d, loop-only count, ipc)``."""

    sfu: int | None
    """Index of the SFU category in :attr:`warp`, if present."""

    thread: tuple
    """Thread-level non-memory categories: ``(a, d, chain code)``."""

    accesses: tuple
    """Memory accesses: ``(a, d, DRAM kind, segments, atomic code,
    latency code)``."""


# chain-weight codes of a thread-level category
_CHAIN_FP, _CHAIN_SFU, _CHAIN_CTRL, _CHAIN_ALU = range(4)
# how an access's DRAM bytes follow from its warp executions
_NO_DRAM, _L2_HIT, _SEGMENTS, _L1_REUSE = range(4)
# where an atomic access serializes
_NOT_ATOMIC, _ATOMIC_CHIP, _ATOMIC_ISSUE = range(3)
# per-execution dependent-chain latency of an access
_LAT_SMEM, _LAT_UNIFORM, _LAT_RMW, _LAT_DRAM = range(4)


def _chain_code(cat: InstrCategory) -> int:
    if cat in (InstrCategory.FP32, InstrCategory.FP64):
        return _CHAIN_FP
    if cat is InstrCategory.LOG_SIN_COS:
        return _CHAIN_SFU
    if cat.pipe is PipeClass.CTRL:
        return _CHAIN_CTRL
    return _CHAIN_ALU


def _access_codes(acc: MemAccess) -> tuple:
    """``(DRAM kind, segments, atomic code, latency code)`` of one
    static access under the cache model.

    Global accesses: uniform ones, and same-address reloads of a
    coalesced stream (hoistable RMW loads), hit L1/L2 and send only a
    fraction of their bytes to DRAM.  Other coalesced accesses move
    ``32 * elem / 32`` 32-byte segments per warp; strided ones put
    each lane in its own segment, unless consecutive iterations walk
    the line (``seq_stride == 1``), which then serves several of them
    while the resident working set fits in L1 -- the segment count
    stored is that ideal, and the launch's occupancy decides the rest.
    """
    if acc.is_atomic:
        atomic = _ATOMIC_CHIP if acc.pattern == "uniform" else _ATOMIC_ISSUE
    else:
        atomic = _NOT_ATOMIC
    if acc.space is not MemSpace.GLOBAL:
        return _NO_DRAM, 0.0, atomic, _LAT_SMEM
    elem = acc.dtype.nbytes
    if acc.pattern == "uniform":
        dram, segs = _L2_HIT, 0.0
    elif acc.pattern == "coalesced":
        if acc.seq_stride == 0 and not acc.is_store and not acc.is_atomic:
            dram, segs = _L2_HIT, 0.0
        else:
            dram, segs = _SEGMENTS, max(1.0, 32.0 * elem / 32.0)
    elif acc.seq_stride == 1:
        dram, segs = _L1_REUSE, 32.0 * elem / 32.0
    else:
        dram, segs = _SEGMENTS, 32.0
    if acc.pattern == "uniform":
        lat = _LAT_UNIFORM  # constant-cache style hit
    elif acc.seq_stride == 0 and not acc.is_store:
        lat = _LAT_RMW  # same-address reload: serial
    else:
        lat = _LAT_DRAM
    return dram, segs, atomic, lat


def pricing_plan(ck: CompiledKernel, env: dict, gpu: GPUSpec) -> PricingPlan:
    """The memoized :class:`PricingPlan` of ``ck`` on ``env`` priced on
    ``gpu``.  Plans share the count memo
    (:data:`repro.sim.counting._count_cache`) and its cap."""
    key = ("plan", ck.content_key, _env_key(env), gpu.content_key)
    plan = _count_cache.get(key)
    if plan is None:
        plan = _count_cache.put(key, _build_plan(ck, env, gpu))
    return plan


def _build_plan(ck: CompiledKernel, env: dict, gpu: GPUSpec) -> PricingPlan:
    extent = None
    if ck.parallel_extent is not None:
        extent = max(0, int(evaluate_expr(ck.parallel_extent, env)))
    # thread-level counts price work and latency; warp-level counts
    # price issue slots, and their T=0 evaluation isolates the loop body
    # from the per-thread preamble, which runs on *every* block
    t0, t1 = count_pair(ck, env, warp_level=False)
    w0, w1 = count_pair(ck, env, warp_level=True)
    ipc = throughput_for(gpu).ipc
    warp, sfu = [], None
    for cat, a, d in affine_terms(w0.by_category, w1.by_category):
        if cat is InstrCategory.LOG_SIN_COS:
            sfu = len(warp)
        warp.append((a, d, a + 0 * d, ipc(cat)))
    thread = tuple(
        (a, d, _chain_code(cat))
        for cat, a, d in affine_terms(t0.by_category, t1.by_category)
        if cat.pipe is not PipeClass.MEM  # charged per access
    )
    accesses = tuple(
        (n0, n1 - n0, *_access_codes(acc))
        for (acc, n0), (_acc, n1) in zip(t0.mem_traffic, t1.mem_traffic)
    )
    return PricingPlan(extent, tuple(warp), sfu, thread, accesses)


class TimingModel:
    """Timing evaluation of compiled kernels on one GPU."""

    def __init__(self, gpu: GPUSpec, params: ModelParams = DEFAULT_PARAMS):
        self.gpu = gpu
        self.params = params

    def kernel_time(
        self,
        ck: CompiledKernel,
        launch: LaunchConfig,
        env: dict,
    ) -> KernelTiming:
        gpu = self.gpu
        p = self.params
        tc, bc = launch.tc, launch.bc

        resident = hw_resident_blocks(
            gpu, tc, ck.regs_per_thread, ck.static_smem_bytes
        )
        if resident == 0:
            return _UNLAUNCHABLE
        m, warp, sfu, thread, accesses = pricing_plan(ck, env, gpu)
        threads = tc * bc

        # parallel extent M and work spread
        if m is None:
            m = threads
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
        # the per-thread preamble runs on every block (idle blocks run
        # theirs on otherwise-idle SMs), so the busiest working SM is
        # charged only its share of it
        all_blocks_per_sm = -(-bc // min(gpu.multiprocessors, bc))
        root_frac = all_blocks_per_sm / bc

        # ---- issue cycles on the busiest SM, with block-switch churn and
        #      occupancy-dependent latency hiding
        counts = [a + threads * d for a, d, _loop, _ipc in warp]
        total_ops = max(1.0, sum(counts))
        sfu_frac = (counts[sfu] if sfu is not None else 0.0) / total_ops
        issue = 0.0
        for (_a, _d, n_loop, ipc), n in zip(warp, counts):
            n_root = max(0.0, n - n_loop)
            issue += (n_loop * work_frac + n_root * root_frac) / ipc
        # "small block sizes will result in many active blocks running on
        # the SM in a time-shared manner, where unnecessary switching of
        # blocks may degrade performance" (paper Sec. III-B1): scheduler
        # churn decays as blocks get larger
        max_wpb = gpu.max_threads_per_block // gpu.warp_size
        churn = 1.0 + p.block_switch * (1.0 - warps_per_block / max_wpb)
        w_need = p.w_need_base + p.w_need_sfu * sfu_frac
        hiding = min(1.0, active_warps / w_need)
        issue *= churn / hiding

        # ---- pipelined latency floor (per-thread dependent work)
        active_threads = max(1, min(threads, max(m, 1)))
        chain = (p.chain_fp, p.chain_sfu, p.chain_ctrl, p.chain_alu)
        lat_per_thread = 0.0
        for a, d, code in thread:
            lat_per_thread += (a + threads * d) / active_threads * chain[code]

        # ---- memory traffic, atomics and their chain latency; a
        #      sequential-reuse line survives while the resident working
        #      set fits in L1
        fixed_kb = p.l1_kb_fixed.get(gpu.sm_version)
        l1_bytes = (
            fixed_kb if fixed_kb is not None else ck.options.l1_pref_kb
        ) * 1024.0
        fit = min(1.0, l1_bytes / max(active_warps * 32.0 * 128.0, 1.0))
        mem_lat = (4.0, p.rmw_latency * 0.5, p.rmw_latency,
                   gpu.dram_latency_cycles / p.mem_mlp)
        dram_bytes = 0.0
        atomic_chip = 0.0
        for a, d, kind, segs, atomic, lat in accesses:
            execs = a + threads * d
            warp_execs = execs / 32.0
            if kind == _L2_HIT:
                dram_bytes += warp_execs * 32.0 * p.uniform_l2_bytes_factor
            elif kind == _SEGMENTS:
                dram_bytes += warp_execs * segs * 32.0
            elif kind == _L1_REUSE:
                dram_bytes += warp_execs * (
                    32.0 - fit * (32.0 - segs)) * 32.0
            if atomic == _ATOMIC_CHIP:
                atomic_chip += execs * p.atomic_conflict_cycles
            elif atomic == _ATOMIC_ISSUE:
                issue += warp_execs * work_frac * p.atomic_coalesced_cycles
            lat_per_thread += execs / active_threads * mem_lat[lat]
        latency_cycles = lat_per_thread * waves

        # ---- DRAM bandwidth bound (chip-wide, ramping with queue depth)
        bw_bytes_per_cycle = gpu.peak_bandwidth_gbs * 1e9 * gpu.cycle_time_s
        eff = p.bw_floor + (1.0 - p.bw_floor) * min(
            1.0, active_warps / p.bw_ramp_warps
        )
        mem_cycles = dram_bytes / bw_bytes_per_cycle / eff + atomic_chip

        # ---- combine
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

    def benchmark_time(
        self, module: CompiledModule, launch: LaunchConfig, env: dict
    ) -> float:
        """Deterministic total seconds for all kernels of a benchmark."""
        return sum(
            self.kernel_time(ck, launch, env).seconds for ck in module
        )


def simulate_benchmark_time(
    module: CompiledModule,
    launch: LaunchConfig,
    env: dict,
    params: ModelParams = DEFAULT_PARAMS,
) -> float:
    """Convenience: deterministic benchmark time on the module's GPU."""
    return TimingModel(module.options.gpu, params).benchmark_time(
        module, launch, env
    )


def measure_benchmark(
    module: CompiledModule,
    launch: LaunchConfig,
    env: dict,
    repetitions: int = 10,
    trial_index: int = 4,
    params: ModelParams = DEFAULT_PARAMS,
) -> float:
    """The paper's measurement protocol (Sec. IV-A).

    Runs ``repetitions`` noisy trials and reports the ``trial_index``-th
    (zero-based; the paper selects "the fifth overall trial").  Noise is
    lognormal with seeded, configuration-specific RNG so sweeps are
    reproducible.
    """
    base = simulate_benchmark_time(module, launch, env, params)
    if math.isinf(base):
        return base
    rng = rng_for(
        "measure", module.name, module.options.gpu.name,
        module.options.unroll_factor, module.options.fast_math,
        module.options.l1_pref_kb, launch.tc, launch.bc,
        sorted(env.items()),
    )
    overhead = params.launch_overhead_s * len(module.kernels)
    sigma = params.noise_sigma + params.short_run_sigma * min(
        1.0, overhead / base
    )
    trials = base * rng.lognormal(mean=0.0, sigma=sigma, size=repetitions)
    return float(trials[trial_index])
