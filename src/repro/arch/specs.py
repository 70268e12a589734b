"""Hardware descriptors for the GPUs used in the paper (Table I).

Each :class:`GPUSpec` carries every quantity the occupancy model (paper
Eqs. 1-5), the code generator, and the timing simulator need.  Field names
mirror the paper's notation where a direct counterpart exists; the docstring
of each field notes the paper symbol.

The four concrete instances -- :data:`M2050` (Fermi), :data:`K20` (Kepler),
:data:`M40` (Maxwell) and :data:`P100` (Pascal) -- are transcribed from
Table I of the paper.  A handful of quantities the timing model needs but the
paper's table omits (shared memory per SM, DRAM width, issue width) use the
published hardware values for those parts.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

from repro.util.hashing import content_digest


@dataclass(frozen=True)
class GPUSpec:
    """A complete static description of one GPU model.

    All capacity fields are per the paper's Table I.  The class is frozen:
    architecture descriptions are immutable facts, and analyses may use specs
    as dictionary keys.
    """

    # --- identity -------------------------------------------------------
    name: str
    """Marketing name, e.g. ``"K20"``."""

    family: str
    """Architecture family: Fermi, Kepler, Maxwell or Pascal."""

    compute_capability: float
    """CUDA compute capability ``cc`` (2.0, 3.5, 5.2, 6.0)."""

    sm_version: int
    """Integer SM version used by the throughput tables (20, 35, 52, 60)."""

    # --- chip-level resources -------------------------------------------
    multiprocessors: int
    """Number of streaming multiprocessors, paper symbol ``mp``."""

    cores_per_mp: int
    """CUDA cores per SM."""

    gpu_clock_mhz: float
    """Core clock in MHz."""

    mem_clock_mhz: float
    """Memory clock in MHz."""

    global_mem_mb: int
    """Global memory size in MB."""

    l2_cache_mb: float
    """L2 cache size in MB."""

    constant_mem_bytes: int
    """Constant memory size in bytes."""

    mem_bus_bits: int
    """DRAM bus width in bits (hardware datasheet; used by the bandwidth
    model, not present in the paper's table)."""

    # --- per-SM occupancy limits (compute-capability constants) ---------
    smem_per_block_bytes: int
    """Max shared memory per block, paper ``S^cc_B`` (49152 on all four)."""

    smem_per_mp_bytes: int
    """Shared memory per SM, paper ``S^cc_mp`` (used by Eq. 5)."""

    regfile_per_block: int
    """Register file size visible to one block, paper ``R^cc_fs``."""

    regfile_per_mp: int
    """Register file size per SM (equals ``R^cc_fs`` on these parts)."""

    warp_size: int
    """Threads per warp, paper ``W_B`` / ``T^cc_W`` (32 everywhere)."""

    max_threads_per_mp: int
    """Max resident threads per SM, paper ``T^cc_mp``."""

    max_threads_per_block: int
    """Max threads per block, paper ``T^cc_B``."""

    max_blocks_per_mp: int
    """Max resident blocks per SM, paper ``B^cc_mp``."""

    max_warps_per_mp: int
    """Max resident warps per SM, paper ``W^cc_mp``."""

    reg_alloc_unit: int
    """Register allocation granularity, paper ``R^cc_B`` ("Reg alloc size")."""

    max_regs_per_thread: int
    """Max registers addressable per thread, paper ``R^cc_T``."""

    smem_alloc_unit: int = 256
    """Shared-memory allocation granularity in bytes."""

    warp_alloc_granularity: int = 2
    """Warps-per-block rounding used when computing register cost (Fermi
    allocates registers in pairs of warps; later parts per-warp)."""

    dual_issue: bool = False
    """Whether each scheduler can dual-issue independent instructions."""

    schedulers_per_mp: int = 4
    """Warp schedulers per SM (2 on Fermi, 4 on Kepler+)."""

    dram_latency_cycles: int = 440
    """Approximate global-memory round-trip latency in core cycles."""

    # ---------------------------------------------------------------

    def __post_init__(self) -> None:
        if self.warp_size <= 0 or self.max_threads_per_block % self.warp_size:
            raise ValueError(
                f"{self.name}: max_threads_per_block must be a positive "
                f"multiple of warp_size"
            )
        if self.max_warps_per_mp * self.warp_size != self.max_threads_per_mp:
            raise ValueError(
                f"{self.name}: warps-per-mp * warp-size must equal "
                f"threads-per-mp (got {self.max_warps_per_mp} * "
                f"{self.warp_size} != {self.max_threads_per_mp})"
            )

    # --- derived quantities ---------------------------------------------

    @property
    def cuda_cores(self) -> int:
        """Total CUDA cores on the chip."""
        return self.multiprocessors * self.cores_per_mp

    @property
    def peak_bandwidth_gbs(self) -> float:
        """Peak DRAM bandwidth in GB/s (DDR: two transfers per mem clock)."""
        return self.mem_clock_mhz * 1e6 * (self.mem_bus_bits / 8) * 2 / 1e9

    @property
    def cycle_time_s(self) -> float:
        """Duration of one core clock cycle in seconds."""
        return 1.0 / (self.gpu_clock_mhz * 1e6)

    @cached_property
    def content_key(self) -> bytes:
        """The spec's :func:`~repro.util.hashing.content_digest`, computed
        once: compile-memo keys use it instead of hashing every field."""
        return content_digest(self)

    def warps_per_block(self, threads_per_block: int) -> int:
        """Warps needed for a block of ``threads_per_block`` threads
        (paper: ``W_B = ceil(T_u / T^cc_W)``)."""
        if threads_per_block <= 0:
            raise ValueError("threads_per_block must be positive")
        return -(-threads_per_block // self.warp_size)

    def short(self) -> str:
        """One-line summary used by reports."""
        return (
            f"{self.name} ({self.family}, sm_{self.sm_version}): "
            f"{self.multiprocessors} SMs x {self.cores_per_mp} cores @ "
            f"{self.gpu_clock_mhz:.0f} MHz"
        )

    def as_dict(self) -> dict:
        """All fields as a plain dict (for table rendering / serialization)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


M2050 = GPUSpec(
    name="M2050",
    family="Fermi",
    compute_capability=2.0,
    sm_version=20,
    multiprocessors=14,
    cores_per_mp=32,
    gpu_clock_mhz=1147.0,
    mem_clock_mhz=1546.0,
    global_mem_mb=3072,
    l2_cache_mb=0.786,
    constant_mem_bytes=65536,
    mem_bus_bits=384,
    smem_per_block_bytes=49152,
    smem_per_mp_bytes=49152,
    regfile_per_block=32768,
    regfile_per_mp=32768,
    warp_size=32,
    max_threads_per_mp=1536,
    max_threads_per_block=1024,
    max_blocks_per_mp=8,
    max_warps_per_mp=48,
    reg_alloc_unit=64,
    max_regs_per_thread=63,
    smem_alloc_unit=128,
    warp_alloc_granularity=2,
    dual_issue=False,
    schedulers_per_mp=2,
    dram_latency_cycles=520,
)

K20 = GPUSpec(
    name="K20",
    family="Kepler",
    compute_capability=3.5,
    sm_version=35,
    multiprocessors=13,
    cores_per_mp=192,
    gpu_clock_mhz=824.0,
    mem_clock_mhz=2505.0,
    global_mem_mb=11520,
    l2_cache_mb=1.572,
    constant_mem_bytes=65536,
    mem_bus_bits=320,
    smem_per_block_bytes=49152,
    smem_per_mp_bytes=49152,
    regfile_per_block=65536,
    regfile_per_mp=65536,
    warp_size=32,
    max_threads_per_mp=2048,
    max_threads_per_block=1024,
    max_blocks_per_mp=16,
    max_warps_per_mp=64,
    reg_alloc_unit=256,
    max_regs_per_thread=255,
    smem_alloc_unit=256,
    warp_alloc_granularity=4,
    dual_issue=True,
    schedulers_per_mp=4,
    dram_latency_cycles=440,
)

M40 = GPUSpec(
    name="M40",
    family="Maxwell",
    compute_capability=5.2,
    sm_version=52,
    multiprocessors=24,
    cores_per_mp=128,
    gpu_clock_mhz=1140.0,
    mem_clock_mhz=5000.0,
    global_mem_mb=12288,
    l2_cache_mb=3.146,
    constant_mem_bytes=65536,
    mem_bus_bits=384,
    smem_per_block_bytes=49152,
    smem_per_mp_bytes=98304,
    regfile_per_block=65536,
    regfile_per_mp=65536,
    warp_size=32,
    max_threads_per_mp=2048,
    max_threads_per_block=1024,
    max_blocks_per_mp=32,
    max_warps_per_mp=64,
    reg_alloc_unit=256,
    max_regs_per_thread=255,
    smem_alloc_unit=256,
    warp_alloc_granularity=4,
    dual_issue=True,
    schedulers_per_mp=4,
    dram_latency_cycles=368,
)

P100 = GPUSpec(
    name="P100",
    family="Pascal",
    compute_capability=6.0,
    sm_version=60,
    multiprocessors=56,
    cores_per_mp=64,
    gpu_clock_mhz=405.0,
    mem_clock_mhz=715.0,
    global_mem_mb=17066,
    l2_cache_mb=4.194,
    constant_mem_bytes=65536,
    mem_bus_bits=4096,
    smem_per_block_bytes=49152,
    smem_per_mp_bytes=65536,
    regfile_per_block=65536,
    regfile_per_mp=65536,
    warp_size=32,
    max_threads_per_mp=2048,
    max_threads_per_block=1024,
    max_blocks_per_mp=32,
    max_warps_per_mp=64,
    reg_alloc_unit=256,
    max_regs_per_thread=255,
    smem_alloc_unit=256,
    warp_alloc_granularity=2,
    dual_issue=False,
    schedulers_per_mp=2,
    dram_latency_cycles=280,
)

ALL_GPUS: tuple[GPUSpec, ...] = (M2050, K20, M40, P100)
"""The four GPUs of the paper, in Table I column order."""

GPUS_BY_NAME: dict[str, GPUSpec] = {g.name: g for g in ALL_GPUS}
GPUS_BY_FAMILY: dict[str, GPUSpec] = {g.family: g for g in ALL_GPUS}

_ALIASES = {
    "fermi": "M2050",
    "kepler": "K20",
    "maxwell": "M40",
    "pascal": "P100",
    "m2050": "M2050",
    "k20": "K20",
    "m40": "M40",
    "p100": "P100",
    "sm20": "M2050",
    "sm35": "K20",
    "sm52": "M40",
    "sm60": "P100",
}


def get_gpu(name: str) -> GPUSpec:
    """Look up a GPU by model name, family name, or ``sm_xx`` alias.

    >>> get_gpu("Kepler").name
    'K20'
    """
    key = name.strip().lower().replace("_", "")
    if key not in _ALIASES:
        raise KeyError(
            f"unknown GPU {name!r}; expected one of "
            f"{sorted(set(_ALIASES.values()))} or a family alias"
        )
    return GPUS_BY_NAME[_ALIASES[key]]
