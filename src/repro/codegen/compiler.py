"""The compile driver: kernel specs -> compiled kernels, per architecture.

This is the reproduction's ``nvcc``.  A :class:`CompileOptions` bundle maps
one-to-one onto the tuning parameters the paper's Orio specification varies
at compile time (``UIF`` unroll factor, ``CFLAGS`` fast-math) plus the
target GPU (``-arch=sm_xx``).  The result carries everything the paper's
static analyzer step extracts:

1. the resource report (registers/thread, shared memory) that
   ``nvcc --ptxas-options=-v`` prints, available as :attr:`CompiledKernel.log`;
2. the disassembled instruction stream (``nvdisasm``), available as
   :meth:`CompiledKernel.disassembly`;
3. the region tree connecting static code to trip counts, which the dynamic
   substrate uses for exact counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.arch.specs import GPUSpec
from repro.codegen.ast_nodes import KernelSpec
from repro.codegen.lowering import lower_kernel
from repro.codegen.regalloc import allocate_registers
from repro.codegen.regions import Region
from repro.codegen.transforms.unroll import unroll_innermost
from repro.ptx.module import KernelIR
from repro.ptx.printer import print_kernel
from repro.ptx.verifier import verify_kernel
from repro.util.hashing import content_digest
from repro.util.memo import BoundedMemo

#: Registers reserved by the ABI / system per architecture generation.
#: Fermi's 32-bit addressing needs fewer; Kepler+ reserve more for the
#: wider ABI.  These reservations (together with 64-bit pointer pairs) are
#: why the same kernel reports different register counts per architecture,
#: as in the paper's Table VII [R_u] column.
_RESERVED_REGS = {20: 2, 35: 4, 52: 6, 60: 6}


@dataclass(frozen=True)
class CompileOptions:
    """Compile-time tuning knobs (the compile-side slice of Table III)."""

    gpu: GPUSpec
    unroll_factor: int = 1
    fast_math: bool = False
    l1_pref_kb: int = 16
    """Preferred L1 size in KB (the Orio ``PL`` parameter, 16 or 48).  A
    runtime cache-config hint: recorded here because Orio treats it as part
    of the code variant; consumed by the timing model."""

    def __post_init__(self):
        if self.unroll_factor < 1:
            raise ValueError("unroll_factor must be >= 1")
        if self.l1_pref_kb not in (16, 48):
            raise ValueError("l1_pref_kb must be 16 or 48")

    @property
    def content_key(self) -> tuple:
        """The options' content, cheap to hash: the GPU enters by its
        content digest."""
        return (self.gpu.content_key, self.unroll_factor, self.fast_math,
                self.l1_pref_kb)

    def flags(self) -> str:
        """The equivalent nvcc flag string."""
        parts = [f"-arch=sm_{self.gpu.sm_version}"]
        if self.fast_math:
            parts.append("-use_fast_math")
        if self.unroll_factor > 1:
            parts.append(f"-unroll={self.unroll_factor}")
        return " ".join(parts)


@dataclass(eq=False)
class CompiledKernel:
    """One kernel compiled for one architecture and option set.

    Compiled kernels are shared through the module memo and never
    mutated.  Memos of per-kernel results key on :attr:`content_key`,
    not on the object.
    """

    spec: KernelSpec
    """The post-transform spec actually lowered (unrolled form)."""

    source_spec: KernelSpec
    """The original spec before transformations."""

    ir: KernelIR
    root_region: Region
    parallel_extent: object
    options: CompileOptions
    log: str = ""
    content_key: bytes = field(init=False, repr=False)
    """Digest of (source spec, options): the region tree, and so every
    count, is a function of these two alone."""

    def __post_init__(self):
        self.content_key = content_digest(
            (self.source_spec.content_key, self.options.content_key)
        )

    @property
    def name(self) -> str:
        return self.ir.name

    @property
    def regs_per_thread(self) -> int:
        return self.ir.regs_per_thread

    @property
    def static_smem_bytes(self) -> int:
        return self.ir.static_smem_bytes

    def disassembly(self) -> str:
        """The nvdisasm-equivalent textual instruction stream."""
        return print_kernel(self.ir)


@dataclass(eq=False)
class CompiledModule:
    """A benchmark compiled as one or more kernels launched in sequence.

    Multi-kernel benchmarks (atax, BiCG run two dependent passes) measure
    and tune the kernels together, as the paper's per-benchmark timings do.
    """

    name: str
    kernels: list
    options: CompileOptions

    def __iter__(self):
        return iter(self.kernels)

    def __len__(self):
        return len(self.kernels)

    @property
    def regs_per_thread(self) -> int:
        """The occupancy-relevant register count: the max across kernels."""
        return max(k.regs_per_thread for k in self.kernels)

    @property
    def static_smem_bytes(self) -> int:
        return max(k.static_smem_bytes for k in self.kernels)

    def log(self) -> str:
        return "\n".join(k.log for k in self.kernels)


def compile_kernel(spec: KernelSpec, options: CompileOptions) -> CompiledKernel:
    """Compile one kernel spec for the given options.

    Pipeline: AST transforms (unroll) -> lowering (fast-math instruction
    selection, addressing width by architecture) -> verification -> linear
    scan register allocation -> resource report.
    """
    gpu = options.gpu
    transformed = unroll_innermost(spec, options.unroll_factor)
    address_64bit = gpu.sm_version >= 35
    lowered = lower_kernel(
        transformed, fast_math=options.fast_math, address_64bit=address_64bit
    )
    alloc = allocate_registers(
        lowered.ir,
        reserved=_RESERVED_REGS[gpu.sm_version],
        max_regs=gpu.max_regs_per_thread,
    )
    ir = alloc.kernel
    ir.target_sm = gpu.sm_version
    ir.meta["options"] = options
    ir.meta["spilled"] = alloc.spilled
    verify_kernel(ir)

    log = (
        f"ptxas info    : Compiling entry function '{spec.name}' "
        f"for 'sm_{gpu.sm_version}'\n"
        f"ptxas info    : Function properties for {spec.name}\n"
        f"ptxas info    : Used {ir.regs_per_thread} registers, "
        f"{ir.static_smem_bytes} bytes smem"
        + (f", {alloc.spilled} registers spilled" if alloc.spilled else "")
    )
    return CompiledKernel(
        spec=transformed,
        source_spec=spec,
        ir=ir,
        root_region=lowered.root_region,
        parallel_extent=lowered.parallel_extent,
        options=options,
        log=log,
    )


MODULE_CACHE_CAP = 64
"""Compiled modules the process keeps, a constant sized by measurement.
A kernel's IR plus region tree takes about 50 KB.  A tuning session
visits at most 20 compile keys (the full Table III space), so 64 modules
serve three at once; the tuning service's peak RSS grew by 12% at 128
modules and by half at 512."""

_module_cache = BoundedMemo(MODULE_CACHE_CAP)


def compile_module(
    name: str, specs: list, options: CompileOptions
) -> CompiledModule:
    """Compile a multi-kernel benchmark, once per process.

    Modules are served from a process-wide memo keyed by (name, each
    spec's content key, the options' content), so every caller --
    measurers, the suite, the analyzer, fuzzing -- shares one compile and
    one verifier pass per distinct module.  Shared modules must not be
    mutated.
    """
    if not specs:
        raise ValueError("compile_module needs at least one kernel spec")
    key = (name, tuple(s.content_key for s in specs), options.content_key)
    module = _module_cache.get(key)
    if module is None:
        module = CompiledModule(
            name=name,
            kernels=[compile_kernel(s, options) for s in specs],
            options=options,
        )
        obs.add("measure.compiles", kernel=name)
        module = _module_cache.put(key, module)
    return module
