"""Shared experiment infrastructure: sweep configuration and caching.

The sweep-backed experiments (fig4, table5, fig5, fig6) all draw from
:func:`exhaustive_sweep`, which routes through the
:class:`~repro.engine.engine.SweepEngine`.  :func:`configure_sweeps` sets
the process-wide engine policy (worker count, persistent cache dir,
progress reporting) -- the runner's ``--jobs``/``--cache`` flags land
here -- without threading engine arguments through every experiment
module's signature.
"""

from __future__ import annotations

from repro.arch.specs import ALL_GPUS, GPUSpec, get_gpu
from repro.autotune.space import Parameter, ParameterSpace
from repro.autotune.spec import default_tuning_spec
from repro.autotune.tuner import Autotuner
from repro.autotune.results import TuningResults
from repro.engine import CacheStore, StderrProgress, SweepEngine
from repro.kernels import get_benchmark
from repro.util.memo import BoundedMemo

KERNEL_ORDER = ("atax", "bicg", "ex14fj", "matvec2d")
"""Paper presentation order of the Table IV kernels."""


def reduced_space() -> ParameterSpace:
    """A structure-preserving subset of the Table III space.

    Keeps the full 32-value thread axis (every experiment's subject) but
    trims the orthogonal axes, so reduced sweeps finish in seconds while
    every thread-count effect survives: 32 (TC) x 2 (BC) x 2 (UIF) x 1 (PL)
    x 2 (CFLAGS) = 256 variants.
    """
    return ParameterSpace([
        Parameter("TC", tuple(range(32, 1025, 32))),
        Parameter("BC", (48, 144)),
        Parameter("UIF", (1, 3)),
        Parameter("PL", (16,)),
        Parameter("CFLAGS", ("", "-use_fast_math")),
    ])


def space_for(full: bool) -> ParameterSpace:
    return default_tuning_spec() if full else reduced_space()


def sizes_for(benchmark_name: str, full: bool) -> tuple:
    bm = get_benchmark(benchmark_name)
    if full:
        return bm.sizes
    return bm.sizes[::2]  # first, middle, largest


def resolve_gpus(archs=None) -> list[GPUSpec]:
    if archs is None:
        return list(ALL_GPUS)
    return [get_gpu(a) for a in archs]


def resolve_kernels(kernels=None) -> list[str]:
    if kernels is None:
        return list(KERNEL_ORDER)
    out = []
    for k in kernels:
        get_benchmark(k)  # validates
        out.append(k.strip().lower())
    return out


_SWEEP_CACHE = BoundedMemo(64)
"""Memo: (kernel, GPU content key, full) -> the pooled sweep's
:class:`TuningResults`.  The paper's four kernels on four GPUs make 16
entries per space, so the cap never evicts in a default run; a GPU
enters by content, so a modified spec never reads another's sweep."""

_ENGINE_CONFIG = {"jobs": 1, "cache_dir": None, "progress": False}
_SHARED_ENGINE: list = [None, False]  # [engine, built?]


def configure_sweeps(jobs: int = 1, cache_dir=None,
                     progress: bool = False) -> None:
    """Set the process-wide sweep engine policy.

    ``jobs`` worker processes per sweep; ``cache_dir`` a directory for the
    persistent :class:`~repro.engine.cache.CacheStore` (``None`` disables
    persistence); ``progress`` paints a stderr meter.  Library callers and
    the test suite default to serial, uncached sweeps.
    """
    _ENGINE_CONFIG.update(
        jobs=jobs, cache_dir=cache_dir, progress=progress
    )
    _SHARED_ENGINE[:] = [None, False]


def shared_engine() -> SweepEngine | None:
    """The :class:`SweepEngine` honouring :func:`configure_sweeps` (one
    per configuration, so its cache connection and hit counters persist
    across experiments), or ``None`` for the plain serial default."""
    if not _SHARED_ENGINE[1]:
        cfg = _ENGINE_CONFIG
        if cfg["jobs"] == 1 and not cfg["cache_dir"] and not cfg["progress"]:
            engine = None
        else:
            engine = SweepEngine(
                jobs=cfg["jobs"],
                cache=CacheStore(cfg["cache_dir"]) if cfg["cache_dir"]
                else None,
                progress=StderrProgress() if cfg["progress"] else None,
            )
        _SHARED_ENGINE[:] = [engine, True]
    return _SHARED_ENGINE[0]


def shutdown_sweeps() -> None:
    """Deterministically release the shared engine's workers and close
    its cache store (the runner calls this on exit and on interrupt;
    measurements checkpointed so far stay persisted)."""
    engine = _SHARED_ENGINE[0] if _SHARED_ENGINE[1] else None
    if engine is not None:
        engine.close()
        if engine.cache is not None:
            engine.cache.close()
    _SHARED_ENGINE[:] = [None, False]


def exhaustive_sweep(
    kernel: str, gpu: GPUSpec, full: bool = False
) -> TuningResults:
    """The pooled exhaustive sweep for (kernel, GPU): measurements of every
    variant at every input size (Fig. 4 / Table V data).  Cached per
    process, since several experiments share it; the engine adds process
    parallelism and the persistent cross-run cache when configured."""
    key = (kernel, gpu.content_key, full)
    results = _SWEEP_CACHE.get(key)
    if results is None:
        bm = get_benchmark(kernel)
        tuner = Autotuner(bm, gpu, space=space_for(full))
        results = _SWEEP_CACHE.put(key, tuner.sweep(
            sizes=sizes_for(kernel, full), engine=shared_engine()
        ))
    return results


def clear_sweep_cache() -> None:
    _SWEEP_CACHE.clear()
