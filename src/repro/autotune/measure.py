"""Variant generation and measurement.

``Measurer`` turns a tuning configuration (one point of the Table III
space) into a compiled code variant -- recompiling only when compile-time
parameters (``UIF``, ``CFLAGS``, ``PL``) change -- and measures it on the
simulated GPU with the paper's protocol (ten repetitions, fifth trial).
Static metrics for the variant (occupancy, register usage, dynamic
register-instruction counts) are recorded alongside the time, which is
what the Table V statistics are built from.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.arch.specs import GPUSpec
from repro.codegen.compiler import CompiledModule, CompileOptions, compile_module
from repro.kernels.base import Benchmark
from repro.sim.counting import exact_counts
from repro.sim.occupancy_hw import hw_occupancy
from repro.sim.timing import (
    DEFAULT_PARAMS,
    LaunchConfig,
    ModelParams,
    measure_benchmark,
)


def compile_config_key(config: dict) -> tuple:
    """The compile-time slice of a configuration (``UIF``, ``CFLAGS``,
    ``PL``): variants sharing it share one compiled module.  Picks the
    compile options here and groups shards in :mod:`repro.engine.work`."""
    return (
        int(config.get("UIF", 1)),
        str(config.get("CFLAGS", "")),
        int(config.get("PL", 16)),
    )


class MeasurementError(RuntimeError):
    """A batch measurement failed at a specific ``(config, size)`` point.

    Raised by :meth:`Measurer.measure_many` (the sweep-engine worker
    path) so a shard failure names the exact work point that caused it
    -- the engine's :class:`~repro.engine.resilience.ShardFailure`
    records carry this message verbatim.
    """

    def __init__(self, config: dict, size: int, cause: BaseException):
        super().__init__(
            f"measuring config {dict(config)} at size {size} failed: "
            f"{type(cause).__name__}: {cause}"
        )
        self.config = dict(config)
        self.size = size


@dataclass(frozen=True)
class VariantMeasurement:
    """One measured code variant."""

    config: dict
    size: int
    seconds: float
    occupancy: float
    regs_per_thread: int
    reg_instructions: float
    """Dynamic register-operand traffic (the Table V 'Register
    Instructions' statistic)."""

    @property
    def launchable(self) -> bool:
        return self.seconds != float("inf")


class Measurer:
    """Compiles and measures variants of one benchmark on one GPU."""

    def __init__(
        self,
        benchmark: Benchmark,
        gpu: GPUSpec,
        params: ModelParams = DEFAULT_PARAMS,
        repetitions: int = 10,
        trial_index: int = 4,
    ):
        self.benchmark = benchmark
        self.gpu = gpu
        self.params = params
        self.repetitions = repetitions
        self.trial_index = trial_index
        self.evaluations = 0

    def module_for(self, config: dict) -> CompiledModule:
        """The compiled module for a configuration.  The compile-time
        slice of the configuration picks the options; :func:`compile_module`
        compiles each distinct module once per process."""
        uif, cflags, pl = compile_config_key(config)
        options = CompileOptions(
            gpu=self.gpu,
            unroll_factor=uif,
            fast_math="-use_fast_math" in cflags,
            l1_pref_kb=pl,
        )
        return compile_module(
            self.benchmark.name, list(self.benchmark.specs), options
        )

    def measure(self, config: dict, size: int) -> VariantMeasurement:
        """Measure one variant at one input size."""
        self.evaluations += 1
        mod = self.module_for(config)
        env = self.benchmark.param_env(size)
        tc = int(config["TC"])
        bc = int(config["BC"])
        launch = LaunchConfig(tc, bc)

        seconds = measure_benchmark(
            mod, launch, env,
            repetitions=self.repetitions,
            trial_index=self.trial_index,
            params=self.params,
        )
        occ = hw_occupancy(
            self.gpu, tc, mod.regs_per_thread, mod.static_smem_bytes
        )
        reg_instr = sum(
            exact_counts(ck, env, tc, bc).reg_ops for ck in mod
        )
        return VariantMeasurement(
            config=dict(config),
            size=size,
            seconds=seconds,
            occupancy=occ,
            regs_per_thread=mod.regs_per_thread,
            reg_instructions=reg_instr,
        )

    def measure_many(self, items) -> list[VariantMeasurement]:
        """Measure a batch of ``(config, size)`` pairs, in input order.

        Modules are compiled once per distinct compile key regardless of
        order (``compile_module`` memoizes them for the process).
        This is the unit of work a sweep-engine worker runs on its
        shard, so a failure is wrapped in :class:`MeasurementError` to
        pin the exact point that caused it.
        """
        out = []
        for config, size in items:
            try:
                out.append(self.measure(config, size))
            except (KeyboardInterrupt, SystemExit, MeasurementError):
                raise
            except Exception as e:
                obs.add("measure.errors", kernel=self.benchmark.name)
                raise MeasurementError(config, size, e) from e
        return out

    def objective(self, size: int):
        """A callable ``config -> seconds`` for the search strategies."""

        def f(config: dict) -> float:
            return self.measure(config, size).seconds

        return f

    def batch_objective(self, size: int, results=None, engine=None):
        """A :class:`BatchObjective` at one input size (see below)."""
        return BatchObjective(self, size, results=results, engine=engine)


class BatchObjective:
    """The objective the tuner hands to the search strategies.

    Point calls (``obj(config)``) measure inline through the
    :class:`Measurer`.  Batch calls (``obj.batch(configs)``) -- what the
    ask/tell driver in :class:`~repro.autotune.search.base.Search` uses
    -- route the whole list through the sweep engine when one is
    configured (sharded across worker processes, served from the
    persistent cache) and fall back to :meth:`Measurer.measure_many`
    otherwise.  Every measurement lands in ``results`` in evaluation
    order either way, so batched runs are byte-identical to serial ones.
    """

    def __init__(self, measurer: Measurer, size: int, results=None,
                 engine=None):
        self.measurer = measurer
        self.size = size
        self.results = results
        self.engine = engine

    def _absorb(self, measurements) -> list[float]:
        if self.results is not None:
            for m in measurements:
                self.results.add(m)
        return [m.seconds for m in measurements]

    def __call__(self, config: dict) -> float:
        return self._absorb([self.measurer.measure(config, self.size)])[0]

    def batch(self, configs: list) -> list[float]:
        if not configs:
            return []
        m = self.measurer
        pairs = [(config, self.size) for config in configs]
        if self.engine is not None:
            measurements = self.engine.run(
                m.benchmark, m.gpu, pairs, params=m.params,
                repetitions=m.repetitions, trial_index=m.trial_index,
            )
            m.evaluations += len(measurements)
        else:
            measurements = m.measure_many(pairs)
        return self._absorb(measurements)
