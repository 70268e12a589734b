"""Shared plumbing for the benchmark workloads: locating the source
tree, scratch space, set-up probes, summary statistics, output digests
and the emulator oracle."""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
SETUP_PROBES = 3
"""Fresh processes timed per run for ``setup_s``; the median is kept."""


class SourceMissing(RuntimeError):
    pass


def require_source() -> None:
    """Put the checkout's ``src`` on the path, or fail loudly."""
    if not (SRC / "repro" / "engine" / "__init__.py").is_file():
        raise SourceMissing(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("REPRO_CHAOS", None)
    return env


@contextlib.contextmanager
def scratch_dir():
    """A private directory inside the checkout, removed afterwards.  It
    is also ``TMPDIR``, so temporary files of this process and its
    children stay in the checkout too."""
    path = ROOT / ".perfbench_run" / str(os.getpid())
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    os.environ["TMPDIR"] = str(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            path.parent.rmdir()


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- set-up time -------------------------------------------------------------

def probe_setup(workload: str, first_point: dict, scratch: Path) -> float:
    """Median wall time, over :data:`SETUP_PROBES` fresh processes, from
    process start through imports and engine/cache open until the first
    point is measured."""
    times = []
    for i in range(SETUP_PROBES):
        store = scratch / f"setup-{i}"
        cmd = [sys.executable, str(HERE / "setup_child.py"), workload,
               str(store), json.dumps(first_point)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                env=child_env(), cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            rc = proc.wait(timeout=60)
        if rc != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit {rc})")
        times.append(elapsed)
    return statistics.median(times)


def another_round(start: float, rounds: int, seconds: float) -> bool:
    """Whether a run that began at ``start`` and has done ``rounds``
    rounds should start one more: only if at least half an average
    round fits before ``seconds`` are spent, so a run measures for about
    ``seconds`` rather than up to a whole round more."""
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / rounds < seconds


# -- statistics --------------------------------------------------------------

def percentile(values, p: float) -> float:
    """The ``p``-th percentile (inclusive interpolation)."""
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(p) - 1]


def rate(work: dict, times: dict) -> float:
    """Work per second, each unit timed by the median of its repeats:
    ``sum(work) / sum(median(times[u]))``.  A unit's median over
    repeats spaced seconds apart keeps a burst of load on the host from
    counting against every unit it overlaps."""
    return sum(work.values()) / sum(statistics.median(times[u])
                                    for u in work)


def tail_summary(latencies, p: int) -> dict:
    """Median and tail of ``latencies``, with the sample count.

    The tail is the mean of the samples beyond the ``p``-th percentile
    (``p`` is fixed per workload so that at least ten lie beyond it).  A
    run's sessions are a few dozen unlike units, so the percentile itself
    is one of them and jumps to its neighbour from run to run; the mean
    of the ten or more beyond it does not."""
    n = len(latencies)
    beyond = int(n * (100 - p) / 100)
    return {
        "p50": statistics.median(latencies),
        "tail": statistics.mean(sorted(latencies)[n - beyond:]),
        "tail_pct": p,
        "pct_value": percentile(latencies, p),
        "samples": n,
        "beyond_tail": beyond,
    }


def tail_report(what: str, lat: dict) -> str:
    """The line a run prints about its session latencies."""
    return (f"session = {what}; p50 over {lat['samples']} sessions; tail = "
            f"mean of the {lat['beyond_tail']} beyond p{lat['tail_pct']} "
            f"(p{lat['tail_pct']} = {lat['pct_value']:.4g} s)")


# -- output digests ----------------------------------------------------------

FLOAT_DIGITS = 9
"""Significant digits a float keeps in the canonical form.

The program's times are not bit-identical across processes: the timing
model sums per-category terms in set-iteration order, and that order
follows the per-process string-hash seed, so a time can move by an ulp
or two from one process to the next.  Nine digits ignore that and
still catch any change to the model or the noise streams."""


def canonical(doc):
    """``doc`` with every float rounded to :data:`FLOAT_DIGITS`."""
    if isinstance(doc, float):
        return format(doc, f".{FLOAT_DIGITS}g")
    if isinstance(doc, dict):
        return {str(k): canonical(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [canonical(v) for v in doc]
    return doc


def digest(doc) -> str:
    """A short hash of a JSON-able document in canonical form."""
    text = json.dumps(canonical(doc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def measurement_doc(m) -> list:
    """One ``VariantMeasurement`` as a JSON-able list."""
    return [sorted(m.config.items()), m.size, m.seconds, m.occupancy,
            m.regs_per_thread, m.reg_instructions]


def check_digests(workload: str, observed: dict) -> list:
    """Compare ``{item: digest}`` against the recorded table; returns
    one message per mismatch or unrecorded item."""
    recorded = json.loads(DIGESTS.read_text())[workload]
    problems = []
    for item, d in sorted(observed.items()):
        want = recorded.get(item)
        if want is None:
            problems.append(f"{workload}: no recorded digest for {item}")
        elif want != d:
            problems.append(f"{workload}: {item} digest {d} != "
                            f"recorded {want}")
    return problems


# -- the independent oracle --------------------------------------------------

def oracle(rng, touched, n: int = 2) -> list:
    """Emulate a seeded sample of the (kernel, GPU) pairs a workload
    touched and require the closed-form counts to match exactly.

    Sizes are drawn from each kernel's two smallest, which keeps the
    emulation to about a second per point; the counts are closed-form in
    the size, so small sizes check the same formulas.
    """
    from repro.arch.specs import get_gpu
    from repro.codegen.compiler import CompileOptions, compile_module
    from repro.kernels import get_benchmark
    from repro.suite import emulator_ground_truth

    problems = []
    for kernel, gpu_name in rng.sample(sorted(touched), min(n, len(touched))):
        bm = get_benchmark(kernel)
        size = rng.choice(bm.sizes[:2])
        module = compile_module(bm.name, list(bm.specs),
                                CompileOptions(gpu=get_gpu(gpu_name)))
        err = emulator_ground_truth(bm, module, size)["count_err"]
        if err != 0:
            problems.append(f"oracle: {kernel}/{gpu_name}/{size} closed-form "
                            f"counts differ from the emulator by {err}")
    return problems
