"""Per-layer timing for the traced benchmark run.

Spans are recorded from outside the program: :func:`install` replaces
each layer's public functions and methods with a timing wrapper.  A
function imported by name into other modules (``exact_counts`` is bound
in ``sim.timing``, ``autotune.measure`` and ``suite.evaluate``) is
replaced in every ``repro`` module that holds it, so no call path
escapes.  Span stacks are thread-local, because the service's fleet
drainers measure on worker threads.

A span's *self* time is its duration minus the time covered by its
direct child spans.  The wrapper's own bookkeeping after a call (the
distinct-key hashing below) is charged neither to the span nor to its
parent.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import sys
import threading
import time

import numpy as np

# span name -> (module, attribute) for module-level functions
FUNCTIONS = {
    "sim.counting.branch_fraction": ("repro.sim.counting",
                                     "exact_branch_fraction"),
    "sim.counting.exact_counts": ("repro.sim.counting", "exact_counts"),
    "sim.timing.noise": ("repro.sim.timing", "measure_benchmark"),
    "codegen.compile": ("repro.codegen.compiler", "compile_module"),
    "ptx.verify": ("repro.ptx.verifier", "verify_kernel"),
    "sim.emulator.emulate": ("repro.sim.emulator", "emulate_kernel"),
    "core.analyze": ("repro.core.instruction_mix", "static_mix_module"),
    "suite.row": ("repro.suite.evaluate", "accuracy_row"),
    "suite.row#quality": ("repro.suite.evaluate", "quality_row"),
}

# span name -> (module, class, method); patched on every class of the
# hierarchy that defines the method itself
METHODS = {
    "sim.timing.kernel_time": ("repro.sim.timing", "TimingModel",
                               "kernel_time"),
    "autotune.measure": ("repro.autotune.measure", "Measurer", "measure"),
    "autotune.search": ("repro.autotune.search.base", "Search", "ask"),
    "autotune.search#tell": ("repro.autotune.search.base", "Search",
                             "tell"),
    "core.analyze#analyze": ("repro.core.analyzer", "StaticAnalyzer",
                             "analyze"),
    "core.analyze#module": ("repro.core.analyzer", "StaticAnalyzer",
                            "analyze_module"),
    "engine.cache_get": ("repro.engine.cache", "CacheStore", "get_many"),
    "engine.cache_put": ("repro.engine.cache", "CacheStore", "put_many"),
    "engine.run": ("repro.engine.engine", "SweepEngine", "sweep"),
    "engine.run#batch": ("repro.engine.engine", "SweepEngine", "run"),
}

# client-side layers, installed only where a client runs
CLIENT_METHODS = {
    "service.submit": ("repro.client", "ReproClient", "submit"),
    "service.status": ("repro.client", "ReproClient", "status"),
    "service.result": ("repro.client", "ReproClient", "result"),
}


class Recorder:
    """Span statistics, shared by every thread of one process."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.calls: dict = {}
        self.self_s: dict = {}
        self.keys: dict = {}    # span -> set of distinct work keys
        self.engine = {"points": 0, "hits": 0, "measured": 0,
                       "quarantined": 0}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name: str, fn, key=None, after=None):
        """``fn`` wrapped in a span ``name``.  ``key(args, kwargs)``
        names the work for the distinct-work ratios; ``after(args,
        result)`` reads counters once the call returns."""
        layer = name.split("#")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            work = key(args, kwargs) if key is not None else None
            if after is not None:
                after(args, result)
            with self._lock:
                self.calls[layer] = self.calls.get(layer, 0) + 1
                self.self_s[layer] = (self.self_s.get(layer, 0.0)
                                      + (t1 - t0) - frame[0])
                if key is not None:
                    self.keys.setdefault(layer, set()).add(work)
            if stack:
                # the parent's child time covers the bookkeeping too
                stack[-1][0] += time.perf_counter() - t0
            return result

        return wrapper

    def _engine_after(self, args, _result):
        stats = args[0].last_stats
        with self._lock:
            self.engine["points"] += stats.total
            self.engine["hits"] += stats.hits
            self.engine["measured"] += stats.measured
            self.engine["quarantined"] += stats.failures

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "calls": dict(self.calls),
                "self_s": dict(self.self_s),
                "distinct": {k: len(v) for k, v in self.keys.items()},
                "engine": dict(self.engine),
            }


def merge(a: dict, b: dict) -> dict:
    """Sum two snapshots (the benchmark process and the server child)."""
    out = {}
    for field in ("calls", "self_s", "distinct", "engine"):
        merged = dict(a.get(field, {}))
        for k, v in b.get(field, {}).items():
            merged[k] = merged.get(k, 0) + v
        out[field] = merged
    return out


# -- distinct-work keys ------------------------------------------------------

def _env_key(env: dict) -> tuple:
    parts = []
    for k in sorted(env):
        v = env[k]
        if isinstance(v, np.ndarray):
            digest = hashlib.blake2b(np.ascontiguousarray(v).tobytes(),
                                     digest_size=8).hexdigest()
            parts.append((k, v.dtype.str, v.shape, digest))
        else:
            parts.append((k, repr(v)))
    return tuple(parts)


def _branch_key(args, kwargs):
    """(condition, enclosing loop domain, env): what a branch fraction
    depends on.  The arm (THEN/ELSE) is left out -- both arms share one
    evaluation of the condition."""
    region, env, loop_stack = args
    domain = tuple((r.loop_var, repr(r.lower), repr(r.upper), r.step)
                   for r in loop_stack)
    return (repr(region.cond), domain, _env_key(env))


def _compile_key(args, kwargs):
    """(kernel, GPU, compile-time slice of the configuration)."""
    name = args[0] if args else kwargs["name"]
    opts = args[2] if len(args) > 2 else kwargs["options"]
    return (name, opts.gpu.name, opts.unroll_factor, opts.fast_math,
            opts.l1_pref_kb)


KEYS = {"sim.counting.branch_fraction": _branch_key,
        "codegen.compile": _compile_key}


# -- installation ------------------------------------------------------------

def _rebind(original, replacement) -> int:
    """Replace ``original`` in every loaded ``repro`` module; returns how
    many bindings changed."""
    n = 0
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("repro") or mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                n += 1
    return n


def _import_all_layers() -> None:
    """Import every module a wrapped name may be bound in, so the
    rebinding pass sees each binding (later imports pick the wrapper up
    from the defining module)."""
    for name in ("repro.sim.timing", "repro.autotune.measure",
                 "repro.autotune.tuner", "repro.engine.pool",
                 "repro.suite", "repro.suite.evaluate",
                 "repro.experiments.suite_eval", "repro.core.analyzer",
                 "repro.autotune.search", "repro.service", "repro.client",
                 "repro.api", "repro.ptx", "repro.sim"):
        importlib.import_module(name)


def _subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def install(client: bool = False) -> Recorder:
    """Wrap every layer's public entry points; returns the recorder."""
    _import_all_layers()
    rec = Recorder()
    for span, (modname, attr) in FUNCTIONS.items():
        original = getattr(importlib.import_module(modname), attr)
        wrapped = rec.timed(span, original, key=KEYS.get(span))
        if _rebind(original, wrapped) == 0:
            raise RuntimeError(f"{modname}.{attr} is bound nowhere")
    methods = dict(METHODS)
    if client:
        methods.update(CLIENT_METHODS)
    for span, (modname, clsname, meth) in methods.items():
        base = getattr(importlib.import_module(modname), clsname)
        after = rec._engine_after if span.startswith("engine.run") else None
        for cls in set(_subclasses(base)):
            if meth in vars(cls):
                setattr(cls, meth, rec.timed(span, vars(cls)[meth],
                                             after=after))
    if client:
        from repro.api.protocol import SessionResult

        SessionResult.from_json = staticmethod(
            rec.timed("api.decode", SessionResult.from_json))
    return rec


# -- the per-layer metrics ---------------------------------------------------

PER_LAYER = (
    ("sim.counting.branch_fraction_calls", "count"),
    ("sim.counting.branch_fraction_s", "s"),
    ("sim.counting.branch_fraction_distinct_ratio", "ratio"),
    ("codegen.compile_calls", "count"),
    ("codegen.compile_s", "s"),
    ("codegen.compile_distinct_ratio", "ratio"),
    ("ptx.verify_s", "s"),
    ("sim.timing.kernel_time_calls", "count"),
    ("sim.timing.kernel_time_s", "s"),
    ("sim.counting.exact_counts_s", "s"),
    ("sim.timing.noise_s", "s"),
    ("engine.cache_get_s", "s"),
    ("engine.cache_put_s", "s"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.overhead_s", "s"),
    ("autotune.measure_points", "count"),
    ("autotune.search_s", "s"),
    ("sim.emulator.emulate_calls", "count"),
    ("sim.emulator.emulate_s", "s"),
    ("core.analyze_s", "s"),
    ("suite.row_s", "s"),
    ("service.submit_s", "s"),
    ("service.poll_s", "s"),
    ("service.polls_per_session", "count"),
    ("api.decode_s", "s"),
    ("trace.slowdown", "ratio"),
)


def layer_metrics(snap: dict, sessions: int) -> dict:
    """The per-layer metric values from a (merged) snapshot.  A ratio
    over zero attempts reads 0."""
    calls, self_s = snap["calls"], snap["self_s"]
    distinct, engine = snap["distinct"], snap["engine"]

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "sim.counting.branch_fraction_calls":
            calls.get("sim.counting.branch_fraction", 0),
        "sim.counting.branch_fraction_s":
            self_s.get("sim.counting.branch_fraction", 0.0),
        "sim.counting.branch_fraction_distinct_ratio": ratio(
            distinct.get("sim.counting.branch_fraction", 0),
            calls.get("sim.counting.branch_fraction", 0)),
        "codegen.compile_calls": calls.get("codegen.compile", 0),
        "codegen.compile_s": self_s.get("codegen.compile", 0.0),
        "codegen.compile_distinct_ratio": ratio(
            distinct.get("codegen.compile", 0),
            calls.get("codegen.compile", 0)),
        "ptx.verify_s": self_s.get("ptx.verify", 0.0),
        "sim.timing.kernel_time_calls":
            calls.get("sim.timing.kernel_time", 0),
        "sim.timing.kernel_time_s":
            self_s.get("sim.timing.kernel_time", 0.0),
        "sim.counting.exact_counts_s":
            self_s.get("sim.counting.exact_counts", 0.0),
        "sim.timing.noise_s": self_s.get("sim.timing.noise", 0.0),
        "engine.cache_get_s": self_s.get("engine.cache_get", 0.0),
        "engine.cache_put_s": self_s.get("engine.cache_put", 0.0),
        "engine.cache_hit_ratio": ratio(engine["hits"], engine["points"]),
        "engine.overhead_s": self_s.get("engine.run", 0.0),
        "autotune.measure_points": calls.get("autotune.measure", 0),
        "autotune.search_s": self_s.get("autotune.search", 0.0),
        "sim.emulator.emulate_calls": calls.get("sim.emulator.emulate", 0),
        "sim.emulator.emulate_s": self_s.get("sim.emulator.emulate", 0.0),
        "core.analyze_s": self_s.get("core.analyze", 0.0),
        "suite.row_s": self_s.get("suite.row", 0.0),
        "service.submit_s": self_s.get("service.submit", 0.0),
        "service.poll_s": self_s.get("service.status", 0.0)
        + self_s.get("service.result", 0.0),
        "service.polls_per_session": ratio(
            calls.get("service.status", 0), sessions),
        "api.decode_s": self_s.get("api.decode", 0.0),
    }


def reconcile(snap: dict) -> list:
    """Checks every traced run must pass; returns failure messages."""
    problems = []
    engine, calls = snap["engine"], snap["calls"]
    if engine["hits"] + engine["measured"] + engine["quarantined"] \
            != engine["points"]:
        problems.append(f"engine hits + measured + quarantined != points: "
                        f"{engine}")
    if calls.get("autotune.measure", 0) != engine["measured"]:
        problems.append(
            f"wrapped Measurer.measure saw {calls.get('autotune.measure', 0)}"
            f" points, the engines measured {engine['measured']}")
    return problems
