"""The repository benchmark.

    python3 perfbench/run.py --workload sweep-regular --seed 1 \\
        --seconds 30 --trace 0

Runs one workload (``sweep-regular``, ``tune-service`` or
``suite-corpus``) against the source tree of the checkout it sits in,
checks the workload's outputs, and prints one JSON object as the last
line of standard output::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` first runs
the same workload untraced in a fresh process, then again with every
layer's public functions wrapped in timing spans, and reports the
per-layer metrics plus the tracing slowdown.  The exit status is 0 only
when every output check (and, traced, every reconciliation check)
passes.  See ``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import harness

E2E_UNITS = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "warm_points_per_s": "1/s",
    "session_p50_s": "s",
    "session_tail_s": "s",
    "sessions_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _workload(name: str):
    if name == "sweep-regular":
        import sweep_regular as mod
    elif name == "tune-service":
        import tune_service as mod
    else:
        import suite_corpus as mod
    return mod


def _untraced(args) -> dict:
    """The same run with tracing off, in a fresh process."""
    cmd = [sys.executable, str(harness.HERE / "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          cwd=harness.ROOT, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"untraced run failed ({proc.returncode}): "
                           f"{proc.stderr[-500:]}")
    return {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("sweep-regular", "tune-service", "suite-corpus"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        harness.require_source()
    except harness.SourceMissing as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    recorder = None
    if args.trace:
        untraced = _untraced(args)
        import layers

        recorder = layers.install(client=args.workload == "tune-service")
    with harness.scratch_dir() as scratch:
        out = _workload(args.workload).run(args.seed, args.seconds, scratch,
                                           recorder)

    problems = list(out["problems"])
    for line in out["report"]:
        print(f"[{args.workload}] {line}")
    if args.trace:
        import layers

        snap = out["snapshot"]
        values = layers.layer_metrics(snap, out["sessions"])
        values["trace.slowdown"] = (untraced["points_per_s"]
                                    / out["e2e"]["points_per_s"])
        problems += layers.reconcile(snap)
        observed = dict(values, **{"engine.points": snap["engine"]["points"]})
        for name, want in out["expect"].items():
            if observed[name] != want:
                problems.append(f"reconciliation: {name} = {observed[name]}, "
                                f"expected {want}")
        for name, value in out["e2e"].items():
            if value is not None:
                print(f"[{args.workload}] traced {name} = {value:.6g} "
                      f"(untraced {untraced[name]:.6g}, difference "
                      f"{value - untraced[name]:+.6g})")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layers.PER_LAYER}
    else:
        metrics = {name: {"value": out["e2e"][name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    for p in problems:
        print(f"[{args.workload}] CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
