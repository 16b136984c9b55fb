"""Benchmark of the budgetcontracts solvers and demand layer.

Run from the repository root:

    python3 perfbench/run.py --workload fptas_additive --seed 1 --seconds 24 --trace 0

Workloads: fptas_additive, exact_tables, gs_pipeline, hardness_demand (see
perfbench/README.md).  Each run starts fresh interpreters (worker.py) so
set-up time and peak memory belong to one workload only.  ``--trace 0``
measures the end-to-end figures with tracing off, in CPU time scaled by a
reference kernel run between ops (bench_clock.py); ``--trace 1`` measures
the per-layer figures.  Human-readable lines come first; the last line of
standard output is one JSON object with keys correct, attempted, failed
and metrics.  Exit code 0 means a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fptas_additive", "exact_tables", "gs_pipeline",
             "hardness_demand")
SETUP_ONLY_PROCESSES = 2   # plus the measuring process: median of three
TIME_LIMIT_S = 170

UNITS = {"op_ms.p50": "ms", "op_ms.p90": "ms", "ops_per_s": "1/s",
         "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {"calls": "count", "cells": "count", "value_queries": "count",
               "share": "%", "self_share": "%", "yield_ratio": "ratio",
               "op_ms": "ms", "overhead_ratio": "ratio"}


class BenchError(Exception):
    pass


def run_worker(args, mode: str, workdir: Path, deadline: float,
               refs=None) -> dict:
    spawned_at = time.time_ns()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--workdir", str(workdir),
           "--spawned-at", str(spawned_at)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, input=json.dumps(refs or []),
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process exceeded the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def layer_unit(name: str) -> str:
    return LAYER_UNITS[name.rsplit(".", 1)[1]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="budgetcontracts benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    if not (ROOT / "src" / "budgetcontracts" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    # a terminated run raises SystemExit inside subprocess.run, which then
    # kills and reaps the worker it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            res = run_worker(args, "trace", workdir / "trace", deadline)
            metrics = {name: {"value": v, "unit": layer_unit(name)}
                       for name, v in res["metrics"].items()}
        else:
            setups = [run_worker(args, "setup", workdir / f"setup{i}", deadline)
                      for i in range(SETUP_ONLY_PROCESSES)]
            res = run_worker(args, "run", workdir / "run", deadline,
                             refs=[s["digests"] for s in setups])
            setup_samples = [s["setup_s"] for s in setups] + [res["setup_s"]]
            res["metrics"]["setup_s"] = statistics.median(setup_samples)
            metrics = {name: {"value": v, "unit": UNITS[name]}
                       for name, v in res["metrics"].items()}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    attempted, failed = res["attempted"], res["failed"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} ops ({res['distinct_ops']} distinct timed ops, the "
          f"rest repeats and warm-up) in {res['wall_s']:.2f} s")
    print(f"  failed_frac = {failed / attempted:.6f} ({failed} of {attempted}); "
          f"non-zero results: {res['nonzero']} of {res['checked']} timed ops "
          f"that passed the checks")
    print(f"  output digest of ops 0-19: {res['output_digest']}")
    if not args.trace:
        print(f"  setup_s samples: "
              + ", ".join(f"{s:.4f}" for s in setup_samples)
              + " (wall s: "
              + ", ".join(f"{s['setup_wall_s']:.4f}" for s in setups + [res])
              + ")")
        print(f"  reference kernel: median {res['kernel_ms']:.4f} CPU ms over "
              f"{res['kernel_samples']} samples; unscaled CPU op_ms.p50 "
              f"{res['cpu_ms_p50']:.4f}")
        print(f"  op_ms.p90 from {res['distinct_ops']} samples (each op's "
              f"median of its passes), {res['p90_beyond']} beyond it")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
