"""One benchmark process: set up a workload, time it, check every output.

Started by ``run.py`` in a fresh interpreter, in one of three modes:

* ``setup``: set up and warm up, then print the set-up time and the
  warm-up output digests (used as a cross-process determinism reference);
* ``run``: set up, then run operations one after another (a closed loop
  with one client and no extra threads) for ``--seconds`` with tracing
  off, and print the end-to-end figures;
* ``trace``: set up, then run every operation twice, first plain, then
  with the per-layer wrappers installed, and print the per-layer figures.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import bench_clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_TIMED_OPS = 100     # distinct ops; p90 needs at least 10 samples beyond
MIN_TRACED_PAIRS = 20   # also the ops covered by the printed output digest
HARD_STOP_S = 120       # keeps a very slow program inside the time limit
NONZERO_FLOOR = 0.5     # a corpus with fewer non-zero results is degenerate


class BenchError(Exception):
    pass


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def import_program():
    sys.path.insert(0, str(SRC))
    import budgetcontracts

    where = Path(budgetcontracts.__file__).resolve().parent
    if where != SRC / "budgetcontracts":
        raise BenchError(f"imported budgetcontracts from {where}, not {SRC}")


def _execute(workload, op) -> tuple[int, str]:
    try:
        return workload.run(op)
    except Exception as exc:  # a crash is a failed op, not a dead run
        return -1, f"{type(exc).__name__}: {exc}"


def timed_loop(workload, ops, seconds: float, passes: int, min_ops: int,
               tracer=None, scale=None):
    """Run the same ops in up to ``passes`` passes, one op at a time.

    The first pass runs ops in order until ``seconds / passes`` have passed,
    at least ``min_ops`` ran and the count is a multiple of the workload's
    stride.  Later passes repeat exactly those ops until ``passes`` passes
    are done or ``seconds`` have passed, so a slow spell makes the run give
    some ops fewer tries, not last longer.  With a tracer, each op runs
    twice: plain, then traced, both timed in wall ns like the tracer's
    spans.  Without one, ops are timed in CPU ns and ``scale`` samples the
    reference kernel between them.  Returns the records (op index, plain
    ns, traced ns or None, code, text, traced text, wall ns at the op's
    middle).
    """
    records = []
    wall = time.perf_counter_ns
    op_clock = wall if tracer is not None else bench_clock.clock
    start = wall()
    first_pass_end = start + int(seconds / passes * 1e9)
    end = start + int(seconds * 1e9)
    hard_stop = start + int(HARD_STOP_S * 1e9)
    distinct = len(ops)
    for p in range(passes):
        for idx in range(distinct):
            now = wall()
            if now >= hard_stop or (p > 0 and now >= end):
                return records
            if (p == 0 and now >= first_pass_end and idx >= min_ops
                    and idx % workload.stride == 0):
                distinct = idx
                break
            if scale is not None:
                scale.maybe_sample()
            at = wall()
            t0 = op_clock()
            code, text = _execute(workload, ops[idx])
            plain_ns = op_clock() - t0
            at = (at + wall()) // 2
            traced_ns = traced_text = None
            if tracer is not None:
                tracer.install()
                t0 = op_clock()
                _, traced_text = _execute(workload, ops[idx])
                traced_ns = op_clock() - t0
                tracer.remove()
            records.append((idx, plain_ns, traced_ns, code, text, traced_text,
                            at))
    return records


def check_records(workload, ops, records, first: dict):
    """Digest, determinism and output checks, outside any timed region.

    Returns (failed ops, non-zero ops, first failure message).  A check
    runs once per distinct output of an op; repeats of the same bytes
    share its verdict.
    """
    from bench_check import check_demand, check_solve

    verdicts: dict[tuple[int, str], tuple[str | None, bool]] = {}
    failed = nonzero = 0
    first_error = None
    for idx, _, _, code, text, traced_text, _ in records:
        error = None
        d = digest(text)
        if code != 0:
            error = f"exit code {code}: {text.strip()[:300]}"
        elif first.setdefault(idx, d) != d:
            error = "output differs from an earlier run of the same op"
        elif traced_text is not None and traced_text != text:
            error = "traced output differs from the plain output"
        else:
            key = (idx, d)
            if key not in verdicts:
                op = ops[idx]
                if workload.kind == "demand":
                    verdicts[key] = check_demand(workload.specs[op.instance],
                                                 op.prices, text)
                else:
                    verdicts[key] = check_solve(op.path, op.budget,
                                                op.objective, text)
            error, is_nonzero = verdicts[key]
            nonzero += error is None and is_nonzero
        if error is not None:
            failed += 1
            if first_error is None:
                first_error = f"op {idx}: {error}"
    return failed, nonzero, first_error


def percentile_p90(samples: list[float]) -> tuple[float, int]:
    """Nearest-rank 90th percentile and the number of samples beyond it."""
    ordered = sorted(samples)
    rank = math.ceil(0.9 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def layer_metrics(workload, tracer, records) -> dict:
    """Per-layer figures of the traced ops, per op or as % of op time."""
    from bench_trace import SOLVERS

    ops = len(records)
    op_ns = sum(r[2] for r in records)
    stats = tracer.stats
    out = {}

    def share(ns: int) -> float:
        return 100.0 * ns / op_ns

    def per_op(count: int) -> float:
        return count / ops

    for name in ("solvers.build_dp_table", "rewards.value_table",
                 "equilibria.min_incentivizing_contract", "core.cost",
                 "rewards.brute_force_demand", "objectives.evaluate",
                 "cli.load_instance", "hardness.hardness_demand"):
        out[f"{name}.share"] = share(stats[name].ns)
        out[f"{name}.calls"] = per_op(stats[name].calls)
    for name in ("solvers.iter_min_contracts", "equilibria.is_nash",
                 "equilibria.ne_from_demand", "rewards.demand_with_base",
                 "solvers.downsize", "solvers.gs_single_agent_exact",
                 "solvers.brute_force_opt"):
        out[f"{name}.share"] = share(stats[name].ns)
    out["solvers.build_dp_table.cells"] = per_op(
        stats["solvers.build_dp_table"].count)
    imc = stats["solvers.iter_min_contracts"]
    out["solvers.iter_min_contracts.yield_ratio"] = \
        imc.yields / imc.enumerated if imc.enumerated else 0.0
    sfptas = "solvers.single_agent_fptas"
    out[f"{sfptas}.self_share"] = share(
        stats[sfptas].ns - tracer.child_ns.get((sfptas, "rewards.value_table"), 0))
    # a solve op is the CLI around one solver call; a demand op has no CLI
    solver_ns = sum(stats[s].top_ns for s in SOLVERS)
    out["cli.self_share"] = \
        share(op_ns - solver_ns) if workload.kind == "solve" else 0.0
    out["rewards.value_queries"] = per_op(
        sum(json.loads(r[4])["valueQueries"] for r in records if r[3] == 0))
    hd = stats["hardness.hardness_demand"]
    out["hardness.hardness_demand.value_queries"] = \
        hd.count / hd.calls if hd.calls else 0.0
    out["trace.op_ms"] = op_ns / ops / 1e6
    out["trace.overhead_ratio"] = (statistics.median(r[2] for r in records)
                                   / statistics.median(r[1] for r in records))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workdir", type=Path, required=True,
                    help="new directory for the corpus files, removed at exit")
    ap.add_argument("--spawned-at", type=int, required=True,
                    help="time.time_ns() just before this process started")
    args = ap.parse_args(argv)

    try:
        import_program()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    from bench_workloads import WORKLOADS

    args.workdir.mkdir(parents=True)
    try:
        # kernel samples start with set-up: those taken while the corpus
        # is built and between warm-up ops scale the set-up time
        scale = bench_clock.Scale()
        workload = WORKLOADS[args.workload](args.seed, args.workdir,
                                            scale.maybe_sample)
        ops = workload.build()
        warm = {}
        for i, op in enumerate(workload.warmup(ops)):
            scale.sample()
            _, text = workload.run(op)
            warm[f"w{i}"] = digest(text)
        scale.sample()
        # CPU time since the process started, without the kernel's
        setup_cpu_ns = (bench_clock.clock() - bench_clock.KERNEL_BUILD_NS
                        - sum(scale.ns))
        setup_wall_s = (time.time_ns() - args.spawned_at) / 1e9
        setup_s = (setup_cpu_ns / 1e9 * bench_clock.REFERENCE_MS
                   / scale.median_ms())
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s,
                              "digests": warm}))
            return 0

        refs = json.loads(sys.stdin.read() or "[]")
        tracer = None
        if args.mode == "trace":
            from bench_trace import Tracer

            tracer = Tracer()
        t0 = time.perf_counter()
        if tracer:
            records = timed_loop(workload, ops, args.seconds, 1,
                                 MIN_TRACED_PAIRS, tracer)
        else:
            records = timed_loop(workload, ops, args.seconds,
                                 workload.passes, MIN_TIMED_OPS, scale=scale)
            for _ in range(bench_clock.WINDOW // 2):
                scale.sample()
        wall = time.perf_counter() - t0
        first = {}
        failed, nonzero, first_error = check_records(workload, ops, records,
                                                     first)
        # the warm-up ops count as ops too: their outputs must match those
        # of the set-up processes
        differ = [k for k, d in warm.items()
                  if any(ref.get(k, d) != d for ref in refs)]
        if differ and first_error is None:
            first_error = (f"warm-up op {differ[0]}: output differs from "
                           "another process's run of the same op")
        if first_error:
            print(f"perfbench: first failure: {first_error}", file=sys.stderr)
        checked = len(records) - failed
        if nonzero < NONZERO_FLOOR * checked:
            raise BenchError(
                f"degenerate corpus: only {nonzero} of {checked} "
                "checked ops have a non-zero result")
        result = {
            "attempted": len(records) + len(warm),
            "failed": failed + len(differ),
            "nonzero": nonzero,
            "checked": checked,
            "distinct_ops": len({r[0] for r in records}),
            "wall_s": wall,
            "setup_s": setup_s,
            "setup_wall_s": setup_wall_s,
            # every run of a seed covers these ops: equal digests across
            # runs or commits mean byte-identical outputs on them
            "output_digest": digest(json.dumps(
                [first.get(i) for i in range(MIN_TRACED_PAIRS)])),
        }
        if tracer is None:
            # each op's time is the median of its passes: with load divided
            # out by the scale, the fastest pass would be the one whose
            # scale was most overstated
            passes: dict[int, list[float]] = {}
            for idx, ns, *_, at in records:
                passes.setdefault(idx, []).append(ns / 1e6 * scale.factor(at))
            samples = [statistics.median(v) for v in passes.values()]
            p90, beyond = percentile_p90(samples)
            result["p90_beyond"] = beyond
            result["kernel_ms"] = scale.median_ms()
            result["kernel_samples"] = len(scale.ns)
            result["cpu_ms_p50"] = statistics.median(r[1] for r in records) / 1e6
            result["metrics"] = {
                "op_ms.p50": statistics.median(samples),
                "op_ms.p90": p90,
                # one client: each op starts when the previous one ends
                "ops_per_s": 1000 * len(samples) / sum(samples),
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                    - bench_clock.KERNEL_RSS_MB,
            }
        else:
            result["metrics"] = layer_metrics(workload, tracer, records)
        print(json.dumps(result))
        return 0
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
