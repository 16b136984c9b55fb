#!/usr/bin/env python3
"""Approximation-ratio sweep: additive FPTAS against the exact optimum.

Produces a CSV with one row per (instance, objective, eps) carrying both
values and the exact ratio optimum/solver as a rational, for plotting the
empirical distribution against the 1/(1-eps) certificate.

Usage: python scripts/run_approximation_sweep.py [--instances 100] [--out sweep.csv]
"""

import argparse
import sys
from fractions import Fraction

from budgetcontracts.cli import emit_report, ratio_of
from budgetcontracts.generators import random_additive_instance
from budgetcontracts.objectives import PROFIT, REWARD, WELFARE
from budgetcontracts.rewards import with_table
from budgetcontracts.solvers import additive_fptas, brute_force_opt

COLUMNS = ["seed", "objective", "budget", "eps", "solver_value", "opt_value",
           "ratio", "certificate"]
RATIONALS = ["budget", "eps", "solver_value", "opt_value", "ratio",
             "certificate"]
BUDGETS = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--instances", type=int, default=100)
    parser.add_argument("--seed", type=int, default=9000)
    parser.add_argument("--out", default="fptas_sweep.csv")
    args = parser.parse_args()

    rows = []
    for i in range(args.instances):
        seed = args.seed + i
        inst = random_additive_instance(seed)
        inst = with_table(inst)
        budget = BUDGETS[i % 4]
        for obj in (PROFIT, REWARD, WELFARE):
            opt = brute_force_opt(inst, budget, obj).value
            for eps in (Fraction(1, 4), Fraction(1, 10)):
                got = additive_fptas(inst, budget, eps, obj)
                rows.append({
                    "seed": seed, "objective": obj.kind, "budget": budget,
                    "eps": eps, "solver_value": got.value, "opt_value": opt,
                    "ratio": ratio_of(opt, got.value),
                    "certificate": 1 / (1 - eps),
                })
    text = emit_report(rows, COLUMNS, RATIONALS)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    ratios = [r["ratio"] for r in rows if r["ratio"] != ""]
    worst = max(ratios, default=Fraction(1))
    print(f"{len(rows)} rows -> {args.out}; worst observed ratio {float(worst):.4f}; "
          f"no finite ratio (solver 0, OPT > 0) on {len(rows) - len(ratios)} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
