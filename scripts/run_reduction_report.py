#!/usr/bin/env python3
"""Reduction-pipeline report on a gross-substitutes corpus.

For each instance: the constant-factor pipeline value, the exact optimum,
their exact ratio, and the decomposition terms (reward-bounded optimum and
best single-agent value) so the inequality
optimum <= 2 * reward_bounded + best_single can be eyeballed per row.

Usage: python scripts/run_reduction_report.py [--instances 50] [--out reduction.csv]
"""

import argparse
import sys
from fractions import Fraction

from budgetcontracts.cli import emit_report, ratio_of
from budgetcontracts.generators import (
    random_additive_instance,
    random_oxs_instance,
    random_uniform_k_instance,
    random_unit_demand_instance,
)
from budgetcontracts.objectives import PROFIT, REWARD, WELFARE
from budgetcontracts.rewards import with_table
from budgetcontracts.solvers import (
    brute_force_opt,
    gs_constant_factor,
    gs_single_agent_exact,
    max_reward_bounded_brute,
)

COLUMNS = ["seed", "family", "objective", "budget", "pipeline_value",
           "opt_value", "ratio", "reward_bounded", "best_single",
           "decomposition_holds"]
RATIONALS = ["budget", "pipeline_value", "opt_value", "ratio",
             "reward_bounded", "best_single"]
MAKERS = [("additive", random_additive_instance),
          ("unit_demand", random_unit_demand_instance),
          ("oxs", random_oxs_instance),
          ("uniform_k", random_uniform_k_instance)]
BUDGETS = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--instances", type=int, default=50)
    parser.add_argument("--seed", type=int, default=61000)
    parser.add_argument("--out", default="reduction.csv")
    args = parser.parse_args()

    rows = []
    objectives = [PROFIT, REWARD, WELFARE]
    for i in range(args.instances):
        family, maker = MAKERS[i % 4]
        seed = args.seed + i
        inst = maker(seed, num_agents=2 + i % 2, num_actions=3 + i % 5)
        inst = with_table(inst)
        budget = BUDGETS[i % 4]
        obj = objectives[i % 3]
        got = gs_constant_factor(inst, budget, obj)
        opt = brute_force_opt(inst, budget, obj).value
        mrb = max_reward_bounded_brute(inst, budget).value
        single = max(gs_single_agent_exact(inst, j, obj, budget).value
                     for j in range(inst.num_agents))
        rows.append({
            "seed": seed, "family": family, "objective": obj.kind,
            "budget": budget, "pipeline_value": got.value, "opt_value": opt,
            "ratio": ratio_of(opt, got.value),
            "reward_bounded": mrb, "best_single": single,
            "decomposition_holds": int(opt <= 2 * mrb + single),
        })
    text = emit_report(rows, COLUMNS, RATIONALS)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    ratios = [r["ratio"] for r in rows if r["ratio"] != ""]
    worst = max(ratios, default=Fraction(1))
    print(f"{len(rows)} rows -> {args.out}; worst ratio {float(worst):.4f}; "
          f"no finite ratio (solver 0, OPT > 0) on {len(rows) - len(ratios)} "
          f"rows; decomposition holds on all rows: "
          f"{all(r['decomposition_holds'] for r in rows)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
