#!/usr/bin/env python3
"""Run the hidden-set adversarial experiment across instance sizes.

Writes one per-trial CSV per n and prints the aggregate summaries; the
random-guess baseline should land near 1 / (n choose n/2).

Usage: python scripts/run_hardness_experiment.py [--trials 500] [--out-dir out]
"""

import argparse
import json
import pathlib
import sys
from fractions import Fraction

from budgetcontracts.cli import main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trials", type=int, default=500)
    parser.add_argument("--budget", default="1/2")
    parser.add_argument("--query-budget", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default="hardness_out")
    args = parser.parse_args()
    if args.trials < 1:
        parser.error(f"--trials must be at least 1, got {args.trials}")

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for n in (4, 6, 8):
        csv_path = out_dir / f"experiment_n{n}.csv"
        summary_path = out_dir / f"summary_n{n}.json"
        code = cli_main([
            "hardness-experiment", "--n", str(n), "--budget", args.budget,
            "--trials", str(args.trials),
            "--query-budget", str(args.query_budget),
            "--seed", str(args.seed),
            "--out", str(csv_path), "--summary", str(summary_path),
        ])
        if code != 0:
            return code
        summary = json.loads(summary_path.read_text())
        rate = summary["successes"] / summary["trials"]
        print(f"n={n}: successes {summary['successes']}/{summary['trials']} "
              f"(rate {rate:.4f}, baseline "
              f"{float(Fraction(summary['baselineProb'])):.4f}) -> {csv_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
