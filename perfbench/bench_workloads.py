"""Seeded corpora and single operations for the benchmark workloads.

A workload turns ``--seed`` into a list of operations, written to instance
files (and, for ``hardness_demand``, price vectors) before timing starts.
The program sees only those inputs.  Operation ``k`` of a workload takes
its instance size, family, objective and budget from ``k`` in a fixed
rotation, so every run mixes them in the same proportions whatever the
seed; only the instances themselves change with the seed.  Every solve
operation gets an instance of its own: differences between instances are
the largest source of spread between seeds, and averaging over many
distinct instances is what keeps the medians steady.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

OBJECTIVES = ("profit", "reward", "welfare")
EPS = "1/10"
WARMUP_SEED = 0


class SolveOp:
    """One ``budgetcontracts solve`` call on one instance file."""

    __slots__ = ("path", "budget", "objective", "argv")

    def __init__(self, path: Path, budget: str, objective: str,
                 extra: tuple[str, ...] = ()):
        self.path = path
        self.budget = budget
        self.objective = objective
        self.argv = ["solve", "--instance", str(path), "--budget", budget,
                     "--eps", EPS, "--objective", objective, *extra]


class DemandOp:
    """One price vector answered on one hardness instance."""

    __slots__ = ("instance", "prices", "vector")

    def __init__(self, instance: int, prices: list[Fraction]):
        from budgetcontracts.rewards import PriceVector

        self.instance = instance
        self.prices = prices
        self.vector = PriceVector(dict(enumerate(prices)))


def _rng(seed: int, k: int) -> random.Random:
    return random.Random(seed * 1_000_003 + k)


def _write_doc(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc), encoding="utf-8")


def _actions(rng: random.Random, n: int, costs: list) -> list[dict]:
    return [{"id": a, "owner": rng.randrange(n), "cost": str(c)}
            for a, c in enumerate(costs)]


def size_stable_additive(rng: random.Random, n: int, m: int) -> dict:
    """Additive instance whose optimum stays away from zero as m grows.

    The library generator draws costs uniformly in [0, 1/2] while weights
    shrink like 1/m, so large instances have value 0.  Here each cost is
    its action's weight times a seeded factor below 1, so every action
    has positive welfare at any size.
    """
    raw = [rng.randint(1, 20) for _ in range(m)]
    scale = Fraction(rng.randint(1, 4), 4 * sum(raw))
    weights = [w * scale for w in raw]
    costs = [w * Fraction(rng.randint(1, 31), 32) for w in weights]
    return {"numAgents": n, "actions": _actions(rng, n, costs),
            "reward": {"type": "additive", "weights": [str(w) for w in weights]}}


def explicit_monotone(rng: random.Random, n: int, m: int) -> dict:
    """Random monotone table, like the library's explicit generator.

    Each subset's level is the largest level of its maximal proper subsets
    plus a random step in 0..4.  Levels stay integers until they are
    written as "level/top" strings, which keeps generating thousands of
    table entries cheap.
    """
    steps = rng.randbytes(1 << m)
    levels = [0] * (1 << m)
    for mask in range(1, 1 << m):
        floor = 0
        rest = mask
        while rest:
            low = rest & -rest
            if levels[mask ^ low] > floor:
                floor = levels[mask ^ low]
            rest ^= low
        levels[mask] = floor + steps[mask] % 5
    top = max(levels[-1], 1) + rng.randint(0, 3)
    costs = [Fraction(rng.randint(0, 32), 64) for _ in range(m)]
    values = [f"{v}/{top}" for v in levels]
    return {"numAgents": n, "actions": _actions(rng, n, costs),
            "reward": {"type": "explicit", "values": values}}


def oxs(rng: random.Random, n: int, m: int, cols: int) -> dict:
    """OXS instance like the library's, with the column count given.

    The library draws 1 to 3 columns at random, and the column count sets
    an op's cost more than anything else: at m = 10 an op takes about
    50 ms with one column and 220 ms with three.  A random count puts
    the 90th percentile between such clusters, where it moves by a third
    from seed to seed; a fixed count keeps it inside one cluster.
    """
    values = [[str(Fraction(rng.randint(0, 10), 10 * cols)) for _ in range(cols)]
              for _ in range(m)]
    costs = [Fraction(rng.randint(0, 32), 64) for _ in range(m)]
    return {"numAgents": n, "actions": _actions(rng, n, costs),
            "reward": {"type": "oxs", "values": values}}


def _library_doc(generator, seed: int, n: int, m: int) -> dict:
    from budgetcontracts.cli import serialize_instance

    return json.loads(serialize_instance(generator(seed, num_agents=n,
                                                   num_actions=m)))


def hardness_epsilon(n: int, budget: Fraction) -> Fraction:
    """Half the binding bound on eps for approximation target 1.

    The same rule the program applies when a descriptor omits eps; the
    benchmark writes eps explicitly so its checker knows the reward.
    """
    eps = min((1 - budget) / (n + 4), Fraction(4 * n) / budget,
              Fraction(1, n + 2)) / 2
    while eps * eps >= 2 * budget / n:
        eps /= 2
    return eps


class Workload:
    """Corpus layout and per-operation runner of one workload."""

    name = ""
    kind = "solve"
    corpus_size = 0
    warmup_ops = 0
    # ops per full turn of the rotation's leading factors; a run times a
    # whole number of turns, so every run has the same mix
    stride = 1
    # Each timed op runs once per pass, the passes seconds apart, and takes
    # the median of its scaled times.  Cheap ops afford more passes.
    passes = 3

    def __init__(self, seed: int, workdir: Path, tick=lambda: None):
        self.seed = seed
        self.workdir = workdir
        # called once per op built, so that the caller can take kernel
        # samples (bench_clock) while the corpus is generated
        self.tick = tick

    def build(self, count: int | None = None) -> list:
        raise NotImplementedError

    def warmup(self, ops: list) -> list:
        """Ops run before timing, the same for every seed: they come from
        a fixed seed, so that their share of the set-up time does not move
        with the seed."""
        workdir = self.workdir / "warmup"
        workdir.mkdir()
        return type(self)(WARMUP_SEED, workdir, self.tick).build(self.warmup_ops)

    def _solve_op(self, k: int, doc: dict, budget: str, objective: str,
                  extra: tuple[str, ...] = ()) -> SolveOp:
        path = self.workdir / f"op{k:05d}.json"
        _write_doc(path, doc)
        return SolveOp(path, budget, objective, extra)

    def run(self, op) -> tuple[int, str]:
        """Run one operation; return (exit code, output text)."""
        from budgetcontracts import cli

        out = io.StringIO()
        err = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
        return code, out.getvalue() if code == 0 else err.getvalue()


class FptasAdditive(Workload):
    """Additive FPTAS: n = 4, m rotating over 16/18/20, eps = 1/10."""

    name = "fptas_additive"
    corpus_size = 432
    warmup_ops = 3
    stride = 12
    # at about 90 ms an op, the first pass's 100 ops fill half a run
    passes = 2
    SIZES = (16, 18, 20)
    BUDGETS = ("1/4", "1/2", "3/4", "1")

    def build(self, count: int | None = None) -> list:
        ops = []
        for k in range(count or self.corpus_size):
            self.tick()
            doc = size_stable_additive(_rng(self.seed, k), 4,
                                       self.SIZES[k % 3])
            ops.append(self._solve_op(k, doc, self.BUDGETS[k // 3 % 4],
                                      OBJECTIVES[k // 12 % 3]))
        return ops


class ExactTables(Workload):
    """Brute force on n = 3, m = 12 tables; single-agent FPTAS at m = 11."""

    name = "exact_tables"
    corpus_size = 216
    warmup_ops = 4
    stride = 8
    # three quarters brute force (coverage and explicit), one quarter
    # the single-agent scheme on one-agent explicit tables.  Coverage ops
    # take about 25 ms and the others about 60 ms; with a quarter of
    # coverage ops the median lies inside the upper mode, away from its
    # steep lower edge, where it would move with the seed
    PATTERN = ("coverage", "explicit", "explicit", "single",
               "coverage", "explicit", "explicit", "single")
    BUDGETS = ("1/4", "1/2", "3/4", "1")

    def build(self, count: int | None = None) -> list:
        from budgetcontracts.generators import random_coverage_instance

        ops = []
        for k in range(count or self.corpus_size):
            self.tick()
            kind = self.PATTERN[k % 8]
            budget = self.BUDGETS[k // 8 % 4]
            rng = _rng(self.seed, k)
            if kind == "single":
                doc = explicit_monotone(rng, 1, 11)
                ops.append(self._solve_op(k, doc, budget, "profit",
                                          ("--force-solver", "single-fptas")))
                continue
            if kind == "coverage":
                doc = _library_doc(random_coverage_instance,
                                   rng.randrange(2 ** 30), 3, 12)
            else:
                doc = explicit_monotone(rng, 3, 12)
            ops.append(self._solve_op(k, doc, budget, OBJECTIVES[k // 32 % 3]))
        return ops


class GsPipeline(Workload):
    """Constant-factor pipeline on OXS (two columns), unit-demand and
    uniform-k rewards; n = 3, m rotating over 9/10."""

    name = "gs_pipeline"
    corpus_size = 540
    warmup_ops = 6
    stride = 18
    # instances differ more than passes do: one pass over three times as
    # many instances keeps the seed from moving the figures
    passes = 1
    SIZES = (9, 10)
    BUDGETS = ("1/4", "1/2", "3/4")

    def build(self, count: int | None = None) -> list:
        from budgetcontracts.generators import (
            random_uniform_k_instance,
            random_unit_demand_instance,
        )

        ops = []
        for k in range(count or self.corpus_size):
            self.tick()
            m = self.SIZES[k // 3 % 2]
            rng = _rng(self.seed, k)
            if k % 3 == 0:
                doc = oxs(rng, 3, m, 2)
            else:
                family = (random_unit_demand_instance,
                          random_uniform_k_instance)[k % 3 - 1]
                doc = _library_doc(family, rng.randrange(2 ** 30), 3, m)
            ops.append(self._solve_op(k, doc, self.BUDGETS[k // 6 % 3],
                                      OBJECTIVES[k // 18 % 3]))
        return ops


class HardnessDemand(Workload):
    """Hidden-set family at n = 8: twelve-query simulation vs table demand."""

    name = "hardness_demand"
    kind = "demand"
    corpus_size = 3000
    warmup_ops = 30
    stride = 3
    passes = 6
    N = 8
    BUDGETS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))

    def build(self, count: int | None = None) -> list:
        from budgetcontracts.cli import load_instance
        from budgetcontracts.rewards import value_table

        rng = _rng(self.seed, 0)
        self.specs = []
        self.instances = []
        self.tables = []
        for idx, budget in enumerate(self.BUDGETS):
            self.tick()
            spec = {"type": "hardness", "n": self.N, "budget": str(budget),
                    "eps": str(hardness_epsilon(self.N, budget)),
                    "hidden": sorted(rng.sample(range(self.N), self.N // 2))}
            path = self.workdir / f"hardness{idx}.json"
            _write_doc(path, {"reward": spec})
            inst = load_instance(str(path))
            self.specs.append(spec)
            self.instances.append(inst)
            self.tables.append(value_table(inst.oracle))
        ops = []
        for k in range(count or self.corpus_size):
            self.tick()
            prices = [Fraction(rng.randint(-8, 96), 64)
                      for _ in range(self.N + 2)]
            ops.append(DemandOp(k % len(self.BUDGETS), prices))
        return ops

    def warmup(self, ops: list) -> list:
        # price vectors are alike for every seed; the tables are filled
        return ops[:self.warmup_ops]

    def run(self, op) -> tuple[int, str]:
        from budgetcontracts import hardness, rewards

        oracle = self.instances[op.instance].oracle
        prices = op.vector
        vq = oracle.value_queries
        dq = oracle.demand_queries
        sim = hardness.hardness_demand(oracle, prices)
        brute = rewards.brute_force_demand(oracle, prices,
                                           table=self.tables[op.instance])
        return 0, json.dumps({"simulated": sorted(sim),
                              "exhaustive": sorted(brute),
                              "valueQueries": oracle.value_queries - vq,
                              "demandQueries": oracle.demand_queries - dq})


WORKLOADS = {w.name: w for w in (FptasAdditive, ExactTables, GsPipeline,
                                 HardnessDemand)}
