"""Solver outputs pinned on a seeded corpus, one sha256 per (family, solver).

Each of 126 seeded instances (seven families in turn, n 1-4, m 3-9) is
solved by every solver that applies to it (the GS ones on the GS
families), at five budgets and four
objectives, and its minimal-contract walk and (for one agent) its upper
envelope are read too.  Each result becomes one canonical line: the
contract and value as exact rationals, the sorted profile and both query
counts.  The equilibrium checks run on the tabled instance, at each
budget's brute-force pair for profit and at three seeded draws of a
contract and a profile: one line holds the ``is_nash`` certificate, the
``nash_violator`` and ``is_nash_general`` verdicts, each agent's
exhaustive best response and the minimal incentivizing contract.  The
lines of one family and one solver hash to one digest in
``data/output_corpus.json``, so a failure names the solver that moved.

A change that moves an output on purpose re-records the file with
``python tests/test_output_corpus.py --record`` (``src`` on the path)
and lists each moved digest, with its reason, in CHANGES.md.
"""

import hashlib
import json
import random
import sys
from collections import defaultdict
from fractions import Fraction as F
from pathlib import Path

from budgetcontracts.core import Contract, format_rational
from budgetcontracts.equilibria import best_response, is_nash, \
    is_nash_general, iter_min_contracts, min_incentivizing_contract, \
    nash_violator, single_agent_hull
from budgetcontracts.generators import (
    random_additive_instance,
    random_coverage_instance,
    random_explicit_monotone_instance,
    random_general_contract,
    random_oxs_instance,
    random_uniform_k_instance,
    random_unit_demand_instance,
)
from budgetcontracts.hardness import HardnessParams, build_hardness
from budgetcontracts.objectives import PROFIT, REWARD, WELFARE, combo
from budgetcontracts.rewards import with_table
from budgetcontracts.solvers import additive_fptas, brute_force_opt, \
    gs_constant_factor, gs_single_agent_exact, max_reward_bounded_brute, \
    single_agent_fptas

RECORDED = Path(__file__).parent / "data" / "output_corpus.json"

FAMILIES = {
    "additive": random_additive_instance,
    "unit_demand": random_unit_demand_instance,
    "uniform_k": random_uniform_k_instance,
    "oxs": random_oxs_instance,
    "coverage": random_coverage_instance,
    "explicit": random_explicit_monotone_instance,
    "hardness": lambda seed, num_agents, num_actions: build_hardness(
        HardnessParams.make(2 + 2 * (seed % 2), F(1, 2), seed=seed)),
}
INSTANCES = 126
BUDGETS = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
OBJECTIVES = (PROFIT, REWARD, WELFARE,
              combo((F(1, 3), PROFIT), (F(2, 3), WELFARE)))
EPS = (F(1, 4), F(1, 10))


def _corpus():
    """(family, instance) for each seed: the families in turn, and the
    j-th instance of a family with n = 1 + j % 4 agents on m = 3 + j % 7
    actions."""
    names = list(FAMILIES)
    for seed in range(INSTANCES):
        family, j = names[seed % len(names)], seed // len(names)
        yield family, FAMILIES[family](seed, num_agents=1 + j % 4,
                                       num_actions=3 + j % 7)


def _line(result) -> str:
    return " ".join([*map(format_rational, result.contract.alpha), "|",
                     *map(str, sorted(result.profile)), "|",
                     format_rational(result.value),
                     str(result.factor), result.objective,
                     str(result.value_queries), str(result.demand_queries)])


def _rationals(values) -> str:
    return " ".join(map(format_rational, values))


def _checks(inst, seed: int, alpha: Contract, profile) -> str:
    """Every equilibrium check of (alpha, profile) on one line."""
    cert = is_nash(inst, alpha, profile)
    general = random_general_contract(seed, inst.num_agents)
    responses = [sorted(best_response(inst, i, alpha[i],
                                      profile - inst.agent_actions[i],
                                      gs=False))
                 for i in range(inst.num_agents)]
    mic = min_incentivizing_contract(inst, profile)
    return " | ".join([
        _rationals(alpha.alpha), str(sorted(profile)), str(cert.ok),
        _rationals(cert.utilities),
        str([(sorted(d), format_rational(u))
             for d, u in cert.best_deviations]),
        str(cert.violator), str(nash_violator(inst, alpha, profile)),
        str(is_nash_general(inst, general, profile)), str(responses),
        "None" if mic is None else _rationals(mic.alpha)])


def _results(inst, seed: int):
    """(solver, canonical line) for every result on one instance."""
    gs, additive = inst.oracle.is_gs_class, \
        inst.oracle.function_class == "additive"
    tabled = with_table(inst)
    for budget in BUDGETS:
        for obj in OBJECTIVES:
            result = brute_force_opt(inst, budget, obj)
            yield "brute", _line(result)
            if obj is PROFIT:
                yield "equilibria", _checks(tabled, seed, result.contract,
                                            frozenset(result.profile))
            if gs:
                yield "gs-pipeline", _line(gs_constant_factor(inst, budget, obj))
                for agent in range(inst.num_agents):
                    yield "gs-single", _line(
                        gs_single_agent_exact(inst, agent, obj, budget))
            if additive and obj.kind != "combo":
                for eps in EPS:
                    yield "fptas", _line(additive_fptas(inst, budget, eps, obj))
        yield "reward-bounded", _line(max_reward_bounded_brute(inst, budget))
        for mask, tn, td, paid in iter_min_contracts(tabled, budget=budget):
            yield "walk", f"{mask} {tn}/{td} {paid}"
        if inst.num_agents == 1:
            for eps in EPS:
                yield "single-fptas", _line(single_agent_fptas(inst, budget, eps))
            hull, breaks = single_agent_hull(tabled, budget)
            yield "hull", f"{hull} {list(map(format_rational, breaks))}"
    rng = random.Random(seed)
    for _ in range(3):
        alpha = Contract(tuple(F(rng.randint(0, 8), 8)
                               for _ in range(inst.num_agents)))
        profile = frozenset(a for a in range(inst.num_actions)
                            if rng.random() < 1 / 2)
        yield "equilibria", _checks(tabled, seed, alpha, profile)


def digests() -> dict[str, str]:
    lines = defaultdict(list)
    for seed, (family, inst) in enumerate(_corpus()):
        for solver, line in _results(inst, seed):
            lines[f"{family}/{solver}"].append(line)
    return {key: hashlib.sha256("\n".join(lines[key]).encode()).hexdigest()
            for key in sorted(lines)}


def test_solver_outputs_match_the_recorded_digests():
    recorded = json.loads(RECORDED.read_text())
    got = digests()
    moved = sorted(k for k in recorded.keys() | got.keys()
                   if recorded.get(k) != got.get(k))
    assert moved == []


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    RECORDED.write_text(json.dumps(digests(), indent=2) + "\n")
