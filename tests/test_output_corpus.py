"""Solver outputs pinned on a seeded corpus, one sha256 per (family, solver).

Each of 126 seeded instances (seven families in turn, n 1-4, m 3-9) is
solved by every solver that applies to it (the GS ones on the GS
families), at five budgets and four
objectives, and its minimal-contract walk is read too.  Each result becomes one canonical line: the
contract and value as exact rationals, the sorted profile, the factor and
the objective; its two query counts go on a line of their own.  The equilibrium checks run on the tabled instance, at each
budget's brute-force pair for profit and at three seeded draws of a
contract and a profile: one line holds the ``is_nash`` certificate, the
``nash_violator`` and ``is_nash_general`` verdicts, each agent's
exhaustive best response and the minimal incentivizing contract.  The
lines of one family and one solver hash to one digest in
``data/output_corpus.json``, so a failure names the solver that moved,
and a solver's query counts hash apart, to ``<family>/<solver>/queries``,
so a change that only saves queries moves that digest alone.  Two more
digests pin ``single_agent_fptas`` where the race's tie rule decides its
profile, on the one-agent instances: ``zero-cost/single-fptas`` with
every cost set to 0, at every budget, and ``zero-budget/single-fptas``
at B = 0 with every even action made free, so the set it returns need
not be empty; each has its ``/queries`` digest too.

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

from budgetcontracts.core import Action, Contract, Instance, format_rational
from budgetcontracts.equilibria import best_response, is_nash, \
    is_nash_general, iter_min_contracts, min_incentivizing_contract, \
    nash_violator
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


def _lines(solver: str, result):
    """(key, canonical line) of one result: its outputs under ``solver``,
    its query counts under ``solver/queries``."""
    yield solver, " ".join([*map(format_rational, result.contract.alpha), "|",
                            *map(str, sorted(result.profile)), "|",
                            format_rational(result.value),
                            str(result.factor), result.objective])
    yield f"{solver}/queries", \
        f"{result.value_queries} {result.demand_queries}"


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
            yield from _lines("brute", result)
            if obj is PROFIT:
                yield "equilibria", _checks(tabled, seed, result.contract,
                                            frozenset(result.profile))
            if gs:
                yield from _lines("gs-pipeline",
                                  gs_constant_factor(inst, budget, obj))
                for agent in range(inst.num_agents):
                    yield from _lines("gs-single", gs_single_agent_exact(
                        inst, agent, obj, budget))
            if additive and obj.kind != "combo":
                for eps in EPS:
                    yield from _lines("fptas", additive_fptas(
                        inst, budget, eps, obj))
        yield from _lines("reward-bounded",
                          max_reward_bounded_brute(inst, budget))
        for mask, tn, td, paid in iter_min_contracts(tabled, budget=budget):
            yield "walk", f"{mask} {tn}/{td} {paid}"
        if inst.num_agents == 1:
            for eps in EPS:
                yield from _lines("single-fptas",
                                  single_agent_fptas(inst, budget, eps))
    rng = random.Random(seed)
    for _ in range(3):
        alpha = Contract(tuple(F(rng.randint(0, 8), 8)
                               for _ in range(inst.num_agents)))
        profile = frozenset(a for a in range(inst.num_actions)
                            if rng.random() < 1 / 2)
        yield "equilibria", _checks(tabled, seed, alpha, profile)


def _costed(inst, cost):
    """``inst`` with each action's cost replaced by ``cost(action)``."""
    return Instance(inst.num_agents, tuple(
        Action(a.action_id, a.owner, cost(a)) for a in inst.actions),
        inst.oracle)


def _free_actions(inst):
    """(key, canonical line) for the single-agent scheme with every action,
    or at B = 0 every even one, free."""
    zero_cost = _costed(inst, lambda a: F(0))
    half_free = _costed(inst, lambda a: a.cost if a.action_id % 2 else F(0))
    for eps in EPS:
        for budget in BUDGETS:
            yield from _lines("zero-cost/single-fptas",
                              single_agent_fptas(zero_cost, budget, eps))
        yield from _lines("zero-budget/single-fptas",
                          single_agent_fptas(half_free, F(0), eps))


def digests() -> dict[str, str]:
    lines = defaultdict(list)
    for seed, (family, inst) in enumerate(_corpus()):
        for solver, line in _results(inst, seed):
            lines[f"{family}/{solver}"].append(line)
        if inst.num_agents == 1:
            for key, line in _free_actions(inst):
                lines[key].append(line)
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
