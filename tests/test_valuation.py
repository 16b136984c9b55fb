"""One valuation per instance: an instance that carries its value table and
the same instance without one give the same answers, and only the lazy one
spends value queries after the fill."""

import dataclasses
import json
import operator
import random
from fractions import Fraction as F

import pytest

from budgetcontracts.core import Contract, Instance, ModelError, \
    UnknownActionIdError
from budgetcontracts.cli import load_instance, parse_instance
from budgetcontracts.equilibria import best_response, double_contract, \
    is_nash, is_nash_general, iter_min_contracts, \
    min_incentivizing_contract, ne_from_demand, single_agent_hull
from budgetcontracts.generators import random_additive_instance, \
    random_coverage_instance, random_explicit_monotone_instance, \
    random_general_contract, random_oxs_instance, random_uniform_k_instance, \
    random_unit_demand_instance
from budgetcontracts.hardness import HardnessParams, build_hardness
from budgetcontracts.objectives import PROFIT, REWARD, WELFARE, combo, \
    evaluate, verify_best_properties
from budgetcontracts.rewards import with_table
from budgetcontracts.solvers import SolveResult, _PrefixLayout, \
    additive_fptas, \
    brute_force_opt, build_dp_table, downsize, gs_constant_factor, \
    gs_single_agent_exact, max_reward_bounded_brute, \
    single_agent_fptas

from contract_pairs import contract_pairs

MAKERS = (random_additive_instance, random_unit_demand_instance,
          random_uniform_k_instance, random_oxs_instance,
          random_coverage_instance, random_explicit_monotone_instance)


def _instances():
    """Small random instances of every family, the hidden-set one too."""
    rng = random.Random(83)
    for maker in MAKERS:
        for _ in range(2):
            yield maker(rng.randint(0, 10 ** 6), num_agents=rng.randint(1, 3),
                        num_actions=rng.randint(2, 4))
    yield build_hardness(HardnessParams.make(2, F(1, 2), seed=5))


def _outcome(result):
    """A solver result without its query counts, which differ by design."""
    if isinstance(result, SolveResult):
        return dataclasses.replace(result, value_queries=0, demand_queries=0)
    return result


def _calls(inst, rng):
    """(name, call) for every function that reads f through the instance."""
    n, m = inst.num_agents, inst.num_actions
    alpha = Contract(tuple(F(rng.randint(0, 4), 8) for _ in range(n)))
    profile = frozenset(a for a in range(m) if rng.random() < 0.5)
    general = random_general_contract(rng.randint(0, 10 ** 6), n)
    budget = F(rng.randint(1, 4), 4)
    rest = profile - inst.agent_actions[0]

    def downsized(i):
        pair = brute_force_opt(i, budget, REWARD)
        return downsize(i, 6, pair.contract, pair.profile)

    calls = [
        ("best_response", lambda i: best_response(i, 0, F(1, 2), rest)),
        ("best_response exhaustive",
         lambda i: best_response(i, 0, F(1, 2), rest, gs=False)),
        ("is_nash", lambda i: is_nash(i, alpha, profile)),
        ("ne_from_demand", lambda i: ne_from_demand(i, alpha)),
        ("double_contract", lambda i: double_contract(i, alpha, F(1, 16))),
        ("min_incentivizing_contract",
         lambda i: min_incentivizing_contract(i, profile)),
        ("is_nash_general", lambda i: is_nash_general(i, general, profile)),
        ("evaluate", lambda i: [evaluate(o, i, alpha, profile)
                                for o in (PROFIT, REWARD, WELFARE)]),
        ("brute_force_opt", lambda i: brute_force_opt(i, budget, WELFARE)),
        ("max_reward_bounded_brute",
         lambda i: max_reward_bounded_brute(i, budget)),
        ("gs_single_agent_exact",
         lambda i: gs_single_agent_exact(i, 0, PROFIT, budget)),
        ("build_dp_table", lambda i: build_dp_table(
            _PrefixLayout.build(i, "f", F(1, 4), None), F(1, 2))),
        ("downsize", downsized),
    ]
    if m <= 4:
        calls.append(("verify_best_properties",
                      lambda i: verify_best_properties(PROFIT, i, denominator=4)))
    if inst.oracle.function_class == "additive":
        calls.append(("additive_fptas",
                      lambda i: additive_fptas(i, budget, F(1, 4), PROFIT)))
    if inst.oracle.is_gs_class:
        calls.append(("gs_constant_factor",
                      lambda i: gs_constant_factor(i, budget, REWARD)))
    if n == 1:
        calls.append(("single_agent_fptas",
                      lambda i: single_agent_fptas(i, budget, F(1, 4))))
    return calls


def test_tabled_and_lazy_instances_agree():
    rng = random.Random(89)
    seen = set()
    for inst in _instances():
        tabled = with_table(inst)
        for name, call in _calls(inst, rng):
            seen.add(name)
            lazy_answer = call(inst)
            before = inst.oracle.value_queries
            assert _outcome(call(tabled)) == _outcome(lazy_answer), name
            assert inst.oracle.value_queries == before, name  # nothing read
    assert {"additive_fptas", "gs_constant_factor", "single_agent_fptas",
            "verify_best_properties"} <= seen


def test_lazy_instance_keeps_its_documented_query_counts():
    rng = random.Random(97)
    for inst in _instances():
        oracle = inst.oracle
        walk = sum(1 << len(own) for own in inst.agent_actions)
        for _ in range(4):
            alpha = Contract(tuple(F(rng.randint(0, 4), 8)
                                   for _ in range(inst.num_agents)))
            profile = frozenset(a for a in range(inst.num_actions)
                                if rng.random() < 0.5)
            before = oracle.value_queries
            is_nash(inst, alpha, profile)
            # f(S), then each agent's deviations but S_i
            assert oracle.value_queries - before == 1 + walk - inst.num_agents
            # f(S), then each agent's deviations but S_i until a failure
            before = oracle.value_queries
            got = min_incentivizing_contract(inst, profile)
            spent = oracle.value_queries - before
            full = 1 + walk - inst.num_agents
            assert spent == full if got is not None else spent <= full
        if oracle.function_class == "additive":
            scales = {oracle.weights[a] for a in range(inst.num_actions)
                      if oracle.weights[a] > 0}
            before = oracle.value_queries
            additive_fptas(inst, F(1, 2), F(1, 4), REWARD)
            assert oracle.value_queries - before == \
                inst.num_actions + 1 + len(scales)


def test_with_table_fills_once():
    inst = random_unit_demand_instance(7, num_agents=2, num_actions=5)
    assert inst.table is None and inst.f is inst.oracle
    tabled = with_table(inst)
    assert inst.oracle.value_queries == 1 << 5
    assert with_table(tabled) is tabled
    assert inst.oracle.value_queries == 1 << 5
    assert type(tabled.table) is list and tabled.f is tabled.f  # made once
    assert tabled.f == [F(k, inst.oracle.den) for k in tabled.table]
    assert tabled == inst  # the table is a cache, not part of the instance


def test_with_table_copies_the_checked_instance(monkeypatch):
    inst = random_coverage_instance(9, num_agents=3, num_actions=6)
    caches = (inst.int_costs, inst.agent_cost_sums, inst.agent_cost_runs)
    assert inst.f is inst.oracle  # the counted view, read before tabling
    built = []
    check = Instance.__post_init__

    def counting(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(Instance, "__post_init__", counting)
    dataclasses.replace(inst)  # the patch sees a build
    assert len(built) == 1
    tabled = with_table(inst)
    assert len(built) == 1  # checked when built: tabling checks nothing
    assert (tabled.int_costs, tabled.agent_cost_sums,
            tabled.agent_cost_runs) == caches
    assert all(map(operator.is_, (tabled.int_costs, tabled.agent_cost_sums,
                                  tabled.agent_cost_runs), caches))
    before = inst.oracle.value_queries
    assert tabled.f == [F(k, inst.oracle.den) for k in tabled.table]
    assert inst.oracle.value_queries == before  # the table, not the oracle
    assert inst.table is None and inst.f is inst.oracle  # inst is as it was
    assert tabled == inst


def _oxs_document(columns: int) -> str:
    rows = [[f"{(a + c) % 3}/{9 * columns}" for c in range(columns)]
            for a in range(5)]
    return json.dumps({
        "numAgents": 2,
        "actions": [{"id": a, "owner": a % 2, "cost": f"{a}/16"}
                    for a in range(5)],
        "reward": {"type": "oxs", "values": rows}})


RECORD_SOURCES = {
    **{kind: f"gen:{kind}:seed=4,agents=2,actions=5"
       for kind in ("additive", "unit_demand", "uniform_k", "oxs", "coverage",
                    "explicit")},
    "oxs-four-columns": _oxs_document(4),
    "hardness": json.dumps({"reward": {"type": "hardness", "n": 4,
                                       "budget": "1/2", "hidden": [1, 2]}}),
}


@pytest.mark.parametrize("family", sorted(RECORD_SOURCES))
def test_with_table_fills_one_record_per_instance(family):
    source = RECORD_SOURCES[family]
    inst = (load_instance(source) if source.startswith("gen:")
            else parse_instance(source))
    m = inst.num_actions
    before = inst.oracle.value_queries
    tabled = with_table(inst)
    table = tabled.table
    assert type(table) is list and all(type(k) is int for k in table)
    assert inst.oracle.value_queries - before == 1 << m
    assert table == [inst.oracle._int(mask) for mask in range(1 << m)]
    assert all(tabled.f[mask] == F(table[mask], inst.oracle.den)
               for mask in range(1 << m))
    assert with_table(tabled) is tabled and with_table(tabled).table is table
    assert inst.oracle.value_queries - before == 1 << m


FIVE_OBJECTIVES = (PROFIT, REWARD, WELFARE,
                   combo((F(1, 2), PROFIT), (F(1, 2), REWARD)),
                   combo((F(1, 4), PROFIT), (F(1, 4), REWARD),
                         (F(1, 2), WELFARE)))


@pytest.mark.parametrize("family", sorted(RECORD_SOURCES))
def test_solver_stages_never_build_the_fraction_view(family):
    # the stages, evaluate and the BEST verifier compare f on the table's
    # ints; Instance.f is the Fraction view, made on first use, which none
    # of them asks for
    source = RECORD_SOURCES[family]
    inst = (load_instance(source) if source.startswith("gen:")
            else parse_instance(source))
    one = dataclasses.replace(inst, num_agents=1, actions=tuple(
        dataclasses.replace(a, owner=0) for a in inst.actions))
    tabled, one = with_table(inst), with_table(one)
    for budget in (F(0), F(1, 3), F(1)):
        for obj in (PROFIT, REWARD, WELFARE):
            brute_force_opt(tabled, budget, obj)
            gs_single_agent_exact(tabled, 0, obj, budget)
        max_reward_bounded_brute(tabled, budget)
        single_agent_fptas(one, budget, F(1, 4))
    alpha = Contract(tuple(F(i + 1, 4 * inst.num_agents)
                           for i in range(inst.num_agents)))
    for obj in FIVE_OBJECTIVES:
        for profile in (frozenset(), frozenset({0, 1}), inst.ground_set):
            evaluate(obj, tabled, alpha, profile)
    verify_best_properties(FIVE_OBJECTIVES[-1], tabled, denominator=2)
    assert "f" not in tabled.__dict__ and "f" not in one.__dict__


def test_gap_verifier_never_builds_the_fraction_view(monkeypatch):
    import budgetcontracts.hardness as hardness

    filled = []

    def keep(inst):
        filled.append(with_table(inst))
        return filled[-1]

    monkeypatch.setattr(hardness, "with_table", keep)
    assert hardness.verify_gap_exhaustive(
        HardnessParams.make(4, F(1, 2), seed=3)).ok
    assert len(filled) == 1 and "f" not in filled[0].__dict__


def test_hardness_min_contracts_agree_with_the_per_profile_algebra():
    # the hidden-set family fills its table one subset at a time
    inst = with_table(build_hardness(HardnessParams.make(4, F(1, 2), seed=3)))
    fast = dict(contract_pairs(inst))
    for mask in range(1 << inst.num_actions):
        profile = {a for a in range(inst.num_actions) if mask >> a & 1}
        assert fast.get(mask) == min_incentivizing_contract(inst, profile)
    assert any(alpha.total() > 0 for alpha in fast.values())


def test_table_readers_refuse_a_lazy_instance():
    inst = random_additive_instance(3, num_agents=1, num_actions=3)
    for call in (lambda: list(iter_min_contracts(inst)),
                 lambda: single_agent_hull(inst)):
        with pytest.raises(ModelError):
            call()
    assert inst.oracle.value_queries == 0


# -- profiles with an action outside the ground set ----------------------------

SOURCE = "gen:explicit:seed=1,agents=2,actions=3"
PAY = Contract((F(1, 2), F(1, 2)))

PROFILE_ENTRY_POINTS = {
    "evaluate": lambda inst, s: evaluate(PROFIT, inst, PAY, s),
    "is_nash": lambda inst, s: is_nash(inst, PAY, s),
    "min_incentivizing_contract":
        lambda inst, s: min_incentivizing_contract(inst, s),
    "is_nash_general": lambda inst, s: is_nash_general(
        inst, random_general_contract(1, 2), s),
    "best_response": lambda inst, s: best_response(
        inst, 0, F(1, 2), s - inst.agent_actions[0], gs=False),
    "downsize": lambda inst, s: downsize(inst, 6, PAY, s),
}


@pytest.mark.parametrize("tabled", (False, True), ids=("lazy", "tabled"))
@pytest.mark.parametrize("bad", ("m", -1))
@pytest.mark.parametrize("entry", sorted(PROFILE_ENTRY_POINTS))
def test_profile_outside_the_ground_set_is_one_error(entry, bad, tabled):
    inst = load_instance(SOURCE)
    if tabled:
        inst = with_table(inst)
    bad_id = inst.num_actions if bad == "m" else bad
    before = inst.oracle.value_queries
    with pytest.raises(UnknownActionIdError, match=f"action {bad_id} "):
        PROFILE_ENTRY_POINTS[entry](inst, frozenset({0, bad_id}))
    assert inst.oracle.value_queries == before
