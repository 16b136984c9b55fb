import dataclasses
import itertools
import math
import random
from fractions import Fraction as F

import pytest

from budgetcontracts.core import Contract, ModelError, validate_instance
from budgetcontracts.equilibria import is_nash
from budgetcontracts.hardness import (
    BadHiddenSetSizeError,
    HardnessOracle,
    HardnessParams,
    InvalidEpsilonError,
    OddNError,
    OracleView,
    QueryBudgetExceededError,
    _pair_for_guess,
    adversary_experiment,
    bad_action,
    build_hardness,
    default_epsilon,
    good_action,
    good_contract,
    hardness_demand,
    make_random_guess_solver,
    verify_gap_exhaustive,
)
from budgetcontracts.objectives import PROFIT, evaluate
from budgetcontracts.rewards import PriceVector, brute_force_demand, set_to_mask, \
    with_table


def params4(eps=None, budget=F(1, 2)):
    return HardnessParams.make(4, budget, F(1), eps, hidden=(0, 1))


# -- construction ----------------------------------------------------------------


def test_costs_follow_formulas():
    n, budget, eps = 4, F(1, 2), F(1, 100)
    inst = build_hardness(HardnessParams(n, budget, F(1), eps, frozenset({0, 1})))
    for i in range(n):
        assert inst.cost_of[i] == eps ** 3
    assert inst.cost_of[bad_action(n)] == F(3, 2) * eps * budget
    assert inst.cost_of[good_action(n)] == F(1, 2) * (budget - 2 * eps ** 2)
    validate_instance(inst)


def test_value_hidden_plus_bad():
    # f1 = eps, f2 = eps (n/2 + 1), penalty eps/2: total (n/2 + 3/2) eps
    params = params4()
    inst = build_hardness(params)
    eps, n = params.eps, 4
    got = inst.oracle.value(frozenset({0, 1, bad_action(n)}))
    assert got == (F(n, 2) + F(3, 2)) * eps


def test_value_everything_stays_in_range():
    params = params4()
    inst = build_hardness(params)
    eps, n = params.eps, 4
    full = frozenset(range(n + 2))
    assert inst.oracle.value(full) == F(1, 2) + (F(n, 2) + 1) * eps
    assert inst.oracle.value(full) <= 1


def test_parameter_validation():
    with pytest.raises(OddNError):
        HardnessParams(3, F(1, 2), F(1), F(1, 100), frozenset({0}))
    with pytest.raises(BadHiddenSetSizeError):
        HardnessParams(4, F(1, 2), F(1), F(1, 100), frozenset({0}))
    with pytest.raises(InvalidEpsilonError):
        HardnessParams(4, F(1, 2), F(1), F(1, 4), frozenset({0, 1}))


def test_default_epsilon_satisfies_all_bounds():
    for n in (4, 6, 8, 10):
        for budget in (F(1, 4), F(1, 2), F(3, 4), F(9, 10)):
            for target in (F(1), F(2), F(10)):
                eps = default_epsilon(n, budget, target)
                HardnessParams(n, budget, target, eps,
                               frozenset(range(n // 2)))  # validates


# -- demand simulation -----------------------------------------------------------


def test_hardness_demand_high_prices_empty():
    inst = build_hardness(params4())
    pv = PriceVector.of({a: F(2) for a in range(6)})
    assert hardness_demand(inst.oracle, pv) == frozenset()


def test_hardness_demand_negative_on_revealing_set():
    params = params4()
    inst = build_hardness(params)
    prices = {a: F(2) for a in range(6)}
    for a in (0, 1, bad_action(4)):
        prices[a] = F(-1)
    pv = PriceVector.of(prices)
    inst = with_table(inst)
    table = inst.f
    sim = hardness_demand(inst.oracle, pv)
    brute = brute_force_demand(inst.oracle, pv, table=table)
    u = lambda s: table[sum(1 << a for a in s)] - pv.total(s)
    assert u(sim) == u(brute)


@pytest.mark.parametrize("n,budget", [(4, F(1, 2)), (6, F(1, 4))])
def test_hardness_demand_matches_brute_force(n, budget):
    params = HardnessParams.make(n, budget, hidden=range(n // 2))
    inst = build_hardness(params)
    inst = with_table(inst)
    table = inst.f
    rng = random.Random(100 + n)
    for _ in range(150):
        pv = PriceVector.of({a: F(rng.randint(-4, 80), 64)
                             for a in range(n + 2)})
        sim = hardness_demand(inst.oracle, pv)
        brute = brute_force_demand(inst.oracle, pv, table=table)
        u = lambda s: table[sum(1 << a for a in s)] - pv.total(s)
        assert u(sim) == u(brute), pv.prices


@pytest.mark.parametrize("missing", [(2,), (4,), (5,), (4, 5), (5, 1)],
                         ids=["unit", "bad", "good", "bad-and-good",
                              "good-and-unit"])
def test_hardness_demand_refuses_an_unpriced_action_as_brute_force(missing):
    # one rule for the price vector: the first action neither priced nor
    # excluded, in id order, is named
    oracle = build_hardness(params4()).oracle
    for excluded in ((), (3,)):
        pv = PriceVector.of({a: F(1, 8) for a in range(6) if a not in missing},
                            excluded)
        errors = []
        for demand in (hardness_demand, brute_force_demand):
            with pytest.raises(ModelError) as err:
                demand(oracle, pv)
            errors.append((type(err.value), str(err.value)))
        assert errors[0] == errors[1] == (
            ModelError, f"action {min(missing)} neither priced nor excluded")


def test_hardness_demand_falls_back_when_very_negative():
    # more than n/2 + 1 negative unit prices: the prefix recipe would
    # under-buy, so the oracle buys every negative unit instead
    params = params4()
    inst = build_hardness(params)
    pv = PriceVector.of({a: F(-1) for a in range(6)})
    got = hardness_demand(inst.oracle, pv)
    assert got == frozenset(range(6))


def test_very_negative_demand_is_brute_force_demand_at_every_n():
    # the same set as brute force, tie rule included: zero-priced and
    # equally priced units, excluded items, and special prices at their
    # ties (bad at 0 or eps, good at 0 or 1/2)
    rng = random.Random(21)
    for n in range(4, 17, 2):
        params = HardnessParams.make(n, F(1, 2), seed=n)
        inst = with_table(build_hardness(params))
        bad, good = bad_action(n), good_action(n)
        for trial in range(1 if n >= 14 else 16):
            negative = rng.sample(range(n), rng.randint(n // 2 + 2, n))
            prices = {a: F(rng.choice((0, 0, 1, 3)), 8) for a in range(n)}
            prices.update({a: F(rng.choice((-2, -1, -1)), 8) for a in negative})
            prices[bad] = rng.choice((F(0), params.eps, F(-1, 8), F(1, 8)))
            prices[good] = rng.choice((F(1, 2), F(0), F(1, 4), F(1)))
            free = [a for a in prices if a not in negative]
            excluded = rng.sample(free, rng.randint(0, min(2, len(free))))
            pv = PriceVector.of(prices, excluded)
            before = inst.oracle.value_queries
            got = hardness_demand(inst.oracle, pv)
            assert inst.oracle.value_queries - before <= 8
            assert got == brute_force_demand(inst.oracle, pv, table=inst.f), \
                (n, trial)


def test_very_negative_demand_at_n_30_returns_a_set():
    params = HardnessParams.make(30, F(1, 2), seed=3)
    oracle = HardnessOracle(params.n, params.eps, params.hidden)
    view = OracleView(oracle, query_budget=1)
    got = view.demand(PriceVector.of({a: F(-1) for a in range(32)}))
    assert got == frozenset(range(32))


# -- the good pair and the gap ----------------------------------------------------


def test_good_contract_exhausts_budget_and_is_nash():
    for budget in (F(1, 4), F(1, 2)):
        params = params4(budget=budget)
        inst = build_hardness(params)
        alpha, profile = good_contract(params)
        assert alpha.total() == budget
        assert profile == frozenset({0, 1, good_action(4)})
        assert is_nash(inst, alpha, profile).ok
        assert inst.oracle.value(profile) >= F(1, 2)
        assert evaluate(PROFIT, inst, alpha, profile) >= (1 - budget) / 2


def test_gap_report_n4():
    eps = F(1, 100)
    params = HardnessParams(4, F(1, 2), F(1), eps, frozenset({0, 1}))
    report = verify_gap_exhaustive(params)
    assert report.ok
    assert report.bound == 4 * eps
    assert report.gap_ratio == F(1, 4) / (4 * eps) == F(25, 4)
    assert report.max_other_value <= report.bound
    assert report.feasible_profiles > 0


def test_gap_hidden_plus_bad_profile():
    # the revealing profile sits below the gap bound; it is not even
    # incentivizable: keeping the bad action worthwhile against quitting
    # needs the whole budget, while the good-action deviation caps the
    # special agent's payment strictly below it
    params = params4()
    inst = build_hardness(params)
    from budgetcontracts.equilibria import min_incentivizing_contract

    profile = frozenset({0, 1, bad_action(4)})
    alpha = min_incentivizing_contract(inst, profile)
    assert alpha is None
    assert inst.oracle.value(profile) == (F(4, 2) + F(3, 2)) * params.eps
    assert inst.oracle.value(profile) <= (F(4, 2) + 2) * params.eps


def test_gap_good_action_alone_not_affordable():
    # the bad-action deviation pushes the lone good action's price past B
    params = params4()
    inst = build_hardness(params)
    from budgetcontracts.equilibria import min_incentivizing_contract

    alpha = min_incentivizing_contract(inst, frozenset({good_action(4)}))
    assert alpha is None or alpha.total() > params.budget


# -- indistinguishability ----------------------------------------------------------


def _indistinguishable(oracle, queries):
    """Every query but a revealing one sees the penalty-free value."""
    return all(oracle._reveals(mask) or oracle._int(mask) == oracle._base_int(mask)
               for mask in map(set_to_mask, queries))


def test_indistinguishability_avoiding_queries():
    params = params4()
    oracle = HardnessOracle(4, params.eps, params.hidden)
    queries = [frozenset(), frozenset({2, 3}), frozenset({0, good_action(4)}),
               frozenset({0, 1, 2, bad_action(4)})]
    assert _indistinguishable(oracle, queries)


def test_indistinguishability_exact_difference():
    params = params4()
    oracle = HardnessOracle(4, params.eps, params.hidden)
    revealing = frozenset({0, 1, bad_action(4)})
    assert oracle._base_value(set_to_mask(revealing)) - oracle.value(revealing) \
        == params.eps / 2
    assert _indistinguishable(oracle, [])
    assert _indistinguishable(oracle, [revealing])  # exempted set


def test_indistinguishability_exhaustive_small():
    params = params4()
    oracle = HardnessOracle(4, params.eps, params.hidden)
    all_sets = [frozenset(c) for r in range(7)
                for c in itertools.combinations(range(6), r)]
    assert _indistinguishable(oracle, all_sets)
    differing = [s for s in all_sets
                 if oracle.value(s) != oracle._base_value(set_to_mask(s))]
    assert differing == sorted(
        [frozenset({0, 1, 4}), frozenset({0, 1, 4, 5})], key=sorted)


# -- experiment harness -------------------------------------------------------------


def test_oracle_view_budget_enforced():
    inst = build_hardness(params4())
    view = OracleView(inst.oracle, query_budget=3)
    view.value({0})
    view.value({1})
    view.demand(PriceVector.of({a: F(2) for a in range(6)}))
    with pytest.raises(QueryBudgetExceededError):
        view.value({2})
    assert view.issued == 3


def _value_prober(view, pub):
    """Read f(H + bad) for every candidate H and take the lowest: the
    revealing query is the one that sees the penalty."""
    n = pub.n
    best = min(itertools.combinations(range(n), n // 2),
               key=lambda h: view.value(set(h) | {bad_action(n)}))
    return _pair_for_guess(pub, best)


@pytest.mark.parametrize("n", (4, 6))
def test_value_prober_wins_every_trial(n):
    candidates = math.comb(n, n // 2)
    report = adversary_experiment(_value_prober, n, F(1, 2), F(1), trials=12,
                                  query_budget=candidates, seed=5)
    assert report.successes == 12
    assert report.mean_approx_fraction == 1
    assert {rec.issued_queries for rec in report.records} == {candidates}
    assert not any(rec.budget_exceeded for rec in report.records)
    short = adversary_experiment(_value_prober, n, F(1, 2), F(1), trials=3,
                                 query_budget=candidates - 1, seed=5)
    assert short.successes == 0
    assert all(rec.budget_exceeded for rec in short.records)


def test_random_guess_solver_baseline_plausible():
    report = adversary_experiment(make_random_guess_solver(1), 4, F(1, 2),
                                  F(1), trials=120, query_budget=10, seed=7)
    assert report.baseline_prob == F(1, 6)
    assert 0 < report.successes < 60  # loose sanity band around 20


def test_budget_exceeded_records_failure():
    def greedy_prober(view, pub):
        for _ in range(1000):
            view.value({0})
        raise AssertionError("unreachable")

    report = adversary_experiment(greedy_prober, 4, F(1, 2), F(1), trials=3,
                                  query_budget=5, seed=9)
    assert report.successes == 0
    assert all(rec.budget_exceeded for rec in report.records)


def test_experiment_deterministic_under_seed():
    r1 = adversary_experiment(make_random_guess_solver(2), 4, F(1, 2), F(1),
                              trials=30, query_budget=10, seed=11)
    r2 = adversary_experiment(make_random_guess_solver(2), 4, F(1, 2), F(1),
                              trials=30, query_budget=10, seed=11)
    assert r1.successes == r2.successes
    assert [rec.success for rec in r1.records] == \
        [rec.success for rec in r2.records]


def test_solver_sees_only_oracle_interface():
    captured = {}

    def inspecting_solver(view, pub):
        captured["fields"] = {f.name for f in dataclasses.fields(pub)}
        captured["view_attrs"] = isinstance(view, OracleView)
        return Contract.zero(5), frozenset()

    adversary_experiment(inspecting_solver, 4, F(1, 2), F(1), trials=1,
                         query_budget=4, seed=13)
    # the public info names the setting and the costs, never the hidden set
    assert captured["fields"] == {"n", "budget", "approx_target", "eps",
                                  "unit_cost", "bad_cost", "good_cost"}
    assert not any("hidden" in name for name in captured["fields"])
    assert captured["view_attrs"]
