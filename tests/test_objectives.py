import random
from fractions import Fraction as F

import pytest

from budgetcontracts.core import Action, Contract, Instance, ModelError
from budgetcontracts.generators import random_coverage_instance
from budgetcontracts.hardness import HardnessParams, build_hardness, good_contract
from budgetcontracts.objectives import (
    PROFIT,
    REWARD,
    WELFARE,
    combo,
    evaluate,
    objective_from_spec,
    objective_to_spec,
    verify_best_properties,
)
from budgetcontracts.rewards import AdditiveOracle


def small_instance():
    return Instance(2, (Action(0, 0, F(1, 8)), Action(1, 1, F(1, 4))),
                    AdditiveOracle([F(1, 2), F(1, 4)]))


def test_empty_profile_evaluates_to_zero_everywhere():
    inst = small_instance()
    alpha = Contract.of([F(1, 4), F(1, 4)])
    for obj in (PROFIT, REWARD, WELFARE, combo((F(1, 2), PROFIT), (F(1, 2), REWARD))):
        assert evaluate(obj, inst, alpha, frozenset()) == 0


def test_profit_zero_when_payments_exhaust_reward():
    inst = small_instance()
    alpha = Contract.of([F(1, 2), F(1, 2)])
    for profile in (frozenset(), frozenset({0}), frozenset({0, 1})):
        assert evaluate(PROFIT, inst, alpha, profile) == 0


def test_welfare_can_be_negative_and_is_reported_as_is():
    inst = Instance(1, (Action(0, 0, F(3, 4)),), AdditiveOracle([F(1, 4)]))
    assert evaluate(WELFARE, inst, Contract.zero(1), frozenset({0})) == -F(1, 2)


def test_hardness_good_pair_profit_floor():
    budget = F(1, 2)
    params = HardnessParams.make(4, budget)
    inst = build_hardness(params)
    alpha, profile = good_contract(params)
    assert evaluate(PROFIT, inst, alpha, profile) >= (1 - budget) * F(1, 2)


def test_combo_weights_must_sum_to_one():
    with pytest.raises(ModelError):
        combo((F(1, 2), PROFIT), (F(1, 4), REWARD))


def test_combo_evaluation_linear_in_weights():
    inst = small_instance()
    alpha = Contract.of([F(1, 8), F(1, 8)])
    profile = frozenset({0, 1})
    for num in range(1, 4):
        lam = F(num, 4)
        mixed = combo((lam, PROFIT), (1 - lam, REWARD))
        direct = lam * evaluate(PROFIT, inst, alpha, profile) \
            + (1 - lam) * evaluate(REWARD, inst, alpha, profile)
        assert evaluate(mixed, inst, alpha, profile) == direct


def test_sandwich_on_participation_feasible_pairs():
    from budgetcontracts.objectives import participation_holds

    inst = small_instance()
    rng = random.Random(1)
    objs = [WELFARE, combo((F(1, 3), PROFIT), (F(2, 3), REWARD))]
    checked = 0
    for _ in range(200):
        alpha = Contract.of([F(rng.randint(0, 4), 8) for _ in range(2)])
        profile = frozenset(a for a in range(2) if rng.random() < 0.5)
        if not participation_holds(inst, alpha, profile):
            continue
        checked += 1
        lo = evaluate(PROFIT, inst, alpha, profile)
        hi = evaluate(REWARD, inst, alpha, profile)
        for obj in objs:
            assert lo <= evaluate(obj, inst, alpha, profile) <= hi
    assert checked > 20


def test_verifier_reward_passes():
    report = verify_best_properties(REWARD, small_instance())
    assert report.passed, report.counterexample()


def test_verifier_profit_passes_on_additive():
    report = verify_best_properties(PROFIT, small_instance())
    assert report.passed, report.counterexample()


def test_verifier_combo_passes():
    obj = combo((F(1, 2), PROFIT), (F(1, 2), REWARD))
    report = verify_best_properties(obj, small_instance())
    assert report.passed, report.counterexample()


def test_verifier_passes_on_submodular_families():
    for seed in (3, 4):
        inst = random_coverage_instance(seed, num_agents=2, num_actions=3)
        for obj in (PROFIT, WELFARE):
            report = verify_best_properties(obj, inst, sample_budget=4000)
            assert report.passed, (seed, obj.kind, report.counterexample())


def test_verifier_rejects_profit_without_subadditivity():
    # profit is only a BEST objective for subadditive f; with strong
    # complements the decompose property breaks and the verifier says so
    from budgetcontracts.rewards import ExplicitOracle

    inst = Instance(2, (Action(0, 0, F(0)), Action(1, 1, F(0))),
                    ExplicitOracle([F(0), F(1, 8), F(1, 8), F(1, 2)]))
    report = verify_best_properties(PROFIT, inst)
    assert not report.passed
    ok, info = report.results["decompose"]
    assert not ok and info is not None


def test_objective_descriptor_roundtrip():
    objs = [PROFIT, REWARD, WELFARE,
            combo((F(1, 4), PROFIT), (F(3, 4), WELFARE))]
    for obj in objs:
        back = objective_from_spec(objective_to_spec(obj))
        assert back == obj


def test_combo_reads_f_once_on_a_lazy_instance():
    inst = random_coverage_instance(5, num_agents=2, num_actions=5)
    alpha = Contract.of([F(1, 8), F(1, 4)])
    profile = frozenset({0, 2, 3})
    profit, reward, welfare = (evaluate(o, inst, alpha, profile)
                               for o in (PROFIT, REWARD, WELFARE))
    nested = combo((F(1, 2), WELFARE), (F(1, 2), PROFIT))
    for obj, want in [
            (combo((F(1), REWARD)), reward),
            (combo((F(1, 2), PROFIT), (F(1, 2), REWARD)), (profit + reward) / 2),
            (combo((F(1, 4), PROFIT), (F(1, 4), REWARD), (F(1, 2), WELFARE)),
             (profit + reward + 2 * welfare) / 4),
            (combo((F(1, 2), WELFARE), (F(1, 2), nested)),
             (3 * welfare + profit) / 4)]:
        before = inst.oracle.value_queries
        assert evaluate(obj, inst, alpha, profile) == want
        assert inst.oracle.value_queries - before == 1
