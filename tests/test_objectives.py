import collections
import itertools
import random
from fractions import Fraction as F

import pytest

from budgetcontracts.core import Action, Contract, Instance, ModelError, cost, \
    format_rational, restrict_contract
from budgetcontracts.generators import random_additive_instance, \
    random_coverage_instance, random_explicit_monotone_instance, \
    random_oxs_instance, random_uniform_k_instance, random_unit_demand_instance
from budgetcontracts.hardness import HardnessParams, build_hardness, good_contract
from budgetcontracts.objectives import (
    PROFIT,
    REWARD,
    WELFARE,
    BestPropertyReport,
    _participation_test,
    combo,
    evaluate,
    objective_from_spec,
    value_at,
    verify_best_properties,
)
from budgetcontracts.rewards import AdditiveOracle, ExplicitOracle, \
    set_to_mask, subset_sums, with_table

from contract_pairs import UncheckedExplicit, contract_pairs, \
    huge_denominator_instance


def small_instance():
    return Instance(2, (Action(0, 0, F(1, 8)), Action(1, 1, F(1, 4))),
                    AdditiveOracle([F(1, 2), F(1, 4)]))


def _participation(inst, a, q):
    """``_participation_test`` on the verifier's tables of ``inst``: f and
    c by mask, both over f_den * c_den."""
    inst = with_table(inst)
    (c_int, c_den), f_den = inst.int_costs, inst.oracle.den
    return _participation_test(inst, [v * c_den for v in inst.table],
                               [c * f_den for c in subset_sums(c_int)], a, q)


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
    inst = small_instance()
    rng = random.Random(1)
    objs = [WELFARE, combo((F(1, 3), PROFIT), (F(2, 3), REWARD))]
    checked = 0
    for _ in range(200):
        levels = tuple(rng.randint(0, 4) for _ in range(2))
        alpha = Contract(tuple(F(k, 8) for k in levels))
        profile = frozenset(a for a in range(2) if rng.random() < 0.5)
        if not _participation(inst, levels, 8)(set_to_mask(profile)):
            continue
        checked += 1
        lo = evaluate(PROFIT, inst, alpha, profile)
        hi = evaluate(REWARD, inst, alpha, profile)
        for obj in objs:
            assert lo <= evaluate(obj, inst, alpha, profile) <= hi
    assert checked > 20


def test_participation_matches_the_fraction_reference():
    # costs 2/9 of the weights: at alpha_i = 2/9 every agent is indifferent
    w = [F(1, 5), F(1, 7), F(1, 3), F(1, 9)]
    pencil = Instance(2, tuple(Action(a, a % 2, w[a] * F(2, 9)) for a in range(4)),
                      AdditiveOracle(w))
    rng = random.Random(5)
    cases = [pencil] + [random_coverage_instance(rng.randint(0, 10 ** 6),
                                                 num_agents=2, num_actions=4)
                        for _ in range(3)]
    levels = (F(0), F(1, 7), F(2, 9), F(5, 11))
    q = 7 * 9 * 11  # every level is an int over q
    verdicts = collections.Counter()
    for inst in cases:
        for tabled in (inst, with_table(inst)):
            for alpha in itertools.product(levels, repeat=2):
                alpha = Contract(alpha)
                for r in range(5):
                    for s in map(frozenset, itertools.combinations(range(4), r)):
                        f_s = inst.oracle.value(s)
                        want = True
                        for i, own in enumerate(inst.agent_actions):
                            gain = alpha[i] * (f_s - inst.oracle.value(s - own))
                            if s & own and gain <= cost(inst, s & own):
                                verdicts[gain == cost(inst, s & own)] += 1
                                want = want and gain == cost(inst, s & own)
                        assert _participation(
                            tabled, tuple(int(x * q) for x in alpha), q)(
                            set_to_mask(s)) == want
    assert verdicts[True] > 0 and verdicts[False] > 0


def test_verifier_reward_passes():
    report = verify_best_properties(REWARD, small_instance())
    assert report.passed, report.results


def test_verifier_profit_passes_on_additive():
    report = verify_best_properties(PROFIT, small_instance())
    assert report.passed, report.results


def test_verifier_combo_passes():
    obj = combo((F(1, 2), PROFIT), (F(1, 2), REWARD))
    report = verify_best_properties(obj, small_instance())
    assert report.passed, report.results


def test_verifier_passes_on_submodular_families():
    for seed in (3, 4):
        inst = random_coverage_instance(seed, num_agents=2, num_actions=3)
        for obj in (PROFIT, WELFARE):
            report = verify_best_properties(obj, inst, sample_budget=4000)
            assert report.passed, (seed, obj.kind, report.results)


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


def test_verifier_makes_a_contract_only_for_a_counterexample(monkeypatch):
    # equilibria.contract_of makes its Contract through __post_init__ too
    made = []
    real = Contract.__post_init__

    def counted(self):
        made.append(self)
        real(self)

    monkeypatch.setattr(Contract, "__post_init__", counted)
    assert verify_best_properties(REWARD, small_instance()).passed
    assert made == []
    inst = Instance(2, (Action(0, 0, F(0)), Action(1, 1, F(0))),
                    ExplicitOracle([F(0), F(1, 8), F(1, 8), F(1, 2)]))
    report = verify_best_properties(PROFIT, inst)
    found = [info[0] for ok, info in report.results.values() if not ok]
    assert found and made == found


def objective_to_spec(obj):
    """The JSON descriptor of ``obj``, which ``objective_from_spec`` reads."""
    if obj.kind != "combo":
        return {"type": obj.kind}
    return {"type": "combo",
            "terms": [[format_rational(w), objective_to_spec(o)]
                      for w, o in obj.terms]}


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


# -- the integer verifier against the Fraction one it replaced ------------------


def _reference_evaluate(obj, inst, alpha, s):
    c_s = cost(inst, s) if obj.weights[1] else F(0)
    return value_at(obj, alpha.total(), inst.f[inst.mask_of(s)], c_s)


def _reference_participation(inst, alpha, s):
    f, mask = inst.f, inst.mask_of(s)
    return all(not s & own or alpha[i] * (f[mask] - f[mask & ~inst.agent_masks[i]])
               >= cost(inst, s & own)
               for i, own in enumerate(inst.agent_actions))


def _reference_verify(obj, inst, denominator=8, seed=0):
    """The verifier on Fractions: the instance's Fraction view and
    ``core.cost``, with the same contract pool and check order."""
    n, m = inst.num_agents, inst.num_actions
    inst = with_table(inst)
    profiles = [frozenset(c) for r in range(m + 1)
                for c in itertools.combinations(range(m), r)]
    step = F(1, denominator)
    if (denominator + 1) ** n <= 4096:
        levels = [F(k, denominator) for k in range(denominator + 1)]
        contracts = [Contract(t) for t in itertools.product(levels, repeat=n)]
    else:
        rng = random.Random(seed)
        contracts = [Contract(tuple(F(rng.randrange(denominator + 1), denominator)
                                    for _ in range(n))) for _ in range(4096)]
    priced = dict(contract_pairs(inst))
    contracts += [priced[mask] for mask in map(inst.mask_of, profiles)
                  if mask in priced]
    contracts = [c for c in contracts if c.total() <= 1]
    f = inst.f
    results = dict.fromkeys(
        ("sandwich", "decompose", "monotone-S", "antitone-alpha"), (True, None))
    checks = 0
    for alpha in contracts:
        for s in profiles:
            if not _reference_participation(inst, alpha, s):
                continue
            checks += 1
            mask = inst.mask_of(s)
            phi = _reference_evaluate(obj, inst, alpha, s)
            f_s = f[mask]
            if results["sandwich"][0] and not (
                    (1 - alpha.total()) * f_s <= phi <= f_s):
                results["sandwich"] = (False, (alpha, s))
            if results["decompose"][0]:
                for i in range(n):
                    rhs = f[mask & ~inst.agent_masks[i]] + _reference_evaluate(
                        obj, inst, restrict_contract(alpha, {i}),
                        s & inst.agent_actions[i])
                    if phi > rhs:
                        results["decompose"] = (False, (alpha, s, i))
                        break
            if results["monotone-S"][0]:
                for a in range(m):
                    if a in s or alpha[inst.owner_of[a]] * (
                            f[mask | 1 << a] - f_s) < inst.cost_of[a]:
                        continue
                    if phi > _reference_evaluate(obj, inst, alpha, s | {a}):
                        results["monotone-S"] = (False, (alpha, s, a))
                        break
            if results["antitone-alpha"][0]:
                for i in range(n):
                    bumped = Contract(tuple(x + step if j == i else x
                                            for j, x in enumerate(alpha.alpha)))
                    if bumped.total() > 1:
                        continue
                    if _reference_evaluate(obj, inst, bumped, s) > phi:
                        results["antitone-alpha"] = (False, (alpha, s, i))
                        break
    return BestPropertyReport(all(ok for ok, _ in results.values()), checks,
                              results)


BEST_OBJECTIVES = (PROFIT, REWARD, WELFARE,
                   combo((F(1, 2), PROFIT), (F(1, 2), REWARD)),
                   combo((F(1, 4), PROFIT), (F(1, 4), REWARD), (F(1, 2), WELFARE)))


def _unvalidated_instance(rng):
    """Two agents on three actions with an unvalidated table, values in
    [-1/4, 1], and costs in [0, 1/4]: f may fall or go negative, so that
    every property has a counterexample."""
    values = [F(0)] + [F(rng.randint(-2, 8), 8) for _ in range(7)]
    return Instance(2, tuple(Action(a, a % 2, F(rng.randint(0, 2), 8))
                             for a in range(3)),
                    UncheckedExplicit(values))


def test_int_verifier_matches_the_fraction_reference():
    # criterion 9's corpus, then explicit monotone tables, where f need not
    # be subadditive, then unvalidated ones; the last two on a coarser grid
    makers = (random_additive_instance, random_unit_demand_instance,
              random_uniform_k_instance, random_oxs_instance,
              random_coverage_instance)
    rng = random.Random(31)
    corpus = [(makers[i % 5](121000 + i, num_agents=2, num_actions=3 + i % 2),
               8) for i in range(50)]
    corpus += [(random_explicit_monotone_instance(
        7000 + i, num_agents=2, num_actions=3 + i % 2), 4) for i in range(40)]
    corpus += [(_unvalidated_instance(rng), 4) for _ in range(10)]
    failed = collections.Counter()
    for inst, denominator in corpus:
        inst = with_table(inst)
        for obj in BEST_OBJECTIVES:
            report = verify_best_properties(obj, inst, denominator=denominator)
            assert report == _reference_verify(obj, inst, denominator), \
                (inst, obj)
            failed.update(name for name, (ok, _) in report.results.items()
                          if not ok)
    assert set(failed) == {"sandwich", "decompose", "monotone-S",
                           "antitone-alpha"}, failed


def test_int_verifier_past_a_huge_common_denominator():
    # minimal contracts over lcms of costs near 10**9 each: large q per entry
    inst = huge_denominator_instance()
    for obj in BEST_OBJECTIVES:
        assert verify_best_properties(obj, inst) == _reference_verify(obj, inst), obj
