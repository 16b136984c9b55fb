"""Acceptance suite: ten numbered criteria, one verdict line each.

Every check is an exact rational comparison at the stated tolerance; run
with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import itertools
import math
import random
import time
from fractions import Fraction as F

from budgetcontracts.core import Contract
from budgetcontracts.equilibria import is_nash, min_incentivizing_contract, \
    ne_from_demand
from budgetcontracts.generators import (
    random_additive_instance,
    random_coverage_instance,
    random_explicit_monotone_instance,
    random_general_contract,
    random_gs_instance,
    random_oxs_instance,
    random_uniform_k_instance,
    random_unit_demand_instance,
)
from budgetcontracts.hardness import (
    HardnessOracle,
    HardnessParams,
    adversary_experiment,
    build_hardness,
    good_action,
    good_contract,
    hardness_demand,
    make_random_guess_solver,
    verify_gap_exhaustive,
)
from budgetcontracts.equilibria import best_response, is_nash_general, linearize
from budgetcontracts.objectives import PROFIT, REWARD, WELFARE, combo, evaluate, \
    verify_best_properties
from budgetcontracts.rewards import (
    PriceVector,
    brute_force_demand,
    demand_with_base,
    gs_greedy_demand,
    is_monotone,
    is_submodular,
    set_to_mask,
    with_table,
)
from budgetcontracts.solvers import (
    additive_fptas,
    brute_force_opt,
    downsize,
    gs_constant_factor,
    gs_single_agent_exact,
    max_reward_bounded_brute,
    single_agent_fptas,
)

BUDGET_POOL = [F(1, 4), F(1, 2), F(3, 4), F(1)]


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def all_subsets(items):
    items = sorted(items)
    for r in range(len(items) + 1):
        yield from (frozenset(c) for c in itertools.combinations(items, r))


def test_criterion_01_additive_fptas():
    start = time.monotonic()
    failures = 0
    cases = 0
    for i in range(200):
        inst = random_additive_instance(9000 + i)
        inst = with_table(inst)
        budget = BUDGET_POOL[i % 4]
        for obj in (PROFIT, REWARD, WELFARE):
            opt = brute_force_opt(inst, budget, obj).value
            for eps in (F(1, 4), F(1, 10), F(1, 20)):
                got = additive_fptas(inst, budget, eps, obj)
                cases += 1
                if got.value < (1 - eps) * opt or got.contract.total() > budget:
                    failures += 1
    elapsed = time.monotonic() - start
    verdict(1, failures == 0 and elapsed < 120,
            f"{cases} solves on 200 additive instances, {failures} failures, "
            f"{elapsed:.1f}s (< 120s)")


def test_criterion_02_single_agent_fptas():
    start = time.monotonic()
    failures = 0
    bracket_failures = 0
    cases = 0
    rng = random.Random(424)
    for i in range(100):
        m = rng.randint(2, 8)
        inst = random_explicit_monotone_instance(17000 + i, num_agents=1,
                                                 num_actions=m)
        budget = [F(1, 3), F(1, 2), F(3, 4), F(1)][i % 4]
        inst = with_table(inst)
        table = inst.f
        # independent optimum and welfare benchmark from profile enumeration
        opt = F(0)
        opt_alpha = F(0)
        opt_profile = frozenset()
        sw = F(0)
        for profile in all_subsets(range(m)):
            alpha = min_incentivizing_contract(inst, profile)
            if alpha is None or alpha[0] > budget:
                continue
            profit = (1 - alpha[0]) * table[sum(1 << a for a in profile)]
            if profit > opt:
                opt, opt_alpha, opt_profile = profit, alpha[0], profile
            welfare = table[sum(1 << a for a in profile)] \
                - sum((inst.cost_of[a] for a in profile), F(0))
            if welfare > sw:
                sw = welfare
        for eps in (F(1, 4), F(1, 10)):
            got = single_agent_fptas(inst, budget, eps)
            cases += 1
            if got.value < (1 - eps) * opt or got.contract.total() > budget:
                failures += 1
        if opt > 0 and opt_profile:
            c_star = max(inst.cost_of[a] for a in opt_profile)
            lo = 1 - sw / (c_star + sw)
            hi = min(budget, 1 - sw / (m * (1 << m) * (c_star + sw)))
            if not lo <= opt_alpha <= hi:
                bracket_failures += 1
    elapsed = time.monotonic() - start
    verdict(2, failures == 0 and bracket_failures == 0 and elapsed < 60,
            f"{cases} solves on 100 monotone tables, {failures} value "
            f"failures, {bracket_failures} bracket violations, "
            f"{elapsed:.1f}s (< 60s)")


def test_criterion_03_downsizing():
    makers = [random_additive_instance, random_unit_demand_instance,
              random_oxs_instance]
    failures = 0
    runs = 0
    for i in range(100):
        inst = makers[i % 3](21000 + i, num_agents=2 + i % 3,
                             num_actions=4 + i % 7)
        inst = with_table(inst)
        rng = random.Random(31000 + i)
        contracts = [Contract.of([F(k, 4)] * inst.num_agents)
                     for k in (1, 2, 3)]
        contracts += [Contract.of([F(rng.randint(0, 12), 16)
                                   for _ in range(inst.num_agents)])
                      for _ in range(2)]
        for alpha in contracts:
            profile = ne_from_demand(inst, alpha)
            for m_param in (3, 6, 14):
                runs += 1
                new_alpha, new_profile = downsize(inst, m_param, alpha,
                                                  profile)
                f_old = inst.oracle.value(profile)
                f_new = inst.oracle.value(new_profile)
                ok = (2 * m_param - 2) * f_new >= f_old
                ok = ok and is_nash(inst, new_alpha, new_profile).ok
                small = m_param * new_alpha.total() <= 5 * alpha.total()
                single = any(
                    new_alpha.alpha == tuple(
                        alpha[j] if j == i_ else F(0)
                        for j in range(inst.num_agents))
                    and new_profile <= inst.agent_actions[i_]
                    for i_ in range(inst.num_agents))
                failures += not (ok and (small or single))
    verdict(3, failures == 0,
            f"{runs} downsize runs over 100 GS instances x M in {{3,6,14}}, "
            f"{failures} guarantee violations")


def test_criterion_04_hardness_structure():
    start = time.monotonic()
    checked = []
    for n in (4, 6, 8):
        for budget in (F(1, 4), F(1, 2), F(3, 4)):
            params = HardnessParams.make(n, budget,
                                         hidden=range(0, n, 2))
            inst = build_hardness(params)
            assert is_monotone(inst.oracle)[0]
            assert is_submodular(inst.oracle)[0]
            alpha, profile = good_contract(params)
            assert alpha.total() == budget
            assert is_nash(inst, alpha, profile).ok
            assert evaluate(PROFIT, inst, alpha, profile) >= (1 - budget) / 2
            report = verify_gap_exhaustive(params)
            assert report.ok
            checked.append((n, budget))
    elapsed = time.monotonic() - start
    verdict(4, len(checked) == 9 and elapsed < 120,
            f"monotone+submodular+NE+gap verified for {len(checked)} "
            f"(n, B) pairs, {elapsed:.1f}s (< 120s)")


def test_criterion_05_demand_simulation():
    mismatches = 0
    total = 0
    for n in (4, 6, 8):
        for budget in (F(1, 4), F(1, 2)):
            params = HardnessParams.make(n, budget, hidden=range(n // 2))
            inst = build_hardness(params)
            inst = with_table(inst)
            table = inst.f
            rng = random.Random(1000 * n + int(budget * 4))
            for _ in range(1000):
                pv = PriceVector.of({a: F(rng.randint(-8, 96), 64)
                                     for a in range(n + 2)})
                sim = hardness_demand(inst.oracle, pv)
                brute = brute_force_demand(inst.oracle, pv, table=table)
                u_sim = table[sum(1 << a for a in sim)] - pv.total(sim)
                u_brute = table[sum(1 << a for a in brute)] - pv.total(brute)
                total += 1
                mismatches += u_sim != u_brute
    verdict(5, mismatches == 0,
            f"{total} price vectors across 6 parameterizations, "
            f"{mismatches} utility mismatches")


def test_criterion_06_best_response_monotonicity():
    corpus = [
        random_additive_instance(51000, num_agents=2, num_actions=6),
        random_unit_demand_instance(51001, num_agents=2, num_actions=6),
        random_oxs_instance(51002, num_agents=3, num_actions=5),
        random_uniform_k_instance(51003, num_agents=3, num_actions=5),
    ]
    checks = 0
    for inst in corpus:
        inst = with_table(inst)
        table = inst.f
        levels = [F(k, 8) for k in range(9)]
        for alphas in itertools.product(levels, repeat=inst.num_agents):
            alpha = Contract(alphas)
            profile = ne_from_demand(inst, alpha)
            for i in range(inst.num_agents):
                if alpha[i] == 0:
                    continue
                s_i = profile & inst.agent_actions[i]
                s_other = profile - s_i
                own = inst.agent_actions[i]
                for cut in all_subsets(s_other):
                    prices = PriceVector(
                        {a: inst.cost_of[a] / alpha[i] for a in own - s_i},
                        excluded=inst.ground_set - own - cut)
                    grown = demand_with_base(inst.oracle, prices, s_i | cut,
                                             table=table)
                    response = grown - cut
                    achieved = alpha[i] * table[sum(1 << a for a in grown)] \
                        - sum((inst.cost_of[a] for a in response), F(0))
                    best = max(
                        alpha[i] * table[sum(1 << a for a in dev | cut)]
                        - sum((inst.cost_of[a] for a in dev), F(0))
                        for dev in all_subsets(own))
                    assert s_i <= response
                    assert achieved == best
                    checks += 1
    # the submodular composite violates monotonicity: the special agent
    # keeps the good action beside the hidden set but drops it when alone
    params = HardnessParams.make(4, F(1, 2), hidden=(0, 1))
    inst = build_hardness(params)
    alpha, profile = good_contract(params)
    assert is_nash(inst, alpha, profile).ok
    full = best_response(inst, 4, alpha[4], frozenset({0, 1}))
    shrunk = best_response(inst, 4, alpha[4], frozenset())
    witness_ok = good_action(4) in full and good_action(4) not in shrunk
    verdict(6, witness_ok,
            f"{checks} exhaustive superset-response checks on 4 GS instances; "
            f"hardness witness reproduced (to hidden set: good action, "
            f"alone: bad action)")


def test_criterion_07_reduction_pipeline():
    makers = [random_additive_instance, random_unit_demand_instance,
              random_oxs_instance, random_uniform_k_instance]
    objectives = [PROFIT, REWARD, WELFARE]
    ratios = []
    failures = 0
    for i in range(50):
        inst = makers[i % 4](61000 + i, num_agents=2 + i % 2,
                             num_actions=3 + i % 5)
        inst = with_table(inst)
        budget = BUDGET_POOL[i % 4]
        obj = objectives[i % 3]
        got = gs_constant_factor(inst, budget, obj)
        opt = brute_force_opt(inst, budget, obj).value
        if 6001 * got.value < opt:
            failures += 1
        mrb = max_reward_bounded_brute(inst, budget).value
        best_single = max(
            gs_single_agent_exact(inst, j, obj, budget).value
            for j in range(inst.num_agents))
        if opt > 2 * mrb + best_single:
            failures += 1
        if opt > 0:
            ratios.append(opt / got.value if got.value > 0 else math.inf)
    finite = [r for r in ratios if r != math.inf]
    worst = max(finite) if finite else F(1)
    verdict(7, failures == 0,
            f"50 GS instances: pipeline within 6001x (worst observed ratio "
            f"{float(worst):.3f}), decomposition inequality exact, "
            f"{failures} failures")


def test_criterion_08_oracle_equivalences():
    # greedy demand equals brute-force demand utility on every GS variant
    makers = [random_additive_instance, random_unit_demand_instance,
              random_uniform_k_instance, random_oxs_instance]
    mismatches = 0
    for variant, maker in enumerate(makers):
        inst = maker(71000 + variant, num_agents=2, num_actions=6)
        inst = with_table(inst)
        table = inst.f
        rng = random.Random(81000 + variant)
        for _ in range(500):
            pv = PriceVector.of({a: F(rng.randint(-16, 80), 64)
                                 for a in range(6)})
            greedy = gs_greedy_demand(inst.oracle, pv, table=table)
            brute = brute_force_demand(inst.oracle, pv, table=table)
            u_g = table[sum(1 << a for a in greedy)] - pv.total(greedy)
            u_b = table[sum(1 << a for a in brute)] - pv.total(brute)
            mismatches += u_g != u_b
    # every demand-derived profile is an equilibrium
    ne_failures = 0
    rng = random.Random(91000)
    for i in range(60):
        inst = random_gs_instance(rng.randint(0, 10 ** 6),
                                  num_agents=rng.randint(1, 4),
                                  num_actions=rng.randint(2, 8))
        inst = with_table(inst)
        alpha = Contract.of([F(rng.randint(0, 16), 16)
                             for _ in range(inst.num_agents)])
        profile = ne_from_demand(inst, alpha)
        ne_failures += not is_nash(inst, alpha, profile).ok
    # linearization keeps every enumerated equilibrium of a general contract
    lin_failures = 0
    preserved = 0
    for i in range(50):
        inst = random_gs_instance(101000 + i, num_agents=2 + i % 2,
                                  num_actions=3 + i % 3)
        inst = with_table(inst)
        t = random_general_contract(111000 + i, inst.num_agents)
        alpha = linearize(t)
        for profile in all_subsets(range(inst.num_actions)):
            if is_nash_general(inst, t, profile):
                preserved += 1
                lin_failures += not is_nash(inst, alpha, profile).ok
    verdict(8, mismatches == 0 and ne_failures == 0 and lin_failures == 0,
            f"2000 greedy-vs-brute demand utilities equal; 60 demand "
            f"equilibria verified; {preserved} general-contract equilibria "
            f"preserved by linearization")


def test_criterion_09_best_verifier():
    makers = [random_additive_instance, random_unit_demand_instance,
              random_uniform_k_instance, random_oxs_instance,
              random_coverage_instance]
    objectives = [PROFIT, REWARD, WELFARE,
                  combo((F(1, 2), PROFIT), (F(1, 2), REWARD)),
                  combo((F(1, 4), PROFIT), (F(1, 4), REWARD),
                        (F(1, 2), WELFARE))]
    failures = 0
    checks = 0
    for i in range(50):
        inst = makers[i % 5](121000 + i, num_agents=2, num_actions=3 + i % 2)
        inst = with_table(inst)
        for obj in objectives:
            report = verify_best_properties(obj, inst)
            checks += report.checks
            if not report.passed:
                failures += 1
    verdict(9, failures == 0,
            f"4 properties x 5 objectives x 50 subadditive instances "
            f"({checks} grid checks), {failures} failures")


def test_criterion_10_adversarial_experiment():
    n, budget = 8, F(1, 2)
    trials = 2000
    report = adversary_experiment(make_random_guess_solver(777), n, budget,
                                  F(1), trials=trials, query_budget=100,
                                  seed=778)
    p = 1 / 70
    se = math.sqrt(p * (1 - p) / trials)
    rate = report.successes / trials
    stat_ok = abs(rate - p) <= 3 * se
    assert report.baseline_prob == F(1, 70)

    indist_ok = True
    for n_small in (4, 6, 8):
        params = HardnessParams.make(n_small, F(1, 2),
                                     hidden=range(n_small // 2))
        oracle = HardnessOracle(params.n, params.eps, params.hidden)
        ground = range(n_small + 2)
        for s in all_subsets(ground):
            mask = set_to_mask(s)
            differs = oracle.value(s) != oracle._base_value(mask)
            if differs != oracle._reveals(mask):
                indist_ok = False

    # query counters move by exactly one per call
    params = HardnessParams.make(4, F(1, 2), hidden=(0, 1))
    oracle = HardnessOracle(params.n, params.eps, params.hidden)
    for k in range(1, 6):
        oracle.value({0})
        assert oracle.value_queries == k
    before = oracle.value_queries
    oracle.demand(PriceVector.of({a: F(1, 64) for a in range(6)}))
    assert oracle.demand_queries == 1
    assert 1 <= oracle.value_queries - before <= 12

    verdict(10, stat_ok and indist_ok,
            f"random-guess rate {rate:.4f} vs 1/70 = {p:.4f} "
            f"(3 SE = {3 * se:.4f}); indistinguishability exhaustive for "
            f"n in {{4,6,8}}; counters exact")
