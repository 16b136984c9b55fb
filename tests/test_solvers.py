import collections
import functools
import itertools
import math
import operator
import random
from bisect import bisect_right
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, example, given, settings, \
    strategies as st

from budgetcontracts import core, equilibria, rewards, solvers
from budgetcontracts.core import Action, Contract, GroundSetTooLargeError, \
    Instance, ModelError, UnknownAgentIdError, cost, restrict_contract
from budgetcontracts.equilibria import best_response, is_nash, \
    min_incentivizing_contract, ne_from_demand
from budgetcontracts.generators import random_additive_instance, \
    random_coverage_instance, random_explicit_monotone_instance, \
    random_gs_instance, random_oxs_instance, random_uniform_k_instance, \
    random_unit_demand_instance
from budgetcontracts.hardness import HardnessParams, build_hardness, good_action
from budgetcontracts.objectives import PROFIT, REWARD, WELFARE, combo, \
    evaluate
from budgetcontracts.rewards import AdditiveOracle, AssignmentOracle, \
    ExplicitOracle, PriceVector, RewardOracle, UniformKDemandOracle, \
    UnitDemandOracle, common_denominator, mask_to_set, set_to_mask, with_table
from budgetcontracts.solvers import (
    DpTable,
    NotAnEquilibriumError,
    _PrefixLayout,
    additive_fptas,
    brute_force_opt,
    build_dp_table,
    downsize,
    gs_constant_factor,
    gs_single_agent_exact,
    iter_min_contracts,
    max_reward_bounded_brute,
    single_agent_fptas,
)

from contract_pairs import UncheckedExplicit, contract_pairs, \
    huge_denominator_instance
from fptas_sweep import LoggedAdditive, lp_bound, swept_scales


def all_subsets(items):
    items = sorted(items)
    for r in range(len(items) + 1):
        yield from (frozenset(c) for c in itertools.combinations(items, r))


# -- brute-force oracle ----------------------------------------------------------


def test_brute_force_nothing_affordable():
    inst = Instance(1, (Action(0, 0, F(3, 4)),), AdditiveOracle([F(1, 2)]))
    r = brute_force_opt(inst, F(1, 2), PROFIT)  # needs alpha = 3/2 > budget
    assert r.profile == frozenset() and r.value == 0


def test_brute_force_single_agent_single_action():
    inst = Instance(1, (Action(0, 0, F(1, 4)),), AdditiveOracle([F(1, 2)]))
    r = brute_force_opt(inst, F(1), PROFIT)
    assert r.contract.alpha == (F(1, 2),)
    assert r.profile == frozenset({0})
    assert r.value == F(1, 4)


def test_brute_force_hardness_profit_floor():
    budget = F(1, 2)
    params = HardnessParams.make(4, budget)
    inst = build_hardness(params)
    r = brute_force_opt(inst, budget, PROFIT)
    assert r.value >= (1 - budget) / 2
    assert good_action(4) in r.profile


def _reference_min_contract(inst, profile, *, enum_cap=20, table=None):
    """The Fraction loop min_incentivizing_contract ran before the
    minimal-contract algebra was shared with iter_min_contracts: f read per
    deviation of each agent's sorted actions, bounds as Fraction ratios."""
    s = frozenset(profile)
    if table is None:
        val = inst.oracle.value
    else:
        val = lambda sub: table[set_to_mask(sub)]
    f_s = val(s)
    entries = []
    for i in range(inst.num_agents):
        own = sorted(inst.agent_actions[i])
        if len(own) > enum_cap:
            raise GroundSetTooLargeError(f"agent {i} has {len(own)} actions")
        s_i = s & inst.agent_actions[i]
        s_other = s - s_i
        c_i = cost(inst, s_i)
        lo = F(0)
        hi = None
        for mask in range(1 << len(own)):
            dev = frozenset(own[b] for b in range(len(own)) if mask >> b & 1)
            if dev == s_i:
                continue
            delta_f = f_s - val(dev | s_other)
            delta_c = c_i - cost(inst, dev)
            if delta_f > 0:
                lo = max(lo, delta_c / delta_f)
            elif delta_f == 0:
                if delta_c > 0:
                    return None
            elif hi is None or delta_c / delta_f < hi:
                hi = delta_c / delta_f
        if hi is not None and lo > hi:
            return None
        entries.append(lo)
    return Contract(tuple(entries))


class _Tripled(RewardOracle):
    """``oracle``'s f with every integer read and its den tripled."""

    def __init__(self, oracle):
        super().__init__(oracle.num_actions)
        self.inner, self.den = oracle, 3 * oracle.den
        self.function_class = oracle.function_class

    def _int(self, mask):
        return 3 * self.inner._int(mask)


def _rescaled(inst):
    """``inst`` tabled on its oracle with ints and den tripled: the integer
    readers depend on the ratio alone."""
    return with_table(replace(inst, oracle=_Tripled(inst.oracle), table=None))


def test_fast_contract_enumeration_matches_generic_operation():
    rng = random.Random(0)
    for t in range(25):
        if t % 2:
            inst = random_gs_instance(rng.randint(0, 10 ** 7),
                                      num_agents=rng.randint(1, 4),
                                      num_actions=rng.randint(2, 6))
        else:
            inst = random_explicit_monotone_instance(
                rng.randint(0, 10 ** 7), num_agents=rng.randint(1, 3),
                num_actions=rng.randint(2, 5))
        inst = with_table(inst)
        table = inst.f
        fast = dict(contract_pairs(inst))
        for mask in range(1 << inst.num_actions):
            profile = mask_to_set(mask)
            generic = _reference_min_contract(inst, profile, table=table)
            assert min_incentivizing_contract(inst, profile) == generic
            if generic is None:
                assert mask not in fast
            else:
                assert fast[mask] == generic


def test_min_contract_algebra_past_a_huge_common_denominator():
    # the integer path runs over a common denominator above 10**24
    inst = huge_denominator_instance()
    table = inst.f
    assert common_denominator([*table, *inst.cost_of.values()]) > 10 ** 24
    for budget in (None, F(1, 1000), F(1, 2)):
        got = contract_pairs(inst, budget=budget)
        expected = []
        for mask in range(1 << 5):
            alpha = _reference_min_contract(inst, mask_to_set(mask), table=table)
            assert min_incentivizing_contract(inst, mask_to_set(mask)) == alpha
            if alpha is not None and (budget is None or alpha.total() <= budget):
                expected.append((mask, alpha))
        assert got == expected
    assert any(alpha.total() > 0 for _, alpha in got)


def test_min_contract_without_table_reads_like_the_reference():
    # a kept profile reads what the reference reads; one not kept reads at
    # least the reference's early stop and at most every agent's whole walk
    rng = random.Random(3)
    infeasible = 0
    for t in range(12):
        maker = random_gs_instance if t % 2 else random_explicit_monotone_instance
        inst = maker(rng.randint(0, 10 ** 6), num_agents=rng.randint(1, 3),
                     num_actions=rng.randint(2, 5))
        walks = 1 + sum((1 << len(own)) - 1 for own in inst.agent_actions)
        for mask in range(1 << inst.num_actions):
            profile = mask_to_set(mask)
            before = inst.oracle.value_queries
            expected = _reference_min_contract(inst, profile)
            spent = inst.oracle.value_queries - before
            before = inst.oracle.value_queries
            assert min_incentivizing_contract(inst, profile) == expected
            got = inst.oracle.value_queries - before
            if expected is None:
                assert spent <= got <= walks
            else:
                assert got == spent == walks
            infeasible += expected is None
    assert infeasible > 0  # profiles not kept are compared too


def _tied_line_instances(model=False):
    """Instances whose deviation lines tie, cross and meet in one point.

    Their random tables take a few repeated levels, at costs that repeat
    too: any such table, which may fall or be nonzero at the empty set,
    or with ``model`` the least monotone table above it with f(empty) = 0,
    which takes the same levels.
    """
    rng = random.Random(59)
    levels = [F(0), F(1, 8), F(1, 4), F(1, 3), F(1, 2), F(3, 4)]
    costs = [F(0), F(0), F(0), F(1, 12), F(1, 12), F(1, 6), F(1, 4)]
    for _ in range(40):
        n, m = rng.randint(1, 3), rng.randint(1, 6)
        actions = tuple(Action(a, rng.randrange(n), rng.choice(costs))
                        for a in range(m))
        values = [rng.choice(levels) for _ in range(1 << m)]
        if not model:
            yield Instance(n, actions, UncheckedExplicit(values))
            continue
        values[0] = F(0)
        for b in range(m):
            for mask in range(1 << m):
                if mask >> b & 1:
                    values[mask] = max(values[mask], values[mask ^ 1 << b])
        yield Instance(n, actions, ExplicitOracle(values))
    # the degenerate pencil: with costs w/3 every line
    # alpha * (f(R) + w(d)) - w(d)/3 passes through alpha = 1/3
    w = [F(k, 36) for k in (1, 2, 3, 5, 8, 4)]
    for n in (1, 2):
        yield Instance(n, tuple(Action(a, a % n, w[a] / 3) for a in range(6)),
                       AdditiveOracle(w))
    # {0}'s line alpha/4 - 1/12 meets the envelope only at alpha = 1/3,
    # where the lines of {} and {0, 1} cross
    yield Instance(1, (Action(0, 0, F(1, 12)), Action(1, 0, F(1, 12))),
                   ExplicitOracle([F(0), F(1, 4), F(0), F(1, 2)]))


def _lopsided_instances():
    """Agents of very different sizes: one owns 1 action, another m - 2,
    a third the last action, free on every other instance, and a fourth
    owns none."""
    rng = random.Random(67)
    for t in range(10):
        m = rng.randint(4, 7)
        owners = [0] + [1] * (m - 2) + [2]
        rng.shuffle(owners)
        costs = [F(rng.randint(0, 6), 24) for _ in range(m)]
        if t % 2:
            costs[owners.index(2)] = F(0)
        table = random_explicit_monotone_instance(
            rng.randint(0, 10 ** 6), num_agents=1, num_actions=m).oracle
        yield Instance(4, tuple(Action(a, owners[a], costs[a])
                                for a in range(m)), table)


def _dear_second_agent():
    """Agent 0 owns three actions and is priced first; agent 1, priced
    second, owns a cheap action and one costing 1/2, whose deviations
    (alone or with the cheap one) cost more than B * f(ground set) = 3B/4
    for B < 2/3."""
    costs, owners = (F(1, 32), F(1, 16), F(1, 64), F(1, 2), F(1, 64)), \
        (0, 0, 1, 1, 0)
    return Instance(2, tuple(Action(a, owners[a], costs[a]) for a in range(5)),
                    AdditiveOracle([F(1, 8), F(1, 8), F(1, 8), F(1, 4),
                                    F(1, 8)]))


def _budget_bound_instances():
    """Instances at the edges of the budget's cuts on the first agent's
    rests, c(R) <= B * f(R + T_1), and on deviations, c(d) <= B * f(ground
    set): a profile paying exactly B whose rest costs B * f(R + T_1), an
    agent priced second whose dearest deviations are cut, zero-cost
    actions and one dear action; and, outside the model, unvalidated
    tables leaving [0, 1] and tables of one nonzero value."""
    # {0, 1} needs alpha_1 = 1/2 and alpha_0 = 0; at B = 1/2 the rest {1}
    # costs 1/2 = B * f({0, 1})
    yield Instance(2, (Action(0, 0, F(0)), Action(1, 1, F(1, 2))),
                   ExplicitOracle([F(0), F(0), F(0), F(1)]))
    yield _dear_second_agent()
    rng = random.Random(71)
    levels = [F(-1, 2), F(0), F(1, 4), F(1), F(3, 2)]
    costs = [F(0), F(0), F(1, 64), F(1, 16), F(1, 8), F(1, 4)]
    for t in range(16):
        n, m = rng.randint(1, 3), rng.randint(2, 6)
        owners = [rng.randrange(n) for _ in range(m)]
        cost_of = [rng.choice(costs) for _ in range(m)]
        if t % 4 == 0:
            values = [rng.choice(levels) for _ in range(1 << m)]
            oracle = UncheckedExplicit(values)
        elif t % 4 == 1:
            oracle = UncheckedExplicit([F(1, 3)] * (1 << m))
        else:
            oracle = random_explicit_monotone_instance(
                rng.randint(0, 10 ** 6), num_agents=1, num_actions=m).oracle
        if t % 4 == 3:
            cost_of[rng.randrange(m)] = F(1, 2)
        yield Instance(n, tuple(Action(a, owners[a], cost_of[a])
                                for a in range(m)), oracle)


def test_envelope_contracts_match_the_reference():
    # a table outside the model (unvalidated) is walked without a budget
    # only: the budget's cuts hold for the model's f alone
    rng = random.Random(61)
    for inst in itertools.chain(_tied_line_instances(),
                                _tied_line_instances(model=True),
                                _lopsided_instances(),
                                _budget_bound_instances()):
        budgets = (None,) if type(inst.oracle) is UncheckedExplicit \
            else (None, F(0), F(1, 64), F(1, 3), F(1, 2), F(1))
        inst = with_table(inst)
        table = inst.f
        m = inst.num_actions
        reference = {mask: _reference_min_contract(inst, mask_to_set(mask),
                                                   table=table)
                     for mask in range(1 << m)}
        withins = (None, rng.randrange(1 << m),
                   set_to_mask(inst.agent_actions[0]))
        for tab in (inst, _rescaled(inst)):
            assert {mask: min_incentivizing_contract(tab, mask_to_set(mask))
                    for mask in range(1 << m)} == reference
        for tab, within, budget in itertools.product(
                (inst, _rescaled(inst)), withins, budgets):
            got = [(mask, alpha) for mask, alpha
                   in contract_pairs(tab, budget=budget)
                   if within is None or not mask & ~within]
            expected = [(mask, alpha) for mask, alpha in reference.items()
                        if alpha is not None
                        and (within is None or not mask & ~within)
                        and (budget is None or alpha.total() <= budget)]
            assert got == expected
    *_, pencil, _, touch = _tied_line_instances()
    got = dict(contract_pairs(with_table(pencil)))
    assert got == {mask: Contract((F(1, 3) if mask else F(0),))
                   for mask in range(64)}
    got = dict(contract_pairs(with_table(touch)))
    assert got == {0b00: Contract((F(0),)), 0b01: Contract((F(1, 3),)),
                   0b11: Contract((F(1, 3),))}


class _NoWalk(list):
    """A value table that may be read by index but not walked whole."""

    def __iter__(self):
        raise AssertionError("the whole value table was walked")


def test_budgeted_walk_never_walks_the_whole_table():
    # the budget's cut reads f(ground set) once: no pass over 2^m
    for maker in (random_explicit_monotone_instance, random_coverage_instance):
        tab = with_table(maker(17, num_agents=2, num_actions=7))
        guarded = replace(tab, table=_NoWalk(tab.table))
        for budget in (F(0), F(1, 8), F(1, 2), F(1)):
            got = contract_pairs(guarded, budget=budget)
            assert got == contract_pairs(tab, budget=budget)
        assert any(alpha.total() > 0 for _, alpha in got)


def test_unbudgeted_readers_sort_each_agent_once(monkeypatch):
    # the walk without a budget and min_incentivizing_contract read the
    # instance's one cost order; a budget's cut is sorted per walk.  The
    # instance sorts through rewards.cost_runs, the walk's cut through
    # the name equilibria binds, so both are counted
    sorted_for = []
    kernel = equilibria.cost_runs

    def counting(costs):
        sorted_for.append(max(costs))
        return kernel(costs)

    inst = with_table(random_unit_demand_instance(11, num_agents=3,
                                                  num_actions=7))
    want = contract_pairs(inst)
    mics = [min_incentivizing_contract(inst, mask_to_set(mask))
            for mask in range(1 << 7)]
    for module in (equilibria, rewards):
        monkeypatch.setattr(module, "cost_runs", counting)
    fresh = with_table(random_unit_demand_instance(11, num_agents=3,
                                                   num_actions=7))
    assert contract_pairs(fresh) == want
    assert [min_incentivizing_contract(fresh, mask_to_set(mask))
            for mask in range(1 << 7)] == mics
    assert sorted_for == list(fresh.agent_masks)  # once per agent, in order
    assert fresh.agent_cost_runs == tuple(map(kernel, fresh.agent_cost_sums))
    list(iter_min_contracts(fresh, budget=F(1, 2)))  # the cut sorts its own
    assert len(sorted_for) > fresh.num_agents


def test_min_contracts_price_the_largest_agent_first(monkeypatch):
    calls = []
    kernel = equilibria._agent_payments

    def recording(f, runs, rests, cut=None):
        calls.append(max(runs[0]))  # the agent's own mask
        return kernel(f, runs, rests, cut)

    monkeypatch.setattr(equilibria, "_agent_payments", recording)
    # agent 0 owns action 2, agent 1 actions 0, 1, 4 and 5, agent 2
    # action 3 at no cost, agent 3 none
    owners, costs = (1, 1, 0, 2, 1, 1), (1, 2, 1, 0, 3, 1)
    inst = with_table(Instance(4, tuple(Action(a, owners[a], F(costs[a], 24))
                                        for a in range(6)),
                               AdditiveOracle([F(1, 8)] * 6)))
    list(iter_min_contracts(inst))
    assert calls == [0b110011, 0b000100, 0b001000]  # agent 3 is not visited
    # agents 0 and 1 own one action each and tie: they go by index
    calls.clear()
    tied = (2, 1, 0, 2, 2, 2)
    list(iter_min_contracts(with_table(replace(inst, actions=tuple(
        replace(a, owner=tied[a.action_id]) for a in inst.actions)))))
    assert calls == [0b111001, 0b000100, 0b000010]


def test_budget_cuts_every_agents_deviations(monkeypatch):
    handed, cuts = [], []
    kernel = equilibria._agent_payments

    def recording(f, runs, rests, cut=None):
        handed.append(runs)
        cuts.append(cut)
        return kernel(f, runs, rests, cut)

    monkeypatch.setattr(equilibria, "_agent_payments", recording)
    inst = with_table(_dear_second_agent())
    f_den, c_den = inst.oracle.den, inst.int_costs[1]
    top = inst.table[-1]  # f(ground set), scaled
    for budget in (F(0), F(1, 64), F(1, 3), F(1, 2), F(1)):
        handed.clear()
        cuts.clear()
        got = contract_pairs(inst, budget=budget)
        p, q = budget.as_integer_ratio()
        assert len(handed) == 2 and all(  # agent 0, then agent 1
            not d & ~own for runs, own in zip(handed, inst.agent_masks)
            for d in runs[0])
        # each agent's walk cuts per rest, at B * (f(R + T_i) - f(R)) in
        # the payments' units
        cap = (budget * F(c_den, f_den)).as_integer_ratio()
        assert cuts == [(own, *cap) for own in inst.agent_masks]
        for runs in handed:  # c(d) <= B * f(ground set), cross-multiplied
            assert all(c * f_den * q <= p * top * c_den for c in runs[1])
        assert got == [(mask, alpha) for mask, alpha in contract_pairs(
            inst) if alpha.total() <= budget]
        if budget == F(1, 2):  # {3} and {2, 3} are cut, {2} is not
            assert sorted(handed[1][0]) == [0, 0b100]
            assert any(alpha[1] > 0 for _, alpha in got)
    assert list(iter_min_contracts(inst, budget=F(-1, 8))) == []


def test_the_walks_first_record_is_the_empty_profile_unpaid():
    # costs are never negative, so the empty deviation is in every agent's
    # cheapest run; _race and its callers start from this record
    makers = (random_additive_instance, random_unit_demand_instance,
              random_uniform_k_instance, random_oxs_instance,
              random_coverage_instance, random_explicit_monotone_instance,
              random_gs_instance)
    rng = random.Random(83)
    for maker in makers:
        for _ in range(5):
            m = rng.randint(1, 8)
            inst = with_table(maker(rng.randint(0, 10 ** 6),
                                    num_agents=rng.randint(1, min(m, 4)),
                                    num_actions=m))
            for budget in (F(0), F(1, 4), F(1)):
                first = next(iter_min_contracts(inst, budget=budget))
                assert first == (0, 0, inst.int_costs[1], [])
    hard = with_table(build_hardness(HardnessParams.make(4, F(1, 2))))
    assert next(iter_min_contracts(hard)) == (0, 0, hard.int_costs[1], [])


def test_budget_cuts_the_first_rests_and_the_hull_lines(monkeypatch):
    walked = []
    kernel = equilibria._agent_payments

    def recording(f, runs, rests, cut=None):
        rests = list(rests)
        walked.append((list(runs[0]), rests))
        return kernel(f, runs, rests, cut)

    monkeypatch.setattr(equilibria, "_agent_payments", recording)
    # agent 0 owns actions 0-2 and is priced first; its rests are the
    # subsets of the six one-action agents' actions 3-8, and a rest R
    # stays where c(R) <= B * f(R + T_0)
    inst = with_table(Instance(
        7, tuple(Action(a, max(0, a - 2), F(a + 1, 128)) for a in range(9)),
        AdditiveOracle([F(1, 9)] * 9)))
    top = inst.f[-1]
    for budget in (F(3, 32), F(1, 8)):
        walked.clear()
        got = contract_pairs(inst, budget=budget)
        rests = walked[0][1]
        assert rests == [r for r in range(0, 1 << 9, 8)
                         if cost(inst, mask_to_set(r))
                         <= budget * inst.f[r | 0b111]]
        # the per-rest bound cuts rests that c(R) <= B * f(ground set) keeps
        assert any(cost(inst, mask_to_set(r)) <= budget * top
                   for r in set(range(0, 1 << 9, 8)) - set(rests))
        assert len(rests) < 2 ** 6 // 2  # the cut skips most rests
        assert got == [(mask, alpha) for mask, alpha in contract_pairs(
            inst) if alpha.total() <= budget]
        assert any(alpha.total() > 0 for _, alpha in got)
    # one agent: the walk reads the lines within the cut only and sorts
    # them by cost without the other sets ever reaching cost_runs
    sizes = []
    sort = equilibria.cost_runs

    def sized(costs):
        sizes.append(len(costs))
        return sort(costs)

    monkeypatch.setattr(equilibria, "cost_runs", sized)
    inst = with_table(Instance(
        1, tuple(Action(a, 0, F(a + 1, 16)) for a in range(6)),
        AdditiveOracle([F(1, 6)] * 6)))
    for budget in (F(1, 8), F(1, 2)):
        walked.clear()
        sizes.clear()
        list(iter_min_contracts(inst, budget=budget))
        (lines, _), = walked
        within_cut = [d for d in range(64) if cost(inst, mask_to_set(d))
                      <= budget * inst.f[-1]]
        assert sorted(lines) == within_cut and len(lines) < 64
        assert sizes == [len(within_cut)]


def _cut_boundary_instances():
    """(instance, B, pins): explicit monotone, coverage and GS instances,
    n 2-4 and m <= 8, each with costs set so that a rest R of the first
    agent sits exactly on c(R) = B * f(R + T_1) and one deviation {b} of
    every other agent it can on c(b) = B * (f(R' + T_i) - f(R')), with the
    pinned (agent, R', b) in ``pins``."""
    rng = random.Random(89)
    makers = (random_explicit_monotone_instance, random_coverage_instance,
              random_gs_instance)
    for t in range(36):
        n = rng.randint(2, 4)
        base = with_table(makers[t % 3](rng.randint(0, 10 ** 6), num_agents=n,
                                        num_actions=rng.randint(n + 1, 8)))
        f, masks, m = base.f, base.agent_masks, base.num_actions
        budget = rng.choice((F(1, 4), F(1, 2), F(3, 4), F(1)))
        costs = [rng.choice((F(0), F(0), F(1, 32), F(1, 8), F(1, 2)))
                 for _ in range(m)]
        first = max(range(n), key=lambda i: (masks[i].bit_count(), -i))
        others = (1 << m) - 1 & ~masks[first]
        if not others:
            continue
        rest = rng.choice(rewards.submasks(others)[1:])
        a, *free = mask_to_set(rest)
        for b in free:
            costs[b] = F(0)
        costs[a] = budget * f[rest | masks[first]]
        pins = []
        for i, own in enumerate(masks):
            if own & ~rest:
                b = rng.choice(sorted(mask_to_set(own & ~rest)))
                at = rng.choice(rewards.submasks((1 << m) - 1 & ~own))
                costs[b] = budget * (f[at | own] - f[at])
                pins.append((i, at, b))
        inst = with_table(Instance(n, tuple(
            Action(k, base.owner_of[k], costs[k]) for k in range(m)),
            base.oracle))
        assert cost(inst, mask_to_set(rest)) == budget * f[rest | masks[first]]
        yield inst, budget, pins


def test_budget_cuts_keep_the_profiles_on_their_bounds():
    # the walk keeps per rest R the deviations with c(d) <= B * (f(R + T_i)
    # - f(R)), and for the first agent the rests with c(R) <= B * f(R +
    # T_1): weak bounds, the second with f(empty) = 0 rather than f(R).  A
    # profile on either bound can pay exactly B.
    for inst, budget, pins in _cut_boundary_instances():
        assert all(inst.cost_of[b] == budget * (inst.f[at | inst.agent_masks[i]]
                                                - inst.f[at])
                   for i, at, b in pins)
        assert contract_pairs(inst, budget=budget) == [
            (mask, alpha) for mask, alpha in contract_pairs(inst)
            if alpha.total() <= budget]


def test_cost_runs_are_sorted_once_per_walk(monkeypatch):
    # each walk sorts the deviations of each agent it visits, once, and
    # under a budget B only those with c(d) <= B * f(ground set): the
    # others are neither summed nor sorted.  Without a budget the instance
    # sorts through rewards.cost_runs, so both bound names are counted
    sorts = []
    sort = equilibria.cost_runs

    def counting(costs):
        sorts.append(sorted(costs.items()))
        return sort(costs)

    for module in (equilibria, rewards):
        monkeypatch.setattr(module, "cost_runs", counting)
    inst = with_table(random_unit_demand_instance(4, num_agents=3,
                                                  num_actions=7))
    assert all(inst.agent_masks)  # the walk visits every agent
    f_den, c_den = inst.oracle.den, inst.int_costs[1]
    top = inst.table[-1]  # f(ground set), scaled
    cut = 0
    for budget in (None, F(1, 2), F(1, 4)):
        sorts.clear()
        list(iter_min_contracts(inst, budget=budget))
        p, q = (budget or F(1)).as_integer_ratio()
        want = [sorted((d, c) for d, c in costs.items() if budget is None
                       or c * f_den * q <= p * top * c_den)
                for costs in inst.agent_cost_sums]
        assert sorted(sorts) == sorted(want)
        cut += sum(len(costs) - len(w)
                   for costs, w in zip(inst.agent_cost_sums, want))
    assert cut > 0  # some budget cuts some agent's deviations
    # the exact single-agent solver reads the same walk: one sort per
    # agent, whichever agent it pays
    for i in range(inst.num_agents):
        sorts.clear()
        gs_single_agent_exact(inst, i, PROFIT, F(1))
        assert len(sorts) == inst.num_agents
    # the GS pipeline prices every stage from one walk: one sort per agent
    # per solve
    gs = random_unit_demand_instance(5, num_agents=3, num_actions=7)
    for budget in (F(1, 2), F(1)):
        sorts.clear()
        gs_constant_factor(gs, budget, PROFIT)
        assert len(sorts) == 3


def test_single_agent_scheme_reads_one_min_contract_walk(monkeypatch):
    # the answer is raced over one iter_min_contracts pass, and the
    # envelope kernel runs inside that walk alone
    walks, running, kernel_calls = [], [], []
    walk, kernel = solvers.iter_min_contracts, equilibria._agent_payments

    def counted_walk(inst, **kwargs):
        walks.append(kwargs)
        running.append(True)
        yield from walk(inst, **kwargs)
        running.pop()

    def recording(f, runs, rests, cut=None):
        kernel_calls.append(bool(running))  # whether a walk is running
        return kernel(f, runs, rests, cut)

    monkeypatch.setattr(solvers, "iter_min_contracts", counted_walk)
    monkeypatch.setattr(equilibria, "_agent_payments", recording)
    rng = random.Random(17)
    for _ in range(6):
        inst = random_explicit_monotone_instance(rng.randint(0, 10 ** 6),
                                                 num_actions=rng.randint(2, 6))
        budget = F(rng.randint(1, 4), 4)
        walks.clear()
        kernel_calls.clear()
        single_agent_fptas(inst, budget, F(1, 4))
        assert walks == [{"budget": budget}] and not running
        assert kernel_calls == [True]


def _reference_race(obj, inst, pairs):
    """The race on (mask, contract) pairs with one evaluate per pair,
    from the zero contract on the empty profile."""
    best_alpha, best_profile = Contract.zero(inst.num_agents), frozenset()
    best_value = evaluate(obj, inst, best_alpha, best_profile)
    for mask, alpha in pairs:
        v = evaluate(obj, inst, alpha, mask_to_set(mask))
        if v > best_value:
            best_alpha, best_profile, best_value = alpha, mask_to_set(mask), v
    return best_alpha, best_profile, best_value


def _scaled_costs(inst, factor):
    """``inst``, value table included, with every action cost times
    ``factor``."""
    return replace(inst, actions=tuple(replace(a, cost=a.cost * factor)
                                       for a in inst.actions))


def _reference_gs(inst, budget, obj):
    """gs_constant_factor's stages, every race by :func:`_reference_race`."""
    inst = with_table(inst)
    scaled = _scaled_costs(inst, F(4, 3) / budget)
    base = _reference_race(PROFIT, scaled, contract_pairs(scaled, budget=F(1)))
    rescaled = (base[0].scale(F(3, 4) * budget), base[1])
    pairs = contract_pairs(inst, budget=budget)
    singles = [[(mask, a) for mask, a in pairs if not mask & ~own]
               for own in inst.agent_masks]
    mrb = max([rescaled] + [_reference_race(REWARD, inst, p)[:2] for p in singles],
              key=lambda pair: evaluate(REWARD, inst, *pair))
    final = [downsize(inst, 6, *mrb)] + \
        [_reference_race(obj, inst, p)[:2] for p in singles]
    best = max(final, key=lambda pair: evaluate(obj, inst, *pair))
    return best[0], best[1], evaluate(obj, inst, *best)


RACE_OBJECTIVES = (PROFIT, REWARD, WELFARE,
                   combo((F(1, 3), WELFARE), (F(2, 3), PROFIT)),
                   combo((F(1, 2), combo((F(1, 3), PROFIT), (F(2, 3), WELFARE))),
                         (F(1, 2), REWARD)))


def test_races_match_a_reference_race_over_every_pair():
    rng = random.Random(61)
    instances = list(_tied_line_instances(model=True))[::3] + [
        random_gs_instance(rng.randint(0, 10 ** 6), num_agents=rng.randint(1, 3),
                           num_actions=rng.randint(2, 6)) for _ in range(6)]
    tied = 0
    for inst in instances:
        tabled = with_table(inst)
        for obj in RACE_OBJECTIVES:
            for budget in (F(1, 4), F(2, 3), F(1)):
                pairs = contract_pairs(tabled, budget=budget)
                want = _reference_race(obj, tabled, pairs)
                got = brute_force_opt(inst, budget, obj)
                assert (got.contract, got.profile, got.value) == want
                values = [evaluate(obj, tabled, a, mask_to_set(mask))
                          for mask, a in pairs]
                tied += values.count(want[2]) > 1
                for agent, own in enumerate(tabled.agent_masks):
                    want = _reference_race(obj, tabled, [
                        (mask, a) for mask, a in pairs if not mask & ~own])
                    got = gs_single_agent_exact(inst, agent, obj, budget)
                    assert (got.contract, got.profile, got.value) == want
                got = gs_constant_factor(inst, budget, obj, force=True)
                assert (got.contract, got.profile, got.value) == \
                    _reference_gs(inst, budget, obj)
    assert tied > 20  # equal values keep the first pair


def test_gs_pipeline_enumerates_minimal_contracts_once(monkeypatch):
    calls = collections.Counter()

    def counting(name):
        kernel = getattr(solvers, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)
        monkeypatch.setattr(solvers, name, counted)

    for name in ("iter_min_contracts", "brute_force_opt", "evaluate"):
        counting(name)
    inst = random_unit_demand_instance(6, num_agents=3, num_actions=6)
    for budget, enumerations in ((F(1, 2), 1), (F(1), 1), (F(0), 0)):
        for obj in RACE_OBJECTIVES:
            calls.clear()
            gs_constant_factor(inst, budget, obj)
            # the stages keep their picks' values: only the downsized
            # pair (at B = 0 the zero pair) is valued again
            assert calls == collections.Counter(
                iter_min_contracts=enumerations, evaluate=1)


def test_a_contract_is_built_only_for_winners(monkeypatch):
    built = collections.Counter()
    post_init = Contract.__post_init__

    def counting(inst, paid):
        built["contract_of"] += 1
        return equilibria.contract_of(inst, paid)

    def counted_post_init(self):
        built["Contract"] += 1
        post_init(self)

    monkeypatch.setattr(solvers, "contract_of", counting)
    monkeypatch.setattr(Contract, "__post_init__", counted_post_init)
    # additive, three agents: 48 records at B = 1, 4 of them agent 1's
    inst = with_table(Instance(3, tuple(Action(a, a % 3, F(a + 1, 256))
                                        for a in range(8)),
                               AdditiveOracle([F(1, 8)] * 8)))
    n, budget = inst.num_agents, F(1)
    assert len(list(iter_min_contracts(inst, budget=budget))) > 2 * n + 1
    for obj in RACE_OBJECTIVES:
        # neither the walk nor the race makes a Contract: the winner's is
        # the only one
        for solve in (lambda: brute_force_opt(inst, budget, obj),
                      lambda: gs_single_agent_exact(inst, 1, obj, budget)):
            built.clear()
            solve()
            assert built == {"contract_of": 1, "Contract": 1}
        built.clear()
        gs_constant_factor(inst, budget, obj)
        assert 1 <= built["contract_of"] <= 2 * n + 1


def test_gs_pipeline_builds_no_fraction_view(monkeypatch):
    # every stage, downsizing's demand queries included, reads the int
    # table; only the tests read Instance.f
    def refuse(ints, den):
        raise AssertionError("the Fraction view of the table was built")

    monkeypatch.setattr(core, "as_fractions", refuse)
    for seed, obj in ((5, PROFIT), (6, REWARD), (7, WELFARE)):
        inst = with_table(random_unit_demand_instance(seed, num_agents=3,
                                                      num_actions=8))
        for budget in (F(1, 4), F(1, 2), F(1)):
            gs_constant_factor(inst, budget, obj)
        alpha = Contract.of([F(1, 2)] * 3)
        profile = ne_from_demand(inst, alpha)
        downsize(inst, 6, alpha, profile)
        assert ne_from_demand(inst, alpha, profile) == profile
    with pytest.raises(AssertionError, match="Fraction view"):
        inst.f


def test_profit_base_is_the_rescaled_optimum_at_scaled_costs():
    rng = random.Random(71)
    instances = list(_tied_line_instances(model=True)) + [
        random_gs_instance(rng.randint(0, 10 ** 6), num_agents=rng.randint(1, 3),
                           num_actions=rng.randint(2, 6)) for _ in range(12)]
    tied = 0
    for inst in map(with_table, instances):
        f = inst.f
        for budget in (F(1, 4), F(2, 3), F(1)):
            cap = F(3, 4) * budget
            records = list(iter_min_contracts(inst, budget=budget))
            pairs = contract_pairs(inst, budget=budget)
            want = brute_force_opt(_scaled_costs(inst, 1 / cap), F(1), PROFIT)
            alpha, profile, reward = solvers._profit_base(inst, records, budget)
            assert (alpha, profile) == (want.contract.scale(cap), want.profile)
            assert reward == f[set_to_mask(profile)]
            assert want.value * cap == (cap - alpha.total()) * reward
            values = [cap * f[0]] + [(cap - a.total()) * f[mask]
                                        for mask, a in pairs if a.total() <= cap]
            tied += values.count(max(values)) > 1
    assert tied > 20  # equal values keep the first pair


# the cost levels repeat, so actions tie; zero costs are among them
_COSTS = st.sampled_from([F(0), F(0), F(1, 16), F(1, 8), F(1, 8), F(1, 4)])
_WEIGHTS = st.sampled_from([F(0), F(1, 8), F(1, 4), F(1, 4), F(1, 2), F(1)])


@st.composite
def _small_gs_instances(draw):
    """Unit-demand, uniform-k, OXS or additive rewards on m <= 7 actions
    of 1 to 3 agents, owners drawn freely (an agent may own none)."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 7))
    owners = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    costs = draw(st.lists(_COSTS, min_size=m, max_size=m))
    weights = st.lists(_WEIGHTS, min_size=m, max_size=m)
    family = draw(st.sampled_from(["unit", "uniform", "oxs", "additive"]))
    if family == "unit":
        oracle = UnitDemandOracle(draw(weights))
    elif family == "uniform":
        k = draw(st.integers(1, m))
        oracle = UniformKDemandOracle(m, k, draw(_WEIGHTS) / k)
    elif family == "oxs":  # two columns, each worth at most 1/2
        oracle = AssignmentOracle([[w / 2 for w in draw(st.lists(
            _WEIGHTS, min_size=2, max_size=2))] for _ in range(m)])
    else:
        oracle = AdditiveOracle([w / 8 for w in draw(weights)])
    return Instance(n, tuple(Action(a, owners[a], costs[a])
                             for a in range(m)), oracle)


@settings(max_examples=50, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_small_gs_instances())
# agent 1 owns no action; actions 0 and 2 tie, action 1 costs nothing
@example(Instance(3, (Action(0, 0, F(1, 8)), Action(1, 2, F(0)),
                      Action(2, 0, F(1, 8))),
                  UnitDemandOracle([F(1, 2), F(1, 4), F(1, 2)])))
def test_gs_pipeline_matches_the_per_stage_reference(inst):
    for budget in (F(1, 4), F(1, 2), F(2, 3), F(3, 4), F(1)):
        for obj in RACE_OBJECTIVES:
            got = gs_constant_factor(inst, budget, obj, force=True)
            assert (got.contract, got.profile, got.value) == \
                _reference_gs(inst, budget, obj)


def test_brute_force_output_is_feasible_equilibrium():
    rng = random.Random(2)
    for _ in range(10):
        inst = random_gs_instance(rng.randint(0, 10 ** 6), num_agents=2,
                                  num_actions=4)
        budget = F(rng.randint(1, 4), 4)
        for obj in (PROFIT, REWARD, WELFARE):
            r = brute_force_opt(inst, budget, obj)
            assert r.contract.total() <= budget
            assert is_nash(inst, r.contract, r.profile).ok


# -- discretized payment table ------------------------------------------------


def _payment(dp, j, t):
    """Row j's payment at column t as a Fraction; None past the row's end."""
    ends = dp.ends[j]
    if not 0 <= t < ends[-1]:
        return None
    return F(dp.pays[j][bisect_right(ends, t)], dp.layout.den)


def _chosen_pair(dp, t):
    """The (contract, profile) behind column t: :meth:`DpTable.choices` as
    each agent's prefix payment and the union of the prefixes' actions."""
    layout = dp.layout
    ells = dp.choices(t)
    alpha = tuple(F(pays[ell], layout.den)
                  for pays, ell in zip(layout.prefix_payment, ells))
    mask = functools.reduce(operator.or_, (
        masks[ell] for masks, ell in zip(layout.prefix_mask, ells)), 0)
    return Contract(alpha), mask_to_set(mask)


def _prefix_ratio(dp):
    """Each prefix's payment as a Fraction."""
    return tuple(tuple(F(p, dp.layout.den) for p in pays)
                 for pays in dp.layout.prefix_payment)


def test_dp_table_single_action_zero_column():
    inst = Instance(1, (Action(0, 0, F(1, 8)),), AdditiveOracle([F(1, 2)]))
    dp = build_dp_table(_PrefixLayout.build(inst, "f", F(1, 2), None), F(1, 2))
    assert _payment(dp, 0, 0) == 0
    assert _payment(dp, 1, 0) == 0
    assert all(_payment(dp, 0, t) is None for t in range(1, dp.t_max + 1))
    with pytest.raises(ModelError):
        build_dp_table(dp.layout, F(0))


@pytest.mark.parametrize("budget, eps", [
    (F(-1, 2), F(1, 2)), (0.5, F(1, 2)), (None, F(1, 2)),
    (F(1, 2), F(0)), (F(1, 2), F(1)), (F(1, 2), 0.5)])
def test_additive_fptas_refuses_its_arguments_before_any_read(budget, eps):
    # the layout takes its budget and eps as checked by the solver
    inst = Instance(1, (Action(0, 0, F(1, 8)),), AdditiveOracle([F(1, 2)]))
    with pytest.raises(ModelError):
        additive_fptas(inst, budget, eps, PROFIT)
    assert inst.oracle.value_queries == 0


def test_the_fptas_refuse_the_budget_before_eps():
    inst = Instance(1, (Action(0, 0, F(1, 8)),), AdditiveOracle([F(1, 2)]))
    for solve in (lambda b, e: additive_fptas(inst, b, e, PROFIT),
                  lambda b, e: single_agent_fptas(inst, b, e)):
        with pytest.raises(ModelError, match=r"^budget must lie in \[0, 1\]$"):
            solve(F(-1, 2), F(0))
        with pytest.raises(ModelError, match=r"^eps must lie in \(0, 1\)$"):
            solve(F(1, 2), F(1))
    assert inst.oracle.value_queries == 0


def test_dp_table_matches_prefix_enumeration():
    # one agent, two actions, weights (1/2, 1/2), costs (1/8, 1/4), eps = 1/2:
    # delta*b = 1/8, discretized singletons = 4 steps each; the three
    # prefixes cost 0, 1/4 and 1/2
    inst = Instance(1, (Action(0, 0, F(1, 8)), Action(1, 0, F(1, 4))),
                    AdditiveOracle([F(1, 2), F(1, 2)]))
    dp = build_dp_table(_PrefixLayout.build(inst, "f", F(1, 2), None), F(1, 2))
    # delta = eps/|T| = 1/4, b = 1/2
    assert dp.layout.eps / dp.layout.num_actions * dp.b == F(1, 8)
    expected = {}
    for t in range(dp.t_max + 1):
        # cheapest prefix whose discretized weight reaches t steps
        best = None
        for ell, (weight, ratio) in enumerate([(0, F(0)), (4, F(1, 4)), (8, F(1, 2))]):
            if weight >= t and (best is None or ratio < best):
                best = ratio
        expected[t] = best
    for t in range(dp.t_max + 1):
        assert _payment(dp, 1, t) == expected[t]


def test_dp_table_monotone_rows():
    rng = random.Random(3)
    for _ in range(10):
        inst = random_additive_instance(rng.randint(0, 10 ** 6))
        inst = with_table(inst)
        for basis in ("f", "f-c"):
            layout = _PrefixLayout.build(inst, basis, F(1, 4), None)
            dp = build_dp_table(layout, F(1, 4))
            row = [_payment(dp, inst.num_agents, t) for t in range(dp.t_max + 1)]
            seen = [p for p in row if p is not None]
            assert all(x <= y for x, y in zip(seen, seen[1:]))
            # None entries only at the top end
            tail = row[row.index(None):] if None in row else []
            assert all(p is None for p in tail)


def test_dp_reconstruction_matches_table_payment():
    rng = random.Random(5)
    for _ in range(10):
        inst = random_additive_instance(rng.randint(0, 10 ** 6), num_agents=2)
        inst = with_table(inst)
        dp = build_dp_table(_PrefixLayout.build(inst, "f", F(1, 4), None),
                            F(1, 2))
        for t in range(dp.t_max + 1):
            if _payment(dp, inst.num_agents, t) is None:
                continue
            alpha, profile = _chosen_pair(dp, t)
            assert alpha.total() == _payment(dp, inst.num_agents, t)
            assert is_nash(inst, alpha, profile).ok


def _reference_rows(dp):
    """The per-cell fill the row-at-a-time DP replaced: full-width rows with
    None for unreachable entries, and per-cell (prefix length, previous
    column) choices; the first strict minimum over prefixes wins."""
    t_max = dp.t_max
    rows = [[0] + [None] * t_max]
    choices = [[None] * (t_max + 1)]
    for weights, ratios in zip(dp.prefix_weight, _prefix_ratio(dp)):
        prev = rows[-1]
        pay = [int(r * dp.layout.den) for r in ratios]
        row = [None] * (t_max + 1)
        ch = [None] * (t_max + 1)
        for t in range(t_max + 1):
            for ell, w in enumerate(weights):
                idx = max(t - w, 0)
                if idx > t_max or prev[idx] is None:
                    continue
                cand = prev[idx] + pay[ell]
                if row[t] is None or cand < row[t]:
                    row[t], ch[t] = cand, (ell, idx)
        rows.append(row)
        choices.append(ch)
    return rows, choices


def _dense_rows(dp, budget):
    """The dense fill the step rows replaced: each row a list over the
    reachable columns 0..t_max, one min-plus list pass per prefix, cut
    after its last entry within ``budget``."""
    t_max = dp.t_max
    den = dp.layout.den
    cap = None if budget is None else budget.numerator * den // budget.denominator
    rows = [[0]]
    for weights, ratios in zip(dp.prefix_weight, _prefix_ratio(dp)):
        prev = rows[-1]
        row = []
        for w, p in zip(weights, [int(r * den) for r in ratios]):
            start = 0
            if w > 0:
                start = min(w, t_max + 1)
                c = prev[0] + p
                k = bisect_right(row, c, 0, min(start, len(row)))
                row[k:start] = [c] * (start - k)
            cand = [x + p for x in prev[max(-w, 0):t_max + 1 - start]]
            ov = row[start:start + len(cand)]
            row[start:start + len(ov)] = [x if x < y else y
                                          for x, y in zip(ov, cand)]
            row += cand[len(ov):]
        if cap is not None:
            del row[bisect_right(row, cap):]
        rows.append(row)
    return rows


def _expanded(dp, j):
    """Row j of ``dp`` written out entry by entry, with its step invariants
    checked on the way."""
    ends, pays = dp.ends[j], dp.pays[j]
    assert ends and len(ends) == len(pays)
    assert 0 < ends[0] and all(x < y for x, y in zip(ends, ends[1:]))
    assert all(x < y for x, y in zip(pays, pays[1:]))
    assert ends[-1] <= dp.t_max + 1
    row = []
    for start, stop, p in zip((0, *ends), ends, pays):
        row += [p] * (stop - start)
    return row


def _check_against_references(inst, dp, basis, budget):
    """Step rows equal to the dense fill and to the per-cell reference, and
    the pair :meth:`DpTable.choices` picks equal to the per-cell choices'
    at every reachable column."""
    order = _reference_layout(inst, basis, dp.b, dp.layout.eps, budget)[0]
    rows, choices = _reference_rows(dp)
    dense = _dense_rows(dp, budget)
    for j, ref in enumerate(rows):
        kept = [p for p in ref if p is not None
                and (budget is None or F(p, dp.layout.den) <= budget)]
        assert _expanded(dp, j) == kept
        assert dense[j] == kept
        assert [_payment(dp, j, t) for t in range(dp.t_max + 1)] == \
            [F(p, dp.layout.den) for p in kept] \
            + [None] * (dp.t_max + 1 - len(kept))
    reach = dp.ends[-1][-1]
    for t in range(reach):
        assert _chosen_pair(dp, t) == \
            _reference_reconstruct(dp, order, choices, t)
    for t in (-1, reach):
        with pytest.raises(ModelError, match="unreachable"):
            dp.choices(t)


def _reference_reconstruct(dp, order, choices, t):
    """The pair behind column t of the per-cell ``choices``, agent i's
    prefixes read from ``order[i]``, the reference layout's action order."""
    ratios = _prefix_ratio(dp)
    alpha = [F(0)] * len(order)
    chosen = set()
    for j in range(len(order), 0, -1):
        ell, t = choices[j][t]
        if ell > 0:
            alpha[j - 1] = ratios[j - 1][ell]
            chosen.update(order[j - 1][:ell])
    return Contract(tuple(alpha)), frozenset(chosen)


def _argmin_walk(dp, order, rows, t):
    """The pair behind column t of the dense ``rows``: walking down from
    agent n, each agent takes the first prefix of least candidate, agent
    i's prefixes read from ``order[i]``."""
    ratios, den = _prefix_ratio(dp), dp.layout.den
    alpha = [F(0)] * len(order)
    chosen = set()
    for j in range(len(order), 0, -1):
        prev = rows[j - 1]
        best = None
        for ell, (w, r) in enumerate(zip(dp.prefix_weight[j - 1], ratios[j - 1])):
            idx = max(t - w, 0)
            if idx < len(prev) and (best is None or prev[idx] + r * den < best[0]):
                best = prev[idx] + r * den, ell, idx
        _, ell, t = best
        if ell > 0:
            alpha[j - 1] = ratios[j - 1][ell]
            chosen.update(order[j - 1][:ell])
    return Contract(tuple(alpha)), frozenset(chosen)


def _reference_picks(inst, budget, eps, obj, *, dense=False, stop=True):
    """Each swept scale's (contract, profile) pick, by descending scale,
    from a reference fill and the scan-based selection: the per-cell rows
    and choices, or with ``dense`` the dense rows and an argmin walk down
    them (fast enough for m = 40 at eps = 1/20).  The scales are the
    positive phi of the actions whose ratio c_a / f({a}) is within the
    budget; the sweep ends where :func:`swept_scales` ends it, or with
    ``stop`` false covers every scale."""
    basis = "f-c" if obj is WELFARE else "f"
    scales = set()
    for a in range(inst.num_actions):
        f_a = inst.oracle.value(frozenset({a}))
        b = f_a - inst.cost_of[a] if basis == "f-c" else f_a
        if f_a > 0 and b > 0 and inst.cost_of[a] <= budget * f_a:
            scales.add(b)
    picks = []

    def each():
        for b in sorted(scales, reverse=True):
            dp = build_dp_table(_PrefixLayout.build(inst, basis, eps, budget),
                                b)
            order = _reference_layout(inst, basis, b, eps, budget)[0]
            if dense:
                rows = _dense_rows(dp, budget)
                pick = functools.partial(_argmin_walk, dp, order, rows)
            else:
                rows, choices = _reference_rows(dp)
                pick = functools.partial(_reference_reconstruct, dp, order,
                                         choices)
            row, den = rows[-1], dp.layout.den
            top, scale = budget.numerator * den, budget.denominator
            affordable = [t for t, p in enumerate(row)
                          if p is not None and p * scale <= top]
            t_star = max(affordable)  # column 0 pays nothing
            if obj is PROFIT:
                # the best (1 - payment) * t, the later column on a tie
                _, t_star = max(((den - p) * t, t)
                                for t, p in enumerate(row[:t_star + 1])
                                if p is not None)
            picks.append(pick(t_star))
            yield set_to_mask(picks[-1][1])

    if stop:
        swept_scales(inst, budget, obj, each())
    else:
        list(each())
    return picks


def _reference_fptas(inst, budget, eps, obj, *, dense=False, stop=True):
    """additive_fptas on :func:`_reference_picks`, each pick evaluated."""
    best = Contract.zero(inst.num_agents), frozenset()
    best_value = evaluate(obj, inst, *best)
    for pair in _reference_picks(inst, budget, eps, obj, dense=dense,
                                 stop=stop):
        v = evaluate(obj, inst, *pair)
        if v > best_value:
            best, best_value = pair, v
    return best, best_value


def _size_stable_additive(seed, n=None, m=None):
    # cost = weight * factor below 1: every action has positive welfare
    rng = random.Random(seed)
    n, m = n or rng.randint(1, 4), m or rng.randint(2, 9)
    raw = [rng.randint(1, 20) for _ in range(m)]
    weights = [F(w, 2 * sum(raw)) for w in raw]
    actions = tuple(Action(a, rng.randrange(n), weights[a] * F(rng.randint(1, 31), 32))
                    for a in range(m))
    return Instance(n, actions, AdditiveOracle(weights))


def _differential_instances():
    rng = random.Random(11)
    for _ in range(4):
        yield random_additive_instance(rng.randint(0, 10 ** 6))
        yield _size_stable_additive(rng.randint(0, 10 ** 6))


def test_dp_table_matches_per_cell_reference():
    negative_weights = 0
    for inst in _differential_instances():
        scales = sorted({inst.oracle.value(frozenset({a}))
                         for a in range(inst.num_actions)} - {0})
        for basis, eps, budget in itertools.product(
                ("f", "f-c"), (F(1, 2), F(1, 4), F(1, 10)),
                (None, F(0), F(1, 4), F(1, 2), F(1))):
            for b in scales[-2:]:
                dp = build_dp_table(
                    _PrefixLayout.build(inst, basis, eps, budget), b)
                negative_weights += any(w < 0 for ws in dp.prefix_weight for w in ws)
                _check_against_references(inst, dp, basis, budget)
    assert negative_weights > 0  # the f-c basis produced negative shifts


def test_dp_step_rows_match_references_at_scale():
    inst = _size_stable_additive(5, n=4, m=40)
    top = max(inst.oracle.value(frozenset({a})) for a in range(inst.num_actions))
    most_steps = 0
    for basis, budget in itertools.product(("f", "f-c"), (None, F(0), F(1, 2))):
        dp = build_dp_table(_PrefixLayout.build(inst, basis, F(1, 4), budget),
                            top)
        _check_against_references(inst, dp, basis, budget)
        most_steps = max(most_steps, len(dp.pays[-1]))
    assert most_steps >= 10


def test_fptas_matches_per_cell_reference():
    for inst in _differential_instances():
        for eps, budget, obj in itertools.product(
                (F(1, 2), F(1, 4), F(1, 10)), (F(0), F(1, 4), F(1, 2), F(1)),
                (PROFIT, REWARD, WELFARE)):
            got = additive_fptas(inst, budget, eps, obj)
            pair, value = _reference_fptas(inst, budget, eps, obj)
            assert (got.contract, got.profile, got.value) == (*pair, value)


def test_integer_sweep_matches_reference_with_and_without_table():
    """The integer sweep against the reference sweep, on instances up to
    m = 40, solved on the oracle and, up to m = 14, on the value table;
    some actions are worth less than they cost (negative phi on the f-c
    basis, never a scale)."""
    negative_phi = 0
    budgets = (F(0), F(1, 4), F(1, 2), F(1))
    cases = [(inst, budgets) for inst in (*_differential_instances(),
                                          *_tied_picks(),
                                          _with_zero_singletons(4),
                                          _size_stable_additive(7, n=3, m=14))]
    # at m = 40 the reference's dense rows grow with the budget; budget
    # 1/2 there is pinned scale by scale in the read-order test below
    cases.append((_size_stable_additive(5, n=4, m=40), (F(0), F(1, 4))))
    for inst, budgets in cases:
        solved = [inst, with_table(inst)] if inst.num_actions <= 14 else [inst]
        for eps, budget, obj in itertools.product(
                (F(1, 2), F(1, 10), F(1, 20)), budgets,
                (PROFIT, REWARD, WELFARE)):
            pair, value = _reference_fptas(inst, budget, eps, obj, dense=True)
            for one in solved:
                got = additive_fptas(one, budget, eps, obj)
                assert (got.contract, got.profile, got.value) == (*pair, value)
                assert got.contract.total() <= budget
                assert (got.value_queries == 0) == (one.table is not None)
        negative_phi += any(inst.oracle.weights[a] < inst.cost_of[a]
                            for a in range(inst.num_actions))
    assert negative_phi > 0


def _reference_layout(inst, basis, b, eps, budget):
    """The per-table Fraction layout the solve-wide integer layout replaced:
    f({a}) read per use, three cost / f divisions per action and
    floor(phi / (delta * b)) on Fractions.  Returns (agent_order,
    prefix_ratio, prefix_weight, t_max, den)."""
    m = inst.num_actions
    step = eps / m * b

    def f(a):
        return inst.oracle.value(frozenset({a}))

    agent_order, prefix_ratio, prefix_weight = [], [], []
    for i in range(inst.num_agents):
        kept = [a for a in sorted(inst.agent_actions[i]) if f(a) > 0]
        kept.sort(key=lambda a: (inst.cost_of[a] / f(a), a))
        if budget is not None:
            kept = [a for a in kept if inst.cost_of[a] / f(a) <= budget]
        agent_order.append(tuple(kept))
        ratios, weights, acc = [F(0)], [0], 0
        for a in kept:
            ratios.append(inst.cost_of[a] / f(a))
            phi = f(a) - inst.cost_of[a] if basis == "f-c" else f(a)
            acc += phi // step
            weights.append(acc)
        prefix_ratio.append(tuple(ratios))
        prefix_weight.append(tuple(weights))
    t_cap = math.ceil(F(m * m) / eps)
    t_max = min(t_cap, max(sum(max(w) for w in prefix_weight), 0))
    den = 1
    for ratios in prefix_ratio:
        for r in ratios:
            den = den * r.denominator // math.gcd(den, r.denominator)
    return tuple(agent_order), tuple(prefix_ratio), tuple(prefix_weight), t_max, den


def _tied_picks():
    """Instances where a scale's pick only ties the best so far, which the
    earlier pick keeps: profit 0 at budget 1 against the unpaid profile,
    and two profit scales whose picks are both worth 1/4."""
    def additive(owners, weights, costs):
        return Instance(max(owners) + 1,
                        tuple(Action(a, i, F(c)) for a, (i, c)
                              in enumerate(zip(owners, costs))),
                        AdditiveOracle([F(w) for w in weights]))
    return (additive((0, 1, 0), ("1/4", 0, "1/8"), ("1/4", "3/16", "1/4")),
            additive((0,) * 5, (0, "1/8", "3/8", 0, 0),
                     ("1/4", "1/16", "1/8", "1/16", "1/16")))


def _with_zero_singletons(seed):
    # a size-stable instance plus three worthless actions that still cost
    inst = _size_stable_additive(seed, m=6)
    extra = tuple(Action(6 + k, k % inst.num_agents, F(k + 1, 64)) for k in range(3))
    return Instance(inst.num_agents, inst.actions + extra,
                    AdditiveOracle([*inst.oracle.weights, F(0), F(0), F(0)]))


def test_dp_layout_matches_fraction_reference():
    negative_weights = zero_singletons = 0
    insts = [*_differential_instances(), _with_zero_singletons(2),
             _with_zero_singletons(9)]
    for inst in insts:
        singles = [inst.oracle.value(frozenset({a})) for a in range(inst.num_actions)]
        zero_singletons += singles.count(0)
        # every scale either basis sweeps
        scales = sorted({v for a, f_a in enumerate(singles) if f_a > 0
                         for v in (f_a, f_a - inst.cost_of[a]) if v > 0})
        for basis, eps, budget in itertools.product(
                ("f", "f-c"), (F(1, 2), F(3, 10), F(1, 10), F(2, 7)),
                (None, F(0), F(1, 4), F(1, 2), F(1))):
            for b in scales:
                before = inst.oracle.value_queries
                dp = build_dp_table(
                    _PrefixLayout.build(inst, basis, eps, budget), b)
                # building the layout reads each singleton once
                assert inst.oracle.value_queries - before == inst.num_actions
                order, ratios, weights, t_max, den = _reference_layout(
                    inst, basis, b, eps, budget)
                assert dp.layout.prefix_mask == tuple(
                    tuple(itertools.accumulate((1 << a for a in kept),
                                               operator.or_, initial=0))
                    for kept in order)
                assert _prefix_ratio(dp) == ratios
                assert dp.prefix_weight == weights
                assert (dp.t_max, dp.layout.den) == (t_max, den)
                assert dp.layout.eps / dp.layout.num_actions \
                    == eps / inst.num_actions
                assert dp.layout.prefix_payment == tuple(
                    tuple(int(r * den) for r in rs) for rs in ratios)
                negative_weights += basis == "f-c" and any(
                    w < 0 for ws in weights for w in ws)
    assert negative_weights > 0  # the f-c basis floors negative phi
    assert zero_singletons > 0


def test_fptas_reads_each_singleton_once():
    for m in (8, 14, 16, 40):
        base = _size_stable_additive(m, n=3, m=m)
        oracle = LoggedAdditive(base.oracle.weights)
        inst = Instance(base.num_agents, base.actions, oracle)
        for obj in (PROFIT, REWARD, WELFARE):
            oracle.log.clear()
            r = additive_fptas(inst, F(1, 2), F(1, 10), obj)
            swept = swept_scales(base, F(1, 2), obj, oracle.log[m + 1:])
            assert r.value_queries == len(oracle.log) == m + 1 + len(swept)
            # the singletons first, each once; then f of the empty profile
            # and of each swept scale's pick, by descending scale
            assert collections.Counter(oracle.log[:m]) == \
                {1 << a: 1 for a in range(m)}
            assert oracle.log[m] == 0
            assert oracle.log[m + 1:] == [
                set_to_mask(profile) for _, profile in _reference_picks(
                    base, F(1, 2), F(1, 10), obj, dense=True)]
            if m <= 16:
                tabled = with_table(inst)
                oracle.log.clear()
                got = additive_fptas(tabled, F(1, 2), F(1, 10), obj)
                assert got.value_queries == 0 and oracle.log == []
                assert (got.contract, got.profile, got.value) == \
                    (r.contract, r.profile, r.value)


def test_fptas_walks_each_swept_scale_once_and_builds_one_contract(
        monkeypatch):
    # the winner keeps the prefix lengths of its own walk: no scale's
    # choices run twice, and only the result becomes a Contract
    walks, contracts = [], []
    choices, post_init = DpTable.choices, Contract.__post_init__
    monkeypatch.setattr(DpTable, "choices",
                        lambda dp, t: walks.append(dp.b) or choices(dp, t))
    monkeypatch.setattr(Contract, "__post_init__",
                        lambda c: contracts.append(c) or post_init(c))
    won = 0
    for m in (8, 40):
        base = _size_stable_additive(m, n=3, m=m)
        inst = Instance(base.num_agents, base.actions,
                        LoggedAdditive(base.oracle.weights))
        for budget, obj in itertools.product((F(0), F(1, 2), F(1)),
                                             (PROFIT, REWARD, WELFARE)):
            walks.clear()
            inst.oracle.log.clear()
            contracts.clear()
            r = additive_fptas(inst, budget, F(1, 10), obj)
            assert walks == swept_scales(base, budget, obj,
                                         inst.oracle.log[m + 1:])
            assert len(contracts) == 1 and contracts[0] is r.contract
            won += bool(r.profile)
    assert won == 12  # every solve but the three at budget 0 pays someone


def test_fptas_at_scale_is_a_budgeted_equilibrium():
    m = 200
    base = _size_stable_additive(3, n=4, m=m)
    inst = Instance(base.num_agents, base.actions,
                    LoggedAdditive(base.oracle.weights))
    f = inst.oracle.weights
    budget, eps = F(1, 2), F(1, 20)
    for obj in (PROFIT, REWARD, WELFARE):
        inst.oracle.log.clear()
        r = additive_fptas(inst, budget, eps, obj)
        picks = inst.oracle.log[m + 1:]
        assert r.value_queries == m + 1 + len(picks)
        assert len(swept_scales(inst, budget, obj, picks)) == len(picks)
        assert r.contract.total() <= budget and r.profile
        # additive f: each action's marginal is its singleton, so an agent
        # best-responds iff it takes exactly the actions alpha_i pays for
        for a in range(m):
            paid = r.contract[inst.owner_of[a]] * f[a]
            if a in r.profile:
                assert paid >= inst.cost_of[a]
            else:
                assert paid <= inst.cost_of[a]


# -- additive FPTAS -------------------------------------------------------------


def test_additive_fptas_refuses_a_non_additive_oracle():
    # the library refuses, as the forced CLI solve does, before any read:
    # on a non-additive f its pairs need not be equilibria
    makers = (random_unit_demand_instance, random_uniform_k_instance,
              random_oxs_instance, random_coverage_instance,
              random_explicit_monotone_instance)
    for inst in [make(3, num_agents=2, num_actions=5) for make in makers] \
            + [build_hardness(HardnessParams.make(4, F(1, 2)))]:
        with pytest.raises(ModelError, match="^additive FPTAS forced on a "
                                             "non-additive oracle$"):
            additive_fptas(inst, F(1, 2), F(1, 10), PROFIT)
        assert inst.oracle.value_queries == 0


def test_fptas_zero_budget_positive_costs():
    inst = Instance(2, (Action(0, 0, F(1, 8)), Action(1, 1, F(1, 4))),
                    AdditiveOracle([F(1, 2), F(1, 4)]))
    for obj in (PROFIT, REWARD, WELFARE):
        r = additive_fptas(inst, F(0), F(1, 10), obj)
        assert r.contract.total() == 0 and r.profile == frozenset()


def test_fptas_within_guarantee_small():
    rng = random.Random(7)
    for _ in range(15):
        inst = random_additive_instance(rng.randint(0, 10 ** 6), num_agents=2,
                                        num_actions=4)
        inst = with_table(inst)
        budget = F(rng.randint(1, 4), 4)
        eps = F(1, 10)
        for obj in (PROFIT, REWARD, WELFARE):
            opt = brute_force_opt(inst, budget, obj)
            got = additive_fptas(inst, budget, eps, obj)
            assert got.value >= (1 - eps) * opt.value
            assert got.contract.total() <= budget
            assert is_nash(inst, got.contract, got.profile).ok


def _additive_opt(inst, budget, obj):
    """The exact optimum of ``obj`` (profit, reward or welfare) on an
    additive instance, from per-agent prefix lists instead of profiles.

    Under additive f agent i, paid alpha_i, takes every action with
    alpha_i f({a}) > c_a and may take those with equality, so a minimal
    contract pays each agent the largest ratio c_a / f({a}) of its set, and
    the set holds every action of a smaller ratio.  Taking all the actions
    of that ratio lowers no objective (at a ratio r <= B <= 1 each adds
    f({a}) >= c_a), so OPT is over prefixes of whole ratio groups.  Each
    agent's prefixes become (payment, F, C) points; the points are merged
    agent by agent, cut to the budget, and only those no other point beats
    on payment and on the objective's key (F, or F - C for welfare) are
    kept: a point beaten so stays beaten after any later merge.
    """
    f = inst.oracle.weights  # read without counting a query
    pn, wn, d = obj.weights

    def key(point):
        return point[1] - point[2] if wn else point[1]

    front = [(F(0), F(0), F(0))]
    for own in inst.agent_actions:
        prefixes = [(F(0), F(0), F(0))]
        for r in sorted({inst.cost_of[a] / f[a] for a in own if f[a] > 0}):
            group = [a for a in own if f[a] > 0 and inst.cost_of[a] == r * f[a]]
            _, f_s, c_s = prefixes[-1]
            prefixes.append((r, f_s + sum(f[a] for a in group),
                             c_s + sum(inst.cost_of[a] for a in group)))
        merged = sorted(((p + q, fp + fq, cp + cq)
                         for p, fp, cp in front for q, fq, cq in prefixes
                         if p + q <= budget),
                        key=lambda point: (point[0], -key(point)))
        front = []
        for point in merged:  # payment ascending, the best key first
            if not front or key(point) > key(front[-1]):
                front.append(point)
    return max(f_s - (pn * p * f_s + wn * c_s) / d for p, f_s, c_s in front)


def _recosted(inst, seed):
    """``inst`` with each action costing c_a = f({a}) * u / 32, u drawn
    from 1..31: every ratio c_a / f({a}) is a multiple of 1/32."""
    rng = random.Random(seed)
    f = inst.oracle.weights
    return Instance(inst.num_agents, tuple(
        Action(a.action_id, a.owner, f[a.action_id] * F(rng.randint(1, 31), 32))
        for a in inst.actions), inst.oracle)


def _small_additive():
    """Library additive instances and their re-costed copies, n 1-4 and
    m 3-12, each shape once."""
    for seed in range(40):
        inst = random_additive_instance(seed, num_agents=1 + seed % 4,
                                        num_actions=3 + seed // 4)
        yield inst
        yield _recosted(inst, seed)


def test_additive_reference_matches_brute_force():
    for inst in _small_additive():
        for budget, obj in itertools.product(
                (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)),
                (PROFIT, REWARD, WELFARE)):
            assert _additive_opt(inst, budget, obj) == \
                brute_force_opt(inst, budget, obj).value


def test_fptas_certificate_holds_against_the_exact_optimum_at_scale():
    # past brute force: the prefix-list optimum certifies the factor
    for m in (50, 200, 1000):
        base = _size_stable_additive(m, n=4, m=m)
        inst = Instance(base.num_agents, base.actions,
                        LoggedAdditive(base.oracle.weights))
        for budget, obj in itertools.product((F(1, 4), F(1, 2), F(3, 4)),
                                             (PROFIT, REWARD, WELFARE)):
            opt = _additive_opt(inst, budget, obj)
            inst.oracle.log.clear()
            got = additive_fptas(inst, budget, F(1, 10), obj)
            assert got.value <= opt <= got.value * got.factor
            picks = inst.oracle.log[m + 1:]
            assert got.value_queries == m + 1 + len(picks)
            assert len(swept_scales(inst, budget, obj, picks)) == len(picks)


def test_sweep_of_affordable_scales_against_every_scale(monkeypatch):
    """The sweep over the scales of affordable actions against the sweep
    over every positive phi of an action with f({a}) > 0, both with the
    stop: the bound reads the affordable actions alone on both sides, so
    the added scales only add candidates, and both keep the
    certificate."""
    build = _PrefixLayout.build
    dropped = []

    def every_scale(inst, basis, eps, budget):
        layout = build(inst, basis, eps, budget)
        f = inst.oracle.weights
        phi = {f[a] - inst.cost_of[a] if basis == "f-c" else f[a]
               for a in range(inst.num_actions) if f[a] > 0}
        scales = tuple(sorted((int(b * layout.phi_den) for b in phi if b > 0),
                              reverse=True))
        dropped.append(len(scales) - len(layout.scales))
        return replace(layout, scales=scales)

    differing = fewer = more = 0
    for inst in _small_additive():
        for budget, obj, eps in itertools.product(
                (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)),
                (PROFIT, REWARD, WELFARE), (F(1, 4), F(1, 10))):
            new = additive_fptas(inst, budget, eps, obj)
            with monkeypatch.context() as patch:
                patch.setattr(_PrefixLayout, "build", every_scale)
                old = additive_fptas(inst, budget, eps, obj)
            opt = brute_force_opt(inst, budget, obj).value
            assert new.value * new.factor >= opt
            assert old.value * old.factor >= opt
            differing += new.value != old.value
            fewer += new.value_queries < old.value_queries
            more += new.value_queries > old.value_queries
    assert sum(dropped) == 8556 and sum(map(bool, dropped)) == 1860
    # on this corpus no value moves (a dropped scale's pick can still
    # have won a tie: 2 of the 2400 pairs differ at equal value), and no
    # solve spends more queries on the affordable scales alone
    assert (differing, fewer, more) == (0, 1310, 0)


def test_the_sweep_stops_only_after_the_optimums_largest_phi():
    """The stop against the full sweep of :func:`_reference_fptas`: the
    stopped value is at most the full sweep's and keeps the certificate,
    and the largest positive phi of the brute-force optimum is always
    among the scales swept."""
    rng = random.Random(44)
    cases = fired = fell = 0
    worst = F(1)
    for k in range(150):
        n, m = 1 + k // 2 % 4, 2 + k // 2 % 9
        seed = rng.randint(0, 10 ** 6)
        inst = random_additive_instance(seed, num_agents=n, num_actions=m) \
            if k % 2 else _size_stable_additive(seed, n=n, m=m)
        f = inst.oracle.weights
        for budget, obj in itertools.product((F(1, 4), F(1, 2), F(1)),
                                             (PROFIT, REWARD, WELFARE)):
            opt = brute_force_opt(inst, budget, obj)
            b_star = max((f[a] - inst.cost_of[a] if obj is WELFARE else f[a]
                          for a in opt.profile), default=0)
            for eps in (F(1, 2), F(1, 10)):
                got = additive_fptas(inst, budget, eps, obj)
                layout = _PrefixLayout.build(
                    inst, "f-c" if obj is WELFARE else "f", eps, budget)
                scales = [F(v, layout.phi_den) for v in layout.scales]
                swept = scales[:got.value_queries - m - 1]
                _, full = _reference_fptas(inst, budget, eps, obj, dense=True,
                                           stop=False)
                assert got.value <= full
                assert got.value * got.factor >= opt.value
                assert b_star <= 0 or b_star in swept
                cases += 1
                fired += len(swept) < len(scales)
                if got.value < full:
                    fell += 1
                    worst = min(worst, got.value / full)
    # the stop fires on 1234 solves; 10 values fall, the worst to 372/395
    # (0.942) of the full sweep's
    assert (cases, fired, fell, worst) == (2700, 1234, 10, F(372, 395))


def _tied_ratios(seed):
    """An additive instance, m <= 10, whose ratios c_a / f({a}) are drawn
    from {1/4, 1/2, 3/4, 1}, or 0 for about a third of the actions, and
    whose weights take few values: ratio ties straddle each agent's r*,
    and free actions carry zero-ratio value."""
    rng = random.Random(seed)
    n, m = rng.randint(1, 3), rng.randint(2, 10)
    raw = [rng.randint(1, 4) for _ in range(m)]
    weights = [F(w, 2 * sum(raw)) for w in raw]
    ratios = [F(0) if rng.randrange(3) == 0
              else F(rng.randint(1, 4), 4) for _ in range(m)]
    return Instance(n, tuple(Action(a, rng.randrange(n),
                                    weights[a] * ratios[a]) for a in range(m)),
                    AdditiveOracle(weights))


def _bound_corpus():
    """Library, size-stable and tied-ratio additive instances, m <= 10."""
    for seed in range(60):
        yield random_additive_instance(seed, num_agents=1 + seed % 3,
                                       num_actions=2 + seed % 9)
        yield _size_stable_additive(seed, m=2 + seed % 9)
        yield _tied_ratios(seed)


def _largest_phi(inst, obj, mask):
    f = inst.oracle.weights
    return max((f[a] - inst.cost_of[a] if obj is WELFARE else f[a]
                for a in mask_to_set(mask)), default=None)


def test_the_lp_bound_caps_every_pair_below_its_scale():
    """At every scale b of every layout, :meth:`_PrefixLayout.bound` is at
    least the value of every budget-feasible pair whose profile's largest
    phi is at most b, the pairs read off brute force's minimal-contract
    records; and the FPTAS keeps its certificate and sweeps the largest
    phi of every optimal profile."""
    free = tied = 0
    for inst in _bound_corpus():
        f = inst.oracle.weights
        tabled = with_table(inst)
        for budget in (F(0), F(1, 4), F(1, 2), F(1)):
            records = list(iter_min_contracts(tabled, budget=budget))
            for obj in (PROFIT, REWARD, WELFARE):
                pn, wn, dn = obj.weights
                pairs = []  # (largest phi, value) per record
                for mask, tn, td, _ in records:
                    profile = mask_to_set(mask)
                    reward = sum(f[a] for a in profile)
                    cost_s = sum(inst.cost_of[a] for a in profile)
                    pairs.append((_largest_phi(inst, obj, mask),
                                  reward - (pn * F(tn, td) * reward
                                            + wn * cost_s) / dn))
                layout = _PrefixLayout.build(
                    inst, "f-c" if obj is WELFARE else "f", F(1, 10), budget)
                scale = layout.den * layout.phi_den
                for v in layout.scales:
                    b = F(v, layout.phi_den)
                    bound = max(F(x, d) for x, d in
                                layout.bound(v, obj is PROFIT)) / scale
                    best = max(value for phi, value in pairs
                               if phi is None or phi <= b)
                    assert bound >= best, (inst, budget, obj, b)
                opt = max(value for _, value in pairs)
                for eps in (F(1, 2), F(1, 10)):
                    got = additive_fptas(inst, budget, eps, obj)
                    assert got.value * got.factor >= opt
                    swept = [F(v, layout.phi_den) for v in
                             layout.scales[:got.value_queries
                                           - inst.num_actions - 1]]
                    assert all(phi is None or phi <= 0 or phi in swept
                               for phi, value in pairs if value == opt)
        ratios = [inst.cost_of[a] / f[a] for a in range(inst.num_actions)
                  if f[a] > 0]
        free += 0 in ratios
        tied += len(set(ratios)) < len(ratios)
    # zero-ratio value on 62 instances, a ratio tie on 82 of the 180
    assert (free, tied) == (62, 82)


def test_the_lp_bound_matches_the_fraction_reference():
    # the int hull-and-greedy bound against the Lagrangian one on Fractions
    for inst in _bound_corpus():
        for budget, obj in itertools.product((F(0), F(1, 4), F(1, 2), F(1)),
                                             (PROFIT, REWARD, WELFARE)):
            layout = _PrefixLayout.build(
                inst, "f-c" if obj is WELFARE else "f", F(1, 10), budget)
            for v in layout.scales:
                bound = max(F(x, d) for x, d in layout.bound(v, obj is PROFIT))
                assert bound / (layout.den * layout.phi_den) == lp_bound(
                    inst, budget, obj, F(v, layout.phi_den))


def test_fptas_table_count_is_pinned(monkeypatch):
    # every table the sweep fills on a size-stable corpus at n = 4
    calls = []
    monkeypatch.setattr(solvers, "build_dp_table", lambda layout, b: (
        calls.append(b), build_dp_table(layout, b))[1])
    solves = 0
    for m in (16, 18, 20):
        for seed in range(4):
            inst = _size_stable_additive(100 * m + seed, n=4, m=m)
            for budget, obj in itertools.product(
                    (F(1, 4), F(1, 2), F(3, 4), F(1)),
                    (PROFIT, REWARD, WELFARE)):
                additive_fptas(inst, budget, F(1, 10), obj)
                solves += 1
    # 501 under the P(b) stop, the sum of the kept positive phi up to b
    assert (solves, len(calls)) == (144, 182)


# -- single-agent FPTAS ----------------------------------------------------------


def test_single_agent_one_action_example():
    inst = Instance(1, (Action(0, 0, F(1, 4)),), AdditiveOracle([F(1, 2)]))
    r = single_agent_fptas(inst, F(1), F(1, 10))
    assert (r.contract, r.value, r.factor) == (Contract.of([F(1, 2)]), F(1, 4),
                                               "exact")


def test_single_agent_worthless_actions():
    inst = Instance(1, (Action(0, 0, F(1, 2)),), AdditiveOracle([F(1, 4)]))
    r = single_agent_fptas(inst, F(1), F(1, 4))
    assert r.value == 0 and r.profile == frozenset()


def test_single_agent_tie_goes_to_the_smallest_mask():
    # left ends 0, 1/4 and 1/2 with profits 0, 3/8 and 3/8
    inst = Instance(1, (Action(0, 0, F(1, 8)), Action(1, 0, F(1, 8))),
                    AdditiveOracle([F(1, 2), F(1, 4)]))
    r = single_agent_fptas(inst, F(1), F(1, 4))
    assert (r.contract, r.profile, r.value) == \
        (Contract.of([F(1, 4)]), frozenset({0}), F(3, 8))
    # profit 0 at both left ends, 0 and the budget 1
    inst = Instance(1, (Action(0, 0, F(1, 2)),), AdditiveOracle([F(1, 2)]))
    r = single_agent_fptas(inst, F(1), F(1, 4))
    assert (r.contract, r.profile, r.value) == \
        (Contract.zero(1), frozenset(), F(0))
    # left ends 1/4 for {1} and 5/8 for {0}, both of profit 3/16: the
    # smaller mask wins though its payment is larger, as in brute force
    inst = Instance(1, (Action(0, 0, F(7, 32)), Action(1, 0, F(1, 16))),
                    ExplicitOracle([F(0), F(1, 2), F(1, 4), F(1, 2)]))
    r = single_agent_fptas(inst, F(1), F(1, 4))
    assert (r.contract, r.profile, r.value) == \
        (Contract.of([F(5, 8)]), frozenset({0}), F(3, 16))
    assert r == brute_force_opt(inst, F(1), PROFIT)


def test_single_agent_all_costs_zero():
    inst = Instance(1, (Action(0, 0, F(0)), Action(1, 0, F(0))),
                    AdditiveOracle([F(1, 4), F(1, 2)]))
    r = single_agent_fptas(inst, F(1, 2), F(1, 4))
    assert r.profile == frozenset({0, 1})
    assert r.contract.total() == 0
    assert r.value == F(3, 4)


def test_single_agent_vs_brute_random_tables():
    rng = random.Random(11)
    for _ in range(12):
        inst = random_explicit_monotone_instance(rng.randint(0, 10 ** 6),
                                                 num_actions=rng.randint(2, 6))
        budget = F(rng.randint(2, 4), 4)
        opt = brute_force_opt(inst, budget, PROFIT)
        for eps in (F(1, 4), F(1, 10)):
            got = single_agent_fptas(inst, budget, eps)
            assert got.value == opt.value
            assert got.contract.total() <= budget


def test_single_agent_scheme_is_the_exact_single_agent_optimum():
    # 300 one-agent explicit tables, m 2-14, at three budgets and two eps:
    # the scheme finds the optimum of the agent's own exact race
    for seed in range(17000, 17300):
        inst = with_table(random_explicit_monotone_instance(
            seed, num_agents=1, num_actions=2 + seed % 13))
        for budget in (F(1, 3), F(1, 2), F(1)):
            opt = gs_single_agent_exact(inst, 0, PROFIT, budget).value
            for eps in (F(1, 4), F(1, 10)):
                got = single_agent_fptas(inst, budget, eps)
                assert got.value == opt, (seed, budget, eps)
                assert is_nash(inst, got.contract, got.profile).ok
                assert got.contract.total() <= budget


def test_breakpoint_sweep_is_monotone_in_f():
    rng = random.Random(13)
    for _ in range(8):
        inst = random_explicit_monotone_instance(rng.randint(0, 10 ** 6),
                                                 num_actions=4)
        breaks = _reference_hull(with_table(inst))[1]
        probes = sorted(set([F(0), F(1)] + breaks))
        last = F(-1)
        for alpha in probes:
            if alpha < 0 or alpha > 1:
                continue
            response = best_response(inst, 0, alpha, frozenset(), gs=False)
            f_val = inst.oracle.value(response)
            assert f_val >= last
            last = f_val


def _reference_lines(inst, table):
    """The Fraction utility lines the integer ones replaced."""
    return [(table[mask], -cost(inst, mask_to_set(mask)), mask)
            for mask in range(1 << inst.num_actions)]


def _reference_envelope(lines):
    """The Fraction upper envelope the integer one replaced."""
    by_slope = {}
    for slope, intercept, mask in sorted(lines):
        cur = by_slope.get(slope)
        if cur is None or intercept > cur[0]:
            by_slope[slope] = (intercept, mask)
    hull = []
    for line in [(s, b, m) for s, (b, m) in sorted(by_slope.items())]:
        while hull:
            s1, b1, _ = hull[-1]
            s2, b2, _ = line
            if len(hull) == 1:
                if b2 >= b1:
                    hull.pop()
                    continue
                break
            s0, b0, _ = hull[-2]
            if (b0 - b2) / (s2 - s0) <= (b0 - b1) / (s1 - s0):
                hull.pop()
                continue
            break
        hull.append(line)
    breaks = [(b1 - b2) / (s2 - s1)
              for (s1, b1, _), (s2, b2, _) in zip(hull, hull[1:])]
    return hull, breaks


def _envelope_instances():
    """One-agent instances with zero costs, tied f values and tied slopes."""
    rng = random.Random(31)
    for _ in range(24):
        m = rng.randint(1, 9)
        levels = [0] * (1 << m)
        for mask in range(1, 1 << m):
            floor = max(levels[mask & ~(1 << b)] for b in range(m) if mask >> b & 1)
            levels[mask] = floor + rng.choice((0, 0, 1, 2))  # plateaus tie f
        top = max(levels[-1], 1) + rng.randint(0, 2)
        costs = [rng.choice((F(0), F(1, 8), F(1, 4), F(1, 3), F(1, rng.randint(2, 17))))
                 for _ in range(m)]
        yield Instance(1, tuple(Action(a, 0, c) for a, c in enumerate(costs)),
                       ExplicitOracle([F(v, top) for v in levels]))
    # costs proportional to additive weights: every line passes through
    # alpha = 1/2, so the pop test meets equal intersections
    weights = [F(1, 8), F(1, 4), F(1, 16), F(1, 4), F(1, 8)]
    yield Instance(1, tuple(Action(a, 0, w / 2) for a, w in enumerate(weights)),
                   AdditiveOracle(weights))
    # exact (cost, value) duplicates: equal weights at equal costs give
    # several sets per line, on and off the envelope, and a free action
    # duplicates every line
    weights = [F(1, 8), F(1, 8), F(1, 4), F(1, 4), F(0)]
    costs = [F(1, 16), F(1, 16), F(1, 4), F(1, 4), F(0)]
    yield Instance(1, tuple(Action(a, 0, c) for a, c in enumerate(costs)),
                   AdditiveOracle(weights))


def _reference_hull(inst, budget=None):
    """The masks and breakpoints of the Fraction reference envelope over
    every line, with a ``budget`` ending at its last stretch that starts
    at or below it."""
    hull, breaks = _reference_envelope(_reference_lines(inst, inst.f))
    k = len(breaks) if budget is None else bisect_right(breaks, budget)
    return [h[2] for h in hull[:k + 1]], breaks[:k]


def test_integer_envelope_matches_fraction_reference():
    # the scheme's value is the best left end of the Fraction reference
    # envelope within the budget; at a breakpoint the right-hand line, the
    # larger f, is the best response, and that is the set it returns
    for inst in _envelope_instances():
        inst = with_table(inst)
        for budget in (F(0), F(1, 3), F(1, 2), F(1)):
            hull, breaks = _reference_hull(inst, budget)
            got = single_agent_fptas(inst, budget, F(1, 4))
            assert got.value == max((1 - alpha) * inst.f[mask] for alpha, mask
                                    in zip([F(0), *breaks], hull))
            alpha = got.contract[0]
            assert set_to_mask(got.profile) == hull[bisect_right(breaks, alpha)]


# -- downsizing ------------------------------------------------------------------


def test_downsize_rejects_non_equilibrium():
    inst = Instance(1, (Action(0, 0, F(1, 4)),), AdditiveOracle([F(1, 2)]))
    with pytest.raises(NotAnEquilibriumError):
        downsize(inst, 3, Contract.zero(1), frozenset({0}))


def test_downsize_empty_profile_trivial():
    inst = Instance(2, (Action(0, 0, F(1, 4)), Action(1, 1, F(1, 4))),
                    AdditiveOracle([F(1, 4), F(1, 4)]))
    alpha = Contract.zero(2)
    new_alpha, new_profile = downsize(inst, 3, alpha, frozenset())
    assert new_profile == frozenset() and new_alpha.total() == 0


def _check_downsize_guarantees(inst, m_param, alpha, profile):
    new_alpha, new_profile = downsize(inst, m_param, alpha, profile)
    f_old = inst.oracle.value(profile)
    f_new = inst.oracle.value(new_profile)
    assert (2 * m_param - 2) * f_new >= f_old
    assert is_nash(inst, new_alpha, new_profile).ok
    small_payment = m_param * new_alpha.total() <= 5 * alpha.total()
    single = any(
        new_alpha.alpha == tuple(alpha[j] if j == i else F(0)
                                 for j in range(inst.num_agents))
        and new_profile <= inst.agent_actions[i]
        for i in range(inst.num_agents))
    assert small_payment or single
    return new_alpha, new_profile


def test_downsize_guarantees_across_m_values():
    rng = random.Random(17)
    for _ in range(10):
        inst = random_gs_instance(rng.randint(0, 10 ** 6),
                                  num_agents=rng.randint(2, 4),
                                  num_actions=rng.randint(3, 6))
        inst = with_table(inst)
        alpha = Contract.of([F(rng.randint(0, 6), 8)
                             for _ in range(inst.num_agents)])
        profile = ne_from_demand(inst, alpha)
        for m_param in (3, 6, 14):
            _check_downsize_guarantees(inst, m_param, alpha, profile)


def test_downsize_oxs_m6_dichotomy():
    inst = random_oxs_instance(23, num_agents=3, num_actions=6)
    inst = with_table(inst)
    alpha = Contract.of([F(1, 4), F(1, 8), F(1, 2)])
    profile = ne_from_demand(inst, alpha)
    _check_downsize_guarantees(inst, 6, alpha, profile)


def _reference_downsize(inst, m_param, alpha, profile):
    """:func:`downsize` on frozensets: a group's actions are the union of
    its agents' parts of the profile, and the survivors' contract is
    doubled plus epsilon in place."""
    if m_param < 3:
        raise ModelError("M must be an integer >= 3")
    s = frozenset(profile)
    cert = is_nash(inst, alpha, s)
    if not cert.ok:
        raise NotAnEquilibriumError(f"agent {cert.violator} deviates")
    p = alpha.total()
    if p == 0:
        return alpha, s
    f = inst.f
    threshold = p / m_param
    share = f[set_to_mask(s)] / (m_param - 1)
    big = [i for i in range(inst.num_agents) if alpha[i] > threshold]
    for i in big:
        s_i = s & inst.agent_actions[i]
        if f[set_to_mask(s_i)] >= share:
            only = restrict_contract(alpha, {i})
            return only, ne_from_demand(inst, only, s_i)
    pool = [i for i in range(inst.num_agents) if i not in big]
    survivors = pool
    for _ in range(max(0, m_param - len(big) - 2)):
        if not pool:
            break
        group = []
        total = F(0)
        while pool and total <= threshold:
            group.append(pool.pop(0))
            total += alpha[group[-1]]
        union = frozenset().union(*(s & inst.agent_actions[i] for i in group))
        if f[set_to_mask(union)] >= share:
            survivors = group
            break
    new_alpha = restrict_contract(alpha, survivors).scale(F(2)) \
        .add_everyone(p / (inst.num_agents * m_param))
    return new_alpha, ne_from_demand(inst, new_alpha)


def test_downsize_matches_the_frozenset_reference():
    rng = random.Random(73)
    exits = collections.Counter()
    # coverage seed 14 with six agents reaches the doubled contract
    specs = [(random_coverage_instance, 14, 6, 8)] + [
        (random_coverage_instance if k % 2 else random_gs_instance,
         rng.randint(0, 10 ** 6), rng.randint(2, 6), rng.randint(3, 8))
        for k in range(24)]
    for maker, seed, n, m in specs:
        pairs = [(r.contract, r.profile) for r in (
            brute_force_opt(maker(seed, n, m), budget, obj) for budget, obj in
            ((F(1), REWARD), (F(1, 2), REWARD), (F(1), PROFIT)))]
        # and an equilibrium of a contract paying every agent something
        alpha = Contract.of([F(rng.randint(1, 6), 8 * n) for _ in range(n)])
        pairs.append((alpha, ne_from_demand(maker(seed, n, m), alpha)))
        for pair in pairs:
            for m_param in (3, 6, 14):
                got = []
                for run in (downsize, _reference_downsize):
                    inst = maker(seed, n, m)  # untabled: every read counts
                    before = inst.oracle.value_queries
                    got.append((*run(inst, m_param, *pair),
                                inst.oracle.value_queries - before))
                assert got[0] == got[1]
                paid = sum(a > 0 for a in got[0][0].alpha)
                exits["doubled" if paid == n else paid] += 1
    assert exits["doubled"] > 10 and exits[1] and exits[0]


# -- single-agent exact and reward-bounded solvers --------------------------------


def test_gs_single_agent_no_actions():
    inst = Instance(2, (Action(0, 1, F(1, 8)),), AdditiveOracle([F(1, 2)]))
    r = gs_single_agent_exact(inst, 0, REWARD, F(1))
    assert r.profile == frozenset() and r.value == 0


def test_gs_single_agent_budget_blocks_action():
    inst = Instance(1, (Action(0, 0, F(1, 4)),), AdditiveOracle([F(1, 2)]))
    r = gs_single_agent_exact(inst, 0, PROFIT, F(1, 3))  # needs 1/2 > 1/3
    assert r.profile == frozenset() and r.value == 0


def test_gs_single_agent_matches_brute_when_alone():
    rng = random.Random(29)
    for _ in range(8):
        inst = random_gs_instance(rng.randint(0, 10 ** 6), num_agents=1,
                                  num_actions=4)
        budget = F(rng.randint(1, 4), 4)
        for obj in (PROFIT, REWARD):
            exact = gs_single_agent_exact(inst, 0, obj, budget)
            brute = brute_force_opt(inst, budget, obj)
            assert exact.value == brute.value


def _reference_single_agent(inst, agent, obj, budget, table):
    """The Fraction loop gs_single_agent_exact ran before it enumerated
    through iter_min_contracts: every subset of the agent's sorted actions
    priced by _reference_min_contract, the first strict maximizer kept.
    The race starts from the zero contract on the empty profile."""
    own = sorted(inst.agent_actions[agent])
    best = Contract.zero(inst.num_agents), frozenset()
    best_value = evaluate(obj, inst, *best)
    for mask in range(1 << len(own)):
        profile = frozenset(own[b] for b in range(len(own)) if mask & (1 << b))
        alpha = _reference_min_contract(inst, profile, table=table)
        if alpha is None or alpha[agent] > budget:
            continue
        v = evaluate(obj, inst, alpha, profile)
        if v > best_value:
            best, best_value = (alpha, profile), v
    return (*best, best_value)


def _single_agent_instances():
    rng = random.Random(43)
    for _ in range(6):
        yield random_gs_instance(rng.randint(0, 10 ** 6),
                                 num_agents=rng.randint(1, 3),
                                 num_actions=rng.randint(2, 7))
        yield random_explicit_monotone_instance(
            rng.randint(0, 10 ** 6), num_agents=rng.randint(1, 3),
            num_actions=rng.randint(2, 6))
    for n, seed in ((2, 1), (4, 2)):
        yield build_hardness(HardnessParams.make(n, F(1, 2), seed=seed))


def test_restricted_contract_enumeration_matches_generic_operation():
    rng = random.Random(47)
    for inst in _single_agent_instances():
        inst = with_table(inst)
        table = inst.f
        m = inst.num_actions
        masks = [set_to_mask(t) for t in inst.agent_actions]
        masks += [rng.randrange(1 << m) for _ in range(3)] + [(1 << m) - 1]
        for within, budget in itertools.product(masks, (None, F(1, 4), F(1))):
            got = [(mask, alpha) for mask, alpha
                   in contract_pairs(inst, budget=budget)
                   if not mask & ~within]
            expected = []
            for mask in range(1 << m):
                if mask & ~within:
                    continue
                alpha = _reference_min_contract(inst, mask_to_set(mask),
                                                table=table)
                if alpha is not None and (budget is None
                                          or alpha.total() <= budget):
                    expected.append((mask, alpha))
            assert got == expected


def test_gs_single_agent_matches_fraction_reference():
    rng = random.Random(53)
    for inst in _single_agent_instances():
        inst = with_table(inst)
        table = inst.f
        for agent, obj in itertools.product(range(inst.num_agents),
                                            (PROFIT, REWARD, WELFARE)):
            budget = F(rng.randint(0, 4), 4)
            got = gs_single_agent_exact(inst, agent, obj, budget)
            assert (got.contract, got.profile, got.value) == \
                _reference_single_agent(inst, agent, obj, budget, table)
            assert got.value_queries == 0


def test_gs_single_agent_is_brute_forces_race_over_its_agents_records(
        monkeypatch):
    walks = []
    walk = solvers.iter_min_contracts

    def recording(inst, **kwargs):
        walks.append(kwargs)
        return walk(inst, **kwargs)

    monkeypatch.setattr(solvers, "iter_min_contracts", recording)
    rng = random.Random(59)
    for inst in _single_agent_instances():
        inst = with_table(inst)
        for agent, obj in itertools.product(range(inst.num_agents),
                                            RACE_OBJECTIVES):
            budget = F(rng.randint(0, 4), 4)
            own = inst.agent_masks[agent]
            records = [r for r in walk(inst, budget=budget)
                       if not r[0] & ~own]
            walks.clear()
            got = gs_single_agent_exact(inst, agent, obj, budget)
            assert walks == [{"budget": budget}]
            assert (got.contract, got.profile, got.value) == \
                solvers._race(obj, inst, records)


def test_gs_single_agent_refuses_an_unknown_agent():
    inst = random_gs_instance(3, num_agents=2, num_actions=4)
    for agent in (-1, 2):
        with pytest.raises(UnknownAgentIdError, match=f"agent {agent} "):
            gs_single_agent_exact(inst, agent, PROFIT, F(1, 2))
    gs_single_agent_exact(inst, 1, PROFIT, F(1, 2))


def _reference_pipeline(inst, budget, obj):
    """gs_constant_factor's stages with the reference single-agent loop,
    run once per objective race."""
    inst = with_table(inst)
    table = inst.f
    base = brute_force_opt(_scaled_costs(inst, F(4, 3) / budget), F(1), PROFIT)
    rescaled = (base.contract.scale(F(3, 4) * budget), base.profile)

    def singles(o):
        return [_reference_single_agent(inst, i, o, budget, table)[:2]
                for i in range(inst.num_agents)]

    def race(o, pairs):
        return max(pairs, key=lambda pair: evaluate(o, inst, *pair))

    mrb = race(REWARD, [rescaled] + singles(REWARD))
    down = downsize(inst, 6, *mrb)
    best = race(obj, [down] + singles(obj))
    return (*best, evaluate(obj, inst, *best))


def test_gs_constant_factor_matches_reference_pipeline():
    rng = random.Random(59)
    for _ in range(8):
        inst = random_gs_instance(rng.randint(0, 10 ** 6),
                                  num_agents=rng.randint(1, 3),
                                  num_actions=rng.randint(2, 6))
        budget = F(rng.randint(1, 4), 4)
        for obj in (PROFIT, REWARD, WELFARE):
            got = gs_constant_factor(inst, budget, obj)
            assert (got.contract, got.profile, got.value) == \
                _reference_pipeline(inst, budget, obj)
            assert got.value_queries == 1 << inst.num_actions


def test_gs_constant_factor_above_table_cap_shares_one_table():
    # m = 15 is past the size at which solvers fill a table unasked; the
    # pipeline fills one anyway and answers every stage from it
    inst = random_unit_demand_instance(4, num_agents=3, num_actions=15)
    budget = F(1, 2)
    got = gs_constant_factor(inst, budget, PROFIT)
    assert got.value_queries == 2 ** 15
    assert got.demand_queries == 0
    assert got.contract.total() <= budget
    inst = with_table(inst)
    assert is_nash(inst, got.contract, got.profile).ok
    assert got.value == evaluate(PROFIT, inst, got.contract, got.profile)


def test_max_reward_bounded_zero_budget():
    inst = Instance(1, (Action(0, 0, F(1, 8)),), AdditiveOracle([F(1, 2)]))
    r = max_reward_bounded_brute(inst, F(0))
    assert r.value == 0


def test_max_reward_bounded_respects_cap():
    # the only valuable profile needs alpha = 1/2 > (3/4) * (1/2)
    inst = Instance(1, (Action(0, 0, F(1, 4)),), AdditiveOracle([F(1, 2)]))
    capped = max_reward_bounded_brute(inst, F(1, 2))
    assert capped.value == 0
    uncapped = brute_force_opt(inst, F(1, 2), REWARD)
    assert uncapped.value == F(1, 2)


def _reference_reward_bounded(inst, budget, table):
    """The hand-written loop max_reward_bounded_brute ran before it became
    a race over the capped minimal contracts."""
    cap = F(3, 4) * budget
    best_alpha = Contract.zero(inst.num_agents)
    best_profile = frozenset()
    best_value = F(0)
    for mask, alpha in contract_pairs(inst, budget=budget):
        if any(a > cap for a in alpha.alpha):
            continue
        v = table[mask]
        if v > best_value:
            best_alpha, best_profile, best_value = alpha, mask_to_set(mask), v
    return best_alpha, best_profile, best_value


def test_max_reward_bounded_matches_the_reference_loop():
    rng = random.Random(67)
    makers = (random_gs_instance, random_explicit_monotone_instance,
              random_additive_instance, random_unit_demand_instance)
    capped = 0
    for t in range(16):
        inst = makers[t % 4](rng.randint(0, 10 ** 6), num_agents=rng.randint(1, 3),
                             num_actions=rng.randint(1, 6))
        inst = with_table(inst)
        table = inst.f
        for budget in (F(0), F(1, 4), F(1, 2), F(1)):
            got = max_reward_bounded_brute(inst, budget)
            assert (got.contract, got.profile, got.value) == \
                _reference_reward_bounded(inst, budget, table)
            assert (got.factor, got.objective, got.budget) == \
                ("exact", "reward-bounded", budget)
            capped += got.value < brute_force_opt(inst, budget, REWARD).value
    assert capped > 0  # the cap binds on some instances


SOLVER_ENTRY_POINTS = {
    "brute_force_opt": lambda inst, b: brute_force_opt(inst, b, PROFIT),
    "max_reward_bounded_brute": lambda inst, b: max_reward_bounded_brute(inst, b),
    "gs_single_agent_exact": lambda inst, b: gs_single_agent_exact(inst, 0, PROFIT, b),
    "additive_fptas": lambda inst, b: additive_fptas(inst, b, F(1, 4), PROFIT),
    "single_agent_fptas": lambda inst, b: single_agent_fptas(inst, b, F(1, 4)),
    "gs_constant_factor": lambda inst, b: gs_constant_factor(inst, b, PROFIT),
}


@pytest.mark.parametrize("budget", [F(-1), F(3)])
@pytest.mark.parametrize("solver", sorted(SOLVER_ENTRY_POINTS))
def test_every_solver_refuses_a_budget_outside_the_unit_interval(solver, budget):
    inst = Instance(1, (Action(0, 0, F(1, 8)), Action(1, 0, F(1, 4))),
                    AdditiveOracle([F(1, 4), F(1, 2)]))
    with pytest.raises(ModelError, match=r"budget must lie in \[0, 1\]"):
        SOLVER_ENTRY_POINTS[solver](inst, budget)


@pytest.mark.parametrize("budget", [0.1, True, None],
                         ids=["float", "bool", "none"])
@pytest.mark.parametrize("solver", sorted(SOLVER_ENTRY_POINTS))
def test_every_solver_refuses_an_inexact_budget(solver, budget):
    # a float or a bool is no exact rational (core.exact_rational): no
    # budget cut is decided on one, and none is reported
    inst = Instance(1, (Action(0, 0, F(1, 8)), Action(1, 0, F(1, 4))),
                    AdditiveOracle([F(1, 4), F(1, 2)]))
    with pytest.raises(ModelError):
        SOLVER_ENTRY_POINTS[solver](inst, budget)
    assert inst.oracle.value_queries == 0
    # an int or a "p/q" string is exact, and reported as a Fraction
    for exact in (1, "1/2"):
        got = SOLVER_ENTRY_POINTS[solver](inst, exact).budget
        assert type(got) is F and got == F(exact)


@pytest.mark.parametrize("eps", [0.1, True, None],
                         ids=["float", "bool", "none"])
@pytest.mark.parametrize("solve", [
    lambda inst, eps: additive_fptas(inst, F(1, 2), eps, PROFIT),
    lambda inst, eps: single_agent_fptas(inst, F(1, 2), eps)],
    ids=["additive_fptas", "single_agent_fptas"])
def test_the_fptas_refuse_an_inexact_eps(solve, eps):
    inst = Instance(1, (Action(0, 0, F(1, 8)), Action(1, 0, F(1, 4))),
                    AdditiveOracle([F(1, 4), F(1, 2)]))
    with pytest.raises(ModelError):
        solve(inst, eps)
    assert inst.oracle.value_queries == 0
    assert solve(inst, "1/4").factor in ("exact", F(4, 3))

def test_max_reward_bounded_hardness_upper_bound():
    params = HardnessParams.make(4, F(1, 2))
    inst = build_hardness(params)
    r = max_reward_bounded_brute(inst, F(1, 2))
    assert r.value <= (F(4, 2) + 2) * params.eps
    assert good_action(4) not in r.profile


# -- constant-factor pipeline ------------------------------------------------------


def test_gs_constant_factor_within_certified_bound():
    rng = random.Random(31)
    for _ in range(6):
        inst = random_gs_instance(rng.randint(0, 10 ** 6), num_agents=2,
                                  num_actions=4)
        budget = F(rng.randint(1, 4), 4)
        for obj in (PROFIT, REWARD):
            got = gs_constant_factor(inst, budget, obj)
            opt = brute_force_opt(inst, budget, obj)
            assert 6001 * got.value >= opt.value
            assert got.contract.total() <= budget
            assert is_nash(inst, got.contract, got.profile).ok


def test_gs_constant_factor_unbudgeted_profit():
    inst = random_additive_instance(37, num_agents=2, num_actions=5)
    got = gs_constant_factor(inst, F(1), PROFIT)
    opt = brute_force_opt(inst, F(1), PROFIT)
    assert 6001 * got.value >= opt.value


def test_gs_constant_factor_single_agent_carries_reward():
    # all value sits with agent 0; the single-agent branch must surface it
    inst = Instance(2, (Action(0, 0, F(1, 8)), Action(1, 0, F(1, 8)),
                        Action(2, 1, F(1, 2))),
                    AdditiveOracle([F(1, 2), F(1, 4), F(1, 100)]))
    budget = F(1, 2)
    got = gs_constant_factor(inst, budget, REWARD)
    single = gs_single_agent_exact(inst, 0, REWARD, budget)
    assert got.value >= single.value > 0


def test_gs_constant_factor_zero_budget_exact():
    inst = Instance(1, (Action(0, 0, F(0)), Action(1, 0, F(1, 4))),
                    AdditiveOracle([F(1, 4), F(1, 2)]))
    r = gs_constant_factor(inst, F(0), REWARD)
    assert r.profile == frozenset({0})
    assert r.value == F(1, 4)


def test_decomposition_inequality_spot():
    rng = random.Random(41)
    for _ in range(6):
        inst = random_gs_instance(rng.randint(0, 10 ** 6), num_agents=2,
                                  num_actions=4)
        inst = with_table(inst)
        budget = F(rng.randint(1, 4), 4)
        for obj in (PROFIT, REWARD):
            opt = brute_force_opt(inst, budget, obj).value
            mrb = max_reward_bounded_brute(inst, budget).value
            best_single = max(
                gs_single_agent_exact(inst, i, obj, budget).value
                for i in range(inst.num_agents))
            assert opt <= 2 * mrb + best_single


# -- query counts ------------------------------------------------------------------


def _free_prices(inst):
    """Every action at price 0: a demand query any native oracle answers."""
    return PriceVector({a: F(0) for a in inst.ground_set})


def _zero_cost_one_agent():
    return Instance(1, (Action(0, 0, F(0)), Action(1, 0, F(0))),
                    ExplicitOracle([F(0), F(1, 2), F(1, 4), F(3, 4)]))


def _costly_one_agent():
    # B * f - c < 0 for the only action at B = 1/2: only the empty set is
    # affordable
    return Instance(1, (Action(0, 0, F(3, 4)),), ExplicitOracle([F(0), F(1, 2)]))


# (case id, instance, solve, the exit the solve must take)
QUERY_COUNT_CASES = [
    ("single-fptas-zero-costs", _zero_cost_one_agent,
     lambda i: single_agent_fptas(i, F(1, 2), F(1, 4)),
     lambda r: r.factor == "exact" and r.profile == {0, 1}),
    ("single-fptas-budget-0",
     lambda: random_explicit_monotone_instance(2, num_agents=1, num_actions=4),
     lambda i: single_agent_fptas(i, F(0), F(1, 4)),
     lambda r: r.factor == "exact" and r.budget == 0),
    ("single-fptas-welfare", _costly_one_agent,
     lambda i: single_agent_fptas(i, F(1, 2), F(1, 4)),
     lambda r: r.factor == "exact" and r.profile == frozenset()),
    ("single-fptas-sweep",
     lambda: Instance(1, (Action(0, 0, F(7, 16)), Action(1, 0, F(3, 16))),
                      ExplicitOracle([F(0), F(1, 2), F(0), F(1)])),
     lambda i: single_agent_fptas(i, F(1), F(1, 4)),
     lambda r: r.factor == "exact"),
    ("gs-budget-0",
     lambda: random_unit_demand_instance(3, num_agents=3, num_actions=6),
     lambda i: gs_constant_factor(i, F(0), PROFIT),
     lambda r: r.factor == "exact"),
    ("gs-pipeline",
     lambda: random_unit_demand_instance(3, num_agents=2, num_actions=5),
     lambda i: gs_constant_factor(i, F(1, 2), WELFARE),
     lambda r: r.factor == 6001),
    ("brute",
     lambda: build_hardness(HardnessParams.make(2, F(1, 2), seed=5)),
     lambda i: brute_force_opt(i, F(1, 2), PROFIT),
     lambda r: r.objective == "profit"),
    ("reward-bounded-brute",
     lambda: random_explicit_monotone_instance(4, num_agents=2, num_actions=4),
     lambda i: max_reward_bounded_brute(i, F(1, 2)),
     lambda r: r.objective == "reward-bounded"),
    ("additive-fptas",
     lambda: random_additive_instance(6, num_agents=2, num_actions=6),
     lambda i: additive_fptas(i, F(1, 2), F(1, 4), REWARD),
     lambda r: r.factor == F(4, 3)),
    ("gs-single-agent-exact",
     lambda: random_oxs_instance(7, num_agents=2, num_actions=5),
     lambda i: gs_single_agent_exact(i, 1, PROFIT, F(1, 2)),
     lambda r: r.factor == "exact"),
]


@pytest.mark.parametrize("make,solve,took_exit",
                         [case[1:] for case in QUERY_COUNT_CASES],
                         ids=[case[0] for case in QUERY_COUNT_CASES])
def test_reported_queries_are_the_oracle_counter_delta(make, solve, took_exit):
    for tabled in (False, True):
        inst = make()
        if tabled:
            inst = with_table(inst)
        oracle = inst.oracle
        oracle.value(frozenset())  # counters that do not start at zero
        if oracle.has_native_demand:
            oracle.demand(_free_prices(inst))
        vq, dq = oracle.value_queries, oracle.demand_queries
        got = solve(inst)
        assert took_exit(got)
        assert got.value_queries == oracle.value_queries - vq
        assert got.demand_queries == oracle.demand_queries - dq
        if tabled:
            assert got.value_queries == 0
        else:
            assert got.value_queries > 0
