import collections
import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from budgetcontracts.core import Action, Contract, GeneralContract, Instance, \
    ModelError, UnknownAgentIdError, cost, restrict_contract
from budgetcontracts.equilibria import (
    best_response,
    double_contract,
    is_nash,
    is_nash_general,
    linearize,
    min_incentivizing_contract,
    nash_violator,
    ne_from_demand,
)
from budgetcontracts.generators import random_coverage_instance, \
    random_explicit_monotone_instance, random_general_contract, \
    random_gs_instance, random_unit_demand_instance
from budgetcontracts.hardness import HardnessParams, _pair_for_guess, \
    bad_action, build_hardness, good_action, good_contract
from budgetcontracts.objectives import PROFIT, evaluate
from budgetcontracts.rewards import (
    AdditiveOracle,
    ExplicitOracle,
    PriceVector,
    demand_with_base,
    with_table,
)

EPS = F(1, 32)
B = F(1, 2)


@pytest.fixture(scope="module")
def hardness4():
    params = HardnessParams(4, B, F(1), EPS, frozenset({0, 1}))
    return params, build_hardness(params)


def all_subsets(items):
    items = sorted(items)
    for r in range(len(items) + 1):
        yield from (frozenset(c) for c in itertools.combinations(items, r))


# -- best responses -------------------------------------------------------------


def test_best_response_zero_payment_empty():
    inst = Instance(1, (Action(0, 0, F(1, 4)),), AdditiveOracle([F(1, 2)]))
    assert best_response(inst, 0, F(0), frozenset()) == frozenset()


def test_best_response_hardness_good_with_hidden_support(hardness4):
    params, inst = hardness4
    alpha_special = B - 2 * EPS * EPS
    got = best_response(inst, 4, alpha_special, frozenset({0, 1}))
    assert got == frozenset({good_action(4)})


def test_best_response_hardness_bad_alone(hardness4):
    # the monotonicity-violation witness: alone, the special agent picks bad
    params, inst = hardness4
    alpha_special = B - 2 * EPS * EPS
    got = best_response(inst, 4, alpha_special, frozenset())
    assert got == frozenset({bad_action(4)})


def test_best_response_maximizes_utility_brute(hardness4):
    params, inst = hardness4
    alpha_special = B - 2 * EPS * EPS
    for others in (frozenset(), frozenset({0}), frozenset({0, 1})):
        got = best_response(inst, 4, alpha_special, others)
        best = max(alpha_special * inst.oracle.value(dev | others)
                   - sum((inst.cost_of[a] for a in dev), F(0))
                   for dev in all_subsets(inst.agent_actions[4]))
        achieved = alpha_special * inst.oracle.value(got | others) \
            - sum((inst.cost_of[a] for a in got), F(0))
        assert achieved == best


# -- Nash checks -----------------------------------------------------------------


def test_is_nash_zero_contract_empty_profile():
    inst = Instance(2, (Action(0, 0, F(1, 4)), Action(1, 1, F(1, 8))),
                    AdditiveOracle([F(1, 2), F(1, 4)]))
    assert is_nash(inst, Contract.zero(2), frozenset()).ok


def test_is_nash_good_contract(hardness4):
    params, inst = hardness4
    alpha, profile = good_contract(params)
    cert = is_nash(inst, alpha, profile)
    assert cert.ok and cert.violator is None


def test_is_nash_bad_profile_fails_via_special_agent(hardness4):
    params, inst = hardness4
    alpha, _ = good_contract(params)
    cert = is_nash(inst, alpha, frozenset({0, 1, bad_action(4)}))
    assert not cert.ok
    # the special agent strictly profits by dropping the bad action
    _, dev_utility = cert.best_deviations[4]
    assert dev_utility > cert.utilities[4]


@st.composite
def _nash_cases(draw):
    """A GS, explicit or coverage instance on 1 to 6 actions, with or
    without its table, a contract over unlike denominators and a profile;
    about 40 % of the drawn cases are equilibria."""
    make = draw(st.sampled_from([random_gs_instance,
                                 random_explicit_monotone_instance,
                                 random_coverage_instance]))
    m = draw(st.integers(1, 6))
    inst = make(draw(st.integers(0, 10 ** 6)),
                num_agents=draw(st.integers(1, min(m, 3))), num_actions=m)
    if draw(st.booleans()):
        inst = with_table(inst)
    alpha = Contract(tuple(draw(st.sampled_from(UNLIKE))
                           for _ in range(inst.num_agents)))
    return inst, alpha, frozenset(draw(st.sets(st.integers(0, m - 1))))


# each agent owns a free action, so at alpha = 0 the empty profile and {1}
# hold, tied, while {0} fails
_FREE_TO_ACT = Instance(2, (Action(0, 0, F(1, 6)), Action(1, 0, F(0)),
                            Action(2, 1, F(2, 15)), Action(3, 1, F(0))),
                        AdditiveOracle([F(1, 5), F(1, 7), F(1, 3), F(1, 9)]))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_nash_cases())
@example((_FREE_TO_ACT, Contract.zero(2), frozenset()))
@example((_FREE_TO_ACT, Contract.zero(2), frozenset({1})))
@example((_FREE_TO_ACT, Contract.zero(2), frozenset({0})))
def test_nash_violator_is_the_certificate_verdict(case):
    inst, alpha, profile = case
    oracle = inst.oracle
    before = oracle.value_queries
    cert = is_nash(inst, alpha, profile)
    certified = oracle.value_queries - before
    before = oracle.value_queries
    violator = nash_violator(inst, alpha, profile)
    spent = oracle.value_queries - before
    assert violator == cert.violator
    assert (violator is None) == cert.ok
    # the walks stop at the violator: without a table, no more reads
    assert spent == certified if cert.ok else spent <= certified


def test_ne_from_demand_zero_contract_empty():
    inst = Instance(1, (Action(0, 0, F(1, 4)),), AdditiveOracle([F(1, 2)]))
    assert ne_from_demand(inst, Contract.zero(1)) == frozenset()


def test_ne_from_demand_single_agent_additive_threshold():
    # at full payment the agent takes exactly the actions with c_a < f({a})
    inst = Instance(1, tuple(Action(a, 0, c) for a, c in
                             enumerate([F(1, 4), F(3, 4), F(1, 16)])),
                    AdditiveOracle([F(1, 2), F(1, 4), F(1, 8)]))
    got = ne_from_demand(inst, Contract.of([F(1)]))
    assert got == frozenset({0, 2})
    assert is_nash(inst, Contract.of([F(1)]), got).ok


def test_ne_from_demand_always_nash_on_random_gs():
    rng = random.Random(3)
    for trial in range(30):
        inst = random_gs_instance(rng.randint(0, 10 ** 6),
                                  num_agents=rng.randint(1, 3),
                                  num_actions=rng.randint(2, 6))
        alpha = Contract.of([F(rng.randint(0, 8), 8)
                             for _ in range(inst.num_agents)])
        inst = with_table(inst)
        profile = ne_from_demand(inst, alpha)
        assert is_nash(inst, alpha, profile).ok


# -- subset stability and doubling ----------------------------------------------
# Subset stability (no agent gains by dropping some of its own actions) is
# the doubling lemma's hypothesis; the library applies the transform and
# never tests it, so these tests check it with the reference loop below.


def test_every_ne_is_subset_stable(hardness4):
    params, inst = hardness4
    alpha, profile = good_contract(params)
    ok, _ = _reference_is_subset_stable(inst, alpha, profile, inst.oracle.value)
    assert ok


def test_double_contract_zero_base():
    inst = Instance(2, (Action(0, 0, F(1, 2)), Action(1, 1, F(1, 2))),
                    AdditiveOracle([F(1, 4), F(1, 4)]))
    eps = F(1, 16)
    doubled, profile = double_contract(inst, Contract.zero(2), eps)
    assert doubled.alpha == (eps, eps)
    assert profile == frozenset()


def test_double_contract_halves_reward_at_worst():
    rng = random.Random(5)
    kept = 0
    for trial in range(25):
        inst = random_gs_instance(rng.randint(0, 10 ** 6),
                                  num_agents=rng.randint(1, 3),
                                  num_actions=rng.randint(2, 6))
        inst = with_table(inst)
        alpha = Contract.of([F(rng.randint(0, 4), 8)
                             for _ in range(inst.num_agents)])
        profile = ne_from_demand(inst, alpha)
        ok, _ = _reference_is_subset_stable(inst, alpha, profile,
                                            inst.oracle.value)
        assert ok
        eps = F(1, 2) / (4 * inst.num_agents)  # B / (4n)
        doubled, new_profile = double_contract(inst, alpha, eps)
        assert is_nash(inst, doubled, new_profile).ok
        assert 2 * inst.oracle.value(new_profile) >= inst.oracle.value(profile)
        kept += bool(profile)
    assert kept > 0  # the loop saw nontrivial equilibria


def test_double_contract_payment_growth_bound():
    inst = Instance(2, (Action(0, 0, F(1, 8)), Action(1, 1, F(1, 8))),
                    AdditiveOracle([F(1, 4), F(1, 4)]))
    alpha = Contract.of([F(1, 8), F(1, 4)])
    eps = F(1, 16)
    doubled, _ = double_contract(inst, alpha, eps)
    assert doubled.total() == 2 * alpha.total() + inst.num_agents * eps


# -- minimal incentivizing contracts ---------------------------------------------


def test_min_contract_empty_profile_is_zero():
    inst = Instance(2, (Action(0, 0, F(1, 4)), Action(1, 1, F(1, 8))),
                    AdditiveOracle([F(1, 2), F(1, 4)]))
    assert min_incentivizing_contract(inst, frozenset()) == Contract.zero(2)


def test_min_contract_single_binary_agent_threshold():
    inst = Instance(1, (Action(0, 0, F(1, 4)),), AdditiveOracle([F(1, 2)]))
    got = min_incentivizing_contract(inst, frozenset({0}))
    assert got.alpha == (F(1, 2),)


def test_min_contract_hardness_good_profile(hardness4):
    params, inst = hardness4
    _, profile = good_contract(params)
    got = min_incentivizing_contract(inst, profile)
    assert got.alpha == (EPS * EPS, EPS * EPS, F(0), F(0), B - 2 * EPS * EPS)


def test_min_contract_upper_bound_infeasibility():
    # a strictly better-reward, costlier superset can cap alpha below the
    # level the shrink deviations demand; no payment incentivizes {0} then
    values = [F(0), F(1, 2), F(2, 5), F(3, 5)]  # masks: {}, {0}, {1}, {0,1}
    inst = Instance(1, (Action(0, 0, F(1, 4)), Action(1, 0, F(1, 100))),
                    ExplicitOracle(values))
    assert min_incentivizing_contract(inst, frozenset({0})) is None


def test_min_contract_zero_when_free_better_set_exists():
    # a free action with all the value forces alpha = 0 for its owner
    inst = Instance(1, (Action(0, 0, F(0)),), AdditiveOracle([F(1, 2)]))
    got = min_incentivizing_contract(inst, frozenset({0}))
    assert got.alpha == (F(0),)


def test_min_contract_feasible_implies_nash():
    rng = random.Random(9)
    checked = 0
    for trial in range(20):
        inst = random_gs_instance(rng.randint(0, 10 ** 6),
                                  num_agents=rng.randint(1, 3),
                                  num_actions=rng.randint(2, 5))
        inst = with_table(inst)
        for profile in all_subsets(range(inst.num_actions)):
            alpha = min_incentivizing_contract(inst, profile)
            if alpha is not None:
                assert is_nash(inst, alpha, profile).ok
                checked += 1
    assert checked > 50


# -- restriction stability (subset-stable profiles stay stable under cuts) -------


def test_restricted_contract_keeps_subset_stability():
    rng = random.Random(13)
    for trial in range(15):
        inst = random_gs_instance(rng.randint(0, 10 ** 6),
                                  num_agents=rng.randint(2, 3),
                                  num_actions=rng.randint(2, 6))
        inst = with_table(inst)
        alpha = Contract.of([F(rng.randint(0, 8), 16)
                             for _ in range(inst.num_agents)])
        profile = ne_from_demand(inst, alpha)
        for group in all_subsets(range(inst.num_agents)):
            cut_alpha = restrict_contract(alpha, group)
            cut_profile = frozenset(
                a for a in profile if inst.owner_of[a] in group)
            ok, witness = _reference_is_subset_stable(
                inst, cut_alpha, cut_profile, inst.oracle.value)
            assert ok, (trial, group, witness)


# -- best-response monotonicity ---------------------------------------------------


def test_best_response_monotone_on_gs_instances():
    rng = random.Random(17)
    for trial in range(6):
        inst = random_gs_instance(rng.randint(0, 10 ** 6),
                                  num_agents=2, num_actions=rng.randint(3, 6))
        inst = with_table(inst)
        table = inst.f
        for k0 in range(0, 9, 2):
            for k1 in range(0, 9, 2):
                alpha = Contract.of([F(k0, 8), F(k1, 8)])
                profile = ne_from_demand(inst, alpha)
                for i in range(2):
                    if alpha[i] == 0:
                        continue
                    s_i = profile & inst.agent_actions[i]
                    s_other = profile - s_i
                    for cut in all_subsets(s_other):
                        own = inst.agent_actions[i]
                        prices = PriceVector(
                            {a: inst.cost_of[a] / alpha[i] for a in own - s_i},
                            excluded=inst.ground_set - own - cut)
                        sup = demand_with_base(inst.oracle, prices, s_i | cut,
                                               table=table)
                        grown = (sup - cut) | s_i
                        achieved = alpha[i] * table[sum(1 << a for a in grown | cut)] \
                            - sum((inst.cost_of[a] for a in grown), F(0))
                        best = max(
                            alpha[i] * table[sum(1 << a for a in dev | cut)]
                            - sum((inst.cost_of[a] for a in dev), F(0))
                            for dev in all_subsets(own))
                        assert achieved == best


def test_best_response_monotonicity_fails_on_hardness(hardness4):
    params, inst = hardness4
    alpha, profile = good_contract(params)
    cert = is_nash(inst, alpha, profile)
    assert cert.ok
    # shrinking the others' actions from the hidden set to nothing makes the
    # special agent abandon the good action entirely
    full = best_response(inst, 4, alpha[4], frozenset({0, 1}))
    shrunk = best_response(inst, 4, alpha[4], frozenset())
    assert good_action(4) in full
    assert good_action(4) not in shrunk


# -- linearization -----------------------------------------------------------------


def test_linearize_zero_failure_pay():
    t = GeneralContract((F(0), F(0)), (F(1, 4), F(1, 2)))
    assert linearize(t).alpha == (F(1, 4), F(1, 2))


def test_linearize_clamps_at_zero():
    t = GeneralContract((F(1, 2),), (F(1, 4),))
    assert linearize(t).alpha == (F(0),)


def test_linearize_preserves_enumerated_equilibria():
    rng = random.Random(23)
    preserved = 0
    for trial in range(25):
        inst = random_gs_instance(rng.randint(0, 10 ** 6),
                                  num_agents=rng.randint(1, 3),
                                  num_actions=rng.randint(2, 5))
        inst = with_table(inst)
        t = random_general_contract(rng.randint(0, 10 ** 6), inst.num_agents)
        alpha = linearize(t)
        for profile in all_subsets(range(inst.num_actions)):
            if is_nash_general(inst, t, profile):
                assert is_nash(inst, alpha, profile).ok
                preserved += 1
    assert preserved > 20


# -- the shared deviation walk against the per-checker loops it replaced ----------


def _ordered_subsets(items):
    """The subsets of sorted ``items`` in the order the checkers walked them."""
    items = sorted(items)
    for mask in range(1 << len(items)):
        yield frozenset(items[b] for b in range(len(items)) if mask >> b & 1)


def _reference_is_nash(inst, alpha, s, val):
    utilities, best_devs, violator = [], [], None
    f_s = val(s)
    for i in range(inst.num_agents):
        s_i = s & inst.agent_actions[i]
        u_i = alpha[i] * f_s - cost(inst, s_i)
        best_u, best_set = None, frozenset()
        for dev in _ordered_subsets(inst.agent_actions[i]):
            f_dev = f_s if dev == s_i else val(dev | (s - s_i))
            u = alpha[i] * f_dev - cost(inst, dev)
            if best_u is None or u > best_u:
                best_u, best_set = u, dev
        utilities.append(u_i)
        best_devs.append((best_set, best_u))
        if best_u > u_i and violator is None:
            violator = i
    return violator is None, s, tuple(utilities), tuple(best_devs), violator


def _reference_is_subset_stable(inst, alpha, s, val):
    f_s = val(s)
    for i in range(inst.num_agents):
        s_i = s & inst.agent_actions[i]
        u_i = alpha[i] * f_s - cost(inst, s_i)
        for dev in _ordered_subsets(s_i):
            if alpha[i] * val(dev | (s - s_i)) - cost(inst, dev) > u_i:
                return False, (i, dev)
    return True, None


def _reference_is_nash_general(inst, contract, s, val):
    f_s = val(s)
    for i in range(inst.num_agents):
        t0, t1 = contract.pay_on_failure[i], contract.pay_on_success[i]
        s_i = s & inst.agent_actions[i]

        def utility(f, dev):
            return t1 * f + t0 * (1 - f) - cost(inst, dev)

        u_i = utility(f_s, s_i)
        for dev in _ordered_subsets(inst.agent_actions[i]):
            f_dev = f_s if dev == s_i else val(dev | (s - s_i))
            if utility(f_dev, dev) > u_i:
                return False
    return True


def _reference_best_response(inst, agent, alpha_i, s_other, val):
    if alpha_i == 0:
        return frozenset()
    best = None
    for dev in _ordered_subsets(inst.agent_actions[agent]):
        f_full = val(dev | s_other)
        rank = (alpha_i * f_full - cost(inst, dev), f_full)
        key = tuple(sorted(dev))
        if best is None or rank > best[0] or (rank == best[0] and key < best[1]):
            best = (rank, key, dev)
    return best[2]


def _walk_cases(seed, count, max_actions):
    rng = random.Random(seed)
    for _ in range(count):
        inst = random_gs_instance(rng.randint(0, 10 ** 6),
                                  num_agents=rng.randint(1, 3),
                                  num_actions=rng.randint(2, max_actions))
        general = random_general_contract(rng.randint(0, 10 ** 6), inst.num_agents)
        alpha = Contract(tuple(F(rng.randint(0, 4), 8)
                               for _ in range(inst.num_agents)))
        yield inst, alpha, general


def _checker_pairs(inst, alpha, general, s):
    """(new call, reference call) for each checker on profile ``s``."""
    table = inst.f
    val = inst.oracle.value if table is None else \
        (lambda sub: table[sum(1 << a for a in sub)])
    pairs = [
        (lambda: _cert_tuple(is_nash(inst, alpha, s)),
         lambda: _reference_is_nash(inst, alpha, s, val)),
        (lambda: is_nash_general(inst, general, s),
         lambda: _reference_is_nash_general(inst, general, s, val)),
    ]
    for i in range(inst.num_agents):
        rest = s - inst.agent_actions[i]
        pairs.append((
            lambda i=i, rest=rest: best_response(inst, i, alpha[i], rest,
                                                 gs=False),
            lambda i=i, rest=rest: _reference_best_response(inst, i, alpha[i],
                                                            rest, val)))
    return pairs


def _cert_tuple(cert):
    return cert.ok, cert.profile, cert.utilities, cert.best_deviations, cert.violator


UNLIKE = (F(0), F(1, 7), F(2, 9), F(5, 11))


def _wide_walk_cases(seed, count, max_actions):
    """GS, explicit and coverage instances under contracts over unlike
    denominators, then one built directly with a free action per agent."""
    rng = random.Random(seed)
    makers = (random_gs_instance, random_explicit_monotone_instance,
              random_coverage_instance)
    for t in range(count):
        inst = makers[t % 3](rng.randint(0, 10 ** 6),
                             num_agents=rng.randint(1, 3),
                             num_actions=rng.randint(2, max_actions))
        general = random_general_contract(rng.randint(0, 10 ** 6), inst.num_agents)
        alpha = Contract(tuple(rng.choice(UNLIKE) for _ in range(inst.num_agents)))
        yield inst, alpha, general
    for alpha in itertools.product(UNLIKE, repeat=2):
        general = random_general_contract(rng.randint(0, 10 ** 6), 2)
        yield _FREE_TO_ACT, Contract(alpha), general


def test_deviation_walk_matches_the_reference_loops():
    # on the table's ints and on the oracle's counted integer reads alike
    outcomes = collections.Counter()
    for case, alpha, general in _wide_walk_cases(71, 24, 5):
        for inst in (case, with_table(case)):
            for s in all_subsets(range(inst.num_actions)):
                answers = []
                for new, reference in _checker_pairs(inst, alpha, general, s):
                    answers.append(new())
                    assert answers[-1] == reference()
                outcomes[answers[0][0], answers[1]] += 1
    assert len(outcomes) == 4  # the checkers answer both ways


def test_deviation_walk_reads_like_the_reference_loops():
    # without a table every read is one value query; f(S) is read once per
    # check and never again in a walk, and the early stop of
    # is_nash_general spares the same reads as the reference loop
    for inst, alpha, general in _walk_cases(73, 12, 5):
        oracle = inst.oracle
        walk = sum((1 << len(own)) - 1 for own in inst.agent_actions)
        for s in all_subsets(range(inst.num_actions)):
            pairs = _checker_pairs(inst, alpha, general, s)
            for k, (new, reference) in enumerate(pairs):
                before = oracle.value_queries
                expected = reference()
                spent = oracle.value_queries - before
                before = oracle.value_queries
                assert new() == expected
                assert oracle.value_queries - before == spent
                if k == 0:  # is_nash: f(S), then every other deviation
                    assert spent == 1 + walk


def test_untabled_is_nash_matches_the_reference_at_n_200():
    # no table reaches 2^202 subsets, so is_nash reads the oracle's ints:
    # f(S), then one other deviation per unit agent and three for the
    # special one
    params = HardnessParams.make(200, F(1, 2))
    inst = build_hardness(params)
    n = params.n
    hidden = sorted(params.hidden)
    others = sorted(set(range(n)) - params.hidden)
    guesses = [params.hidden, frozenset(others),
               frozenset(hidden[1:] + others[:1]),
               frozenset(random.Random(7).sample(range(n), n // 2))]
    verdicts = []
    for guess in guesses:
        alpha, profile = _pair_for_guess(params, guess)
        before = inst.oracle.value_queries
        cert = is_nash(inst, alpha, profile)
        assert inst.oracle.value_queries - before == 1 + n + 3
        assert _cert_tuple(cert) == _reference_is_nash(
            inst, alpha, profile, inst.oracle.value)
        verdicts.append(cert.ok)
    assert verdicts == [True, False, False, False]


def _stopping_reads(inst, f, slopes, s, blocks):
    """The reads of a walk at ``slopes`` that stops at the first deviation
    improving on S: f(S), then each agent's ``blocks`` up to that one."""
    reads = [inst.mask_of(s)]
    for i, block in enumerate(blocks):
        own = inst.agent_actions[i]
        u_i = slopes[i] * f[reads[0]] - cost(inst, s & own)
        for x, dev in block:
            reads.append(x)
            if slopes[i] * f[x] - cost(inst, dev) > u_i:
                return reads
    return reads


def test_each_check_reads_each_mask_once_and_f_of_s_first(monkeypatch):
    # every read of an untabled instance is recorded: f(S) comes first
    # (f(S_-i) for best_response), then each agent's other deviations in
    # ascending mask order, no mask twice, and nash_violator and
    # is_nash_general read nothing after the first improving deviation
    negative = 0
    for inst, alpha, general in _wide_walk_cases(79, 12, 5):
        oracle = inst.oracle
        f = with_table(inst).f
        reads = []

        def recording(mask, oracle=oracle):
            reads.append(mask)
            return type(oracle).read(oracle, mask)

        monkeypatch.setattr(oracle, "read", recording)
        slopes = [t1 - t0 for t0, t1 in zip(general.pay_on_failure,
                                            general.pay_on_success)]
        negative += min(slopes) < 0
        for s in all_subsets(range(inst.num_actions)):
            blocks = [[(inst.mask_of(dev | (s - own)), dev)
                       for dev in _ordered_subsets(own) if dev != s & own]
                      for own in inst.agent_actions]
            upto = [[inst.mask_of(s)]]
            for block in blocks:
                upto.append(upto[-1] + [x for x, _ in block])
            reads.clear()
            is_nash(inst, alpha, s)
            assert reads == upto[-1]
            reads.clear()
            nash_violator(inst, alpha, s)
            assert reads == _stopping_reads(inst, f, alpha, s, blocks)
            reads.clear()
            is_nash_general(inst, general, s)
            assert reads == _stopping_reads(inst, f, slopes, s, blocks)
            reads.clear()
            kept = min_incentivizing_contract(inst, s)
            assert reads == upto[-1] if kept is not None else reads in upto
            for i, own in enumerate(inst.agent_actions):
                reads.clear()
                best_response(inst, i, alpha[i], s - own, gs=False)
                assert reads == ([] if alpha[i] == 0 else [
                    inst.mask_of(dev | (s - own))
                    for dev in _ordered_subsets(own)])
    assert negative  # some agent is paid more on failure than on success


def test_is_nash_general_at_a_negative_slope():
    # paid more on failure, the agent gains by lowering f: the free action
    # is a deviation that pays, and leaving it is an equilibrium
    inst = Instance(1, (Action(0, 0, F(0)),), AdditiveOracle([F(1, 2)]))
    general = GeneralContract((F(1, 2),), (F(1, 4),))
    assert not is_nash_general(inst, general, {0})
    assert is_nash_general(inst, general, set())


@pytest.mark.parametrize("inst", [
    random_unit_demand_instance(3, num_agents=1, num_actions=4),
    random_explicit_monotone_instance(3, num_agents=1, num_actions=4),
], ids=["gs", "explicit"])
def test_best_response_rejects_a_negative_payment(inst):
    for gs in (None, True, False):
        with pytest.raises(ModelError):
            best_response(inst, 0, F(-1, 2), (), gs=gs)


@pytest.mark.parametrize("inst", [
    random_unit_demand_instance(3, num_agents=2, num_actions=4),
    random_explicit_monotone_instance(3, num_agents=2, num_actions=4),
], ids=["gs", "explicit"])
def test_best_response_refuses_an_agent_out_of_range(inst):
    for agent in (-1, inst.num_agents):
        for gs in (None, True, False):
            with pytest.raises(UnknownAgentIdError, match=f"agent {agent} "):
                best_response(inst, agent, F(1, 2), (), gs=gs)


@pytest.mark.parametrize("entries", [1, 3])
def test_nash_checks_refuse_a_contract_of_another_length(entries):
    # every entry point where a contract meets an instance, before any read
    inst = random_unit_demand_instance(3, num_agents=2, num_actions=4)
    alpha = Contract((F(1, 4),) * entries)
    general = GeneralContract((F(0),) * entries, (F(1, 4),) * entries)
    for call in (lambda: is_nash(inst, alpha, frozenset()),
                 lambda: nash_violator(inst, alpha, frozenset()),
                 lambda: is_nash_general(inst, general, frozenset()),
                 lambda: ne_from_demand(inst, alpha),
                 lambda: double_contract(inst, alpha, F(1, 16)),
                 lambda: evaluate(PROFIT, inst, alpha, {0})):
        with pytest.raises(ModelError, match=f"contract has {entries} entries "
                                             "for 2 agents"):
            call()
    assert (inst.oracle.value_queries, inst.oracle.demand_queries) == (0, 0)


def test_best_response_refuses_a_base_meeting_its_own_actions():
    inst = random_unit_demand_instance(3, num_agents=2, num_actions=4)
    own = min(inst.agent_actions[0])
    for gs in (None, True, False):
        with pytest.raises(ModelError, match="intersects the agent's own"):
            best_response(inst, 0, F(1, 2), {own}, gs=gs)


@pytest.mark.parametrize("eps", [F(0), F(-1, 16)])
def test_double_contract_refuses_a_nonpositive_epsilon(eps):
    inst = random_unit_demand_instance(3, num_agents=2, num_actions=4)
    with pytest.raises(ModelError, match="epsilon must be > 0"):
        double_contract(inst, Contract.zero(2), eps)


def test_ne_from_demand_with_base_is_demand_at_contract_prices():
    rng = random.Random(29)
    for t in range(80):
        make = random_gs_instance if t % 2 else random_explicit_monotone_instance
        inst = make(rng.randint(0, 10 ** 6), num_agents=rng.randint(1, 3),
                    num_actions=rng.randint(1, 6))
        alpha = Contract(tuple(rng.choice((F(0), F(rng.randint(1, 16), 16)))
                               for _ in range(inst.num_agents)))
        base = frozenset(a for a in inst.ground_set if rng.random() < 0.3)
        paid = {a for a in inst.ground_set if alpha[inst.owner_of[a]] > 0}
        prices = PriceVector(
            {a: inst.cost_of[a] / alpha[inst.owner_of[a]] for a in paid},
            inst.ground_set - paid)
        for tabled in (inst, with_table(inst)):
            for gs in (None, False):
                want = demand_with_base(inst.oracle, prices, base, gs=gs,
                                        table=tabled.f)
                assert ne_from_demand(tabled, alpha, base, gs=gs) == want
                assert base <= want
