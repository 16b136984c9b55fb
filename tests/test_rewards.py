import collections
import itertools
import math
import random
from bisect import bisect_right
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from budgetcontracts.cli import load_instance
from budgetcontracts.core import Action, GroundSetTooLargeError, Instance, \
    ModelError, OracleRangeViolationError, RationalParseError, \
    UnknownActionIdError, exact_rational, format_rational, parse_rational
from budgetcontracts.generators import (
    random_additive_instance,
    random_coverage_instance,
    random_explicit_monotone_instance,
    random_gs_instance,
    random_oxs_instance,
    random_uniform_k_instance,
    random_unit_demand_instance,
)
from budgetcontracts.hardness import HardnessOracle, HardnessParams, \
    bad_action, build_hardness, good_action
from budgetcontracts.rewards import (
    AdditiveOracle,
    AssignmentOracle,
    CoverageOracle,
    ExplicitOracle,
    PriceVector,
    UniformKDemandOracle,
    UnitDemandOracle,
    _guard_masks,
    _packed_monotone,
    brute_force_demand,
    common_denominator,
    cost_runs,
    demand_with_base,
    gs_greedy_demand,
    is_monotone,
    is_submodular,
    lex_key,
    mask_to_set,
    oracle_from_spec,
    oracle_to_spec,
    scaled_ints,
    set_to_mask,
    submask_sums,
    submask_sums_upto,
    submasks,
    subset_sums,
    value_table,
)

from contract_pairs import UncheckedExplicit
from gs_tester import GsWitness, _search_price_witness, is_gross_substitutes


EPS = F(1, 32)


def hardness_oracle(n=4, hidden=(0, 1), eps=EPS):
    return HardnessOracle(n, eps, frozenset(hidden))


def all_subsets(m):
    for r in range(m + 1):
        yield from (frozenset(c) for c in itertools.combinations(range(m), r))


# -- values and marginals ------------------------------------------------------


def test_value_empty_is_zero_everywhere():
    oracles = [
        AdditiveOracle([F(1, 4), F(1, 2)]),
        UnitDemandOracle([F(1, 2), F(1, 3)]),
        UniformKDemandOracle(3, 2, F(1, 4)),
        AssignmentOracle([[F(1, 4)], [F(1, 2)]]),
        CoverageOracle(4, [{0, 1}, {2}]),
        hardness_oracle(),
    ]
    for o in oracles:
        assert o.value(frozenset()) == 0


def _marginal(o, a, s):
    """f(a | S) = f(S + a) - f(S), two value reads."""
    return o.value(s | {a}) - o.value(s)


def test_additive_value_and_marginal():
    o = AdditiveOracle([F(1, 4), F(1, 2)])
    assert o.value({0, 1}) == F(3, 4)
    for s in (frozenset(), frozenset({1})):
        assert _marginal(o, 0, s) == F(1, 4)


def test_uniform_k_demand_marginal_capped():
    o = UniformKDemandOracle(3, 1, F(1, 2))
    assert _marginal(o, 0, frozenset({1})) == 0
    assert _marginal(o, 0, frozenset()) == F(1, 2)


def test_hardness_value_good_singleton():
    o = hardness_oracle()
    assert o.value({good_action(4)}) == F(1, 2)


def test_hardness_marginal_bad_given_hidden():
    # f1 + f2 gain of 2*eps, penalty onset of eps/2: net (3/2) eps
    o = hardness_oracle()
    assert _marginal(o, bad_action(4), frozenset({0, 1})) == F(3, 2) * EPS


def test_assignment_oracle_is_max_matching():
    o = AssignmentOracle([[F(1, 2), F(0)], [F(1, 2), F(1, 4)]])
    # both actions prefer column 0; the matching routes one to column 1
    assert o.value({0, 1}) == F(3, 4)
    assert o.value({0}) == F(1, 2)


# Library constructors take exact rationals only: a float or a bool raises,
# as parse_rational does for JSON, instead of turning into a binary
# fraction or into 1 and 0.


def test_additive_oracle_rejects_floats_and_bools():
    assert AdditiveOracle([0, "1/4", F(1, 8)]).weights == (0, F(1, 4), F(1, 8))
    for bad in ([True, False], [F(1, 4), 0.1]):
        with pytest.raises(RationalParseError):
            AdditiveOracle(bad)


def test_unit_demand_oracle_rejects_floats_and_bools():
    assert UnitDemandOracle(["1/2", 0]).weights == (F(1, 2), 0)
    for bad in ([True], [0.5]):
        with pytest.raises(RationalParseError):
            UnitDemandOracle(bad)


def test_uniform_k_demand_oracle_rejects_floats_and_bools():
    assert UniformKDemandOracle(3, 2, "1/4").unit_value == F(1, 4)
    for unit in (0.25, True):
        with pytest.raises(RationalParseError):
            UniformKDemandOracle(3, 1, unit)
    for k in (2.0, True):
        with pytest.raises(ModelError, match="k must be an int"):
            UniformKDemandOracle(3, k, F(1, 4))


def test_assignment_oracle_rejects_floats_and_bools():
    assert AssignmentOracle([["1/2"], [0]]).values == ((F(1, 2),), (0,))
    for bad in ([[0.5]], [[F(1, 4)], [True]]):
        with pytest.raises(RationalParseError):
            AssignmentOracle(bad)


def test_explicit_oracle_rejects_floats_and_bools():
    assert ExplicitOracle([0, "1/2", F(1, 2), 1]).values == (0, F(1, 2),
                                                            F(1, 2), 1)
    for bad in ([0, 0.3, 0.5, True], [F(0), F(1, 2), F(1, 2), True]):
        with pytest.raises(RationalParseError):
            ExplicitOracle(bad)


def test_hardness_oracle_rejects_floats_and_bools():
    assert HardnessOracle(4, "1/8", frozenset({0, 1})).eps == F(1, 8)
    for eps in (0.1, True):
        with pytest.raises(RationalParseError):
            HardnessOracle(4, eps, frozenset({0, 1}))


def test_hardness_params_reject_floats_and_bools():
    params = HardnessParams.make(4, "1/2", eps=F(1, 64))
    assert (params.budget, params.approx_target) == (F(1, 2), 1)
    for kwargs in ({"budget": 0.5}, {"budget": F(1, 2), "eps": 0.01},
                   {"budget": F(1, 2), "approx_target": True}):
        with pytest.raises(RationalParseError):
            HardnessParams.make(4, **kwargs)
    with pytest.raises(RationalParseError):
        HardnessParams(4, F(1, 2), F(1), 0.01, frozenset({0, 1}))


def test_price_vector_rejects_floats_and_bools():
    assert PriceVector.of({0: "1/3", 1: -1}).prices == {0: F(1, 3), 1: -1}
    for bad in ({0: 0.5}, {0: F(1, 2), 1: False}):
        with pytest.raises(RationalParseError):
            PriceVector.of(bad)


def test_query_counter_increments_once_per_call():
    o = AdditiveOracle([F(1, 4), F(1, 2)])
    o.value({0})
    o.value({0})
    o.value({0, 1})
    o[0b10]
    assert o.value_queries == 4
    assert o.demand_queries == 0


def test_hardness_demand_counts_queries():
    o = hardness_oracle()
    prices = PriceVector.of({a: F(1, 64) for a in range(6)})
    o.demand(prices)
    assert o.demand_queries == 1
    assert 1 <= o.value_queries <= 12


# -- value tables ----------------------------------------------------------------


def _per_subset(o):
    return [F(o._int(k), o.den) for k in range(1 << o.num_actions)]


def _table_oracles():
    rng = random.Random(5)
    for gen in (random_additive_instance, random_unit_demand_instance,
                random_uniform_k_instance, random_oxs_instance,
                random_coverage_instance, random_explicit_monotone_instance):
        for _ in range(6):
            yield gen(rng.randint(0, 10 ** 6), num_agents=2,
                      num_actions=rng.randint(1, 10)).oracle
    for m in (1, 4, 9):
        weights = [F(rng.randint(0, 2), 4 * m) for _ in range(m)]
        yield AdditiveOracle(weights[:-1] + [F(0)])  # zeros included
        yield UnitDemandOracle(weights)
        for k in (m, m + 2):  # the cap never binds
            yield UniformKDemandOracle(m, k, F(1, 3 * m))
        for cols in (1, 2, 3, 4):  # four columns take the per-subset path
            yield AssignmentOracle([[F(rng.randint(0, 7), 7 * m * cols)
                                     for _ in range(cols)] for _ in range(m)])
        yield CoverageOracle(5, [rng.sample(range(5), rng.randint(0, 3))
                                 for _ in range(m)])
    yield hardness_oracle()


def test_table_fills_match_per_subset_values():
    seen = set()
    for o in _table_oracles():
        seen.add(type(o).__name__)
        table = o._table()
        assert type(table) is list
        assert table == [o._int(k) for k in range(1 << o.num_actions)], \
            oracle_to_spec(o)
    assert len(seen) == 7


def test_value_table_counts_one_value_query_per_subset():
    for o in _table_oracles():
        table = value_table(o)
        assert type(table) is list and table == _per_subset(o)
        assert (o.value_queries, o.demand_queries) == (1 << o.num_actions, 0)


def _built_oracles():
    """An oracle of each kind the library builds: every ``gen:`` family at
    a few seeds, OXS on five columns (the per-subset table), an explicit
    table parsed from JSON strings, and hidden-set oracles at several n
    and B."""
    for kind in ("additive", "unit_demand", "uniform_k", "oxs", "coverage",
                 "explicit", "gs"):
        for seed in range(4):
            yield load_instance(f"gen:{kind}:seed={seed}").oracle
    yield AssignmentOracle([[F(k, 20), F(k + 1, 20), F(1, 20), F(0), F(3, 20)]
                            for k in range(4)])
    yield oracle_from_spec({"type": "explicit", "values": [
        "0", "1/3", "1/4", "1/2", "1/3", "2/3", "1/2", "1"]})
    for n, budget in ((2, F(1, 2)), (4, F(1, 4)), (6, F(2, 3)), (8, F(3, 4))):
        yield build_hardness(HardnessParams.make(n, budget, seed=n)).oracle


def test_every_built_oracle_is_in_the_model():
    # the budgeted walk's cuts rely on it: f is monotone, f(empty) = 0 and
    # every value lies in [0, 1]
    kinds = collections.Counter()
    for o in _built_oracles():
        kinds[type(o).__name__] += 1
        assert o.read(0) == 0
        assert is_monotone(o)[0], oracle_to_spec(o)
        assert all(0 <= k <= o.den for k in o._table())
    assert len(kinds) == 7 and kinds["HardnessOracle"] == 4


# -- the bitmask hook against the frozenset formulas ----------------------------


def _reference_value(o, s):
    """Each family's f(s), computed on a frozenset."""
    if isinstance(o, AdditiveOracle):
        return sum((o.weights[a] for a in s), F(0))
    if isinstance(o, UnitDemandOracle):
        return max((o.weights[a] for a in s), default=F(0))
    if isinstance(o, UniformKDemandOracle):
        return min(len(s), o.k) * o.unit_value
    if isinstance(o, AssignmentOracle):
        best = {0: F(0)}
        for a in sorted(s):
            nxt = dict(best)
            for cols, val in best.items():
                for c, w in enumerate(o.values[a]):
                    if not cols & (1 << c) and val + w > nxt.get(cols | 1 << c, -1):
                        nxt[cols | 1 << c] = val + w
            best = nxt
        return max(best.values())
    if isinstance(o, CoverageOracle):
        covered = set()
        for a in s:
            covered |= o.covers[a]
        return F(len(covered), o.universe_size)
    if isinstance(o, ExplicitOracle):
        return o.values[sum(1 << a for a in s)]
    assert isinstance(o, HardnessOracle)
    return _reference_base_value(o, s) - (
        o.eps / 2 if _reference_reveals(o, s) else 0)


def _reference_reveals(o, s):
    return s - {good_action(o.n)} == o._hidden | {bad_action(o.n)}


def _reference_base_value(o, s):
    n, eps = o.n, o.eps
    f1 = F(1, 2) if good_action(n) in s else eps if bad_action(n) in s else F(0)
    others = len(s) - (1 if good_action(n) in s else 0)
    return f1 + eps * min(others, n // 2 + 1)


def _documented_den(o):
    """Each family's ``den`` as its class documents it."""
    if isinstance(o, (AdditiveOracle, UnitDemandOracle)):
        return math.lcm(*(w.denominator for w in o.weights))
    if isinstance(o, AssignmentOracle):
        return math.lcm(*(v.denominator for row in o.values for v in row))
    if isinstance(o, UniformKDemandOracle):
        return o.unit_value.denominator
    if isinstance(o, CoverageOracle):
        return o.universe_size
    if isinstance(o, ExplicitOracle):
        return math.lcm(*(v.denominator for v in o.values))
    assert isinstance(o, HardnessOracle)
    return 2 * o.eps.denominator


def _lazy_f(o):
    """f of a one-agent instance over ``o`` that carries no table."""
    return Instance(1, tuple(Action(a, 0, F(0)) for a in range(o.num_actions)),
                    o).f


def _check_hook(o, subsets):
    """value(s) and the oracle read by bitmask both equal the reference,
    one value query each; the integer hook is the reference times the
    family's documented ``den``, and counts nothing."""
    view = _lazy_f(o)
    assert view is o
    assert o.den == _documented_den(o), type(o).__name__
    before = o.value_queries
    for k, s in enumerate(subsets, 1):
        want = _reference_value(o, s)
        mask = set_to_mask(s)
        assert o.value(s) == want, (type(o).__name__, sorted(s))
        assert view[mask] == want, (type(o).__name__, sorted(s))
        assert o._int(mask) == want * o.den, (type(o).__name__, sorted(s))
        assert (o.value_queries - before, o.demand_queries) == (2 * k, 0)
        if isinstance(o, HardnessOracle):
            assert o._base_value(mask) == _reference_base_value(o, s)
            assert o._reveals(mask) == _reference_reveals(o, s)


def test_mask_hook_matches_frozenset_formulas_on_every_subset():
    seen = set()
    oracles = [o for o in _table_oracles() if o.num_actions <= 10]
    oracles.append(hardness_oracle(8, hidden=(1, 3, 4, 6), eps=F(3, 40)))
    for o in oracles:
        seen.add(type(o).__name__)
        subsets = list(all_subsets(o.num_actions))
        _check_hook(o, subsets)
        assert value_table(o) == [_reference_value(o, mask_to_set(k))
                                  for k in range(1 << o.num_actions)]
    assert len(seen) == 7


def _random_subsets(rng, m, count):
    yield frozenset()
    yield frozenset(range(m))
    for _ in range(count):
        yield frozenset(rng.sample(range(m), rng.randint(1, m)))


def test_mask_hook_matches_frozenset_formulas_at_m_200():
    rng = random.Random(13)
    m = 200
    oracles = [
        AdditiveOracle([F(rng.randint(0, 5), 1000) for _ in range(m)]),
        UnitDemandOracle([F(rng.randint(0, 100), 100) for _ in range(m)]),
        UniformKDemandOracle(m, 17, F(1, 17)),
        AssignmentOracle([[F(rng.randint(0, 9), 30) for _ in range(3)]
                          for _ in range(m)]),
        CoverageOracle(50, [rng.sample(range(50), rng.randint(0, 4))
                            for _ in range(m)]),
    ]
    for o in oracles:
        _check_hook(o, list(_random_subsets(rng, m, 40)))


def test_mask_hook_matches_frozenset_formulas_on_hardness_n_2000():
    rng = random.Random(17)
    n = 2000
    hidden = frozenset(rng.sample(range(n), n // 2))
    bad, good = bad_action(n), good_action(n)
    subsets = list(_random_subsets(rng, n + 2, 30)) + [
        hidden | {bad}, hidden | {bad, good}, hidden | {good}, hidden,
        frozenset({good}), frozenset({bad}), frozenset({bad, good}),
        (hidden - {min(hidden)}) | {bad}]
    # eps = p/q reads q, 2p and p over den = 2q; p = 3 keeps them apart
    for eps in (F(1, 8 * n), F(3, 8 * n + 1)):
        o = HardnessOracle(n, eps, hidden)
        _check_hook(o, subsets)
        assert sum(map(o._reveals, map(set_to_mask, subsets))) == 2


def test_mask_outside_the_ground_set_is_refused_before_counting():
    for o in (AdditiveOracle([F(1, 4), F(1, 2)]), hardness_oracle(),
              ExplicitOracle([F(0), F(1, 2)])):
        m = o.num_actions
        for mask in (-1, -(1 << m), 1 << m, (1 << m) | 1, 1 << (m + 70)):
            with pytest.raises(UnknownActionIdError):
                _lazy_f(o)[mask]
        with pytest.raises(UnknownActionIdError):
            o.value({m})
        assert o.value_queries == 0
        assert _lazy_f(o)[(1 << m) - 1] == o.value(range(m))


def _scan_members(mask):
    """The members of ``mask`` by a scan over every bit position."""
    return [a for a in range(mask.bit_length()) if mask >> a & 1]


def test_submask_walks_match_the_bit_position_scan():
    rng = random.Random(19)
    weights = {}
    for _ in range(300):
        members = rng.sample(range(4000), rng.randint(0, 6))
        mask = set_to_mask(members)
        for a in members:
            weights.setdefault(a, F(rng.randint(-3, 9), rng.randint(1, 7)))
        scanned = _scan_members(mask)
        assert mask_to_set(mask) == frozenset(scanned)
        assert lex_key(mask) == tuple(scanned)
        want = subset_sums([1 << a for a in scanned])
        assert submasks(mask) == want
        got = submask_sums(mask, weights)
        assert list(got.items()) == list(zip(
            want, subset_sums([weights[a] for a in scanned])))


def _reference_cost_runs(costs):
    """The run ends by one binary search per entry."""
    order = sorted(costs, key=costs.__getitem__)
    by_cost = [costs[d] for d in order]
    return order, by_cost, [bisect_right(by_cost, c) for c in by_cost]


def test_cost_runs_match_the_bisect_reference():
    rng = random.Random(23)
    cases = [{0: 0}, {5: -3}, {0: 0, 1: 0, 2: 0, 3: 0}]
    for m in (1, 2, 3, 6, 11):
        for spread in (1, 4, 10 ** 9):  # many ties, some, almost none
            weights = [rng.randint(-spread, spread) for _ in range(m)]
            cases.append(submask_sums((1 << m) - 1, weights))
    for _ in range(20):  # keys out of mask order, ties by insertion order
        keys = rng.sample(range(1 << 11), rng.randint(1, 300))
        cases.append({k: rng.randint(-3, 3) for k in keys})
    assert len(cases[-21]) == 1 << 11
    for costs in cases:
        assert cost_runs(costs) == _reference_cost_runs(costs)


def test_bounded_cost_order_is_the_full_order_cut_at_the_limit():
    rng = random.Random(29)
    for m in range(1, 12):
        for trial in range(4):
            # few cost levels, so many sets tie; on odd trials one action
            # costs more than every limit
            weights = {a: rng.choice((0, 1, 2, 3, 5)) for a in range(2 * m)}
            mask = set_to_mask(rng.sample(range(2 * m), m))
            if trial % 2:
                weights[rng.choice(_scan_members(mask))] = 3 * m + 1
            full = submask_sums(mask, weights)
            runs = cost_runs(full)
            for limit in (-5, -1, 0, 1, 4, 9, 3 * m):
                got = submask_sums_upto(mask, weights, limit)
                assert list(got.items()) == [(k, c) for k, c in full.items()
                                             if c <= limit]
                cut = bisect_right(runs[1], limit)
                assert cost_runs(got) == tuple(run[:cut] for run in runs)
    assert submask_sums_upto(0, {}, 0) == {0: 0}
    assert submask_sums_upto(0, {}, -1) == {}


# -- demand computations -------------------------------------------------------


def test_brute_demand_high_prices_empty():
    o = AdditiveOracle([F(1, 4), F(1, 2)])
    assert brute_force_demand(o, PriceVector.of({0: F(2), 1: F(2)})) == frozenset()


def test_brute_demand_negative_prices_full():
    o = UnitDemandOracle([F(1, 2), F(1, 3)])
    got = brute_force_demand(o, PriceVector.of({0: F(-1), 1: F(-1)}))
    assert got == frozenset({0, 1})


def test_brute_demand_additive_example():
    o = AdditiveOracle([F(1, 2), F(1, 4)])
    got = brute_force_demand(o, PriceVector.of({0: F(1, 4), 1: F(1, 2)}))
    assert got == frozenset({0})


def test_brute_demand_cap():
    o = UniformKDemandOracle(21, 2, F(1, 8))
    with pytest.raises(GroundSetTooLargeError):
        brute_force_demand(o, PriceVector.of({a: F(1) for a in range(21)}))


def test_greedy_demand_high_prices_empty():
    o = AdditiveOracle([F(1, 4), F(1, 2)])
    assert gs_greedy_demand(o, PriceVector.of({0: F(2), 1: F(2)})) == frozenset()


def test_greedy_demand_unit_demand_example():
    o = UnitDemandOracle([F(1, 2), F(1, 3)])
    got = gs_greedy_demand(o, PriceVector.of({0: F(1, 10), 1: F(1, 10)}))
    assert got == frozenset({0})


def _utility(o, table, s, prices):
    return table[sum(1 << a for a in s)] - prices.total(s)


@pytest.mark.parametrize("make_oracle", [
    lambda rng: AdditiveOracle([F(rng.randint(0, 6), 32) for _ in range(5)]),
    lambda rng: UnitDemandOracle([F(rng.randint(0, 32), 32) for _ in range(5)]),
    lambda rng: UniformKDemandOracle(5, rng.randint(1, 4), F(1, 8)),
    lambda rng: AssignmentOracle([[F(rng.randint(0, 10), 30) for _ in range(3)]
                                  for _ in range(5)]),
])
def test_greedy_matches_brute_on_gs(make_oracle):
    rng = random.Random(7)
    for _ in range(40):
        o = make_oracle(rng)
        table = value_table(o)
        prices = PriceVector.of(
            {a: F(rng.randint(-8, 40), 32) for a in range(o.num_actions)})
        greedy = gs_greedy_demand(o, prices, table=table)
        brute = brute_force_demand(o, prices, table=table)
        assert _utility(o, table, greedy, prices) == _utility(o, table, brute, prices)


def test_greedy_demand_is_demand_with_empty_base():
    rng = random.Random(13)
    for _ in range(30):
        o = random_gs_instance(rng.randint(0, 10 ** 6), num_agents=2,
                               num_actions=rng.randint(1, 7)).oracle
        prices = PriceVector.of(
            {a: F(rng.randint(-8, 40), 64) for a in range(o.num_actions)})
        for table in (None, value_table(o)):
            before = o.value_queries
            greedy = gs_greedy_demand(o, prices, table=table)
            spent = o.value_queries - before
            before = o.value_queries
            based = demand_with_base(o, prices, (), gs=True, table=table)
            assert greedy == based
            assert o.value_queries - before == spent
            assert (table is None) == (spent > 0)


def test_demand_with_base_empty_base_matches_plain():
    o = UnitDemandOracle([F(1, 2), F(1, 3), F(1, 8)])
    prices = PriceVector.of({0: F(1, 10), 1: F(1, 10), 2: F(1, 10)})
    table = value_table(o)
    got = demand_with_base(o, prices, frozenset())
    assert _utility(o, table, got, prices) == \
        _utility(o, table, brute_force_demand(o, prices), prices)


def test_demand_with_base_full_base_returns_base():
    o = AdditiveOracle([F(1, 4), F(1, 4)])
    base = frozenset({0, 1})
    assert demand_with_base(o, PriceVector({}), base) == base


def test_demand_with_base_contains_base_when_base_unattractive():
    # price makes item 1 a loss; the base keeps it anyway
    o = AdditiveOracle([F(1, 4), F(1, 8)])
    prices = PriceVector.of({0: F(1, 8)})
    got = demand_with_base(o, prices, frozenset({1}))
    assert got == frozenset({0, 1})


def test_demand_with_base_brute_cross_check():
    rng = random.Random(11)
    for _ in range(25):
        o = AssignmentOracle([[F(rng.randint(0, 10), 40) for _ in range(2)]
                              for _ in range(5)])
        table = value_table(o)
        prices = PriceVector.of({a: F(rng.randint(0, 20), 64) for a in range(5)})
        base = frozenset(a for a in range(5) if rng.random() < 0.3)
        pv = PriceVector({a: p for a, p in prices.prices.items() if a not in base})
        greedy = demand_with_base(o, pv, base, gs=True, table=table)
        brute = demand_with_base(o, pv, base, gs=False, table=table)
        assert base <= greedy and base <= brute
        paid = lambda s: pv.total(s - base)
        assert table[sum(1 << a for a in greedy)] - paid(greedy) == \
            table[sum(1 << a for a in brute)] - paid(brute)


def _reference_brute_demand(oracle, prices, table=None):
    """brute_force_demand as two loops, before they became one: per-subset
    value queries over combinations, or the table loop with low-bit price
    sums."""
    items = [a for a in range(oracle.num_actions) if a not in prices.excluded]
    if table is not None:
        return _reference_demand_from_table(table, items, prices)
    best_u, best_key, best_set = None, (), frozenset()
    for r in range(len(items) + 1):
        for combo in itertools.combinations(items, r):
            s = frozenset(combo)
            u = oracle.value(s) - prices.total(s)
            if best_u is None or u > best_u or (u == best_u and combo < best_key):
                best_u, best_key, best_set = u, combo, s
    return best_set


def _reference_demand_from_table(table, items, prices):
    umask = sum(1 << a for a in items)
    key = lambda mask: tuple(sorted(mask_to_set(mask)))
    psum = {0: F(0)}
    best_u, best_mask = table[0], 0
    for mask in sorted(m for m in range(umask + 1) if m & ~umask == 0):
        if mask:
            low = mask & -mask
            psum[mask] = psum[mask ^ low] + prices.prices[low.bit_length() - 1]
        u = table[mask] - psum[mask]
        if u > best_u or (u == best_u and key(mask) < key(best_mask)):
            best_u, best_mask = u, mask
    return mask_to_set(best_mask)


def _reference_based_demand(oracle, prices, base, table=None):
    """The exhaustive branch of demand_with_base before it shared the demand
    loop: f(base) read once more, then every X over combinations."""
    if table is None:
        val = oracle.value
    else:
        val = lambda s: table[sum(1 << a for a in s)]
    items = [a for a in range(oracle.num_actions)
             if a not in prices.excluded and a not in base]
    base_val = val(base)
    best_u, best_key, best_set = F(0), (), base
    for r in range(len(items) + 1):
        for combo in itertools.combinations(items, r):
            s = frozenset(combo)
            u = val(base | s) - base_val - prices.total(s)
            if u > best_u or (u == best_u and combo < best_key):
                best_u, best_key, best_set = u, combo, base | s
    return best_set


def _demand_cases():
    """(oracle, prices, base) on random GS and non-GS oracles: negative
    prices, excluded actions, nonempty bases, and prices equal to singleton
    values or zero so that ties occur."""
    rng = random.Random(61)
    makers = (random_additive_instance, random_unit_demand_instance,
              random_uniform_k_instance, random_oxs_instance,
              random_coverage_instance, random_explicit_monotone_instance)
    for t in range(72):
        if t % 12 == 11:
            oracle = hardness_oracle(4, hidden=rng.sample(range(4), 2))
        else:
            oracle = makers[t % 6](rng.randint(0, 10 ** 6), 1,
                                   rng.randint(2, 7)).oracle
        m = oracle.num_actions
        base = frozenset(a for a in range(m) if t % 3 and rng.random() < 0.25)
        excluded = frozenset(a for a in range(m)
                             if a not in base and rng.random() < 0.2)
        prices = {}
        for a in range(m):
            if a in excluded or (a in base and rng.random() < 0.5):
                continue
            kind = rng.randrange(4)
            if kind == 0:
                prices[a] = F(rng.randint(-8, 40), 64)
            elif kind == 1:
                prices[a] = F(oracle._int(1 << a), oracle.den)
            else:
                prices[a] = F(kind - 2)  # 0 or 1
        yield oracle, PriceVector(prices, excluded), base


def test_demand_loop_matches_the_reference_loops():
    ties = 0
    for oracle, prices, base in _demand_cases():
        table = value_table(oracle)
        plain = PriceVector({a: p for a, p in prices.prices.items()},
                            prices.excluded | base)
        utilities = sorted(
            table[sum(1 << a for a in s)] - prices.total(s - base)
            for s in all_subsets(oracle.num_actions)
            if not s & prices.excluded and base <= s)
        ties += utilities[-1] == utilities[-2] if len(utilities) > 1 else 0
        for tab in (table, None):
            before = oracle.value_queries
            expected = _reference_brute_demand(oracle, plain, tab)
            spent = oracle.value_queries - before
            before = oracle.value_queries
            assert brute_force_demand(oracle, plain, table=tab) == expected
            assert oracle.value_queries - before == spent
            assert spent == (0 if tab else 1 << (oracle.num_actions
                                                  - len(plain.excluded)))

            before = oracle.value_queries
            expected = _reference_based_demand(oracle, prices, base, tab)
            spent = oracle.value_queries - before
            before = oracle.value_queries
            assert demand_with_base(oracle, prices, base, gs=False,
                                    table=tab) == expected
            # the shared loop no longer reads f(base) on its own
            assert oracle.value_queries - before == (spent - 1 if tab is None
                                                     else 0)
    assert ties >= 20


# -- membership testers --------------------------------------------------------


def test_monotone_all_builtins():
    oracles = [
        AdditiveOracle([F(1, 8), F(1, 4), F(1, 8)]),
        UnitDemandOracle([F(1, 2), F(1, 4), F(3, 4)]),
        UniformKDemandOracle(4, 2, F(1, 4)),
        AssignmentOracle([[F(1, 4), F(1, 8)] for _ in range(4)]),
        CoverageOracle(5, [{0, 1}, {1, 2}, {3}]),
        hardness_oracle(),
    ]
    for o in oracles:
        ok, witness = is_monotone(o)
        assert ok, witness


def test_submodular_all_builtins():
    oracles = [
        AdditiveOracle([F(1, 8), F(1, 4), F(1, 8)]),
        UnitDemandOracle([F(1, 2), F(1, 4), F(3, 4)]),
        UniformKDemandOracle(4, 2, F(1, 4)),
        AssignmentOracle([[F(1, 4), F(1, 8)] for _ in range(4)]),
        CoverageOracle(5, [{0, 1}, {1, 2}, {3}]),
        hardness_oracle(),
    ]
    for o in oracles:
        ok, witness = is_submodular(o)
        assert ok, witness


def test_square_cardinality_not_submodular():
    # f(S) = |S|^2 / 9 on three items: strictly supermodular
    values = [F(len([b for b in range(3) if mask & (1 << b)]) ** 2, 9)
              for mask in range(8)]
    o = ExplicitOracle(values)
    ok, witness = is_submodular(o)
    assert not ok
    s, a, b = witness
    gain_small = o.value(s | {a}) - o.value(s)
    gain_large = o.value(s | {a, b}) - o.value(s | {b})
    assert gain_small < gain_large


def test_gs_membership_positive():
    assert is_gross_substitutes(AdditiveOracle([F(1, 4), F(1, 2), F(1, 8)]))[0]
    assert is_gross_substitutes(UnitDemandOracle([F(1, 2), F(1, 3), F(1, 5)]))[0]
    assert is_gross_substitutes(UniformKDemandOracle(4, 2, F(1, 4)))[0]
    assert is_gross_substitutes(
        AssignmentOracle([[F(1, 4), F(1, 6)] for _ in range(4)]))[0]


def _check_gs_witness(oracle, witness):
    """Independent certification: enumerate demands at p and q."""
    m = oracle.num_actions

    def demands(pv):
        best = None
        out = []
        for s in all_subsets(m):
            if s & pv.excluded:
                continue
            u = oracle.value(s) - pv.total(s)
            if best is None or u > best:
                best, out = u, [s]
            elif u == best:
                out.append(s)
        return out

    assert witness.p is not None and witness.q is not None
    raised = {a for a in range(m)
              if witness.q.prices[a] != witness.p.prices[a]}
    for a in range(m):
        assert witness.q.prices[a] >= witness.p.prices[a]
    d_p = demands(witness.p)
    d_q = demands(witness.q)
    assert witness.demand_set in d_p
    retained = witness.demand_set - raised
    assert not any(retained <= s for s in d_q)


def test_gs_membership_hardness_negative_with_witness():
    o = hardness_oracle()
    ok, witness = is_gross_substitutes(o)
    assert not ok
    _check_gs_witness(o, witness)


def test_gs_membership_supermodular_negative_with_witness():
    values = [F(0), F(1, 8), F(1, 8), F(1, 2)]  # complements: f(ab) > f(a)+f(b)
    o = ExplicitOracle(values)
    ok, witness = is_gross_substitutes(o)
    assert not ok
    _check_gs_witness(o, witness)


def _reference_testers(oracle):
    """is_monotone, is_submodular and is_gross_substitutes as loops over
    the Fraction table of ``value_table``, which counts the same queries."""
    m = oracle.num_actions

    def monotone():
        table = value_table(oracle)
        for mask in range(1 << m):
            for b in range(m):
                if not mask >> b & 1 and table[mask | 1 << b] < table[mask]:
                    return False, (mask_to_set(mask), b)
        return True, None

    def submodular():
        table = value_table(oracle)
        for mask in range(1 << m):
            outside = [b for b in range(m) if not mask >> b & 1]
            for a in outside:
                gain_a = table[mask | 1 << a] - table[mask]
                for b in outside:
                    with_b = mask | 1 << b
                    if b != a and \
                            table[with_b | 1 << a] - table[with_b] > gain_a:
                        return False, (mask_to_set(mask), a, b)
        return True, None

    def gross_substitutes():
        ok, wit = monotone()
        if not ok:
            return False, GsWitness("not-monotone", wit[0], (wit[1],))
        ok, wit = submodular()
        if not ok:
            ctx, a, b = wit
            return False, GsWitness("not-submodular", ctx, (a, b),
                                    *_search_price_witness(oracle, ctx, (a, b)))
        t = value_table(oracle)
        for mask in range(1 << m):
            outside = [x for x in range(m) if not mask >> x & 1]
            for a, b, c in itertools.combinations(outside, 3):
                for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
                    sx, sy, sz = mask | 1 << x, mask | 1 << y, mask | 1 << z
                    lhs = t[sx | sy] + t[sz]
                    if lhs > t[sx | sz] + t[sy] and lhs > t[sy | sz] + t[sx]:
                        ctx = mask_to_set(mask)
                        return False, GsWitness(
                            "exchange", ctx, (x, y, z),
                            *_search_price_witness(oracle, ctx, (x, y, z)))
        return True, None

    return monotone, submodular, gross_substitutes


def test_class_testers_on_the_int_table_match_a_fraction_reference():
    rng = random.Random(25)
    tables = []
    for _ in range(25):
        m, d = rng.randint(1, 5), rng.randint(1, 7)
        raw = [F(rng.randint(-1, d), d) for _ in range(1 << m)]
        mono = list(raw)  # the least monotone table above raw
        for b in range(m):
            for mask in range(1 << m):
                if mask >> b & 1:
                    mono[mask] = max(mono[mask], mono[mask ^ 1 << b])
        unit = UnitDemandOracle([F(rng.randint(0, d), d) for _ in range(m)])
        tables += [raw, mono, value_table(unit)]
    for _ in range(6):  # submodular, some failing the exchange condition
        d = rng.randint(2, 7)
        tables.append(value_table(CoverageOracle(d, [
            rng.sample(range(d), rng.randint(0, d)) for _ in range(4)])))
    seen = collections.Counter()
    for values in tables:
        got = UncheckedExplicit(values)
        ref = UncheckedExplicit(values)
        for tester, reference in zip(
                (is_monotone, is_submodular, is_gross_substitutes),
                _reference_testers(ref)):
            outcome = tester(got)
            assert outcome == reference(), values
            assert got.value_queries == ref.value_queries
        seen["gs" if outcome[0] else outcome[1].kind] += 1
    assert set(seen) == {"gs", "not-monotone", "not-submodular", "exchange"}


@settings(deadline=None, max_examples=25, derandomize=True, database=None)
@given(st.lists(st.fractions(min_value=0, max_value=F(1, 4)), min_size=2,
                max_size=4))
def test_additive_oracle_monotone_property(weights):
    o = AdditiveOracle(weights)
    ok, _ = is_monotone(o)
    assert ok


# -- descriptors ---------------------------------------------------------------


@pytest.mark.parametrize("oracle", [
    AdditiveOracle([F(1, 4), F(1, 2)]),
    UnitDemandOracle([F(1, 2), F(1, 3)]),
    UniformKDemandOracle(3, 2, F(1, 4)),
    AssignmentOracle([[F(1, 4), F(0)], [F(1, 8), F(1, 8)]]),
    CoverageOracle(4, [{0, 1}, {2}]),
    ExplicitOracle([F(0), F(1, 4), F(1, 2), F(1, 2)]),
    hardness_oracle(),
])
def test_descriptor_roundtrip(oracle):
    back = oracle_from_spec(oracle_to_spec(oracle))
    assert type(back) is type(oracle)
    for s in all_subsets(oracle.num_actions):
        assert back.value(s) == oracle.value(s)


# -- explicit-table validation -----------------------------------------------------


def _reference_explicit_check(values):
    """The Fraction constructor loop the integer validation replaced."""
    size = len(values)
    m = size.bit_length() - 1
    if size != 1 << m:
        raise ModelError("explicit table length must be a power of two")
    values = tuple(F(v) for v in values)
    if values[0] != 0:
        raise ModelError("explicit table must have f(empty) = 0")
    for mask, v in enumerate(values):
        if not 0 <= v <= 1:
            raise OracleRangeViolationError(f"table value {v} outside [0, 1]")
        for b in range(m):
            if not mask & (1 << b) and values[mask | (1 << b)] < v:
                raise ModelError("explicit table is not monotone")
    return values


def _outcome(build, values):
    try:
        return "accepted", build(values)
    except ModelError as exc:
        return type(exc), str(exc)


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def _random_monotone_table(rng, m):
    """Monotone values k/p over distinct primes p, scaled into [0, 1]."""
    raw = [F(0)] * (1 << m)
    for mask in range(1, 1 << m):
        floor = max(raw[mask & ~(1 << b)] for b in range(m) if mask >> b & 1)
        step = F(rng.randint(0, 3), rng.choice(PRIMES)) if rng.random() < 0.7 else 0
        raw[mask] = floor + step
    top = max(raw[-1], F(1)) + F(rng.randint(0, 2), rng.choice(PRIMES))
    return [v / top for v in raw]


def _mutations(rng, values):
    """Single-entry faults, and a range fault plus a monotonicity fault."""
    size = len(values)
    p = F(1, rng.choice(PRIMES))

    def changed(*edits):
        out = list(values)
        for mask, v in edits:
            out[mask] = v
        return out

    a, b = rng.randrange(1, size), rng.randrange(1, size)
    yield changed((a, values[a] - p))            # one entry lowered
    yield changed((size - 1, F(0)))              # the full set lowered to 0
    yield changed((a, 1 + p))                    # one above 1
    yield changed((a, -p))                       # one below 0
    yield changed((0, p))                        # nonzero f(empty)
    yield changed((a, 1 + p), (b, -p))           # both faults, either order
    yield changed((a, values[a] - p), (b, 2))


def _explicit_tables():
    rng = random.Random(20)
    for t in range(60):
        m = rng.randint(0, 8) if t >= 4 else t
        values = _random_monotone_table(rng, m)
        yield values
        if m:
            yield from _mutations(rng, values)


def test_explicit_validation_matches_fraction_reference():
    outcomes = collections.Counter()
    for values in _explicit_tables():
        got = _outcome(lambda v: ExplicitOracle(v).values, values)
        want = _outcome(_reference_explicit_check, values)
        assert got == want
        if got[0] == "accepted":
            assert all(type(v) is F for v in got[1])
        outcomes[got[0] if got[0] != ModelError else got[1]] += 1
    # every outcome the check can reach occurs
    assert outcomes["accepted"] > 60
    assert outcomes[OracleRangeViolationError] > 60
    assert outcomes["explicit table is not monotone"] > 20
    assert outcomes["explicit table must have f(empty) = 0"] > 20


def _descriptor_of(values):
    return {"type": "explicit", "values": [format_rational(v) for v in values]}


def _parts(oracle):
    return oracle.values, oracle._ints, oracle.den


def test_explicit_entry_points_agree():
    # the descriptor (grouped by string) and the Fraction list (grouped by
    # identity) give one table, or one error, on every corpus table
    for values in _explicit_tables():
        got = _outcome(lambda v: _parts(oracle_from_spec(_descriptor_of(v))),
                       values)
        assert got == _outcome(lambda v: _parts(ExplicitOracle(v)), values)


def test_packed_check_ranks_keep_fields_within_eight_bytes(monkeypatch):
    # ints below 2^63 are packed as they are; from 2^63 their ranks stand
    # in, so three distinct ints take one-byte fields however wide they are
    import budgetcontracts.rewards as rewards_module

    widths = []
    kept = rewards_module._guard_masks
    monkeypatch.setattr(rewards_module, "_guard_masks",
                        lambda width, size: widths.append(width) or kept(width, size))
    for top in (2 ** 63 - 1, 2 ** 63, 2 ** 200):
        assert _packed_monotone([0, top // 2, top // 2, top], top)
        assert not _packed_monotone([0, top, top // 2, top // 2], top)
    assert widths == [8, 8, 1, 1, 1, 1]


class _ReferenceExplicit:
    """The explicit loader the one-pass fill replaced, kept as a reference.

    Distinct entries by ``dict.fromkeys``, each parsed to a Fraction; ints
    over the common denominator, ranks among the distinct ints, and the
    monotonicity check on the ranks.
    """

    def __init__(self, values, validate=True):
        ids = list(map(id, values))
        exact = {i: exact_rational(v) for i, v in dict(zip(ids, values)).items()}
        self._fill(ids, exact, validate)

    @classmethod
    def from_entries(cls, entries):
        try:
            distinct = dict.fromkeys(entries)
        except TypeError:  # an unhashable entry
            distinct = None
        if distinct is None or not all(type(e) is str for e in distinct):
            return cls(list(map(parse_rational, entries)))
        ref = cls.__new__(cls)
        ref._fill(entries, {e: parse_rational(e) for e in distinct}, True)
        return ref

    def _fill(self, keys, exact, validate):
        size = len(keys)
        m = size.bit_length() - 1
        if size == 0 or size != 1 << m:
            raise ModelError("explicit table length must be a power of two")
        den = common_denominator(exact.values())
        scaled = scaled_ints(exact.values(), den)
        made = dict(zip(scaled, exact.values()))  # one Fraction per level
        levels = sorted(made)
        rank = dict(zip(levels, range(len(levels))))
        key_rank = dict(zip(exact, map(rank.__getitem__, scaled)))
        ranks = [key_rank[k] for k in keys]
        self._ints, self.den = [levels[r] for r in ranks], den
        self.values = tuple(made[k] for k in self._ints)
        if validate and (self._ints[0] != 0 or levels[0] < 0
                         or levels[-1] > den
                         or not _reference_ranks_monotone(ranks)):
            self._raise_first_fault(m)

    def _raise_first_fault(self, m):
        if self._ints[0] != 0:
            raise ModelError("explicit table must have f(empty) = 0")
        for mask, k in enumerate(self._ints):
            if not 0 <= k <= self.den:
                raise OracleRangeViolationError(
                    f"table value {self.values[mask]} outside [0, 1]")
            for b in range(m):
                if not mask >> b & 1 and self._ints[mask | 1 << b] < k:
                    raise ModelError("explicit table is not monotone")


def _load_outcome(load, entries):
    """ints, den, values and which entries share one Fraction; or the error."""
    try:
        o = load(entries)
    except ModelError as exc:
        return type(exc), str(exc)
    first = {}
    shared = [first.setdefault(id(v), mask) for mask, v in enumerate(o.values)]
    assert all(type(v) is F for v in o.values)
    return o._ints, o.den, o.values, shared


def _spelled(rng, v):
    """``v`` as a descriptor string, reduced or not, now and then decimal."""
    k = rng.choice((1, 1, 2, 3))
    text = f"{v.numerator * k}/{v.denominator * k}"
    if v.denominator in (1, 2, 4, 5, 8) and rng.random() < 0.2:
        text = str(v.numerator / v.denominator)  # exact in binary
    return rng.choice((text, format_rational(v)))


def _differential_tables():
    rng = random.Random(29)
    for m in range(13):  # random tables, m = 0..12, and their faults
        for _ in range(3 if m < 10 else 1):
            values = _random_monotone_table(rng, m)
            yield values
            if m:
                yield from _mutations(rng, values)
    # more than 128 levels (two-byte fields), then a den of at least 2^63
    yield [F(k, 255) for k in range(256)]
    yield [F(0)] + [F(k, 255) for k in range(254, 0, -1)] + [F(1)]
    big = 2 ** 64 + 13
    yield [F(k, big) for k in range(8)]
    yield [F(0), F(3, big), F(2, big), F(1)]
    yield [F(0), F(1, big), F(1, 3), F(big + 1, big)]
    # dens around each field width; at a width's first den, 1 (the int
    # den) sits on the guard bit
    for top in (127, 128, 2 ** 15 - 1, 2 ** 15, 2 ** 31 - 1, 2 ** 31,
                2 ** 63 - 1, 2 ** 63):
        ints = [0, 1] + [max(1, k * top >> 6) for k in range(2, 63)] + [top]
        yield [F(k, top) for k in ints]
        yield [F(0)] + [F(top - 1, top)] * 62 + [F(1)]


def test_explicit_loader_matches_the_reference_loader():
    seen = collections.Counter()
    rng = random.Random(5)
    for values in _differential_tables():
        descriptor = [_spelled(rng, v) for v in values]
        want = _load_outcome(_ReferenceExplicit.from_entries, descriptor)
        assert _load_outcome(lambda e: oracle_from_spec(
            {"type": "explicit", "values": e}), descriptor) == want
        assert _load_outcome(ExplicitOracle, values) == \
            _load_outcome(_ReferenceExplicit, values)
        unchecked = _load_outcome(UncheckedExplicit, values)
        assert unchecked == _load_outcome(
            lambda v: _ReferenceExplicit(v, validate=False), values)
        if isinstance(want[0], list):  # accepted: the packer agrees
            seen["accepted"] += 1
            assert _packed_monotone(want[0], want[1])
        else:
            seen[want[1] if want[0] is ModelError else want[0]] += 1
    assert seen["accepted"] > 20 and seen[OracleRangeViolationError] > 20
    assert seen["explicit table is not monotone"] > 10
    assert seen["explicit table must have f(empty) = 0"] > 10


@pytest.mark.parametrize("entries", [
    ["0", "1/2", "2/4", "0.5"],           # one value spelled three ways
    ["0", "2/4", "1/2", "0.5", "1/2", "1/2", "0.50", "1"],
    [0, 1, 1, 1], [0, "1/2", 1, "1"], ["0", 1, "1", 1],  # ints, mixed
    [0, 1, True, 1], [0, 0.5, "1/2", 1], [0, "1/2", None, 1],
    ["0", ["1"], "1", "1"], ["0", "1/2", {"a": 1}, "x"],  # unhashable
    ["0", "x/3", "1/0", "1"], [], ["0"], ["1"], ["0", "1", "1"],
    ["0", "-1/3", "1/2", "1"], ["0", "4/3", "1/2", "1"],
    ["1/7", "1/2", "1/2", "1"], ["0", "1/2", "1/3", "1"],
    ["0", "1/" + str(2 ** 70), "1", "1"],
])
def test_explicit_loader_matches_the_reference_on_named_entries(entries):
    want = _load_outcome(_ReferenceExplicit.from_entries, entries)
    assert _load_outcome(lambda e: oracle_from_spec(
        {"type": "explicit", "values": e}), entries) == want


@pytest.mark.parametrize("top", [2 ** 31 - 1, 2 ** 31, 2 ** 63 - 1, 2 ** 63,
                                 2 ** 200])
def test_packed_check_wide_ints_and_the_rank_fallback(top):
    # four- and eight-byte fields hold ints up to 2^63 - 1; from 2^63 no
    # field does, and the ints' ranks stand in for them
    rising = [k * top // 7 for k in range(8)]
    assert _packed_monotone(rising, top)
    assert _packed_monotone([0] * 7 + [top], top)
    for i, j in ((3, 7), (6, 7), (0, 4)):
        ints = list(rising)
        ints[i], ints[j] = ints[j], ints[i]
        assert _packed_monotone(ints, top) is \
            _reference_ranks_monotone(ints) is False


def _reference_ranks_monotone(ranks):
    m = len(ranks).bit_length() - 1
    return all(ranks[i] <= ranks[i | 1 << b] for b in range(m)
               for i in range(len(ranks)) if not i >> b & 1)


def _one_fault_table(m, mask, b):
    """A monotone table but for f(mask) > f(mask + b), its only fault.

    Additive with weight 1 on b and 4 elsewhere, over 4m; f(mask) is
    raised by 2, which passes b's weight and no other.
    """
    weight = [1 if a == b else 4 for a in range(m)]
    ints = subset_sums(weight)
    ints[mask] += 2
    return [F(k, 4 * m) for k in ints]


def test_packed_check_matches_the_testers_on_random_tables():
    rng = random.Random(17)
    tables = [[F(0)], [F(0), F(1)], [F(0), F(0)]]
    for _ in range(40):
        m = rng.randint(1, 8)
        values = _random_monotone_table(rng, m)
        tables.append(values)
        tables.extend(_mutations(rng, values))
    seen = collections.Counter()
    for values in tables:
        o = UncheckedExplicit(values)
        levels = sorted(set(o._ints))
        ranks = [levels.index(k) for k in o._ints]
        ok = _packed_monotone(ranks, len(levels) - 1)
        assert ok == is_monotone(o)[0] == _reference_ranks_monotone(ranks)
        if 0 <= levels[0] and levels[-1] <= o.den:  # the ints themselves
            assert _packed_monotone(o._ints, o.den) == ok
        assert _outcome(ExplicitOracle, values)[0] == \
            _outcome(_reference_explicit_check, values)[0]
        seen[ok] += 1
    assert seen[True] > 30 and seen[False] > 30


@pytest.mark.parametrize("m", [2, 5, 8])
def test_packed_check_finds_a_single_fault_at_every_bit(m):
    # f(empty) = 0 leaves mask 0 no monotonicity fault without a range fault
    for b in range(m):
        without = [mask for mask in range(1, 1 << m) if not mask >> b & 1]
        for mask in {without[0], without[len(without) // 2], without[-1]}:
            values = _one_fault_table(m, mask, b)
            o = UncheckedExplicit(values)
            assert is_monotone(o) == (False, (mask_to_set(mask), b))
            assert not _packed_monotone(o._ints, max(o._ints))
            got = _outcome(ExplicitOracle, values)
            assert got == _outcome(_reference_explicit_check, values)
            assert got[1] == "explicit table is not monotone"


@pytest.mark.parametrize("m,levels", [(8, 128), (8, 129), (15, 32768),
                                      (16, 32769)])
def test_packed_check_field_widths_and_guard_bits(m, levels):
    # ints 0..127 and 0..32767 fill one- and two-byte fields below the
    # guard bit; a top one higher takes the next width.  The extreme ints
    # sit next to each other in both orders.
    size = 1 << m
    rising = [i * levels >> m for i in range(size)]
    assert len(set(rising)) == levels
    assert _packed_monotone(rising, levels - 1)
    top = [0] * (size - 1) + [levels - 1]
    assert _packed_monotone(top, levels - 1)
    for mask in (0, 1, size // 2 - 1):
        for hi in (0, levels - 2):
            ranks = list(rising)
            ranks[mask] = levels - 1
            ranks[mask | size >> 1] = hi
            assert _packed_monotone(ranks, levels - 1) is \
                _reference_ranks_monotone(ranks) is False
    if m == 8:  # through the oracle, against both testers
        values = [F(r, levels - 1) for r in rising]
        assert ExplicitOracle(values).values == tuple(values)
        assert is_monotone(ExplicitOracle(values))[0]
        values[3], values[7] = values[7], values[3]
        assert _outcome(ExplicitOracle, values) == \
            _outcome(_reference_explicit_check, values)


def test_guard_masks_are_cached_for_small_tables_only():
    _guard_masks.cache_clear()
    for m in range(14):  # ints 0..2^m - 1: fields of 1, then 2 bytes
        assert _packed_monotone(range(1 << m), (1 << m) - 1)
        assert _packed_monotone(range(1 << m), (1 << m) - 1)  # from the cache
    # 2^13 two-byte fields take 16 KB: built per call, not kept
    info = _guard_masks.cache_info()
    assert (info.maxsize, info.currsize, info.hits) == (8, 8, 13)
    # the largest kept entry, 14 masks of 8 KB: 8 entries stay under 1 MB
    largest = sum((g.bit_length() + 7) // 8 for g in _guard_masks(1, 1 << 13))
    assert 8 * largest < 1 << 20


def test_explicit_validation_reports_first_fault_in_mask_order():
    # mask 1 lies above 1 and mask 2 breaks monotonicity at mask 2 -> 3
    values = [F(0), F(3, 2), F(1, 2), F(1, 3)]
    with pytest.raises(OracleRangeViolationError, match="3/2 outside"):
        ExplicitOracle(values)
    # mask 0's superset 1 lies below 0: monotonicity at mask 0 comes first
    values = [F(0), F(-1, 7), F(1, 2), F(2)]
    with pytest.raises(ModelError, match="not monotone"):
        ExplicitOracle(values)


def test_explicit_unvalidated_table_and_bad_lengths():
    values = [F(1, 10), F(-1, 3), F(5, 4), F(1, 2)]
    assert UncheckedExplicit(values).values == tuple(values)
    for size in (0, 3, 6):
        with pytest.raises(ModelError, match="power of two"):
            ExplicitOracle([F(0)] * size)


def test_explicit_descriptor_parses_each_entry_strictly():
    spec = {"type": "explicit", "values": ["0", "1/3", "2/6", 1]}
    o = oracle_from_spec(spec)
    assert o.values == (0, F(1, 3), F(1, 3), 1)
    # True == 1 and False == 0: a parse cache keyed by == would take them
    for bad in (True, False, 0.5, None):
        with pytest.raises(RationalParseError):
            oracle_from_spec({"type": "explicit", "values": [0, 1, bad, 1]})


def test_explicit_descriptor_edge_entries():
    # of two malformed strings, the first in entry order is reported
    spec = {"type": "explicit", "values": ["0", "1/2", "x/3", "1/0"]}
    with pytest.raises(RationalParseError, match="'x/3'"):
        oracle_from_spec(spec)
    spec["values"][1:3] = ["1/0", "x/3"]
    with pytest.raises(RationalParseError, match="'1/0'"):
        oracle_from_spec(spec)
    # true is refused where 1 is taken
    with pytest.raises(RationalParseError, match="True"):
        oracle_from_spec({"type": "explicit", "values": [0, 1, True, 1]})
    assert oracle_from_spec(
        {"type": "explicit", "values": [0, 1, 1, 1]}).values == (0, 1, 1, 1)
    # "1/2" and "2/4" are one level: one stored Fraction, one integer
    o = oracle_from_spec({"type": "explicit", "values": ["0", "1/2", "2/4", "1"]})
    assert o.values[1] is o.values[2]
    assert o._table() == [o._int(k) for k in range(4)] == [0, 1, 1, 2]
    assert o.den == 2 and value_table(o) == [0, F(1, 2), F(1, 2), 1]
    # an all-int table is validated like any other
    for values, error in (([0, 1, 1, 0], "not monotone"),
                          ([0, 2, 1, 2], "outside"), ([1, 1, 1, 1], "empty")):
        with pytest.raises(ModelError, match=error):
            oracle_from_spec({"type": "explicit", "values": values})
