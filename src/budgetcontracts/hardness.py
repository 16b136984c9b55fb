"""The hidden-set instance family behind the submodular inapproximability gap.

The family has n unit-action agents plus one special agent owning a bad and
a good action.  The reward composite is a unit-demand term over the special
actions, plus a capped count of everything else, minus a tiny penalty that
fires when the queried set, ignoring the good action, is exactly the hidden
half of the unit actions together with the bad action.  Only that hidden
half, working alongside the good action, can be incentivized within budget
to a reward above epsilon scale; identifying the hidden set through value
queries is the hard part, and the experiment below measures a solver's
success rate at it.

Making the penalty insensitive to the good action keeps the composite
submodular (a penalty on the single bad set alone is not: the good action
would shield it, creating a complementarity) while still revealing the
hidden set only to queries that pin it exactly, so each query rules out at
most one candidate.

The hidden set lives behind the oracle boundary: solvers run against a
query-counting view exposing only value and demand answers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, lcm
from typing import Callable, Iterable, Optional

from budgetcontracts.core import (
    Action,
    Contract,
    GroundSetTooLargeError,
    HARDNESS_N_LIMIT,
    Instance,
    ModelError,
    ONE,
    ZERO,
    check_enumeration,
    descriptor_field,
    exact_rational,
    parse_integer,
    parse_rational,
)
from budgetcontracts.equilibria import iter_min_contracts, nash_violator
from budgetcontracts.objectives import PROFIT, evaluate
from budgetcontracts.rewards import (
    PriceVector,
    RewardOracle,
    _check_prices,
    mask_to_set,
    set_to_mask,
    with_table,
)

HALF = Fraction(1, 2)


class InvalidEpsilonError(ModelError):
    pass


class OddNError(ModelError):
    pass


class BadHiddenSetSizeError(ModelError):
    pass


class QueryBudgetExceededError(ModelError):
    pass


def bad_action(n: int) -> int:
    return n


def good_action(n: int) -> int:
    return n + 1


def _check_n(n: int) -> None:
    if n <= 0 or n % 2 != 0:
        raise OddNError(f"n must be a positive even integer, got {n}")
    if n > HARDNESS_N_LIMIT:
        raise GroundSetTooLargeError(
            f"hardness family: n = {n} exceeds the limit {HARDNESS_N_LIMIT}")


def _check_setting(budget: Fraction, approx_target: Fraction) -> None:
    """The budget and target checks that :func:`default_epsilon` relies on."""
    if not 0 < budget < 1:
        raise ModelError("budget must lie strictly inside (0, 1)")
    if approx_target < 1:
        raise ModelError("approximation target must be >= 1")


def default_epsilon(n: int, budget: Fraction, approx_target: Fraction) -> Fraction:
    """Half the gap bound (1-B)/(K(n+4)) on epsilon, as an exact rational,
    halved again until eps^2 < 2B/n so the good action's cost stays
    positive; strict inequalities need slack, hence the halving.

    With B in (0, 1) and K >= 1 (:func:`_check_setting`) the gap bound is
    below 1/(n+4) < 1/(n+2), which keeps the top reward value inside
    [0, 1], and below 1 < 4n/B, so it is the one that binds.
    """
    eps = (ONE - budget) / (approx_target * (n + 4)) / 2
    while eps * eps >= Fraction(2) * budget / n:
        eps /= 2
    return eps


def _hidden_set(ids: Iterable[int]) -> frozenset[int]:
    """``ids`` as a set; a repeated id raises rather than shrinking it."""
    ids = list(ids)
    if len(set(ids)) < len(ids):
        raise BadHiddenSetSizeError(f"hidden set repeats an agent id: {ids}")
    return frozenset(ids)


@dataclass(frozen=True)
class HardnessParams:
    n: int
    budget: Fraction
    approx_target: Fraction
    eps: Fraction
    hidden: frozenset[int]

    def __post_init__(self) -> None:
        for name in ("budget", "approx_target", "eps"):
            object.__setattr__(self, name, exact_rational(getattr(self, name)))
        _check_n(self.n)
        _check_setting(self.budget, self.approx_target)
        if len(self.hidden) != self.n // 2 or not self.hidden <= set(range(self.n)):
            raise BadHiddenSetSizeError(
                f"hidden set must be {self.n // 2} of the unit agents")
        e = self.eps
        if e <= 0:
            raise InvalidEpsilonError("eps must be > 0")
        if e >= (ONE - self.budget) / (self.approx_target * (self.n + 4)):
            raise InvalidEpsilonError("eps too large for the gap condition")
        if e * e >= Fraction(2) * self.budget / self.n:
            raise InvalidEpsilonError("eps^2 must stay below 2B/n")

    @staticmethod
    def make(n: int, budget: Fraction, approx_target: Fraction = ONE,
             eps: Optional[Fraction] = None,
             hidden: Optional[Iterable[int]] = None,
             seed: int = 0) -> "HardnessParams":
        _check_n(n)
        budget, approx_target = map(exact_rational, (budget, approx_target))
        _check_setting(budget, approx_target)
        if eps is None:
            eps = default_epsilon(n, budget, approx_target)
        if hidden is None:
            hidden = random.Random(seed).sample(range(n), n // 2)
        return HardnessParams(n, budget, approx_target, eps, _hidden_set(hidden))


class HardnessOracle(RewardOracle):
    """Value oracle for the composite reward, with a native demand query.

    The demand simulation sorts unit actions by price, takes the best
    feasible prefix length tau (capped at n/2 + 1), and scores the twelve
    candidates {prefix tau, prefix tau-1, prefix tau-2 plus the tau-th}
    crossed with the four special-action options, spending at most twelve
    value queries.  That recipe is exact for the nonnegative prices the
    model produces; with more than n/2 + 1 negatively priced unit actions
    it would under-buy; there a demanded set buys all of them and no
    positive unit, which leaves at most eight candidates.

    For eps = p/q the values 1/2, eps and the eps/2 penalty are q, 2p and
    p over ``den`` = 2q, so every value is an int over ``den`` in closed
    form.
    """

    function_class = "submodular"
    has_native_demand = True
    monotone = True

    def __init__(self, n: int, eps: Fraction, hidden: frozenset[int]):
        _check_n(n)
        if len(frozenset(hidden)) != n // 2 or not frozenset(hidden) <= set(range(n)):
            raise BadHiddenSetSizeError("hidden set must be n/2 unit agents")
        eps = exact_rational(eps)
        if not 0 < eps <= Fraction(1, n + 2):
            raise InvalidEpsilonError("eps must lie in (0, 1/(n+2)]")
        super().__init__(n + 2)
        self.n = n
        self.eps = eps
        self.den = 2 * eps.denominator
        self._hidden = frozenset(hidden)
        self._good = 1 << good_action(n)
        # the revealing queries: hidden + bad, with or without the good action
        self._revealing = self._good | 1 << bad_action(n) | set_to_mask(self._hidden)

    def _reveals(self, mask: int) -> bool:
        """Queries on which the oracle differs from the penalty-free one."""
        return mask | self._good == self._revealing

    def _base_int(self, mask: int) -> int:
        """The penalty-free composite (what every non-revealing query sees),
        times ``den``."""
        n, p, q = self.n, self.eps.numerator, self.eps.denominator
        good, bad = mask >> good_action(n) & 1, mask >> bad_action(n) & 1
        f1 = q if good else 2 * p if bad else 0
        return f1 + 2 * p * min(mask.bit_count() - good, n // 2 + 1)

    def _base_value(self, mask: int) -> Fraction:
        """:meth:`_base_int` as a Fraction."""
        return Fraction(self._base_int(mask), self.den)

    def _int(self, mask: int) -> int:
        value = self._base_int(mask)
        return value - self.eps.numerator if self._reveals(mask) else value

    def _demand(self, prices: PriceVector) -> frozenset[int]:
        return hardness_demand(self, prices)


def hardness_demand(oracle: HardnessOracle, prices: PriceVector) -> frozenset[int]:
    """Demand via the twelve-candidate simulation (see HardnessOracle)."""
    n, eps = oracle.n, oracle.eps
    items = _check_prices(oracle, prices)
    units = [a for a in items if a < n]
    negative = [a for a in units if prices.prices[a] < 0]
    if len(negative) > n // 2 + 1:
        # they saturate the capped count; the lexicographic rule buys the
        # zero-priced units below the demanded set's largest item
        zero = [a for a in units if prices.prices[a] == 0]
        unit_options = {frozenset(negative + zero), frozenset(
            negative + [a for a in zero if a < negative[-1]])}
    else:
        order = sorted(units, key=lambda a: (prices.prices[a], a))
        k = sum(1 for a in order if prices.prices[a] < eps)
        tau = min(k, n // 2 + 1)
        unit_options = {frozenset(order[:tau])}
        if tau >= 1:
            unit_options.add(frozenset(order[:tau - 1]))
        if tau >= 2:
            unit_options.add(frozenset(order[:tau - 2]) | {order[tau - 1]})
    special_options = [frozenset()]
    for special in items[len(units):]:  # the bad and good action, unless excluded
        special_options += [opt | {special} for opt in list(special_options)]
    candidates = sorted({u | sp for u in unit_options for sp in special_options},
                        key=lambda s: tuple(sorted(s)))
    # the first candidate of the highest utility, one value query each, on ints
    used = frozenset().union(*candidates)
    den = lcm(oracle.den, *(prices.prices[a].denominator for a in used))
    pay = {a: prices.prices[a].numerator * den // prices.prices[a].denominator
           for a in used}
    return max(candidates, key=lambda s: oracle.read(set_to_mask(s))
               * (den // oracle.den) - sum(map(pay.__getitem__, s)))


def build_hardness(params: HardnessParams) -> Instance:
    """The full instance: unit agents 0..n-1, special agent n with two actions."""
    n, eps, budget = params.n, params.eps, params.budget
    actions = [Action(i, i, eps ** 3) for i in range(n)]
    actions.append(Action(bad_action(n), n, Fraction(3, 2) * eps * budget))
    actions.append(Action(good_action(n), n, HALF * (budget - Fraction(n, 2) * eps * eps)))
    oracle = HardnessOracle(n, eps, params.hidden)
    return Instance(n + 1, tuple(actions), oracle)


def _pair_for_guess(setting: HardnessParams | HardnessPublicInfo,
                    guess: Iterable[int]) -> tuple[Contract, frozenset[int]]:
    """:func:`good_contract` as if ``guess`` were the hidden set."""
    n, eps = setting.n, setting.eps
    alpha = [ZERO] * (n + 1)
    for i in guess:
        alpha[i] = eps * eps
    alpha[n] = setting.budget - Fraction(n, 2) * eps * eps
    return Contract(tuple(alpha)), frozenset(guess) | {good_action(n)}


def good_contract(params: HardnessParams) -> tuple[Contract, frozenset[int]]:
    """The one budget-exhausting pair that reaches reward 1/2.

    Pays eps^2 to each hidden unit agent and the remaining budget to the
    special agent; the prescribed profile is the hidden set plus the good
    action.
    """
    return _pair_for_guess(params, params.hidden)


@dataclass(frozen=True)
class GapReport:
    ok: bool
    bound: Fraction
    max_other_value: Fraction
    gap_ratio: Fraction
    feasible_profiles: int
    violations: tuple[frozenset[int], ...]


def verify_gap_exhaustive(params: HardnessParams) -> GapReport:
    """Check that every budget-feasible non-good profile stays below the bound.

    Enumerates all profiles, prices each with its minimal incentivizing
    contract, and asserts f <= (n/2 + 2) * eps for every feasible profile
    other than the good one.  The gap ratio compares the good pair's profit
    floor (1-B)/2 against that bound.
    """
    n = params.n
    check_enumeration(n + 2, "gap verification")
    inst = with_table(build_hardness(params))
    good_mask = set_to_mask(params.hidden) | 1 << good_action(n)
    bound = (Fraction(n, 2) + 2) * params.eps
    f, f_den = inst.scaled_f  # f(S) > bound iff F(S) * q > p * f_den
    p, q = bound.as_integer_ratio()
    max_other = 0
    feasible = 0
    violations = []
    for mask, *_ in iter_min_contracts(inst, budget=params.budget):
        if mask == good_mask:
            continue
        feasible += 1
        f_s = f(mask)
        max_other = max(max_other, f_s)
        if f_s * q > p * f_den:
            violations.append(mask_to_set(mask))
    gap_ratio = ((ONE - params.budget) / 2) / bound
    return GapReport(not violations, bound, Fraction(max_other, f_den),
                     gap_ratio, feasible, tuple(violations))


# -- adversarial experiment ---------------------------------------------------


@dataclass(frozen=True)
class HardnessPublicInfo:
    """Everything a solver may see besides oracle answers."""

    n: int
    budget: Fraction
    approx_target: Fraction
    eps: Fraction
    unit_cost: Fraction
    bad_cost: Fraction
    good_cost: Fraction


class OracleView:
    """Query-counting facade; the solver under test sees nothing else.

    Each value or demand call the solver issues costs one unit against the
    query budget (the oracle's own internal value spending of a simulated
    demand is tracked on the oracle's counters, not here).
    """

    def __init__(self, oracle: RewardOracle, query_budget: int):
        self._oracle = oracle
        self.query_budget = query_budget
        self.issued = 0

    def _spend(self) -> None:
        if self.issued >= self.query_budget:
            raise QueryBudgetExceededError(
                f"query budget of {self.query_budget} exhausted")
        self.issued += 1

    def value(self, subset: Iterable[int]) -> Fraction:
        self._spend()
        return self._oracle.value(subset)

    def demand(self, prices: PriceVector) -> frozenset[int]:
        self._spend()
        return self._oracle.demand(prices)


Solver = Callable[[OracleView, HardnessPublicInfo], tuple[Contract, frozenset[int]]]


def make_random_guess_solver(seed: int) -> Solver:
    """Baseline: guess the hidden set uniformly, no queries at all."""
    rng = random.Random(seed)

    def solver(_view: OracleView, pub: HardnessPublicInfo):
        guess = frozenset(rng.sample(range(pub.n), pub.n // 2))
        return _pair_for_guess(pub, guess)

    return solver


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    success: bool
    approx_fraction: Fraction  # achieved value / good pair's value
    issued_queries: int
    oracle_value_queries: int
    oracle_demand_queries: int
    budget_exceeded: bool


@dataclass(frozen=True)
class ExperimentReport:
    n: int
    budget: Fraction
    approx_target: Fraction
    eps: Fraction
    trials: int
    query_budget: int
    successes: int
    baseline_prob: Fraction
    mean_approx_fraction: Fraction
    records: tuple[TrialRecord, ...] = field(repr=False)


def adversary_experiment(solver: Solver, n: int, budget: Fraction,
                         approx_target: Fraction, trials: int,
                         query_budget: int, seed: int, *,
                         eps: Optional[Fraction] = None) -> ExperimentReport:
    """Run the hidden-set game: can the solver find the good equilibrium?

    Per trial, draws the hidden set uniformly among the (n choose n/2)
    candidates, hands the solver a counting oracle view capped at
    ``query_budget`` issued queries, and scores success as: the returned
    pair is budget-feasible, is a Nash equilibrium, and its profit times
    the approximation target reaches the good pair's profit floor (1-B)/2.
    A blown query budget records as a failed trial, not a crash.
    """
    _check_n(n)
    _check_setting(budget, approx_target)
    for name, count in (("trials", trials), ("query budget", query_budget)):
        if count < 0:
            raise ModelError(f"{name} must be >= 0, got {count}")
    if eps is None:
        eps = default_epsilon(n, budget, approx_target)
    rng = random.Random(seed)
    records = []
    successes = 0
    total_fraction = ZERO
    floor = (ONE - budget) / 2
    for t in range(trials):
        hidden = frozenset(rng.sample(range(n), n // 2))
        params = HardnessParams(n, budget, approx_target, eps, hidden)
        inst = build_hardness(params)
        pub = HardnessPublicInfo(
            n, budget, approx_target, eps,
            unit_cost=inst.cost_of[0],
            bad_cost=inst.cost_of[bad_action(n)],
            good_cost=inst.cost_of[good_action(n)])
        view = OracleView(inst.oracle, query_budget)
        exceeded = False
        try:
            alpha, profile = solver(view, pub)
        except QueryBudgetExceededError:
            alpha, profile = Contract.zero(n + 1), frozenset()
            exceeded = True
        vq, dq = inst.oracle.value_queries, inst.oracle.demand_queries
        value = ZERO
        if alpha.total() <= budget and \
                nash_violator(inst, alpha, profile) is None:
            value = evaluate(PROFIT, inst, alpha, profile)
        good_alpha, good_profile = good_contract(params)
        good_value = evaluate(PROFIT, inst, good_alpha, good_profile)
        success = value * approx_target >= floor
        fraction = value / good_value if good_value > 0 else ZERO
        successes += success
        total_fraction += fraction
        records.append(TrialRecord(t, success, fraction, view.issued, vq, dq,
                                   exceeded))
    baseline = Fraction(1, comb(n, n // 2))
    mean_fraction = total_fraction / trials if trials else ZERO
    return ExperimentReport(n, budget, approx_target, eps, trials,
                            query_budget, successes, baseline,
                            mean_fraction, tuple(records))


# -- JSON descriptor ----------------------------------------------------------


def _setting_from_spec(spec) -> tuple[Fraction, Fraction]:
    """The descriptor's budget and approximation target, checked."""
    budget = parse_rational(descriptor_field(spec, "budget"))
    target = parse_rational(spec.get("approx_target", "1"))
    _check_setting(budget, target)
    return budget, target


def _oracle_fields(spec) -> tuple[int, Fraction, frozenset[int]]:
    """n, eps and the hidden set of a hardness descriptor.

    Without "eps" the default comes from "budget" and "approx_target";
    without "hidden" the set is drawn from "seed" (default 0).
    """
    n = descriptor_field(spec, "n", int)
    _check_n(n)
    if "eps" in spec:
        eps = parse_rational(spec["eps"])
    else:
        eps = default_epsilon(n, *_setting_from_spec(spec))
    if "hidden" in spec:
        hidden = _hidden_set(parse_integer(i, "hardness hidden member")
                             for i in descriptor_field(spec, "hidden", list))
    else:
        seed = descriptor_field(spec, "seed", int) if "seed" in spec else 0
        hidden = frozenset(random.Random(seed).sample(range(n), n // 2))
    return n, eps, hidden


def hardness_oracle_from_spec(spec) -> HardnessOracle:
    return HardnessOracle(*_oracle_fields(spec))


def hardness_oracle_to_spec(oracle: HardnessOracle) -> dict:
    from budgetcontracts.core import format_rational as fr

    return {"type": "hardness", "n": oracle.n, "eps": fr(oracle.eps),
            "hidden": sorted(oracle._hidden)}


def hardness_instance_from_spec(spec) -> Instance:
    """Build the full instance (agents, costs, oracle) from a descriptor."""
    n, eps, hidden = _oracle_fields(spec)
    budget, target = _setting_from_spec(spec)
    return build_hardness(HardnessParams(n, budget, target, eps, hidden))
