"""Optimization algorithms: exact brute force, the additive FPTAS, the exact
single-agent scheme, downsizing, and the constant-factor pipeline for
gross-substitutes rewards.

Every solver returns a :class:`SolveResult` whose contract/profile pair is a
weak Nash equilibrium within budget, the objective value evaluated exactly,
and a certified approximation factor (``gamma`` meaning value >= OPT/gamma,
or the string "exact").  Solvers are deterministic: enumeration runs in
bitmask order and ties keep the first candidate found.

The poly-time structure of the algorithms is preserved at desk scale; the
external poly-time base solver the reduction pipeline would call for
Max-Profit(1) is stood in for by the exact brute-force oracle (gamma = 1),
and the certified constant accounts for that.

No envelope is built here: brute force, the single-agent scheme (brute
force on its one agent), over one agent's records the exact single-agent
solver, and every stage of the GS pipeline pick among the int records of
:func:`equilibria.iter_min_contracts` with one race, :func:`_race`, valued
by ``Objective.weights``; only a winner becomes a ``Contract``.
Nor are prices built: downsizing calls :func:`equilibria.ne_from_demand`
and :func:`equilibria.double_contract`, and :func:`_counted` alone reads
the query counts.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import accumulate, chain, pairwise
from operator import itemgetter, or_
from typing import Iterable, Iterator, Optional, Sequence

from budgetcontracts.core import (
    Contract,
    Instance,
    ModelError,
    UnknownAgentIdError,
    ZERO,
    check_enumeration,
    exact_rational,
    restrict_contract,
)
from budgetcontracts.equilibria import contract_of, double_contract, \
    iter_min_contracts, nash_violator, ne_from_demand
from budgetcontracts.objectives import Objective, PROFIT, REWARD, evaluate
from budgetcontracts.rewards import mask_to_set, set_to_mask, with_table


class NotAnEquilibriumError(ModelError):
    pass


@dataclass(frozen=True)
class SolveResult:
    contract: Contract
    profile: frozenset[int]
    value: Fraction
    factor: Fraction | str  # gamma with value >= OPT/gamma, or "exact"
    objective: str
    budget: Fraction
    value_queries: int = 0
    demand_queries: int = 0


def _race(obj: Objective, inst: Instance, records: Iterable[tuple]
          ) -> tuple[Contract, frozenset[int], Fraction]:
    """The first (contract, profile, value) of maximal objective value over
    minimal-contract ``records`` (mask, tn, td, paid) of
    :func:`equilibria.iter_min_contracts`, on an instance carrying its table.

    By ``Objective.weights`` (pn, wn, d), a record paying t = tn / td at S
    is worth ((d td - pn tn) F(S) c_den - wn td C(S) f_den) / (d td f_den
    c_den), F(S) from ``Instance.scaled_f`` and C(S) from the agents' cost
    sums; records compare on these numerators cross-multiplied by td > 0.
    The first is the walk's unpaid empty profile (costs are not negative),
    which every caller's filter keeps; a later one wins only strictly, and
    only the winner becomes a Contract (:func:`equilibria.contract_of`).
    """
    f, f_den = inst.scaled_f
    c_den = inst.int_costs[1]
    pn, wn, d = obj.weights
    parts = tuple(zip(inst.agent_masks, inst.agent_cost_sums)) if wn else ()
    best = None
    for mask, tn, td, paid in records:
        v = (d * td - pn * tn) * f(mask) * c_den
        if wn:
            v -= wn * td * f_den * sum(costs[mask & own] for own, costs in parts)
        if best is None or v * best[1] > best[0] * td:
            best = v, td, mask, paid
    v, td, mask, paid = best
    return contract_of(inst, paid), mask_to_set(mask), \
        Fraction(v, d * td * f_den * c_den)


def _check_budget(budget: Fraction) -> Fraction:
    """``budget`` in [0, 1], by :func:`core.exact_rational`'s rule."""
    budget = exact_rational(budget)
    if not 0 <= budget <= 1:
        raise ModelError("budget must lie in [0, 1]")
    return budget


def _check_eps(eps: Fraction) -> Fraction:
    """``eps`` in (0, 1), by :func:`core.exact_rational`'s rule."""
    eps = exact_rational(eps)
    if not 0 < eps < 1:
        raise ModelError("eps must lie in (0, 1)")
    return eps


def _counted(solver):
    """``solver`` reporting, on every exit, the value and demand queries
    its instance's oracle took during the call."""
    @functools.wraps(solver)
    def counted(inst: Instance, *args, **kwargs) -> SolveResult:
        oracle = inst.oracle
        vq, dq = oracle.value_queries, oracle.demand_queries
        result = solver(inst, *args, **kwargs)
        return replace(result, value_queries=oracle.value_queries - vq,
                       demand_queries=oracle.demand_queries - dq)
    return counted


def brute_force_opt(inst: Instance, budget: Fraction, obj: Objective
                    ) -> SolveResult:
    """Exact optimum over all budget-feasible contract/equilibrium pairs.

    Enumerates every profile, prices it with its minimal incentivizing
    contract, keeps the budget-feasible ones and returns the objective
    maximizer.  Ground truth for everything else in this module.
    """
    return _brute(inst, budget, obj, str(obj))


def max_reward_bounded_brute(inst: Instance, budget: Fraction) -> SolveResult:
    """Exact reward maximization with the per-agent cap alpha_i <= 3B/4:
    :func:`brute_force_opt` for reward over the minimal contracts whose
    every entry respects the cap."""
    budget = _check_budget(budget)
    # alpha_i = dc * f_den / (df * c_den) <= 3B/4 iff dc * cd <= cn * df
    cn, cd = (Fraction(3, 4) * budget * Fraction(
        inst.int_costs[1], inst.oracle.den)).as_integer_ratio()
    return _brute(inst, budget, REWARD, "reward-bounded",
                  lambda r: all(dc * cd <= cn * df for _, dc, df in r[3]))


@_counted
def _brute(inst: Instance, budget: Fraction, obj: Objective, label: str,
           keep=None) -> SolveResult:
    """The :func:`_race` for ``obj`` over the records (mask, tn, td, paid)
    of the budget-feasible minimal contracts: all, or those ``keep`` passes."""
    budget = _check_budget(budget)
    check_enumeration(inst.num_actions, "brute force")
    inst = with_table(inst)
    records = iter_min_contracts(inst, budget=budget)
    if keep is not None:
        records = filter(keep, records)
    return SolveResult(*_race(obj, inst, records), "exact", label, budget)


def gs_single_agent_exact(inst: Instance, agent: int, obj: Objective,
                          budget: Fraction) -> SolveResult:
    """Exact best single-agent pair: pay only ``agent``, who acts alone.

    The critical-point method at desk scale: brute force's race
    (:func:`_brute`) over the records whose profiles lie in the agent's
    actions T_i, every other agent unpaid on the empty set.  Among equal
    values the smallest profile mask wins.  The value table is filled
    (2^m value queries) unless the instance carries one.
    """
    if not 0 <= agent < inst.num_agents:
        raise UnknownAgentIdError(f"agent {agent} out of range")
    own = inst.agent_masks[agent]
    return _brute(inst, budget, obj, str(obj), lambda r: not r[0] & ~own)


# -- additive FPTAS ----------------------------------------------------------


@dataclass(frozen=True)
class _PrefixLayout:
    """The scale-free part of every FPTAS table of one solve, on integers.

    Built once per solve from one read of each singleton f({a}).  Each
    agent's kept actions (f({a}) > 0 and, given a budget, ratio c_a / f({a})
    within it) sort ascending by that ratio; per agent, each prefix of
    them has its payment, the ratio of its last action, as an int over
    ``den`` (``prefix_payment``), its actions as a bitmask and their cost
    as an int over ``Instance.int_costs``' den (``prefix_mask``,
    ``prefix_cost``); each kept action has its phi (f or f - c of its
    singleton) as an int over ``phi_den``.  ``scales`` are the sweep's
    scales b as ints over ``phi_den``, descending: every distinct positive
    phi of a kept action.  Only those can be OPT's largest phi: a
    budget-feasible profile pays each agent its prefix's largest ratio, so
    it holds kept actions only.  ``t_cap`` and ``cap``, the most a table
    entry may pay over ``den`` (the budget's, or without one the sum of
    every agent's dearest prefix), serve every table of the solve;
    :meth:`bound` caps what the scales below one may still be worth.
    """

    eps: Fraction
    num_actions: int
    den: int
    prefix_payment: tuple[tuple[int, ...], ...]
    prefix_mask: tuple[tuple[int, ...], ...]
    prefix_cost: tuple[tuple[int, ...], ...]
    phi: tuple[tuple[int, ...], ...]
    phi_den: int
    scales: tuple[int, ...]
    t_cap: int
    cap: int

    @classmethod
    def build(cls, inst: Instance, basis: str, eps: Fraction,
              budget: Optional[Fraction]) -> "_PrefixLayout":
        """Read f({a}) once for every action a, in ascending order (one
        value query each without a table), for ``basis`` "f" or "f-c", an
        exact eps in (0, 1) and a budget in [0, 1] or None."""
        m = inst.num_actions
        f, f_den = inst.scaled_f
        f_int = [f(1 << a) for a in range(m)]
        c_int, c_den = inst.int_costs
        if basis == "f":
            phi_den, phi = f_den, f_int
        else:
            phi_den = f_den * c_den
            phi = [x * c_den - c * f_den for x, c in zip(f_int, c_int)]
        # the ratio c_a / f({a}) as a reduced pair (p, q), q > 0
        ratio = {}
        for a in range(m):
            if f_int[a] > 0:
                p, q = c_int[a] * f_den, f_int[a] * c_den
                g = math.gcd(p, q)
                ratio[a] = p // g, q // g
        lcm = math.lcm(*(q for _, q in ratio.values()))
        agent_order = []
        for own in inst.agent_actions:
            kept = sorted((ratio[a][0] * (lcm // ratio[a][1]), a)
                          for a in own if a in ratio)
            agent_order.append(tuple(
                a for _, a in kept if budget is None
                or ratio[a][0] * budget.denominator
                <= budget.numerator * ratio[a][1]))
        den = math.lcm(*(ratio[a][1] for kept in agent_order for a in kept))
        prefix_payment = tuple(
            (0, *(ratio[a][0] * (den // ratio[a][1]) for a in kept))
            for kept in agent_order)
        return cls(
            eps, m, den, prefix_payment,
            tuple(tuple(accumulate((1 << a for a in kept), or_, initial=0))
                  for kept in agent_order),
            tuple(tuple(accumulate((c_int[a] for a in kept), initial=0))
                  for kept in agent_order),
            tuple(tuple(phi[a] for a in kept) for kept in agent_order),
            phi_den, tuple(sorted({phi[a] for a in chain(*agent_order)
                                   if phi[a] > 0}, reverse=True)),
            -(-m * m * eps.denominator // eps.numerator),
            sum(pays[-1] for pays in prefix_payment) if budget is None
            else budget.numerator * den // budget.denominator)

    def bound(self, v: int, profit: bool) -> Iterator[tuple[int, int]]:
        """Pairs (x, d), the largest x / d over ``den * phi_den`` capping
        the value (profit with ``profit``, else the sum of phi) of every
        budget-feasible pair whose profile's largest phi is at most v over
        ``phi_den``: per agent, r* is the least ratio of a kept action with
        phi above v, and the upper concave envelope of (ratio, positive phi
        up to it) of the actions of ratio at most r* and phi at most v
        starts at the free ones' sum; the envelopes' segments fill ``cap``
        greedily by slope (the multiple-choice knapsack LP), and for profit
        (den - t) g(t) is taken at each segment's ends and interior peak.
        """
        free, segs = 0, []
        for pays, phis in zip(self.prefix_payment, self.phi):
            r_star = next((r for r, p in zip(pays[1:], phis) if p > v),
                          pays[-1])
            acc, hull = 0, [(0, 0)]
            for r, p in zip(pays[1:], phis):
                if r > r_star:
                    break
                if 0 < p <= v:
                    acc += p
                    # pop a point at ratio r, or on or under the chord to r
                    while hull and (hull[-1][0] == r or len(hull) > 1 and (
                            (acc - hull[-2][1]) * (hull[-1][0] - hull[-2][0])
                            >= (hull[-1][1] - hull[-2][1]) * (r - hull[-2][0]))):
                        hull.pop()
                    hull.append((r, acc))
            free += hull[0][1]
            segs += [(y1 - y0, x1 - x0)
                     for (x0, y0), (x1, y1) in pairwise(hull)]
        lcm = math.lcm(*(dp for _, dp in segs))
        segs.sort(key=lambda seg: seg[0] * (lcm // seg[1]), reverse=True)
        t, g, d = 0, free, 1
        for dv, dp in segs:
            room = self.cap - t
            if profit:
                a = self.den - t
                yield a * g, 1
                if 0 < a * dv - g * dp < 2 * dv * min(dp, room):
                    yield (a * dv + g * dp) ** 2, 4 * dv * dp
            if dp >= room:  # the last segment fills cap, maybe in part
                t, g, d = self.cap, g * dp + dv * room, dp
                break
            t, g = t + dp, g + dv
        yield (self.den - t if profit else self.den) * g, d


@dataclass(frozen=True)
class DpTable:
    """Minimal-payment table A(j, x) for incentivizing discretized value x.

    x ranges over integer multiples t * delta * b for t = 0..t_max, with
    delta = eps / m; the basis ("f" for reward, "f-c" for welfare), eps and
    the prefixes come from the solve's ``layout``.  Payments are stored as
    integers over the layout's ``den`` (exact; the hot loop stays on
    machine integers).  Each row is a nondecreasing step function of t
    whose reachable columns form a prefix, so row j is stored as its steps,
    the dominance list the fill builds: ``ends[j]`` ascend, ``pays[j]``
    holds one payment per step, strictly increasing, and step k serves the
    columns from ``ends[j][k - 1]`` (0 for the first) up to ``ends[j][k]``
    exclusive.  Column t's entry is ``pays[j][bisect_right(ends[j], t)]``;
    a column at or past the last end is unreachable.  When the table is
    built with a budget, every row ends before its first step that exceeds
    the budget.  Nothing records the choices: :meth:`choices` re-derives
    each argmin from the rows.  Actions with zero singleton value are
    dropped up front.  Agent i's prefix of length ell pays
    ``prefix_payment[i][ell]`` over the layout's ``den`` and is worth
    ``prefix_weight[i][ell]`` columns.  Only ``b``, ``prefix_weight`` and
    what depends on them differ between the scales of one solve.
    """

    b: Fraction
    t_max: int
    ends: tuple[tuple[int, ...], ...]
    pays: tuple[tuple[int, ...], ...]
    prefix_weight: tuple[tuple[int, ...], ...]
    layout: _PrefixLayout = field(repr=False)

    def choices(self, t: int) -> list[int]:
        """Each agent's prefix length behind the payment-minimal entry at
        column ``t``.

        Walking down from agent n, each agent takes the smallest prefix
        length whose candidate attains the entry - the tie rule of the fill.
        """
        n = len(self.ends) - 1
        if not 0 <= t < self.ends[n][-1]:
            raise ModelError(f"column {t} is unreachable")
        target = self.pays[n][bisect_right(self.ends[n], t)]
        ells = [0] * n
        col = t
        for j in range(n - 1, -1, -1):
            # row j's entry at col - w plus the payment of prefix ell
            ends, pays = self.ends[j], self.pays[j]
            for ell, (w, pay) in enumerate(zip(self.prefix_weight[j],
                                               self.layout.prefix_payment[j])):
                idx = col - w if col > w else 0
                if idx < ends[-1]:
                    p = pays[bisect_right(ends, idx)]
                    if p + pay == target:
                        break
            ells[j] = ell
            col, target = idx, p
        return ells


def build_dp_table(layout: _PrefixLayout, b: Fraction) -> DpTable:
    """Fill the dynamic program for additive f at scale ``b > 0``.

    Per agent, actions sort ascending by payment ratio c_a / f({a}); a
    contract then incentivizes exactly a prefix, whose payment is the last
    prefix member's ratio.  Prefix weights are running sums of
    floor(phi / (delta * b)), phi being f({a}) or f({a}) - c_a, computed on
    integers.  Column arguments below zero clamp to column zero.  Row j is
    the previous row, shifted by each prefix weight and raised by its
    payment, merged by pointwise min.  The merge works on steps, never on
    columns (the dominance lists of Nemhauser and Ullmann), and the table
    keeps each row as the list it merged to: its cost grows with the
    number of steps, not with t_max.  A layout built with a budget has
    dropped the prefixes whose own ratio already exceeds it, and every
    row ends before its first step above it.  Payments are nonnegative, so
    this only removes entries that the budget selection would discard
    anyway.

    The basis, eps, budget and prefixes come from ``layout``
    (:meth:`_PrefixLayout.build`, which reads each singleton f({a}) once);
    :func:`additive_fptas` builds it once per solve and fills one table
    per scale from it, on ints only.
    """
    if b <= 0:
        raise ModelError("b must be > 0")
    # phi / (delta * b) = phi * m / (eps * b), over integers; // floors
    # negative phi of the f-c basis too
    eps = layout.eps
    num = layout.num_actions * eps.denominator * b.denominator
    div = layout.phi_den * eps.numerator * b.numerator
    prefix_weight = tuple(tuple(accumulate((p * num // div for p in phis),
                                           initial=0))
                          for phis in layout.phi)
    t_max = min(layout.t_cap, max(sum(map(max, prefix_weight)), 0))

    cap = layout.cap
    end_cap = t_max + 1
    row_ends, row_pays = [1], [0]  # the previous row's step ends and pays
    ends: list[tuple[int, ...]] = [(1,)]
    pays: list[tuple[int, ...]] = [(0,)]
    for weights, payments in zip(prefix_weight, layout.prefix_payment):
        # A step (e, q) offers payment q to every column below its end e,
        # and a row's entry is the least payment offered to its column.
        # Prefix (w, p) turns the previous row's step (e, q) into
        # (e + w, q + p); a column argument below zero clamps to zero, so
        # the shifted step still serves column 0 whenever e + w > 0.  The
        # row keeps the steps that no later-ending, no dearer step covers.
        # Only steps within the cap are made: a step within it is only
        # ever covered by steps within it, so the row is the same as if
        # the steps above the cap were cut after the merge.
        prev = list(zip(row_ends, row_pays))
        steps: list[tuple[int, int]] = []
        for w, p in zip(weights, payments):
            # the previous row's ends and pays both ascend
            lo = bisect_right(row_ends, -w)
            hi = bisect_right(row_pays, cap - p)
            steps += [(-e - w, q + p) for e, q in prev[lo:hi]]
        steps.sort()  # ends descending, then payments ascending
        row_ends = []
        row_pays = []
        for neg_end, q in steps:
            if not row_pays or q < row_pays[-1]:
                row_ends.append(-neg_end)
                row_pays.append(q)
        row_ends.reverse()
        row_pays.reverse()
        # columns stop at t_max: the first step to reach it ends the row
        k = bisect_left(row_ends, end_cap)
        if k < len(row_ends):
            del row_ends[k + 1:], row_pays[k + 1:]
            row_ends[k] = end_cap
        ends.append(tuple(row_ends))
        pays.append(tuple(row_pays))
    return DpTable(b, t_max, tuple(ends), tuple(pays), prefix_weight, layout)


@_counted
def additive_fptas(inst: Instance, budget: Fraction, eps: Fraction,
                   obj: Objective) -> SolveResult:
    """(1-eps)-approximation for additive f under any budget in [0, 1].

    Sweeps the scale b over the positive singleton values (f singletons
    for profit and reward, f-c singletons for welfare) of the actions whose
    ratio c_a / f({a}) is within the budget, descending, fills the payment
    table per scale, and selects the column: the largest budget-feasible
    one for reward and welfare, the (1 - payment) * value maximizer below
    it for profit.  A later scale's pick must beat the best so far
    strictly, the unpaid empty profile entering first.  Once that best is
    positive, the sweep stops before the first b whose LP bound
    (:meth:`_PrefixLayout.bound`, after Sinha and Zoltners) is below it.
    The scaling argument (Ibarra and Kim) needs only b*, the largest phi
    of an optimal profile, to be swept, and the bound at b caps every
    budget-feasible pair whose largest phi is at most b: under additive f
    agent i, paid its minimal alpha_i, takes every action of ratio below
    alpha_i and none above, so alpha_i <= r* and S_i lies in the allowed
    actions of ratio at most alpha_i; the payments are ints over ``den``
    totalling t <= ``cap``, so the value is at most the LP's g(t), and
    profit at most (1 - t) g(t).  The best so far is at most OPT, so a
    bound below it at b means b* > b was swept: the value is never below
    (1 - eps) OPT.

    The sweep runs on integers; all its tables share one
    :class:`_PrefixLayout`, built from one read of each singleton.  Each
    pick is one :meth:`DpTable.choices` walk, valued by
    ``Objective.weights`` from one read of f at its mask, the table's
    integer payment and the prefixes' integer costs.  The best pick keeps
    its prefix lengths and mask, and only it becomes a contract and a set
    of actions, once the sweep ends.  Without a table the solve issues
    m + 1 + (scales swept) value queries: the singletons in ascending
    order, f of the unpaid empty profile (read, not taken as 0), then f of
    each swept scale's pick.
    """
    if inst.oracle.function_class != "additive":
        raise ModelError("additive FPTAS forced on a non-additive oracle")
    if obj.kind not in ("profit", "reward", "welfare"):
        raise ModelError("additive FPTAS supports profit, reward, welfare")
    budget, eps = _check_budget(budget), _check_eps(eps)
    basis = "f-c" if obj.kind == "welfare" else "f"
    layout = _PrefixLayout.build(inst, basis, eps, budget)

    f, f_den = inst.scaled_f
    c_den = inst.int_costs[1]
    n, den = inst.num_agents, layout.den
    p, w, _ = obj.weights  # d = 1 for the pure kinds
    # the best value so far times den * f_den * c_den, the unpaid empty
    # profile's first, and its prefix lengths and mask
    top = den * f(0) * c_den
    best = [0] * n, 0
    for v in layout.scales:
        if top > 0 and all(x * f_den * c_den < top * layout.phi_den * d
                           for x, d in layout.bound(v, obj.kind == "profit")):
            break  # no scale left can be OPT's largest phi
        dp = build_dp_table(layout, Fraction(v, layout.phi_den))
        # rows end at the budget, so every column left is affordable
        ends, pays = dp.ends[n], dp.pays[n]
        if obj.kind == "profit":
            # (1 - payment) * value; ties go to the larger column.  On one
            # step the payment is at most the budget, so the score peaks
            # at the step's last column.
            _, t_star, pay = max(((den - q) * (e - 1), e - 1, q)
                                 for e, q in zip(ends, pays))
        else:
            t_star, pay = ends[-1] - 1, pays[-1]
        ells = dp.choices(t_star)
        mask = c_s = 0
        for i, ell in enumerate(ells):
            mask |= layout.prefix_mask[i][ell]
            c_s += layout.prefix_cost[i][ell]
        v = (den - p * pay) * f(mask) * c_den - w * den * c_s * f_den
        if v > top:
            top, best = v, (ells, mask)
    ells, mask = best
    contract = Contract(tuple(Fraction(payments[ell], den) for payments, ell
                              in zip(layout.prefix_payment, ells)))
    return SolveResult(contract, mask_to_set(mask),
                       Fraction(top, den * f_den * c_den), 1 / (1 - eps),
                       str(obj), budget)


# -- single-agent scheme -----------------------------------------------------


def single_agent_fptas(inst: Instance, budget: Fraction,
                       eps: Fraction) -> SolveResult:
    """Exact profit optimum for one agent with monotone f under budget B <= 1.

    Brute force's race (:func:`_brute`) on the one agent's records: the
    best left end of its best-response hull, each set's minimal payment,
    at or below B (the critical values of Dütting, Ezra, Feldman and
    Kesselheim, "Combinatorial Contracts", FOCS 2021).  Among equal
    profits the smallest profile mask wins.  ``eps`` is still checked but
    does not change the answer.
    """
    if inst.num_agents != 1:
        raise ModelError("single-agent FPTAS needs exactly one agent")
    budget = _check_budget(budget)
    _check_eps(eps)
    return _brute(inst, budget, PROFIT, "profit")


# -- downsizing and the GS pipeline ------------------------------------------


def downsize(inst: Instance, m_param: int, alpha: Contract,
             profile: Iterable[int]) -> tuple[Contract, frozenset[int]]:
    """Shrink total payment while keeping a 1/(2M-2) fraction of the reward.

    Implements the grouping transform: agents paid more than p/M are
    checked for the single-agent exit (paid alone, their equilibrium
    actions are the base of one :func:`equilibria.ne_from_demand`);
    otherwise agents pack greedily into payment-bounded groups until a
    group alone carries a 1/(M-1) reward share, and the surviving group's
    contract goes through :func:`equilibria.double_contract` with epsilon
    p/(nM).  f on a group of agents is read at the profile's bitmask cut
    to the group's ``Instance.agent_masks``.  A zero-payment input is
    returned unchanged (its guarantees hold trivially).
    """
    if m_param < 3:
        raise ModelError("M must be an integer >= 3")
    s = frozenset(profile)
    violator = nash_violator(inst, alpha, s)
    if violator is not None:
        raise NotAnEquilibriumError(
            f"agent {violator} prefers a deviation under the input contract")
    p = alpha.total()
    if p == 0:
        return alpha, s
    f, _ = inst.scaled_f
    mask = inst.mask_of(s)
    own = inst.agent_masks
    threshold = p / m_param
    f_s = f(mask)  # a part keeps its share when F(part) * (M - 1) >= F(S)
    big = [i for i in range(inst.num_agents) if alpha[i] > threshold]
    for i in big:
        if f(mask & own[i]) * (m_param - 1) >= f_s:
            only = restrict_contract(alpha, {i})
            return only, ne_from_demand(inst, only, mask_to_set(mask & own[i]))
    pool = [i for i in range(inst.num_agents) if i not in big]
    survivors = pool  # alias: whatever remains after carving groups out
    for _ in range(max(0, m_param - len(big) - 2)):
        if not pool:
            break
        group: list[int] = []
        total = ZERO
        while pool and total <= threshold:
            agent = pool.pop(0)
            group.append(agent)
            total += alpha[agent]
        # the agents' masks are disjoint, so their sum is their union
        if f(mask & sum(own[i] for i in group)) * (m_param - 1) >= f_s:
            survivors = group
            break
    return double_contract(inst, restrict_contract(alpha, survivors),
                           p / (inst.num_agents * m_param))


def _profit_base(inst: Instance, records: Sequence[tuple], budget: Fraction
                 ) -> tuple[Contract, frozenset[int], Fraction]:
    """The pipeline's base and its reward f(S): the profit optimum at
    budget 1 with costs scaled by k = 4/(3B), rescaled by 3B/4.

    Those costs scale each minimal contract by k, so the base is a budget-B
    record paying t <= 3B/4, of scaled profit (1 - k t) f(S): the PROFIT
    :func:`_race` over those records with each total divided by 3B/4 > 0,
    which orders them and their ties as (3B/4 - t) f(S) does.  Rescaled,
    its contract is its own; f(S) is read from the table.
    """
    cap_n, cap_d = (Fraction(3, 4) * budget).as_integer_ratio()
    alpha, profile, _ = _race(PROFIT, inst, (
        (mask, tn * cap_d, td * cap_n, paid) for mask, tn, td, paid in records
        if tn * cap_d <= cap_n * td))
    f, f_den = inst.scaled_f
    return alpha, profile, Fraction(f(set_to_mask(profile)), f_den)


@_counted
def gs_constant_factor(inst: Instance, budget: Fraction, obj: Objective, *,
                       force: bool = False) -> SolveResult:
    """Constant-factor approximation for gross-substitutes rewards.

    Pipeline: (a) the profit optimum at budget 1 with costs scaled by
    (4/3)(1/B), rescaled by 3B/4 (:func:`_profit_base`), (b) raced
    against the exact single-agent solutions for reward, (c) the winner
    downsized with M = 6 raced against them for the target objective; with
    the exact base solver the certified factor is 120 * 50 + 1 = 6001.
    Unless B = 0, every stage is a :func:`_race` over the one list of
    budget-B minimal-contract records, read off the one value table filled
    here; agent i's single-agent races read the records whose profiles lie
    in its actions T_i.  Each stage keeps its first pick of maximal value,
    valued as the pick found it: only the downsized pair is valued anew, by
    :func:`objectives.evaluate`.
    """
    if not (force or inst.oracle.is_gs_class):
        raise ModelError("oracle not declared gross substitutes (use force=True)")
    budget = _check_budget(budget)
    if budget == 0:
        free = frozenset(a for a in inst.ground_set if inst.cost_of[a] == 0)
        zero = Contract.zero(inst.num_agents)
        return SolveResult(zero, free, evaluate(obj, inst, zero, free),
                           "exact", str(obj), budget)
    check_enumeration(inst.num_actions, "GS pipeline")
    inst = with_table(inst)  # one table for every stage
    records = list(iter_min_contracts(inst, budget=budget))
    singles = [[r for r in records if not r[0] & ~own]
               for own in inst.agent_masks]
    # each stage races (contract, profile, value) picks; max keeps the first
    mrb = max([_profit_base(inst, records, budget)]
              + [_race(REWARD, inst, own) for own in singles],
              key=itemgetter(2))
    down = downsize(inst, 6, *mrb[:2])
    best = max([(*down, evaluate(obj, inst, *down))]
               + [_race(obj, inst, own) for own in singles],
               key=itemgetter(2))
    return SolveResult(*best, Fraction(6001), str(obj), budget)
