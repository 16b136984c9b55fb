"""Optimization algorithms: exact brute force, FPTAS variants, downsizing,
and the constant-factor pipeline for gross-substitutes rewards.

Every solver returns a :class:`SolveResult` whose contract/profile pair is a
weak Nash equilibrium within budget, the objective value evaluated exactly,
and a certified approximation factor (``gamma`` meaning value >= OPT/gamma,
or the string "exact").  Solvers are deterministic: enumeration runs in
bitmask order and ties keep the first candidate found.

The poly-time structure of the algorithms is preserved at desk scale; the
external poly-time base solver the reduction pipeline would call for
Max-Profit(1) is stood in for by the exact brute-force oracle (gamma = 1),
and the certified constant accounts for that.

No envelope is built here: brute force, over one agent's records the exact
single-agent solver, and every stage of the GS pipeline pick among the int
records of :func:`equilibria.iter_min_contracts` with one race, :func:`_race`,
valued by ``Objective.weights``; only a winner becomes a ``Contract``.  The
single-agent scheme reads its hull from :func:`equilibria.single_agent_hull`.
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
from itertools import accumulate
from operator import itemgetter, or_
from typing import Iterable, Optional, Sequence

from budgetcontracts.core import (
    Contract,
    GRID_LIMIT,
    Instance,
    ModelError,
    TESTER_LIMIT,
    UnknownAgentIdError,
    ZERO,
    check_enumeration,
    cost,
    restrict_contract,
)
from budgetcontracts.equilibria import contract_of, double_contract, \
    iter_min_contracts, nash_violator, ne_from_demand, single_agent_hull
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


def _check_budget(budget: Fraction) -> None:
    if not 0 <= budget <= 1:
        raise ModelError("budget must lie in [0, 1]")


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
    _check_budget(budget)
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

    Built once per solve from one read of each singleton f({a}).  Per
    agent: the kept actions in payment order (``agent_order``); each
    prefix's payment, the ratio c_a / f({a}) of its last action, as an int
    over ``den`` (``prefix_payment``); each prefix's actions as a bitmask
    and their cost as an int over ``Instance.int_costs``' den
    (``prefix_mask``, ``prefix_cost``); and each kept action's phi (f or
    f - c of its singleton) as an int over ``phi_den``.  ``scales`` are the
    sweep's scales b, descending: every distinct positive phi of an action
    with f({a}) > 0.  The arguments are checked here, and ``t_cap`` and
    ``cap``, the most a table entry may pay over ``den`` (the budget's, or
    without one the sum of every agent's dearest prefix), computed once for
    every table of the solve.
    """

    eps: Fraction
    num_actions: int
    agent_order: tuple[tuple[int, ...], ...]
    den: int
    prefix_payment: tuple[tuple[int, ...], ...]
    prefix_mask: tuple[tuple[int, ...], ...]
    prefix_cost: tuple[tuple[int, ...], ...]
    phi: tuple[tuple[int, ...], ...]
    phi_den: int
    scales: tuple[Fraction, ...]
    t_cap: int
    cap: int

    @classmethod
    def build(cls, inst: Instance, basis: str, eps: Fraction,
              budget: Optional[Fraction]) -> "_PrefixLayout":
        """Check the arguments, then read f({a}) once for every action a,
        in ascending order (one value query each without a table)."""
        if not 0 < eps < 1:
            raise ModelError("eps must lie in (0, 1)")
        if budget is not None and budget < 0:
            raise ModelError("budget must be >= 0")
        if basis not in ("f", "f-c"):
            raise ModelError('basis must be "f" or "f-c"')
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
            eps, m, tuple(agent_order), den, prefix_payment,
            tuple(tuple(accumulate((1 << a for a in kept), or_, initial=0))
                  for kept in agent_order),
            tuple(tuple(accumulate((c_int[a] for a in kept), initial=0))
                  for kept in agent_order),
            tuple(tuple(phi[a] for a in kept) for kept in agent_order),
            phi_den,
            tuple(Fraction(v, phi_den) for v in sorted(
                {phi[a] for a in ratio if phi[a] > 0}, reverse=True)),
            -(-m * m * eps.denominator // eps.numerator),
            sum(pays[-1] for pays in prefix_payment) if budget is None
            else budget.numerator * den // budget.denominator)


@dataclass(frozen=True)
class DpTable:
    """Minimal-payment table A(j, x) for incentivizing discretized value x.

    x ranges over integer multiples t * delta * b for t = 0..t_max, with
    delta = eps / m; the basis ("f" for reward, "f-c" for welfare), eps and
    the prefixes come from the solve's ``layout``.  Payments are stored as
    integers over the layout's ``den`` (exact; the hot loop stays on
    machine integers).  Each row is a nondecreasing step function of t
    whose reachable columns form a prefix, so row j is stored as its steps:
    ``starts[j]`` ascend from 0, ``scaled_payments[j]`` holds one payment
    per step, strictly increasing, and the row is defined on columns below
    ``ends[j]`` (exclusive).  A column at or past the end is unreachable.
    When the table is built with a budget, every row ends before its first
    step that exceeds the budget.  Nothing records the choices:
    :meth:`choices` re-derives each argmin from the rows.  Actions with
    zero singleton value are dropped up front.  Agent i's prefixes are
    the leading actions of the layout's ``agent_order[i]``: the prefix of
    length ell pays ``prefix_payment[i][ell]`` over ``den`` and is worth
    ``prefix_weight[i][ell]`` columns.  Only ``b``, ``prefix_weight`` and
    what depends on them differ between the scales of one solve.
    """

    b: Fraction
    t_max: int
    starts: tuple[tuple[int, ...], ...]
    scaled_payments: tuple[tuple[int, ...], ...]
    ends: tuple[int, ...]
    prefix_weight: tuple[tuple[int, ...], ...]
    layout: _PrefixLayout = field(repr=False)

    def _scaled(self, j: int, t: int) -> Optional[int]:
        """Row j's payment at column t over the layout's den; None past
        the end."""
        if not 0 <= t < self.ends[j]:
            return None
        return self.scaled_payments[j][bisect_right(self.starts[j], t) - 1]

    def choices(self, t: int) -> list[int]:
        """Each agent's prefix length behind the payment-minimal entry at
        column ``t``.

        Walking down from agent n, each agent takes the smallest prefix
        length whose candidate attains the entry - the tie rule of the fill.
        """
        n = len(self.ends) - 1
        target = self._scaled(n, t)
        if target is None:
            raise ModelError(f"column {t} is unreachable")
        ells = [0] * n
        col = t
        for j in range(n - 1, -1, -1):
            # row j's entry at col - w plus the payment of prefix ell
            starts, pays, end = self.starts[j], self.scaled_payments[j], \
                self.ends[j]
            for ell, (w, pay) in enumerate(zip(self.prefix_weight[j],
                                               self.layout.prefix_payment[j])):
                idx = col - w if col > w else 0
                if idx < end:
                    p = pays[bisect_right(starts, idx) - 1]
                    if p + pay == target:
                        break
            ells[j] = ell
            col, target = idx, p
        return ells

    def reconstruct(self, inst: Instance, t: int) -> tuple[Contract, frozenset[int]]:
        """The payment-minimal (contract, profile) behind column ``t``:
        :meth:`choices` as a contract and a set of actions."""
        layout = self.layout
        mask = 0
        alpha = [ZERO] * inst.num_agents
        for i, ell in enumerate(self.choices(t)):
            if ell:
                alpha[i] = Fraction(layout.prefix_payment[i][ell], layout.den)
                mask |= layout.prefix_mask[i][ell]
        return Contract(tuple(alpha)), mask_to_set(mask)


def build_dp_table(layout: _PrefixLayout, b: Fraction) -> DpTable:
    """Fill the dynamic program for additive f at scale ``b > 0``.

    Per agent, actions sort ascending by payment ratio c_a / f({a}); a
    contract then incentivizes exactly a prefix, whose payment is the last
    prefix member's ratio.  Prefix weights are running sums of
    floor(phi / (delta * b)), phi being f({a}) or f({a}) - c_a, computed on
    integers.  Column arguments below zero clamp to column zero.  Row j is
    the previous row, shifted by each prefix weight and raised by its
    payment, merged by pointwise min.  The merge works on steps, never on
    columns (the dominance lists of Nemhauser and Ullmann): its cost grows
    with the number of steps, not with t_max.  A layout built with a
    budget has dropped the prefixes whose own ratio already exceeds it,
    and every row ends before its first step above it.  Payments are
    nonnegative, so this only removes entries that the budget selection
    would discard anyway.

    The basis, eps, budget and prefixes come from ``layout``
    (:meth:`_PrefixLayout.build`, which checks them and reads each
    singleton f({a}) once); :func:`additive_fptas` builds it once per
    solve and fills one table per scale from it, on ints only.
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
    starts: list[tuple[int, ...]] = [(0,)]
    pays: list[tuple[int, ...]] = [(0,)]
    ends: list[int] = [1]
    row_ends, row_pays = [1], [0]  # the previous row's step ends and pays
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
        starts.append((0, *row_ends[:-1]))
        pays.append(tuple(row_pays))
        ends.append(row_ends[-1])
    return DpTable(b, t_max, tuple(starts), tuple(pays), tuple(ends),
                   prefix_weight, layout)


@_counted
def additive_fptas(inst: Instance, budget: Fraction, eps: Fraction,
                   obj: Objective) -> SolveResult:
    """(1-eps)-approximation for additive f under any budget in [0, 1].

    Sweeps the scale b over every candidate singleton value (f singletons
    for profit and reward, f-c singletons for welfare), descending, fills
    the payment table per scale, and selects the column: the largest
    budget-feasible one for reward and welfare, the (1 - payment) * value
    maximizer below it for profit.  Welfare mirrors the reward selection
    rule.  A later scale's pick must beat the best so far strictly, the
    unpaid empty profile entering first.

    The sweep runs on integers.  Each singleton f({a}) is read once, and
    the tables of all scales share one :class:`_PrefixLayout` built from
    those reads.  A pick is valued by ``Objective.weights`` from one read
    of f at its mask, the table's integer payment and the prefixes'
    integer costs; only the winner becomes a contract and a set of actions.
    On an instance without a table the solve issues m + 1 + |scales| value
    queries: the singletons in ascending order, then f of the unpaid empty
    profile, read rather than taken as 0, then f of each scale's pick.
    """
    if obj.kind not in ("profit", "reward", "welfare"):
        raise ModelError("additive FPTAS supports profit, reward, welfare")
    _check_budget(budget)
    basis = "f-c" if obj.kind == "welfare" else "f"
    layout = _PrefixLayout.build(inst, basis, eps, budget)

    f, f_den = inst.scaled_f
    c_den = inst.int_costs[1]
    n, den = inst.num_agents, layout.den
    p, w, _ = obj.weights  # d = 1 for the pure kinds
    # the best value so far times den * f_den * c_den, the unpaid empty
    # profile's first, and its table and column
    top = den * f(0) * c_den
    best = None
    for b in layout.scales:
        dp = build_dp_table(layout, b)
        # rows end at the budget, so every column left is affordable
        if obj.kind == "profit":
            # (1 - payment) * value; ties go to the larger column.  On one
            # step the payment is at most the budget, so the score peaks
            # at the step's last column.
            lasts = [s - 1 for s in (*dp.starts[n][1:], dp.ends[n])]
            _, t_star, pay = max(((den - q) * t, t, q) for t, q in
                                 zip(lasts, dp.scaled_payments[n]))
        else:
            t_star, pay = dp.ends[n] - 1, dp.scaled_payments[n][-1]
        mask = c_s = 0
        for i, ell in enumerate(dp.choices(t_star)):
            mask |= layout.prefix_mask[i][ell]
            c_s += layout.prefix_cost[i][ell]
        v = (den - p * pay) * f(mask) * c_den - w * den * c_s * f_den
        if v > top:
            top, best = v, (dp, t_star)
    pair = (Contract.zero(n), frozenset()) if best is None \
        else best[0].reconstruct(inst, best[1])
    value = Fraction(top, den * f_den * c_den)
    return SolveResult(*pair, value, 1 / (1 - eps), str(obj), budget)


# -- single-agent FPTAS ------------------------------------------------------


def _first_grid_index(eps: Fraction, bound: Fraction, lo: int, hi: int) -> int:
    """The least k in [lo, hi) with (1-eps)^k <= bound, or hi if none is.

    With eps = p/q and bound = num/den the test is (q-p)^k * den <= num *
    q^k.  A float log guesses k; exact int tests decide from there, each
    step to k + 1 or k - 1 one multiplication of each side by q - p or q.
    """
    p, q = eps.numerator, eps.denominator
    num, den = bound.numerator, bound.denominator
    if num <= 0:
        return hi
    rate = math.log(q - p) - math.log(q) or -p / q  # log(1 - eps), eps tiny
    k = min(max(math.ceil((math.log(num) - math.log(den)) / rate), lo), hi)
    left, right = pow(q - p, k) * den, num * pow(q, k)
    while k < hi and left > right:
        k, left, right = k + 1, left * (q - p), right * q
    while k > lo and left * q <= right * (q - p):  # the test holds at k - 1
        k, left, right = k - 1, left * q, right * (q - p)
    return k


@_counted
def single_agent_fptas(inst: Instance, budget: Fraction,
                       eps: Fraction) -> SolveResult:
    """Profit FPTAS for one agent with monotone f under budget B <= 1.

    Computes the welfare benchmark from a demand query at prices c_a / B,
    then sweeps the geometric payment grid
    alpha_{j,k} = min(B, 1 - (1-eps)^k * SW / (c_j + SW)) over actions j
    with positive cost and k from 1 to the least k_count with
    (1-eps)^k_count <= 1/(m 2^m), keeping the most profitable best
    response; the first grid point wins a tie.  Best responses resolve
    ties toward the larger f, which also pins SW exactly.  All-zero costs
    degenerate to the full action set at alpha = 0.

    The sweep reads the hull, which ends at B given the budget
    (:func:`equilibria.single_agent_hull`), and prices one grid point per
    hull stretch per cost, not every point.  For one c_j, alpha_{j,k}
    rises strictly with k until it is clipped at B, and the best response
    only changes at the hull's breakpoints.  Within one stretch
    [breaks[i-1], breaks[i]) f is fixed and not negative, so the profit
    (1 - alpha) * f never rises, and no later point of the stretch can
    beat its first one strictly.  The first grid point past each
    breakpoint comes from an exact integer search
    (:func:`_first_grid_index`).  Unless the answer is exact without the
    grid (all costs zero, B = 0 or SW <= 0), an eps whose grid bound
    ceil(L / eps), L the bit length of m 2^m, exceeds ``GRID_LIMIT``
    raises ``GroundSetTooLargeError``.
    """
    if inst.num_agents != 1:
        raise ModelError("single-agent FPTAS needs exactly one agent")
    _check_budget(budget)
    if not 0 < eps < 1:
        raise ModelError("eps must lie in (0, 1)")
    m = inst.num_actions
    check_enumeration(m, "single-agent scheme", TESTER_LIMIT)
    inst = with_table(inst)
    f, f_den = inst.scaled_f

    if all(inst.cost_of[a] == 0 for a in range(m)):
        return SolveResult(Contract.of([ZERO]), frozenset(range(m)),
                           Fraction(f((1 << m) - 1), f_den), "exact", "profit",
                           budget)
    if budget == 0:
        free = set_to_mask(a for a in range(m) if inst.cost_of[a] <= 0)
        return SolveResult(Contract.zero(1), mask_to_set(free),
                           Fraction(f(free), f_den), "exact", "profit", budget)

    hull, breaks = single_agent_hull(inst, budget)
    # S-dagger, the best response at B where the hull ends, maximizes
    # B*f - c; among ties the larger f also maximizes f-c
    s_dagger = hull[-1]
    sw = Fraction(f(s_dagger), f_den) - cost(inst, mask_to_set(s_dagger))
    if sw <= 0:
        return SolveResult(Contract.zero(1), frozenset(), ZERO, "exact",
                           "profit", budget)

    # (1-eps)^k <= e^(-eps k) < 2^-L < 1/(m 2^m) once eps k >= L, the bit
    # length of m 2^m, so k_count is at most ceil(L / eps)
    target = m << m
    grid = -(-target.bit_length() * eps.denominator // eps.numerator)
    check_enumeration(grid, "single-agent payment grid", GRID_LIMIT)
    k_count = _first_grid_index(eps, Fraction(1, target), 0, grid)

    # zero-payment baseline: the agent still performs its free actions
    # (profits are kept times f_den)
    best_alpha, best_mask = ZERO, hull[0]
    best_profit = f(best_mask)
    for c_j in sorted({inst.cost_of[a] for a in range(m) if inst.cost_of[a] > 0}):
        share = sw / (c_j + sw)
        k = 1
        while k <= k_count:
            alpha = min(budget, 1 - (1 - eps) ** k * share)
            i = bisect_right(breaks, alpha)
            profit = (1 - alpha) * f(hull[i])
            if profit > best_profit:
                best_alpha, best_mask, best_profit = alpha, hull[i], profit
            if i == len(breaks):
                break  # the grid stays in this stretch
            k = _first_grid_index(eps, (1 - breaks[i]) / share, k + 1,
                                  k_count + 1)
    return SolveResult(Contract.of([best_alpha]), mask_to_set(best_mask),
                       Fraction(best_profit, f_den), 1 / (1 - eps), "profit",
                       budget)


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
    _check_budget(budget)
    if budget == 0:
        free = frozenset(a for a in inst.ground_set if inst.cost_of[a] <= 0)
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
