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

No envelope is built here: brute force and the exact single-agent solvers
price profiles with :func:`equilibria.iter_min_contracts`, and the
single-agent scheme reads its hull from :func:`equilibria.single_agent_hull`.
Nor are prices built: downsizing calls :func:`equilibria.ne_from_demand`,
and :func:`_counted` alone reads the query counts.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Optional, Sequence

from budgetcontracts.core import (
    Action,
    Contract,
    Instance,
    ModelError,
    ONE,
    TESTER_LIMIT,
    ZERO,
    check_enumeration,
    cost,
    restrict_contract,
)
from budgetcontracts.equilibria import is_nash, iter_min_contracts, \
    ne_from_demand, single_agent_hull
from budgetcontracts.objectives import Objective, PROFIT, REWARD, evaluate
from budgetcontracts.rewards import common_denominator, mask_to_set, \
    scaled_ints, set_to_mask, with_table


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


def _race(obj: Objective, inst: Instance,
          pairs: Iterable[tuple[Contract, frozenset[int]]]
          ) -> tuple[Contract, frozenset[int], Fraction]:
    """The first (contract, profile, value) of maximal objective value.

    The zero contract with its best response (:func:`_zero_pair`) enters
    first, and a later pair must beat the best so far strictly.
    """
    best_alpha, best_profile = _zero_pair(inst)
    best_value = evaluate(obj, inst, best_alpha, best_profile)
    for alpha, profile in pairs:
        v = evaluate(obj, inst, alpha, profile)
        if v > best_value:
            best_alpha, best_profile, best_value = alpha, profile, v
    return best_alpha, best_profile, best_value


def _zero_pair(inst: Instance) -> tuple[Contract, frozenset[int]]:
    """The zero contract with its best response, every negative-cost action
    (none in a validated instance): an equilibrium whatever f is.  The
    sign is read off each cost's numerator, without a Fraction compare."""
    return Contract.zero(inst.num_agents), \
        frozenset(a.action_id for a in inst.actions if a.cost.numerator < 0)


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
    return _brute(inst, budget, REWARD, "reward-bounded",
                  Fraction(3, 4) * budget)


@_counted
def _brute(inst: Instance, budget: Fraction, obj: Objective, label: str,
           cap: Optional[Fraction] = None) -> SolveResult:
    """The :func:`_race` for ``obj`` over every budget-feasible minimal
    contract, and with ``cap`` over those paying no agent above it."""
    _check_budget(budget)
    check_enumeration(inst.num_actions, "brute force")
    inst = with_table(inst)
    pairs = ((alpha, mask_to_set(mask))
             for mask, alpha in iter_min_contracts(inst, budget=budget)
             if cap is None or all(a <= cap for a in alpha.alpha))
    return SolveResult(*_race(obj, inst, pairs), "exact", label, budget)


@_counted
def gs_single_agent_exact(inst: Instance, agent: int, obj: Objective,
                          budget: Fraction) -> SolveResult:
    """Exact best single-agent pair: pay only ``agent``, who acts alone.

    Desk-scale realization of the critical-point method: every subset of
    the agent's actions is priced at its minimal incentivizing payment by
    :func:`iter_min_contracts` restricted to those actions (the other
    agents stay unpaid), and the objective maximizer within ``budget``
    wins; among equal values the smallest profile mask does.  The
    instance's value table is filled (2^m value queries) unless it
    carries one.
    """
    _check_budget(budget)
    check_enumeration(len(inst.agent_actions[agent]), "one agent's profiles")
    inst = with_table(inst)
    best = _race(obj, inst, _single_agent_pairs(inst, agent, budget))
    return SolveResult(*best, "exact", str(obj), budget)


def _single_agent_pairs(inst: Instance, agent: int, budget: Fraction
                        ) -> list[tuple[Contract, frozenset[int]]]:
    """(minimal contract, profile) for every subset of ``agent``'s actions
    that a payment within ``budget`` incentivizes, in ascending mask order."""
    return [(alpha, mask_to_set(mask)) for mask, alpha in
            iter_min_contracts(inst, within=inst.agent_masks[agent],
                               budget=budget)]


def scale_costs(inst: Instance, factor: Fraction) -> Instance:
    """The same instance, value table included, with every action cost
    multiplied by ``factor``."""
    if factor <= 0:
        raise ModelError("cost scale factor must be > 0")
    actions = tuple(Action(a.action_id, a.owner, a.cost * factor)
                    for a in inst.actions)
    return Instance(inst.num_agents, actions, inst.oracle, inst.table)


# -- additive FPTAS ----------------------------------------------------------


@dataclass(frozen=True)
class DpTable:
    """Minimal-payment table A(j, x) for incentivizing discretized value x.

    ``basis`` is "f" (reward) or "f-c" (welfare); x ranges over integer
    multiples t * delta * b for t = 0..t_max.  Payments are stored as
    integers over the common denominator ``den`` (exact; the hot loop stays
    on machine integers).  Each row is a nondecreasing step function of t
    whose reachable columns form a prefix, so row j is stored as its steps:
    ``starts[j]`` ascend from 0, ``scaled_payments[j]`` holds one payment
    per step, strictly increasing, and the row is defined on columns below
    ``ends[j]`` (exclusive).  A column at or past the end is unreachable.
    When the table is built with a budget, every row ends before its first
    step that exceeds the budget.  Nothing records the choices:
    :meth:`reconstruct` re-derives each argmin from the rows.  Actions with
    zero singleton value are dropped up front.  Agent i's prefixes are
    the leading actions of ``agent_order[i]``: the prefix of length ell
    pays ``prefix_ratio[i][ell]`` (``prefix_payment[i][ell]`` over
    ``den``) and is worth ``prefix_weight[i][ell]`` columns.  Only
    ``prefix_weight`` and what depends on it differ between the scales b
    of one solve.
    """

    basis: str
    b: Fraction
    eps: Fraction
    delta: Fraction
    t_max: int
    den: int
    starts: tuple[tuple[int, ...], ...]
    scaled_payments: tuple[tuple[int, ...], ...]
    ends: tuple[int, ...]
    agent_order: tuple[tuple[int, ...], ...]
    prefix_ratio: tuple[tuple[Fraction, ...], ...]
    prefix_weight: tuple[tuple[int, ...], ...]
    prefix_payment: tuple[tuple[int, ...], ...]

    def _scaled(self, j: int, t: int) -> Optional[int]:
        """Row j's payment at column t over ``den``; None past the end."""
        if not 0 <= t < self.ends[j]:
            return None
        return self.scaled_payments[j][bisect_right(self.starts[j], t) - 1]

    def payment(self, j: int, t: int) -> Optional[Fraction]:
        p = self._scaled(j, t)
        return None if p is None else Fraction(p, self.den)

    def reconstruct(self, inst: Instance, t: int) -> tuple[Contract, frozenset[int]]:
        """The payment-minimal (contract, profile) behind column ``t``.

        Walking down from agent n, each agent takes the smallest prefix
        length whose candidate attains the entry - the tie rule of the fill.
        """
        n = inst.num_agents
        if not 0 <= t < self.ends[n]:
            raise ModelError(f"column {t} is unreachable")
        alpha = [ZERO] * n
        chosen: set[int] = set()
        col = t
        for j in range(n, 0, -1):
            target = self._scaled(j, col)
            for ell, (w, pay) in enumerate(zip(self.prefix_weight[j - 1],
                                               self.prefix_payment[j - 1])):
                idx = max(col - w, 0)
                p = self._scaled(j - 1, idx)
                if p is not None and p + pay == target:
                    break
            if ell > 0:
                alpha[j - 1] = self.prefix_ratio[j - 1][ell]
                chosen.update(self.agent_order[j - 1][:ell])
            col = idx
        return Contract(tuple(alpha)), frozenset(chosen)


@dataclass(frozen=True)
class _PrefixLayout:
    """The scale-free part of every FPTAS table of one solve.

    Per agent, the kept actions in payment order, each prefix's payment as
    a Fraction and as an integer over ``den``, and each kept action's phi
    (f or f - c of its singleton) as an integer over ``phi_den``.
    """

    agent_order: tuple[tuple[int, ...], ...]
    prefix_ratio: tuple[tuple[Fraction, ...], ...]
    den: int
    prefix_payment: tuple[tuple[int, ...], ...]
    phi: tuple[tuple[int, ...], ...]
    phi_den: int

    @classmethod
    def build(cls, inst: Instance, basis: str, budget: Optional[Fraction],
              singletons: Sequence[Fraction]) -> "_PrefixLayout":
        """The layout from f({a}) for every action a, ``singletons[a]``."""
        agent_order = []
        prefix_ratio = []
        phis = []
        for own in inst.agent_actions:
            ratio = {a: inst.cost_of[a] / singletons[a]
                     for a in own if singletons[a] > 0}
            kept = sorted(ratio, key=lambda a: (ratio[a], a))
            if budget is not None:
                kept = [a for a in kept if ratio[a] <= budget]
            agent_order.append(tuple(kept))
            prefix_ratio.append((ZERO, *(ratio[a] for a in kept)))
            phis.append([singletons[a] - inst.cost_of[a] if basis == "f-c"
                         else singletons[a] for a in kept])
        den = common_denominator(r for ratios in prefix_ratio for r in ratios)
        phi_den = common_denominator(p for ps in phis for p in ps)
        return cls(tuple(agent_order), tuple(prefix_ratio), den,
                   tuple(tuple(scaled_ints(ratios, den)) for ratios in prefix_ratio),
                   tuple(tuple(scaled_ints(ps, phi_den)) for ps in phis), phi_den)


def build_dp_table(inst: Instance, basis: str, b: Fraction, eps: Fraction, *,
                   budget: Optional[Fraction] = None,
                   layout: Optional[_PrefixLayout] = None) -> DpTable:
    """Fill the dynamic program for additive f at scale ``b``.

    Per agent, actions sort ascending by payment ratio c_a / f({a}); a
    contract then incentivizes exactly a prefix, whose payment is the last
    prefix member's ratio.  Prefix weights are running sums of
    floor(phi / (delta * b)), phi being f({a}) or f({a}) - c_a, computed on
    integers.  Column arguments below zero clamp to column zero.  Row j is
    the previous row, shifted by each prefix weight and raised by its
    payment, merged by pointwise min.  The merge works on steps, never on
    columns (the dominance lists of Nemhauser and Ullmann): its cost grows
    with the number of steps, not with t_max.  Passing ``budget`` drops
    prefixes whose own ratio already exceeds it and ends every row before
    its first step above it.  Payments are nonnegative, so this only
    removes entries that the budget selection would discard anyway.

    Without ``layout`` each singleton f({a}) is read once (one value query
    each on an instance without a table).  :func:`additive_fptas` passes
    the layout it built for ``basis`` and ``budget``, and so reads nothing
    here.
    """
    if not 0 < eps < 1:
        raise ModelError("eps must lie in (0, 1)")
    if budget is not None and budget < 0:
        raise ModelError("budget must be >= 0")
    if b <= 0:
        raise ModelError("b must be > 0")
    if basis not in ("f", "f-c"):
        raise ModelError('basis must be "f" or "f-c"')
    n = inst.num_agents
    m = inst.num_actions
    if layout is None:
        f = inst.f
        layout = _PrefixLayout.build(inst, basis, budget,
                                     [f[1 << a] for a in range(m)])
    # phi / (delta * b) = phi * m / (eps * b), over integers; // floors
    # negative phi of the f-c basis too
    num = m * eps.denominator * b.denominator
    div = layout.phi_den * eps.numerator * b.numerator
    prefix_weight = tuple(tuple(accumulate((p * num // div for p in phis),
                                           initial=0))
                          for phis in layout.phi)

    t_cap = math.ceil(Fraction(m * m) / eps)
    reachable = sum(max(w) for w in prefix_weight)
    t_max = min(t_cap, max(reachable, 0))

    den = layout.den
    cap = None if budget is None else budget.numerator * den // budget.denominator
    end_cap = t_max + 1
    starts: list[tuple[int, ...]] = [(0,)]
    pays: list[tuple[int, ...]] = [(0,)]
    ends: list[int] = [1]
    for j in range(n):
        # A step (e, q) offers payment q to every column below its end e,
        # and a row's entry is the least payment offered to its column.
        # Prefix (w, p) turns the previous row's step (e, q) into
        # (e + w, q + p); a column argument below zero clamps to zero, so
        # the shifted step still serves column 0 whenever e + w > 0.  The
        # row keeps the steps that no later-ending, no dearer step covers.
        prev = list(zip((*starts[-1][1:], ends[-1]), pays[-1]))
        steps: list[tuple[int, int]] = []
        for w, p in zip(prefix_weight[j], layout.prefix_payment[j]):
            steps += [(-e - w, q + p) for e, q in prev if e + w > 0]
        steps.sort()  # ends descending, then payments ascending
        row_ends: list[int] = []
        row_pays: list[int] = []
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
        if cap is not None:
            # payments are nonnegative, so steps above the budget only
            # ever feed steps above it
            k = bisect_right(row_pays, cap)
            del row_ends[k:], row_pays[k:]
        starts.append((0, *row_ends[:-1]))
        pays.append(tuple(row_pays))
        ends.append(row_ends[-1])
    return DpTable(basis, b, eps, eps / m, t_max, den, tuple(starts),
                   tuple(pays), tuple(ends), layout.agent_order,
                   layout.prefix_ratio, prefix_weight, layout.prefix_payment)


@_counted
def additive_fptas(inst: Instance, budget: Fraction, eps: Fraction,
                   obj: Objective) -> SolveResult:
    """(1-eps)-approximation for additive f under any budget in [0, 1].

    Sweeps the scale b over every candidate singleton value (f singletons
    for profit and reward, f-c singletons for welfare), fills the payment
    table per scale, and selects the column: the largest budget-feasible
    one for reward and welfare, the (1 - payment) * value maximizer below
    it for profit.  Welfare mirrors the reward selection rule.

    Each singleton f({a}) is read once, and the tables of all scales share
    one prefix layout built from those reads.  On an instance without a
    table the solve issues m + 1 + |scales| value queries: the singletons,
    then f of the unpaid profile (:func:`_zero_pair`) and of each scale's
    pick as the objective is evaluated.
    """
    if obj.kind not in ("profit", "reward", "welfare"):
        raise ModelError("additive FPTAS supports profit, reward, welfare")
    _check_budget(budget)
    if not 0 < eps < 1:
        raise ModelError("eps must lie in (0, 1)")
    basis = "f-c" if obj.kind == "welfare" else "f"
    f = inst.f
    singletons = [f[1 << a] for a in range(inst.num_actions)]
    layout = _PrefixLayout.build(inst, basis, budget, singletons)

    candidates = set()
    for a, f_a in enumerate(singletons):
        if f_a <= 0:
            continue
        b = f_a - inst.cost_of[a] if basis == "f-c" else f_a
        if b > 0:
            candidates.add(b)

    best_alpha, best_profile = _zero_pair(inst)
    best_value = evaluate(obj, inst, best_alpha, best_profile)
    n = inst.num_agents
    for b in sorted(candidates, reverse=True):
        dp = build_dp_table(inst, basis, b, eps, budget=budget, layout=layout)
        # rows end at the budget, so every column left is affordable
        if obj.kind == "profit":
            # (1 - payment) * value; ties go to the larger column.  On one
            # step the payment is at most the budget, so the score peaks
            # at the step's last column.
            lasts = [s - 1 for s in (*dp.starts[n][1:], dp.ends[n])]
            _, t_star = max(((dp.den - p) * t, t)
                            for t, p in zip(lasts, dp.scaled_payments[n]))
        else:
            t_star = dp.ends[n] - 1
        alpha, profile = dp.reconstruct(inst, t_star)
        v = evaluate(obj, inst, alpha, profile)
        if v > best_value:
            best_alpha, best_profile, best_value = alpha, profile, v
    return SolveResult(best_alpha, best_profile, best_value,
                       1 / (1 - eps), str(obj), budget)


# -- single-agent FPTAS ------------------------------------------------------


def single_agent_demand_breakpoints(inst: Instance) -> list[Fraction]:
    """Payment levels at which the single agent's best response changes."""
    if inst.num_agents != 1:
        raise ModelError("single-agent analysis needs exactly one agent")
    check_enumeration(inst.num_actions, "single-agent envelope", TESTER_LIMIT)
    _, breaks = single_agent_hull(with_table(inst))
    return breaks


def _first_grid_index(eps: Fraction, bound: Fraction, lo: int, hi: int) -> int:
    """The least k in [lo, hi) with (1-eps)^k <= bound, or hi if none is.

    A binary search on ints: with eps = p/q and bound = num/den each probe
    tests (q-p)^k * den <= num * q^k, building its two powers on demand.
    """
    p, q = eps.numerator, eps.denominator
    num, den = bound.numerator, bound.denominator
    return lo + bisect_left(range(lo, hi), True,
                            key=lambda k: pow(q - p, k) * den <= num * pow(q, k))


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

    The sweep prices one grid point per hull stretch per cost, not every
    point.  For one c_j, alpha_{j,k} rises strictly with k until it is
    clipped at B, and the best response only changes at the hull's
    breakpoints.  Within one stretch [breaks[i-1], breaks[i]) f is fixed
    and not negative, so the profit (1 - alpha) * f never rises, and no
    later point of the stretch can beat its first one strictly.  The
    first grid point past each breakpoint comes from an exact integer
    search (:func:`_first_grid_index`).
    """
    if inst.num_agents != 1:
        raise ModelError("single-agent FPTAS needs exactly one agent")
    _check_budget(budget)
    if not 0 < eps < 1:
        raise ModelError("eps must lie in (0, 1)")
    m = inst.num_actions
    check_enumeration(m, "single-agent scheme", TESTER_LIMIT)
    inst = with_table(inst)
    table = inst.f

    if all(inst.cost_of[a] == 0 for a in range(m)):
        return SolveResult(Contract.of([ZERO]), frozenset(range(m)), table[-1],
                           "exact", "profit", budget)
    if budget == 0:
        free = set_to_mask(a for a in range(m) if inst.cost_of[a] <= 0)
        return SolveResult(Contract.zero(1), mask_to_set(free), table[free],
                           "exact", "profit", budget)

    hull, breaks = single_agent_hull(inst)
    # S-dagger maximizes B*f - c; among ties the larger f also maximizes f-c
    s_dagger = hull[bisect_right(breaks, budget)]
    sw = table[s_dagger] - cost(inst, mask_to_set(s_dagger))
    if sw <= 0:
        return SolveResult(Contract.zero(1), frozenset(), ZERO, "exact",
                           "profit", budget)

    # (1-eps)^k <= e^(-eps k) < 2^-L < 1/(m 2^m) once eps k >= L, the bit
    # length of m 2^m, so k_count is at most ceil(L / eps)
    target = m << m
    bits = target.bit_length()
    k_count = _first_grid_index(eps, Fraction(1, target), 0,
                                -(-bits * eps.denominator // eps.numerator))

    # zero-payment baseline: the agent still performs its free actions
    best_alpha, best_mask = ZERO, hull[0]
    best_profit = table[best_mask]
    for c_j in sorted({inst.cost_of[a] for a in range(m) if inst.cost_of[a] > 0}):
        share = sw / (c_j + sw)
        k = 1
        while k <= k_count:
            alpha = min(budget, 1 - (1 - eps) ** k * share)
            i = bisect_right(breaks, alpha)
            profit = (1 - alpha) * table[hull[i]]
            if profit > best_profit:
                best_alpha, best_mask, best_profit = alpha, hull[i], profit
            if i == len(breaks) or breaks[i] > budget:
                break  # the grid stays in this stretch
            k = _first_grid_index(eps, (1 - breaks[i]) / share, k + 1,
                                  k_count + 1)
    return SolveResult(Contract.of([best_alpha]), mask_to_set(best_mask),
                       best_profit, 1 / (1 - eps), "profit", budget)


# -- downsizing and the GS pipeline ------------------------------------------


def downsize(inst: Instance, m_param: int, alpha: Contract,
             profile: Iterable[int]) -> tuple[Contract, frozenset[int]]:
    """Shrink total payment while keeping a 1/(2M-2) fraction of the reward.

    Implements the grouping transform: agents paid more than p/M are
    checked for the single-agent exit (paid alone, their equilibrium
    actions are the base of one :func:`equilibria.ne_from_demand`);
    otherwise agents pack greedily into payment-bounded groups until a
    group alone carries a 1/(M-1) reward share, and the surviving group's
    doubled-plus-epsilon contract is re-equilibrated the same way, with no
    base.  f on a group of agents means f of the union of their
    equilibrium actions.  A zero-payment input is returned unchanged (its guarantees
    hold trivially).
    """
    if m_param < 3:
        raise ModelError("M must be an integer >= 3")
    s = frozenset(profile)
    cert = is_nash(inst, alpha, s)
    if not cert.ok:
        raise NotAnEquilibriumError(
            f"agent {cert.violator} prefers a deviation under the input contract")
    p = alpha.total()
    if p == 0:
        return alpha, s
    f = inst.f
    f_s = f[set_to_mask(s)]
    threshold = p / m_param
    share = f_s / (m_param - 1)
    big = [i for i in range(inst.num_agents) if alpha[i] > threshold]
    for i in big:
        s_i = s & inst.agent_actions[i]
        if f[set_to_mask(s_i)] >= share:
            only = restrict_contract(alpha, {i})
            return only, ne_from_demand(inst, only, s_i)

    def group_actions(agents: list[int]) -> frozenset[int]:
        out: set[int] = set()
        for i in agents:
            out |= s & inst.agent_actions[i]
        return frozenset(out)

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
        if f[set_to_mask(group_actions(group))] >= share:
            survivors = group
            break
    epsilon = p / (inst.num_agents * m_param)
    new_alpha = restrict_contract(alpha, survivors).scale(Fraction(2)) \
        .add_everyone(epsilon)
    return new_alpha, ne_from_demand(inst, new_alpha)


@_counted
def gs_constant_factor(inst: Instance, budget: Fraction, obj: Objective, *,
                       force: bool = False) -> SolveResult:
    """Constant-factor approximation for gross-substitutes rewards.

    Pipeline: (a) solve profit maximization at budget 1 on the instance
    with costs scaled by (4/3)(1/B), (b) rescale that contract by 3B/4 and
    race it against the exact single-agent solutions for reward to get a
    reward-bounded candidate, (c) downsize the winner with M = 6 and race
    the result against the exact single-agent solutions for the target
    objective.  With the exact base solver the certified factor is
    120 * 50 + 1 = 6001, independent of instance size.  Every stage reads
    the one value table filled here, unless the budget is 0.
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

    scaled = scale_costs(inst, Fraction(4, 3) / budget)
    base = brute_force_opt(scaled, ONE, PROFIT)
    rescaled = (base.contract.scale(Fraction(3, 4) * budget), base.profile)

    # each agent's single-agent pairs, raced for reward here and for the
    # target objective after downsizing
    singles = [_single_agent_pairs(inst, i, budget)
               for i in range(inst.num_agents)]
    mrb_candidates = [rescaled] + \
        [_race(REWARD, inst, pairs)[:2] for pairs in singles]
    mrb = max(mrb_candidates, key=lambda pair: evaluate(REWARD, inst, *pair))

    final_candidates = [downsize(inst, 6, *mrb)] + \
        [_race(obj, inst, pairs)[:2] for pairs in singles]
    best = max(final_candidates, key=lambda pair: evaluate(obj, inst, *pair))
    return SolveResult(*best, evaluate(obj, inst, *best), Fraction(6001),
                       str(obj), budget)
