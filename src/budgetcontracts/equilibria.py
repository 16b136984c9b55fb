"""Best responses, Nash equilibria, subset stability, contract transforms,
and the minimal-contract algebra.

Equilibrium checks use weak inequalities throughout: an agent indifferent
between the prescribed actions and a deviation counts as best-responding,
matching the knife-edge equalities that minimal incentivizing contracts
produce.  The exhaustive checks share one walk over an agent's deviations
(:func:`_deviations`) and differ only in utility and tie rule.  All
functions are pure and read f through ``Instance.f``: the instance's value
table when it carries one (:func:`rewards.with_table`), and otherwise the
oracle, one value query per read.  A profile becomes a bitmask once, at
the entry point (``Instance.mask_of``), where an id outside the ground set
raises ``UnknownActionIdError``.

The minimal-contract algebra is :func:`_min_payment`, one agent's bounds
for one profile.  :func:`min_incentivizing_contract` runs it per agent on
the Fractions it reads, against every deviation.  :func:`iter_min_contracts`
prices all profiles at once, agent by agent, on integers: against a fixed
rest R = S - T_i, agent i's deviations are the lines
alpha * f(R + d) - c(d), and S_i is kept exactly where its line is on their
upper envelope.  When d' costs no more than d and is worth no less, the
bound from d' implies the bound from d at every alpha >= 0, so only S_i's
neighbours on the envelope bind: the one before it sets the payment, and
it is what :func:`_min_payment` sees.  A line that touches the envelope
in a single point, where its lower and upper bounds meet (lo = hi),
stays admissible.  The same envelope with R = empty is a one-agent
instance's best-response hull (:func:`single_agent_hull`), which the
single-agent scheme in :mod:`solvers` reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Iterable, Optional, Sequence

from budgetcontracts.core import (
    ActionProfile,
    Contract,
    GeneralContract,
    Instance,
    ModelError,
    ZERO,
    check_enumeration,
    cost,
)
from budgetcontracts.rewards import PriceVector, ValueTable, \
    common_denominator, demand_with_base, lex_key, mask_to_set, scaled_ints, \
    set_to_mask, submask_sums, submasks


def _check_walks(inst: Instance, within: Optional[frozenset[int]] = None) -> None:
    """Refuse before any read if one agent's walk, over T_i or over
    T_i & ``within``, is too long."""
    sizes = [len(t if within is None else t & within) for t in inst.agent_actions]
    check_enumeration(max(sizes, default=0), "one agent's deviations")


def _deviations(inst: Instance, agent: int, s: int, *, shrink: bool = False):
    """Agent ``agent``'s deviations from the profile bitmask ``s``.

    Returns (c(S_i), walk).  The walk yields (dev, f(dev | S_-i), c(dev))
    for every subset dev of T_i (of S_i when ``shrink``), each a bitmask,
    in ascending mask order: the order of the subsets of the agent's
    sorted actions.  f is read as the walk goes, so a caller that stops
    early spares the later reads.  Callers check the walk's size with
    :func:`_check_walks` before their first read.
    """
    own = set_to_mask(inst.agent_actions[agent])
    s_i = s & own
    pool = s_i if shrink else own
    costs = submask_sums(pool, inst.cost_of)
    rest = s & ~own
    f = inst.f
    return costs[s_i], ((dev, f[dev | rest], c) for dev, c in costs.items())


def agent_utility(inst: Instance, alpha: Contract, profile: Iterable[int],
                  agent: int) -> Fraction:
    """alpha_i * f(S) - c(S_i)."""
    s = frozenset(profile)
    f_s = inst.f[inst.mask_of(s)]
    return alpha[agent] * f_s - cost(inst, inst.agent_part(s, agent))


def best_response(inst: Instance, agent: int, alpha_i: Fraction,
                  s_minus_i: Iterable[int], *,
                  gs: Optional[bool] = None) -> frozenset[int]:
    """A utility-maximizing action set for one agent, others' actions fixed.

    For alpha_i > 0 this is a demand computation over the agent's own
    actions at prices c_a / alpha_i, on top of the fixed outside actions:
    greedy when the oracle is gross substitutes, exhaustive otherwise.  The
    exhaustive path resolves utility ties toward the larger reward (the
    agent breaks indifference in the principal's favor, which is what makes
    knife-edge minimal contracts come out as prescribed), then toward the
    lexicographically smallest set.  At alpha_i = 0 the canonical response
    is the empty set (the agent is indifferent among all zero-cost sets).
    """
    s_other = frozenset(s_minus_i)
    other = inst.mask_of(s_other)
    own = inst.agent_actions[agent]
    if s_other & own:
        raise ValueError("s_minus_i intersects the agent's own actions")
    if alpha_i == 0:
        return frozenset()
    use_greedy = inst.oracle.is_gs_class if gs is None else gs
    if use_greedy:
        prices = PriceVector(
            {a: inst.cost_of[a] / alpha_i for a in own},
            excluded=inst.ground_set - own - s_other,
        )
        result = demand_with_base(inst.oracle, prices, s_other, gs=True,
                                  table=inst.table)
        return result - s_other
    check_enumeration(len(own), "one agent's deviations")
    _, walk = _deviations(inst, agent, other)
    best = None
    for dev, f_full, c in walk:
        rank = (alpha_i * f_full - c, f_full)
        if best is None or rank > best[0] or (
                rank == best[0] and lex_key(dev) < lex_key(best[1])):
            best = (rank, dev)
    return mask_to_set(best[1])


@dataclass(frozen=True)
class NeCertificate:
    """Per-agent evidence for (or against) an equilibrium claim.

    ``utilities[i]`` is agent i's utility at the prescribed profile and
    ``best_deviations[i]`` a utility-maximizing alternative with its value;
    the profile is a Nash equilibrium iff no alternative strictly improves.
    """

    ok: bool
    profile: ActionProfile
    utilities: tuple[Fraction, ...]
    best_deviations: tuple[tuple[frozenset[int], Fraction], ...]
    violator: Optional[int] = None


def is_nash(inst: Instance, alpha: Contract,
            profile: Iterable[int]) -> NeCertificate:
    """Check the weak Nash condition by per-agent enumeration of deviations.

    f(S) is read once for all agents, so without a table the check issues
    1 + sum_i 2^|T_i| value queries.
    """
    _check_walks(inst)
    s = frozenset(profile)
    mask = inst.mask_of(s)
    f_s = inst.f[mask]
    utilities = []
    best_devs = []
    violator = None
    for i in range(inst.num_agents):
        c_i, walk = _deviations(inst, i, mask)
        u_i = alpha[i] * f_s - c_i
        best_u = None
        best_dev = 0
        for dev, f_dev, c in walk:
            u = alpha[i] * f_dev - c
            if best_u is None or u > best_u:
                best_u, best_dev = u, dev
        utilities.append(u_i)
        best_devs.append((mask_to_set(best_dev), best_u))
        if best_u > u_i and violator is None:
            violator = i
    return NeCertificate(violator is None, s, tuple(utilities),
                         tuple(best_devs), violator)


def ne_from_demand(inst: Instance, alpha: Contract, *,
                   gs: Optional[bool] = None) -> frozenset[int]:
    """An equilibrium of ``alpha`` from one demand query.

    Prices each action at c_a / alpha_i for its owner i and excludes the
    actions of zero-payment agents; any demand set at these prices is a
    Nash equilibrium of ``alpha``.
    """
    prices: dict[int, Fraction] = {}
    excluded = set()
    for a in sorted(inst.ground_set):
        i = inst.owner_of[a]
        if alpha[i] > 0:
            prices[a] = inst.cost_of[a] / alpha[i]
        else:
            excluded.add(a)
    return demand_with_base(inst.oracle, PriceVector(prices, frozenset(excluded)),
                            (), gs=gs, table=inst.table)


def is_subset_stable(inst: Instance, alpha: Contract, profile: Iterable[int]):
    """Check stability against own-subset deviations only.

    Returns (ok, witness) with witness = (agent, subset) for the first
    profitable shrink found.
    """
    profile = frozenset(profile)
    s = inst.mask_of(profile)
    _check_walks(inst, profile)
    f_s = inst.f[s]
    for i in range(inst.num_agents):
        c_i, walk = _deviations(inst, i, s, shrink=True)
        u_i = alpha[i] * f_s - c_i
        for dev, f_dev, c in walk:
            if alpha[i] * f_dev - c > u_i:
                return False, (i, mask_to_set(dev))
    return True, None


def doubling_epsilon(budget: Fraction, num_agents: int) -> Fraction:
    """Default per-agent bump for the doubling transform: B / (4n)."""
    return Fraction(budget, 4 * num_agents)


def double_contract(inst: Instance, alpha: Contract, epsilon: Fraction, *,
                    gs: Optional[bool] = None):
    """The doubled contract 2*alpha + epsilon and one equilibrium of it.

    For submodular f and a subset-stable (alpha, S), every equilibrium of
    the returned contract retains at least half of f(S).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    doubled = alpha.scale(Fraction(2)).add_everyone(epsilon)
    profile = ne_from_demand(inst, doubled, gs=gs)
    return doubled, profile


def min_incentivizing_contract(inst: Instance, profile: Iterable[int]
                               ) -> Optional[Contract]:
    """The cheapest contract making ``profile`` a weak Nash equilibrium.

    Per agent, each deviation S' with f(S) > f(S' + S_-i) forces
    alpha_i >= (c(S_i) - c(S')) / (f(S) - f(S' + S_-i)), and each deviation
    with f(S) < f(S' + S_-i) caps alpha_i from above by the same ratio;
    equal-f deviations must not be strictly cheaper.  Returns None when some
    agent's bounds cross (the profile cannot be incentivized at any payment).
    :func:`_min_payment` on the values as read: f(S) first, then each
    agent's deviations in ascending mask order until the profile fails, so
    without a table it issues at most 1 + sum_i (2^|T_i| - 1) value queries.
    """
    mask = inst.mask_of(frozenset(profile))
    _check_walks(inst)
    own_masks = [set_to_mask(t) for t in inst.agent_actions]
    own_costs = [submask_sums(om, inst.cost_of) for om in own_masks]
    f = inst.f
    f_s = f[mask]
    entries = []
    for om, costs in zip(own_masks, own_costs):
        s_i, rest = mask & om, mask & ~om
        walk = ((f[rest | dev], c) for dev, c in costs.items() if dev != s_i)
        pay = _min_payment(f_s, costs[s_i], walk)
        if pay is None:
            return None
        entries.append(Fraction(*pay))
    return Contract(tuple(entries))


def _min_payment(f_s, c_i, deviations: Iterable[tuple]) -> Optional[tuple]:
    """One agent's minimal payment for keeping its part S_i of a profile.

    ``f_s`` is f(S), ``c_i`` is c(S_i), and ``deviations`` yields
    (f(S' + S_-i), c(S')) for the deviations S' to bound against.  Values
    are exact numbers on one scale and costs on one scale (ints over a
    common denominator, or plain Fractions).  Returns the payment as a
    (cost difference, positive value difference) pair, (0, 1) when
    unpaid, or None when an equal-f deviation is strictly cheaper or the
    bounds cross.  Stops at the first failure, so a lazy ``deviations``
    spares the later reads.
    """
    lo_n, lo_d = 0, 1
    hi = None  # (numerator, positive denominator)
    for f_dev, c in deviations:
        df = f_s - f_dev
        dc = c_i - c
        if df > 0:
            if dc > 0 and dc * lo_d > lo_n * df:
                lo_n, lo_d = dc, df
        elif df == 0:
            if dc > 0:
                return None
        elif hi is None or dc * hi[1] > hi[0] * df:  # dc/df < hi
            hi = (-dc, -df)
    if hi is not None and lo_n * hi[1] > hi[0] * lo_d:
        return None
    return lo_n, lo_d


def _envelope_payments(vals: Sequence[int], costs: Sequence[int],
                       ends: Sequence[int]) -> list[tuple[int, tuple]]:
    """The deviations an agent can be kept on against one rest, with their
    payments.

    ``costs`` ascend; ``vals[k]`` is f(R + d_k) for the k-th deviation d_k
    and ``ends[k]`` the end of the run of deviations costing what d_k
    costs.  Returns (k, payment) for every d_k whose line
    alpha * vals[k] - costs[k] is on the upper envelope somewhere on
    alpha >= 0, the payment being the left end of that stretch: the
    whole cheapest run at 0, then each envelope line and its exact
    duplicates, priced by :func:`_min_payment` against the envelope line
    before it.  One pass over the deviations finds the staircase, and a
    monotone stack over it the envelope.
    """
    hull: list[int] = []
    top = None
    for k, v in enumerate(vals):
        if top is not None and v <= top:
            continue  # a cheaper deviation is worth at least as much
        top = v
        c = costs[k]
        if hull and costs[hull[-1]] == c:  # same cost, now worth less
            hull.pop()
        while len(hull) > 1:
            p, t = hull[-2], hull[-1]
            # t's stretch would end before it starts; a stretch of length
            # zero (all three lines meet in one point) keeps t
            if (c - costs[p]) * (vals[t] - vals[p]) \
                    < (costs[t] - costs[p]) * (v - vals[p]):
                hull.pop()
            else:
                break
        hull.append(k)
    out = [(k, (0, 1)) for k in range(ends[0])]
    for p, h in zip(hull, hull[1:]):
        # the envelope neighbour before h bounds it from below; the one
        # after caps it no lower, as the stack kept h
        pay = _min_payment(vals[h], costs[h], ((vals[p], costs[p]),))
        if ends[h] == h + 1:
            out.append((h, pay))
        else:
            out += [(k, pay) for k in range(h, ends[h]) if vals[k] == vals[h]]
    return out


def _agent_payments(f: Sequence[int], own: int, c_int: Sequence[int],
                    masks: Iterable[int]) -> dict[int, tuple]:
    """The minimal payment of the agent owning ``own`` for each profile
    it can be kept on, keyed by profile mask, over the rests of ``masks``.

    One pass of :func:`_envelope_payments` per rest R = S - T_i, so each
    deviation value f(R + d) is read once per rest.  The keys may include
    profiles outside ``masks`` that share a rest with one inside.
    """
    costs = submask_sums(own, c_int)
    devs = sorted(costs, key=costs.__getitem__)  # ties stay in mask order
    by_cost = [costs[d] for d in devs]
    ends = []
    for _, run in groupby(range(len(devs)), by_cost.__getitem__):
        run = list(run)
        ends += [run[-1] + 1] * len(run)
    pay = {}
    for rest in {mask & ~own for mask in masks}:
        for k, p in _envelope_payments([f[rest | d] for d in devs], by_cost, ends):
            pay[rest | devs[k]] = p
    return pay


def _integer_form(inst: Instance) -> tuple[Sequence[int], int, list[int], int]:
    """(f, f_den, c, c_den): the instance's value table and the action
    costs as ints, each over its own common denominator.  A
    :class:`ValueTable` hands over its integer form as it is; a plain list
    is rescaled."""
    table = inst.table
    if table is None:
        raise ModelError("no value table on the instance: fill it with "
                         "rewards.with_table")
    costs = [inst.cost_of[a] for a in range(inst.num_actions)]
    c_den = common_denominator(costs)
    if isinstance(table, ValueTable):
        f, f_den = table.ints, table.den
    else:
        f_den = common_denominator(table)
        f = scaled_ints(table, f_den)
    return f, f_den, scaled_ints(costs, c_den), c_den


def single_agent_hull(inst: Instance) -> tuple[list[int], list[Fraction]]:
    """The upper envelope of the lines alpha * f(S) - c(S) of a one-agent
    instance carrying its value table, as (hull, breaks):
    :func:`_agent_payments` with R = empty.

    Of the sets sharing a left end there, the largest f, then the smallest
    mask, stays, so a set touching the envelope in one point gives way to
    the line after it.  ``hull`` lists the masks by left end and ``breaks``
    the positive left ends: hull[i] is on the envelope over
    [breaks[i-1], breaks[i]], and hull[bisect_right(breaks, alpha)] is the
    best response at alpha, the larger f winning at a breakpoint, so
    hull[i] is the one chosen on [breaks[i-1], breaks[i]).
    """
    f, f_den, c_int, c_den = _integer_form(inst)
    best: dict[Fraction, int] = {}
    for mask, (dc, df) in _agent_payments(f, (1 << inst.num_actions) - 1,
                                          c_int, [0]).items():
        alpha = Fraction(dc * f_den, df * c_den)
        kept = best.get(alpha)
        if kept is None or (f[mask], -mask) > (f[kept], -kept):
            best[alpha] = mask
    ends = sorted(best)
    return [best[alpha] for alpha in ends], ends[1:]


def iter_min_contracts(inst: Instance, *, within: Optional[int] = None,
                       budget: Optional[Fraction] = None):
    """Yield (profile mask, minimal incentivizing Contract) for every
    incentivizable profile of an instance carrying its value table, in
    ascending mask order.

    The contracts of :func:`min_incentivizing_contract`, found agent by
    agent from upper envelopes.  Against a fixed rest R = S - T_i, agent
    i's utility from deviation d is the line alpha * f(R + d) - c(d), and
    S_i is kept at alpha exactly where its line is on the upper envelope
    of all 2^|T_i| lines; the minimal payment is the left end of that
    stretch on alpha >= 0.  A deviation d' costing no more and worth no
    less than d bounds alpha at least as tightly as d does at every
    alpha >= 0, so only the staircase of deviations whose f strictly
    rises with cost matters, and of it only the envelope neighbours of
    S_i bind; :func:`_min_payment` prices S_i against the one before it.
    A line touching the envelope in a single point (its bounds meet,
    lo = hi) stays admissible.  Each agent reads f(R + d) once per rest of
    the profiles still standing, at most n * 2^m table reads in all, where
    pricing each profile alone reads 2^m * sum_i 2^|T_i|.

    Values are ints over one denominator (a :class:`ValueTable`'s own, so
    its entries are not rescaled) and costs ints over theirs; a payment
    becomes a Fraction once, when its contract is yielded.  ``within`` (a
    bitmask) restricts the profiles to its submasks; an agent owning none
    of its actions is then unpaid and skipped, unless one of its costs is
    negative.  ``budget`` drops profiles whose payments sum above it.
    """
    m, n = inst.num_actions, inst.num_agents
    own_masks = [set_to_mask(t) for t in inst.agent_actions]
    f, f_den, c_int, c_den = _integer_form(inst)
    span = (1 << m) - 1 if within is None else within
    # An agent with no action in ``span`` acts in no profile; if none of
    # its costs is negative, every deviation only adds cost, so its bounds
    # are lo = 0 <= hi: it is never paid and never blocks.
    agents = [i for i in range(n) if own_masks[i] & span
              or any(c_int[a] < 0 for a in inst.agent_actions[i])]
    masks = range(1 << m) if within is None else submasks(within)
    # a payment (dc, df) is alpha_i = dc * f_den / (df * c_den); payments
    # are nonnegative, so none of a budget-feasible profile exceeds cap
    if budget is not None:
        cap_n, cap_d = (budget * Fraction(c_den, f_den)).as_integer_ratio()
    pays = []
    for i in agents:
        pay = _agent_payments(f, own_masks[i], c_int, masks)
        if budget is not None:
            pay = {k: p for k, p in pay.items() if p[0] * cap_d <= cap_n * p[1]}
        masks = [mask for mask in masks if mask in pay]
        pays.append(pay)
    for mask in masks:
        alpha = [ZERO] * n
        for i, pay in zip(agents, pays):
            dc, df = pay[mask]
            if dc:
                alpha[i] = Fraction(dc * f_den, df * c_den)
        if budget is None or sum(alpha, ZERO) <= budget:
            yield mask, Contract(tuple(alpha))


def linearize(contract: GeneralContract) -> Contract:
    """Componentwise linearization: alpha_i = max(0, pay(1) - pay(0)).

    Every equilibrium of the general contract remains an equilibrium of the
    linearized one.
    """
    return Contract(tuple(
        max(ZERO, s - f)
        for f, s in zip(contract.pay_on_failure, contract.pay_on_success)
    ))


def is_nash_general(inst: Instance, contract: GeneralContract,
                    profile: Iterable[int]) -> bool:
    """Weak Nash check under a general (success/failure payment) contract."""
    s = inst.mask_of(frozenset(profile))
    _check_walks(inst)

    def utility(i: int, f_dev: Fraction, c: Fraction) -> Fraction:
        t0 = contract.pay_on_failure[i]
        t1 = contract.pay_on_success[i]
        return t1 * f_dev + t0 * (1 - f_dev) - c

    f_s = inst.f[s]
    for i in range(inst.num_agents):
        c_i, walk = _deviations(inst, i, s)
        u_i = utility(i, f_s, c_i)
        for _, f_dev, c in walk:
            if utility(i, f_dev, c) > u_i:
                return False
    return True
