"""Best responses, Nash equilibria, contract transforms, and the
minimal-contract algebra.

Equilibrium checks use weak inequalities throughout: an agent indifferent
between the prescribed actions and a deviation counts as best-responding,
matching the knife-edge equalities that minimal incentivizing contracts
produce.  All functions are pure and read f by bitmask: the instance's
value table when it carries one (:func:`rewards.with_table`), and
otherwise the oracle, one value query per read.  A profile becomes a
bitmask once, at the entry point (``Instance.mask_of``), where an id
outside the ground set raises ``UnknownActionIdError``.

Every equilibrium check reads f over an agent's deviations through one
walk, :func:`_deviations`: f(S) once per check, by the caller, and f
once per other deviation.  The walk is one integer kernel:
f(X) = F(X) / f_den with (F, f_den) from ``Instance.scaled_f`` (the
table's ints, or without a table the oracle's counted integer read, over
the oracle's den), and c(X) = C(X) / c_den with C from
``Instance.agent_cost_sums``, each agent's subset-cost sums on
``Instance.int_costs``, built once per instance on first use.  At slope
p/q a utility is compared as p * c_den * F - q * f_den * C, on ints with
or without a table.  The checks differ in slope, tie rule and where they
stop; :func:`_agent_walks` gives each agent's walk at its slope.

The minimal-contract algebra is one routine, :func:`_agent_payments`:
one agent's minimal payments, read off the upper envelope of its
deviations' lines against each rest.  :func:`iter_min_contracts` runs it
over every profile, under a budget B from the deviations within the
budget's cost cut, c(d) <= B * spread of f, and
:func:`min_incentivizing_contract` over one profile's walk;
:func:`single_agent_hull` is the walk's records for one agent.  Payments
are int pairs; :func:`contract_of` makes a ``Contract`` of them where one
is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Mapping, Optional, Sequence

from budgetcontracts.core import (
    ActionProfile,
    Contract,
    GeneralContract,
    Instance,
    ModelError,
    UnknownAgentIdError,
    ZERO,
    check_contract,
    check_enumeration,
)
from budgetcontracts.rewards import PriceVector, cost_runs, \
    demand_with_base, lex_key, mask_to_set, submask_sums_upto, submasks


def _check_walks(inst: Instance) -> None:
    """Refuse before any read if one agent's walk over T_i is too long."""
    check_enumeration(max(map(len, inst.agent_actions), default=0),
                      "one agent's deviations")


def _deviations(inst: Instance, agent: int, s: int, f_s: int):
    """Agent ``agent``'s deviations from the profile bitmask ``s``, scaled.

    Returns (C(S_i), walk).  The walk yields (dev, F(dev | S_-i), C(dev))
    for every subset dev of T_i, each a bitmask, in ascending mask order:
    the order of the subsets of the agent's sorted actions.  F and C are f
    and c scaled as the module docstring says.  F(S) is the caller's one
    read ``f_s``; f is read once per other deviation as the walk goes, so
    a caller that stops early spares the later reads.  Callers check the
    walk's size with :func:`_check_walks` before their first read.
    """
    own = inst.agent_masks[agent]
    costs = inst.agent_cost_sums[agent]
    rest = s & ~own
    f, _ = inst.scaled_f
    fulls = [dev | rest for dev in costs]
    k = fulls.index(s)
    return costs[s & own], zip(costs, chain(
        map(f, fulls[:k]), (f_s,), map(f, fulls[k + 1:])), costs.values())


def best_response(inst: Instance, agent: int, alpha_i: Fraction,
                  s_minus_i: Iterable[int], *,
                  gs: Optional[bool] = None) -> frozenset[int]:
    """A utility-maximizing action set for one agent, others' actions fixed.

    For alpha_i > 0 on a gross-substitutes oracle this is
    :func:`ne_from_demand` paying only ``agent``, on the base S_-i.  The
    exhaustive walk (other oracles, or ``gs=False``) resolves utility ties
    toward the larger reward (the agent breaks indifference in the
    principal's favor, which is what makes knife-edge minimal contracts
    come out as prescribed), then toward the lexicographically smallest
    set.  At alpha_i = 0 the canonical response is the empty set (the
    agent is indifferent among all zero-cost sets); alpha_i < 0 and an
    agent outside 0..n-1 raise.
    """
    if not 0 <= agent < inst.num_agents:
        raise UnknownAgentIdError(f"agent {agent} out of range")
    if alpha_i < 0:
        raise ModelError("payment must be >= 0")
    s_other = frozenset(s_minus_i)
    other = inst.mask_of(s_other)
    own = inst.agent_actions[agent]
    if s_other & own:
        raise ModelError("s_minus_i intersects the agent's own actions")
    if alpha_i == 0:
        return frozenset()
    if inst.oracle.is_gs_class if gs is None else gs:
        only = Contract(tuple(alpha_i if j == agent else ZERO
                              for j in range(inst.num_agents)))
        return ne_from_demand(inst, only, s_other, gs=True) - s_other
    check_enumeration(len(own), "one agent's deviations")
    f, f_den = inst.scaled_f
    _, walk = _deviations(inst, agent, other, f(other))
    pc = alpha_i.numerator * inst.int_costs[1]
    qf = alpha_i.denominator * f_den
    best = None
    for dev, f_full, c in walk:
        rank = (pc * f_full - qf * c, f_full)
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


def _agent_walks(inst: Instance, slopes: Contract | Sequence[Fraction],
                 profile: Iterable[int]):
    """Per agent in index order (u_i, pc, qf, walk) at its slope p/q, which
    may be negative: pc = p * c_den, qf = q * f_den, walk its
    :func:`_deviations`, each worth pc * F - qf * C times qf * c_den, and
    u_i the worth of S_i.  Without one slope per agent it raises."""
    check_contract(inst, slopes)
    _check_walks(inst)
    mask = inst.mask_of(profile)
    f, f_den = inst.scaled_f
    c_den = inst.int_costs[1]
    f_s = f(mask)
    for i in range(inst.num_agents):
        c_i, walk = _deviations(inst, i, mask, f_s)
        pc, qf = slopes[i].numerator * c_den, slopes[i].denominator * f_den
        yield pc * f_s - qf * c_i, pc, qf, walk


def is_nash(inst: Instance, alpha: Contract,
            profile: Iterable[int]) -> NeCertificate:
    """Check the weak Nash condition by per-agent enumeration of deviations.

    f(S) is read once for all agents, so without a table the check issues
    1 + sum_i (2^|T_i| - 1) value queries.  Each agent keeps its first
    best deviation; utilities become Fractions once per agent.
    """
    s = frozenset(profile)
    walks = []
    for u_i, pc, qf, walk in _agent_walks(inst, alpha, s):
        best_u = None
        for dev, f_dev, c in walk:
            u = pc * f_dev - qf * c
            if best_u is None or u > best_u:
                best_u, best_dev = u, dev
        walks.append((u_i, best_u, best_dev, qf * inst.int_costs[1]))
    violator = next((i for i, (u, b, _, _) in enumerate(walks) if b > u),
                    None)
    return NeCertificate(violator is None, s,
                         tuple(Fraction(u, k) for u, _, _, k in walks),
                         tuple((mask_to_set(d), Fraction(b, k))
                               for _, b, d, k in walks), violator)


def nash_violator(inst: Instance, alpha: Contract | Sequence[Fraction],
                  profile: Iterable[int]) -> Optional[int]:
    """``is_nash(...).violator`` (None at an equilibrium), returning at the
    first improving deviation; ``alpha`` may be any sequence of slopes."""
    for i, (u_i, pc, qf, walk) in enumerate(_agent_walks(inst, alpha, profile)):
        for _, f_dev, c in walk:
            if pc * f_dev - qf * c > u_i:
                return i
    return None


def ne_from_demand(inst: Instance, alpha: Contract, base: Iterable[int] = (),
                   *, gs: Optional[bool] = None) -> frozenset[int]:
    """An equilibrium of ``alpha`` from one demand query, containing ``base``.

    The one step from a contract to prices: an action of paid agent i
    costs c_a / alpha_i, unpaid agents' actions are excluded, and ``base``
    is forced in (:func:`demand_with_base`).  With an empty base, any
    demand set at these prices is a Nash equilibrium of ``alpha``.
    """
    check_contract(inst, alpha)
    pay = {a: alpha[inst.owner_of[a]] for a in inst.ground_set}
    prices = PriceVector({a: inst.cost_of[a] / p for a, p in pay.items() if p > 0},
                         frozenset(a for a, p in pay.items() if p <= 0))
    return demand_with_base(inst.oracle, prices, base, gs=gs,
                            table=_FractionReads(inst))


class _FractionReads:
    """f by bitmask, a Fraction made per read from ``Instance.scaled_f``."""

    def __init__(self, inst: Instance):
        self.read, self.den = inst.scaled_f

    def __getitem__(self, mask: int) -> Fraction:
        return Fraction(self.read(mask), self.den)


def double_contract(inst: Instance, alpha: Contract, epsilon: Fraction):
    """The doubled contract 2*alpha + epsilon and one equilibrium of it.

    For submodular f and a subset-stable (alpha, S), every equilibrium of
    the returned contract retains at least half of f(S).
    """
    if epsilon <= 0:
        raise ModelError("epsilon must be > 0")
    doubled = alpha.scale(Fraction(2)).add_everyone(epsilon)
    profile = ne_from_demand(inst, doubled)
    return doubled, profile


def min_incentivizing_contract(inst: Instance, profile: Iterable[int]
                               ) -> Optional[Contract]:
    """The cheapest contract making ``profile`` a weak Nash equilibrium,
    or None when some agent cannot be kept on it at any payment.

    Per agent i, its walk (:func:`_deviations`, f(S) read once up front
    for all agents) reads f(R + d) for every other deviation d of T_i in
    ascending mask order, R = S - T_i, and the agent's payment is what
    :func:`_agent_payments` gives S_i against those values: the envelope
    of :func:`iter_min_contracts`, for one profile.  Without a table a
    kept profile issues 1 + sum_i (2^|T_i| - 1) value queries; one not
    kept stops after its first failing agent's walk.
    """
    mask = inst.mask_of(frozenset(profile))
    _check_walks(inst)
    f, _ = inst.scaled_f
    f_s = f(mask)
    paid = []
    for i, runs in enumerate(inst.agent_cost_runs):
        _, walk = _deviations(inst, i, mask, f_s)
        vals = {dev: f_dev for dev, f_dev, _ in walk}
        pay = _agent_payments(vals, runs, (0,)).get(mask & inst.agent_masks[i])
        if pay is None:
            return None
        paid.append((i, *pay))
    return contract_of(inst, paid)


def _agent_payments(f: Sequence[int] | Mapping[int, int],
                    runs: tuple[list[int], list[int], list[int]],
                    rests: Iterable[int]) -> dict[int, tuple]:
    """The minimal payment of one agent for each profile it can be kept
    on, keyed by profile mask, over the distinct ``rests``; ``runs`` is
    :func:`rewards.cost_runs` of its deviations (all, or a budget's cut):
    the submasks in ascending cost, their costs and the ends of the runs.
    ``f`` maps each R + d to f(R + d) scaled: a value table, or one walk's
    values by deviation, at rest 0 (:func:`min_incentivizing_contract`).

    Per rest R, one loop reads f(R + d) for the deviations d in ascending
    cost, keeps the staircase (each worth more than every cheaper one) and
    runs a monotone stack over it for the upper envelope.  Kept are the
    cheapest run at 0, then each envelope line h and its exact duplicates,
    priced as (c(h) - c(p), f(R + h) - f(R + p)) from the line p before
    it, which is cheaper and worth less.  A profile left out is one the
    agent cannot be kept on at any payment.
    """
    devs, by_cost, ends = runs
    cheapest = devs[:ends[0]]
    pay = {}
    for rest in rests:
        vals = [f[rest | d] for d in devs]
        hull = [0]
        top = vals[0]
        for k in range(1, len(vals)):
            v = vals[k]
            if v <= top:
                continue  # a cheaper deviation is worth at least as much
            top, c = v, by_cost[k]
            if by_cost[hull[-1]] == c:  # same cost, now worth less
                hull.pop()
            while len(hull) > 1:
                p, t = hull[-2], hull[-1]
                # t's stretch would end before it starts; a stretch of
                # length zero (all three lines meet in one point) keeps t
                if (c - by_cost[p]) * (vals[t] - vals[p]) \
                        < (by_cost[t] - by_cost[p]) * (v - vals[p]):
                    hull.pop()
                else:
                    break
            hull.append(k)
        for d in cheapest:
            pay[rest | d] = (0, 1)
        for p, h in zip(hull, hull[1:]):
            # p, cheaper and worth less, bounds h from below; the line
            # after h caps it no lower, as the stack kept h
            p_h = (by_cost[h] - by_cost[p], vals[h] - vals[p])
            if ends[h] == h + 1:
                pay[rest | devs[h]] = p_h
            else:
                for k in range(h, ends[h]):
                    if vals[k] == vals[h]:
                        pay[rest | devs[k]] = p_h
    return pay


def single_agent_hull(inst: Instance, budget: Optional[Fraction] = None
                      ) -> tuple[list[int], list[Fraction]]:
    """The upper envelope of the lines alpha * f(S) - c(S) of a one-agent
    instance carrying its value table, as (hull, breaks): the records of
    :func:`iter_min_contracts`, each set's minimal payment the left end of
    its stretch.

    Of the sets sharing a left end, the largest f, then the smallest mask,
    stays, so a set touching the envelope in one point gives way to the
    line after it.  ``hull`` lists the masks by left end and ``breaks`` the
    positive left ends: hull[i] is on the envelope over [breaks[i-1],
    breaks[i]], and hull[bisect_right(breaks, alpha)] is the best response
    at alpha, the larger f winning at a breakpoint, so hull[i] is the one
    chosen on [breaks[i-1], breaks[i]).  With a ``budget`` B the hull ends
    at B: its last stretch is the one starting at or below B.
    """
    f = inst.table
    best: dict[Fraction, int] = {}
    for mask, tn, td, _ in iter_min_contracts(inst, budget=budget):
        alpha = Fraction(tn, td)
        kept = best.get(alpha)  # masks ascend: a tie in f keeps the first
        if kept is None or f[mask] > f[kept]:
            best[alpha] = mask
    ends = sorted(best)
    return [best[alpha] for alpha in ends], ends[1:]


def iter_min_contracts(inst: Instance, *, budget: Optional[Fraction] = None):
    """Yield a record (mask, tn, td, paid) for every incentivizable profile
    of an instance carrying its value table, in ascending mask order: the
    profile's bitmask, its minimal payments' total tn / td, and ``paid``,
    a list of (agent, dc, df) for each paid agent, alpha_i = dc * f_den /
    (df * c_den).  :func:`contract_of` makes the ``Contract`` of ``paid``.

    The payments of :func:`min_incentivizing_contract`, found agent by
    agent from upper envelopes.  Against a fixed rest R = S - T_i, agent
    i's utility from deviation d is the line alpha * f(R + d) - c(d), and
    S_i is kept at alpha exactly where its line is on the upper envelope
    of all 2^|T_i| lines; the minimal payment is the left end of that
    stretch on alpha >= 0.  A deviation d' costing no more and worth no
    less than d bounds alpha at least as tightly as d does at every
    alpha >= 0, so only the staircase of deviations whose f strictly
    rises with cost matters, and of it only the envelope neighbours of
    S_i bind: the one before it sets the payment, read off the two lines.
    A line touching the envelope in a single point (its bounds meet,
    lo = hi) stays admissible.  The agents owning an action go in
    descending order of their action counts, ties by index; one owning
    none is never paid and never blocks.  The first, owning T_max, walks
    2^(m - |T_max|) rests of 2^|T_max| reads each, and each later one
    reads f(R + d) once per rest of the profiles still standing, at most
    n * 2^m table reads in all, where pricing each profile alone reads
    2^m * sum_i 2^|T_i|.

    Costs are not negative, so the empty deviation is in every agent's
    cheapest run: the first record is (0, 0, c_den, []) under any B >= 0.

    A ``budget`` B drops the profiles whose payments sum above it, and
    both walks stop at B * spread, spread = max f - min f whatever the
    signs of values, as the oracle states it (``RewardOracle.spread``, no
    pass over the table for a monotone f).  Agent j kept on S at alpha_j
    prefers S_j to doing nothing, alpha_j * (f(S) - f(S - T_j)) >= c(S_j),
    so c(S_j) <= alpha_j * spread; summed over the agents but the first,
    its rests R have c(R) <= B * spread.  Each agent reads only the
    deviations d with c(d) <= B * spread: for 0 <= alpha <= B a dearer d's
    line is below the empty deviation's, alpha * f(R + d) - c(d) < alpha *
    (f(R + d) - spread) <= alpha * f(R).  On [0, B] the envelope and the
    lines reaching it stay as they were, and so does each stretch starting
    at or below B: payments up to B are unchanged.

    Values are the table's ints as filled.  An agent's deviations in
    ascending cost (:func:`rewards.cost_runs`) are the instance's
    ``agent_cost_runs``, sorted once, or under a budget only those within
    the cut (:func:`rewards.submask_sums_upto`), sorted per walk.  The
    budget is tested on the payment pairs, and no Fraction is made.
    """
    own_masks = inst.agent_masks
    f, f_den = inst.table, inst.oracle.den
    if f is None:
        raise ModelError("no value table on the instance: fill it with "
                         "rewards.with_table")
    c_int, c_den = inst.int_costs
    everything = (1 << inst.num_actions) - 1
    agents = sorted((i for i, own in enumerate(own_masks) if own),
                    key=lambda i: -own_masks[i].bit_count())
    # a payment (dc, df) is alpha_i = dc * f_den / (df * c_den); payments
    # are nonnegative, so none of a budget-feasible profile exceeds cap
    if budget is not None:
        cap_n, cap_d = (budget * Fraction(c_den, f_den)).as_integer_ratio()
        # C(d) <= B * spread, at least 0, so each walk keeps d = empty
        limit = max(cap_n, 0) * inst.oracle.spread(f) // cap_d
    kept = None  # the profiles every agent so far is kept on
    pays = []
    for i in agents:
        own = own_masks[i]
        runs = inst.agent_cost_runs[i] if budget is None \
            else cost_runs(submask_sums_upto(own, c_int, limit))
        if kept is not None:
            rests = {mask & ~own for mask in kept}
        elif budget is None:
            rests = submasks(everything & ~own)
        else:
            rests = submask_sums_upto(everything & ~own, c_int, limit)
        pay = _agent_payments(f, runs, rests)
        if budget is not None:
            pay = {k: p for k, p in pay.items() if p[0] * cap_d <= cap_n * p[1]}
        kept = sorted(pay) if kept is None else [k for k in kept if k in pay]
        pays.append(pay)
    for mask in submasks(everything) if kept is None else kept:
        paid = []
        num, den = 0, 1  # sum of the paid dc / df
        for i, pay in zip(agents, pays):
            dc, df = pay[mask]
            if dc:
                paid.append((i, dc, df))
                num, den = num * df + dc * den, den * df
        if budget is None or num * cap_d <= cap_n * den:
            yield mask, num * f_den, den * c_den, paid


def contract_of(inst: Instance, paid: Iterable[tuple[int, int, int]]
                ) -> Contract:
    """The ``Contract`` of a record's ``paid`` (:func:`iter_min_contracts`):
    alpha_i = dc * f_den / (df * c_den), every other agent unpaid."""
    f_den, c_den = inst.oracle.den, inst.int_costs[1]
    alpha = [ZERO] * inst.num_agents
    for i, dc, df in paid:
        alpha[i] = Fraction(dc * f_den, df * c_den)
    return Contract(tuple(alpha))


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
    """Weak Nash check under a general (success/failure payment) contract.

    Agent i's utility t0 + (t1 - t0) * f - c moves from one deviation to
    another only by (t1 - t0) * f - c, so t0 drops out and this is
    :func:`nash_violator` at the slopes t1 - t0, which may be negative.
    """
    return nash_violator(inst, [t1 - t0 for t0, t1 in zip(
        contract.pay_on_failure, contract.pay_on_success)], profile) is None
