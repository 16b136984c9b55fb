"""Best responses, Nash equilibria, subset stability, contract transforms,
and the minimal-contract algebra.

Equilibrium checks use weak inequalities throughout: an agent indifferent
between the prescribed actions and a deviation counts as best-responding,
matching the knife-edge equalities that minimal incentivizing contracts
produce.  The exhaustive checks share one walk over an agent's deviations
(:func:`_deviations`) and differ only in utility and tie rule.  All
functions are pure; ``table`` arguments accept a full value table (bitmask
order) as an algorithm-side cache, and without one every value read is one
value query (:func:`rewards.value_view`).

The minimal-contract algebra is :func:`_min_payments`, the per-agent
bounds for one profile.  :func:`iter_min_contracts` runs it over many
profiles on integers over a common denominator;
:func:`min_incentivizing_contract` runs it once, on the Fractions it reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from budgetcontracts.core import (
    ActionProfile,
    Contract,
    GeneralContract,
    Instance,
    ZERO,
    check_enumeration,
    cost,
)
from budgetcontracts.rewards import PriceVector, common_denominator, \
    demand_with_base, lex_key, mask_to_set, scaled_ints, set_to_mask, \
    submask_sums, submasks, value_view


def _check_walks(inst: Instance, within: Optional[frozenset[int]] = None) -> None:
    """Refuse before any read if one agent's walk, over T_i or over
    T_i & ``within``, is too long."""
    sizes = [len(t if within is None else t & within) for t in inst.agent_actions]
    check_enumeration(max(sizes, default=0), "one agent's deviations")


def _deviations(inst: Instance, f, agent: int, s: int, *, shrink: bool = False):
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
    return costs[s_i], ((dev, f[dev | rest], c) for dev, c in costs.items())


def agent_utility(inst: Instance, alpha: Contract, profile: Iterable[int],
                  agent: int, *, table: Optional[Sequence[Fraction]] = None) -> Fraction:
    """alpha_i * f(S) - c(S_i)."""
    s = frozenset(profile)
    f_s = value_view(inst.oracle, table)[set_to_mask(s)]
    return alpha[agent] * f_s - cost(inst, inst.agent_part(s, agent))


def best_response(inst: Instance, agent: int, alpha_i: Fraction,
                  s_minus_i: Iterable[int], *, gs: Optional[bool] = None,
                  table: Optional[Sequence[Fraction]] = None) -> frozenset[int]:
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
                                  table=table)
        return result - s_other
    check_enumeration(len(own), "one agent's deviations")
    _, walk = _deviations(inst, value_view(inst.oracle, table), agent,
                          set_to_mask(s_other))
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


def is_nash(inst: Instance, alpha: Contract, profile: Iterable[int], *,
            table: Optional[Sequence[Fraction]] = None) -> NeCertificate:
    """Check the weak Nash condition by per-agent enumeration of deviations.

    f(S) is read once for all agents, so without a table the check issues
    1 + sum_i 2^|T_i| value queries.
    """
    _check_walks(inst)
    s = frozenset(profile)
    mask = set_to_mask(s)
    f = value_view(inst.oracle, table)
    f_s = f[mask]
    utilities = []
    best_devs = []
    violator = None
    for i in range(inst.num_agents):
        c_i, walk = _deviations(inst, f, i, mask)
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


def ne_from_demand(inst: Instance, alpha: Contract, *, gs: Optional[bool] = None,
                   table: Optional[Sequence[Fraction]] = None) -> frozenset[int]:
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
                            (), gs=gs, table=table)


def is_subset_stable(inst: Instance, alpha: Contract, profile: Iterable[int], *,
                     table: Optional[Sequence[Fraction]] = None):
    """Check stability against own-subset deviations only.

    Returns (ok, witness) with witness = (agent, subset) for the first
    profitable shrink found.
    """
    profile = frozenset(profile)
    _check_walks(inst, profile)
    s = set_to_mask(profile)
    f = value_view(inst.oracle, table)
    f_s = f[s]
    for i in range(inst.num_agents):
        c_i, walk = _deviations(inst, f, i, s, shrink=True)
        u_i = alpha[i] * f_s - c_i
        for dev, f_dev, c in walk:
            if alpha[i] * f_dev - c > u_i:
                return False, (i, mask_to_set(dev))
    return True, None


def doubling_epsilon(budget: Fraction, num_agents: int) -> Fraction:
    """Default per-agent bump for the doubling transform: B / (4n)."""
    return Fraction(budget, 4 * num_agents)


def double_contract(inst: Instance, alpha: Contract, epsilon: Fraction, *,
                    gs: Optional[bool] = None,
                    table: Optional[Sequence[Fraction]] = None):
    """The doubled contract 2*alpha + epsilon and one equilibrium of it.

    For submodular f and a subset-stable (alpha, S), every equilibrium of
    the returned contract retains at least half of f(S).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    doubled = alpha.scale(Fraction(2)).add_everyone(epsilon)
    profile = ne_from_demand(inst, doubled, gs=gs, table=table)
    return doubled, profile


def min_incentivizing_contract(inst: Instance, profile: Iterable[int], *,
                               table: Optional[Sequence[Fraction]] = None
                               ) -> Optional[Contract]:
    """The cheapest contract making ``profile`` a weak Nash equilibrium.

    Per agent, each deviation S' with f(S) > f(S' + S_-i) forces
    alpha_i >= (c(S_i) - c(S')) / (f(S) - f(S' + S_-i)), and each deviation
    with f(S) < f(S' + S_-i) caps alpha_i from above by the same ratio;
    equal-f deviations must not be strictly cheaper.  Returns None when some
    agent's bounds cross (the profile cannot be incentivized at any payment).
    One run of :func:`_min_payments` on the values as read: f(S) first,
    then each agent's deviations until the profile fails, so without a
    table it issues at most 1 + sum_i (2^|T_i| - 1) value queries.
    """
    _check_walks(inst)
    own_masks = [set_to_mask(t) for t in inst.agent_actions]
    own_costs = [submask_sums(om, inst.cost_of) for om in own_masks]
    entries = _min_payments(value_view(inst.oracle, table), set_to_mask(profile),
                            range(inst.num_agents), own_masks, own_costs, None)
    return None if entries is None else Contract(tuple(Fraction(*e) for e in entries))


def _min_payments(f: Mapping[int, int | Fraction], mask: int,
                  agents: Iterable[int], own_masks: Sequence[int],
                  own_costs: Sequence[dict], budget: Optional[Fraction]
                  ) -> Optional[list[tuple]]:
    """Each agent's minimal payment for the profile ``mask``, or None.

    ``f[mask]`` and ``own_costs[i][dev]`` (every subset of agent i's
    actions ``own_masks[i]``, ascending) are exact numbers on one scale:
    ints over a common denominator or plain Fractions; each bound is a
    ratio of their differences, so the scale cancels.  Returns one
    (numerator, positive denominator) pair per agent, (0, 1) for agents
    outside ``agents``.  None when an equal-f deviation is strictly
    cheaper, when an agent's bounds cross, or when the payment so far
    exceeds ``budget`` (payments are nonnegative).  Reads f(S) first and
    stops at the first failure.
    """
    entries = [(0, 1)] * len(own_masks)
    total_n, total_d = 0, 1  # the payment so far, kept off Fraction
    f_s = f[mask]
    for i in agents:
        om = own_masks[i]
        costs = own_costs[i]
        s_i = mask & om
        rest = mask & ~om
        c_i = costs[s_i]
        lo_n, lo_d = 0, 1
        hi = None  # (numerator, positive denominator)
        for dev, c in costs.items():
            if dev == s_i:
                continue
            df = f_s - f[rest | dev]
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
        if budget is not None and lo_n:
            total_n, total_d = total_n * lo_d + lo_n * total_d, total_d * lo_d
            if total_n * budget.denominator > budget.numerator * total_d:
                return None
        entries[i] = (lo_n, lo_d)
    return entries


def iter_min_contracts(inst: Instance, table: Sequence[Fraction], *,
                       within: Optional[int] = None,
                       budget: Optional[Fraction] = None):
    """Yield (profile mask, minimal incentivizing Contract) for every
    incentivizable profile, in ascending mask order.

    The minimal-contract algebra of :func:`min_incentivizing_contract`
    over many profiles: :func:`_min_payments` per profile, on the table
    entries and costs scaled to integers over one common denominator
    (Python ints are exact at any size).  ``within`` (a bitmask) restricts
    the profiles to its submasks, still in ascending order; an agent
    owning none of its actions is then unpaid and skipped, unless one of
    its costs is negative.  ``budget`` prunes profiles whose partial
    payment already exceeds it.
    """
    m = inst.num_actions
    n = inst.num_agents
    own_masks = [set_to_mask(inst.agent_actions[i]) for i in range(n)]
    costs = [inst.cost_of[a] for a in range(m)]
    if within is None:
        profiles = reads = range(1 << m)
        agents = range(n)
    else:
        profiles = submasks(within)
        # An agent with no action in ``within`` acts in no profile; if none
        # of its costs is negative, every deviation only adds cost, so its
        # bounds are lo = 0 <= hi: it is never paid and never blocks.
        agents = [i for i in range(n) if own_masks[i] & within
                  or any(costs[a] < 0 for a in inst.agent_actions[i])]
        # the table entries read: profiles and the agents' deviations
        reads = set(profiles).union(
            *(submasks(within | own_masks[i]) for i in agents))
    values = {k: table[k] for k in reads}
    den = common_denominator([*values.values(), *costs])
    f_int = dict(zip(values, scaled_ints(values.values(), den)))
    c_int = scaled_ints(costs, den)
    own_costs = [submask_sums(om, c_int) for om in own_masks]
    for mask in profiles:
        entries = _min_payments(f_int, mask, agents, own_masks, own_costs, budget)
        if entries is not None:
            yield mask, Contract(tuple(Fraction(*e) for e in entries))


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
                    profile: Iterable[int], *,
                    table: Optional[Sequence[Fraction]] = None) -> bool:
    """Weak Nash check under a general (success/failure payment) contract."""
    _check_walks(inst)
    s = set_to_mask(profile)
    f = value_view(inst.oracle, table)

    def utility(i: int, f_dev: Fraction, c: Fraction) -> Fraction:
        t0 = contract.pay_on_failure[i]
        t1 = contract.pay_on_success[i]
        return t1 * f_dev + t0 * (1 - f_dev) - c

    f_s = f[s]
    for i in range(inst.num_agents):
        c_i, walk = _deviations(inst, f, i, s)
        u_i = utility(i, f_s, c_i)
        for _, f_dev, c in walk:
            if utility(i, f_dev, c) > u_i:
                return False
    return True
