"""Objectives over (contract, profile) pairs and the sandwich-property verifier.

Built-ins: profit (1 - sum alpha) * f(S), reward f(S), welfare f(S) - c(S),
and convex combinations of these.  Welfare can be negative for profiles a
caller supplies by hand; it is reported as-is.  Solvers only evaluate it on
incentivizable prefixes, where it is nonnegative.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional

from budgetcontracts.core import (
    Contract,
    GS_TESTER_LIMIT,
    Instance,
    ModelError,
    SchemaError,
    ZERO,
    check_enumeration,
    descriptor_field,
    exact_rational,
    format_rational,
)
from budgetcontracts.equilibria import contract_of, iter_min_contracts
from budgetcontracts.rewards import set_to_mask, subset_sums, with_table


@dataclass(frozen=True)
class Objective:
    kind: str  # "profit" | "reward" | "welfare" | "combo"
    terms: tuple[tuple[Fraction, "Objective"], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("profit", "reward", "welfare", "combo"):
            raise ModelError(f"unknown objective kind {self.kind!r}")
        if self.kind == "combo":
            object.__setattr__(self, "terms", tuple(
                (exact_rational(w), o) for w, o in self.terms))
            if not self.terms:
                raise ModelError("combo objective needs at least one term")
            if any(w <= 0 for w, _ in self.terms):
                raise ModelError("combo weights must be > 0")
            if sum((w for w, _ in self.terms), ZERO) != 1:
                raise ModelError("combo weights must sum to exactly 1")

    @functools.cached_property
    def weights(self) -> tuple[Fraction | int, Fraction | int]:
        """(p, w) with value (1 - p * t) * f(S) - w * c(S) at total payment
        t: ints for the pure kinds, each combo term's pair weighted."""
        if self.kind != "combo":
            return {"profit": (1, 0), "reward": (0, 0), "welfare": (0, 1)}[self.kind]
        return tuple(sum(w * o.weights[k] for w, o in self.terms)
                     for k in (0, 1))

    def __str__(self) -> str:
        if self.kind != "combo":
            return self.kind
        return "+".join(f"{w}*{o}" for w, o in self.terms)


PROFIT = Objective("profit")
REWARD = Objective("reward")
WELFARE = Objective("welfare")


def combo(*terms: tuple[Fraction | str | int, Objective]) -> Objective:
    """A convex combination; each weight is an exact rational, a "p/q"
    string or an int (a float or a bool raises ``RationalParseError``)."""
    return Objective("combo", terms)


def evaluate(obj: Objective, inst: Instance, alpha: Contract,
             profile: Iterable[int]) -> Fraction:
    """obj at (alpha, S): f(S) read once, c(S) summed once if needed, as
    ints: :func:`value_at` on F(S) * c_den and C(S) * f_den, divided once."""
    s = frozenset(profile)
    f, f_den = inst.scaled_f
    c_int, c_den = inst.int_costs
    f_s = f(inst.mask_of(s))
    c_s = sum(c_int[a] for a in s) if obj.weights[1] else 0
    return Fraction(value_at(obj, alpha.total(), f_s * c_den, c_s * f_den),
                    f_den * c_den)


def value_at(obj: Objective, paid, f_s, c_s):
    """obj at total payment ``paid`` from f(S) and c(S), by
    ``Objective.weights``: (1 - p * paid) * f(S) - w * c(S).  Linear in
    (f(S), c(S)): both times one positive scale give the value times it."""
    p, w = obj.weights
    v = (1 - p * paid) * f_s if p else f_s
    return v - w * c_s if w else v


@dataclass(frozen=True)
class BestPropertyReport:
    """Outcome of checking the four defining properties of a BEST objective."""

    passed: bool
    checks: int
    results: dict[str, tuple[bool, Optional[tuple]]]


def _participation_test(inst: Instance, alpha: Contract) -> Callable[[int], bool]:
    """Whether, at the profile of a bitmask, every agent weakly prefers its
    prescribed actions to quitting: alpha_i * (f(S) - f(S - T_i)) >= c(S_i)
    for each agent acting in S.

    For alpha_i = p/q this is p * c_den * (F_S - F_{S - T_i}) >=
    q * f_den * C(S_i), on the ints of ``Instance.scaled_f`` and
    ``Instance.agent_cost_sums``, with p * c_den and q * f_den made once.
    """
    (f, f_den), c_den = inst.scaled_f, inst.int_costs[1]
    terms = [(own, a.numerator * c_den, a.denominator * f_den, costs)
             for own, a, costs in zip(inst.agent_masks, alpha.alpha, inst.agent_cost_sums)]

    def holds(mask: int) -> bool:
        f_s = f(mask)
        for own, p, q, costs in terms:
            if mask & own and p * (f_s - f(mask & ~own)) < q * costs[mask & own]:
                return False
        return True
    return holds


def verify_best_properties(obj: Objective, inst: Instance, *,
                           denominator: int = 8,
                           sample_budget: Optional[int] = None,
                           seed: int = 0) -> BestPropertyReport:
    """Falsification harness for the four BEST-objective properties.

    Checks, over an alpha grid (per-agent multiples of 1/denominator plus
    every minimal incentivizing contract, priced in one
    :func:`equilibria.iter_min_contracts` pass and pooled in the profiles'
    size-then-combination order) and all profiles:

    1. sandwich:   profit <= objective <= reward,
    2. decompose:  obj(alpha, S) <= f(S_-i) + obj(alpha|_i, S_i),
    3. monotone-S: adding an action never decreases the objective,
    4. antitone-a: raising any single payment never increases it.

    The quantification domain is the one the theory actually uses: total
    payment at most 1, and profiles every agent weakly prefers to quitting
    (summing participation gives payment * f >= cost, which is exactly what
    puts welfare above profit; at zero payment a costly profile would break
    the sandwich pointwise).  Monotone-S additions are further restricted
    to actions the owner's payment incentivizes (alpha_i * f(a|S) >= c_a),
    the form in which the downsizing machinery invokes the property; a
    costless counterexample like an unpaid agent forced into a costly
    action is outside every use the guarantees make.

    ``sample_budget`` (at least 1) caps the number of (contract, profile)
    pairs; beyond it the contract pool is subsampled deterministically.
    The profit property set assumes a subadditive f.  The instance's value
    table is filled (2^m value queries, none if it carries one) once the
    arguments pass their checks, and every read of f goes through it.
    Above 4096 grid contracts, 4096 are drawn one level at a time, so the
    grid itself is never built.
    """
    n = inst.num_agents
    m = inst.num_actions
    check_enumeration(m, "verification grid", GS_TESTER_LIMIT)
    if denominator < 1:
        raise ModelError(f"grid denominator must be >= 1, got {denominator}")
    if sample_budget is not None and sample_budget < 1:
        raise ModelError(f"sample budget must be >= 1, got {sample_budget}")
    inst = with_table(inst)
    profiles = [frozenset(c) for r in range(m + 1)
                for c in itertools.combinations(range(m), r)]
    masks = list(map(set_to_mask, profiles))
    step = Fraction(1, denominator)
    if (denominator + 1) ** n <= 4096:
        levels = [Fraction(k, denominator) for k in range(denominator + 1)]
        contracts = [Contract(t) for t in itertools.product(levels, repeat=n)]
    else:
        rng = random.Random(seed)
        contracts = [Contract(tuple(Fraction(rng.randrange(denominator + 1),
                                             denominator) for _ in range(n)))
                     for _ in range(4096)]
    # pooled in the profiles' order, which rng.sample below reads
    priced = {mask: paid for mask, _, _, paid in iter_min_contracts(inst)}
    contracts += [contract_of(inst, priced[mask]) for mask in masks
                  if mask in priced]
    contracts = [c for c in contracts if c.total() <= 1]
    if sample_budget is not None and len(contracts) * len(profiles) > sample_budget:
        rng = random.Random(seed + 1)
        keep = max(1, sample_budget // len(profiles))
        contracts = rng.sample(contracts, min(keep, len(contracts)))

    # f and c by mask on one scale, f_den * c_den: value_at(obj, t,
    # fs[S], cs[S]) is the objective at (alpha, S) times it, t = alpha's
    # total
    c_int, c_den = inst.int_costs
    fs = [v * c_den for v in inst.table]
    cs = [c * inst.oracle.den for c in subset_sums(c_int)]
    # each property keeps its first counterexample and is not checked again
    results: dict[str, tuple[bool, Optional[tuple]]] = dict.fromkeys(
        ("sandwich", "decompose", "monotone-S", "antitone-alpha"), (True, None))
    checks = 0

    # the objective reads a contract through its total alone: alpha|_i
    # pays alpha_i, and raising any one entry by step pays the total plus
    # step, so agent 0 is the first counterexample to antitone-alpha
    for alpha in contracts:
        total = alpha.total()
        unpaid, up_total = 1 - total, total + step
        bumps = n > 0 and up_total <= 1
        participates = _participation_test(inst, alpha)
        for s, mask in zip(profiles, masks):
            if not participates(mask):
                continue
            checks += 1
            f_s = fs[mask]
            phi = value_at(obj, total, f_s, cs[mask])
            if results["sandwich"][0] and not (unpaid * f_s <= phi <= f_s):
                results["sandwich"] = (False, (alpha, s))
            if results["decompose"][0]:
                for i, own in enumerate(inst.agent_masks):
                    s_i = mask & own
                    if phi > fs[mask & ~own] + value_at(
                            obj, alpha[i], fs[s_i], cs[s_i]):
                        results["decompose"] = (False, (alpha, s, i))
                        break
            if results["monotone-S"][0]:
                for a in range(m):
                    more = mask | 1 << a
                    if more == mask or alpha[inst.owner_of[a]] * (
                            fs[more] - f_s) < cs[1 << a]:
                        continue
                    if phi > value_at(obj, total, fs[more], cs[more]):
                        results["monotone-S"] = (False, (alpha, s, a))
                        break
            if results["antitone-alpha"][0] and bumps and value_at(
                    obj, up_total, f_s, cs[mask]) > phi:
                results["antitone-alpha"] = (False, (alpha, s, 0))
    passed = all(ok for ok, _ in results.values())
    return BestPropertyReport(passed, checks, results)


def objective_from_spec(spec: Mapping | str) -> Objective:
    """A name, or a descriptor {"type": ...}; a combo lists its "terms" as
    [weight, objective] pairs.  A descriptor of the wrong shape raises
    ``SchemaError``."""
    if isinstance(spec, str):
        return Objective(spec)
    if not isinstance(spec, Mapping):
        raise SchemaError(f"objective descriptor must be an object, got {spec!r}")
    kind = spec.get("type")
    if kind in ("profit", "reward", "welfare"):
        return Objective(kind)
    if kind == "combo":
        terms = descriptor_field(spec, "terms", list)
        if not all(isinstance(t, list) and len(t) == 2 for t in terms):
            raise SchemaError("combo descriptor terms must be [weight, objective] pairs")
        return Objective("combo", tuple(
            (w, objective_from_spec(o)) for w, o in terms))
    raise ModelError(f"unknown objective descriptor: {kind!r}")


def objective_to_spec(obj: Objective) -> dict:
    if obj.kind != "combo":
        return {"type": obj.kind}
    return {"type": "combo",
            "terms": [[format_rational(w), objective_to_spec(o)]
                      for w, o in obj.terms]}
