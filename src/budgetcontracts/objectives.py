"""Objectives over (contract, profile) pairs and the sandwich-property verifier.

Built-ins: profit (1 - sum alpha) * f(S), reward f(S), welfare f(S) - c(S),
and convex combinations of these, each valued by the integer form in
``Objective.weights``.  Welfare can be negative for profiles a caller
supplies by hand; it is reported as-is.  Solvers only evaluate it on
incentivizable prefixes, where it is nonnegative.  The verifier checks an
int contract pool on ints and makes a ``Contract`` only for a counterexample.
"""

from __future__ import annotations

import functools
import itertools
import math
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
    check_contract,
    check_enumeration,
    descriptor_field,
    exact_rational,
    format_rational,
)
from budgetcontracts.equilibria import iter_min_contracts
from budgetcontracts.rewards import mask_to_set, set_to_mask, subset_sums, \
    with_table


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
            if sum(w for w, _ in self.terms) != 1:
                raise ModelError("combo weights must sum to exactly 1")

    @functools.cached_property
    def weights(self) -> tuple[int, int, int]:
        """(pn, wn, d): at total payment t = tn / td the value times d * td
        is (d * td - pn * tn) * f(S) - wn * td * c(S), all ints, d = 1 for
        the pure kinds; a combo weights its terms' pairs (pn / d, wn / d)."""
        if self.kind != "combo":
            return {"profit": (1, 0, 1), "reward": (0, 0, 1),
                    "welfare": (0, 1, 1)}[self.kind]
        p, w = (sum(x * Fraction(o.weights[k], o.weights[2]) for x, o in self.terms)
                for k in (0, 1))
        d = math.lcm(p.denominator, w.denominator)
        return int(p * d), int(w * d), d

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
    ints: :func:`value_at` on F(S) * c_den and C(S) * f_den, over f_den * c_den."""
    check_contract(inst, alpha)
    s = frozenset(profile)
    (f, f_den), (c_int, c_den) = inst.scaled_f, inst.int_costs
    f_s = f(inst.mask_of(s))
    c_s = sum(c_int[a] for a in s) if obj.weights[1] else 0
    return Fraction(value_at(obj, alpha.total(), f_s * c_den, c_s * f_den),
                    f_den * c_den)


def value_at(obj: Objective, paid, f_s, c_s):
    """obj at total payment ``paid`` from f(S) and c(S), by
    ``Objective.weights`` (pn, wn, d): ((d - pn * paid) * f(S) - wn * c(S))
    / d.  Linear in (f(S), c(S)): both times one scale give the value times it."""
    pn, wn, d = obj.weights
    v = (d - pn * paid) * f_s if pn else d * f_s
    v = v - wn * c_s if wn else v
    return v if d == 1 else Fraction(v, d)


@dataclass(frozen=True)
class BestPropertyReport:
    """Outcome of checking the four defining properties of a BEST objective."""

    passed: bool
    checks: int
    results: dict[str, tuple[bool, Optional[tuple]]]


def _participation_test(inst: Instance, fs: list[int], cs: list[int],
                        a: tuple, q: int) -> Callable[[int], bool]:
    """Whether, at the profile of a bitmask, every agent weakly prefers its
    prescribed actions to quitting under alpha_i = a[i] / q: a[i] *
    (fs[S] - fs[S - T_i]) >= q * cs[S_i] for each agent acting in S, on
    the verifier's tables of f and c by mask over one scale."""
    terms = tuple(zip(inst.agent_masks, a))

    def holds(mask: int) -> bool:
        f_s = fs[mask]
        for own, x in terms:
            s_i = mask & own
            if s_i and x * (f_s - fs[mask - s_i]) < q * cs[s_i]:
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
    grid itself is never built.  The pool holds ints, an entry (a, q)
    paying alpha_i = a[i] / q: a grid point over the denominator, a minimal
    contract over the lcm of its paid agents' payment denominators.  Every
    check compares ints on the scale f_den * c_den by ``Objective.weights``,
    and only a recorded counterexample becomes a ``Contract``.
    """
    n, m = inst.num_agents, inst.num_actions
    check_enumeration(m, "verification grid", GS_TESTER_LIMIT)
    if denominator < 1:
        raise ModelError(f"grid denominator must be >= 1, got {denominator}")
    if sample_budget is not None and sample_budget < 1:
        raise ModelError(f"sample budget must be >= 1, got {sample_budget}")
    inst = with_table(inst)
    masks = [set_to_mask(c) for r in range(m + 1)
             for c in itertools.combinations(range(m), r)]
    rng, top = random.Random(seed), denominator + 1
    grid = itertools.product(range(top), repeat=n) if top ** n <= 4096 else (
        tuple(rng.randrange(top) for _ in range(n)) for _ in range(4096))
    pool = [(t, denominator) for t in grid]
    # in the profiles' order, which rng.sample reads: alpha_i = dc f_den / (df c_den)
    (c_int, c_den), f_den = inst.int_costs, inst.oracle.den
    priced = {mask: paid for mask, _, _, paid in iter_min_contracts(inst)}
    for paid in (priced[mask] for mask in masks if mask in priced):
        q = math.lcm(*(df * c_den for _, _, df in paid))
        a = {i: dc * f_den * (q // (df * c_den)) for i, dc, df in paid}
        pool.append((tuple(a.get(i, 0) for i in range(n)), q))
    pool = [(a, q) for a, q in pool if sum(a) <= q]
    if sample_budget is not None and len(pool) * len(masks) > sample_budget:
        keep = max(1, sample_budget // len(masks))
        pool = random.Random(seed + 1).sample(pool, min(keep, len(pool)))

    # f and c by mask on one scale, f_den * c_den: at alpha = a / q the
    # objective times d * q is k * fs[S] - wq * cs[S], k = d * q - pn * sum(a)
    fs = [v * c_den for v in inst.table]
    cs = [c * f_den for c in subset_sums(c_int)]
    pn, wn, d = obj.weights
    # each property keeps its first counterexample and is not checked again
    results: dict[str, tuple[bool, Optional[tuple]]] = dict.fromkeys(
        ("sandwich", "decompose", "monotone-S", "antitone-alpha"), (True, None))
    checks = 0

    def found(a: tuple, q: int, mask: int, *at: int) -> tuple:  # the one Contract
        return False, (Contract(tuple(Fraction(x, q) for x in a)),
                       mask_to_set(mask), *at)

    # the objective reads a contract through its total alone: alpha|_i pays
    # a[i] / q, and raising any one entry by 1/denominator pays (total *
    # denominator + q) / (q * denominator), agent 0 the first counterexample
    for a, q in pool:
        total, dq, wq = sum(a), d * q, wn * q
        k, up_k = dq - pn * total, dq * denominator - pn * (total * denominator + q)
        bumps = n > 0 and total * denominator + q <= q * denominator
        for mask in filter(_participation_test(inst, fs, cs, a, q), masks):
            checks += 1
            f_s = fs[mask]
            phi = k * f_s - wq * cs[mask]
            if results["sandwich"][0] and not d * (q - total) * f_s <= phi <= dq * f_s:
                results["sandwich"] = found(a, q, mask)
            if results["decompose"][0]:
                for i, own in enumerate(inst.agent_masks):
                    s_i = mask & own
                    if phi > dq * fs[mask - s_i] + (dq - pn * a[i]) * fs[s_i] \
                            - wq * cs[s_i]:
                        results["decompose"] = found(a, q, mask, i)
                        break
            if results["monotone-S"][0]:
                for b in range(m):
                    more = mask | 1 << b
                    if more != mask and phi > k * fs[more] - wq * cs[more] and \
                            a[inst.owner_of[b]] * (fs[more] - f_s) >= q * cs[1 << b]:
                        results["monotone-S"] = found(a, q, mask, b)
                        break
            if results["antitone-alpha"][0] and bumps and up_k * f_s \
                    - wq * denominator * cs[mask] > phi * denominator:
                results["antitone-alpha"] = found(a, q, mask, 0)
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
