"""Objectives over (contract, profile) pairs and the sandwich-property verifier.

Built-ins: profit (1 - sum alpha) * f(S), reward f(S), welfare f(S) - c(S),
and convex combinations of these.  Welfare can be negative for profiles a
caller supplies by hand; it is reported as-is.  Solvers only evaluate it on
incentivizable prefixes, where it is nonnegative.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from budgetcontracts.core import (
    Contract,
    GS_TESTER_LIMIT,
    Instance,
    ModelError,
    SchemaError,
    ZERO,
    check_enumeration,
    cost,
    descriptor_field,
    format_rational,
    parse_rational,
    restrict_contract,
)
from budgetcontracts.equilibria import min_incentivizing_contract
from budgetcontracts.rewards import set_to_mask, value_table, value_view


@dataclass(frozen=True)
class Objective:
    kind: str  # "profit" | "reward" | "welfare" | "combo"
    terms: tuple[tuple[Fraction, "Objective"], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("profit", "reward", "welfare", "combo"):
            raise ModelError(f"unknown objective kind {self.kind!r}")
        if self.kind == "combo":
            if not self.terms:
                raise ModelError("combo objective needs at least one term")
            if any(w <= 0 for w, _ in self.terms):
                raise ModelError("combo weights must be > 0")
            if sum((w for w, _ in self.terms), ZERO) != 1:
                raise ModelError("combo weights must sum to exactly 1")

    def __str__(self) -> str:
        if self.kind != "combo":
            return self.kind
        return "+".join(f"{w}*{o}" for w, o in self.terms)


PROFIT = Objective("profit")
REWARD = Objective("reward")
WELFARE = Objective("welfare")


def combo(*terms: tuple[Fraction | str | int, Objective]) -> Objective:
    return Objective("combo", tuple((Fraction(w), o) for w, o in terms))


def evaluate(obj: Objective, inst: Instance, alpha: Contract,
             profile: Iterable[int], *,
             table: Optional[Sequence[Fraction]] = None) -> Fraction:
    s = frozenset(profile)
    f_s = value_view(inst.oracle, table)[set_to_mask(s)]
    if obj.kind == "profit":
        return (1 - alpha.total()) * f_s
    if obj.kind == "reward":
        return f_s
    if obj.kind == "welfare":
        return f_s - cost(inst, s)
    return sum((w * evaluate(o, inst, alpha, s, table=table) for w, o in obj.terms),
               ZERO)


@dataclass(frozen=True)
class BestPropertyReport:
    """Outcome of checking the four defining properties of a BEST objective."""

    passed: bool
    checks: int
    results: dict[str, tuple[bool, Optional[tuple]]]

    def counterexample(self) -> Optional[tuple]:
        for name, (ok, info) in self.results.items():
            if not ok:
                return (name,) + (info or ())
        return None


def participation_holds(inst: Instance, alpha: Contract, s: frozenset, val) -> bool:
    """Every agent weakly prefers its prescribed actions to quitting."""
    f_s = val(s)
    for i in range(inst.num_agents):
        s_i = s & inst.agent_actions[i]
        if not s_i:
            continue
        if alpha[i] * f_s - cost(inst, s_i) < alpha[i] * val(s - s_i):
            return False
    return True


def verify_best_properties(obj: Objective, inst: Instance, *,
                           denominator: int = 8,
                           sample_budget: Optional[int] = None,
                           seed: int = 0,
                           table: Optional[Sequence[Fraction]] = None
                           ) -> BestPropertyReport:
    """Falsification harness for the four BEST-objective properties.

    Checks, over an alpha grid (per-agent multiples of 1/denominator plus
    every minimal incentivizing contract) and all profiles:

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

    ``sample_budget`` caps the number of (contract, profile) pairs; beyond
    it the contract pool is subsampled deterministically.  The profit
    property set assumes a subadditive f.  Without ``table``, one value
    table is filled (2^m value queries) once the arguments pass their
    checks, and every read of f goes through it.
    """
    n = inst.num_agents
    m = inst.num_actions
    check_enumeration(m, "verification grid", GS_TESTER_LIMIT)
    if denominator < 1:
        raise ModelError(f"grid denominator must be >= 1, got {denominator}")
    if table is None:
        table = value_table(inst.oracle)
    profiles = [frozenset(c) for r in range(m + 1)
                for c in itertools.combinations(range(m), r)]
    step = Fraction(1, denominator)
    levels = [Fraction(k, denominator) for k in range(denominator + 1)]
    if (denominator + 1) ** n <= 4096:
        contracts = [Contract(t) for t in itertools.product(levels, repeat=n)]
    else:
        rng = random.Random(seed)
        contracts = [Contract(tuple(rng.choice(levels) for _ in range(n)))
                     for _ in range(4096)]
    for s in profiles:
        extra = min_incentivizing_contract(inst, s, table=table)
        if extra is not None:
            contracts.append(extra)
    contracts = [c for c in contracts if c.total() <= 1]
    if sample_budget is not None and len(contracts) * len(profiles) > sample_budget:
        rng = random.Random(seed + 1)
        keep = max(1, sample_budget // len(profiles))
        contracts = rng.sample(contracts, min(keep, len(contracts)))

    f = value_view(inst.oracle, table)
    val = lambda s: f[set_to_mask(s)]
    results: dict[str, tuple[bool, Optional[tuple]]] = {}
    checks = 0

    def fail(name: str, info: tuple) -> None:
        if name not in results or results[name][0]:
            results[name] = (False, info)

    results["sandwich"] = (True, None)
    results["decompose"] = (True, None)
    results["monotone-S"] = (True, None)
    results["antitone-alpha"] = (True, None)

    for alpha in contracts:
        for s in profiles:
            if not participation_holds(inst, alpha, s, val):
                continue
            checks += 1
            phi = evaluate(obj, inst, alpha, s, table=table)
            f_s = val(s)
            profit = (1 - alpha.total()) * f_s
            if results["sandwich"][0] and not (profit <= phi <= f_s):
                fail("sandwich", (alpha, s))
            if results["decompose"][0]:
                for i in range(n):
                    s_i = s & inst.agent_actions[i]
                    rhs = val(s - s_i) + evaluate(
                        obj, inst, restrict_contract(alpha, {i}), s_i, table=table)
                    if phi > rhs:
                        fail("decompose", (alpha, s, i))
                        break
            if results["monotone-S"][0]:
                for a in range(m):
                    if a in s:
                        continue
                    incentive = alpha[inst.owner_of[a]] * (val(s | {a}) - f_s)
                    if incentive < inst.cost_of[a]:
                        continue
                    if phi > evaluate(obj, inst, alpha, s | {a}, table=table):
                        fail("monotone-S", (alpha, s, a))
                        break
            if results["antitone-alpha"][0]:
                for i in range(n):
                    bumped = Contract(tuple(
                        x + step if j == i else x for j, x in enumerate(alpha.alpha)))
                    if bumped.total() > 1:
                        continue
                    if evaluate(obj, inst, bumped, s, table=table) > phi:
                        fail("antitone-alpha", (alpha, s, i))
                        break
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
            (parse_rational(w), objective_from_spec(o)) for w, o in terms))
    raise ModelError(f"unknown objective descriptor: {kind!r}")


def objective_to_spec(obj: Objective) -> dict:
    if obj.kind != "combo":
        return {"type": obj.kind}
    return {"type": "combo",
            "terms": [[format_rational(w), objective_to_spec(o)]
                      for w, o in obj.terms]}
