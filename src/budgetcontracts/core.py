"""Core model types: instances, contracts, action profiles.

Conventions shared by every other module:

* numbers in decision logic are ``fractions.Fraction`` (arbitrary precision,
  canonical reduced form, positive denominator); no floats ever enter a
  comparison,
* agents are ``0 .. num_agents-1``, actions are ``0 .. num_actions-1``, each
  action owned by exactly one agent (agents' action sets are disjoint),
* every action costs at least 0, as in Dütting, Ezra, Feldman and
  Kesselheim's model ("Multi-Agent Contracts"), so the empty set is every
  agent's cheapest deviation; ``Instance`` checks all of this when built,
* an action profile is a plain ``frozenset[int]`` of action ids; the slice
  belonging to agent ``i`` is its intersection with that agent's action set.

All types are immutable after construction and safe to share across
concurrent tasks; the operations here are pure functions.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from budgetcontracts.rewards import RewardOracle

ActionProfile = frozenset[int]

ZERO = Fraction(0)
ONE = Fraction(1)


class ModelError(ValueError):
    """Base class for domain errors raised by this package."""


class DuplicateActionIdError(ModelError):
    pass


class NegativeCostError(ModelError):
    pass


class OracleRangeViolationError(ModelError):
    pass


class UnknownActionIdError(ModelError):
    pass


class UnknownAgentIdError(ModelError):
    pass


class GroundSetTooLargeError(ModelError):
    pass


# The work-limit policy: the most items whose subsets one routine may walk.
ENUM_LIMIT = 20  # value tables, demand, deviations, brute force, GS pipeline, gap
TESTER_LIMIT = 16  # monotone/submodular testers
GS_TESTER_LIMIT = 12  # verify_best_properties, OXS columns
# The most unit agents of the hardness family: 1/C(n, n/2), printed as
# baselineProb, stays below Python's 4300-digit int-to-text limit.
HARDNESS_N_LIMIT = 10000


def check_enumeration(count: int, what: str, limit: int = ENUM_LIMIT) -> None:
    """Refuse the 2^count subsets of ``count`` items above ``limit``; a
    subset walk checks before its first read."""
    if count > limit:
        raise GroundSetTooLargeError(f"{what}: {count} items exceed the limit {limit}")


class RationalParseError(ModelError):
    pass


class SchemaError(ModelError):
    """A JSON document or descriptor without the expected shape."""


def parse_integer(value, where: str) -> int:
    """``value`` as an int: a JSON integer or an integer string."""
    try:
        if isinstance(value, (bool, float)):
            raise TypeError(type(value).__name__)
        return int(value)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where} must be an integer, got {value!r}") from exc


def descriptor_field(spec: Mapping, key: str, kind: type = object):
    """``spec[key]`` of a reward descriptor, or a SchemaError.

    ``kind=int`` applies :func:`parse_integer`; any other ``kind`` must
    match the value's type (``list`` for a JSON array).
    """
    where = f"{spec.get('type')} descriptor field {key!r}"
    if key not in spec:
        raise SchemaError(f"{where} is missing")
    value = spec[key]
    if kind is int:
        return parse_integer(value, where)
    if not isinstance(value, kind):
        raise SchemaError(f"{where} must be a {kind.__name__}, got {value!r}")
    return value


def parse_ratio(text: str | int) -> tuple[int, int]:
    """A "p/q" (or plain integer) string as (p, q) in lowest terms, q > 0.

    A JSON integer is taken exactly; anything else that is not a string,
    floats and booleans included, is rejected.  A plain "p" or "p/q" of
    ASCII digits, p maybe negative, is read by ``int``; any other string
    by ``Fraction``'s parser, which also takes "+", spaces, underscores,
    non-ASCII digits, decimals and exponents.  CPython's int-from-text
    digit limit, when set, bounds both: more digits in a row are refused
    as too long, echoing the text cut, and a text ending in an exponent
    above the limit in absolute value is refused before ``Fraction``
    builds 10^exponent.
    """
    if type(text) is int:
        return text, 1
    limit = sys.get_int_max_str_digits()  # 0, or at least 640
    try:
        num, slash, den = text.partition("/")
        if text.isascii() and num.removeprefix("-").isdigit() and (
                den.isdigit() or not slash):
            p, q = int(num), int(den) if slash else 1
            g = math.gcd(p, q) if q else 0  # q = 0: p // 0 raises
            return p // g, q // g
        exp = re.search(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z", text)  # Fraction's rule
        if not (exp and limit and abs(int(exp[1])) > limit):
            return Fraction(text.strip()).as_integer_ratio()
    except (AttributeError, TypeError, ValueError, ZeroDivisionError) as exc:
        if type(exc) is ValueError and limit and re.search(rf"\d{{{limit + 1}}}", text):
            raise RationalParseError(f"rational too long to parse: more than {limit} "
                                     f"digits in a row in {text[:40]!r}...") from exc
        raise RationalParseError(f"not a valid rational: {text!r}") from exc
    raise RationalParseError(f"rational exponent above {limit} in absolute "
                             f"value: {text[:40]!r}")


def parse_rational(text: str | int) -> Fraction:
    """:func:`parse_ratio`'s (p, q) as a Fraction."""
    return Fraction(*parse_ratio(text))


def exact_rational(value) -> Fraction:
    """``value`` as an exact rational for a library constructor: a Fraction
    as it is, else by the rule of :func:`parse_rational`, so a float or a
    bool raises ``RationalParseError``."""
    return value if isinstance(value, Fraction) else parse_rational(value)


def as_fractions(ints: Sequence[int], den: int) -> list[Fraction]:
    """``[Fraction(k, den) for k in ints]``, one Fraction per distinct k."""
    made = {k: Fraction(k, den) for k in set(ints)}
    return list(map(made.__getitem__, ints))


def format_rational(value: Fraction) -> str:
    """Serialize a rational as a "p/q" string (integers stay bare); a part
    over CPython's int-to-text digit limit raises ``ModelError``."""
    try:
        return str(value)
    except ValueError as exc:
        raise ModelError("rational too long to print: more than "
                         f"{sys.get_int_max_str_digits()} digits") from exc


@dataclass(frozen=True)
class Action:
    """A single costly action with a global id and an owning agent."""

    action_id: int
    owner: int
    cost: Fraction


@dataclass(frozen=True)
class Instance:
    """A contract-design instance: agents, owned actions, reward oracle.

    ``agent_actions[i]`` is agent ``i``'s action set T_i and
    ``agent_masks[i]`` its bitmask; ``ground_set`` is the disjoint union of
    all of them.  ``table``, when present, is f * ``oracle.den`` as a
    plain list of ints in bitmask order (``rewards.with_table`` fills it
    on a copy, keeping the checks and cost caches, which read no f);
    ``scaled_f`` reads it, and without one the oracle's counted read.
    Construction checks, in this order: at least one agent, no duplicate
    id, owners in range, costs >= 0, ids exactly 0..m-1, oracle width m;
    each oracle family checks f(empty) = 0 and values in [0, 1] when built.
    """

    num_agents: int
    actions: tuple[Action, ...]
    oracle: "RewardOracle"
    table: Optional[list[int]] = field(default=None, repr=False,
                                       compare=False)
    owner_of: dict[int, int] = field(init=False, repr=False, compare=False)
    cost_of: dict[int, Fraction] = field(init=False, repr=False, compare=False)
    agent_actions: tuple[frozenset[int], ...] = field(init=False, repr=False, compare=False)
    agent_masks: tuple[int, ...] = field(init=False, repr=False, compare=False)
    ground_set: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.num_agents <= 0:
            raise ModelError("need at least one agent")
        owner, costs = {}, {}
        per_agent: list[set[int]] = [set() for _ in range(self.num_agents)]
        for a in self.actions:
            if a.action_id in owner:
                raise DuplicateActionIdError(f"action id {a.action_id} appears twice")
            if not 0 <= a.owner < self.num_agents:
                raise UnknownAgentIdError(f"action {a.action_id} owned by unknown agent {a.owner}")
            if a.cost.numerator < 0:
                raise NegativeCostError(f"action {a.action_id} has cost {a.cost} < 0")
            owner[a.action_id], costs[a.action_id] = a.owner, a.cost
            per_agent[a.owner].add(a.action_id)
        if owner.keys() != set(range(len(self.actions))):
            raise DuplicateActionIdError("action ids must be exactly 0..m-1")
        if self.oracle.num_actions != len(self.actions):
            raise ModelError(f"oracle covers {self.oracle.num_actions} "
                             f"actions, instance has {len(self.actions)}")
        object.__setattr__(self, "owner_of", owner)
        object.__setattr__(self, "cost_of", costs)
        object.__setattr__(self, "agent_actions", tuple(frozenset(s) for s in per_agent))
        object.__setattr__(self, "agent_masks", tuple(  # no bit shared: sum = or
            sum(1 << a for a in own) for own in per_agent))
        object.__setattr__(self, "ground_set", frozenset(owner))

    @cached_property
    def int_costs(self) -> tuple[list[int], int]:
        """(costs, den): action a costs ``Fraction(costs[a], den)``, den the lcm."""
        costs = [self.cost_of[a] for a in range(len(self.actions))]
        den = math.lcm(*(c.denominator for c in costs))
        return [c.numerator * (den // c.denominator) for c in costs], den

    @cached_property
    def agent_cost_sums(self) -> tuple[dict[int, int], ...]:
        """Per agent, each submask of its actions with its cost in
        ``int_costs`` (over the same den), in ascending mask order."""
        from budgetcontracts.rewards import submask_sums
        c_int, _ = self.int_costs
        return tuple(submask_sums(own, c_int) for own in self.agent_masks)

    @cached_property
    def agent_cost_runs(self) -> tuple[tuple[list[int], ...], ...]:
        """Per agent, its ``agent_cost_sums`` by cost, sorted once
        (``rewards.cost_runs``)."""
        from budgetcontracts.rewards import cost_runs
        return tuple(map(cost_runs, self.agent_cost_sums))

    @property
    def scaled_f(self):
        """(F, den) with f(S) = F(S) / den for a bitmask S: the table's
        ints, or else the oracle's counted integer read
        (``RewardOracle.read``), over the oracle's den."""
        return (self.oracle.read if self.table is None
                else self.table.__getitem__), self.oracle.den

    @property
    def num_actions(self) -> int:
        return len(self.actions)

    @cached_property
    def f(self):
        """f by bitmask as Fractions: the table's, made once on first use
        (:func:`as_fractions`), or else the counted oracle."""
        return self.oracle if self.table is None \
            else as_fractions(self.table, self.oracle.den)

    def mask_of(self, profile: Iterable[int]) -> int:
        """The bitmask of a profile; UnknownActionIdError outside 0..m-1."""
        mask = 0
        try:
            for a in profile:
                mask |= 1 << a
        except ValueError:  # a negative id
            mask = -1
        if mask >> len(self.actions):  # negative, or a bit at m or above
            bad = min(a for a in profile if not 0 <= a < len(self.actions))
            raise UnknownActionIdError(f"action {bad} outside ground set")
        return mask


@dataclass(frozen=True)
class Contract:
    """A linear contract: per-agent reward share, one entry per agent."""

    alpha: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if any(a.numerator < 0 for a in self.alpha):
            raise ModelError("contract entries must be >= 0")

    @staticmethod
    def zero(num_agents: int) -> "Contract":
        return Contract(tuple(ZERO for _ in range(num_agents)))

    @staticmethod
    def of(values: Iterable[Fraction | int | str]) -> "Contract":
        return Contract(tuple(map(exact_rational, values)))

    def __getitem__(self, agent: int) -> Fraction:
        return self.alpha[agent]

    def __len__(self) -> int:
        return len(self.alpha)

    def total(self) -> Fraction:
        den = math.lcm(*(a.denominator for a in self.alpha))
        return Fraction(sum(a.numerator * (den // a.denominator) for a in self.alpha), den)

    def scale(self, factor: Fraction) -> "Contract":
        return Contract(tuple(a * factor for a in self.alpha))

    def add_everyone(self, eps: Fraction) -> "Contract":
        return Contract(tuple(a + eps for a in self.alpha))


@dataclass(frozen=True)
class GeneralContract:
    """Per-agent payments on failure and on success (both nonnegative), each
    an exact rational as :func:`exact_rational` takes it."""

    pay_on_failure: tuple[Fraction, ...]
    pay_on_success: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        for name in ("pay_on_failure", "pay_on_success"):
            object.__setattr__(self, name,
                               tuple(map(exact_rational, getattr(self, name))))
        if len(self.pay_on_failure) != len(self.pay_on_success):
            raise ModelError("payment tuples must have equal length")
        if any(t < 0 for t in self.pay_on_failure) or any(t < 0 for t in self.pay_on_success):
            raise ModelError("payments must be >= 0")

    def __len__(self) -> int:
        return len(self.pay_on_success)


def check_contract(inst: Instance, contract: Contract | GeneralContract) -> None:
    """Refuse a contract without exactly one entry per agent of ``inst``."""
    if len(contract) != inst.num_agents:
        raise ModelError(f"contract has {len(contract)} entries for "
                         f"{inst.num_agents} agents")


def cost(inst: Instance, profile: Iterable[int]) -> Fraction:
    """Total cost of a profile: the sum of its member actions' costs."""
    total = ZERO
    for a in profile:
        if a not in inst.cost_of:
            raise UnknownActionIdError(f"unknown action id {a}")
        total += inst.cost_of[a]
    return total


def restrict_contract(alpha: Contract, agents: Iterable[int]) -> Contract:
    """The contract paying alpha_i inside ``agents`` and 0 elsewhere."""
    keep = set(agents)
    for i in keep:
        if not 0 <= i < len(alpha):
            raise UnknownAgentIdError(f"agent {i} out of range")
    return Contract(tuple(a if i in keep else ZERO for i, a in enumerate(alpha.alpha)))
