"""Reward oracles, demand queries, and function-class membership testers.

Every oracle answers exact value queries f(S) in [0, 1] over a ground set of
actions 0..m-1 and keeps separate counters for value and demand queries (one
increment per call; a simulated demand reports the value queries it spends).
Counters are the only mutable state and only grow, so what a call spent is
their difference across it.  Confine each oracle to one task at a time or
give each task its own oracle.

Subsets travel as bitmasks (bit a set when action a is in S).  Each family
fixes one denominator ``den`` and implements one hook, ``_int(mask)``, which
is f(S) * den as an int; ``oracle.read(mask)`` is the one counted read,
``oracle[mask]`` is that read over ``den`` as a Fraction, and
``value(subset)`` converts a set of ids once and reads it.  A filled table
is the 2^m ints over ``den`` as one plain list in bitmask order, which
:func:`with_table` puts on an instance.

Price vectors may contain negative entries, and may mark actions as excluded
(unpurchasable) instead of pricing them; exclusion plays the role of an
infinite price while keeping all arithmetic exact and total.
"""

from __future__ import annotations

import copy
import itertools
import math
import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Optional, Sequence

from budgetcontracts.core import (
    ENUM_LIMIT,
    GS_TESTER_LIMIT,
    Instance,
    ModelError,
    OracleRangeViolationError,
    SchemaError,
    TESTER_LIMIT,
    UnknownActionIdError,
    ZERO,
    as_fractions,
    check_enumeration,
    descriptor_field,
    exact_rational,
    parse_integer,
    parse_ratio,
    parse_rational,
)

_TYPECODES = {array(code).itemsize: code for code in "BHILQ"}  # unsigned ints


@dataclass(frozen=True)
class PriceVector:
    """Per-action prices; actions in ``excluded`` cannot be purchased."""

    prices: dict[int, Fraction]
    excluded: frozenset[int] = frozenset()

    @staticmethod
    def of(prices: Mapping[int, Fraction | int | str],
           excluded: Iterable[int] = ()) -> "PriceVector":
        return PriceVector({int(a): exact_rational(p) for a, p in prices.items()},
                           frozenset(excluded))

    def total(self, subset: Iterable[int]) -> Fraction:
        return sum((self.prices[a] for a in subset), ZERO)


def set_to_mask(subset: Iterable[int]) -> int:
    mask = 0
    for a in subset:
        mask |= 1 << a
    return mask


def _set_bits(mask: int) -> list[int]:
    """The members of a nonnegative bitmask, ascending: one step per member."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_to_set(mask: int) -> frozenset[int]:
    return frozenset(_set_bits(mask))


class RewardOracle:
    """Base value-query interface; subclasses set ``den`` and implement
    ``_int(mask)``, f of the subset ``mask`` encodes times ``den``.  The
    f of every subclass is the model's: monotone, f(empty) = 0, and every
    value in [0, 1].

    ``read(mask)`` is one counted value query on the subset whose bits are
    set in ``mask``, as that int; ``oracle[mask]`` is the same query as a
    Fraction, and ``value(subset)`` asks it of a set of ids.

    ``function_class`` declares the strongest class the construction
    guarantees ("additive", "gross_substitutes", "submodular", "monotone").
    Greedy demand shortcuts are only trusted when the class implies GS.
    """

    function_class = "monotone"
    has_native_demand = False

    def __init__(self, num_actions: int):
        self.num_actions = num_actions
        self.value_queries = 0
        self.demand_queries = 0

    # -- queries ---------------------------------------------------------

    def read(self, mask: int) -> int:
        """f of the subset ``mask`` encodes, times ``den``; one value query."""
        if mask < 0 or mask.bit_length() > self.num_actions:
            raise UnknownActionIdError(
                f"bitmask outside the ground set of {self.num_actions} actions")
        self.value_queries += 1
        return self._int(mask)

    def __getitem__(self, mask: int) -> Fraction:
        """f of the subset ``mask`` encodes; one value query."""
        return Fraction(self.read(mask), self.den)

    def value(self, subset: Iterable[int]) -> Fraction:
        mask = 0
        for a in subset:
            if not 0 <= a < self.num_actions:
                raise UnknownActionIdError(f"action {a} outside ground set")
            mask |= 1 << a
        return self[mask]

    def demand(self, prices: PriceVector) -> frozenset[int]:
        """Native demand query; only some oracles provide one."""
        if not self.has_native_demand:
            raise ModelError(f"{type(self).__name__} has no native demand oracle")
        self.demand_queries += 1
        return self._demand(prices)

    @property
    def is_gs_class(self) -> bool:
        return self.function_class in ("additive", "gross_substitutes")

    # -- to be provided by subclasses -------------------------------------

    def _int(self, mask: int) -> int:
        raise NotImplementedError

    def _demand(self, prices: PriceVector) -> frozenset[int]:
        raise NotImplementedError

    def _table(self) -> list[int]:
        """All 2^m values times ``den`` in bitmask order, uncounted: one
        ``_int`` per subset here, a subset DP in families with structure."""
        return list(map(self._int, range(1 << self.num_actions)))


def common_denominator(values: Iterable[Fraction]) -> int:
    """The least common multiple of the values' denominators."""
    return math.lcm(*{v.denominator for v in values})


def scaled_ints(values: Iterable[Fraction], den: int) -> list[int]:
    """Each value times ``den``, which every denominator divides."""
    return [v.numerator * (den // v.denominator) for v in values]


def subset_sums(weights: Iterable[int]) -> list[int]:
    """Each subset's total weight in bitmask order, by a subset DP."""
    out = [0]
    for w in weights:
        out += [v + w for v in out]
    return out


def submasks(mask: int) -> list[int]:
    """Every submask of ``mask``, in ascending order."""
    return subset_sums([1 << a for a in _set_bits(mask)])


def submask_sums(mask: int, weights) -> dict[int, int | Fraction]:
    """Each submask of ``mask`` with its total weight, in ascending order.

    ``weights[a]`` is action a's weight; the empty submask sums to int 0.
    """
    return dict(zip(submasks(mask), subset_sums(
        [weights[a] for a in _set_bits(mask)])))


def submask_sums_upto(mask: int, weights, limit: int) -> dict[int, int]:
    """The entries of ``submask_sums(mask, weights)`` weighing at most
    ``limit``, in the same order, for weights >= 0 (an instance's costs):
    a partial sum above the limit is never extended."""
    out = [(0, 0)] if limit >= 0 else []
    for a in _set_bits(mask):
        w, bit = weights[a], 1 << a
        out += [(k | bit, v + w) for k, v in out if v <= limit - w]
    return dict(out)


def cost_runs(costs: dict[int, int]) -> tuple[list[int], list[int], list[int]]:
    """The keys of ``costs`` (submask -> cost) in ascending cost, ties in
    mask order; their costs; and for each, the end (exclusive) of its run
    of equal costs, found in one pass: numbering the sorted costs from 1,
    the last number a cost gets is the end of its run."""
    order = sorted(costs, key=costs.__getitem__)
    by_cost = list(map(costs.__getitem__, order))
    end = dict(zip(by_cost, range(1, len(by_cost) + 1)))
    return order, by_cost, list(map(end.__getitem__, by_cost))


class AdditiveOracle(RewardOracle):
    """f(S) = the sum of the weights of the actions in S.

    The weights are kept as ints over their common denominator ``den``: a
    read sums ints, and the table is a subset DP on them.
    """

    function_class = "additive"

    def __init__(self, weights: Sequence[Fraction | int | str]):
        super().__init__(len(weights))
        self.weights = tuple(map(exact_rational, weights))
        self.den = common_denominator(self.weights)
        self._ints = scaled_ints(self.weights, self.den)
        if any(w < 0 for w in self._ints):
            raise OracleRangeViolationError("additive weights must be >= 0")
        if sum(self._ints) > self.den:
            raise OracleRangeViolationError("additive weights must sum to <= 1")

    def _int(self, mask: int) -> int:
        return sum(map(self._ints.__getitem__, _set_bits(mask)))

    def _table(self) -> list[int]:
        return subset_sums(self._ints)


class UnitDemandOracle(RewardOracle):
    function_class = "gross_substitutes"

    def __init__(self, weights: Sequence[Fraction | int | str]):
        super().__init__(len(weights))
        self.weights = tuple(map(exact_rational, weights))
        self.den = common_denominator(self.weights)
        self._ints = scaled_ints(self.weights, self.den)
        if any(not 0 <= w <= self.den for w in self._ints):
            raise OracleRangeViolationError("unit-demand weights must lie in [0, 1]")

    def _int(self, mask: int) -> int:
        return max(map(self._ints.__getitem__, _set_bits(mask)), default=0)

    def _table(self) -> list[int]:
        return _matching_table([(w,) for w in self._ints], 1, self.den)


class UniformKDemandOracle(RewardOracle):
    """f(S) = min(|S|, k) * unit_value."""

    function_class = "gross_substitutes"

    def __init__(self, num_actions: int, k: int,
                 unit_value: Fraction | int | str):
        super().__init__(num_actions)
        if num_actions < 0:
            raise ModelError(f"num_actions must be >= 0, got {num_actions}")
        if type(k) is not int or k < 1:
            raise ModelError(f"k must be an int >= 1, got {k!r}")
        self.k = k
        self.unit_value = exact_rational(unit_value)
        self.den = self.unit_value.denominator
        if not (0 <= self.unit_value <= 1
                and self.unit_value * min(k, num_actions) <= 1):
            raise OracleRangeViolationError("unit_value and k * unit_value "
                                            "must lie in [0, 1]")

    def _int(self, mask: int) -> int:
        return min(mask.bit_count(), self.k) * self.unit_value.numerator

    def _table(self) -> list[int]:
        m = self.num_actions
        levels = [min(c, self.k) * self.unit_value.numerator
                  for c in range(m + 1)]
        return [levels[s.bit_count()] for s in range(1 << m)]


class AssignmentOracle(RewardOracle):
    """OXS valuation: max-weight matching of actions to value columns.

    ``values[a][c]`` is the value of assigning action ``a`` to column ``c``;
    each column takes at most one action, unmatched actions contribute 0.
    Gross substitutes by construction.
    """

    function_class = "gross_substitutes"

    def __init__(self, values: Sequence[Sequence[Fraction | int | str]]):
        super().__init__(len(values))
        self.values = tuple(tuple(map(exact_rational, row)) for row in values)
        cols = {len(row) for row in self.values}
        if len(cols) != 1:
            raise ModelError("all rows need the same number of columns")
        self.num_columns = cols.pop()
        check_enumeration(self.num_columns, "assignment columns", GS_TESTER_LIMIT)
        # the matching DP runs on integers over one common denominator
        self.den = common_denominator(v for row in self.values for v in row)
        self._scaled_values = tuple(tuple(scaled_ints(row, self.den))
                                    for row in self.values)
        if any(v < 0 for row in self._scaled_values for v in row):
            raise OracleRangeViolationError("assignment values must be >= 0")
        full = self._int((1 << self.num_actions) - 1)
        if full > self.den:
            raise OracleRangeViolationError(
                f"f(ground set) = {Fraction(full, self.den)} exceeds 1")

    def _int(self, mask: int) -> int:
        best = {0: 0}  # column set -> best matching of the actions walked
        for a in _set_bits(mask):
            nxt = dict(best)
            for cols, val in best.items():
                for c, w in enumerate(self._scaled_values[a]):
                    if not cols >> c & 1 and val + w > nxt.get(cols | 1 << c, -1):
                        nxt[cols | 1 << c] = val + w
            best = nxt
        return max(best.values())

    def _table(self) -> list[int]:  # 2^c tables of 2^m fields: 3 columns at m = 20
        check_enumeration(self.num_actions + self.num_columns, "OXS table",
                          ENUM_LIMIT + 3)
        return _matching_table(self._scaled_values, self.num_columns, self.den)


class CoverageOracle(RewardOracle):
    """f(S) = |union of the actions' element sets| / universe size."""

    function_class = "submodular"

    def __init__(self, universe_size: int, covers: Sequence[Iterable[int]]):
        super().__init__(len(covers))
        if universe_size < 1:
            raise ModelError("universe must be nonempty")
        self.universe_size = self.den = universe_size
        self.covers = tuple(frozenset(c) for c in covers)
        for c in self.covers:
            if any(not 0 <= e < universe_size for e in c):
                raise ModelError("cover element outside universe")
        self._cover_masks = tuple(map(set_to_mask, self.covers))

    def _int(self, mask: int) -> int:
        covered = 0
        for a in _set_bits(mask):
            covered |= self._cover_masks[a]
        return covered.bit_count()

    def _table(self) -> list[int]:
        covered = [0]
        for bits in self._cover_masks:
            covered += [c | bits for c in covered]
        return list(map(int.bit_count, covered))


class ExplicitOracle(RewardOracle):
    """A full table of 2^m values in subset-bitmask order.

    One pass groups the entries (by object identity; a descriptor's by
    string) into codes, each group is read once as a reduced p/q, and the
    codes pick each entry's int over the common denominator ``den``.
    Validation: f(empty) = 0 first, then the range and monotonicity on the
    ints packed into one int (:func:`_packed_monotone`).  The first failing
    check in mask order raises, the range check before the monotonicity
    check at one mask (:meth:`_raise_first_fault`).
    """

    function_class = "monotone"

    def __init__(self, values: Sequence[Fraction]):
        firsts = {id(v): v for v in values}  # each object once, first seen first
        codes = list(map(dict(zip(firsts, itertools.count())).__getitem__,
                         map(id, values)))
        exact = map(exact_rational, firsts.values())
        self._fill(codes, list(map(Fraction.as_integer_ratio, exact)))

    @classmethod
    def _from_entries(cls, entries: list) -> "ExplicitOracle":
        """Parse each distinct string once; other lists entry by entry, since
        grouping by == takes True for 1 and unhashable entries are errors."""
        code = defaultdict(itertools.count().__next__)
        try:
            codes = _picker(entries)(code)
        except TypeError:  # an unhashable entry, or no entry
            codes = None
        if codes is None or not all(type(e) is str for e in code):
            return cls(list(map(parse_rational, entries)))
        oracle = cls.__new__(cls)
        oracle._fill(codes, list(map(parse_ratio, code)))
        return oracle

    def _fill(self, codes: Sequence[int], ratios: list) -> None:
        """Fill the table from each entry's code and each code's (p, q)."""
        size = len(codes)
        m = size.bit_length() - 1
        if size == 0 or size != 1 << m:
            raise ModelError("explicit table length must be a power of two")
        super().__init__(m)
        den = math.lcm(*{q for _, q in ratios})
        levels = [p * (den // q) for p, q in ratios]
        ints = list(_picker(codes)(levels))
        self._ints, self.den = ints, den
        if ints[0] or min(levels) < 0 or max(levels) > den \
                or not _packed_monotone(ints, den):
            self._raise_first_fault(ints, den)

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        """The 2^m values in mask order, one Fraction per distinct int."""
        return tuple(as_fractions(self._ints, self.den))

    def _raise_first_fault(self, ints: list[int], den: int) -> None:
        """Raise for f(empty) != 0, else the first fault in mask order."""
        if ints[0] != 0:
            raise ModelError("explicit table must have f(empty) = 0")
        for mask, k in enumerate(ints):
            if not 0 <= k <= den:
                raise OracleRangeViolationError(
                    f"table value {Fraction(k, den)} outside [0, 1]")
            for b in range(self.num_actions):
                if not mask >> b & 1 and ints[mask | 1 << b] < k:
                    raise ModelError("explicit table is not monotone")

    def _int(self, mask: int) -> int:
        return self._ints[mask]

    def _table(self) -> list[int]:
        return self._ints


def _picker(indices: Sequence) -> Callable[[Sequence], tuple]:
    """``t -> tuple(t[i] for i in indices)`` in one C-level call."""
    pick = itemgetter(*indices)
    return pick if len(indices) > 1 else lambda t: (pick(t),)


@lru_cache(maxsize=8)
def _guard_masks(width: int, size: int) -> tuple[int, ...]:
    """G, then each G_b, of :func:`_packed_monotone` for the field sizes."""
    guard = bytes(width - 1) + b"\x80"
    return (int.from_bytes(guard * size, "little"),
            *(int.from_bytes((guard * (1 << b) + bytes(width << b))
                             * (size >> b + 1), "little")
              for b in range(size.bit_length() - 1)))


def _field_width(top: int) -> int:
    """The fewest bytes holding every int in [0, top] below a guard bit."""
    return top.bit_length() // 8 + 1


def _matching_table(rows: Sequence, columns: int, den: int) -> list[int]:
    """Each subset's best matching of actions to columns, in bitmask order;
    ``rows[a][c]`` is action a on column c; unit demand is one column.
    Column set C's table is one int in :func:`_packed_monotone`'s layout,
    widened to an array itemsize; action a appends the field-wise max of
    T_C and each T_{C-c} + w_{a,c}: y ^ ((x ^ y) & M), M filling each field
    whose guard G stays in t = ((x | G) - y) & G; no matching exceeds den."""
    width = _field_width(den)
    width = min((size for size in _TYPECODES if size >= width), default=width)
    guard, ones, shift = 8 * width - 1, 1, 8 * width  # ones: a 1 per field
    best = [0] * (1 << columns)  # column set -> its table so far
    for row in rows:
        guards = ones << guard
        for cols in reversed(range(1, len(best))):  # reads T_{C-c} before it grows
            x = best[cols]
            for c, w in enumerate(row):
                if cols >> c & 1:
                    y = best[cols ^ 1 << c] + w * ones
                    t = ((x | guards) - y) & guards
                    x = y ^ ((x ^ y) & (t | t - (t >> guard)))
            best[cols] |= x << shift
        ones |= ones << shift
        shift *= 2
    packed = best[-1].to_bytes(shift // 8, "little")
    if width not in _TYPECODES:
        return [int.from_bytes(packed[i:i + width], "little")
                for i in range(0, len(packed), width)]
    table = array(_TYPECODES[width], packed)
    if sys.byteorder == "big":
        table.byteswap()
    return table.tolist()


def _packed_monotone(ints: Sequence[int], top: int) -> bool:
    """Whether ints[mask] <= ints[mask | 1 << b] for every mask and bit b.

    Mask i's int, in [0, top], fills field i of one int P, in the fewest
    bytes that leave a top (guard) bit no int reaches (the layout of
    :func:`_matching_table`); from top >= 2^63 the ints' ranks stand in
    for them, so no field exceeds 8 bytes.  With G every guard, field i
    of ``(P >> 2^b fields | G) - P`` is guard + ints[i + 2^b] - ints[i]:
    no borrow, and the guard stays iff the pair is in order.  Bit b
    passes when G_b, the guards of masks without b (a repeated byte
    pattern, like G), all stay.  The masks are cached for 8
    sizes of up to 8 KB of fields (about 1 MB), else built per call.
    """
    if top >> 63:
        rank = dict(zip(sorted(set(ints)), itertools.count()))
        ints, top = list(map(rank.get, ints)), len(rank)
    width = _field_width(top)
    packed = bytes(ints) if width == 1 else b"".join(
        [k.to_bytes(width, "little") for k in ints])
    size = len(ints)
    masks = _guard_masks if width * size <= 1 << 13 else _guard_masks.__wrapped__
    guards, *g = masks(width, size)
    p = int.from_bytes(packed, "little")
    return all(((p >> (8 * width << b) | guards) - p) & g_b == g_b
               for b, g_b in enumerate(g))


# -- demand computation ----------------------------------------------------


def _check_prices(oracle: RewardOracle, prices: PriceVector,
                  base: frozenset[int] = frozenset()) -> list[int]:
    """Validate coverage and return the purchasable items, ascending."""
    items = []
    for a in range(oracle.num_actions):
        if a in prices.excluded or a in base:
            continue
        if a not in prices.prices:
            raise ModelError(f"action {a} neither priced nor excluded")
        items.append(a)
    return items


def brute_force_demand(oracle: RewardOracle, prices: PriceVector, *,
                       table: Optional[Sequence[Fraction]] = None) -> frozenset[int]:
    """Exact demand by enumerating all subsets of the purchasable items.

    The exhaustive branch of :func:`demand_with_base` with an empty base.
    Ties break toward the lexicographically smallest sorted id sequence, so
    the empty set wins any tie it is part of.  When ``table`` (a full value
    table in bitmask order) is given, values come from it and no value
    queries are issued; otherwise each subset costs one value query.
    """
    return demand_with_base(oracle, prices, (), gs=False, table=table)


def lex_key(mask: int) -> tuple[int, ...]:
    """The sorted ids of a bitmask, for lexicographic tie-breaks."""
    return tuple(_set_bits(mask))


def gs_greedy_demand(oracle: RewardOracle, prices: PriceVector, *,
                     table: Optional[Sequence[Fraction]] = None) -> frozenset[int]:
    """Greedy demand: repeatedly add the best positive-marginal-utility item.

    The greedy branch of :func:`demand_with_base` with an empty base: ties
    break toward the smallest action id, and the loop stops when no
    remaining item has strictly positive marginal utility.  Matches
    brute-force demand utility whenever the oracle is gross substitutes.
    """
    return demand_with_base(oracle, prices, (), gs=True, table=table)


def demand_with_base(oracle: RewardOracle, prices: PriceVector,
                     base: Iterable[int], *, gs: Optional[bool] = None,
                     table: Optional[Sequence[Fraction]] = None) -> frozenset[int]:
    """Demand constrained to contain ``base``.

    Maximizes f(X | base) - p(X) over X disjoint from base and returns
    base + X.  Greedy on the marginal function when the oracle is GS
    (f(. | base) is then GS as well).  Otherwise exhaustive: f(base + X)
    is read once per subset X, in ascending mask order, against price sums
    filled by a subset DP, and ties break toward the lexicographically
    smallest sorted X (the key is only built on a tie).  When some
    globally demanded set contains ``base`` this attains global demand
    utility; in every case the result contains ``base``.
    """
    base_set = frozenset(base)
    items = _check_prices(oracle, prices, base_set)
    f = oracle if table is None else table
    chosen = set_to_mask(base_set)
    if oracle.is_gs_class if gs is None else gs:
        current = f[chosen]
        while True:
            best_gain = ZERO
            best_item = None
            for a in items:
                if chosen >> a & 1:
                    continue
                gain = f[chosen | 1 << a] - current - prices.prices[a]
                if gain > best_gain:
                    best_gain, best_item = gain, a
            if best_item is None:
                return mask_to_set(chosen)
            chosen |= 1 << best_item
            current = f[chosen]
    check_enumeration(len(items), "demand items")
    subs = submasks(set_to_mask(items))
    psums = subset_sums([prices.prices[a] for a in items])
    best_u = f[chosen]
    best = 0
    for k in range(1, len(subs)):
        mask = subs[k]
        u = f[chosen | mask] - psums[k]
        if u > best_u or (u == best_u and lex_key(mask) < lex_key(best)):
            best_u, best = u, mask
    return mask_to_set(chosen | best)


def value_table(oracle: RewardOracle) -> list[Fraction]:
    """All 2^m values in bitmask order as a plain list of Fractions
    (:func:`core.as_fractions` of the filled ints), counted as 2^m value
    queries."""
    return as_fractions(_filled_table(oracle), oracle.den)


def _filled_table(oracle: RewardOracle) -> list[int]:
    """The 2^m values times ``oracle.den`` in bitmask order, counted once
    filled as 2^m value queries, no demand queries.  A subset DP fills
    additive (sums), uniform-k (levels by size), coverage (bit-OR of covers),
    unit-demand and OXS (:func:`_matching_table`); an explicit oracle hands
    over its ints, uncopied, never mutated; the rest read ``_int`` each."""
    check_enumeration(oracle.num_actions, "value table")
    table = oracle._table()
    oracle.value_queries += 1 << oracle.num_actions
    return table


def with_table(inst: Instance) -> Instance:
    """``inst`` carrying its value table (:func:`_filled_table`), which
    ``Instance.scaled_f`` then reads: 2^m value queries the first time,
    none when the instance already carries one.  It is a shallow copy of
    ``inst``, checked when built, so no check runs again; of its caches
    only the Fraction view ``f`` reads the table, and it is dropped."""
    if inst.table is not None:
        return inst
    tabled = copy.copy(inst)
    vars(tabled).pop("f", None)
    vars(tabled)["table"] = _filled_table(inst.oracle)
    return tabled


# -- class membership testers ----------------------------------------------


def is_monotone(oracle: RewardOracle):
    """Exhaustive monotonicity check; returns (ok, witness (S, a) or None)."""
    m = oracle.num_actions
    check_enumeration(m, "monotonicity test", TESTER_LIMIT)
    table = _filled_table(oracle)
    for mask in range(1 << m):
        for b in range(m):
            if not mask & (1 << b) and table[mask | (1 << b)] < table[mask]:
                return False, (mask_to_set(mask), b)
    return True, None


def is_submodular(oracle: RewardOracle):
    """Exhaustive diminishing-marginals check.

    Uses the pairwise characterization: f(a | S) >= f(a | S + b) for every S
    and distinct a, b outside S, which is equivalent to the full condition
    over nested pairs of sets.  Returns (ok, witness) where the witness is
    (S, a, b) meaning f(a | S) < f(a | S + b).
    """
    m = oracle.num_actions
    check_enumeration(m, "submodularity test", TESTER_LIMIT)
    table = _filled_table(oracle)
    for mask in range(1 << m):
        outside = [b for b in range(m) if not mask & (1 << b)]
        for a in outside:
            gain_a = table[mask | (1 << a)] - table[mask]
            for b in outside:
                if b == a:
                    continue
                with_b = mask | (1 << b)
                if table[with_b | (1 << a)] - table[with_b] > gain_a:
                    return False, (mask_to_set(mask), a, b)
    return True, None


# -- JSON descriptors --------------------------------------------------------


def oracle_from_spec(spec: Mapping) -> RewardOracle:
    """Build an oracle from its JSON descriptor (see module docstrings).

    A descriptor with a missing or mistyped field raises ``SchemaError``;
    integer fields take the strict rule of ``parse_integer``.
    """
    field = partial(descriptor_field, spec)
    kind = spec.get("type")
    if kind == "additive":
        return AdditiveOracle(list(map(parse_rational, field("weights", list))))
    if kind == "unit_demand":
        return UnitDemandOracle(list(map(parse_rational, field("weights", list))))
    if kind == "uniform_k_demand":
        return UniformKDemandOracle(field("num_actions", int), field("k", int),
                                    parse_rational(field("v")))
    if kind == "oxs":
        rows = field("values", list)
        if not all(isinstance(row, list) for row in rows):
            raise SchemaError("oxs descriptor rows must be lists")
        return AssignmentOracle([list(map(parse_rational, row)) for row in rows])
    if kind == "coverage":
        covers = field("covers", list)
        if not all(isinstance(c, list) for c in covers):
            raise SchemaError("coverage descriptor covers must be lists")
        return CoverageOracle(
            field("universe_size", int),
            [[parse_integer(e, "coverage cover member") for e in c]
             for c in covers])
    if kind == "explicit":
        return ExplicitOracle._from_entries(field("values", list))
    if kind == "hardness":
        from budgetcontracts.hardness import hardness_oracle_from_spec

        return hardness_oracle_from_spec(spec)
    raise ModelError(f"unknown reward descriptor type: {kind!r}")


def oracle_to_spec(oracle: RewardOracle) -> dict:
    from budgetcontracts.core import format_rational as fr

    if isinstance(oracle, AdditiveOracle):
        return {"type": "additive", "weights": [fr(w) for w in oracle.weights]}
    if isinstance(oracle, UnitDemandOracle):
        return {"type": "unit_demand", "weights": [fr(w) for w in oracle.weights]}
    if isinstance(oracle, UniformKDemandOracle):
        return {"type": "uniform_k_demand", "num_actions": oracle.num_actions,
                "k": oracle.k, "v": fr(oracle.unit_value)}
    if isinstance(oracle, AssignmentOracle):
        return {"type": "oxs",
                "values": [[fr(v) for v in row] for row in oracle.values]}
    if isinstance(oracle, CoverageOracle):
        return {"type": "coverage", "universe_size": oracle.universe_size,
                "covers": [sorted(c) for c in oracle.covers]}
    if isinstance(oracle, ExplicitOracle):
        return {"type": "explicit", "values": [fr(v) for v in oracle.values]}
    from budgetcontracts.hardness import HardnessOracle, hardness_oracle_to_spec

    if isinstance(oracle, HardnessOracle):
        return hardness_oracle_to_spec(oracle)
    raise ModelError(f"cannot serialize oracle {type(oracle).__name__}")
