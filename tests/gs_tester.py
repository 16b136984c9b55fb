"""The exact gross-substitutes membership test, for the tests.

Membership is decided by the exact local characterization (pairwise
submodularity plus the three-item exchange condition, checked exhaustively
on the ground set).  Demand correspondences move only at breakpoint
prices, so when a violation exists the tester also searches a small
breakpoint price grid (marginal values and midpoints of the violating
items) for a certified pair p <= q and a demand set at p that no demand set
at q retains, verified by exhaustive demand enumeration.  The oracles'
``function_class`` declarations are what the library trusts; this checks
them.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from budgetcontracts.core import GS_TESTER_LIMIT, ZERO, check_enumeration
from budgetcontracts.rewards import PriceVector, RewardOracle, _filled_table, \
    is_monotone, is_submodular, mask_to_set


@dataclass(frozen=True)
class GsWitness:
    """Evidence that an oracle is not gross substitutes.

    ``kind`` says which exact condition failed; when a certified price pair
    exists, raising prices from ``p`` to ``q`` evicts some member of
    ``demand_set`` (a demand bundle at ``p``) whose price did not change,
    from every demand bundle at ``q``.
    """

    kind: str
    context: frozenset[int]
    items: tuple[int, ...]
    p: Optional[PriceVector] = None
    q: Optional[PriceVector] = None
    demand_set: Optional[frozenset[int]] = None


def is_gross_substitutes(oracle: RewardOracle):
    """Exact GS membership with a certified price witness on failure.

    Decides via the local characterization: submodularity plus, for every S
    and distinct a, b, c outside S,
    f(S+ab) + f(S+c) <= max(f(S+ac) + f(S+b), f(S+bc) + f(S+a)).
    On failure, searches the violating items' breakpoint price grid for a
    pair p <= q (q raising some prices) and a demand set at p that no demand
    set at q retains; the returned witness is verified by enumeration.
    """
    m = oracle.num_actions
    check_enumeration(m, "gross-substitutes test", GS_TESTER_LIMIT)
    ok, wit = is_monotone(oracle)
    if not ok:
        return False, GsWitness("not-monotone", wit[0], (wit[1],))
    ok, wit = is_submodular(oracle)
    if not ok:
        ctx, a, b = wit
        p, q, dset = _search_price_witness(oracle, ctx, (a, b))
        return False, GsWitness("not-submodular", ctx, (a, b), p, q, dset)
    table = _filled_table(oracle)
    for mask in range(1 << m):
        outside = [x for x in range(m) if not mask & (1 << x)]
        for a, b, c in itertools.combinations(outside, 3):
            for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
                lhs = table[mask | (1 << x) | (1 << y)] + table[mask | (1 << z)]
                alt1 = table[mask | (1 << x) | (1 << z)] + table[mask | (1 << y)]
                alt2 = table[mask | (1 << y) | (1 << z)] + table[mask | (1 << x)]
                if lhs > alt1 and lhs > alt2:
                    ctx = mask_to_set(mask)
                    p, q, dset = _search_price_witness(oracle, ctx, (x, y, z))
                    return False, GsWitness("exchange", ctx, (x, y, z), p, q, dset)
    return True, None


def _search_price_witness(oracle: RewardOracle, ctx: frozenset[int],
                          items: tuple[int, ...]):
    """Find (p, q, S*) violating the GS demand-retention condition.

    Restricts attention to the violating items: the context is forced into
    every demand bundle with price -2 (f is monotone here), everything else
    is priced out at 2 > max f.  Item prices sweep the breakpoint grid of
    their marginal values plus midpoints; q raises one or two coordinates.
    """
    g_cache: dict[frozenset[int], Fraction] = {}

    def g(sub: frozenset[int]) -> Fraction:
        if sub not in g_cache:
            g_cache[sub] = oracle.value(ctx | sub)
        return g_cache[sub]

    def grid_for(item: int) -> list[Fraction]:
        others = [i for i in items if i != item]
        marginals = set()
        for r in range(len(others) + 1):
            for combo in itertools.combinations(others, r):
                s = frozenset(combo)
                marginals.add(g(s | {item}) - g(s))
        pts = sorted(marginals)
        grid = set(pts)
        grid.add(pts[0] - 1)
        grid.add(pts[-1] + 1)
        for lo, hi in zip(pts, pts[1:]):
            grid.add((lo + hi) / 2)
        return sorted(grid)

    def demand_sets(pr: dict[int, Fraction]) -> list[frozenset[int]]:
        best = None
        out: list[frozenset[int]] = []
        for r in range(len(items) + 1):
            for combo in itertools.combinations(items, r):
                s = frozenset(combo)
                u = g(s) - sum((pr[i] for i in combo), ZERO)
                if best is None or u > best:
                    best, out = u, [s]
                elif u == best:
                    out.append(s)
        return out

    grids = {i: grid_for(i) for i in items}

    def full_vector(pr: dict[int, Fraction]) -> PriceVector:
        prices = {a: Fraction(2) for a in range(oracle.num_actions)}
        for s in ctx:
            prices[s] = Fraction(-2)
        prices.update(pr)
        return PriceVector(prices)

    def check(pr: dict[int, Fraction], raised: tuple[int, ...], qr: dict[int, Fraction]):
        d_p = demand_sets(pr)
        d_q = demand_sets(qr)
        unchanged = set(items) - set(raised)
        for star in d_p:
            retained = star & unchanged
            if not any(retained <= dq for dq in d_q):
                return full_vector(pr), full_vector(qr), ctx | star
        return None

    for combo in itertools.product(*(grids[i] for i in items)):
        pr = dict(zip(items, combo))
        for k in (1, 2):
            for raised in itertools.combinations(items, k):
                higher = [
                    [v for v in grids[i] if v > pr[i]] for i in raised
                ]
                for newvals in itertools.product(*higher):
                    qr = dict(pr)
                    qr.update(zip(raised, newvals))
                    hit = check(pr, raised, qr)
                    if hit is not None:
                        return hit
    return None, None, None

