"""Independent checks of the program's outputs.

Nothing here calls the program: rewards are evaluated from the instance
document by the benchmark's own code, equilibria are checked by
enumerating every agent's deviations, and objectives are recomputed in
exact rationals.  A check returns an error message, or None when the
output passes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path


def _bits(mask: int):
    a = 0
    while mask:
        if mask & 1:
            yield a
        mask >>= 1
        a += 1


def _oxs(values: list[list[Fraction]]):
    cols = len(values[0]) if values else 0

    def f(mask: int) -> Fraction:
        # best matching of the set's actions into columns, by column subset
        best = {0: Fraction(0)}
        for a in _bits(mask):
            nxt = dict(best)
            for used, v in best.items():
                for c in range(cols):
                    if not used & (1 << c):
                        key = used | (1 << c)
                        cand = v + values[a][c]
                        if key not in nxt or cand > nxt[key]:
                            nxt[key] = cand
            best = nxt
        return max(best.values())

    return f


def reward_function(spec: dict):
    """f(mask) for a reward descriptor, memoized."""
    kind = spec["type"]
    if kind == "additive":
        w = [Fraction(x) for x in spec["weights"]]
        f = lambda mask: sum((w[a] for a in _bits(mask)), Fraction(0))
    elif kind == "unit_demand":
        w = [Fraction(x) for x in spec["weights"]]
        f = lambda mask: max((w[a] for a in _bits(mask)), default=Fraction(0))
    elif kind == "uniform_k_demand":
        k, v = int(spec["k"]), Fraction(spec["v"])
        f = lambda mask: min(bin(mask).count("1"), k) * v
    elif kind == "oxs":
        f = _oxs([[Fraction(x) for x in row] for row in spec["values"]])
    elif kind == "coverage":
        covers = [set(c) for c in spec["covers"]]
        size = int(spec["universe_size"])
        f = lambda mask: Fraction(
            len(set().union(*(covers[a] for a in _bits(mask)))), size)
    elif kind == "explicit":
        values = spec["values"]
        f = lambda mask: Fraction(values[mask])
    elif kind == "hardness":
        f = _hardness(int(spec["n"]), Fraction(spec["eps"]),
                      set(spec["hidden"]))
    else:
        raise ValueError(f"no reference evaluator for reward type {kind!r}")
    memo: dict[int, Fraction] = {}

    def cached(mask: int) -> Fraction:
        if mask not in memo:
            memo[mask] = f(mask)
        return memo[mask]

    return cached


def _hardness(n: int, eps: Fraction, hidden: set[int]):
    bad, good = n, n + 1
    penalty_core = sum(1 << a for a in hidden) | (1 << bad)

    def f(mask: int) -> Fraction:
        has_good = bool(mask & (1 << good))
        special = Fraction(1, 2) if has_good else eps if mask & (1 << bad) else 0
        others = bin(mask).count("1") - has_good
        value = special + eps * min(others, n // 2 + 1)
        if mask & ~(1 << good) == penalty_core:
            value -= eps / 2
        return value

    return f


def _submasks_ascending(mask: int) -> list[int]:
    subs = []
    sub = mask
    while True:
        subs.append(sub)
        if sub == 0:
            break
        sub = (sub - 1) & mask
    subs.reverse()
    return subs


def check_solve(path: Path, budget: str, objective: str,
                text: str) -> tuple[str | None, bool]:
    """Check one ``solve`` output against its instance file.

    Returns (error or None, whether the reported value is non-zero).
    """
    doc = json.loads(path.read_text(encoding="utf-8"))
    out = json.loads(text)
    n = int(doc["numAgents"])
    f = reward_function(doc["reward"])
    cost = {int(a["id"]): Fraction(a["cost"]) for a in doc["actions"]}
    own = [0] * n
    for a in doc["actions"]:
        own[int(a["owner"])] |= 1 << int(a["id"])
    alpha = [Fraction(x) for x in out["contract"]]
    value = Fraction(out["value"])
    profile = 0
    for a in out["profile"]:
        if int(a) not in cost:
            return f"profile names unknown action {a}", value != 0
        profile |= 1 << int(a)
    if len(alpha) != n or any(x < 0 for x in alpha):
        return f"malformed contract {out['contract']}", value != 0
    if sum(alpha) > Fraction(budget):
        return f"contract total {sum(alpha)} exceeds budget {budget}", value != 0

    f_s = f(profile)
    for i in range(n):
        subs = _submasks_ascending(own[i])
        sub_cost = {0: Fraction(0)}
        for sub in subs[1:]:
            low = sub & -sub
            sub_cost[sub] = sub_cost[sub ^ low] + cost[low.bit_length() - 1]
        rest = profile & ~own[i]
        u_i = alpha[i] * f_s - sub_cost[profile & own[i]]
        for dev in subs:
            if alpha[i] * f(rest | dev) - sub_cost[dev] > u_i:
                return (f"agent {i} gains by deviating to mask {dev}: "
                        "not a weak Nash equilibrium"), value != 0

    if objective == "profit":
        expected = (1 - sum(alpha)) * f_s
    elif objective == "reward":
        expected = f_s
    else:
        expected = f_s - sum((cost[a] for a in _bits(profile)), Fraction(0))
    if value != expected:
        return f"reported {objective} {value}, recomputed {expected}", value != 0
    return None, value != 0


def check_demand(spec: dict, prices: list[Fraction],
                 text: str) -> tuple[str | None, bool]:
    """Simulated and exhaustive demand must reach equal utility.

    Returns (error or None, whether that utility is non-zero).
    """
    out = json.loads(text)
    f = reward_function(spec)

    def utility(actions: list[int]) -> Fraction:
        mask = sum(1 << a for a in actions)
        return f(mask) - sum((prices[a] for a in actions), Fraction(0))

    u_sim = utility(out["simulated"])
    u_brute = utility(out["exhaustive"])
    if u_sim != u_brute:
        return (f"simulated demand utility {u_sim} differs from exhaustive "
                f"{u_brute}"), u_brute != 0
    return None, u_brute != 0
