"""The additive FPTAS's scale sweep recomputed on Fractions, for the tests:
the LP bound that stops it, which scales it fills before it stops, and an
oracle that logs its reads."""

import math
from fractions import Fraction

from budgetcontracts.rewards import AdditiveOracle, mask_to_set


class LoggedAdditive(AdditiveOracle):
    """An additive oracle that logs the mask of every value query."""

    def __init__(self, weights):
        super().__init__(weights)
        self.log = []

    def _int(self, mask):
        self.log.append(mask)
        return super()._int(mask)


def _phi(inst, budget, obj):
    """{a: phi} over the kept actions, those with f({a}) > 0 and
    c_a <= budget * f({a}), and {a: c_a / f({a})} over the same."""
    f, cost = inst.oracle.weights, inst.cost_of
    kept = [a for a in range(inst.num_actions)
            if f[a] > 0 and cost[a] <= budget * f[a]]
    return ({a: f[a] - cost[a] if obj.kind == "welfare" else f[a]
             for a in kept}, {a: cost[a] / f[a] for a in kept})


def _wrap(points):
    """The vertices of the upper concave envelope of ``points`` (r, V)
    sorted by r, the first at r = 0, by gift wrapping: from each vertex,
    the next is the furthest point of steepest positive slope."""
    hull = [points[0]]
    while True:
        r0, v0 = hull[-1]
        slope, r, v = max(((v - v0) / (r - r0), r, v) for r, v in points
                          if r > r0) if r0 < points[-1][0] else (0, 0, 0)
        if slope <= 0:
            return hull
        hull.append((r, v))


def lp_bound(inst, budget, obj, b):
    """The stop's bound at scale ``b``, from ``oracle.weights`` and
    ``cost_of`` alone, by Lagrangian duality.

    Per agent, with r* the least ratio c_a / f({a}) of a kept action whose
    phi exceeds b, V(r) sums the positive phi of the kept actions with
    ratio at most min(r, r*) and phi at most b, at r = 0 and at each of
    those ratios.  Payments are multiples of 1 / den, den the lcm of the
    kept ratios' denominators, so they total at most cap = floor(budget *
    den) / den.  g(t) is the LP max of the sum of the agents' concave
    envelopes of V at payments totalling at most t.  Reward and welfare
    are bounded by g(cap), the min over mu >= 0 of mu cap plus each
    agent's max of V(r) - mu r (mu at 0 or at a slope of an agent's
    envelope); profit by the max over t in [0, cap] of (1 - t) g(t), g
    interpolated between the points the Lagrangian picks at those mu.
    """
    phi, ratio = _phi(inst, budget, obj)
    den = math.lcm(*(r.denominator for r in ratio.values()))
    cap = Fraction(math.floor(budget * den), den)
    hulls = []
    for own in inst.agent_actions:
        mine = [a for a in own if a in ratio]
        r_star = min((ratio[a] for a in mine if phi[a] > b), default=None)
        allowed = [a for a in mine if phi[a] <= b
                   and (r_star is None or ratio[a] <= r_star)]
        hulls.append(_wrap([(r, sum(max(phi[a], 0) for a in allowed
                                    if ratio[a] <= r))
                            for r in sorted({Fraction(0)}
                                            | {ratio[a] for a in allowed})]))
    mus = sorted({Fraction(0)} | {(v2 - v1) / (r2 - r1) for hull in hulls
                                  for (r1, v1), (r2, v2)
                                  in zip(hull, hull[1:])})
    if obj.kind != "profit":
        return min(mu * cap + sum(max(v - mu * r for r, v in hull)
                                  for hull in hulls) for mu in mus)
    # the points g passes through: each mu's cheapest and dearest picks,
    # and the free value at t = 0
    g = {0: sum(hull[0][1] for hull in hulls)}
    for mu in mus:
        for pick in (min, max):
            t = v = 0
            for hull in hulls:
                top = max(w - mu * r for r, w in hull)
                r, w = pick((r, w) for r, w in hull if w - mu * r == top)
                t, v = t + r, v + w
            g[t] = v
    knots = sorted(g.items())
    best = Fraction(0)
    for (t0, g0), (t1, g1) in zip(knots, knots[1:] + [(None, None)]):
        if t0 > cap:
            break
        best = max(best, (1 - t0) * g0)
        if t1 is None:
            continue
        slope = (g1 - g0) / (t1 - t0)
        end = min(t1, cap)
        best = max(best, (1 - end) * (g0 + slope * (end - t0)))
        if slope > 0:
            # where the derivative of (1 - t) (g0 + slope (t - t0)) is 0
            peak = (slope * (1 + t0) - g0) / (2 * slope)
            if t0 < peak < end:
                best = max(best, (1 - peak) * (g0 + slope * (peak - t0)))
    return best


def swept_scales(inst, budget, obj, picks):
    """The scales the additive FPTAS fills, descending, from
    ``oracle.weights`` and ``cost_of`` alone.

    The candidates are the distinct positive phi (f({a}), or f({a}) - c_a
    for welfare) of the kept actions.  ``picks`` yields each filled
    scale's pick as a profile mask, in sweep order; it is read once per
    filled scale.  A pick is valued under its minimal contract, which pays
    each agent the largest ratio c_a / f({a}) among its actions in the
    profile.  The sweep stops before the first scale b whose
    :func:`lp_bound` is below the best value so far, the empty profile's
    0 first.
    """
    f, cost = inst.oracle.weights, inst.cost_of
    phi = _phi(inst, budget, obj)[0]
    picks = iter(picks)
    best, swept = Fraction(0), []
    for b in sorted({v for v in phi.values() if v > 0}, reverse=True):
        if lp_bound(inst, budget, obj, b) < best:
            break
        swept.append(b)
        mask = next(picks, None)
        assert mask is not None, f"the sweep ended before scale {b}"
        profile = mask_to_set(mask)
        pay = [Fraction(0)] * inst.num_agents
        for a in profile:
            pay[inst.owner_of[a]] = max(pay[inst.owner_of[a]], cost[a] / f[a])
        reward = sum(f[a] for a in profile)
        pn, wn, d = obj.weights
        best = max(best, reward - (pn * sum(pay) * reward
                                   + wn * sum(cost[a] for a in profile)) / d)
    return swept
