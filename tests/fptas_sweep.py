"""The additive FPTAS's scale sweep recomputed on Fractions, for the tests:
which scales it fills before it stops, and an oracle that logs its reads."""

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


def swept_scales(inst, budget, obj, picks):
    """The scales the additive FPTAS fills, descending, from
    ``oracle.weights`` and ``cost_of`` alone.

    The candidates are the distinct positive phi (f({a}), or f({a}) - c_a
    for welfare) of the actions with c_a <= budget * f({a}).  ``picks``
    yields each filled scale's pick as a profile mask, in sweep order; it
    is read once per filled scale.  A pick is valued under
    its minimal contract, which pays each agent the largest ratio
    c_a / f({a}) among its actions in the profile.  The sweep stops before
    the first scale b whose P(b), the sum of the candidates' phi up to b,
    is below the best value so far, the empty profile's 0 first.
    """
    f, cost = inst.oracle.weights, inst.cost_of
    phi = [f[a] - cost[a] if obj.kind == "welfare" else f[a]
           for a in range(inst.num_actions)
           if f[a] > 0 and cost[a] <= budget * f[a]]
    picks = iter(picks)
    best, swept = Fraction(0), []
    for b in sorted({v for v in phi if v > 0}, reverse=True):
        if sum(v for v in phi if 0 < v <= b) < best:
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
