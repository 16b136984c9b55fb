"""The minimal-contract records as (mask, Contract) pairs, and an instance
whose records run past a huge common denominator, for the tests."""

from fractions import Fraction

from budgetcontracts.core import Action, Instance
from budgetcontracts.equilibria import contract_of, iter_min_contracts
from budgetcontracts.rewards import AdditiveOracle, with_table


def contract_pairs(inst, **kwargs):
    """``iter_min_contracts(inst, **kwargs)`` as a list of (profile mask,
    minimal incentivizing Contract), each record's total tn / td checked
    against its contract's."""
    pairs = []
    for mask, tn, td, paid in iter_min_contracts(inst, **kwargs):
        alpha = contract_of(inst, paid)
        assert Fraction(tn, td) == alpha.total(), (mask, tn, td, paid)
        pairs.append((mask, alpha))
    return pairs


def huge_denominator_instance():
    """Three agents on five actions, carrying its table, with values and
    costs over distinct primes near 10**9: their common denominator is
    above 10**24."""
    primes = (1000000007, 1000000009, 1000000021, 1000000033, 998244353)
    weights = [Fraction(p // 5 + k, 8 * p) for k, p in enumerate(primes[:4])]
    costs = [Fraction(k + 1, 9 * p) for k, p in enumerate(reversed(primes))]
    owners = (0, 1, 0, 1, 2)
    return with_table(Instance(
        3, tuple(Action(a, owners[a], costs[a]) for a in range(5)),
        AdditiveOracle(weights + [Fraction(1, primes[4])])))
