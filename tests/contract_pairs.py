"""The minimal-contract records as (mask, Contract) pairs, for the tests."""

from fractions import Fraction

from budgetcontracts.equilibria import contract_of, iter_min_contracts


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
