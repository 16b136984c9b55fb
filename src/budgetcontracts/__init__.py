"""Budgeted multi-agent linear contracts with combinatorial actions.

All decision logic runs on exact rationals (``fractions.Fraction``); floats
appear only in CSV report columns meant for plotting.
"""

from budgetcontracts.core import (
    Action,
    ActionProfile,
    Contract,
    GeneralContract,
    Instance,
    cost,
    restrict_contract,
)

__all__ = [
    "Action",
    "ActionProfile",
    "Contract",
    "GeneralContract",
    "Instance",
    "cost",
    "restrict_contract",
]
