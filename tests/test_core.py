import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from budgetcontracts.core import (
    Action,
    Contract,
    DuplicateActionIdError,
    Instance,
    ModelError,
    NegativeCostError,
    NonzeroEmptyValueError,
    RationalParseError,
    UnknownActionIdError,
    cost,
    format_rational,
    parse_rational,
    restrict_contract,
    validate_instance,
)
from budgetcontracts.hardness import HardnessParams, build_hardness, good_action
from budgetcontracts.rewards import AdditiveOracle, ExplicitOracle


def two_agent_instance():
    return Instance(2, (Action(0, 0, F(1, 2)), Action(1, 1, F(1, 3))),
                    AdditiveOracle([F(1, 4), F(1, 2)]))


def test_validate_well_formed():
    validate_instance(two_agent_instance())


def test_validate_negative_cost():
    inst = Instance(1, (Action(0, 0, F(-1)),), AdditiveOracle([F(1, 2)]))
    with pytest.raises(NegativeCostError):
        validate_instance(inst)


def test_validate_duplicate_id():
    inst = Instance(1, (Action(0, 0, F(0)), Action(0, 0, F(0))),
                    AdditiveOracle([F(1, 4), F(1, 4)]))
    with pytest.raises(DuplicateActionIdError):
        validate_instance(inst)


def test_ids_outside_0_to_m_set_no_mask_bit_and_fail_validation():
    # the agent masks take bits 0..m-1 only: a huge id allocates nothing
    for bad in (-1, 1, 10 ** 18):
        inst = Instance(1, (Action(bad, 0, F(0)),), AdditiveOracle([F(1, 4)]))
        assert inst.agent_masks == (0,)
        with pytest.raises(DuplicateActionIdError):
            validate_instance(inst)


def test_validate_checks_the_agent_count_first():
    # with no agent every owner is unknown; the count is what is wrong
    for n in (0, -2):
        inst = Instance(n, (Action(0, 0, F(0)),), AdditiveOracle([F(1, 4)]))
        with pytest.raises(ModelError, match="need at least one agent"):
            validate_instance(inst)


def test_validate_nonzero_empty_value():
    class Shifted(ExplicitOracle):
        def __init__(self):
            super().__init__([F(1, 10), F(1, 2)], validate=False)

    inst = Instance(1, (Action(0, 0, F(0)),), Shifted())
    with pytest.raises(NonzeroEmptyValueError):
        validate_instance(inst)


def test_cost_empty_and_sum():
    inst = two_agent_instance()
    assert cost(inst, frozenset()) == 0
    assert cost(inst, {0, 1}) == F(5, 6)


def test_cost_unknown_action():
    with pytest.raises(UnknownActionIdError):
        cost(two_agent_instance(), {7})


def test_cost_hardness_good_profile():
    # direct evaluation of the cost formulas: n/2 units at eps^3 plus the
    # good action at (1/2)(B - (n/2) eps^2)
    n, budget, eps = 4, F(1, 2), F(1, 100)
    params = HardnessParams(n, budget, F(1), eps, frozenset({0, 1}))
    inst = build_hardness(params)
    profile = frozenset({0, 1, good_action(n)})
    expected = 2 * eps ** 3 + F(1, 2) * (budget - 2 * eps ** 2)
    assert expected == F(2, 10 ** 6) + F(2499, 10 ** 4)
    assert cost(inst, profile) == expected


def test_cost_partition_additivity():
    inst = two_agent_instance()
    profile = frozenset({0, 1})
    parts = sum((cost(inst, inst.agent_part(profile, i))
                 for i in range(inst.num_agents)), F(0))
    assert parts == cost(inst, profile)


def test_contract_total_over_one_denominator():
    rng = random.Random(5)
    cases = [
        Contract.of(["1/2", "1/3", "2/7", "0", "5/12"]),  # mixed denominators
        Contract.zero(3),
        Contract(()),
        Contract.of([rng.randint(0, 9) * F(1, rng.choice((2, 3, 5, 8, 9, 49)))
                     for _ in range(10001)]),
    ]
    for alpha in cases:
        total = alpha.total()
        assert type(total) is F and total == sum(alpha.alpha, F(0))
    assert cases[0].total() == F(43, 28)
    assert str(cases[1].total()) == str(cases[2].total()) == "0"
    with pytest.raises(ModelError, match=">= 0"):
        Contract.of(["1/2", "-1/3"])


def test_contract_of_rejects_floats_and_bools():
    assert Contract.of([F(1, 2), 1, "1/3"]).alpha == (F(1, 2), 1, F(1, 3))
    for bad in ([0.5], [F(1, 2), True]):
        with pytest.raises(RationalParseError):
            Contract.of(bad)


def test_restrict_contract_cases():
    alpha = Contract.of([F(1, 4), F(1, 4)])
    assert restrict_contract(alpha, {1}).alpha == (F(0), F(1, 4))
    assert restrict_contract(alpha, set()).alpha == (F(0), F(0))
    assert restrict_contract(alpha, {0, 1}) == alpha


@settings(deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=3)),
       st.lists(st.fractions(min_value=0, max_value=1), min_size=4, max_size=4))
def test_restrict_contract_idempotent(group, values):
    alpha = Contract.of(values)
    once = restrict_contract(alpha, group)
    assert restrict_contract(once, group) == once


@settings(deadline=None)
@given(st.fractions())
def test_rational_roundtrip(q):
    assert parse_rational(format_rational(q)) == q


def test_rational_parse_errors():
    with pytest.raises(RationalParseError):
        parse_rational("1/0")
    with pytest.raises(RationalParseError):
        parse_rational("not-a-number")


def test_rational_json_roundtrip_bit_exact():
    values = [F(-7, 3), F(0), F(355, 113), F(1, 2 ** 40)]
    blob = json.dumps([format_rational(v) for v in values])
    back = [parse_rational(s) for s in json.loads(blob)]
    assert back == values
