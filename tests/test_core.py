import json
import random
import re
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from budgetcontracts.core import (
    Action,
    Contract,
    DuplicateActionIdError,
    GeneralContract,
    Instance,
    ModelError,
    NegativeCostError,
    NonzeroEmptyValueError,
    RationalParseError,
    UnknownActionIdError,
    cost,
    format_rational,
    parse_ratio,
    parse_rational,
    restrict_contract,
    validate_instance,
)
from budgetcontracts.hardness import HardnessParams, build_hardness, good_action
from budgetcontracts.objectives import PROFIT, REWARD, WELFARE, Objective, \
    combo
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
    parts = sum((cost(inst, profile & own) for own in inst.agent_actions),
                F(0))
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


def test_objective_rejects_float_and_bool_weights():
    assert combo(("1/3", WELFARE), (F(2, 3), PROFIT)).terms == \
        ((F(1, 3), WELFARE), (F(2, 3), PROFIT))
    assert Objective("combo", ((1, REWARD),)).terms == ((F(1), REWARD),)
    # Objective checks its weights, so combo() is covered too
    for terms in (((0.5, PROFIT), (0.5, REWARD)), ((0.5, PROFIT), (0.5, WELFARE)),
                  ((True, PROFIT),)):
        with pytest.raises(RationalParseError):
            Objective("combo", terms)
        with pytest.raises(RationalParseError):
            combo(*terms)


def test_general_contract_rejects_floats_and_bools():
    t = GeneralContract((0, "1/4"), (F(1, 2), 1))
    assert t.pay_on_failure == (F(0), F(1, 4))
    assert t.pay_on_success == (F(1, 2), F(1))
    for failure, success in (((0.1, F(0)), (F(1, 2), F(1, 2))),
                             ((F(0), F(0)), (F(3, 5), True)),
                             ((0.1, 0.0), (0.6, True))):
        with pytest.raises(RationalParseError):
            GeneralContract(failure, success)


def test_restrict_contract_cases():
    alpha = Contract.of([F(1, 4), F(1, 4)])
    assert restrict_contract(alpha, {1}).alpha == (F(0), F(1, 4))
    assert restrict_contract(alpha, set()).alpha == (F(0), F(0))
    assert restrict_contract(alpha, {0, 1}) == alpha


@settings(deadline=None, derandomize=True, database=None)
@given(st.sets(st.integers(min_value=0, max_value=3)),
       st.lists(st.fractions(min_value=0, max_value=1), min_size=4, max_size=4))
def test_restrict_contract_idempotent(group, values):
    alpha = Contract.of(values)
    once = restrict_contract(alpha, group)
    assert restrict_contract(once, group) == once


@settings(deadline=None, derandomize=True, database=None)
@given(st.fractions())
def test_rational_roundtrip(q):
    assert parse_rational(format_rational(q)) == q


def test_rational_parse_errors():
    with pytest.raises(RationalParseError):
        parse_rational("1/0")
    with pytest.raises(RationalParseError):
        parse_rational("not-a-number")


def _fraction_or_none(text):
    """What ``Fraction`` makes of the stripped text, None when it fails."""
    try:
        return F(text.strip())
    except (AttributeError, TypeError, ValueError, ZeroDivisionError):
        return None


def _check_parse(text):
    want = _fraction_or_none(text)
    if want is None:
        with pytest.raises(RationalParseError) as err:
            parse_rational(text)
        # a run of digits past the int limit is reported as too long, cut
        limit = sys.get_int_max_str_digits()
        runs = re.findall(r"\d+", text) if isinstance(text, str) else []
        if max(map(len, runs), default=0) > limit:
            assert str(err.value).startswith(
                f"rational too long to parse: more than {limit} digits")
            assert len(str(err.value)) < 120
        else:
            assert str(err.value) == f"not a valid rational: {text!r}"
    else:
        got = parse_rational(text)
        assert type(got) is F and got == want, text
        assert parse_ratio(text) == got.as_integer_ratio()  # reduced, q > 0


_DIGITS = st.one_of(
    st.text("0123456789", max_size=6), st.text("01_", max_size=5),
    st.text("09\u0663\u07c3\u00b2", max_size=3),  # Arabic-Indic, NKo, ²
    st.sampled_from(["0", "000", "1" * 4300, "9" * 4301, "7" * 5000]))
_PARTS = (st.sampled_from(["", " ", "\t", "\n", "\u2003"]),
          st.sampled_from(["", "-", "+", "--", "-+"]), _DIGITS,
          st.sampled_from(["", ".", ".5", "e3", "E-2", ".25e1"]),
          st.sampled_from(["", "/", "/", "/ ", " /", "//", "/-", "/+"]),
          _DIGITS, st.sampled_from(["", "", " ", "e1", ".0"]))


_PLAIN = (st.sampled_from(["", "-"]), st.text("0123456789", min_size=1),
          st.sampled_from(["", "/"]), st.text("0123456789", min_size=1))


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.one_of(st.tuples(*_PLAIN), st.tuples(*_PARTS)).map("".join))
def test_parse_rational_agrees_with_fraction(text):
    _check_parse(text)


def test_parse_rational_named_cases():
    for text in ("3/4", "-3/4", "007/010", "-0", "0/5", "12", "+3/4",
                 " 3/4 ", "1_0/3", "\u0663/4", "1e3", "1.5", "3/ 4", "3/0",
                 "3/00", "-/4", "3/", "/4", "-", "", "3/4/5", "--3",
                 "1" * 5000, "1/" + "2" * 5000, "1" * 4300 + "/7",
                 True, 1.0, None, b"3/4"):
        _check_parse(text)
    assert parse_rational(7) == 7 and parse_rational(-2) == -2


def test_rational_json_roundtrip_bit_exact():
    values = [F(-7, 3), F(0), F(355, 113), F(1, 2 ** 40)]
    blob = json.dumps([format_rational(v) for v in values])
    back = [parse_rational(s) for s in json.loads(blob)]
    assert back == values
