import json
import random
import re
import sys
from dataclasses import replace
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
    OracleRangeViolationError,
    RationalParseError,
    UnknownActionIdError,
    UnknownAgentIdError,
    cost,
    format_rational,
    parse_ratio,
    parse_rational,
    restrict_contract,
)
from budgetcontracts.hardness import HardnessParams, InvalidEpsilonError, \
    build_hardness, good_action
from budgetcontracts.objectives import PROFIT, REWARD, WELFARE, Objective, \
    combo
from budgetcontracts.rewards import AdditiveOracle, oracle_from_spec

from contract_pairs import UncheckedExplicit


def two_agent_instance():
    return Instance(2, (Action(0, 0, F(1, 2)), Action(1, 1, F(1, 3))),
                    AdditiveOracle([F(1, 4), F(1, 2)]))


def test_validate_well_formed():
    inst = two_agent_instance()
    assert inst.oracle.num_actions == inst.num_actions == 2


def test_validate_negative_cost():
    with pytest.raises(NegativeCostError):
        Instance(1, (Action(0, 0, F(-1)),), AdditiveOracle([F(1, 2)]))


def test_validate_duplicate_id():
    with pytest.raises(DuplicateActionIdError):
        Instance(1, (Action(0, 0, F(0)), Action(0, 0, F(0))),
                 AdditiveOracle([F(1, 4), F(1, 4)]))


def test_ids_outside_0_to_m_set_no_mask_bit_and_fail_validation():
    # the ids are checked before any mask is built: a huge id allocates nothing
    for bad in (-1, 1, 10 ** 18):
        with pytest.raises(DuplicateActionIdError, match="exactly 0..m-1"):
            Instance(1, (Action(bad, 0, F(0)),), AdditiveOracle([F(1, 4)]))


def test_validate_checks_the_agent_count_first():
    # with no agent every owner is unknown; the count is what is wrong
    for n in (0, -2):
        with pytest.raises(ModelError, match="need at least one agent"):
            Instance(n, (Action(0, 0, F(0)),), AdditiveOracle([F(1, 4)]))


@pytest.mark.parametrize("n,actions,error,message", [
    (0, [(0, 5, -1), (0, 0, 0)], ModelError, "need at least one agent"),
    (1, [(0, 5, -1)], UnknownAgentIdError, "owned by unknown agent 5"),
    (1, [(0, 0, -1), (0, 0, 0)], NegativeCostError, "cost -1 < 0"),
    (1, [(0, 0, 0), (0, 3, -1)], DuplicateActionIdError, "appears twice"),
    (1, [(1, 0, -1)], NegativeCostError, "cost -1 < 0"),
    (1, [(1, 0, 0), (2, 0, 0)], DuplicateActionIdError, "exactly 0..m-1"),
])
def test_instance_refuses_the_first_fault_in_order(n, actions, error, message):
    # the agent count, then per action a duplicate id, an unknown owner and
    # a negative cost, then ids not exactly 0..m-1
    with pytest.raises(error, match=message):
        Instance(n, tuple(Action(a, o, F(c)) for a, o, c in actions),
                 AdditiveOracle([F(1, 4)] * len(actions)))


def test_instance_refuses_an_oracle_of_another_width():
    inst = two_agent_instance()
    for width in (1, 3):
        with pytest.raises(ModelError, match=f"oracle covers {width} actions, "
                                             "instance has 2"):
            replace(inst, oracle=AdditiveOracle([F(1, 4)] * width))
    # after the structural checks: a negative cost is reported first
    with pytest.raises(NegativeCostError):
        Instance(1, (Action(0, 0, F(-1)),), AdditiveOracle([F(1, 4)] * 2))


@pytest.mark.parametrize("spec,error,message", [
    pytest.param({"type": "additive", "weights": ["3/4", "1/2"]},
                 OracleRangeViolationError, "sum to <= 1", id="additive-above"),
    pytest.param({"type": "additive", "weights": ["-1/4", "1/2"]},
                 OracleRangeViolationError, ">= 0", id="additive-negative"),
    pytest.param({"type": "unit_demand", "weights": ["1/4", "3/2"]},
                 OracleRangeViolationError, r"in \[0, 1\]",
                 id="unit_demand-above"),
    pytest.param({"type": "unit_demand", "weights": ["-1/4"]},
                 OracleRangeViolationError, r"in \[0, 1\]",
                 id="unit_demand-negative"),
    pytest.param({"type": "uniform_k_demand", "num_actions": 4, "k": 3,
                  "v": "1/2"}, OracleRangeViolationError, r"in \[0, 1\]",
                 id="uniform_k-above"),
    pytest.param({"type": "uniform_k_demand", "num_actions": 4, "k": 1,
                  "v": "-1/4"}, OracleRangeViolationError, r"in \[0, 1\]",
                 id="uniform_k-negative"),
    pytest.param({"type": "oxs", "values": [["3/4", "0"], ["0", "3/4"]]},
                 OracleRangeViolationError, "exceeds 1", id="oxs-above"),
    pytest.param({"type": "oxs", "values": [["-1/4"]]},
                 OracleRangeViolationError, ">= 0", id="oxs-negative"),
    pytest.param({"type": "coverage", "universe_size": 2, "covers": [[0], [2]]},
                 ModelError, "outside universe", id="coverage-element"),
    pytest.param({"type": "coverage", "universe_size": 0, "covers": [[]]},
                 ModelError, "nonempty", id="coverage-universe"),
    pytest.param({"type": "explicit", "values": ["1/10", "1/2"]},
                 ModelError, r"f\(empty\) = 0", id="explicit-empty"),
    pytest.param({"type": "explicit", "values": ["0", "3/2"]},
                 OracleRangeViolationError, "3/2 outside", id="explicit-above"),
    pytest.param({"type": "hardness", "n": 4, "eps": "1/5", "hidden": [0, 1]},
                 InvalidEpsilonError, r"1/\(n\+2\)", id="hardness-above"),
])
def test_oracle_construction_refuses_an_invalid_value(spec, error, message):
    # what every family guarantees, so no later check reads f for it: f of
    # the empty set is 0 and every value lies in [0, 1]
    with pytest.raises(error, match=message):
        oracle_from_spec(spec)


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


def _big_exponent(text):
    """Whether ``text`` ends in an exponent above the int digit limit, which
    is refused before ``Fraction`` builds 10^exponent."""
    end = re.search(r"[eE]([-+]?[\d_]+)\s*\Z", text) \
        if isinstance(text, str) else None
    try:
        return bool(end) and abs(int(end[1])) > sys.get_int_max_str_digits()
    except ValueError:  # not an int, or more digits than the limit
        return False


def _fraction_or_none(text):
    """What ``Fraction`` makes of the stripped text, None when it fails or
    when the text ends in too large an exponent."""
    if _big_exponent(text):
        return None
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
        elif _big_exponent(text):
            assert str(err.value) == (f"rational exponent above {limit} in "
                                      f"absolute value: {text[:40]!r}")
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
                 "1e4301", "1e-4301", "1E+4_301", "0e99999999999",
                 "--1e5000", " 7.5E-0004301 ", "2.5e-3", "1e300", "1e-4300",
                 "1e" + "9" * 4301, True, 1.0, None, b"3/4"):
        _check_parse(text)
    assert parse_rational(7) == 7 and parse_rational(-2) == -2


def test_parse_rational_refuses_no_exponent_without_a_digit_limit():
    # the named cases hold the refusals under the default limit of 4300
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert parse_ratio("1e-4301") == (1, 10 ** 4301)
    finally:
        sys.set_int_max_str_digits(limit)


def test_rational_json_roundtrip_bit_exact():
    values = [F(-7, 3), F(0), F(355, 113), F(1, 2 ** 40)]
    blob = json.dumps([format_rational(v) for v in values])
    back = [parse_rational(s) for s in json.loads(blob)]
    assert back == values
