"""The work-limit policy: one guard, three declared limits, no prefetch.

Every routine that walks subsets refuses an oversized input with
GroundSetTooLargeError before its first value query; below the limits a
solver reads f only where its algorithm needs it.
"""

import contextlib
import io
import json
import time
from fractions import Fraction as F

import pytest

from budgetcontracts.cli import main
from budgetcontracts.core import ENUM_LIMIT, GS_TESTER_LIMIT, \
    TESTER_LIMIT, Contract, GeneralContract, GroundSetTooLargeError, \
    ModelError, check_enumeration
from budgetcontracts.equilibria import best_response, is_nash, is_nash_general, \
    min_incentivizing_contract
from budgetcontracts.generators import random_additive_instance, \
    random_unit_demand_instance
from budgetcontracts.hardness import HardnessParams, verify_gap_exhaustive
from budgetcontracts.objectives import PROFIT, REWARD, verify_best_properties
from budgetcontracts.rewards import AssignmentOracle, PriceVector, \
    brute_force_demand, is_monotone, is_submodular, value_table, \
    with_table
from budgetcontracts.solvers import brute_force_opt, downsize, \
    gs_constant_factor, gs_single_agent_exact, max_reward_bounded_brute, \
    single_agent_fptas

from gs_tester import is_gross_substitutes

HALF = F(1, 2)
PAY = Contract.of([HALF])

# (entry point, limit, call on a one-agent instance of limit + 1 actions)
GUARDED = [
    ("value_table", ENUM_LIMIT, lambda inst: value_table(inst.oracle)),
    ("brute_force_opt", ENUM_LIMIT,
     lambda inst: brute_force_opt(inst, HALF, PROFIT)),
    ("max_reward_bounded_brute", ENUM_LIMIT,
     lambda inst: max_reward_bounded_brute(inst, HALF)),
    ("gs_constant_factor", ENUM_LIMIT,
     lambda inst: gs_constant_factor(inst, HALF, PROFIT)),
    ("gs_single_agent_exact", ENUM_LIMIT,
     lambda inst: gs_single_agent_exact(inst, 0, PROFIT, HALF)),
    ("brute_force_demand", ENUM_LIMIT,
     lambda inst: brute_force_demand(
         inst.oracle, PriceVector.of({a: 1 for a in inst.ground_set}))),
    ("min_incentivizing_contract", ENUM_LIMIT,
     lambda inst: min_incentivizing_contract(inst, {0})),
    ("is_nash", ENUM_LIMIT, lambda inst: is_nash(inst, PAY, {0})),
    ("is_nash_general", ENUM_LIMIT,
     lambda inst: is_nash_general(inst, GeneralContract((F(0),), (HALF,)), {0})),
    ("best_response", ENUM_LIMIT,
     lambda inst: best_response(inst, 0, HALF, (), gs=False)),
    ("single_agent_fptas", ENUM_LIMIT,
     lambda inst: single_agent_fptas(inst, HALF, F(1, 10))),
    ("is_monotone", TESTER_LIMIT, lambda inst: is_monotone(inst.oracle)),
    ("is_submodular", TESTER_LIMIT, lambda inst: is_submodular(inst.oracle)),
    ("is_gross_substitutes", GS_TESTER_LIMIT,
     lambda inst: is_gross_substitutes(inst.oracle)),
    ("verify_best_properties", GS_TESTER_LIMIT,
     lambda inst: verify_best_properties(PROFIT, inst)),
]


def test_limits_are_declared_once():
    assert (ENUM_LIMIT, TESTER_LIMIT, GS_TESTER_LIMIT) == (20, 16, 12)
    check_enumeration(ENUM_LIMIT, "items")
    check_enumeration(TESTER_LIMIT, "items", TESTER_LIMIT)
    with pytest.raises(GroundSetTooLargeError, match="items: 13 items exceed the limit 12"):
        check_enumeration(13, "items", GS_TESTER_LIMIT)
    assert issubclass(GroundSetTooLargeError, ModelError)


@pytest.mark.parametrize("name,limit,call", GUARDED, ids=[g[0] for g in GUARDED])
def test_guarded_entry_point_refuses_before_any_query(name, limit, call):
    inst = random_additive_instance(1, num_agents=1, num_actions=limit + 1)
    with pytest.raises(GroundSetTooLargeError):
        call(inst)
    assert (inst.oracle.value_queries, inst.oracle.demand_queries) == (0, 0)


def test_oxs_constructor_limits_its_columns():
    AssignmentOracle([[F(0)] * GS_TESTER_LIMIT])
    with pytest.raises(GroundSetTooLargeError):
        AssignmentOracle([[F(0)] * (GS_TESTER_LIMIT + 1)])


def test_gap_verification_follows_the_table_limit():
    with pytest.raises(GroundSetTooLargeError):
        verify_gap_exhaustive(HardnessParams.make(20, HALF))
    assert verify_gap_exhaustive(HardnessParams.make(12, HALF)).ok


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_explicit_generator_refuses_before_building_its_table():
    start = time.monotonic()
    code, _, err = _run(["solve", "--instance",
                         "gen:explicit:seed=1,agents=2,actions=21", "--budget", "1/2"])
    assert time.monotonic() - start < 1.0
    assert code == 1
    assert json.loads(err)["error"]["type"] == "GroundSetTooLargeError"


@pytest.mark.parametrize("m", [12, 16])
def test_budget_zero_gs_solve_reads_f_once(m):
    code, out, _ = _run(["solve", "--instance",
                         f"gen:unit_demand:seed=3,agents=3,actions={m}",
                         "--budget", "0"])
    assert code == 0
    assert json.loads(out)["valueQueries"] == 1


def test_cli_refuses_a_tiny_single_agent_eps_at_once():
    # eps is checked but sets no work: the answer, brute force's race on
    # the one agent, is exact at any eps
    start = time.monotonic()
    code, out, err = _run(["solve", "--instance",
                           "gen:additive:seed=1,agents=1,actions=4",
                           "--budget", "1/2", "--force-solver", "single-fptas",
                           "--eps", "1/100000"])
    assert time.monotonic() - start < 0.5
    assert (code, err) == (0, "")
    assert json.loads(out)["factor"] == "exact"


def test_downsize_without_a_table_reads_f_lazily():
    def fresh():
        return random_unit_demand_instance(4, num_agents=4, num_actions=8)

    pair = brute_force_opt(fresh(), F(1), REWARD)
    tabled = with_table(fresh())
    expected = downsize(tabled, 6, pair.contract, pair.profile)
    lazy = fresh()
    assert downsize(lazy, 6, pair.contract, pair.profile) == expected
    assert 0 < lazy.oracle.value_queries < 1 << lazy.num_actions
