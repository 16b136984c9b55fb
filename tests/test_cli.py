import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from budgetcontracts import cli, hardness, objectives
from budgetcontracts.cli import (
    build_parser,
    emit_report,
    load_instance,
    main,
    parse_instance,
    parse_pair,
    serialize_instance,
)
from budgetcontracts.core import HARDNESS_N_LIMIT, Contract, RationalParseError, \
    SchemaError
from budgetcontracts.generators import (
    random_additive_instance,
    random_coverage_instance,
    random_explicit_monotone_instance,
    random_oxs_instance,
)
from budgetcontracts.hardness import HardnessOracle
from budgetcontracts.rewards import oracle_from_spec

MINIMAL = json.dumps({
    "numAgents": 2,
    "actions": [
        {"id": 0, "owner": 0, "cost": "1/8"},
        {"id": 1, "owner": 1, "cost": "1/4"},
    ],
    "reward": {"type": "additive", "weights": ["1/2", "1/4"]},
})


def test_parse_minimal_document():
    inst = parse_instance(MINIMAL)
    assert inst.num_agents == 2
    assert inst.cost_of[1] == F(1, 4)
    assert inst.oracle.value({0, 1}) == F(3, 4)


def test_parse_rejects_zero_denominator():
    doc = MINIMAL.replace("1/8", "1/0")
    with pytest.raises(RationalParseError):
        parse_instance(doc)


def test_parse_hardness_descriptor():
    doc = json.dumps({"reward": {
        "type": "hardness", "n": 4, "budget": "1/2", "hidden": [0, 1]}})
    inst = parse_instance(doc)
    assert isinstance(inst.oracle, HardnessOracle)
    assert inst.num_agents == 5
    assert inst.num_actions == 6


def test_instance_roundtrip_semantically_identical():
    for seed in (1, 2):
        inst = random_oxs_instance(seed, num_agents=2, num_actions=4)
        back = parse_instance(serialize_instance(inst))
        assert back.num_agents == inst.num_agents
        assert back.cost_of == inst.cost_of
        for mask in range(1 << inst.num_actions):
            s = frozenset(a for a in range(inst.num_actions) if mask & (1 << a))
            assert back.oracle.value(s) == inst.oracle.value(s)


def test_emit_report_empty_and_single():
    header_only = emit_report([], ["a", "b"], ["b"])
    assert header_only == "a,b,b_float\n"
    one = emit_report([{"a": "x", "b": F(1, 2)}], ["a", "b"], ["b"])
    assert one.splitlines()[1] == "x,1/2,0.5"


def test_cli_solve_and_brute_agree_on_ratio(tmp_path):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(serialize_instance(
        random_additive_instance(3, num_agents=2, num_actions=5)))
    solve_out = tmp_path / "solve.json"
    brute_out = tmp_path / "brute.json"
    assert main(["solve", "--instance", str(inst_path), "--budget", "1/2",
                 "--eps", "1/10", "--objective", "profit",
                 "--out", str(solve_out)]) == 0
    assert main(["brute", "--instance", str(inst_path), "--budget", "1/2",
                 "--objective", "profit", "--out", str(brute_out)]) == 0
    solve_doc = json.loads(solve_out.read_text())
    brute_doc = json.loads(brute_out.read_text())
    got = F(solve_doc["value"])
    opt = F(brute_doc["value"])
    assert got >= (1 - F(1, 10)) * opt


def test_cli_force_solver_mismatch_is_domain_error(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps({
        "numAgents": 1,
        "actions": [{"id": 0, "owner": 0, "cost": "1/8"}],
        "reward": {"type": "unit_demand", "weights": ["1/2"]},
    }))
    code = main(["solve", "--instance", str(inst_path), "--budget", "1/2",
                 "--force-solver", "fptas"])
    assert code == 1
    err = capsys.readouterr().err
    assert json.loads(err)["error"]["type"] == "ModelError"


def test_cli_single_fptas_rejects_non_profit(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps({
        "numAgents": 1,
        "actions": [{"id": 0, "owner": 0, "cost": "1/8"}],
        "reward": {"type": "explicit", "values": ["0", "1/2"]},
    }))
    code = main(["solve", "--instance", str(inst_path), "--budget", "1/2",
                 "--objective", "reward", "--force-solver", "single-fptas"])
    assert code == 1
    assert "profit" in capsys.readouterr().err


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["solve"])  # missing required flags
    assert exc.value.code == 2


def test_cli_verify_ne_good_pair(tmp_path, capsys):
    pair_path = tmp_path / "pair.json"
    gap_out = tmp_path / "gap.csv"
    assert main(["gap-report", "--n", "4", "--budget", "1/2",
                 "--hidden", "0,1", "--out", str(gap_out),
                 "--emit-good-pair", str(pair_path)]) == 0
    inst_doc = json.dumps({"reward": {
        "type": "hardness", "n": 4, "budget": "1/2", "hidden": [0, 1]}})
    inst_path = tmp_path / "hard.json"
    inst_path.write_text(inst_doc)
    capsys.readouterr()
    assert main(["verify-ne", "--instance", str(inst_path),
                 "--pair", str(pair_path)]) == 0
    assert capsys.readouterr().out.strip() == "true"
    alpha, profile = parse_pair(pair_path.read_text())
    assert alpha.total() == F(1, 2)
    gap_lines = gap_out.read_text().splitlines()
    assert len(gap_lines) == 2 and gap_lines[1].endswith(",1")


def test_cli_downsize_roundtrip(tmp_path):
    inst = random_oxs_instance(9, num_agents=2, num_actions=4)
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(serialize_instance(inst))
    brute_out = tmp_path / "brute.json"
    main(["brute", "--instance", str(inst_path), "--budget", "3/4",
          "--objective", "reward", "--out", str(brute_out)])
    down_out = tmp_path / "down.json"
    assert main(["downsize", "--instance", str(inst_path),
                 "--pair", str(brute_out), "--m-param", "6",
                 "--out", str(down_out)]) == 0
    doc = json.loads(down_out.read_text())
    assert "contract" in doc and "profile" in doc


def test_cli_verify_best(tmp_path):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(MINIMAL)
    out = tmp_path / "best.json"
    assert main(["verify-best", "--instance", str(inst_path),
                 "--objective", "profit", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True


@pytest.mark.parametrize("denominator", ["0", "-2"])
def test_cli_verify_best_rejects_nonpositive_denominator(denominator, capsys):
    assert main(["verify-best", "--instance", "gen:additive:seed=1,agents=2,actions=3",
                 "--denominator", denominator]) == 1
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == {
        "type": "ModelError",
        "message": f"grid denominator must be >= 1, got {denominator}"}


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_cli_verify_best_rejects_a_sample_budget_below_one(budget, capsys):
    assert main(["verify-best", "--instance", "gen:explicit:seed=1,agents=2,actions=3",
                 "--sample-budget", budget]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == {
        "type": "ModelError",
        "message": f"sample budget must be >= 1, got {budget}"}


def test_cli_verify_best_samples_a_huge_grid_without_building_it(capsys):
    # (d + 1)^2 grid contracts at d = 10^8: the sampled path draws 4096 of
    # them level by level and never lists the d + 1 levels
    start = time.process_time()
    assert main(["verify-best", "--instance", "gen:explicit:seed=1,agents=2,actions=3",
                 "--objective", "profit", "--denominator", "100000000"]) == 0
    assert time.process_time() - start < 10
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_verify_best_sampled_pool_is_the_pool_drawn_from_the_level_list(monkeypatch):
    made = []

    class Recorded(Contract):
        def __post_init__(self):
            super().__post_init__()
            made.append(self.alpha)

    monkeypatch.setattr(objectives, "Contract", Recorded)
    inst = load_instance("gen:explicit:seed=1,agents=2,actions=3")
    objectives.verify_best_properties(objectives.PROFIT, inst, denominator=5000,
                                      sample_budget=8, seed=3)
    rng = random.Random(3)
    levels = [F(k, 5000) for k in range(5001)]
    assert made[:4096] == [tuple(rng.choice(levels) for _ in range(2))
                           for _ in range(4096)]


def _run_verify_best(monkeypatch, source):
    """Run verify-best on ``source`` and return the instance it loaded."""
    loaded = []
    real_load = cli.load_instance

    def load(spec):
        loaded.append(real_load(spec))
        return loaded[-1]

    monkeypatch.setattr(cli, "load_instance", load)
    code = main(["verify-best", "--instance", source, "--objective", "welfare",
                 "--denominator", "4"])
    return code, loaded[0]


def test_cli_verify_best_reads_f_through_one_table(monkeypatch, capsys):
    code, inst = _run_verify_best(monkeypatch, "gen:additive:seed=2,agents=2,actions=6")
    assert code == 0
    assert inst.oracle.value_queries == 1 << 6


def test_cli_verify_best_refuses_a_large_instance_before_any_query(monkeypatch, capsys):
    code, inst = _run_verify_best(monkeypatch, "gen:additive:seed=2,agents=2,actions=13")
    assert code == 1
    assert _error_type(capsys) == "GroundSetTooLargeError"
    assert inst.oracle.value_queries == 0


def test_cli_hardness_experiment_row_count_and_determinism(tmp_path):
    out1 = tmp_path / "exp1.csv"
    out2 = tmp_path / "exp2.csv"
    summary = tmp_path / "summary.json"
    args = ["hardness-experiment", "--n", "4", "--budget", "1/2",
            "--trials", "25", "--query-budget", "50", "--seed", "3"]
    assert main(args + ["--out", str(out1), "--summary", str(summary)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    lines = out1.read_text().splitlines()
    assert len(lines) == 26  # header + one row per trial
    assert out1.read_text() == out2.read_text()
    doc = json.loads(summary.read_text())
    assert doc["trials"] == 25
    assert doc["baselineProb"] == "1/6"


def test_cli_generator_spec():
    inst = load_instance("gen:additive:seed=5,agents=2,actions=6")
    assert inst.num_agents == 2
    assert inst.num_actions == 6


def test_cli_missing_file_is_domain_error(capsys):
    code = main(["brute", "--instance", "/nonexistent/path.json",
                 "--budget", "1/2"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def _error_type(capsys):
    return json.loads(capsys.readouterr().err)["error"]["type"]


def test_cli_solve_eps_zero_is_domain_error(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(MINIMAL)
    code = main(["solve", "--instance", str(inst_path), "--budget", "1/2",
                 "--eps", "0", "--csv"])
    assert code == 1
    assert _error_type(capsys) == "ModelError"


def test_cli_solve_csv_reports_eps_used(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(MINIMAL)
    base = ["solve", "--instance", str(inst_path), "--budget", "1/2", "--csv"]
    for extra, eps in (([], "1/10"), (["--eps", "1/4"], "1/4")):
        assert main(base + extra) == 0
        header, row = capsys.readouterr().out.splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["eps"] == eps
        assert cells["factor"] == str(1 / (1 - F(eps)))


def test_cli_csv_rows_match_header(tmp_path, capsys):
    one_agent = tmp_path / "one.json"
    one_agent.write_text(json.dumps({
        "numAgents": 1,
        "actions": [{"id": 0, "owner": 0, "cost": "1/8"},
                    {"id": 1, "owner": 0, "cost": "1/4"}],
        "reward": {"type": "explicit", "values": ["0", "1/2", "1/2", "3/4"]},
    }))
    runs = [
        ["solve", "--instance", "gen:additive:seed=3,agents=2,actions=5",
         "--budget", "1/2", "--force-solver", "fptas"],
        ["solve", "--instance", str(one_agent), "--budget", "1/2",
         "--force-solver", "single-fptas"],
        ["solve", "--instance", "gen:oxs:seed=2,agents=2,actions=4",
         "--budget", "1/2", "--force-solver", "gs-pipeline"],
        ["solve", "--instance", "gen:additive:seed=3,agents=2,actions=5",
         "--budget", "1/2", "--force-solver", "brute"],
        ["brute", "--instance", "gen:additive:seed=3,agents=2,actions=5",
         "--budget", "1/2"],
    ]
    for argv in runs:
        assert main(argv + ["--csv"]) == 0, argv
    gap_out = tmp_path / "gap.csv"
    assert main(["gap-report", "--n", "4", "--budget", "1/2",
                 "--hidden", "0,1", "--out", str(gap_out)]) == 0
    text = capsys.readouterr().out + gap_out.read_text()
    lines = text.splitlines()
    assert len(lines) == 2 * (len(runs) + 1)
    for header, row in zip(lines[::2], lines[1::2]):
        assert row.count(",") == header.count(","), (header, row)


def test_cli_integer_cost_is_exact_and_float_is_rejected(tmp_path, capsys):
    doc = json.loads(MINIMAL)
    doc["actions"][0]["cost"] = 0
    assert parse_instance(json.dumps(doc)).cost_of[0] == 0
    inst_path = tmp_path / "inst.json"
    for bad in (0.125, True, None):
        doc["actions"][0]["cost"] = bad
        inst_path.write_text(json.dumps(doc))
        assert main(["solve", "--instance", str(inst_path),
                     "--budget", "1/2"]) == 1
        assert _error_type(capsys) == "RationalParseError"


def test_cli_brute_rejects_budget_above_one(capsys):
    code = main(["brute", "--instance", "gen:additive:seed=3,agents=2,actions=4",
                 "--budget", "3"])
    assert code == 1
    assert _error_type(capsys) == "ModelError"


def _mutated(change):
    doc = json.loads(MINIMAL)
    change(doc)
    return doc


@pytest.mark.parametrize("doc", [
    _mutated(lambda d: d.update(numAgents="x")),
    _mutated(lambda d: d.update(numAgents=1.5)),
    _mutated(lambda d: d["actions"][0].update(id="x")),
    _mutated(lambda d: d["actions"][0].update(id=0.5)),
    _mutated(lambda d: d["actions"][1].update(owner="x")),
    _mutated(lambda d: d["actions"][1].update(owner=[1])),
    _mutated(lambda d: d.update(reward=["1/2", "1/4"])),
    _mutated(lambda d: d.update(actions={"id": 0})),
    _mutated(lambda d: d.update(actions=None)),
    _mutated(lambda d: d["actions"].__setitem__(1, 7)),
    {"reward": {"type": "hardness", "n": 4, "budget": "1/2"}, "actions": 6},
], ids=["numAgents-string", "numAgents-float", "id-string", "id-float",
        "owner-string", "owner-list", "reward-list", "actions-object",
        "actions-null", "action-record-number", "hardness-actions-number"])
def test_cli_malformed_instance_is_schema_error(doc, tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(doc))
    assert main(["solve", "--instance", str(inst_path),
                 "--budget", "1/2"]) == 1
    assert _error_type(capsys) == "SchemaError"


def test_cli_refuses_more_agents_than_actions(tmp_path, capsys):
    # refused before the instance allocates one action set per agent
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps({
        "numAgents": 300000,
        "actions": [{"id": 0, "owner": 0, "cost": "1/8"}],
        "reward": {"type": "additive", "weights": ["1/2"]}}))
    assert main(["solve", "--instance", str(inst_path),
                 "--budget", "1/2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert err["type"] == "SchemaError" and "300000" in err["message"]


@pytest.mark.parametrize("num_agents", [0, -1, "-3"])
def test_cli_refuses_fewer_than_one_agent(tmp_path, capsys, num_agents):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps({
        "numAgents": num_agents,
        "actions": [{"id": 0, "owner": 0, "cost": "1/8"}],
        "reward": {"type": "additive", "weights": ["1/2"]}}))
    assert main(["solve", "--instance", str(inst_path),
                 "--budget", "1/2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert err == {"type": "SchemaError",
                   "message": f"numAgents {int(num_agents)} below 1"}


def _with_reward(reward):
    return _mutated(lambda d: d.update(reward=reward))


@pytest.mark.parametrize("doc,error", [
    (_with_reward({"type": "additive", "weights": 5}), "SchemaError"),
    (_with_reward({"type": "unit_demand"}), "SchemaError"),
    (_with_reward({"type": "explicit"}), "SchemaError"),
    (_with_reward({"type": "explicit", "values": []}), "ModelError"),
    (_with_reward({"type": "oxs", "values": [["1/4"], "1/2"]}), "SchemaError"),
    (_with_reward({"type": "coverage", "universe_size": "x",
                   "covers": [[0], [1]]}), "SchemaError"),
    (_with_reward({"type": "coverage", "universe_size": 2,
                   "covers": [[0], [1.0]]}), "SchemaError"),
    (_with_reward({"type": "coverage", "universe_size": 2,
                   "covers": [[0], 1]}), "SchemaError"),
    (_with_reward({"type": "uniform_k_demand", "num_actions": 2, "k": 1.5,
                   "v": "1/4"}), "SchemaError"),
    (_with_reward({"type": "uniform_k_demand", "num_actions": 2.0, "k": 1,
                   "v": "1/4"}), "SchemaError"),
    ({"reward": {"type": "hardness", "n": "x", "budget": "1/2"}}, "SchemaError"),
    ({"reward": {"type": "hardness", "n": 4, "budget": "1/2",
                 "hidden": [0, 1.5]}}, "SchemaError"),
    ({"reward": {"type": "hardness", "n": 4}}, "SchemaError"),
    ({"reward": {"type": "hardness", "n": 4, "budget": "0"}}, "ModelError"),
], ids=["additive-weights-number", "unit-demand-weights-missing",
        "explicit-values-missing", "explicit-values-empty", "oxs-row-string",
        "coverage-universe-string", "coverage-member-float",
        "coverage-cover-number", "uniform-k-float", "uniform-num-actions-float",
        "hardness-n-string", "hardness-hidden-float", "hardness-budget-missing",
        "hardness-budget-zero"])
def test_cli_malformed_reward_descriptor_is_domain_error(doc, error, tmp_path,
                                                         capsys):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(doc))
    assert main(["solve", "--instance", str(inst_path),
                 "--budget", "1/2"]) == 1
    assert _error_type(capsys) == error


def _solve_explicit(tmp_path, values):
    inst_path = tmp_path / "explicit.json"
    inst_path.write_text(json.dumps({
        "numAgents": 1,
        "actions": [{"id": 0, "owner": 0, "cost": "1/8"},
                    {"id": 1, "owner": 0, "cost": "1/4"}],
        "reward": {"type": "explicit", "values": values}}))
    return main(["solve", "--instance", str(inst_path), "--budget", "1/2"])


@pytest.mark.parametrize("values,error,message", [
    (["0", "x/3", "1/2", "1/0"], "RationalParseError", "'x/3'"),
    (["0", "1/0", "1/2", "x/3"], "RationalParseError", "'1/0'"),
    ([0, True, 1, 1], "RationalParseError", "True"),
    ([0, 1, True, 1], "RationalParseError", "True"),
    (["0", "1", True, "1"], "RationalParseError", "True"),
    (["0", ["1/2"], "1/2", "1"], "RationalParseError", "['1/2']"),
    (["0", "1/2", {"v": "1/2"}, "1"], "RationalParseError", "{'v': '1/2'}"),
    ([0, 1, 1, 0], "ModelError", "not monotone"),
    ([0, 2, 1, 2], "OracleRangeViolationError", "outside"),
], ids=["first-malformed-x", "first-malformed-zero-den", "true",
        "true-after-int-one", "true-after-string-one", "unhashable-list",
        "unhashable-object", "int-not-monotone", "int-above-one"])
def test_cli_explicit_entry_errors(values, error, message, tmp_path, capsys):
    assert _solve_explicit(tmp_path, values) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == error and message in err["message"]


@pytest.mark.parametrize("spec", ["seed=4,agents=2,actions=6",
                                  "seed=9,agents=1,actions=8"])
def test_cli_explicit_reload_solves_byte_identically(spec, tmp_path, capsys):
    # the generator builds its table from Fractions, the reload from the
    # descriptor's strings: one table, one output
    source = f"gen:explicit:{spec}"
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(serialize_instance(load_instance(source)))
    outputs = []
    for where in (source, str(inst_path)):
        assert main(["solve", "--instance", where, "--budget", "1/2"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_cli_explicit_entries_parse_by_value(tmp_path, capsys):
    # 1 is taken where true is not; "2/4" is the level "1/2"; an all-int
    # table validates
    outputs = []
    for values in (["0", "1/2", "1/2", "1"], ["0", "1/2", "2/4", 1],
                   ["0", "2/4", "1/2", "1/1"]):
        assert _solve_explicit(tmp_path, values) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert _solve_explicit(tmp_path, [0, 1, 1, 1]) == 0


@pytest.mark.parametrize("n", ["0", "-2"])
def test_cli_gap_report_rejects_nonpositive_n(n, capsys):
    assert main(["gap-report", "--n", n]) == 1
    assert _error_type(capsys) == "OddNError"


def test_cli_gap_report_refuses_huge_n_before_building(monkeypatch, capsys):
    def build(*args, **kwargs):
        raise AssertionError("the hardness family was built")

    monkeypatch.setattr(cli.HardnessParams, "make", build)
    assert main(["gap-report", "--n", "2000000"]) == 1
    assert _error_type(capsys) == "GroundSetTooLargeError"


def test_cli_hardness_experiment_refuses_n_above_the_limit(tmp_path, monkeypatch,
                                                           capsys):
    # at the limit 1/C(n, n/2) still prints as baselineProb
    summary = tmp_path / "summary.json"
    assert main(["hardness-experiment", "--n", str(HARDNESS_N_LIMIT),
                 "--trials", "0", "--out", str(tmp_path / "exp.csv"),
                 "--summary", str(summary)]) == 0
    assert json.loads(summary.read_text())["baselineProb"].startswith("1/")

    def build(*args, **kwargs):
        raise AssertionError("the hardness family was built")

    monkeypatch.setattr(hardness, "build_hardness", build)
    for n in (HARDNESS_N_LIMIT + 2, 20000):
        assert main(["hardness-experiment", "--n", str(n), "--trials", "1"]) == 1
        assert _error_type(capsys) == "GroundSetTooLargeError"


def test_cli_hardness_experiment_trial_at_the_limit_is_fast(tmp_path):
    # each lazy read of f costs O(n) bit operations, not a frozenset
    import time

    out = tmp_path / "exp.csv"
    start = time.process_time()
    assert main(["hardness-experiment", "--n", str(HARDNESS_N_LIMIT),
                 "--trials", "1", "--out", str(out)]) == 0
    assert time.process_time() - start < 10
    assert len(out.read_text().splitlines()) == 2


@pytest.mark.parametrize("flag, value", [("--trials", "-2"),
                                         ("--query-budget", "-3")])
def test_cli_hardness_experiment_rejects_a_negative_count(flag, value, tmp_path,
                                                         monkeypatch, capsys):
    def build(*args, **kwargs):
        raise AssertionError("the hardness family was built")

    monkeypatch.setattr(hardness, "build_hardness", build)
    summary = tmp_path / "summary.json"
    assert main(["hardness-experiment", "--n", "4", flag, value,
                 "--summary", str(summary)]) == 1
    assert _error_type(capsys) == "ModelError"
    assert not summary.exists()


def test_cli_rational_too_long_to_print_is_domain_error(capsys):
    # the winning payment of the single-agent scheme at eps 1/3000 has a
    # numerator of more than 4300 digits
    assert main(["solve", "--instance", "gen:explicit:seed=7,agents=1,actions=10",
                 "--budget", "1", "--force-solver", "single-fptas",
                 "--eps", "1/3000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "ModelError"
    assert error["message"].startswith("rational too long to print")


def test_hardness_oracle_descriptor_rejects_string_n():
    with pytest.raises(SchemaError):
        oracle_from_spec({"type": "hardness", "n": "x", "eps": "1/64"})


def test_parse_hardness_descriptor_is_validated():
    # validation reads f(empty) and every singleton: m + 1 value queries
    doc = json.dumps({"reward": {
        "type": "hardness", "n": 4, "budget": "1/2", "hidden": [0, 1]}})
    inst = parse_instance(doc)
    assert inst.oracle.value_queries == inst.num_actions + 1


# -- golden solve outputs -------------------------------------------------------

# (case id, generator, seed, agents, actions, budget, objective, extra argv);
# explicit and coverage rewards go to the brute-force solver
GOLDEN_CASES = [
    ("explicit-profit", random_explicit_monotone_instance, 45, 2, 6, "1/2",
     "profit", ()),
    ("explicit-reward", random_explicit_monotone_instance, 46, 3, 7, "3/4",
     "reward", ()),
    ("explicit-welfare", random_explicit_monotone_instance, 44, 2, 8, "1/4",
     "welfare", ()),
    ("single-fptas-tenth", random_explicit_monotone_instance, 45, 1, 7, "1/2",
     "profit", ("--force-solver", "single-fptas", "--eps", "1/10")),
    ("single-fptas-quarter", random_explicit_monotone_instance, 46, 1, 9, "1",
     "profit", ("--force-solver", "single-fptas", "--eps", "1/4")),
    ("coverage-profit", random_coverage_instance, 56, 2, 7, "1/2", "profit", ()),
]
# recorded with golden_stdout before explicit tables and the single-agent
# envelope moved to integers; any change to these bytes must be deliberate
GOLDEN_PATH = Path(__file__).parent / "data" / "cli_golden.json"


def golden_stdout(case, csv: bool, directory: Path) -> str:
    """The ``solve`` stdout for one golden case, instance written to ``directory``."""
    name, gen, seed, agents, actions, budget, objective, extra = case
    inst_path = directory / f"{name}.json"
    inst_path.write_text(serialize_instance(gen(seed, agents, actions)))
    argv = ["solve", "--instance", str(inst_path), "--budget", budget,
            "--objective", objective, *extra] + (["--csv"] if csv else [])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("csv", [False, True], ids=["json", "csv"])
@pytest.mark.parametrize("case", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_cli_solve_output_is_pinned(case, csv, tmp_path):
    expected = json.loads(GOLDEN_PATH.read_text())[case[0]]["csv" if csv else "json"]
    assert golden_stdout(case, csv, tmp_path) == expected


def _fresh_process(argv):
    """(exit code, stdout, stderr) of ``python -m budgetcontracts argv``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "budgetcontracts", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def test_python_m_runs_the_cli():
    code, out, err = _fresh_process(["--help"])
    assert code == 0, err
    assert out.startswith("usage: budgetcontracts")


# -- golden outputs of the other subcommands and the experiment scripts ---------

# (case id, command lines run in order, files they write); "{dir}" stands
# for the case's scratch directory.  Commands starting with "scripts/" run
# as a separate Python process; only their files are pinned, because their
# stdout names the output path.
COMBO_SPEC = ('{"type":"combo","terms":[["1/3",{"type":"welfare"}],'
              '["2/3",{"type":"profit"}]]}')
GOLDEN_RUNS = [
    ("gs-unit-demand-profit",
     [["solve", "--instance", "gen:unit_demand:seed=11,agents=3,actions=7",
       "--budget", "1/2", "--objective", "profit"]], []),
    ("gs-oxs-reward-csv",
     [["solve", "--instance", "gen:oxs:seed=7,agents=4,actions=7",
       "--budget", "3/4", "--objective", "reward", "--csv"]], []),
    ("gs-uniform-k-welfare",
     [["solve", "--instance", "gen:uniform_k:seed=7,agents=3,actions=6",
       "--budget", "1/2", "--objective", "welfare"]], []),
    # a combo through the pipeline at B = 1: the winner pays 35/48 to one
    # agent
    ("gs-uniform-k-combo-budget-1",
     [["solve", "--instance", "gen:uniform_k:seed=5,agents=3,actions=8",
       "--budget", "1", "--objective", COMBO_SPEC]], []),
    ("gs-oxs-combo-budget-1-csv",
     [["solve", "--instance", "gen:oxs:seed=7,agents=3,actions=8",
       "--budget", "1", "--objective", COMBO_SPEC, "--csv"]], []),
    ("gs-oxs-welfare-budget-0",
     [["solve", "--instance", "gen:oxs:seed=2,agents=3,actions=5",
       "--budget", "0", "--objective", "welfare"]], []),
    ("additive-m12-profit",
     [["solve", "--instance", "gen:additive:seed=3,agents=3,actions=12",
       "--budget", "1/2", "--objective", "profit"]], []),
    ("additive-m14-welfare-csv",
     [["solve", "--instance", "gen:additive:seed=6,agents=4,actions=14",
       "--budget", "1/2", "--objective", "welfare", "--csv"]], []),
    ("additive-m16-profit",
     [["solve", "--instance", "gen:additive:seed=5,agents=2,actions=16",
       "--budget", "1/2", "--objective", "profit"]], []),
    ("additive-m16-reward-csv",
     [["solve", "--instance", "gen:additive:seed=5,agents=2,actions=16",
       "--budget", "1/2", "--objective", "reward", "--csv"]], []),
    ("downsize-gs-oxs",
     [["brute", "--instance", "gen:oxs:seed=7,agents=4,actions=7",
       "--budget", "3/4", "--objective", "reward", "--out", "{dir}/pair.json"],
      ["downsize", "--instance", "gen:oxs:seed=7,agents=4,actions=7",
       "--pair", "{dir}/pair.json", "--m-param", "3"]], ["pair.json"]),
    ("downsize-gs-unit-demand",
     [["brute", "--instance", "gen:unit_demand:seed=4,agents=4,actions=8",
       "--budget", "1", "--objective", "reward", "--out", "{dir}/pair.json"],
      ["downsize", "--instance", "gen:unit_demand:seed=4,agents=4,actions=8",
       "--pair", "{dir}/pair.json"]], ["pair.json"]),
    ("downsize-coverage",
     [["brute", "--instance", "gen:coverage:seed=11,agents=4,actions=7",
       "--budget", "3/4", "--objective", "reward", "--out", "{dir}/pair.json"],
      ["downsize", "--instance", "gen:coverage:seed=11,agents=4,actions=7",
       "--pair", "{dir}/pair.json", "--m-param", "3",
       "--out", "{dir}/down.json"]], ["pair.json", "down.json"]),
    # M = 14 reaches the grouping: the payment falls from 25/128 to 5/128
    ("downsize-coverage-m14",
     [["brute", "--instance", "gen:coverage:seed=3,agents=4,actions=8",
       "--budget", "1", "--objective", "reward", "--out", "{dir}/pair.json"],
      ["downsize", "--instance", "gen:coverage:seed=3,agents=4,actions=8",
       "--pair", "{dir}/pair.json", "--m-param", "14"]], ["pair.json"]),
    # agent 4 is paid above p/M but cannot exit alone: the rest is doubled
    # plus epsilon, 1/16 -> 11/72 for agent 1
    ("downsize-coverage-doubled",
     [["brute", "--instance", "gen:coverage:seed=14,agents=6,actions=8",
       "--budget", "1/2", "--objective", "reward", "--out", "{dir}/pair.json"],
      ["downsize", "--instance", "gen:coverage:seed=14,agents=6,actions=8",
       "--pair", "{dir}/pair.json", "--m-param", "3"]], ["pair.json"]),
    ("verify-ne-out",
     [["brute", "--instance", "gen:coverage:seed=11,agents=4,actions=7",
       "--budget", "3/4", "--objective", "reward", "--out", "{dir}/pair.json"],
      ["verify-ne", "--instance", "gen:coverage:seed=11,agents=4,actions=7",
       "--pair", "{dir}/pair.json", "--out", "{dir}/ne.json"],
      ["verify-ne", "--instance", "gen:coverage:seed=12,agents=4,actions=7",
       "--pair", "{dir}/pair.json", "--out", "{dir}/ne12.json"]],
     ["ne.json", "ne12.json"]),
    ("verify-best",
     [["verify-best", "--instance", "gen:additive:seed=2,agents=2,actions=4",
       "--objective", "welfare", "--denominator", "4"],
      ["verify-best", "--instance", "gen:coverage:seed=3,agents=2,actions=4",
       "--objective", "profit", "--denominator", "4", "--sample-budget",
       "400", "--seed", "5"]], []),
    ("gap-report-good-pair",
     [["gap-report", "--n", "6", "--budget", "1/2", "--seed", "4",
       "--emit-good-pair", "{dir}/good.json"]], ["good.json"]),
    ("hardness-experiment",
     [["hardness-experiment", "--n", "6", "--budget", "1/3", "--trials", "6",
       "--query-budget", "40", "--seed", "2", "--out", "{dir}/exp.csv",
       "--summary", "{dir}/summary.json"]], ["exp.csv", "summary.json"]),
    ("script-approximation-sweep",
     [["scripts/run_approximation_sweep.py", "--instances", "2",
       "--out", "{dir}/sweep.csv"]], ["sweep.csv"]),
    ("script-reduction-report",
     [["scripts/run_reduction_report.py", "--instances", "2",
       "--out", "{dir}/reduction.csv"]], ["reduction.csv"]),
    ("script-hardness-experiment",
     [["scripts/run_hardness_experiment.py", "--trials", "5",
       "--out-dir", "{dir}"]],
     [f"{kind}_n{n}.{ext}" for n in (4, 6, 8)
      for kind, ext in (("experiment", "csv"), ("summary", "json"))]),
]
REPO = Path(__file__).resolve().parent.parent


def golden_run(case, directory: Path) -> dict:
    """The stdout and written files of one golden run, made in ``directory``."""
    _, commands, files = case
    stdout = io.StringIO()
    for command in commands:
        argv = [arg.replace("{dir}", str(directory)) for arg in command]
        if argv[0].startswith("scripts/"):
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(REPO / "src")]
                + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
            proc = subprocess.run([sys.executable, str(REPO / argv[0]), *argv[1:]],
                                  capture_output=True, text=True, env=env,
                                  timeout=300)
            assert proc.returncode == 0, proc.stderr
            continue
        with contextlib.redirect_stdout(stdout):
            assert main(argv) == 0, argv
    return {"stdout": stdout.getvalue(),
            "files": {name: (directory / name).read_text() for name in files}}


@pytest.mark.parametrize("case", GOLDEN_RUNS, ids=[c[0] for c in GOLDEN_RUNS])
def test_cli_run_output_is_pinned(case, tmp_path):
    expected = json.loads(GOLDEN_PATH.read_text())[case[0]]
    assert golden_run(case, tmp_path) == expected


# -- malformed pair documents and other argv/JSON inputs ------------------------

PAIR_INSTANCE = "gen:additive:seed=1,agents=2,actions=3"


@pytest.mark.parametrize("text", [
    json.dumps({"contract": ["1/2"], "profile": [0]}),
    json.dumps({"contract": ["0", "0", "1/4"], "profile": [0]}),
    json.dumps({"contract": ["0", "0"], "profile": ["x"]}),
    "{not json",
    json.dumps({"contract": "1/2", "profile": [0]}),
    json.dumps({"contract": ["0", "1/4"], "profile": 0}),
    json.dumps({"contract": ["0", "1/4"], "profile": [1, 7]}),
], ids=["contract-short", "contract-long", "profile-string-id", "not-json",
        "contract-string", "profile-not-list", "profile-outside-ground-set"])
def test_cli_malformed_pair_is_schema_error(text, tmp_path, capsys):
    pair_path = tmp_path / "pair.json"
    pair_path.write_text(text)
    for command in ("verify-ne", "downsize"):
        assert main([command, "--instance", PAIR_INSTANCE,
                     "--pair", str(pair_path)]) == 1
        assert _error_type(capsys) == "SchemaError"


@pytest.mark.parametrize("argv", [
    ["solve", "--instance", "gen:additive:seed=x", "--budget", "1/2"],
    ["solve", "--instance", "gen:additive:seed=1,agents=0", "--budget", "1/2"],
    ["solve", "--instance", "gen:additive:seed=1,actions=0", "--budget", "1/2"],
    ["solve", "--instance", PAIR_INSTANCE, "--budget", "1/2",
     "--objective", "{bad"],
    ["solve", "--instance", PAIR_INSTANCE, "--budget", "1/2",
     "--objective", '{"type": "combo"}'],
    ["solve", "--instance", PAIR_INSTANCE, "--budget", "1/2",
     "--objective", '{"type": "combo", "terms": 5}'],
    ["solve", "--instance", PAIR_INSTANCE, "--budget", "1/2",
     "--objective", '{"type": "combo", "terms": [["1", 5]]}'],
    ["gap-report", "--n", "4", "--hidden", "0,x"],
], ids=["generator-seed-string", "generator-zero-agents",
        "generator-zero-actions", "objective-not-json", "combo-without-terms",
        "combo-terms-number", "combo-term-objective-number",
        "gap-report-hidden-string"])
def test_cli_malformed_argument_is_schema_error(argv, capsys):
    assert main(argv) == 1
    assert _error_type(capsys) == "SchemaError"


@pytest.mark.parametrize("spec, message", [
    # the generator's own defaults: 4 agents on 2 actions
    ("gen:additive:seed=25", "numAgents 4 above 2 actions"),
    ("gen:additive:seed=1,agents=5,actions=3", "numAgents 5 above 3 actions"),
])
def test_cli_generator_spec_is_held_to_the_document_rule(spec, message, capsys):
    assert main(["solve", "--instance", spec, "--budget", "1/2"]) == 1
    assert json.loads(capsys.readouterr().err) == \
        {"error": {"type": "SchemaError", "message": message}}


@pytest.mark.parametrize("spec", [
    "gen:additive:seed=3,agents=2,actions=6", "gen:coverage:seed=3",
    "gen:oxs:seed=7,agents=3,actions=3", "gen:explicit:seed=2",
    "gen:gs:seed=9,agents=1,actions=1", "gen:unit_demand:seed=0"])
def test_cli_generator_spec_reloads_from_its_document(spec):
    text = serialize_instance(load_instance(spec))
    assert serialize_instance(parse_instance(text)) == text


def _same_process(argv):
    """(exit code, stdout, stderr) of ``main(argv)`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_cli_reuses_one_parser_across_runs(tmp_path):
    assert build_parser() is build_parser()
    pair_path = tmp_path / "pair.json"
    pair_path.write_text(json.dumps({"contract": ["0", "1/4"], "profile": [1]}))
    solve = ["solve", "--instance", PAIR_INSTANCE, "--budget", "1/2"]
    runs = [solve,
            ["solve", "--instance", PAIR_INSTANCE, "--no-such-flag"],
            ["verify-ne", "--instance", PAIR_INSTANCE, "--pair", str(pair_path)],
            solve + ["--csv"]]
    results = [_same_process(argv) for argv in runs]
    assert [code for code, _, _ in results] == [0, 2, 0, 0]
    assert results == [_fresh_process(argv) for argv in runs]


def test_cli_combo_solve_at_budget_zero_reads_f_once(capsys):
    for objective in ('{"type": "combo", "terms": [["1/2", "profit"], '
                      '["1/2", "reward"]]}',
                      '{"type": "combo", "terms": [["1/3", "profit"], '
                      '["1/3", "reward"], ["1/3", "welfare"]]}'):
        assert main(["solve", "--instance",
                     "gen:unit_demand:seed=3,agents=3,actions=6",
                     "--budget", "0", "--objective", objective]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["valueQueries"], doc["demandQueries"]) == (1, 0)


def test_cli_gap_report_rejects_a_repeated_hidden_id(tmp_path, capsys):
    out = tmp_path / "gap.csv"
    assert main(["gap-report", "--n", "4", "--hidden", "0,1,1,1",
                 "--out", str(out)]) == 1
    assert _error_type(capsys) == "BadHiddenSetSizeError"
    assert not out.exists()


def test_cli_hardness_descriptor_rejects_a_repeated_hidden_id(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps({"reward": {
        "type": "hardness", "n": 4, "budget": "1/2", "hidden": [0, 1, 1]}}))
    assert main(["solve", "--instance", str(inst_path), "--budget", "1/2"]) == 1
    assert _error_type(capsys) == "BadHiddenSetSizeError"
