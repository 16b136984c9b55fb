"""Fuzz the command-line boundary: instance documents and argv.

Whatever the input, ``main`` returns 0, 1 or 2 (argparse's usage exit),
never a traceback, and an exit of 1 writes exactly one JSON object
``{"error": {"type": ..., "message": ...}}`` to stderr.  Inputs stay small
(at most six actions, few trials) so that every run is quick.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from budgetcontracts.cli import main
from budgetcontracts.core import HARDNESS_N_LIMIT

ACTIONS = [{"id": a, "owner": a % 2, "cost": c}
           for a, c in enumerate(["1/8", "1/4", "0", "1/16"])]
BASE_DOCS = [
    {"numAgents": 2, "actions": ACTIONS,
     "reward": {"type": "additive", "weights": ["1/8", "1/4", "1/8", "1/16"]}},
    {"numAgents": 2, "actions": ACTIONS,
     "reward": {"type": "unit_demand", "weights": ["1/2", "1/4", "1", "0"]}},
    {"numAgents": 2, "actions": ACTIONS,
     "reward": {"type": "uniform_k_demand", "num_actions": 4, "k": 2, "v": "1/4"}},
    {"numAgents": 2, "actions": ACTIONS,
     "reward": {"type": "oxs", "values": [["1/4", "0"], ["0", "1/2"],
                                          ["1/8", "1/8"], ["1/2", "1/4"]]}},
    {"numAgents": 2, "actions": ACTIONS,
     "reward": {"type": "coverage", "universe_size": 4,
                "covers": [[0], [1, 2], [], [3, 0]]}},
    {"numAgents": 1, "actions": ACTIONS[:2],
     "reward": {"type": "explicit", "values": ["0", "1/4", "1/2", "3/4"]}},
    {"reward": {"type": "hardness", "n": 4, "budget": "1/2", "hidden": [0, 1]}},
]

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40),
    st.floats(-2, 2, allow_nan=False, width=32),
    st.sampled_from(["", "x", "0", "1", "-1", "1/2", "3/2", "-1/4", "1/0",
                     "0.5", "2", "type", "additive", "hardness", "explicit"]))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["id", "owner", "cost", "type", "n"]),
                      inner, max_size=3),
    max_leaves=6)


def _paths(node, prefix=()):
    """Every (container path, key) in a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix, key
        yield from _paths(child, prefix + (key,))


@st.composite
def instance_texts(draw):
    doc = copy.deepcopy(draw(st.sampled_from(BASE_DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        prefix, key = draw(st.sampled_from(paths))
        parent = doc
        for step in prefix:
            parent = parent[step]
        action = draw(st.sampled_from(["replace", "delete", "grow"]))
        if action == "delete":
            del parent[key]
        elif action == "grow" and isinstance(parent[key], list) \
                and len(parent[key]) < 6:
            parent[key].append(draw(VALUES))
        else:
            parent[key] = draw(VALUES)
    if draw(st.integers(0, 9)) == 0:
        return json.dumps(doc)[:draw(st.integers(0, 40))]  # truncated JSON
    return json.dumps(doc)


# "{dir}" in an argument stands for the test's scratch directory, which
# holds these files
FILES = {
    "instance.json": json.dumps(BASE_DOCS[0]),
    "pair.json": json.dumps({"contract": ["1/4", "1/4"], "profile": [0, 1]}),
    "bad-pair.json": json.dumps({"contract": [1.5], "profile": {"0": 1}}),
}

INSTANCES = ["{dir}/instance.json", "{dir}/missing.json", "{dir}",
             "gen:additive:seed=1,agents=2,actions=4",
             "gen:oxs:seed=2,agents=3,actions=5", "gen:coverage:seed=3",
             "gen:explicit:seed=4,agents=1,actions=3",
             "gen:unit_demand:seed=5,agents=6,actions=6",
             "gen:explicit:seed=1,agents=2,actions=21", "gen:gs:seed=x",
             "gen:nope", "gen:additive:actions=0", "gen:additive:bogus=1",
             "gen:", "gen:additive:seed"]
RATIONALS = ["0", "1/2", "1/3", "1", "3/2", "-1/2", "x", "1/0", "0.5", ""]
INTEGERS = ["-2", "0", "1", "2", "3", "4", "6", "7", "x", "2.5", ""]
OBJECTIVES = ["profit", "reward", "welfare", "nope", "{bad", "{dir}/no.json",
              '{"type": "combo", "terms": [["1/2", "profit"], ["1/2", "reward"]]}',
              '{"type": "combo", "terms": [["1", {"type": 5}]]}',
              '{"type": "combo", "terms": "x"}', "[]", '{"type": "profit"}']
OUTS = ["{dir}/out.txt", "{dir}", "{dir}/no/dir.txt"]

OPTIONS = {
    "--instance": INSTANCES, "--out": OUTS, "--budget": RATIONALS,
    "--eps": ["1/10", "1/3", "0", "1", "-1/2", "x", ""],
    "--objective": OBJECTIVES,
    "--force-solver": ["fptas", "single-fptas", "gs-pipeline", "brute", "other"],
    "--pair": ["{dir}/pair.json", "{dir}/bad-pair.json", "{dir}/missing.json"],
    "--m-param": INTEGERS, "--denominator": ["-1", "0", "1", "2", "x"],
    "--sample-budget": INTEGERS, "--seed": INTEGERS,
    "--n": ["-2", "0", "1", "2", "3", "4", "6", "20", "40",
            str(HARDNESS_N_LIMIT + 2), "x"],
    "--approx-target": ["1", "2", "1/2", "0", "x"],
    "--trials": ["0", "1", "3", "-1", "x"], "--query-budget": INTEGERS,
    "--summary": OUTS, "--hidden": ["0,1", "0", "0,x", "", "9,9", "-1,0"],
    "--emit-good-pair": OUTS, "--csv": None,
}
SUBCOMMANDS = {
    "solve": ["--instance", "--out", "--budget", "--eps", "--objective",
              "--force-solver", "--csv"],
    "brute": ["--instance", "--out", "--budget", "--objective", "--csv"],
    "downsize": ["--instance", "--out", "--pair", "--m-param"],
    "verify-ne": ["--instance", "--out", "--pair"],
    "verify-best": ["--instance", "--out", "--objective", "--denominator",
                    "--sample-budget", "--seed"],
    "hardness-experiment": ["--out", "--n", "--budget", "--approx-target",
                            "--eps", "--trials", "--query-budget", "--seed",
                            "--summary"],
    "gap-report": ["--out", "--n", "--budget", "--approx-target", "--eps",
                   "--hidden", "--seed", "--emit-good-pair"],
}
# options given unless the draw drops them, so most runs get past argparse
REQUIRED = {"--instance", "--budget", "--pair", "--n"}
# small values, drawn half the time, in place of the slower built-in
# defaults (100 trials, denominator 8)
DEFAULTS = {"--trials": "2", "--denominator": "1"}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv = [command]
    for option in SUBCOMMANDS[command]:
        if option in REQUIRED or option in DEFAULTS:
            present = draw(st.integers(0, 9)) > 0
        else:
            present = draw(st.booleans())
        if present:
            if OPTIONS[option] is None:
                argv.append(option)
            elif option in DEFAULTS and draw(st.booleans()):
                argv += [option, DEFAULTS[option]]
            else:
                argv += [option, draw(st.sampled_from(OPTIONS[option]))]
    if draw(st.integers(0, 19)) == 0:
        argv.append(draw(st.sampled_from(["--bogus", "extra", "-h"])))
    return argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    for name, text in FILES.items():
        (directory / name).write_text(text)
    return directory


def assert_clean_exit(argv, directory):
    argv = [arg.replace("{dir}", str(directory)) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage error or --help
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        doc = json.loads(err.getvalue())
        assert set(doc) == {"error"}, argv
        assert set(doc["error"]) == {"type", "message"}, argv
        assert all(isinstance(v, str) for v in doc["error"].values()), argv


FUZZ = settings(max_examples=120, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(instance_texts(), st.sampled_from(["solve", "brute", "verify-ne",
                                          "downsize", "verify-best"]))
def test_cli_survives_mutated_instance_documents(workdir, text, command):
    (workdir / "mutated.json").write_text(text)
    argv = [command, "--instance", "{dir}/mutated.json"]
    if command in ("solve", "brute"):
        argv += ["--budget", "1/2"]
    elif command == "verify-best":
        argv += ["--denominator", "2"]
    else:
        argv += ["--pair", "{dir}/pair.json"]
    assert_clean_exit(argv, workdir)


@FUZZ
@given(argv=argvs())
def test_cli_survives_fuzzed_argv(workdir, argv):
    assert_clean_exit(argv, workdir)


def _combo_nested(depth):
    """A combo objective document wrapping "reward" ``depth`` times."""
    return '{"type": "combo", "terms": [["1", ' * depth + '"reward"' \
        + "]]}" * depth


GEN = "gen:coverage:seed=1,agents=2,actions=3"


@pytest.mark.parametrize("text,argv", [
    ("[" * 100000 + "]" * 100000, ["--instance", "{deep}"]),
    # decodes, then is recursed over mid-solve; deeper ones fail to decode
    (_combo_nested(320), ["--instance", GEN, "--objective", "{deep}"]),
], ids=["instance", "objective"])
def test_deeply_nested_input_is_a_schema_error(tmp_path, text, argv):
    deep = tmp_path / "deep.json"
    deep.write_text(text)
    argv = ["solve", "--budget", "1/2"] + [a.format(deep=deep) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == 1
    assert out.getvalue() == ""
    assert json.loads(err.getvalue()) == {"error": {
        "type": "SchemaError", "message": "input nested too deeply"}}


NOT_UTF8 = b"\xff\xfe{}"


@pytest.mark.parametrize("argv", [
    ["solve", "--instance", "{bad}", "--budget", "1/2"],
    ["verify-ne", "--instance", GEN, "--pair", "{bad}"],
    ["solve", "--instance", GEN, "--budget", "1/2", "--objective", "{bad}"],
], ids=["instance", "pair", "objective"])
def test_a_file_not_in_utf8_is_a_schema_error(tmp_path, argv):
    bad = tmp_path / "bad.json"
    bad.write_bytes(NOT_UTF8)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main([a.format(bad=bad) for a in argv]) == 1
    assert out.getvalue() == ""
    error = json.loads(err.getvalue())["error"]
    assert error["type"] == "SchemaError"
    assert error["message"].startswith("input is not UTF-8: ")


# any bytes, or a valid start cut by bytes that are no UTF-8
BYTES = st.binary(max_size=40) | st.sampled_from(
    [NOT_UTF8, b"{\xc3}", b"\xed\xa0\x80"]).map(
        json.dumps(BASE_DOCS[0]).encode()[:20].__add__)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(BYTES)
def test_cli_survives_instance_file_bytes(workdir, data):
    (workdir / "bytes.json").write_bytes(data)
    assert_clean_exit(["solve", "--instance", "{dir}/bytes.json",
                       "--budget", "1/2"], workdir)
