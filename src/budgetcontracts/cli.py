"""Command-line front end: instance I/O, solver dispatch, reports.

Instance documents look like

    {"numAgents": 2,
     "actions": [{"id": 0, "owner": 0, "cost": "1/4"}, ...],
     "reward": {"type": "additive", "weights": ["1/2", "1/4", ...]}}

with rationals serialized as "p/q" strings; numAgents may not exceed the
number of actions.  A reward descriptor of type "hardness" with a
"budget" may omit numAgents/actions (they are derived).  Exit codes:
0 ok, 1 domain error (machine-readable JSON on stderr), 2 usage error.
Identical (config, seed) pairs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from budgetcontracts.core import (
    Action,
    Contract,
    Instance,
    ModelError,
    SchemaError,
    check_enumeration,
    format_rational,
    parse_integer,
    parse_rational,
)
from budgetcontracts.equilibria import is_nash
from budgetcontracts.generators import (
    random_additive_instance,
    random_coverage_instance,
    random_explicit_monotone_instance,
    random_gs_instance,
    random_oxs_instance,
    random_uniform_k_instance,
    random_unit_demand_instance,
)
from budgetcontracts.hardness import (
    HardnessParams,
    adversary_experiment,
    build_hardness,
    good_contract,
    hardness_instance_from_spec,
    make_random_guess_solver,
    verify_gap_exhaustive,
)
from budgetcontracts.objectives import Objective, objective_from_spec, \
    verify_best_properties
from budgetcontracts.rewards import oracle_from_spec, oracle_to_spec
from budgetcontracts.solvers import (
    SolveResult,
    additive_fptas,
    brute_force_opt,
    downsize,
    gs_constant_factor,
    single_agent_fptas,
)


# -- instance and result documents -------------------------------------------


def _json_document(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc


def _check_agent_count(num_agents: int, num_actions: int) -> None:
    """The document rule on numAgents: at least 1, at most the actions."""
    if num_agents < 1:
        raise SchemaError(f"numAgents {num_agents} below 1")
    if num_agents > num_actions:  # an agent past the m-th owns nothing
        raise SchemaError(f"numAgents {num_agents} above {num_actions} actions")


def parse_instance(text: str) -> Instance:
    doc = _json_document(text)
    if not isinstance(doc, dict) or "reward" not in doc:
        raise SchemaError("instance document needs a 'reward' field")
    reward = doc["reward"]
    if not isinstance(reward, dict):
        raise SchemaError("'reward' must be an object")
    if "actions" in doc and not isinstance(doc["actions"], list):
        raise SchemaError("'actions' must be a list")
    if reward.get("type") == "hardness" and "budget" in reward:
        inst = hardness_instance_from_spec(reward)
        if "actions" in doc and len(doc["actions"]) != inst.num_actions:
            raise SchemaError("hardness instance with mismatched action list")
        return inst
    for key in ("numAgents", "actions"):
        if key not in doc:
            raise SchemaError(f"instance document missing '{key}'")
    actions = []
    for idx, rec in enumerate(doc["actions"]):
        if not isinstance(rec, dict):
            raise SchemaError(f"actions[{idx}] must be an object")
        try:
            actions.append(Action(parse_integer(rec["id"], f"actions[{idx}].id"),
                                  parse_integer(rec["owner"], f"actions[{idx}].owner"),
                                  parse_rational(rec["cost"])))
        except KeyError as exc:
            raise SchemaError(f"actions[{idx}] missing {exc}") from exc
    num_agents = parse_integer(doc["numAgents"], "numAgents")
    _check_agent_count(num_agents, len(actions))
    return Instance(num_agents, tuple(actions), oracle_from_spec(reward))


def serialize_instance(inst: Instance) -> str:
    doc = {
        "numAgents": inst.num_agents,
        "actions": [{"id": a.action_id, "owner": a.owner,
                     "cost": format_rational(a.cost)} for a in inst.actions],
        "reward": oracle_to_spec(inst.oracle),
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def result_to_doc(result: SolveResult) -> dict:
    return {
        "objective": result.objective,
        "budget": format_rational(result.budget),
        "contract": [format_rational(a) for a in result.contract.alpha],
        "profile": sorted(result.profile),
        "value": format_rational(result.value),
        "valueFloat": float(result.value),
        "factor": result.factor if isinstance(result.factor, str)
        else format_rational(result.factor),
        "valueQueries": result.value_queries,
        "demandQueries": result.demand_queries,
    }


def parse_pair(text: str) -> tuple[Contract, frozenset[int]]:
    """Read a (contract, profile) pair from a SolveResult-shaped document.

    "contract" must be a list of rationals and "profile" a list of integer
    action ids; anything else is a SchemaError.
    """
    doc = _json_document(text)
    if not isinstance(doc, dict):
        raise SchemaError("pair document must be an object")
    for key in ("contract", "profile"):
        if key not in doc:
            raise SchemaError(f"pair document missing '{key}'")
        if not isinstance(doc[key], list):
            raise SchemaError(f"pair document field '{key}' must be a list")
    alpha = Contract(tuple(parse_rational(a) for a in doc["contract"]))
    profile = frozenset(parse_integer(a, "pair profile entry")
                        for a in doc["profile"])
    return alpha, profile


def _load_pair(path: str, inst: Instance) -> tuple[Contract, frozenset[int]]:
    """The pair document at ``path``, checked against ``inst``."""
    with open(path, "r", encoding="utf-8") as fh:
        alpha, profile = parse_pair(fh.read())
    if len(alpha) != inst.num_agents:
        raise SchemaError(f"pair contract has {len(alpha)} entries for "
                          f"{inst.num_agents} agents")
    if not profile <= inst.ground_set:
        raise SchemaError(f"pair profile actions {sorted(profile - inst.ground_set)} "
                          f"are outside the ground set")
    return alpha, profile


# -- CSV ----------------------------------------------------------------------


def emit_report(rows: Sequence[dict], columns: Sequence[str],
                rational_columns: Iterable[str] = ()) -> str:
    """Deterministic CSV: fixed column order, rationals exact plus float."""
    rational = set(rational_columns)
    header: list[str] = []
    for col in columns:
        header.append(col)
        if col in rational:
            header.append(col + "_float")
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for col in columns:
            v = row.get(col, "")
            if col in rational and isinstance(v, Fraction):
                cells.append(format_rational(v))
                cells.append(repr(float(v)))
            else:
                cells.append(str(v))
                if col in rational:  # empty _float cell keeps the row aligned
                    cells.append("")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def ratio_of(opt: Fraction, value: Fraction) -> Fraction | str:
    """A report's ratio OPT / value; 1 for 0 / 0, and an empty cell when the
    solver gets nothing of a positive OPT, where no finite factor holds."""
    if value > 0:
        return opt / value
    return Fraction(1) if opt == value == 0 else ""


# -- config plumbing ----------------------------------------------------------

_GENERATORS = {
    "additive": random_additive_instance,
    "unit_demand": random_unit_demand_instance,
    "uniform_k": random_uniform_k_instance,
    "oxs": random_oxs_instance,
    "coverage": random_coverage_instance,
    "explicit": random_explicit_monotone_instance,
    "gs": random_gs_instance,
}


# option -> (generator keyword, least value or None)
_GENERATOR_OPTIONS = {"seed": ("seed", None), "agents": ("num_agents", 1),
                      "actions": ("num_actions", 1)}


def load_instance(source: str) -> Instance:
    """A path to an instance JSON, or 'gen:<kind>:seed=..,agents=..,actions=..'."""
    if source.startswith("gen:"):
        parts = source.split(":")
        if len(parts) < 2 or parts[1] not in _GENERATORS:
            raise SchemaError(f"unknown generator spec {source!r}")
        kwargs = {"seed": 0}
        if len(parts) > 2 and parts[2]:
            for item in parts[2].split(","):
                key, _, value = item.partition("=")
                if key not in _GENERATOR_OPTIONS:
                    raise SchemaError(f"unknown generator option {key!r}")
                name, least = _GENERATOR_OPTIONS[key]
                number = parse_integer(value, f"generator option {key!r}")
                if least is not None and number < least:
                    raise SchemaError(
                        f"generator option {key!r} must be >= {least}, got {number}")
                kwargs[name] = number
        # held to the document rule, so its document loads back; refused
        # before generating when the spec names both counts
        if {"num_agents", "num_actions"} <= kwargs.keys():
            _check_agent_count(kwargs["num_agents"], kwargs["num_actions"])
        inst = _GENERATORS[parts[1]](**kwargs)
        _check_agent_count(inst.num_agents, inst.num_actions)
        return inst
    with open(source, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def load_objective(text: str) -> Objective:
    if text in ("profit", "reward", "welfare"):
        return objective_from_spec(text)
    if text.lstrip().startswith("{"):
        return objective_from_spec(_json_document(text))
    with open(text, "r", encoding="utf-8") as fh:
        return objective_from_spec(_json_document(fh.read()))


def _write(out: Optional[str], text: str) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _pick_solver(inst: Instance, force: Optional[str]) -> str:
    if force:
        if force == "gs-pipeline" and not inst.oracle.is_gs_class:
            raise ModelError("GS pipeline forced on a non-GS oracle")
        return force
    if inst.oracle.function_class == "additive":
        return "fptas"
    if inst.oracle.is_gs_class:
        return "gs-pipeline"
    return "brute"


SOLVE_COLUMNS = ["solver", "objective", "budget", "eps", "value", "factor",
                 "payment", "profile", "value_queries", "demand_queries"]
SOLVE_RATIONALS = ["budget", "eps", "value", "payment"]


def _result_row(result: SolveResult, solver: str, eps: Optional[Fraction]) -> dict:
    return {
        "solver": solver,
        "objective": result.objective,
        "budget": result.budget,
        "eps": eps if eps is not None else "",
        "value": result.value,
        "factor": result.factor if isinstance(result.factor, str)
        else format_rational(result.factor),
        "payment": result.contract.total(),
        "profile": " ".join(str(a) for a in sorted(result.profile)),
        "value_queries": result.value_queries,
        "demand_queries": result.demand_queries,
    }


# -- subcommands ---------------------------------------------------------------


def _cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    obj = load_objective(args.objective)
    budget = parse_rational(args.budget)
    eps = parse_rational(args.eps) if args.eps is not None else Fraction(1, 10)
    solver = _pick_solver(inst, args.force_solver)
    if solver == "fptas":
        result = additive_fptas(inst, budget, eps, obj)
    elif solver == "single-fptas":
        if obj.kind != "profit":
            raise ModelError("the single-agent scheme maximizes profit only")
        result = single_agent_fptas(inst, budget, eps)
    elif solver == "gs-pipeline":
        result = gs_constant_factor(inst, budget, obj)
    else:
        result = brute_force_opt(inst, budget, obj)
    if args.csv:
        # only the additive FPTAS's answer depends on eps; report no other
        row = _result_row(result, solver, eps if solver == "fptas" else None)
        _write(args.out, emit_report([row], SOLVE_COLUMNS, SOLVE_RATIONALS))
    else:
        _write(args.out, json.dumps(result_to_doc(result), indent=2) + "\n")
    return 0


def _cmd_downsize(args) -> int:
    inst = load_instance(args.instance)
    alpha, profile = _load_pair(args.pair, inst)
    new_alpha, new_profile = downsize(inst, args.m_param, alpha, profile)
    doc = {
        "contract": [format_rational(a) for a in new_alpha.alpha],
        "profile": sorted(new_profile),
        "payment": format_rational(new_alpha.total()),
        "inputPayment": format_rational(alpha.total()),
    }
    _write(args.out, json.dumps(doc, indent=2) + "\n")
    return 0


def _cmd_verify_ne(args) -> int:
    inst = load_instance(args.instance)
    alpha, profile = _load_pair(args.pair, inst)
    cert = is_nash(inst, alpha, profile)
    if args.out:
        doc = {
            "isNash": cert.ok,
            "violator": cert.violator,
            "utilities": [format_rational(u) for u in cert.utilities],
        }
        _write(args.out, json.dumps(doc, indent=2) + "\n")
    sys.stdout.write("true\n" if cert.ok else "false\n")
    return 0


def _cmd_verify_best(args) -> int:
    inst = load_instance(args.instance)
    obj = load_objective(args.objective)
    report = verify_best_properties(
        obj, inst, denominator=args.denominator,
        sample_budget=args.sample_budget, seed=args.seed)
    doc = {
        "objective": str(obj),
        "passed": report.passed,
        "checks": report.checks,
        "properties": {name: ok for name, (ok, _) in report.results.items()},
    }
    _write(args.out, json.dumps(doc, indent=2) + "\n")
    return 0


EXPERIMENT_COLUMNS = ["trial", "n", "budget", "approx_target", "eps",
                      "query_budget", "success", "approx_fraction",
                      "issued_queries", "value_queries", "demand_queries",
                      "budget_exceeded"]


def _setting_args(args) -> tuple[Fraction, Fraction, Optional[Fraction]]:
    """A hardness command's --budget, --approx-target and --eps (or None)."""
    return (parse_rational(args.budget), parse_rational(args.approx_target),
            parse_rational(args.eps) if args.eps else None)


def _cmd_hardness_experiment(args) -> int:
    budget, target, eps = _setting_args(args)
    solver = make_random_guess_solver(args.seed + 1)
    report = adversary_experiment(solver, args.n, budget, target, args.trials,
                                  args.query_budget, args.seed, eps=eps)
    rows = [{
        "trial": rec.trial, "n": report.n, "budget": report.budget,
        "approx_target": format_rational(report.approx_target),
        "eps": report.eps, "query_budget": report.query_budget,
        "success": int(rec.success), "approx_fraction": rec.approx_fraction,
        "issued_queries": rec.issued_queries,
        "value_queries": rec.oracle_value_queries,
        "demand_queries": rec.oracle_demand_queries,
        "budget_exceeded": int(rec.budget_exceeded),
    } for rec in report.records]
    _write(args.out, emit_report(rows, EXPERIMENT_COLUMNS,
                                 ["budget", "eps", "approx_fraction"]))
    summary = {
        "n": report.n, "budget": format_rational(report.budget),
        "K": format_rational(report.approx_target),
        "eps": format_rational(report.eps),
        "trials": report.trials, "queryBudget": report.query_budget,
        "successes": report.successes,
        "baselineProb": format_rational(report.baseline_prob),
        "baselineProbFloat": float(report.baseline_prob),
        "meanApproxRatio": format_rational(report.mean_approx_fraction),
        "meanApproxRatioFloat": float(report.mean_approx_fraction),
    }
    if args.summary:
        _write(args.summary, json.dumps(summary, indent=2) + "\n")
    elif args.out:
        sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    return 0


GAP_COLUMNS = ["n", "budget", "approx_target", "eps", "bound",
               "max_other_value", "gap_ratio", "feasible_profiles", "ok"]


def _cmd_gap_report(args) -> int:
    budget, target, eps = _setting_args(args)
    hidden = [parse_integer(x, "--hidden entry") for x in args.hidden.split(",")] \
        if args.hidden else None
    # refuse before the family is built: a huge n allocates O(n) first
    check_enumeration(args.n + 2, "gap verification")
    params = HardnessParams.make(args.n, budget, target, eps, hidden, args.seed)
    report = verify_gap_exhaustive(params)
    row = {
        "n": params.n, "budget": params.budget,
        "approx_target": format_rational(params.approx_target),
        "eps": params.eps, "bound": report.bound,
        "max_other_value": report.max_other_value,
        "gap_ratio": report.gap_ratio,
        "feasible_profiles": report.feasible_profiles,
        "ok": int(report.ok),
    }
    _write(args.out, emit_report(
        [row], GAP_COLUMNS,
        ["budget", "eps", "bound", "max_other_value", "gap_ratio"]))
    if args.emit_good_pair:
        alpha, profile = good_contract(params)
        inst = build_hardness(params)
        cert = is_nash(inst, alpha, profile)
        doc = {
            "contract": [format_rational(a) for a in alpha.alpha],
            "profile": sorted(profile),
            "payment": format_rational(alpha.total()),
            "isNash": cert.ok,
        }
        _write(args.emit_good_pair, json.dumps(doc, indent=2) + "\n")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Parsing leaves it unchanged: no option appends to a shared default.
    """
    parser = argparse.ArgumentParser(
        prog="budgetcontracts",
        description="Budgeted multi-agent combinatorial contract solvers")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, instance=True):
        if instance:
            p.add_argument("--instance", required=True,
                           help="instance JSON path or gen:<kind>:opts spec")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("solve", help="dispatch by declared function class")
    common(p)
    p.add_argument("--budget", required=True)
    p.add_argument("--eps", default=None)
    p.add_argument("--objective", default="profit")
    p.add_argument("--force-solver", default=None,
                   choices=["fptas", "single-fptas", "gs-pipeline", "brute"])
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("brute", help="solve --force-solver brute")
    common(p)
    p.add_argument("--budget", required=True)
    p.add_argument("--objective", default="profit")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_solve, force_solver="brute", eps=None)

    p = sub.add_parser("downsize", help="payment-shrinking transform")
    common(p)
    p.add_argument("--pair", required=True, help="JSON with contract+profile")
    p.add_argument("--m-param", type=int, default=6)
    p.set_defaults(func=_cmd_downsize)

    p = sub.add_parser("verify-ne", help="check a contract/profile pair")
    common(p)
    p.add_argument("--pair", required=True)
    p.set_defaults(func=_cmd_verify_ne)

    p = sub.add_parser("verify-best", help="check the BEST-objective properties")
    common(p)
    p.add_argument("--objective", default="profit")
    p.add_argument("--denominator", type=int, default=8)
    p.add_argument("--sample-budget", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify_best)

    p = sub.add_parser("hardness-experiment",
                       help="hidden-set adversarial experiment (one row per trial)")
    common(p, instance=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", default="1/2")
    p.add_argument("--approx-target", default="1")
    p.add_argument("--eps", default=None)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--query-budget", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--summary", default=None, help="aggregate JSON path")
    p.set_defaults(func=_cmd_hardness_experiment)

    p = sub.add_parser("gap-report", help="exhaustive reward-gap verification")
    common(p, instance=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", default="1/2")
    p.add_argument("--approx-target", default="1")
    p.add_argument("--eps", default=None)
    p.add_argument("--hidden", default=None, help="comma-separated agent ids")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--emit-good-pair", default=None,
                   help="write the budget-exhausting pair as JSON")
    p.set_defaults(func=_cmd_gap_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ModelError as exc:
        kind, message = type(exc).__name__, str(exc)
    except OSError as exc:
        kind, message = "OSError", str(exc)
    except RecursionError:  # the package recurses only over input nesting
        kind, message = SchemaError.__name__, "input nested too deeply"
    except UnicodeDecodeError as exc:  # an input file read as UTF-8
        kind, message = SchemaError.__name__, f"input is not UTF-8: {exc}"
    error = {"error": {"type": kind, "message": message}}
    sys.stderr.write(json.dumps(error) + "\n")
    return 1


if __name__ == "__main__":
    sys.exit(main())
