"""The benchmark harness in ``perfbench/`` still binds to the package.

Its tracer wraps package functions by name and its workloads call the
package directly, so a renamed function or a dropped keyword would only
show up as failed benchmark operations.  The harness files are read, never
written or imported as a package.  The budgeted walk's table reads on the
``exact_tables`` corpus are pinned here too, and so is the harness's own
copy of the hidden-set family's eps rule.
"""

import contextlib
import io
import types
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from budgetcontracts import cli, equilibria
from budgetcontracts.hardness import HardnessParams, default_epsilon
from budgetcontracts.rewards import submask_sums_upto, value_table, with_table
from budgetcontracts.objectives import PROFIT
from budgetcontracts.solvers import _PrefixLayout, additive_fptas, \
    build_dp_table

from fptas_sweep import LoggedAdditive, swept_scales

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SOLVES = {
    "solvers.additive_fptas":
        ["--instance", "gen:additive:seed=1,agents=2,actions=5"],
    "solvers.brute_force_opt":
        ["--instance", "gen:explicit:seed=1,agents=2,actions=4",
         "--force-solver", "brute"],
    "solvers.single_agent_fptas":
        ["--instance", "gen:explicit:seed=2,agents=1,actions=4",
         "--force-solver", "single-fptas"],
    "solvers.gs_constant_factor":
        ["--instance", "gen:unit_demand:seed=3,agents=2,actions=4",
         "--force-solver", "gs-pipeline"],
}


def _harness_module(name):
    """``perfbench/<name>.py`` as a module, without caching its bytecode."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(name)
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         module.__dict__)
    return module


def test_benchmark_tracer_and_workloads_bind_to_the_package(tmp_path):
    bench_trace = _harness_module("bench_trace")
    bench_workloads = _harness_module("bench_workloads")
    tracer = bench_trace.Tracer()  # resolves every traced name
    assert set(SOLVES) == set(bench_trace.SOLVERS)
    demand = bench_workloads.HardnessDemand(1, tmp_path)
    ops = demand.build(1)
    # HardnessDemand hands value_table's result to brute_force_demand
    assert all(type(table) is list for table in demand.tables)
    tracer.install()
    try:
        for target, argv in SOLVES.items():
            before = {name: tracer.stats[name].calls for name in SOLVES}
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["solve", "--budget", "1/2", *argv])
            assert code == 0, target
            # one call of its own solver and none of another: the
            # single-agent scheme runs brute force's race, yet a
            # brute_force_opt share still counts brute-force solves only
            assert {name: tracer.stats[name].calls - before[name]
                    for name in SOLVES} \
                == {name: int(name == target) for name in SOLVES}, target
        code, out = demand.run(ops[0])
    finally:
        tracer.remove()
    assert code == 0 and '"exhaustive"' in out
    for name in ("hardness.hardness_demand", "rewards.brute_force_demand"):
        assert tracer.stats[name].calls == 1, name
    assert tracer.stats["solvers.iter_min_contracts"].yields > 0
    # value_table stays a plain list of Fractions, the instance's f; the
    # table an instance carries is a plain list of ints over the oracle's den
    for inst, table in zip(demand.instances, demand.tables):
        tabled = with_table(inst)
        assert type(table) is list and table == value_table(inst.oracle)
        assert all(type(v) is Fraction for v in table) and table == tabled.f
        assert type(tabled.table) is list
        assert all(type(k) is int for k in tabled.table)
        assert table == [Fraction(k, inst.oracle.den) for k in tabled.table]
    # the additive solve (profit, eps 1/10) fills one traced DP table per
    # swept scale, each counted by the tracer's cell formula
    inst = cli.load_instance(SOLVES["solvers.additive_fptas"][1])
    layout = _PrefixLayout.build(inst, "f", Fraction(1, 10), Fraction(1, 2))
    logged = LoggedAdditive(inst.oracle.weights)
    additive_fptas(replace(inst, oracle=logged), Fraction(1, 2),
                   Fraction(1, 10), PROFIT)
    swept = swept_scales(inst, Fraction(1, 2), PROFIT,
                         logged.log[inst.num_actions + 1:])
    dp = tracer.stats["solvers.build_dp_table"]
    assert dp.calls == len(swept) >= 1 and len(layout.scales) == 2
    assert tuple(Fraction(v, layout.phi_den)
                 for v in layout.scales[:len(swept)]) == tuple(swept)
    cells = [bench_trace._dp_cells(None, build_dp_table(layout, b), None)
        for b in swept]
    assert dp.count == sum(cells) and min(cells) > 0


class _CountingTable(list):
    """A value table that counts its reads."""

    reads = 0

    def __getitem__(self, mask):
        self.reads += 1
        return super().__getitem__(mask)


def test_bench_hardness_epsilon_is_the_programs_default():
    # the harness writes eps into its descriptors with a copy of the rule;
    # at its n and budgets the copy must give the program's default, which
    # the program's own check accepts
    bench_workloads = _harness_module("bench_workloads")
    demand = bench_workloads.HardnessDemand
    got = [bench_workloads.hardness_epsilon(demand.N, budget)
           for budget in demand.BUDGETS]
    assert got == [default_epsilon(demand.N, budget, Fraction(1))
                   for budget in demand.BUDGETS]
    assert got == [Fraction(1, 32), Fraction(1, 48), Fraction(1, 96)]
    for budget, eps in zip(demand.BUDGETS, got):
        assert HardnessParams.make(demand.N, budget, eps=eps).eps == eps


def test_budgeted_walk_reads_on_the_exact_tables_corpus(tmp_path, monkeypatch):
    # the brute-force ops of exact_tables at seed 1: the first agent reads
    # under 35 % of the (rest, deviation) pairs that the prefilter per
    # instance, c <= B * f(ground set), keeps, and the walk reads 62,130
    # table values in all
    ops = _harness_module("bench_workloads").ExactTables(1, tmp_path).build()
    walks = []
    kernel = equilibria._agent_payments

    def recording(f, runs, rests, cut=None):
        assert cut is not None
        rests = list(rests)
        before = f.reads
        pay = kernel(f, runs, rests, cut)
        # less the cut's own two reads per rest R, f(R + T_i) and f(R)
        walks[-1].append(f.reads - before - 2 * len(rests))
        return pay

    monkeypatch.setattr(equilibria, "_agent_payments", recording)
    reads = spread_pairs = 0
    for op in ops:
        if "--force-solver" in op.argv:
            continue
        inst = with_table(cli.load_instance(str(op.path)))
        budget = Fraction(op.budget)
        c_int, c_den = inst.int_costs
        cap_n, cap_d = (budget * Fraction(c_den, inst.oracle.den)
                        ).as_integer_ratio()
        limit = cap_n * inst.table[-1] // cap_d
        own = max(inst.agent_masks, key=int.bit_count)  # priced first
        spread_pairs += len(submask_sums_upto(
            (1 << inst.num_actions) - 1 & ~own, c_int, limit)) * len(
            submask_sums_upto(own, c_int, limit))
        table = _CountingTable(inst.table)
        walks.append([])
        list(equilibria.iter_min_contracts(replace(inst, table=table),
                                           budget=budget))
        reads += table.reads
    first_pairs = sum(pairs[0] for pairs in walks)
    assert len(walks) == 162
    assert (first_pairs, spread_pairs, reads) == (39_434, 136_518, 62_130)
    assert first_pairs <= 0.35 * spread_pairs
