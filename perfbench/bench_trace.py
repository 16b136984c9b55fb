"""Per-layer tracing from outside the program.

A :class:`Tracer` wraps the public functions named in ``TARGETS`` and
removes the wrappers again.  ``from module import name`` binds the name
once per importing module, so each wrapper is installed on every
``budgetcontracts`` module that holds the original function.  Spans are
not stored: each call adds its duration into per-function totals, which
keeps hot leaf calls such as ``core.cost`` (tens of thousands per
operation) cheap to trace.
"""

from __future__ import annotations

import importlib
import time

PACKAGE_MODULES = ("cli", "core", "equilibria", "generators", "hardness",
                   "objectives", "rewards", "solvers")

TARGETS = (
    "cli.load_instance",
    "solvers.additive_fptas",
    "solvers.brute_force_opt",
    "solvers.gs_constant_factor",
    "solvers.single_agent_fptas",
    "solvers.build_dp_table",
    "solvers.iter_min_contracts",
    "solvers.downsize",
    "solvers.gs_single_agent_exact",
    "rewards.value_table",
    "rewards.brute_force_demand",
    "rewards.demand_with_base",
    "equilibria.min_incentivizing_contract",
    "equilibria.is_nash",
    "equilibria.ne_from_demand",
    "core.cost",
    "objectives.evaluate",
    "hardness.hardness_demand",
)

# the solver each ``solve`` call dispatches to; the rest of an op is CLI work
SOLVERS = ("solvers.additive_fptas", "solvers.brute_force_opt",
           "solvers.gs_constant_factor", "solvers.single_agent_fptas")

GENERATORS = ("solvers.iter_min_contracts",)


def _dp_cells(args, result, _before) -> int:
    # iterations of the DP's inner loop: every column of every agent row
    # tries every prefix length of that agent
    return (result.t_max + 1) * sum(len(w) for w in result.prefix_weight)


def _queries_before(args):
    return args[0].value_queries


def _queries_spent(args, _result, before) -> int:
    return args[0].value_queries - before


# name -> (state taken before the call, count added after it)
COUNTERS = {
    "solvers.build_dp_table": (None, _dp_cells),
    "hardness.hardness_demand": (_queries_before, _queries_spent),
}


class Stat:
    __slots__ = ("calls", "ns", "top_ns", "active", "count", "yields",
                 "enumerated")

    def __init__(self):
        self.calls = 0
        self.ns = 0          # busy time of outermost calls
        self.top_ns = 0      # time in calls made from outside any target
        self.active = 0
        self.count = 0       # COUNTERS total
        self.yields = 0
        self.enumerated = 0


class Tracer:
    def __init__(self):
        self.stats = {name: Stat() for name in TARGETS}
        # (caller, callee) -> busy ns of the callee called directly by caller
        self.child_ns: dict[tuple[str, str], int] = {}
        self._stack: list[str] = []
        self._patches = self._find_patches()

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, name: str, st: Stat) -> tuple[str | None, int]:
        stack = self._stack
        parent = stack[-1] if stack else None
        stack.append(name)
        st.active += 1
        return parent, time.perf_counter_ns()

    def _exit(self, name: str, st: Stat, parent: str | None, t0: int) -> None:
        dt = time.perf_counter_ns() - t0
        self._stack.pop()
        st.active -= 1
        if st.active == 0:
            st.ns += dt
        if parent is None:
            st.top_ns += dt
        else:
            key = (parent, name)
            self.child_ns[key] = self.child_ns.get(key, 0) + dt

    def _wrap(self, name: str, orig):
        st = self.stats[name]
        before_fn, after_fn = COUNTERS.get(name, (None, None))

        def traced(*args, **kwargs):
            st.calls += 1
            before = before_fn(args) if before_fn else None
            parent, t0 = self._enter(name, st)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._exit(name, st, parent, t0)
            if after_fn:
                st.count += after_fn(args, result, before)
            return result

        return traced

    def _wrap_generator(self, name: str, orig):
        """Time every resume of a generator, not just its creation."""
        st = self.stats[name]

        def traced(inst, *args, **kwargs):
            st.calls += 1
            st.enumerated += 1 << inst.num_actions
            inner = orig(inst, *args, **kwargs)
            try:
                while True:
                    parent, t0 = self._enter(name, st)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._exit(name, st, parent, t0)
                    st.yields += 1
                    yield item
            finally:
                inner.close()

        return traced

    # -- installation ---------------------------------------------------------

    def _find_patches(self) -> list[tuple[object, str, object, object]]:
        modules = [importlib.import_module(f"budgetcontracts.{m}")
                   for m in PACKAGE_MODULES]
        modules.append(importlib.import_module("budgetcontracts"))
        patches = []
        for name in TARGETS:
            home, attr = name.split(".")
            orig = getattr(importlib.import_module(f"budgetcontracts.{home}"),
                           attr)
            wrap = self._wrap_generator if name in GENERATORS else self._wrap
            wrapper = wrap(name, orig)
            for module in modules:
                for key, value in vars(module).items():
                    if value is orig:
                        patches.append((module, key, orig, wrapper))
        return patches

    def install(self) -> None:
        for module, key, _, wrapper in self._patches:
            setattr(module, key, wrapper)

    def remove(self) -> None:
        for module, key, orig, _ in self._patches:
            setattr(module, key, orig)
