"""Seeded random instance generators for tests, experiments, and the CLI.

Every generator is a pure function of its seed, so identical configurations
reproduce identical instances.  Values keep modest denominators to make the
exact-arithmetic pipelines fast.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from budgetcontracts.core import Action, GeneralContract, Instance, \
    check_enumeration
from budgetcontracts.rewards import (
    AdditiveOracle,
    AssignmentOracle,
    CoverageOracle,
    ExplicitOracle,
    UniformKDemandOracle,
    UnitDemandOracle,
)


def _random_costs(rng: random.Random, m: int) -> list[Fraction]:
    return [Fraction(rng.randint(0, 32), 64) for _ in range(m)]


def _random_owners(rng: random.Random, m: int, n: int) -> list[int]:
    return [rng.randrange(n) for _ in range(m)]


def _assemble(n: int, owners: list[int], costs: list[Fraction], oracle) -> Instance:
    actions = tuple(Action(a, owners[a], costs[a]) for a in range(len(owners)))
    return Instance(n, actions, oracle)


def random_additive_instance(seed: int, num_agents: Optional[int] = None,
                             num_actions: Optional[int] = None) -> Instance:
    rng = random.Random(seed)
    n = num_agents if num_agents is not None else rng.randint(1, 4)
    m = num_actions if num_actions is not None else rng.randint(2, 10)
    raw = [rng.randint(1, 20) for _ in range(m)]
    scale = Fraction(rng.randint(1, 4), 4 * sum(raw))
    weights = [w * scale for w in raw]
    return _assemble(n, _random_owners(rng, m, n), _random_costs(rng, m),
                     AdditiveOracle(weights))


def random_unit_demand_instance(seed: int, num_agents: Optional[int] = None,
                                num_actions: Optional[int] = None) -> Instance:
    rng = random.Random(seed)
    n = num_agents if num_agents is not None else rng.randint(1, 4)
    m = num_actions if num_actions is not None else rng.randint(2, 8)
    weights = [Fraction(rng.randint(1, 32), 32) for _ in range(m)]
    return _assemble(n, _random_owners(rng, m, n), _random_costs(rng, m),
                     UnitDemandOracle(weights))


def random_uniform_k_instance(seed: int, num_agents: Optional[int] = None,
                              num_actions: Optional[int] = None) -> Instance:
    rng = random.Random(seed)
    n = num_agents if num_agents is not None else rng.randint(1, 4)
    m = num_actions if num_actions is not None else rng.randint(2, 8)
    k = rng.randint(1, m)
    unit = Fraction(rng.randint(1, 16), 16 * k)
    return _assemble(n, _random_owners(rng, m, n), _random_costs(rng, m),
                     UniformKDemandOracle(m, k, unit))


def random_oxs_instance(seed: int, num_agents: Optional[int] = None,
                        num_actions: Optional[int] = None) -> Instance:
    rng = random.Random(seed)
    n = num_agents if num_agents is not None else rng.randint(1, 4)
    m = num_actions if num_actions is not None else rng.randint(2, 8)
    cols = rng.randint(1, 3)
    values = [[Fraction(rng.randint(0, 10), 10 * cols) for _ in range(cols)]
              for _ in range(m)]
    return _assemble(n, _random_owners(rng, m, n), _random_costs(rng, m),
                     AssignmentOracle(values))


def random_coverage_instance(seed: int, num_agents: Optional[int] = None,
                             num_actions: Optional[int] = None) -> Instance:
    rng = random.Random(seed)
    n = num_agents if num_agents is not None else rng.randint(1, 4)
    m = num_actions if num_actions is not None else rng.randint(2, 8)
    universe = rng.randint(4, 10)
    covers = [rng.sample(range(universe), rng.randint(0, universe // 2))
              for _ in range(m)]
    return _assemble(n, _random_owners(rng, m, n), _random_costs(rng, m),
                     CoverageOracle(universe, covers))


def random_explicit_monotone_instance(seed: int, num_agents: Optional[int] = None,
                                      num_actions: Optional[int] = None) -> Instance:
    """Random monotone table: monotone integer levels scaled into [0, 1]."""
    rng = random.Random(seed)
    n = num_agents if num_agents is not None else 1
    m = num_actions if num_actions is not None else rng.randint(2, 6)
    check_enumeration(m, "explicit table")
    levels = [0] * (1 << m)
    for mask in range(1, 1 << m):
        floor = max(levels[mask & ~(1 << b)] for b in range(m) if mask & (1 << b))
        levels[mask] = floor + rng.randint(0, 4)
    top = max(levels[-1], 1) + rng.randint(0, 3)
    made = {v: Fraction(v, top) for v in set(levels)}  # one per level
    return _assemble(n, _random_owners(rng, m, n), _random_costs(rng, m),
                     ExplicitOracle(list(map(made.__getitem__, levels))))


GS_GENERATORS = (
    random_additive_instance,
    random_unit_demand_instance,
    random_uniform_k_instance,
    random_oxs_instance,
)


def random_gs_instance(seed: int, num_agents: Optional[int] = None,
                       num_actions: Optional[int] = None) -> Instance:
    """One of the gross-substitutes families, chosen by the seed."""
    rng = random.Random(seed)
    gen = GS_GENERATORS[rng.randrange(len(GS_GENERATORS))]
    return gen(rng.randint(0, 2 ** 30), num_agents, num_actions)


def random_general_contract(seed: int, num_agents: int) -> GeneralContract:
    rng = random.Random(seed)
    t0 = tuple(Fraction(rng.randint(0, 8), 32) for _ in range(num_agents))
    t1 = tuple(Fraction(rng.randint(0, 24), 32) for _ in range(num_agents))
    return GeneralContract(t0, t1)
