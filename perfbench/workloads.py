"""Seeded generator of the benchmark's run configurations.

A workload is a family of configs.  Run ``j`` of an invocation with seed
``s`` gets ``config(workload, s, j)``, a pure function of its arguments,
so the same seed always gives the same inputs.  The program only ever sees
the YAML file written from that dict.

Doerfler's theta follows a Weyl sequence, ``0.4 + 0.2 * frac(u + j * phi)``
with ``u`` drawn from the seed: any n consecutive runs spread their thetas
evenly over [0.4, 0.6].  Theta decides how many levels a run takes and
where the dof cap cuts the last level, so run times and final estimates
jump with it; an even spread keeps the median over an invocation's runs
steadier from seed to seed than independent draws would.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

DEFAULT_SEED = 20200522
_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    max_ndof: int
    exact: bool          # solved by factorization (reference-checked)


WORKLOADS = {
    w.name: w for w in (
        Workload("adaptive_exact",
                 "many small Doerfler levels on the L-shape: closure refinement "
                 "and dof maps rebuilt per level, exact solves use the factor",
                 max_ndof=10_000, exact=True),
        Workload("nested_pcg",
                 "the inexact loop: nested Jacobi-PCG stopped by the lam=0.02 "
                 "increment rule, so prolongation and per-step estimates dominate",
                 max_ndof=2_000, exact=False),
        Workload("uniform_large",
                 "a few big uniform levels up to 196,609 dofs: bulk vectorized "
                 "assembly, factorization and the memory peak",
                 max_ndof=196_609, exact=True),
    )
}


def _theta(workload, seed, index):
    u = random.Random(f"{workload}:{seed}").random()
    return round(0.4 + 0.2 * ((u + index * _PHI) % 1.0), 6)


def _coefficients(rng):
    """An SPD ``a`` with eigenvalues 1 +- eps (eps <= 0.1) and a small ``b``."""
    eps = 0.1 * rng.random()
    angle = math.pi * rng.random()
    c, s = math.cos(2.0 * angle), math.sin(2.0 * angle)
    a = [[round(1.0 + eps * c, 6), round(eps * s, 6)],
         [round(eps * s, 6), round(1.0 - eps * c, 6)]]
    b = [round(rng.uniform(-0.1, 0.1), 6), round(rng.uniform(-0.1, 0.1), 6)]
    return a, b


def config(workload, seed, index):
    """The config dict of run ``index`` of ``workload`` under ``seed``."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}:{index}")
    stop = {"max_ndof": spec.max_ndof}
    if workload == "nested_pcg":
        # poly_bubble is a Poisson manufactured solution: no a or b to vary
        return {
            "domain": "unit_square",
            "problem": {"kind": "poisson", "manufactured": "poly_bubble"},
            "marking": {"strategy": "doerfler",
                        "theta": _theta(workload, seed, index)},
            "solver": {"kind": "pcg", "precond": "jacobi", "lam": 0.02,
                       "eta_ref": "current", "nested": True},
            "quadrature": {"assembly_order": 4},
            "stop": stop,
        }
    a, b = _coefficients(rng)
    if workload == "uniform_large":
        marking = {"strategy": "uniform"}
    else:
        marking = {"strategy": "doerfler",
                   "theta": _theta(workload, seed, index)}
    return {
        "domain": "l_shape",
        "problem": {"kind": "general", "f": 1.0, "a": a, "b": b},
        "marking": marking,
        "solver": {"kind": "exact"},
        "stop": stop,
    }
