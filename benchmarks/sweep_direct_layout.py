"""Crossover sweep behind ``repro.solvers.direct.DENSE_STACK_MAX_N``.

Times Steps 1-2 of one SS solve (``compute_moments``: assemble, factor,
solve primal + dual, fold the moments) with the ``"direct"`` strategy
in both factorization layouts — one SuperLU per quadrature point vs one
dense batched LU over all points — on ladders, slabs and sparse random
triples of growing ``N``, and prints the median wall time of each and
their ratio.  The dense layout should be used up to the largest ``N``
at which it still wins on every family.

Run from the repository root (a minute or two)::

    PYTHONPATH=src python benchmarks/sweep_direct_layout.py

It is a script, not a ``test_*.py`` module, so pytest does not collect
it; wall times depend on the host, so it asserts nothing.
"""

from __future__ import annotations

import os
import platform
import statistics
import time

import numpy as np

import repro.ss.solver as solver_mod
from repro.models.ladder import TransverseLadder
from repro.models.random_blocks import random_bulk_triple
from repro.models.slab import SquareLatticeSlab
from repro.ss.solver import SSConfig, SSHankelSolver

SIZES = (8, 16, 32, 48, 64, 96, 128)
FAMILIES = {
    "ladder": lambda n: TransverseLadder(width=n).blocks(),
    "slab": lambda n: SquareLatticeSlab(width=n).blocks(),
    "random": lambda n: random_bulk_triple(
        n, density=min(1.0, 6.0 / n), coupling_scale=0.3, sparse=True,
        seed=5),
}
CONFIG = SSConfig(n_int=32, n_mm=8, n_rh=16, seed=3, linear_solver="direct")
ENERGY = -0.3
REPEATS = 7


def _median_seconds(blocks, dense: bool) -> float:
    solver_mod.DENSE_STACK_MAX_N = 10**9 if dense else 0
    solver = SSHankelSolver(blocks, CONFIG)
    solver.compute_moments(ENERGY)  # warm-up
    walls = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        solver.compute_moments(ENERGY)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def main() -> None:
    default = solver_mod.DENSE_STACK_MAX_N
    print(f"# host: {platform.machine()}, {os.cpu_count()} cpus, "
          f"numpy {np.__version__}, OPENBLAS_NUM_THREADS="
          f"{os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
    print(f"# N_int={CONFIG.n_int} N_mm={CONFIG.n_mm} N_rh={CONFIG.n_rh}, "
          f"median of {REPEATS}; current DENSE_STACK_MAX_N={default}")
    print(f"{'family':8} {'N':>5} {'SuperLU ms':>11} {'dense ms':>9} "
          f"{'dense gain':>10}")
    try:
        for name, make in FAMILIES.items():
            for n in SIZES:
                blocks = make(n)
                t_lu = _median_seconds(blocks, dense=False)
                t_dense = _median_seconds(blocks, dense=True)
                print(f"{name:8} {n:5d} {1e3 * t_lu:11.2f} "
                      f"{1e3 * t_dense:9.2f} {t_lu / t_dense:9.2f}x")
    finally:
        solver_mod.DENSE_STACK_MAX_N = default


if __name__ == "__main__":
    main()
