"""Cross-(E, k∥) batched Step-1 vs the per-slice batched engine.

The ``"bicg-batched-grid"`` strategy flattens every energy of a scan
into ONE stacked BiCG run — three sparse block products per round for
the whole grid instead of three per energy — while keeping per-energy
convergence bookkeeping.  The acceptance contract:

* the grid path beats a cold per-slice ``"bicg-batched"`` sweep of the
  same energies wall-clock (ratio > 1.0x, asserted at the scan-shaped
  tiny scale that CI runs; at bench scale the matvec dominates and the
  bar is that frozen-lane waste stays bounded);
* accepted eigenvalues deviate ≤ 1e-10 per energy (they are in fact
  bit-identical — the grid is a re-batching of the same arithmetic,
  pinned exactly in ``tests/test_cross_energy_batch.py``).

Runs at ``REPRO_BENCH_SCALE=tiny`` in the CI tier-2 job, which uploads
``bench_results/batched_grid.{json,csv}`` as artifacts.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import register_report
from _common import SCALE, save_records

from repro.io.results import ExperimentRecord
from repro.io.tables import ascii_table
from repro.models.ladder import TransverseLadder
from repro.ss.solver import SSConfig, SSHankelSolver

WIDTH = 16 if SCALE == "tiny" else 32
N_ENERGIES = 8 if SCALE == "tiny" else 16
GRID = np.linspace(-2.1183, 2.0971, N_ENERGIES)


def _config(linear_solver):
    return SSConfig(
        n_int=16 if SCALE == "tiny" else 32,
        n_mm=4,
        n_rh=6 if SCALE == "tiny" else 8,
        bicg_tol=1e-10,
        seed=11,
        linear_solver=linear_solver,
    )


REPEATS = 3  # best-of-N wall clock; single-shot timings flake under load


def test_batched_grid_benchmark():
    blocks = TransverseLadder(width=WIDTH).blocks()
    energies = [float(e) for e in GRID]

    # cold per-slice reference: a fresh solver per energy, exactly what
    # a sharded scan without the grid engine does
    t_slice = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        per_slice = [
            SSHankelSolver(blocks, _config("bicg-batched")).solve(e)
            for e in energies
        ]
        t_slice = min(t_slice, time.perf_counter() - t0)

    t_grid = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        grid = SSHankelSolver(
            blocks, _config("bicg-batched-grid")
        ).solve_grid(energies)
        t_grid = min(t_grid, time.perf_counter() - t0)

    deviation = 0.0
    for ref, got in zip(per_slice, grid):
        assert got.count == ref.count
        if ref.count:
            deviation = max(
                deviation,
                float(np.max(np.abs(
                    np.sort_complex(got.eigenvalues)
                    - np.sort_complex(ref.eigenvalues)
                ))),
            )
    iters_slice = sum(r.total_iterations() for r in per_slice)
    iters_grid = sum(r.total_iterations() for r in grid)
    speedup = t_slice / t_grid
    # The speedup bound asserted at the end of this test, at this scale.
    floor = "1.0" if SCALE == "tiny" else "0.7"

    rows = [
        ["bicg-batched, per slice", f"{t_slice:.3f}", "1.00x",
         iters_slice, "-"],
        ["bicg-batched-grid", f"{t_grid:.3f}", f"{speedup:.2f}x",
         iters_grid, f"{deviation:.1e}"],
    ]
    table = ascii_table(
        ["strategy", "wall [s]", "speedup", "BiCG iters", "max dev"],
        rows,
        title=(
            f"Cross-energy batched Step-1 — ladder width={WIDTH} "
            f"(N={blocks.n}), {N_ENERGIES} energies, "
            f"N_int={_config('bicg').n_int}\n"
            f"(acceptance at {SCALE} scale: > {floor}x over per-slice, "
            f"<= 1e-10 deviation, identical BiCG iterations)"
        ),
    )
    register_report("Cross-(E, k∥) batched Step-1", table)

    save_records("batched_grid", [
        ExperimentRecord(
            "batched_grid", f"ladder-w{WIDTH}", name,
            metrics={
                "wall_seconds": t,
                "bicg_iterations": iters,
                "max_deviation": deviation,
                "grid_speedup": speedup,
            },
            parameters={
                "scale": SCALE,
                "width": WIDTH,
                "n_energies": N_ENERGIES,
                "n_int": _config("bicg").n_int,
                "n_rh": _config("bicg").n_rh,
            },
        )
        for name, t, iters in (
            ("bicg-batched/per-slice", t_slice, iters_slice),
            ("bicg-batched-grid", t_grid, iters_grid),
        )
    ])

    assert deviation <= 1e-10, f"grid deviates: {deviation:.2e}"
    # iteration counts are identical by construction (per-energy quorum
    # bookkeeping replicated segment-locally)
    assert iters_grid == iters_slice
    # The stacking win comes from paying the python round overhead once
    # per chunk instead of once per energy, so it is largest where that
    # overhead dominates — the scan-shaped regime (many small-to-mid
    # systems) that tiny scale samples and CI asserts.  At bench scale
    # the matvec itself dominates and converged-but-frozen lanes still
    # do flops until their segment retires, so the requirement there is
    # only that the waste stays bounded.
    if SCALE == "tiny":
        assert speedup > 1.0, f"grid batching lost: {speedup:.2f}x"
    else:
        assert speedup > 0.7, f"grid frozen-lane waste blew up: {speedup:.2f}x"
