#!/usr/bin/env python3
"""Hierarchical-parallelism study: real processes + the Oakforest-PACS model.

Part 1 measures *real* speedup on this machine by mapping independent
CBS energy slices over a process pool (the embarrassingly parallel axis
the paper exploits in §5 with 200 independent energies).

Part 2 reproduces the paper's strong-scaling *shapes* (Figures 8-10) with
the calibrated Oakforest-PACS cost model: ideal top layer, slightly
degraded middle layer, communication-limited bottom layer.

Run:  python examples/scaling_study.py [--workers 1 2 4 8]
"""

import argparse
import time

import numpy as np

from repro.dft.builders import bulk_al100, grid_for_structure
from repro.dft.hamiltonian import build_blocks
from repro.grid.grid import RealSpaceGrid
from repro.io.tables import ascii_table
from repro.parallel.costmodel import IterationCostModel
from repro.parallel.hierarchy import LayerAssignment
from repro.parallel.machine import OAKFOREST_PACS
from repro.parallel.simulator import IterationCountModel, ScalingSimulator
from repro.ss.solver import SSConfig, SSHankelSolver


def measured_process_scaling(workers_list) -> None:
    """Real local speedup over the energy-scan axis (process pool).

    SciPy's sparse kernels hold the GIL, so Python threads cannot
    accelerate the BiCG inner loops; the scan's embarrassingly parallel
    energy slices (paper §5: "200 independent calculations") parallelize
    across processes instead.
    """
    from repro.cbs.scan import CBSCalculator
    from repro.dft.fermi import estimate_fermi

    structure = bulk_al100()
    grid = grid_for_structure(structure, spacing_angstrom=0.42)
    blocks, info = build_blocks(structure, grid, include_nonlocal=False)
    fermi = estimate_fermi(blocks, structure.n_valence_electrons(),
                           n_bands=24, dense_threshold=100)
    energies = np.linspace(fermi.fermi - 0.1, fermi.fermi + 0.1, 8)
    print(f"workload: Al(100) kinetic+local, N = {info.n}, "
          f"8 energies around E_F = {fermi.fermi:+.3f} Ha\n")
    cfg = SSConfig(n_int=8, n_mm=4, n_rh=4, seed=3,
                   linear_solver="bicg-batched",
                   bicg_tol=1e-8, quorum_fraction=None, record_history=False)
    rows = []
    t_base = None
    for w in workers_list:
        calc = CBSCalculator(
            blocks, cfg,
            energy_executor=(None if w == 1 else ("processes", w)),
        )
        t0 = time.perf_counter()
        result = calc.scan(energies)
        dt = time.perf_counter() - t0
        if t_base is None:
            t_base = dt
        rows.append([w, f"{dt:.2f}", f"{t_base / dt:.2f}",
                     int(result.mode_counts().sum())])
    print(ascii_table(
        ["processes", "time [s]", "speedup", "modes found"],
        rows, title="Part 1 — measured energy-scan process scaling"))


def modeled_ofp_scaling() -> None:
    grid = RealSpaceGrid((72, 72, 20), (0.38, 0.38, 0.40))  # 32-atom CNT
    cost = IterationCostModel(OAKFOREST_PACS, grid, n_projectors=128,
                              ranks_per_node=1)
    counts = IterationCountModel(base_iterations=2800, seed=1).sample(32, 64)
    sim = ScalingSimulator(cost, counts, extraction_time=5.0)

    print("\nPart 2 — modeled Oakforest-PACS strong scaling "
          "(paper Fig. 8 shapes)")
    for layer, sweep, fixed in (
        ("top", [1, 2, 4, 8, 16, 32, 64], LayerAssignment(middle=2, threads=68)),
        ("middle", [1, 2, 4, 8, 16, 32], LayerAssignment(top=2, threads=68)),
        ("bottom", [1, 2, 4, 8, 16], LayerAssignment(top=2, middle=2, threads=17)),
    ):
        res = sim.sweep_layer(layer, sweep, fixed=fixed)
        rows = [
            [r["layer_count"], f"{r['solve_time_s']:.0f}",
             f"{r['speedup']:.1f}", f"{100 * r['efficiency']:.0f}%"]
            for r in res.rows()
        ]
        print(ascii_table(
            [f"{layer} procs", "solve [s]", "speedup", "efficiency"],
            rows, title=f"\n{layer} layer"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4, 8])
    args = parser.parse_args()
    measured_process_scaling(args.workers)
    modeled_ofp_scaling()


if __name__ == "__main__":
    main()
