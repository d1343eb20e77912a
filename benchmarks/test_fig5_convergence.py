"""Figure 5 — BiCG convergence histories at each quadrature point.

Paper observations to reproduce:

1. convergence does not depend strongly on the quadrature point z_j
   (the residual curves form a tight band);
2. "when the half of the residual norms achieved 1e-10, that with the
   slowest convergence became less than 1e-8" — the justification of the
   quorum stopping rule;
3. iteration counts grow mildly with N (CNT needs ~2x the iterations of
   Al at 7.8x the size, exponent ≈ 0.34).
"""

import math

import numpy as np

from conftest import register_report
from _common import al100_workload, cnt_workload, paper_ss_config, save_records
from repro.io.results import ExperimentRecord
from repro.io.tables import ascii_table
from repro.ss.solver import SSHankelSolver

RESULTS = {}


def _histories(workload):
    cfg = paper_ss_config(linear_solver="bicg-batched", record_history=True,
                          quorum_fraction=None)
    solver = SSHankelSolver(workload.blocks, cfg)
    result = solver.solve(workload.fermi)
    # One iteration count per (point, rhs) system.
    iters = np.array([
        len(h) for p in result.point_stats for h in p.histories
    ])
    # Residual of every system at the round when half the systems had
    # converged (the quorum trigger).
    all_hist = [h for p in result.point_stats for h in p.histories]
    sorted_iters = np.sort(iters)
    half_round = int(sorted_iters[len(sorted_iters) // 2])
    at_half = np.array([
        h[min(half_round, len(h)) - 1] for h in all_hist if h
    ])
    return result, iters, at_half


def test_fig5_al(benchmark):
    w = al100_workload()
    RESULTS["al"] = (w,) + benchmark.pedantic(
        lambda: _histories(w), rounds=1, iterations=1)


def test_fig5_cnt(benchmark):
    w = cnt_workload()
    RESULTS["cnt"] = (w,) + benchmark.pedantic(
        lambda: _histories(w), rounds=1, iterations=1)
    _report()


def _report():
    rows = []
    records = []
    for key in ("al", "cnt"):
        w, result, iters, at_half = RESULTS[key]
        worst_at_half = float(at_half.max())
        rows.append([
            w.name, w.info.n,
            int(iters.min()), int(np.median(iters)), int(iters.max()),
            f"{iters.max() / iters.min():.2f}",
            f"{worst_at_half:.1e}",
            "yes" if worst_at_half < 1e-7 else "NO",
        ])
        records.append(ExperimentRecord(
            "fig5", w.name, "qep_ss_bicg",
            metrics={
                "iters_min": int(iters.min()),
                "iters_median": float(np.median(iters)),
                "iters_max": int(iters.max()),
                "worst_residual_at_quorum": worst_at_half,
            },
            parameters={"n": w.info.n, "tol": 1e-10},
        ))
    w_al, _, it_al, _ = RESULTS["al"]
    w_cnt, _, it_cnt, _ = RESULTS["cnt"]
    # Two-point exponent p in iterations ∝ N^p between the two systems.
    exponent = math.log(np.median(it_cnt) / np.median(it_al)) / math.log(
        w_cnt.info.n / w_al.info.n
    )
    table = ascii_table(
        ["system", "N", "min iters", "median", "max", "max/min spread",
         "slowest residual @ half-converged", "quorum safe (<1e-7)"],
        rows,
        title=(
            "Figure 5 — BiCG residual histories per quadrature point\n"
            "(uniform convergence: tight iteration spread; the slowest "
            "system is already accurate when half have converged.\n"
            f" iteration exponent Al(100) N={w_al.info.n} → (4,0) CNT "
            f"N={w_cnt.info.n}: {exponent:.2f} — two structures, not an "
            "N-law; the paper observes clearly sublinear growth, "
            "exponent ≈ 0.34)"
        ),
    )
    register_report("Figure 5 (BiCG convergence)", table)
    save_records("fig5", records)
