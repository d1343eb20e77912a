"""Figure 4 — serial runtime and memory: OBM vs QEP/SS.

Paper values (their hardware, their sizes):

    Al(100):   runtime 143.891 s (OBM) vs 11.345 s (QEP/SS)   → 12.7x
               memory  703.173 MB      vs 21.333 MB           → 33x
    (6,6) CNT: runtime 115.379 h       vs 0.085 h             → 1357x
               memory  115.331 GB      vs 0.191 GB            → 604x

Shape to reproduce at bench scale: QEP/SS wins both metrics and the
advantage **grows** with system size — OBM is O(N³) time / O(N²) memory
while QEP/SS stays ~O(N²)/O(N).  Three systems are used: two where both
methods are measured, and a larger one where OBM's dense ZGGEV is
*modeled* from the measured cubic scaling (labelled "modeled", the same
way the paper's 115 h figure is beyond routine measurement).
"""

import numpy as np

from conftest import register_report
from _common import (
    SCALE,
    al100_workload,
    cnt_large_workload,
    cnt_workload,
    paper_ss_config,
    ring_reference_count,
    save_records,
)
from repro.baselines.obm import OBMSolver
from repro.io.results import ExperimentRecord
from repro.io.tables import ascii_table
from repro.ss.solver import SSHankelSolver
from repro.utils.timing import Timer

RESULTS = {}
PAPER = {
    "al": {"obm_s": 143.891, "ss_s": 11.345, "obm_b": 703.173e6, "ss_b": 21.333e6},
    "cnt": {"obm_s": 115.379 * 3600, "ss_s": 0.085 * 3600,
            "obm_b": 115.331e9, "ss_b": 0.191e9},
}


def _run_obm(workload):
    solver = OBMSolver(workload.blocks, workload.grid)
    with Timer() as t:
        result = solver.solve(workload.fermi)
    return result, t.elapsed


def _run_ss(workload, linear_solver="auto"):
    solver = SSHankelSolver(
        workload.blocks, paper_ss_config(linear_solver=linear_solver)
    )
    with Timer() as t:
        result = solver.solve(workload.fermi)
    return result, t.elapsed


def test_fig4_obm_al(benchmark):
    w = al100_workload()
    RESULTS["obm_al"] = (w,) + benchmark.pedantic(
        lambda: _run_obm(w), rounds=1, iterations=1)


def test_fig4_ss_al(benchmark):
    w = al100_workload()
    RESULTS["ss_al"] = (w,) + benchmark.pedantic(
        lambda: _run_ss(w), rounds=1, iterations=1)


def test_fig4_ss_al_bicg_batched(benchmark):
    """The paper's matrix-free BiCG path (batched engine), same config."""
    w = al100_workload()
    RESULTS["ss_al_batched"] = (w,) + benchmark.pedantic(
        lambda: _run_ss(w, "bicg-batched"), rounds=1, iterations=1)


def test_fig4_obm_cnt(benchmark):
    w = cnt_workload()
    RESULTS["obm_cnt"] = (w,) + benchmark.pedantic(
        lambda: _run_obm(w), rounds=1, iterations=1)


def test_fig4_ss_cnt(benchmark):
    w = cnt_workload()
    RESULTS["ss_cnt"] = (w,) + benchmark.pedantic(
        lambda: _run_ss(w), rounds=1, iterations=1)


def test_fig4_ss_cnt_large(benchmark):
    w = cnt_large_workload()
    RESULTS["ss_large"] = (w,) + benchmark.pedantic(
        lambda: _run_ss(w), rounds=1, iterations=1)
    _report()


def _modeled_obm(workload):
    """OBM cost model anchored to the measured runs: ZGGEV ~ (2m)³ scaled
    from the measured CNT eigen-solve, columns via sparse LU measured
    separately cheap; memory from the exact formula."""
    w_ref, obm_ref, _t = RESULTS["obm_cnt"]
    ref_eig = obm_ref.phase_times.get("solve eigenvalue problem")
    solver = OBMSolver(workload.blocks, workload.grid)
    m = solver.boundary_width() * workload.grid.plane_size
    m_ref = obm_ref.reduced_dim // 2
    eig_time = ref_eig * (m / m_ref) ** 3
    inv_ref = obm_ref.phase_times.get("matrix inversion")
    inv_time = inv_ref * (workload.info.n / w_ref.info.n) ** 1.5
    return eig_time + inv_time, solver.memory_estimate()


def _report():
    rows = []
    records = []
    systems = [("al", "al", "obm_al"), ("cnt", "cnt", "obm_cnt")]
    for key, paper_key, obm_key in systems:
        w, obm, t_obm = RESULTS[obm_key]
        _, ss, t_ss = RESULTS[f"ss_{key}"]
        ref = ring_reference_count(w.blocks, w.fermi)
        agree = obm.count == ss.count and (
            obm.count == 0
            or max(np.min(np.abs(obm.eigenvalues - lam))
                   for lam in ss.eigenvalues) < 1e-5
        )
        p = PAPER[paper_key]
        rows.append([
            w.name, w.info.n, "measured",
            f"{t_obm:.2f}", f"{t_ss:.2f}", f"{t_obm / t_ss:.1f}x",
            f"{p['obm_s'] / p['ss_s']:.0f}x",
            f"{obm.memory.total / 1e6:.1f}", f"{ss.memory.total / 1e6:.1f}",
            f"{obm.memory.total / ss.memory.total:.1f}x",
            f"{p['obm_b'] / p['ss_b']:.0f}x",
            f"{ss.count}/{ref if ref >= 0 else '?'}",
            "yes" if agree else "NO",
        ])
        for method, t, mem, cnt in (("obm", t_obm, obm.memory.total, obm.count),
                                    ("qep_ss", t_ss, ss.memory.total, ss.count)):
            records.append(ExperimentRecord(
                "fig4", w.name, method,
                metrics={"runtime_s": t, "memory_bytes": mem, "eigenpairs": cnt},
                parameters={"n": w.info.n, "fermi": w.fermi, "mode": "measured"},
            ))

    if SCALE != "tiny":
        w, ss, t_ss = RESULTS["ss_large"]
        t_obm_model, mem_obm_model = _modeled_obm(w)
        rows.append([
            w.name, w.info.n, "OBM modeled",
            f"{t_obm_model:.0f}", f"{t_ss:.2f}", f"{t_obm_model / t_ss:.0f}x",
            "1357x (paper CNT)",
            f"{mem_obm_model / 1e6:.0f}", f"{ss.memory.total / 1e6:.1f}",
            f"{mem_obm_model / ss.memory.total:.0f}x",
            "604x (paper CNT)",
            f"{ss.count}/?",
            "-",
        ])
        records.append(ExperimentRecord(
            "fig4", w.name, "obm",
            metrics={"runtime_s": t_obm_model, "memory_bytes": mem_obm_model},
            parameters={"n": w.info.n, "mode": "modeled"},
        ))
        records.append(ExperimentRecord(
            "fig4", w.name, "qep_ss",
            metrics={"runtime_s": t_ss, "memory_bytes": ss.memory.total,
                     "eigenpairs": ss.count},
            parameters={"n": w.info.n, "mode": "measured"},
        ))

    _, _, t_batched = RESULTS["ss_al_batched"]
    table = ascii_table(
        ["system", "N", "mode", "OBM [s]", "QEP/SS [s]", "speedup",
         "paper speedup", "OBM [MB]", "QEP/SS [MB]", "mem ratio",
         "paper mem ratio", "pairs/ref", "agree"],
        rows,
        title=(
            "Figure 4 — serial runtime & memory, OBM vs QEP/SS (bench scale)\n"
            f"(QEP/SS matrix-free BiCG on Al(100): {t_batched:.2f} s; "
            "the sparse-LU strategy is optimal at these N;\n"
            " QEP/SS [MB] counts the Hamiltonian blocks as the solver stores "
            "them: real float64 CSR at Γ, about half their complex cast)"
        ),
    )
    register_report("Figure 4 (serial performance)", table)
    save_records("fig4", records)
