"""Table 1 — breakdown of the QEP/SS computational cost.

Paper (seconds):                         Al(100)    (6,6) CNT
    read matrix data                       0.104        0.209
    solve linear equations                11.207      304.884
    extract eigenpairs                     0.138        0.831

Shape to reproduce: the linear solves dominate by 1-2 orders of
magnitude; I/O and extraction are trivial.  This is the fact the whole
parallelization strategy rests on ("the most time-consuming part ... is
Step 1", §3.3).
"""

from conftest import register_report
from _common import al100_workload, cnt_workload, paper_ss_config, save_records
from repro.io.matio import load_blocks, save_blocks
from repro.io.results import ExperimentRecord
from repro.io.tables import ascii_table
from repro.ss.solver import SSHankelSolver
from repro.utils.timing import Timer

RESULTS = {}
PAPER = {
    "al": {"read": 0.104, "solve": 11.207, "extract": 0.138},
    "cnt": {"read": 0.209, "solve": 304.884, "extract": 0.831},
}


def _breakdown(workload, tmp_path):
    path = tmp_path / "blocks.npz"
    save_blocks(path, workload.blocks)
    with Timer() as t_read:
        blocks = load_blocks(path)
    solver = SSHankelSolver(
        blocks, paper_ss_config(linear_solver="bicg-batched")
    )
    result = solver.solve(workload.fermi)
    return {
        "read": t_read.elapsed,
        "solve": result.phase_times.get("solve linear equations"),
        "extract": result.phase_times.get("extract eigenpairs"),
        "count": result.count,
        "iterations": result.total_iterations(),
    }


def test_table1_al(benchmark, tmp_path):
    w = al100_workload()
    RESULTS["al"] = (w, benchmark.pedantic(
        lambda: _breakdown(w, tmp_path), rounds=1, iterations=1))


def test_table1_cnt(benchmark, tmp_path):
    w = cnt_workload()
    RESULTS["cnt"] = (w, benchmark.pedantic(
        lambda: _breakdown(w, tmp_path), rounds=1, iterations=1))
    _report()


def _report():
    rows = []
    records = []
    for key in ("al", "cnt"):
        w, b = RESULTS[key]
        p = PAPER[key]
        rows.append([
            w.name,
            f"{b['read']:.3f}", f"{b['solve']:.3f}", f"{b['extract']:.3f}",
            f"{b['solve'] / max(b['read'] + b['extract'], 1e-12):.0f}x",
            f"{p['solve'] / (p['read'] + p['extract']):.0f}x",
            b["iterations"],
        ])
        records.append(ExperimentRecord(
            "table1", w.name, "qep_ss",
            metrics=b, parameters={"n": w.info.n},
        ))
    table = ascii_table(
        ["system", "read matrix [s]", "solve lin. eq. [s]",
         "extract eig. [s]", "solve dominance", "paper dominance",
         "BiCG iterations"],
        rows,
        title="Table 1 — cost breakdown of the proposed method (BiCG path)",
    )
    register_report("Table 1 (cost breakdown)", table)
    save_records("table1", records)
