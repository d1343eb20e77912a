"""Batched Step-1 engine at the paper's serial settings.

Config: the Fig. 4 serial SS parameters (``N_int=32, N_rh=16``) on the
ladder model.  The batched BiCG engine must find the dense QEP
baseline's ring eigenvalues: the same count, each within 1e-8.
"""

import numpy as np

from conftest import register_report
from _common import save_records
from repro.baselines.dense_qep import DenseQEPBaseline
from repro.io.results import ExperimentRecord
from repro.io.tables import ascii_table
from repro.models.ladder import TransverseLadder
from repro.ss.solver import SSConfig, SSHankelSolver
from repro.utils.timing import Timer

ENERGY = -0.5
RESULTS = {}


def _config(linear_solver):
    return SSConfig(n_int=32, n_mm=8, n_rh=16, delta=1e-10, lambda_min=0.5,
                    bicg_tol=1e-10, seed=11, linear_solver=linear_solver)


def _run(linear_solver):
    lad = TransverseLadder(width=4)
    solver = SSHankelSolver(lad.blocks(), _config(linear_solver))
    with Timer() as t:
        result = solver.solve(ENERGY)
    return result, t.elapsed


def test_step1_batched(benchmark):
    RESULTS["bicg-batched"] = benchmark.pedantic(
        lambda: _run("bicg-batched"), rounds=1, iterations=1)


def test_step1_speedup_and_accuracy():
    bat, t_bat = RESULTS["bicg-batched"]
    dense = DenseQEPBaseline(TransverseLadder(width=4).blocks()).solve(ENERGY)
    # Check the counts before computing deviations so a regression to
    # zero accepted pairs reports as itself, not as max() on empty.
    assert bat.count == dense.count > 0
    dev_bat = max(
        float(np.min(np.abs(dense.eigenvalues - lam)))
        for lam in bat.eigenvalues
    )

    table = ascii_table(
        ["strategy", "Step-1 wall [s]", "pairs", "max dev vs dense",
         "BiCG iters"],
        [["bicg-batched", f"{t_bat:.3f}", bat.count, f"{dev_bat:.2e}",
          bat.total_iterations()]],
        title=("Batched Step-1 engine — ladder model, N_int=32, N_rh=16\n"
               "(acceptance: < 1e-8 deviation from the dense QEP)"),
    )
    register_report("Batched Step-1 engine", table)
    save_records("batched_step1", [
        ExperimentRecord(
            "batched_step1", "ladder-w4", "bicg-batched",
            metrics={"runtime_s": t_bat, "eigenpairs": bat.count,
                     "max_dev_vs_dense": dev_bat,
                     "bicg_iterations": bat.total_iterations()},
            parameters={"n_int": 32, "n_rh": 16, "energy": ENERGY},
        )
    ])

    assert dev_bat < 1e-8
