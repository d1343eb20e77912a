"""Ablation benches for the design choices called out in DESIGN.md.

1. dual-system trick on/off — Step-1 iteration count halves;
2. quorum stopping rule on/off — straggler iterations capped at no
   accuracy cost;
3. Hankel vs Rayleigh-Ritz extraction — same eigenvalues, comparable
   cost (extraction is a rounding error next to Step 1 either way);
4. direct (sparse LU) vs batched BiCG — the N-dependent crossover
   behind the `linear_solver="auto"` policy, between the two engines
   it picks from.
"""

import numpy as np

from conftest import register_report
from _common import al100_workload, paper_ss_config, save_records
from repro.io.results import ExperimentRecord
from repro.io.tables import ascii_table
from repro.models.ladder import TransverseLadder
from repro.ss.rayleigh_ritz import ss_rayleigh_ritz
from repro.ss.solver import SSConfig, SSHankelSolver
from repro.utils.timing import Timer

RESULTS = {}


def test_ablation_dual_trick(benchmark):
    w = al100_workload()

    def run():
        out = {}
        for dual in (True, False):
            # n_int=16 pairs with n_mm=4 (see paper_ss_config caution).
            cfg = paper_ss_config(linear_solver="bicg-batched",
                                  use_dual_trick=dual, quorum_fraction=None,
                                  n_int=16, n_mm=4, n_rh=16)
            with Timer() as t:
                res = SSHankelSolver(w.blocks, cfg).solve(w.fermi)
            out[dual] = (res, t.elapsed)
        return out

    RESULTS["dual"] = benchmark.pedantic(run, rounds=1, iterations=1)


def test_ablation_quorum(benchmark):
    w = al100_workload()

    def run():
        out = {}
        for frac in (0.5, None):
            cfg = paper_ss_config(linear_solver="bicg-batched",
                                  quorum_fraction=frac, n_int=16, n_mm=4,
                                  n_rh=16)
            res = SSHankelSolver(w.blocks, cfg).solve(w.fermi)
            out[frac] = res
        return out

    RESULTS["quorum"] = benchmark.pedantic(run, rounds=1, iterations=1)


def test_ablation_extraction(benchmark):
    w = al100_workload()

    def run():
        cfg = paper_ss_config(linear_solver="direct")
        with Timer() as t_h:
            hankel = SSHankelSolver(w.blocks, cfg).solve(w.fermi)
        with Timer() as t_r:
            rr = ss_rayleigh_ritz(w.blocks, w.fermi, cfg)
        return hankel, t_h.elapsed, rr, t_r.elapsed

    RESULTS["extract"] = benchmark.pedantic(run, rounds=1, iterations=1)


def test_ablation_solver_crossover(benchmark):
    """Direct vs batched BiCG (the engine ``"auto"`` picks above its
    threshold) on growing folded-ladder problems."""

    def run():
        rows = []
        for width, ncell in ((8, 8), (8, 32), (8, 128)):
            lad = TransverseLadder(width=width)
            blocks0 = lad.blocks()
            # Fold into a bigger cell by stacking: reuse the DFT-style
            # supercell trick via kron with a shift chain.
            import scipy.sparse as sp

            n = ncell
            eye = sp.identity(n, format="csr")
            shift = sp.csr_matrix(
                (np.ones(n - 1), (np.arange(1, n), np.arange(n - 1))),
                shape=(n, n))
            corner = sp.csr_matrix(
                (np.ones(1), ([0], [n - 1])), shape=(n, n))
            h0 = (sp.kron(eye, blocks0.h0)
                  + sp.kron(shift, blocks0.hp)
                  + sp.kron(shift.T, blocks0.hm)).tocsr()
            hp = sp.kron(corner, blocks0.hp).tocsr()
            hm = hp.conj().T.tocsr()
            from repro.qep.blocks import BlockTriple

            big = BlockTriple(hm, h0, hp, cell_length=ncell)
            cfg_kwargs = dict(n_int=8, n_mm=4, n_rh=4, seed=3,
                              bicg_tol=1e-9, quorum_fraction=None,
                              record_history=False)
            with Timer() as t_d:
                SSHankelSolver(
                    big, SSConfig(linear_solver="direct", **cfg_kwargs)
                ).solve(-0.5)
            with Timer() as t_b:
                SSHankelSolver(
                    big, SSConfig(linear_solver="bicg-batched", **cfg_kwargs)
                ).solve(-0.5)
            rows.append((width * ncell, t_d.elapsed, t_b.elapsed))
        return rows

    RESULTS["crossover"] = benchmark.pedantic(run, rounds=1, iterations=1)
    _report()


def _report():
    records = []

    (res_dual, t_dual) = RESULTS["dual"][True]
    (res_nodual, t_nodual) = RESULTS["dual"][False]
    iter_ratio = res_nodual.total_iterations() / max(res_dual.total_iterations(), 1)
    dual_rows = [
        ["dual trick ON", f"{t_dual:.2f}", res_dual.total_iterations(),
         res_dual.count],
        ["dual trick OFF", f"{t_nodual:.2f}", res_nodual.total_iterations(),
         res_nodual.count],
        ["ratio", f"{t_nodual / t_dual:.2f}x", f"{iter_ratio:.2f}x", "-"],
    ]
    assert iter_ratio > 1.6, "dual trick must ~halve Step-1 iterations"
    records.append(ExperimentRecord(
        "ablation_dual", "Al(100)", "qep_ss",
        metrics={"iter_ratio": iter_ratio, "time_ratio": t_nodual / t_dual}))

    q_on = RESULTS["quorum"][0.5]
    q_off = RESULTS["quorum"][None]
    saved = 1.0 - q_on.total_iterations() / max(q_off.total_iterations(), 1)
    agree = q_on.count == q_off.count
    quorum_rows = [
        ["quorum ON", q_on.total_iterations(), q_on.count],
        ["quorum OFF", q_off.total_iterations(), q_off.count],
        ["iterations saved", f"{100 * saved:.1f}%", "agree" if agree else "DISAGREE"],
    ]
    assert agree, "quorum must not change the accepted eigenpairs"
    records.append(ExperimentRecord(
        "ablation_quorum", "Al(100)", "qep_ss",
        metrics={"saved_fraction": saved, "agree": agree}))

    hankel, t_h, rr, t_r = RESULTS["extract"]
    err = (max(np.min(np.abs(hankel.eigenvalues - lam))
               for lam in rr.eigenvalues)
           if rr.count and hankel.count else float("nan"))
    extract_rows = [
        ["Hankel", f"{t_h:.2f}", hankel.count],
        ["Rayleigh-Ritz", f"{t_r:.2f}", rr.count],
        ["eigenvalue agreement", f"{err:.1e}", "-"],
    ]
    assert hankel.count == rr.count
    records.append(ExperimentRecord(
        "ablation_extraction", "Al(100)", "qep_ss",
        metrics={"hankel_s": t_h, "rr_s": t_r, "max_diff": float(err)}))

    cross_rows = [
        [n, f"{t_d:.2f}", f"{t_b:.2f}",
         "direct" if t_d < t_b else "bicg-batched"]
        for (n, t_d, t_b) in RESULTS["crossover"]
    ]
    for (n, t_d, t_b) in RESULTS["crossover"]:
        records.append(ExperimentRecord(
            "ablation_crossover", f"ladder N={n}", "qep_ss",
            metrics={"direct_s": t_d, "bicg_s": t_b}))

    table = "\n\n".join([
        ascii_table(["configuration", "time [s]", "Step-1 iterations",
                     "eigenpairs"], dual_rows,
                    title="Ablation 1 — dual-system trick (paper §3.2)"),
        ascii_table(["configuration", "Step-1 iterations", "eigenpairs"],
                    quorum_rows,
                    title="Ablation 2 — quorum stopping rule (paper §3.3)"),
        ascii_table(["extraction", "time [s]", "eigenpairs"], extract_rows,
                    title="Ablation 3 — Hankel vs Rayleigh-Ritz extraction"),
        ascii_table(["N", "direct LU [s]", "batched BiCG [s]", "winner"],
                    cross_rows,
                    title=(
                        "Ablation 4 — linear-solver crossover (auto policy).\n"
                        "Quasi-1D problems keep LU fill trivial, so direct "
                        "wins throughout this range; BiCG takes over for 3D "
                        "fill at large N (the paper's 62k-point regime)."
                    )),
    ])
    register_report("Ablations (DESIGN.md design choices)", table)
    save_records("ablations", records)
