"""End-to-end integration: every path through the full pipeline agrees.

The chain being validated (on a small but *real* DFT Hamiltonian):

    builders → grid → KS blocks → {SS-Hankel, SS-RR, OBM, dense} → CBS
"""

import numpy as np
import pytest

from repro.baselines.dense_qep import DenseQEPBaseline
from repro.baselines.obm import OBMSolver
from repro.cbs.bands import band_structure
from repro.cbs.scan import CBSCalculator
from repro.dft.fermi import estimate_fermi
from repro.ss.rayleigh_ritz import ss_rayleigh_ritz
from repro.ss.solver import SSConfig, SSHankelSolver

from tests.conftest import match_error

CFG = dict(n_int=24, n_mm=8, n_rh=8, seed=11, linear_solver="direct")


@pytest.fixture(scope="module")
def al_fermi(request):
    al = request.getfixturevalue("al_small")
    est = estimate_fermi(
        al["blocks"], al["structure"].n_valence_electrons()
    )
    return al, est


def test_four_methods_agree(al_fermi):
    al, est = al_fermi
    e = est.fermi
    blocks, grid = al["blocks"], al["grid"]
    ss = SSHankelSolver(blocks, SSConfig(**CFG)).solve(e)
    rr = ss_rayleigh_ritz(blocks, e, SSConfig(**CFG))
    obm = OBMSolver(blocks, grid).solve(e)
    dense = DenseQEPBaseline(blocks).solve(e)
    assert ss.count == rr.count == obm.count == dense.count > 0
    for other in (rr.eigenvalues, obm.eigenvalues, dense.eigenvalues):
        assert match_error(ss.eigenvalues, other) < 1e-6


def test_ss_bicg_agrees_with_direct_on_dft(al_fermi):
    al, est = al_fermi
    bicg_cfg = SSConfig(n_int=24, n_mm=8, n_rh=4, seed=11,
                        linear_solver="bicg-batched", bicg_tol=1e-10)
    direct_cfg = SSConfig(n_int=24, n_mm=8, n_rh=4, seed=11,
                          linear_solver="direct")
    b = SSHankelSolver(al["blocks"], bicg_cfg).solve(est.fermi)
    d = SSHankelSolver(al["blocks"], direct_cfg).solve(est.fermi)
    assert b.count == d.count
    assert match_error(b.eigenvalues, d.eigenvalues) < 1e-6


def test_cbs_scan_against_bands_on_dft(al_fermi):
    """Figure 6 on the real substrate: propagating CBS modes must land on
    the conventional band structure."""
    al, est = al_fermi
    blocks = al["blocks"]
    calc = CBSCalculator(blocks, SSConfig(**CFG))
    energies = np.linspace(est.fermi - 0.1, est.fermi + 0.1, 3)
    result = calc.scan(energies)
    bs = band_structure(blocks, n_k=801, dense_threshold=1000)
    checked = 0
    for e, k in result.propagating_points():
        assert bs.distance_to_bands(e, abs(k)) < 5e-4
        checked += 1
    assert checked > 0


def test_eigenvalue_pairing_on_dft(al_fermi):
    """(λ, 1/λ̄) pairing on the real Hamiltonian."""
    al, est = al_fermi
    res = SSHankelSolver(al["blocks"], SSConfig(**CFG)).solve(est.fermi)
    lam = res.eigenvalues
    for p in 1.0 / np.conj(lam):
        assert np.min(np.abs(lam - p)) < 1e-6 * max(1.0, abs(p))


def test_memory_hierarchy_obm_vs_ss(al_fermi):
    """Figure 4(b)'s shape at laptop scale: OBM stores orders of magnitude
    more than QEP/SS on the same problem."""
    al, est = al_fermi
    obm = OBMSolver(al["blocks"], al["grid"])
    ss = SSHankelSolver(
        al["blocks"], SSConfig(n_int=24, n_mm=8, n_rh=8, seed=1,
                               linear_solver="bicg-batched")
    )
    res = ss.solve(est.fermi)
    assert obm.memory_estimate() > 3 * res.memory.total
