"""KS Hamiltonian assembly: structure, Hermiticity, physics sanity."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.dft.builders import bulk_al100, grid_for_structure, nanotube
from repro.dft.fermi import estimate_fermi
from repro.dft.hamiltonian import KSHamiltonianBuilder, build_blocks
from repro.dft.pseudopotential import (
    KBProjector,
    LocalPseudopotential,
    gaussian_norm_analytic,
    pseudopotential_for,
)
from repro.errors import ConfigurationError
from repro.grid.grid import RealSpaceGrid


# -- pseudopotential pieces -------------------------------------------------------

def test_local_potential_shape():
    v = LocalPseudopotential(depth=2.0, width=0.8)
    r = np.array([0.0, 0.8, 3.6])
    vals = v.evaluate(r)
    assert vals[0] == pytest.approx(-2.0)
    assert vals[1] == pytest.approx(-2.0 * np.exp(-0.5))
    assert abs(vals[2]) < abs(vals[1])
    assert v.cutoff == pytest.approx(4.5 * 0.8)


def test_projector_functions():
    p = KBProjector(l=1, energy=-0.3, width=0.6)
    assert p.n_functions == 3
    dx = np.array([0.1]); dy = np.array([0.0]); dz = np.array([0.0])
    px, py, pz = p.evaluate(dx, dy, dz)
    assert py[0] == 0.0 and pz[0] == 0.0 and px[0] > 0.0
    s = KBProjector(l=0, energy=0.5, width=0.6)
    assert s.n_functions == 1


def test_projector_validation():
    with pytest.raises(ConfigurationError):
        KBProjector(l=2, energy=0.1, width=0.5)
    with pytest.raises(ConfigurationError):
        KBProjector(l=0, energy=0.0, width=0.5)


def test_gaussian_norm_vs_grid_sum():
    """The grid quadrature must converge to the analytic projector norm."""
    sigma = 0.7
    p = KBProjector(l=0, energy=1.0, width=sigma)
    g = RealSpaceGrid((40, 40, 40), (0.25, 0.25, 0.25))
    center = np.array([5.0, 5.0, 5.0])
    _, _, _, dx, dy, dz = g.points_near(center, p.cutoff)
    (chi,) = p.evaluate(dx, dy, dz)
    grid_norm = float(np.sum(chi**2)) * g.volume_element
    # 3σ truncation keeps ~99.7% of the 3D Gaussian-squared norm.
    assert grid_norm == pytest.approx(
        gaussian_norm_analytic(sigma / np.sqrt(2) * np.sqrt(2), 0), rel=2e-2
    )


def test_species_pseudopotential_registry():
    pp = pseudopotential_for("C")
    assert pp.n_projector_functions == 4
    assert pp.max_cutoff > 0


# -- assembly ----------------------------------------------------------------------

def test_blocks_hermiticity(al_small):
    assert al_small["blocks"].hermiticity_defect() < 1e-12


def test_blocks_sparsity(al_small):
    blocks, info = al_small["blocks"], al_small["info"]
    n = info.n
    assert blocks.is_sparse
    assert info.nnz_h0 < 0.3 * n * n
    assert info.nnz_hp < info.nnz_h0


def test_kinetic_only_free_electron():
    """Empty lattice: lowest band must be ħ²k²/2m on the grid."""
    g = RealSpaceGrid((8, 8, 8), (0.6, 0.6, 0.6))
    s = bulk_al100()
    # Rescale cell to grid lengths with no atoms at all.
    from repro.dft.structure import CrystalStructure

    empty = CrystalStructure(g.lengths, [], name="empty")
    blocks, _ = build_blocks(empty, g, include_nonlocal=False)
    h = blocks.bloch_hamiltonian_k(0.0)
    e = np.sort(np.real(spla.eigsh(h.tocsc(), k=3, which="SA",
                                   return_eigenvectors=False)))
    assert abs(e[0]) < 1e-10  # constant mode at zero energy
    # First excited state: (2π/L)²/2 with the FD dispersion ≈ exact.
    lx = g.lengths[0]
    exact = 0.5 * (2 * np.pi / lx) ** 2
    assert e[1] == pytest.approx(exact, rel=5e-3)


def test_grid_cell_mismatch_raises():
    s = bulk_al100()
    g = RealSpaceGrid((8, 8, 8), (1.0, 1.0, 1.0))  # wrong lengths
    with pytest.raises(ConfigurationError):
        KSHamiltonianBuilder(s, g)


def test_thin_grid_raises():
    s = bulk_al100()
    g = grid_for_structure(s, spacing_angstrom=0.45)
    thin = RealSpaceGrid((g.nx, g.ny, 2), (g.spacing[0], g.spacing[1],
                                           s.cell[2] / 2))
    with pytest.raises(ConfigurationError):
        KSHamiltonianBuilder(s, thin, nf=4)


def test_external_potential_shifts_spectrum(al_kinetic):
    s, g = al_kinetic["structure"], al_kinetic["grid"]
    shift = 0.123
    blocks0, _ = build_blocks(s, g, include_nonlocal=False)
    blocks1, _ = build_blocks(
        s, g, include_nonlocal=False,
        external_potential=np.full(g.npoints, shift),
    )
    h0 = blocks0.bloch_hamiltonian_k(0.2)
    h1 = blocks1.bloch_hamiltonian_k(0.2)
    e0 = np.sort(np.real(spla.eigsh(h0.tocsc(), k=3, which="SA",
                                    return_eigenvectors=False)))
    e1 = np.sort(np.real(spla.eigsh(h1.tocsc(), k=3, which="SA",
                                    return_eigenvectors=False)))
    assert np.allclose(e1, e0 + shift, atol=1e-9)


def test_external_potential_validation(al_kinetic):
    s, g = al_kinetic["structure"], al_kinetic["grid"]
    with pytest.raises(ConfigurationError):
        KSHamiltonianBuilder(s, g, external_potential=np.zeros(3))


def test_nonlocal_contributes(al_small):
    s, g = al_small["structure"], al_small["grid"]
    with_nl = al_small["blocks"]
    without, _ = build_blocks(s, g, include_nonlocal=False)
    d = (with_nl.h0 - without.h0)
    assert np.max(np.abs(d.data)) > 1e-3  # projectors actually present


def test_projector_cross_boundary_pieces():
    """An atom near the z boundary must put projector weight into H±."""
    from repro.dft.structure import Atom, CrystalStructure

    g = RealSpaceGrid((10, 10, 10), (0.7, 0.7, 0.7))
    s = CrystalStructure(
        g.lengths, [Atom("C", (3.5, 3.5, 0.2))], name="edge atom"
    )
    blocks, info = build_blocks(s, g)
    # Kinetic-only H+ for comparison:
    blocks_kin, _ = build_blocks(s, g, include_nonlocal=False)
    extra = blocks.hp - blocks_kin.hp
    assert sp.issparse(extra)
    assert np.max(np.abs(extra.toarray())) > 1e-8
    assert blocks.hermiticity_defect() < 1e-12


def test_band_degeneracy_al_gamma(al_small):
    """fcc at Γ: p-like triple degeneracy in the low bands (cubic
    symmetry survives the grid to ~meV)."""
    h = al_small["blocks"].bloch_hamiltonian_k(0.0)
    e = np.sort(np.real(spla.eigsh(h.tocsc(), k=6, which="SA",
                                   return_eigenvectors=False)))
    spread = e[1:4].max() - e[1:4].min()
    assert spread < 5e-3


def test_fermi_estimate_al_metallic(al_small):
    est = estimate_fermi(al_small["blocks"],
                         al_small["structure"].n_valence_electrons())
    assert est.homo <= est.fermi <= est.lumo
    assert est.gap < 0.05  # Al is a metal


def test_fermi_estimate_sparse_path_is_deterministic(al_small):
    """Above ``dense_threshold`` ARPACK starts from a fixed vector, so
    repeated estimates agree bit for bit (and with the dense path to
    the eigensolver's tolerance)."""
    blocks = al_small["blocks"]
    n_val = al_small["structure"].n_valence_electrons()
    kw = dict(n_bands=min(blocks.n - 2, max(24, n_val)),
              dense_threshold=blocks.n - 1)
    first = estimate_fermi(blocks, n_val, **kw)
    second = estimate_fermi(blocks, n_val, **kw)
    assert first.fermi == second.fermi
    assert (first.homo, first.lumo) == (second.homo, second.lumo)
    dense = estimate_fermi(blocks, n_val, n_bands=kw["n_bands"])
    assert first.fermi == pytest.approx(dense.fermi, abs=1e-8)


def test_fermi_validation(al_small):
    with pytest.raises(ConfigurationError):
        estimate_fermi(al_small["blocks"], 0)


def test_info_fields(al_small):
    info = al_small["info"]
    assert info.n == al_small["grid"].npoints
    assert info.natoms == 4
    assert info.n_projectors == 16
    assert info.assembly_seconds > 0
    assert info.stencil_width == 4
