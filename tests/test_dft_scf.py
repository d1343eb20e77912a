"""XC functional, Poisson solver, densities, SCF loop."""

import numpy as np
import pytest

from repro.dft.builders import bulk_al100, grid_for_structure
from repro.dft.density import atomic_density_guess, density_from_orbitals, integrate
from repro.dft.poisson import hartree_energy, hartree_potential, laplacian_fft
from repro.dft.scf import SCFConfig, SCFSolver, _occupations
from repro.dft.structure import Atom, CrystalStructure
from repro.dft.xc import (
    correlation_energy_density,
    correlation_potential,
    exchange_energy_density,
    exchange_potential,
    xc_energy,
    xc_potential,
)
from repro.errors import ConfigurationError
from repro.grid.grid import RealSpaceGrid


# -- XC -------------------------------------------------------------------------

def test_exchange_known_value():
    # ε_x(n=1) = -(3/4)(3/π)^{1/3} ≈ -0.7386
    assert exchange_energy_density(np.array([1.0]))[0] == pytest.approx(
        -0.73856, abs=1e-4
    )
    assert exchange_potential(np.array([1.0]))[0] == pytest.approx(
        4.0 / 3.0 * -0.73856, abs=1e-4
    )


def test_correlation_nearly_continuous_at_rs1():
    """The published PZ81 parameters leave a tiny (≈3e-5 Ha) mismatch at
    the r_s = 1 seam — reproduce it, don't hide it."""
    n_at_rs1 = 3.0 / (4.0 * np.pi)
    eps = 1e-6
    lo = correlation_energy_density(np.array([n_at_rs1 * (1 + eps)]))[0]
    hi = correlation_energy_density(np.array([n_at_rs1 * (1 - eps)]))[0]
    assert abs(lo - hi) < 1e-4
    vlo = correlation_potential(np.array([n_at_rs1 * (1 + eps)]))[0]
    vhi = correlation_potential(np.array([n_at_rs1 * (1 - eps)]))[0]
    assert abs(vlo - vhi) < 1e-3


def test_correlation_known_values():
    # At r_s = 2 (unpolarized PZ81): ε_c ≈ -0.0448 Ha.
    n = 3.0 / (4.0 * np.pi * 2.0**3)
    assert correlation_energy_density(np.array([n]))[0] == pytest.approx(
        -0.0448, abs=2e-3
    )


def test_xc_potential_is_derivative():
    """v_xc = d(n ε_xc)/dn via finite differences."""
    for n0 in (0.01, 0.3, 2.0):
        h = n0 * 1e-6
        def exc_tot(n):
            arr = np.array([n])
            return float(
                n * (exchange_energy_density(arr) + correlation_energy_density(arr))[0]
            )
        numeric = (exc_tot(n0 + h) - exc_tot(n0 - h)) / (2 * h)
        analytic = xc_potential(np.array([n0]))[0]
        assert numeric == pytest.approx(analytic, rel=1e-4)


def test_xc_vacuum_is_zero():
    assert xc_potential(np.zeros(4)).tolist() == [0.0] * 4
    assert xc_energy(np.zeros(4), 1.0) == 0.0


# -- Poisson ---------------------------------------------------------------------

def test_poisson_solves_laplacian():
    g = RealSpaceGrid((12, 12, 12), (0.5, 0.5, 0.5))
    rng = np.random.default_rng(3)
    rho = rng.standard_normal(g.npoints)
    rho -= rho.mean()
    v = hartree_potential(g, rho)
    lap = laplacian_fft(g, v)
    assert np.allclose(lap, -4 * np.pi * rho, atol=1e-10)


def test_poisson_removes_mean():
    g = RealSpaceGrid((8, 8, 8), (0.5, 0.5, 0.5))
    v = hartree_potential(g, np.ones(g.npoints))
    assert np.allclose(v, 0.0, atol=1e-12)


def test_hartree_energy_positive():
    g = RealSpaceGrid((10, 10, 10), (0.5, 0.5, 0.5))
    X, Y, Z = g.meshgrid()
    rho = np.exp(-((X - 2.5) ** 2 + (Y - 2.5) ** 2 + (Z - 2.5) ** 2))
    rho = g.flat(rho)
    rho -= rho.mean()
    assert hartree_energy(g, rho) > 0.0


# -- densities ----------------------------------------------------------------------

def test_atomic_density_normalized():
    s = bulk_al100()
    g = grid_for_structure(s, spacing_angstrom=0.45)
    n = atomic_density_guess(s, g)
    assert integrate(g, n) == pytest.approx(s.n_valence_electrons(), rel=1e-12)
    assert n.min() >= 0.0


def test_density_from_orbitals_counts():
    g = RealSpaceGrid((6, 6, 6), (0.5, 0.5, 0.5))
    rng = np.random.default_rng(4)
    orbs = rng.standard_normal((g.npoints, 3))
    occ = np.array([2.0, 2.0, 0.0])
    n = density_from_orbitals(g, orbs, occ)
    assert integrate(g, n) == pytest.approx(4.0, rel=1e-12)
    with pytest.raises(ConfigurationError):
        density_from_orbitals(g, orbs, np.array([2.0]))


# -- occupations -----------------------------------------------------------------------

def test_occupations_fill_correctly():
    e = np.array([-1.0, -0.5, 0.0, 0.5])
    f, mu = _occupations(e, n_electrons=4, smearing=0.001)
    assert f.sum() == pytest.approx(4.0)
    assert f[0] == pytest.approx(2.0, abs=1e-6)
    assert f[3] == pytest.approx(0.0, abs=1e-6)
    assert -0.5 < mu < 0.0


# -- SCF --------------------------------------------------------------------------------

#: Converged Γ-point orbital energies of the small-Al SCF below.  ARPACK
#: starts each iteration from a random vector, so runs agree to ~1e-7.
SMALL_AL_ORBITAL_ENERGIES = [
    -0.07628508908978011, 0.027566615548940257, 0.027566615550603205,
    0.02777832765271441, 0.24514624284202163, 0.2452822980425057,
    0.2452822980622687, 0.29913301365678285, 0.2991330136836208,
    0.29922096398618975,
]


@pytest.mark.slow
@pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")
def test_scf_converges_on_small_al():
    s = bulk_al100()
    g = grid_for_structure(s, spacing_angstrom=0.55)
    scf = SCFSolver(s, g, SCFConfig(max_iterations=30, tol=5e-4, mixing=0.4))
    result = scf.run()
    assert result.converged, f"SCF residuals: {result.residual_history}"
    # The Γ-point Hamiltonian is real; it is never cast from complex.
    assert result.orbital_energies == pytest.approx(
        SMALL_AL_ORBITAL_ENERGIES, abs=1e-6
    )
    assert result.density.min() >= -1e-12
    assert integrate(g, result.density) == pytest.approx(
        s.n_valence_electrons(), rel=1e-6
    )
    # Residuals must broadly decrease.
    assert result.residual_history[-1] < result.residual_history[0]


def test_lowest_states_are_deterministic():
    """ARPACK starts from a fixed vector: two calls on one Hamiltonian
    return the same states bit for bit."""
    s = bulk_al100()
    scf = SCFSolver(s, grid_for_structure(s, spacing_angstrom=0.9))
    h = scf._hamiltonian(None)
    vals_a, vecs_a = scf._lowest_states(h)
    vals_b, vecs_b = scf._lowest_states(h)
    assert np.array_equal(vals_a, vals_b)
    assert np.array_equal(vecs_a, vecs_b)


def test_scf_config_validation():
    with pytest.raises(ConfigurationError):
        SCFConfig(mixing=0.0)
    with pytest.raises(ConfigurationError):
        SCFConfig(tol=-1.0)
