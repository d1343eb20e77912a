"""A compact Kohn-Sham self-consistency loop (RSPACE's role).

The paper obtains its effective potential from RSPACE's SCF and feeds
the converged Hamiltonian to the CBS solver.  This module closes the
same loop at laptop scale:

    density → v_H (FFT Poisson) + v_xc (LDA/PZ81) + v_ps,loc
            → lowest KS orbitals at Γ (Lanczos) → new density → mix.

The default Hamiltonian path (superposed screened atomic potentials,
``external_potential=None``) is already a fixed point of a neutral-atom
screening model, so SCF is an optional refinement; it exists to make the
substrate complete and is exercised by tests on small cells.  Restricted
to Γ-point sampling and spin-unpolarized occupation, like the paper's
examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.dft.density import atomic_density_guess, density_from_orbitals
from repro.dft.hamiltonian import KSHamiltonianBuilder
from repro.dft.poisson import hartree_potential
from repro.dft.structure import CrystalStructure
from repro.dft.xc import xc_potential
from repro.errors import ConfigurationError, ConvergenceError
from repro.grid.grid import RealSpaceGrid


@dataclass
class SCFResult:
    """Converged (or final) state of the SCF loop."""

    converged: bool
    iterations: int
    density: np.ndarray
    effective_potential: np.ndarray     #: v_H + v_xc (add to the builder)
    orbital_energies: np.ndarray
    residual_history: List[float] = field(default_factory=list)
    fermi: float = 0.0


@dataclass(frozen=True)
class SCFConfig:
    """SCF loop controls.

    Attributes
    ----------
    max_iterations / tol:
        Stop when the density residual ``‖n_out - n_in‖·dV`` (electrons)
        drops below ``tol``.
    mixing:
        Linear density mixing factor (simple mixing; small cells don't
        need Anderson acceleration).
    n_extra_bands:
        Unoccupied bands carried for robustness of the Lanczos solve.
    smearing:
        Fermi smearing width (Hartree) for metallic occupations.
    """

    max_iterations: int = 40
    tol: float = 1e-5
    mixing: float = 0.3
    n_extra_bands: int = 4
    smearing: float = 0.01

    def __post_init__(self) -> None:
        if not 0 < self.mixing <= 1:
            raise ConfigurationError(f"mixing must be in (0,1], got {self.mixing}")
        if self.tol <= 0:
            raise ConfigurationError("tol must be positive")


def _occupations(energies: np.ndarray, n_electrons: int,
                 smearing: float) -> tuple[np.ndarray, float]:
    """Fermi-Dirac occupations summing to ``n_electrons`` (bisection)."""
    lo, hi = float(energies.min()) - 1.0, float(energies.max()) + 1.0
    for _ in range(200):
        mu = 0.5 * (lo + hi)
        f = 2.0 / (1.0 + np.exp(np.clip((energies - mu) / smearing, -60, 60)))
        total = f.sum()
        if total > n_electrons:
            hi = mu
        else:
            lo = mu
    mu = 0.5 * (lo + hi)
    f = 2.0 / (1.0 + np.exp(np.clip((energies - mu) / smearing, -60, 60)))
    return f * (n_electrons / f.sum()), mu


class SCFSolver:
    """Γ-point Kohn-Sham SCF on a periodic cell.

    Parameters
    ----------
    structure, grid:
        The system; the Hamiltonian is rebuilt each iteration with the
        current ``v_H + v_xc`` as an external potential on top of the
        pseudopotential terms.
    config:
        Loop controls.
    """

    def __init__(
        self,
        structure: CrystalStructure,
        grid: RealSpaceGrid,
        config: SCFConfig | None = None,
        *,
        nf: int = 4,
    ) -> None:
        self.structure = structure
        self.grid = grid
        self.config = config or SCFConfig()
        self.nf = nf
        self.n_electrons = structure.n_valence_electrons()
        self.n_bands = max(
            1, self.n_electrons // 2 + self.config.n_extra_bands
        )

    def _hamiltonian(self, v_eff: Optional[np.ndarray]):
        blocks, _info = KSHamiltonianBuilder(
            self.structure, self.grid, nf=self.nf,
            external_potential=v_eff,
        ).build()
        # Γ-point: the periodic Hamiltonian of this cell, H0 + H+ + H-,
        # summed in the blocks' own real arithmetic.
        return (blocks.h0 + blocks.hp + blocks.hm).tocsc()

    def _lowest_states(self, h) -> tuple[np.ndarray, np.ndarray]:
        k = min(self.n_bands, h.shape[0] - 2)
        vals, vecs = spla.eigsh(h, k=k, which="SA")
        order = np.argsort(vals)
        return vals[order], vecs[:, order]

    def run(self) -> SCFResult:
        """Iterate to self-consistency (or ``max_iterations``)."""
        cfg = self.config
        g = self.grid
        density = atomic_density_guess(self.structure, g)
        v_eff = None
        history: List[float] = []
        energies = np.empty(0)
        fermi = 0.0

        for it in range(1, cfg.max_iterations + 1):
            h = self._hamiltonian(v_eff)
            energies, orbitals = self._lowest_states(h)
            occ, fermi = _occupations(energies, self.n_electrons, cfg.smearing)
            new_density = density_from_orbitals(g, orbitals, occ)
            resid = float(
                np.abs(new_density - density).sum() * g.volume_element
            )
            history.append(resid)
            mixed = (1.0 - cfg.mixing) * density + cfg.mixing * new_density
            density = mixed
            # Screening potential of the *deviation* from neutrality: the
            # pseudopotential already contains the neutral-atom screening,
            # so v_eff is Hartree+XC of the full valence density minus the
            # same functional of the superposed atomic reference.
            ref = atomic_density_guess(self.structure, g)
            v_eff = (
                hartree_potential(g, density - ref)
                + xc_potential(density)
                - xc_potential(ref)
            )
            if resid < cfg.tol:
                return SCFResult(
                    True, it, density, v_eff, energies, history, fermi
                )
        return SCFResult(
            False, cfg.max_iterations, density, v_eff, energies, history, fermi
        )
