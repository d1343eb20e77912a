"""Fermi-level estimation for the CBS energy window.

Every CBS experiment in the paper is run "at E = E_F" or on a window
around it.  RSPACE would provide E_F from its SCF; here we estimate it by
filling the bands of the bulk triple on a small k-grid (2 electrons per
state per k-point), which is exact in the limit of dense k sampling and
plenty good for centering an energy scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.errors import ConfigurationError
from repro.qep.blocks import BlockTriple


@dataclass(frozen=True)
class FermiEstimate:
    """Fermi level + band-edge context."""

    fermi: float             #: estimated E_F
    homo: float              #: highest filled state energy
    lumo: float              #: lowest empty state energy
    gap: float               #: lumo - homo (≈ 0 for metals)

    @property
    def is_metallic(self) -> bool:
        return self.gap < 1e-3


def estimate_fermi(
    blocks: BlockTriple,
    n_electrons: int,
    *,
    n_k: int = 4,
    n_bands: int | None = None,
    dense_threshold: int = 3000,
) -> FermiEstimate:
    """Fill ``n_electrons`` into the bands of ``H(k)`` on ``n_k`` k-points.

    Parameters
    ----------
    blocks:
        The bulk triple.
    n_electrons:
        Valence electrons per cell
        (:meth:`repro.dft.structure.CrystalStructure.n_valence_electrons`).
    n_k:
        Uniform k-points in ``[0, π/a]`` (time-reversal halves the zone).
    n_bands:
        Bands per k-point to compute (sparse path); default
        ``n_electrons`` (≥ 2× the filled count).
    """
    if n_electrons < 1:
        raise ConfigurationError("n_electrons must be >= 1")
    n = blocks.n
    a = blocks.cell_length
    kvals = (np.arange(n_k) + 0.5) / n_k * (np.pi / a)
    use_dense = n <= dense_threshold
    if n_bands is None:
        n_bands = min(n, max(4, n_electrons))

    # A fixed Lanczos start vector makes the sparse path reproducible:
    # ARPACK's own random start moves E_F in its last digits from run
    # to run, and every downstream iteration count with it.
    v0 = np.random.default_rng(n).standard_normal(n)
    levels = []
    for k in kvals:
        h = blocks.bloch_hamiltonian_k(float(k))
        if use_dense:
            hd = h.toarray() if sp.issparse(h) else np.asarray(h)
            e = sla.eigvalsh(hd)[:n_bands]
        else:
            e = np.sort(
                np.real(
                    spla.eigsh(
                        h.tocsc(), k=n_bands, which="SA", v0=v0,
                        return_eigenvectors=False,
                    )
                )
            )
        levels.append(e)
    all_levels = np.sort(np.concatenate(levels))
    # 2 electrons per state per k-point.
    n_filled = int(np.ceil(n_electrons * n_k / 2.0))
    if n_filled >= all_levels.size:
        raise ConfigurationError(
            f"need more bands: {n_filled} filled states but only "
            f"{all_levels.size} computed"
        )
    homo = float(all_levels[n_filled - 1])
    lumo = float(all_levels[n_filled])
    return FermiEstimate(
        fermi=0.5 * (homo + lumo),
        homo=homo,
        lumo=lumo,
        gap=max(0.0, lumo - homo),
    )
