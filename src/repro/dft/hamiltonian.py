"""Assembly of the Kohn-Sham unit-cell block triple ``(H-, H0, H+)``.

The KS Hamiltonian on the real-space grid is

.. math::
    H = -\\tfrac12 ∇²_{FD} + V_{loc}(\\mathbf r)
        + \\sum_{a,lm} ε_{al} \\frac{|χ_{alm}⟩⟨χ_{alm}|}{⟨χ_{alm}|χ_{alm}⟩}

with the Laplacian discretized by the order-``2Nf`` central stencil
(paper: 9-point, ``Nf = 4``).  x and y are periodic within the cell; the
z direction couples neighboring cells, producing the block-tridiagonal
structure of paper Eq. (2):

* stencil taps that cross the upper z boundary land in ``H+`` (and the
  lower boundary in ``H- = H+†``);
* the diagonal local potential is z-periodic (atom tails wrap);
* projector supports may straddle the boundary: each projector is split
  into cell pieces ``χ = (χ-, χ0, χ+)`` and the outer products
  distribute as

  .. math::
      H_0 \\mathrel{+}= ε (χ_0χ_0^† + χ_-χ_-^† + χ_+χ_+^†), \\qquad
      H_+ \\mathrel{+}= ε (χ_0χ_+^† + χ_-χ_0^†),

  which keeps ``H- = H+†`` **exactly** — the symmetry the dual-BiCG
  trick requires.

Besides the assembled blocks the builder returns their separable form
(:class:`repro.qep.blocks.SeparableForm`): the stencil and local
potential as CSR, plus the projector pieces as an ``(N, 3P)`` factor
``C`` and its ``(3P, N)`` transpose ``εCᵀ``.  Block products through the
form cost ``O(Σ support)`` per column for the nonlocal term instead of
``O(Σ support²)``.  Both come from the same COO triplets: the local
blocks are the triplets gathered before the projector outer products.
The form is attached only where its products read fewer stored entries
than the assembled blocks'.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.dft.pseudopotential import SpeciesPseudopotential, pseudopotential_for
from repro.dft.structure import CrystalStructure
from repro.errors import ConfigurationError
from repro.grid.grid import RealSpaceGrid
from repro.grid.stencil import central_second_derivative_coefficients
from repro.qep.blocks import BlockTriple, SeparableForm


@dataclass
class HamiltonianInfo:
    """Assembly metadata used by reports and the cost model."""

    n: int
    natoms: int
    n_projectors: int
    nnz_h0: int
    nnz_hp: int
    assembly_seconds: float
    grid_shape: Tuple[int, int, int]
    stencil_width: int


class _CooBuilder:
    """Accumulates COO triplets for one block.

    ``dtype`` stays ``float64`` at the transverse zone center; a
    nonzero ``k_par`` switches the blocks to ``complex128`` (the wrap
    taps carry Bloch phases).
    """

    def __init__(self, dtype=np.float64) -> None:
        self.dtype = dtype
        self.rows: List[np.ndarray] = []
        self.cols: List[np.ndarray] = []
        self.vals: List[np.ndarray] = []

    def add(self, rows, cols, vals) -> None:
        rows = np.asarray(rows)
        if rows.size == 0:
            return
        self.rows.append(rows.astype(np.int64, copy=False))
        self.cols.append(np.asarray(cols).astype(np.int64, copy=False))
        self.vals.append(np.asarray(vals, dtype=self.dtype))

    def tocsr(self, n: int, m: Optional[int] = None) -> sp.csr_matrix:
        shape = (n, n if m is None else m)
        if not self.rows:
            return sp.csr_matrix(shape, dtype=self.dtype)
        rows = np.concatenate(self.rows)
        cols = np.concatenate(self.cols)
        vals = np.concatenate(self.vals)
        return sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()


class KSHamiltonianBuilder:
    """Builds the block triple for a structure on a grid.

    Parameters
    ----------
    structure:
        Atoms + cell (cell must match the grid lengths).
    grid:
        The real-space grid (z is the stacking axis).
    nf:
        Finite-difference half-width (paper: 4 → 9-point stencil).
    include_nonlocal:
        Assemble the KB projector terms (disable for quick large runs or
        kinetic-only studies).
    external_potential:
        Optional additional local potential sampled on the grid (flat,
        length N) — this is how an SCF effective potential is injected,
        playing the role of RSPACE's output.
    k_par:
        Transverse Bloch momentum: a scalar phase ``θ_x`` (radians per
        lateral period, applied along x) or a pair ``(θ_x, θ_y)``.
        Stencil taps that wrap a lateral cell boundary acquire
        ``exp(±iθ)`` (twisted boundary conditions), turning the
        Γ̄-point blocks into the k∥-resolved principal-layer blocks
        ``H0(k∥)/H±(k∥)`` of a 3D crystal lead.  ``0`` (the default)
        keeps the exact real-arithmetic Γ̄ assembly.  Nonlocal
        projector pieces that wrap a lateral boundary are folded
        without a phase (supports are assumed to fit inside the
        lateral cell — true for the vacuum-padded systems and a
        bench-scale approximation for dense bulk cells).
    """

    def __init__(
        self,
        structure: CrystalStructure,
        grid: RealSpaceGrid,
        *,
        nf: int = 4,
        include_nonlocal: bool = True,
        external_potential: Optional[np.ndarray] = None,
        k_par: "float | Tuple[float, float]" = 0.0,
    ) -> None:
        lx, ly, lz = grid.lengths
        for axis, (lg, lc) in enumerate(zip((lx, ly, lz), structure.cell)):
            if abs(lg - lc) > 1e-8 * max(lc, 1.0):
                raise ConfigurationError(
                    f"grid length {lg:.6f} != cell length {lc:.6f} on axis {axis}"
                )
        if nf < 1:
            raise ConfigurationError(f"nf must be >= 1, got {nf}")
        if grid.nz < nf:
            raise ConfigurationError(
                f"grid nz={grid.nz} thinner than the stencil width nf={nf}; "
                "blocks would couple beyond nearest cells"
            )
        self.structure = structure
        self.grid = grid
        self.nf = int(nf)
        self.include_nonlocal = include_nonlocal
        if external_potential is not None:
            external_potential = np.asarray(external_potential, dtype=np.float64)
            if external_potential.shape != (grid.npoints,):
                raise ConfigurationError(
                    f"external_potential must be flat length {grid.npoints}"
                )
        self.external_potential = external_potential
        if np.isscalar(k_par):
            kx, ky = float(k_par), 0.0
        else:
            try:
                kx, ky = (float(v) for v in k_par)
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"k_par must be a scalar phase or a (θx, θy) pair, "
                    f"got {k_par!r}"
                ) from None
        if not (np.isfinite(kx) and np.isfinite(ky)):
            raise ConfigurationError(
                f"k_par phases must be finite, got ({kx}, {ky})"
            )
        self.k_par = (kx, ky)
        self._pseudos: Dict[str, SpeciesPseudopotential] = {}

    # ------------------------------------------------------------------

    def _pseudo(self, symbol: str) -> SpeciesPseudopotential:
        if symbol not in self._pseudos:
            self._pseudos[symbol] = pseudopotential_for(symbol)
        return self._pseudos[symbol]

    def build(self) -> Tuple[BlockTriple, HamiltonianInfo]:
        """Assemble and return ``(blocks, info)``."""
        t0 = time.perf_counter()
        g = self.grid
        n = g.npoints
        dtype = (
            np.complex128 if self.k_par != (0.0, 0.0) else np.float64
        )
        b0, bp, bm = (
            _CooBuilder(dtype), _CooBuilder(dtype), _CooBuilder(dtype)
        )

        self._add_kinetic(b0, bp, bm)
        diag = self._local_potential()
        if self.external_potential is not None:
            diag = diag + self.external_potential
        idx = np.arange(n, dtype=np.int64)
        b0.add(idx, idx, diag)

        n_proj = 0
        form = None
        if self.include_nonlocal:
            local = (bm.tocsr(n), b0.tocsr(n), bp.tocsr(n))
            n_proj, supports, eps = self._add_nonlocal(b0, bp, bm)
            if eps.size:
                form = SeparableForm(
                    *local, *self._projector_factors(supports, eps, n, dtype)
                )

        h0 = b0.tocsr(n)
        hp = bp.tocsr(n)
        hm = bm.tocsr(n)
        # The form pays where the projector outer products dominate the
        # stored entries (dense bulk cells).  Where the stencil does
        # (vacuum-padded cells, coarse grids) a product through it reads
        # as many entries plus a copy of the input, so keep the blocks.
        if form is not None and (
            form.product_nnz + n >= h0.nnz + hp.nnz + hm.nnz
        ):
            form = None
        blocks = BlockTriple(hm, h0, hp, cell_length=g.cell_length,
                             separable=form)
        info = HamiltonianInfo(
            n=n,
            natoms=self.structure.natoms,
            n_projectors=n_proj,
            nnz_h0=h0.nnz,
            nnz_hp=hp.nnz,
            assembly_seconds=time.perf_counter() - t0,
            grid_shape=g.shape,
            stencil_width=self.nf,
        )
        return blocks, info

    # ------------------------------------------------------------------
    # kinetic term
    # ------------------------------------------------------------------

    def _add_kinetic(self, b0: _CooBuilder, bp: _CooBuilder,
                     bm: _CooBuilder) -> None:
        g = self.grid
        nx, ny, nz = g.shape
        hx, hy, hz = g.spacing
        coeff = central_second_derivative_coefficients(self.nf)
        c0 = coeff[self.nf]
        n = g.npoints
        idx = np.arange(n, dtype=np.int64)
        ix = idx % nx
        iy = (idx // nx) % ny
        iz = idx // (nx * ny)
        plane = nx * ny

        # Diagonal: -1/2 * (c0/hx² + c0/hy² + c0/hz²).
        diag_val = -0.5 * c0 * (1.0 / hx**2 + 1.0 / hy**2 + 1.0 / hz**2)
        b0.add(idx, idx, np.full(n, diag_val))

        # Lateral Bloch phases: a tap that wraps the upper x/y boundary
        # reaches the neighboring lateral cell, whose wavefunction is
        # exp(+iθ) times the in-cell values (twisted boundary
        # conditions); the lower boundary carries the conjugate, so
        # H0(k∥) stays exactly Hermitian.
        kx, ky = self.k_par
        px = np.exp(1j * kx) if kx != 0.0 else 1.0
        py = np.exp(1j * ky) if ky != 0.0 else 1.0
        for m in range(1, self.nf + 1):
            cm = coeff[self.nf + m]
            # x (periodic in cell): both ± offsets.  Floor-division
            # counts the (possibly multiple, possibly negative) lateral
            # cell crossings of a tap; |p| = 1 so a negative power is
            # the conjugate phase, keeping H0(k∥) exactly Hermitian.
            vx = -0.5 * cm / hx**2
            col_xp = idx - ix + (ix + m) % nx
            col_xm = idx - ix + (ix - m) % nx
            b0.add(idx, col_xp, vx * px ** ((ix + m) // nx))
            b0.add(idx, col_xm, vx * px ** ((ix - m) // nx))
            # y (periodic in cell).
            vy = -0.5 * cm / hy**2
            col_yp = idx + (((iy + m) % ny) - iy) * nx
            col_ym = idx + (((iy - m) % ny) - iy) * nx
            b0.add(idx, col_yp, vy * py ** ((iy + m) // ny))
            b0.add(idx, col_ym, vy * py ** ((iy - m) // ny))
            # z: split in-cell vs. cross-boundary.
            vz = -0.5 * cm / hz**2
            up = iz + m
            wrap_up = up >= nz
            col_up_in = idx[~wrap_up] + m * plane
            b0.add(idx[~wrap_up], col_up_in, np.full(col_up_in.size, vz))
            col_up_out = (
                ((up[wrap_up] - nz) * ny + iy[wrap_up]) * nx + ix[wrap_up]
            )
            bp.add(idx[wrap_up], col_up_out, np.full(col_up_out.size, vz))
            down = iz - m
            wrap_dn = down < 0
            col_dn_in = idx[~wrap_dn] - m * plane
            b0.add(idx[~wrap_dn], col_dn_in, np.full(col_dn_in.size, vz))
            col_dn_out = (
                ((down[wrap_dn] + nz) * ny + iy[wrap_dn]) * nx + ix[wrap_dn]
            )
            bm.add(idx[wrap_dn], col_dn_out, np.full(col_dn_out.size, vz))

    # ------------------------------------------------------------------
    # local potential
    # ------------------------------------------------------------------

    def _local_potential(self) -> np.ndarray:
        """Superposed atomic local potentials, z-periodic, as a flat diag."""
        g = self.grid
        v = np.zeros(g.npoints, dtype=np.float64)
        nz = g.nz
        for atom in self.structure.atoms:
            pseudo = self._pseudo(atom.symbol)
            cutoff = pseudo.local.cutoff
            ix, iy, iz_raw, dx, dy, dz = g.points_near(
                np.asarray(atom.position), cutoff
            )
            if ix.size == 0:
                continue
            r = np.sqrt(dx * dx + dy * dy + dz * dz)
            vals = pseudo.local.evaluate(r)
            # The potential is periodic along z: out-of-cell tails wrap.
            iz = np.mod(iz_raw, nz)
            flat = (iz * g.ny + iy) * g.nx + ix
            np.add.at(v, flat, vals)
        return v

    # ------------------------------------------------------------------
    # nonlocal projectors
    # ------------------------------------------------------------------

    def _add_nonlocal(self, b0: _CooBuilder, bp: _CooBuilder,
                      bm: _CooBuilder):
        """Add the projector outer products to the block builders.

        Returns the projector count, the ``(flat, offsets, χ)`` support
        of every projector that entered the blocks, and its ``ε``."""
        g = self.grid
        nz = g.nz
        count = 0
        eps_list: List[float] = []
        supports: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for atom in self.structure.atoms:
            pseudo = self._pseudo(atom.symbol)
            for proj in pseudo.projectors:
                ix, iy, iz_raw, dx, dy, dz = g.points_near(
                    np.asarray(atom.position), proj.cutoff
                )
                if ix.size == 0:
                    continue
                offsets = iz_raw // nz
                if offsets.min() < -1 or offsets.max() > 1:
                    raise ConfigurationError(
                        "projector support spans beyond nearest cells"
                    )
                iz = iz_raw - offsets * nz
                flat = (iz * g.ny + iy) * g.nx + ix
                for chi in proj.evaluate(dx, dy, dz):
                    count += 1
                    norm2 = float(np.vdot(chi, chi).real)
                    if norm2 <= 0.0:
                        continue
                    eps = proj.energy / norm2
                    pieces = {
                        o: (flat[offsets == o], chi[offsets == o])
                        for o in (-1, 0, 1)
                    }
                    supports.append((flat, offsets, chi))
                    eps_list.append(eps)
                    self._outer(b0, pieces[0], pieces[0], eps)
                    self._outer(b0, pieces[-1], pieces[-1], eps)
                    self._outer(b0, pieces[1], pieces[1], eps)
                    # H+ ← χ0 χ+† and χ- χ0†;  H- is the exact adjoint.
                    self._outer(bp, pieces[0], pieces[1], eps)
                    self._outer(bp, pieces[-1], pieces[0], eps)
                    self._outer(bm, pieces[1], pieces[0], eps)
                    self._outer(bm, pieces[0], pieces[-1], eps)
        return count, supports, np.asarray(eps_list, dtype=np.float64)

    @staticmethod
    def _projector_factors(supports, eps, n: int, dtype):
        """``(C, εCᵀ)``: piece ``o`` of projector ``j`` is column
        ``(o + 1)·P + j`` of the ``(N, 3P)`` CSR ``C``."""
        p = len(supports)
        factor = _CooBuilder(dtype)
        for j, (flat, offsets, chi) in enumerate(supports):
            factor.add(flat, (offsets + 1) * p + j, chi)
        c = factor.tocsr(n, 3 * p)
        c.eliminate_zeros()
        ect = c.T.tocsr()
        ect.data *= np.repeat(np.tile(eps, 3), np.diff(ect.indptr))
        return c, ect

    @staticmethod
    def _outer(builder: _CooBuilder, row_piece, col_piece, eps: float) -> None:
        ridx, rval = row_piece
        cidx, cval = col_piece
        if ridx.size == 0 or cidx.size == 0:
            return
        vals = eps * np.outer(rval, cval).ravel()
        rows = np.repeat(ridx, cidx.size)
        cols = np.tile(cidx, ridx.size)
        builder.add(rows, cols, vals)


def build_blocks(
    structure: CrystalStructure,
    grid: RealSpaceGrid,
    *,
    nf: int = 4,
    include_nonlocal: bool = True,
    external_potential: Optional[np.ndarray] = None,
    k_par: "float | Tuple[float, float]" = 0.0,
) -> Tuple[BlockTriple, HamiltonianInfo]:
    """One-call convenience wrapper around :class:`KSHamiltonianBuilder`."""
    return KSHamiltonianBuilder(
        structure, grid, nf=nf,
        include_nonlocal=include_nonlocal,
        external_potential=external_potential,
        k_par=k_par,
    ).build()
