"""Unit-cell block triple ``(H_{n,n-1}, H_{n,n}, H_{n,n+1})``.

For a bulk system whose Hamiltonian couples only nearest-neighbor unit
cells along the stacking axis, the KS equation in cell ``n`` reads
(paper Eq. (2))

.. math::
    -H_{n,n-1} |ψ_{n-1}⟩ + (E - H_{n,n}) |ψ_n⟩ - H_{n,n+1} |ψ_{n+1}⟩ = 0 ,

and in the bulk ``H_{n,n-1} = H_{n,n+1}^†`` with Hermitian ``H_{n,n}``.
This module holds that triple and the derived objects every solver needs:
the Bloch Hamiltonian ``H(λ) = H0 + λ H+ + λ^{-1} H-`` and structural
validation (Hermiticity pair), on which the paper's dual-system trick
``P(z)^† = P(1/z̄)`` rests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

from repro.errors import ConfigurationError
from repro.utils.memory import nbytes_of

Matrix = Union[np.ndarray, sp.spmatrix]


def _as_operator(m: Matrix) -> Matrix:
    if sp.issparse(m):
        return m.tocsr()
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigurationError(f"block must be square, got shape {a.shape}")
    return a


def _adjoint(m: Matrix) -> Matrix:
    if sp.issparse(m):
        return m.conj().T.tocsr()
    return m.conj().T


def _max_abs(m: Matrix) -> float:
    if sp.issparse(m):
        return float(np.max(np.abs(m.data))) if m.nnz else 0.0
    return float(np.max(np.abs(m))) if m.size else 0.0


def as_dense_complex(m: Matrix) -> np.ndarray:
    """A dense ``complex128`` copy of a (possibly sparse) block.

    The one conversion used by every dense-algebra consumer of block
    matrices (the transport engines, baselines, tests), so dtype/layout
    policy lives in a single place.
    """
    if sp.issparse(m):
        return m.toarray().astype(np.complex128)
    return np.asarray(m, dtype=np.complex128)


@dataclass(frozen=True)
class SeparableForm:
    """The assembled blocks split into local CSR plus projector factors.

    With ``C = [C- C0 C+]`` the ``(N, 3P)`` projector pieces (column
    ``o·P + j`` holds the cell-``o`` piece of projector ``j``) and
    ``εCᵀ`` its ``(3P, N)`` transpose with the KB energies folded in,
    the blocks read, for ``[c-; c0; c+] = εCᵀ X``,

    .. math::
        H_0 X = L_0 X + C [c_-; c_0; c_+], \\qquad
        H_+ X = L_+ X + C [c_0; c_+; 0], \\qquad
        H_- X = L_- X + C [0; c_-; c_0] .

    ``lm, l0, lp`` are the stencil plus the local potential.  All five
    factors share the blocks' dtype and are stored as CSR.
    """

    lm: sp.csr_matrix
    l0: sp.csr_matrix
    lp: sp.csr_matrix
    c: sp.csr_matrix
    ect: sp.csr_matrix

    def __post_init__(self) -> None:
        for name in ("lm", "l0", "lp", "c", "ect"):
            object.__setattr__(self, name, sp.csr_matrix(getattr(self, name)))

    @property
    def n_projectors(self) -> int:
        return self.c.shape[1] // 3

    @property
    def factors(self) -> tuple:
        """``(lm, l0, lp, c, ect)``, the fixed order of publication."""
        return (self.lm, self.l0, self.lp, self.c, self.ect)

    @cached_property
    def row_operators(self) -> tuple:
        """``(G0, G+, G-)``, three ``(N, N + 3P)`` CSR operators whose
        products with ``[X; c]`` are ``H0 X``, ``H+ X`` and ``H- X``:

        .. math::
            G_0 = [L_0\\ C_-\\ C_0\\ C_+], \\quad
            G_+ = [L_+\\ 0\\ C_-\\ C_0], \\quad
            G_- = [L_-\\ C_0\\ C_+\\ 0] .

        ``C0`` meets ``c+`` (``c-``) only through projectors that have
        a ``+`` (``-``) piece; for the others that coefficient is an
        exact zero, so their columns are left out of ``G+`` (``G-``).
        """
        p = self.n_projectors
        cm, c0, cp = (self.c[:, i * p:(i + 1) * p] for i in range(3))

        def keep(m, columns):
            kept = m.copy()
            kept.data[~columns[kept.indices]] = 0
            kept.eliminate_zeros()
            return kept

        zero = sp.csr_matrix(cm.shape, dtype=cm.dtype)
        return tuple(
            sp.hstack(row, format="csr")
            for row in ([self.l0, cm, c0, cp],
                        [self.lp, zero, cm, keep(c0, cp.getnnz(axis=0) > 0)],
                        [self.lm, keep(c0, cm.getnnz(axis=0) > 0), cp, zero])
        )

    @property
    def product_nnz(self) -> int:
        """Stored entries one column of a product reads (``εCᵀ`` and
        the three row operators)."""
        return self.ect.nnz + sum(m.nnz for m in self.row_operators)

    def astype(self, dtype) -> "SeparableForm":
        return SeparableForm(*(m.astype(dtype) for m in self.factors))


@dataclass(frozen=True)
class BlockTriple:
    """Container for ``(H-, H0, H+)`` = ``(H_{n,n-1}, H_{n,n}, H_{n,n+1})``.

    Blocks may be dense ndarrays or scipy sparse matrices; sparse blocks
    are converted to CSR.  ``cell_length`` is the stacking period ``a``
    (Bohr) used to convert ``λ ↔ k``; it defaults to 1 so model problems
    can quote ``k`` directly in units of ``1/a``.  ``separable`` is the
    optional :class:`SeparableForm` of sparse blocks (set by the
    Kohn-Sham builder); it is not compared and must multiply out to the
    assembled blocks.
    """

    hm: Matrix
    h0: Matrix
    hp: Matrix
    cell_length: float = 1.0
    separable: Optional[SeparableForm] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        hm = _as_operator(self.hm)
        h0 = _as_operator(self.h0)
        hp = _as_operator(self.hp)
        n = h0.shape[0]
        if hm.shape != (n, n) or hp.shape != (n, n):
            raise ConfigurationError(
                f"block shapes differ: H-={hm.shape}, H0={h0.shape}, H+={hp.shape}"
            )
        if self.cell_length <= 0:
            raise ConfigurationError(
                f"cell_length must be positive, got {self.cell_length}"
            )
        object.__setattr__(self, "hm", hm)
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "hp", hp)
        form = self.separable
        if form is not None:
            p3 = form.c.shape[1]
            if (not sp.issparse(h0) or p3 % 3
                    or any(m.shape != (n, n) for m in form.factors[:3])
                    or form.c.shape != (n, p3) or form.ect.shape != (p3, n)):
                raise ConfigurationError(
                    "separable form must be sparse local (N, N) blocks, an "
                    f"(N, 3P) C and a (3P, N) εCᵀ for N={n}"
                )

    # -- basic properties ----------------------------------------------------

    @property
    def n(self) -> int:
        """Matrix dimension ``N`` (grid points × components)."""
        return self.h0.shape[0]

    @property
    def is_sparse(self) -> bool:
        return sp.issparse(self.h0)

    @property
    def nbytes(self) -> int:
        """Stored bytes of the three blocks."""
        return nbytes_of(self.hm) + nbytes_of(self.h0) + nbytes_of(self.hp)

    @property
    def nnz(self) -> int:
        """Total stored nonzeros (dense blocks count every entry)."""
        total = 0
        for m in (self.hm, self.h0, self.hp):
            total += m.nnz if sp.issparse(m) else m.size
        return int(total)

    # -- structure checks ------------------------------------------------------

    def hermiticity_defect(self) -> float:
        """``max(|H0 - H0†|, |H- - H+†|)`` — zero for a valid bulk triple."""
        d0 = self.h0 - _adjoint(self.h0)
        dp = self.hm - _adjoint(self.hp)
        return max(_max_abs(d0), _max_abs(dp))

    def validate_bulk(self, tol: float = 1e-10) -> None:
        """Raise unless the triple has the bulk symmetry within ``tol``.

        The Sakurai-Sugiura dual-system shortcut (solving the inner-circle
        systems as adjoints of the outer-circle systems) is only valid for
        triples that pass this check.
        """
        scale = max(_max_abs(self.h0), _max_abs(self.hp), 1.0)
        defect = self.hermiticity_defect()
        if defect > tol * scale:
            raise ConfigurationError(
                f"block triple violates bulk symmetry: defect {defect:.3e} "
                f"(tolerance {tol:.1e} x scale {scale:.3e})"
            )

    # -- assembly ----------------------------------------------------------------

    def bloch_hamiltonian(self, lam: complex) -> Matrix:
        """``H(λ) = H0 + λ H+ + λ^{-1} H-`` (sparse if blocks are sparse).

        For ``|λ| = 1`` and a valid bulk triple this is Hermitian and its
        eigenvalues are the conventional band energies at ``k = arg(λ)/a``.
        """
        lam = complex(lam)
        if lam == 0:
            raise ConfigurationError("λ = 0 has no Bloch Hamiltonian")
        h = self.h0 + lam * self.hp + (1.0 / lam) * self.hm
        return h.tocsr() if sp.issparse(h) else h

    def bloch_hamiltonian_k(self, k: float) -> Matrix:
        """``H(k)`` for a real wave number ``k`` (uses ``λ = exp(i k a)``)."""
        return self.bloch_hamiltonian(np.exp(1j * k * self.cell_length))

    def as_dense(self) -> "BlockTriple":
        """Densified copy (for the dense reference solvers); the
        separable form is dropped."""
        def dense(m):
            return m.toarray() if sp.issparse(m) else np.array(m)
        return BlockTriple(
            dense(self.hm), dense(self.h0), dense(self.hp), self.cell_length
        )

    def as_complex(self) -> "BlockTriple":
        """Copy with complex128 blocks (solvers work in complex
        arithmetic); a separable form is cast along."""
        def conv(m):
            if sp.issparse(m):
                return m.astype(np.complex128)
            return np.asarray(m, dtype=np.complex128)
        form = self.separable
        return BlockTriple(
            conv(self.hm), conv(self.h0), conv(self.hp), self.cell_length,
            None if form is None else form.astype(np.complex128),
        )

    # -- λ <-> k conversion -----------------------------------------------------

    def lam_to_k(self, lam: np.ndarray) -> np.ndarray:
        """Complex wave number ``k = -i ln(λ) / a`` (principal branch).

        ``Re k`` is the crystal momentum; ``Im k`` the inverse decay length
        of the evanescent mode.
        """
        lam = np.asarray(lam, dtype=np.complex128)
        return -1j * np.log(lam) / self.cell_length

    def k_to_lam(self, k: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`lam_to_k`: ``λ = exp(i k a)``."""
        return np.exp(1j * np.asarray(k, dtype=np.complex128) * self.cell_length)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        kind = "sparse" if self.is_sparse else "dense"
        return f"BlockTriple(N={self.n}, {kind}, nnz={self.nnz}, a={self.cell_length:.3f})"
