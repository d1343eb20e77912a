"""The quadratic matrix pencil ``P(z)`` of the CBS eigenproblem.

Paper Eq. (4):

.. math::
    P(λ) = -λ^{-1} H_{n,n-1} + (E - H_{n,n}) - λ H_{n,n+1} .

Key structural identity (paper §3.2): for a bulk triple and **real** E,

.. math::
    P(z)^† = P(1/\\bar z),

because ``(z H+)^† = z̄ H-`` and ``(z^{-1} H-)^† = z̄^{-1} H+``.  The
inner-circle quadrature points of the annulus satisfy
``z^{(2)}_j = 1/\\bar z^{(1)}_j``, so the inner systems are exactly the
dual (adjoint) systems of the outer ones and one BiCG run solves both.

Array backend seam: the batched appliers — the per-iteration kernels of
the batched BiCG engine — route all array arithmetic through the
pencil's ``xp`` namespace and dtype, both supplied by an
:class:`repro.backends.base.ArrayBackend`.  A pencil constructed without
an explicit ``dtype`` is the host-side complex128 operator (bit-for-bit
the historical behavior under the default ``"numpy"`` backend);
:meth:`QuadraticPencil.solver_view` returns its reduced-precision or
device twin for the backend's inner solves.

Real-arithmetic products: a Γ-point real-space Hamiltonian arrives as
real ``float64`` CSR, and the solvers keep it real.  Every block product
of a complex ``(N, K)`` stack then multiplies the real block by the
``float64`` view of the stack — ``2K`` interleaved real/imaginary
columns — and views the result back as complex (see
:func:`_block_products`).  This is bit-equal to the complex product:
each output column keeps its per-row summation order, and the dropped
``0·x`` terms of ``(a + 0i)(x_r + i x_i)`` are exact zeros.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator

from repro.backends.dtypes import COMPLEX_DTYPE, REAL_DTYPE
from repro.backends.registry import resolve_backend
from repro.errors import ConfigurationError
from repro.qep.blocks import BlockTriple


def _real_view_applies(blocks, xp=np) -> bool:
    """Whether :func:`_block_products` takes the real view: all three
    blocks sparse ``float64`` and the arithmetic in host numpy."""
    return xp is np and all(
        sp.issparse(m) and m.dtype == REAL_DTYPE
        for m in (blocks.h0, blocks.hp, blocks.hm)
    )


def _block_products(blocks, x, xp):
    """``(H0 X, H+ X, H- X)`` for a vector ``(N,)`` or column block ``(N, K)``.

    Real sparse blocks under host numpy multiply the ``float64`` view of
    the C-contiguous complex128 block (a vector goes in as an ``(N, 2)``
    view), so scipy runs a real product and never upcasts the block data
    per call.  Every other case — complex, reduced-precision, dense or
    device blocks — is the plain product.  Either way the result is the
    complex product bit for bit (see the module docstring).
    """
    if not _real_view_applies(blocks, xp):
        return blocks.h0 @ x, blocks.hp @ x, blocks.hm @ x
    xc = np.ascontiguousarray(x, dtype=COMPLEX_DTYPE)
    xr = (xc if xc.ndim == 2 else xc[:, None]).view(REAL_DTYPE)
    return tuple(
        (m @ xr).view(COMPLEX_DTYPE).reshape(xc.shape)
        for m in (blocks.h0, blocks.hp, blocks.hm)
    )


def _stacked_products(blocks, x, xp):
    """The three block products of a stack ``(S, N, m)``, each ONE
    product over all ``S·m`` columns, returned as ``(S, N, m)`` stacks."""
    s, n, m = x.shape
    xm = QuadraticPencil._stack_columns(x, xp)
    return tuple(
        QuadraticPencil._unstack_columns(p, s, m, xp)
        for p in _block_products(blocks, xm, xp)
    )


class QuadraticPencil:
    """Evaluates, applies, and assembles ``P(z) = (E - H0) - z H+ - z^{-1} H-``.

    Parameters
    ----------
    blocks:
        The unit-cell :class:`BlockTriple` (or, for a solver view, the
        triple returned by ``backend.solver_blocks``).
    energy:
        The real energy ``E`` at which the CBS is sought.  A complex
        energy is accepted (used for regularization probes) but disables
        the dual-system identity.
    backend:
        An :class:`repro.backends.base.ArrayBackend`, its registry name,
        or ``None`` for the default ``"numpy"`` backend.
    dtype:
        Arithmetic dtype for the batched appliers.  ``None`` (the
        default) selects the backend's accumulation dtype (complex128)
        with host-numpy arithmetic; passing an explicit dtype marks this
        pencil as a solver-side view running in the backend's ``xp``
        namespace (the convention used by :meth:`solver_view`).
    """

    def __init__(
        self,
        blocks: BlockTriple,
        energy: complex,
        backend=None,
        *,
        dtype=None,
    ) -> None:
        self.backend = resolve_backend(backend)
        self.blocks = blocks
        self.energy = complex(energy)
        self.dtype = (
            np.dtype(dtype) if dtype is not None
            else self.backend.complex_dtype
        )
        self._xp = self.backend.xp if dtype is not None else np
        # NEP-50-safe scalars: typed zero-dim scalars keep a reduced-
        # precision stack in its dtype where a python complex would too —
        # but explicitly, and bit-identically for complex128.
        self._e = self.dtype.type(self.energy)
        self._e_conj = self.dtype.type(self.energy.conjugate())
        self._identity: Optional[sp.spmatrix | np.ndarray] = None
        self._solver_view: Optional["QuadraticPencil"] = None

    # -- basic properties -----------------------------------------------------

    @property
    def n(self) -> int:
        return self.blocks.n

    @property
    def is_dual_symmetric(self) -> bool:
        """Whether ``P(z)^† = P(1/z̄)`` holds (real E + bulk triple)."""
        return abs(self.energy.imag) == 0.0

    @staticmethod
    def dual_shift(z: complex) -> complex:
        """The shift at which ``P`` equals the adjoint of ``P(z)``: ``1/z̄``."""
        z = complex(z)
        if z == 0:
            raise ConfigurationError("z = 0 has no dual shift")
        return 1.0 / np.conj(z)

    def solver_view(self) -> "QuadraticPencil":
        """The pencil the backend's inner solver iterates with.

        Returns ``self`` when the backend solves in this pencil's dtype
        and namespace (the ``"numpy"`` backend — no cast, no copy,
        bit-for-bit).  Otherwise builds (once, cached) a twin pencil on
        ``backend.solver_blocks`` in the backend's solve dtype — the
        complex64 operator for ``"numpy-mixed"``, the device operator
        for ``"cupy"``.
        """
        be = self.backend
        if be.solve_dtype == self.dtype and be.xp is self._xp:
            return self
        if self._solver_view is None:
            self._solver_view = QuadraticPencil(
                be.solver_blocks(self.blocks),
                self.energy,
                backend=be,
                dtype=be.solve_dtype,
            )
        return self._solver_view

    # -- application -----------------------------------------------------------

    def apply(self, z: complex, x: np.ndarray) -> np.ndarray:
        """``P(z) @ x`` without assembling ``P(z)``.

        ``x`` may be a vector (N,) or a block of vectors (N, m).
        """
        z = complex(z)
        if z == 0:
            raise ConfigurationError("P(z) is undefined at z = 0")
        h0x, hpx, hmx = _block_products(self.blocks, x, self._xp)
        return self._e * x - h0x - z * hpx - hmx / z

    def apply_adjoint(self, z: complex, x: np.ndarray) -> np.ndarray:
        """``P(z)^† @ x``.

        Uses the bulk identity ``P(z)^† = P(1/z̄)`` when valid (cheap: no
        adjoint blocks needed); otherwise falls back to explicit adjoint
        arithmetic ``(Ē - H0†) x - z̄ H+† x - z̄^{-1} H-† x`` with
        ``H+† = H-`` assumed by the bulk validation.
        """
        if self.is_dual_symmetric:
            return self.apply(self.dual_shift(z), x)
        zb = complex(z).conjugate()
        h0x, hpx, hmx = _block_products(self.blocks, x, self._xp)
        return self._e_conj * x - h0x - zb * hmx - hpx / zb

    # -- batched application ---------------------------------------------------

    @staticmethod
    def _stack_columns(x, xp):
        """Reorder a stack ``(S, N, m)`` into one matvec block ``(N, S*m)``."""
        s, n, m = x.shape
        return xp.moveaxis(x, 0, 1).reshape(n, s * m)

    @staticmethod
    def _unstack_columns(x, s: int, m: int, xp):
        """Inverse of :meth:`_stack_columns`."""
        x = xp.asarray(x)
        n = x.shape[0]
        return xp.moveaxis(x.reshape(n, s, m), 1, 0)

    def apply_batch(self, zs: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``P(z_i) @ X_i`` for a whole stack of shifts in one sweep.

        Parameters
        ----------
        zs:
            Shifts, shape ``(S,)``.
        x:
            Stacked blocks, shape ``(S, N, m)`` — one ``N × m`` block per
            shift.

        The three block matvecs (``H0``, ``H+``, ``H-``) are each applied
        **once** to all ``S·m`` columns, so the per-shift combination is
        pure broadcasting — this is what makes the batched BiCG engine
        one vectorized matvec per iteration instead of ``S·m`` Python
        calls (the paper's middle/top parallel layers collapsed into
        BLAS-width work).
        """
        xp = self._xp
        zs = xp.atleast_1d(xp.asarray(zs, dtype=self.dtype))
        x = xp.asarray(x, dtype=self.dtype)
        if x.ndim != 3 or x.shape[0] != zs.shape[0]:
            raise ConfigurationError(
                f"need x of shape (S, N, m) with S = {zs.shape[0]}, "
                f"got {x.shape}"
            )
        if bool(xp.any(zs == 0)):
            raise ConfigurationError("P(z) is undefined at z = 0")
        h0x, hpx, hmx = _stacked_products(self.blocks, x, xp)
        z = zs[:, None, None]
        return self._e * x - h0x - z * hpx - hmx / z

    def apply_adjoint_batch(self, zs: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``P(z_i)^† @ X_i`` over a stack of shifts (see :meth:`apply_batch`).

        Uses the bulk identity ``P(z)^† = P(1/z̄)`` when valid; otherwise
        the explicit adjoint arithmetic with ``H+† = H-`` assumed by the
        bulk validation, exactly mirroring :meth:`apply_adjoint`.
        """
        xp = self._xp
        zs = xp.atleast_1d(xp.asarray(zs, dtype=self.dtype))
        if bool(xp.any(zs == 0)):
            raise ConfigurationError("P(z) is undefined at z = 0")
        if self.is_dual_symmetric:
            return self.apply_batch(1.0 / xp.conj(zs), x)
        x = xp.asarray(x, dtype=self.dtype)
        if x.ndim != 3 or x.shape[0] != zs.shape[0]:
            raise ConfigurationError(
                f"need x of shape (S, N, m) with S = {zs.shape[0]}, "
                f"got {x.shape}"
            )
        h0x, hpx, hmx = _stacked_products(self.blocks, x, xp)
        zb = xp.conj(zs)[:, None, None]
        return self._e_conj * x - h0x - zb * hmx - hpx / zb

    def as_linear_operator(self, z: complex) -> LinearOperator:
        """A scipy ``LinearOperator`` for ``P(z)`` with adjoint support."""
        z = complex(z)
        return LinearOperator(
            shape=(self.n, self.n),
            dtype=COMPLEX_DTYPE,
            matvec=lambda x: self.apply(z, x),
            rmatvec=lambda x: self.apply_adjoint(z, x),
        )

    # -- assembly ----------------------------------------------------------------

    def assemble(self, z: complex):
        """Explicit ``P(z)`` (CSR if the blocks are sparse, dense otherwise).

        Used by the direct (sparse-LU) linear-solver strategy and by tests.
        """
        z = complex(z)
        if z == 0:
            raise ConfigurationError("P(z) is undefined at z = 0")
        b = self.blocks
        if b.is_sparse:
            eye = sp.identity(self.n, dtype=COMPLEX_DTYPE, format="csr")
            p = (self.energy * eye) - b.h0 - z * b.hp - (1.0 / z) * b.hm
            return p.tocsr()
        eye = np.eye(self.n, dtype=COMPLEX_DTYPE)
        return self.energy * eye - b.h0 - z * b.hp - (1.0 / z) * b.hm

    def assemble_dense_stack(self, zs: np.ndarray) -> np.ndarray:
        """Dense ``P(z_j)`` for a whole vector of shifts, shape ``(S, N, N)``.

        The blocks are densified once and the shifts enter by
        broadcasting, so the cost is a few ``S·N²`` array sweeps — used
        by the small-``N`` dense layout of the direct strategy.
        """
        zs = np.asarray(zs, dtype=COMPLEX_DTYPE)
        if bool(np.any(zs == 0)):
            raise ConfigurationError("P(z) is undefined at z = 0")

        def dense(m):
            return m.toarray() if sp.issparse(m) else np.asarray(m)

        b = self.blocks
        base = self.energy * np.eye(self.n, dtype=COMPLEX_DTYPE) - dense(b.h0)
        z = zs[:, None, None]
        return base - z * dense(b.hp) - (1.0 / z) * dense(b.hm)

    def diagonal(self, z: complex) -> np.ndarray:
        """``diag(P(z))`` (for Jacobi preconditioning), computed blockwise."""
        b = self.blocks
        def diag_of(m):
            return m.diagonal() if sp.issparse(m) else np.diagonal(m)
        z = complex(z)
        return (
            self.energy
            - diag_of(b.h0)
            - z * diag_of(b.hp)
            - diag_of(b.hm) / z
        ).astype(COMPLEX_DTYPE)

    # -- diagnostics --------------------------------------------------------------

    def residual(self, lam: complex, psi: np.ndarray) -> float:
        """Relative QEP residual ``||P(λ) ψ||₂ / ||ψ||₂``.

        This is the acceptance metric for extracted eigenpairs; modes are
        kept only when the residual is below the solver tolerance.
        """
        psi = np.asarray(psi)
        nrm = float(np.linalg.norm(psi))
        if nrm == 0.0:
            return np.inf
        return float(np.linalg.norm(self.apply(lam, psi))) / nrm

    def residuals(self, lams: np.ndarray, psis: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`residual` over eigenpair columns.

        All nonzero columns go through ONE :meth:`apply_batch` (one
        product per block over every candidate); the norms stay the
        per-column 1-D ``np.linalg.norm`` of :meth:`residual`, so the
        result equals the one-at-a-time loop bit for bit.  A zero column
        reads ``inf`` without touching its ``λ``, as in :meth:`residual`.
        """
        lams = np.atleast_1d(lams)
        psis = np.asarray(psis)
        nrms = np.array(
            [float(np.linalg.norm(psis[:, i])) for i in range(lams.shape[0])]
        )
        out = np.full(lams.shape[0], np.inf, dtype=REAL_DTYPE)
        live = np.flatnonzero(nrms != 0.0)
        if live.size:
            r = self.apply_batch(lams[live], psis[:, live].T[:, :, None])
            for j, i in enumerate(live):
                out[i] = float(np.linalg.norm(r[j, :, 0])) / nrms[i]
        return out

    def dual_identity_defect(self, z: complex, probes: int = 3,
                             rng=None) -> float:
        """Numerical check of ``P(z)^† = P(1/z̄)`` via random probes.

        Returns ``max_x |P(1/z̄) x - P(z)^† x| / |x|`` over a few random
        vectors — a direct verification of the identity the dual-BiCG
        trick relies on (used by tests and by ``validate`` paths).
        """
        from repro.utils.rng import default_rng, complex_gaussian

        rng = default_rng(rng)
        b = self.blocks
        zb = np.conj(complex(z))
        worst = 0.0
        for _ in range(probes):
            x = complex_gaussian(rng, self.n)
            via_dual = self.apply(self.dual_shift(z), x)
            explicit = (
                np.conj(self.energy) * x
                - (b.h0.conj().T @ x)
                - zb * (b.hp.conj().T @ x)
                - (b.hm.conj().T @ x) / zb
            )
            worst = max(
                worst,
                float(np.linalg.norm(via_dual - explicit) / np.linalg.norm(x)),
            )
        return worst

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"QuadraticPencil(N={self.n}, E={self.energy:.6g})"
