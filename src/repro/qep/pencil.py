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

Real-arithmetic products: a Γ-point real-space Hamiltonian arrives as
real ``float64`` CSR, and the solvers keep it real.  Every block product
of a complex ``(N, K)`` stack then multiplies the real block by the
``float64`` view of the stack — ``2K`` interleaved real/imaginary
columns — and views the result back as complex (see
:func:`_block_products`).  This is bit-equal to the complex product:
each output column keeps its per-row summation order, and the dropped
``0·x`` terms of ``(a + 0i)(x_r + i x_i)`` are exact zeros.

Separable products: a Kohn-Sham triple may carry its
:class:`~repro.qep.blocks.SeparableForm` (stencil plus local potential
as CSR, Kleinman-Bylander projectors as rank-``P`` factors).  The block
products then run through the form (:func:`_separable_products`), which
reads a fraction of the assembled blocks' stored entries; they agree
with the assembled products to rounding, not bit for bit.

Batched layout: :meth:`QuadraticPencil.apply_batch` takes an
``(S, N, m)`` stack and returns one.  The batched BiCG engine keeps its
stacks as views of ``(N, S, m)``-ordered memory, so the stack is read
as one ``(N, S·m)`` block without a copy (any other order is copied
into it), the shift enters as a per-column vector, and the result is
an ``(S, N, m)`` view of a fresh ``(N, S, m)`` array.  The products go
into :class:`_ProductBuffers` the pencil keeps per thread and reuses
call after call (:func:`_product_into` runs scipy's own product kernel
into them), and they double as the scratch of the shift combination.
The combination keeps the operation order of :meth:`QuadraticPencil.apply`,
so neither the input's memory order nor the buffers change a bit.
"""

from __future__ import annotations

import threading

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools
from scipy.sparse.linalg import LinearOperator

from repro.dtypes import COMPLEX_DTYPE, REAL_DTYPE
from repro.errors import ConfigurationError
from repro.qep.blocks import BlockTriple


def _real_view_applies(blocks) -> bool:
    """Whether :func:`_block_products` takes the real view: all three
    blocks, and the factors of a separable form, sparse ``float64``."""
    form = blocks.separable
    factors = () if form is None else form.factors
    return all(
        sp.issparse(m) and m.dtype == REAL_DTYPE
        for m in (blocks.h0, blocks.hp, blocks.hm, *factors)
    )


def _block_products(blocks, x, buffers=None):
    """``(H0 X, H+ X, H- X)`` for a vector ``(N,)`` or column block ``(N, K)``.

    Real sparse blocks multiply the ``float64`` view of the C-contiguous
    complex128 block (a vector goes in as an ``(N, 2)`` view), so scipy
    runs a real product and never upcasts the block data per call.
    A triple with a :class:`~repro.qep.blocks.SeparableForm` multiplies
    its local blocks and projector factors instead of the assembled
    blocks (see :func:`_separable_products`).  Every other case —
    complex or dense blocks — is the plain product.  The real view
    gives the complex product of the same factors bit for bit (see the
    module docstring).

    ``buffers`` (a :class:`_ProductBuffers` for ``K`` columns) receives
    the products in place of fresh arrays; the batched applications
    pass their reusable set, in which every case runs through
    :func:`_product_into`.
    """
    real = _real_view_applies(blocks)
    form = blocks.separable
    if buffers is None and not real and form is None:
        return blocks.h0 @ x, blocks.hp @ x, blocks.hm @ x
    xc = np.ascontiguousarray(x, dtype=COMPLEX_DTYPE)
    x2 = xc if xc.ndim == 2 else xc[:, None]
    if buffers is None:
        buffers = _ProductBuffers(blocks, x2.shape[1])
    if real:
        def mul(m, v, out):
            _product_into(m, v.view(REAL_DTYPE), out.view(REAL_DTYPE))
    else:
        mul = _product_into
    out = buffers.products
    if form is None:
        for m, o in zip((blocks.h0, blocks.hp, blocks.hm), out):
            mul(m, x2, o)
    else:
        _separable_products(form, x2, mul, buffers)
    return tuple(p.reshape(xc.shape) for p in out)


def _separable_products(form, x, mul, buffers):
    """``[H0 X, H+ X, H- X]`` of a C-contiguous ``(N, K)`` block through
    the separable form, into ``buffers.products``: ``c = εCᵀX`` once,
    then the three :attr:`~repro.qep.blocks.SeparableForm.row_operators`
    applied to ``[X; c]`` (held in ``buffers.stacked``)."""
    n = x.shape[0]
    s = buffers.stacked
    s[:n] = x
    mul(form.ect, x, s[n:])
    for m, o in zip(form.row_operators, buffers.products):
        mul(m, s, o)


def _product_into(m, v, out):
    """``out[...] = m @ v`` for C-contiguous 2-D ``v`` and ``out``, bit
    for bit.

    A sparse block runs the kernel scipy's ``m @ v`` runs
    (``csr_matvecs``, which adds ``m @ v`` into a zeroed output) with
    ``out`` as that output, so no result array is allocated; a dense
    block goes through ``np.matmul(..., out=out)``.
    """
    if sp.issparse(m):
        # The kernel trusts its sizes and writes through ``out.ravel()``,
        # which would be a copy of a non-contiguous ``out``.
        if (v.ndim != 2 or v.shape[0] != m.shape[1]
                or out.shape != (m.shape[0], v.shape[1])
                or out.dtype != np.result_type(m.dtype, v.dtype)
                or not (v.flags.c_contiguous and out.flags.c_contiguous)):
            raise ValueError(
                f"cannot write a {m.shape} x {v.shape} product into "
                f"{out.shape} {out.dtype}"
            )
        out.fill(0)
        kernel = getattr(_sparsetools, m.format + "_matvecs")
        kernel(m.shape[0], m.shape[1], v.shape[1], m.indptr, m.indices,
               m.data, v.ravel(), out.ravel())
    else:
        np.matmul(m, v, out=out)


class _ProductBuffers:
    """Outputs of the three block products of a ``K``-column block, and
    the ``(N + 3P, K)`` ``[X; c]`` block of a separable form (``None``
    without one), all complex and C-contiguous."""

    def __init__(self, blocks, k: int) -> None:
        n = blocks.n
        self.k = k
        self.products = [
            np.empty((n, k), dtype=COMPLEX_DTYPE) for _ in range(3)
        ]
        form = blocks.separable
        self.stacked = (
            None if form is None
            else np.empty((n + form.c.shape[1], k), dtype=COMPLEX_DTYPE)
        )


class QuadraticPencil:
    """Evaluates, applies, and assembles ``P(z) = (E - H0) - z H+ - z^{-1} H-``.

    Parameters
    ----------
    blocks:
        The unit-cell :class:`BlockTriple`.
    energy:
        The real energy ``E`` at which the CBS is sought.  A complex
        energy is accepted (used for regularization probes) but disables
        the dual-system identity.
    """

    def __init__(self, blocks: BlockTriple, energy: complex) -> None:
        self.blocks = blocks
        self.energy = complex(energy)
        self._e = COMPLEX_DTYPE.type(self.energy)
        self._e_conj = COMPLEX_DTYPE.type(self.energy.conjugate())
        self._local = threading.local()

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

    # -- application -----------------------------------------------------------

    def apply(self, z: complex, x: np.ndarray) -> np.ndarray:
        """``P(z) @ x`` without assembling ``P(z)``.

        ``x`` may be a vector (N,) or a block of vectors (N, m).
        """
        z = complex(z)
        if z == 0:
            raise ConfigurationError("P(z) is undefined at z = 0")
        h0x, hpx, hmx = _block_products(self.blocks, x)
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
        h0x, hpx, hmx = _block_products(self.blocks, x)
        return self._e_conj * x - h0x - zb * hmx - hpx / zb

    # -- batched application ---------------------------------------------------

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
        BLAS-width work).  The result is an ``(S, N, m)`` view of
        ``(N, S, m)``-ordered memory (see :meth:`_combine_batch`).
        """
        zs = np.atleast_1d(np.asarray(zs, dtype=COMPLEX_DTYPE))
        if bool(np.any(zs == 0)):
            raise ConfigurationError("P(z) is undefined at z = 0")
        return self._combine_batch(self._e, zs, x, adjoint=False)

    def apply_adjoint_batch(self, zs: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``P(z_i)^† @ X_i`` over a stack of shifts (see :meth:`apply_batch`).

        Uses the bulk identity ``P(z)^† = P(1/z̄)`` when valid; otherwise
        the explicit adjoint arithmetic with ``H+† = H-`` assumed by the
        bulk validation, exactly mirroring :meth:`apply_adjoint`.
        """
        zs = np.atleast_1d(np.asarray(zs, dtype=COMPLEX_DTYPE))
        if bool(np.any(zs == 0)):
            raise ConfigurationError("P(z) is undefined at z = 0")
        if self.is_dual_symmetric:
            return self.apply_batch(1.0 / np.conj(zs), x)
        return self._combine_batch(self._e_conj, np.conj(zs), x, adjoint=True)

    def _combine_batch(self, e, zs, x, adjoint: bool):
        """``e X - H0 X - z H+ X - H- X / z`` per shift (``H+`` and ``H-``
        swapped for the explicit adjoint), evaluated in ``(N, S·m)``
        columns.

        The stack enters the block products as one ``(N, S·m)`` block —
        a view, no copy, when ``x`` is ``(N, S, m)``-ordered like the
        batched BiCG stacks — and the shift enters as a per-column
        vector.  The combination keeps the operation order of
        :meth:`apply`, writes ``z·H+X`` and ``H-X/z`` into the product
        outputs, and fills one ``(N, S, m)`` result, so the bits do not
        depend on the input's memory order.
        """
        x = np.asarray(x, dtype=COMPLEX_DTYPE)
        if x.ndim != 3 or x.shape[0] != zs.shape[0]:
            raise ConfigurationError(
                f"need x of shape (S, N, m) with S = {zs.shape[0]}, "
                f"got {x.shape}"
            )
        s, n, m = x.shape
        xm = np.moveaxis(x, 0, 1).reshape(n, s * m)
        h0x, hpx, hmx = _block_products(
            self.blocks, xm, self._product_buffers(s * m)
        )
        if adjoint:
            hpx, hmx = hmx, hpx
        z = np.repeat(zs, m)
        out = np.empty((n, s, m), dtype=COMPLEX_DTYPE)
        o = out.reshape(n, s * m)
        np.multiply(e, xm, out=o)
        o -= h0x
        o -= np.multiply(z, hpx, out=hpx)
        o -= np.divide(hmx, z, out=hmx)
        return out.transpose(1, 0, 2)

    def _product_buffers(self, k: int) -> _ProductBuffers:
        """This thread's reusable product buffers for ``k`` columns.

        One set per thread (sharded Step-1 stacks run on executor
        threads), replaced when the column count changes.  Every Step-1
        round reuses the same product memory: allocated per call, it
        would be freed at the end of each round, trimmed back to the OS
        by the allocator and page-faulted in again on the next (~4,500
        faults per round on the Al(100) N=512 lead).
        """
        buffers = getattr(self._local, "buffers", None)
        if buffers is None or buffers.k != k:
            buffers = self._local.buffers = _ProductBuffers(self.blocks, k)
        return buffers

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
