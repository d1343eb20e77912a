"""Complex moment accumulation (Step 2 of the Sakurai-Sugiura method).

From the per-node solutions ``Y_j = P(z_j)^{-1} V`` the method needs

* the **projected moments** ``µ̂_k = V^† Ŝ_k`` for ``k = 0 … 2 N_mm - 1``
  (they fill the two block Hankel matrices), and
* the **tall moments** ``Ŝ_k`` for ``k = 0 … N_mm - 1`` only (they enter
  the eigenvector recovery ``ψ = [Ŝ_0 … Ŝ_{N_mm-1}] W_1 Σ_1^{-1} φ``).

Keeping only the first ``N_mm`` tall moments is what gives the paper's
``O(M N)`` memory bound with ``M = N_rh × N_mm``: the accumulator stores
``N × N_rh × N_mm`` complex entries plus ``2 N_mm`` small ``N_rh × N_rh``
blocks, and each solution ``Y_j`` is folded in streaming fashion and can
be discarded immediately.  A Step-1 layout that has every ``Y_j`` of an
energy at once anyway (the small-``N`` dense direct solve) folds them
in one stacked call instead.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.memory import MemoryReport


def _moment_coefficients(coeff: np.ndarray, zs: np.ndarray,
                         n_deg: int) -> np.ndarray:
    """``coeff_j z_j^k`` for ``k < n_deg`` as a ``(P, n_deg)`` table.

    Powers come from repeated multiplication, each complex product
    formed from real parts the way Python's scalar ``complex`` multiply
    forms it (numpy's vectorized complex multiply may round the last
    bit differently), so a node's coefficients are bit-for-bit those of
    the scalar loop ``c = coeff * zk; zk *= z``.
    """
    def mul(ar, ai, br, bi):
        return ar * br - ai * bi, ar * bi + ai * br

    zr, zi = zs.real, zs.imag
    kr = np.ones_like(zr)
    ki = np.zeros_like(zi)
    out = np.empty((zs.shape[0], n_deg), dtype=np.complex128)
    for k in range(n_deg):
        out[:, k].real, out[:, k].imag = mul(coeff.real, coeff.imag, kr, ki)
        kr, ki = mul(kr, ki, zr, zi)
    return out


class MomentAccumulator:
    """Streaming accumulator for ``Ŝ_k`` and ``µ̂_k``.

    Parameters
    ----------
    v:
        The source block ``V`` (``N × N_rh``), kept by reference for the
        projections.
    n_mm:
        Number of moment degrees ``N_mm``; Hankel matrices need moments
        up to degree ``2 N_mm - 1``.
    """

    def __init__(self, v: np.ndarray, n_mm: int) -> None:
        v = np.asarray(v, dtype=np.complex128)
        if v.ndim != 2:
            raise ConfigurationError(f"V must be 2-D, got shape {v.shape}")
        if n_mm < 1:
            raise ConfigurationError(f"n_mm must be >= 1, got {n_mm}")
        self.v = v
        self.n, self.n_rh = v.shape
        self.n_mm = int(n_mm)
        self.s = np.zeros((self.n_mm, self.n, self.n_rh), dtype=np.complex128)
        self.mu = np.zeros(
            (2 * self.n_mm, self.n_rh, self.n_rh), dtype=np.complex128
        )
        self._points_added = 0
        self._gross_scale = 0.0
        self._v_norm = float(np.linalg.norm(v))

    def add(self, z: complex, weight: complex, y: np.ndarray,
            sign: float = 1.0) -> None:
        """Fold one node's solution block into the moments.

        Implements ``Ŝ_k += sign * ω z^k Y`` and ``µ̂_k += sign * ω z^k (V†Y)``.
        ``sign`` is +1 on the outer circle, −1 on the inner circle
        (annulus = outer minus inner).  The one-point case of
        :meth:`add_stack`.
        """
        y = np.asarray(y, dtype=np.complex128)
        self.add_stack([z], [weight], y[None], [sign])

    def add_stack(self, zs, weights, ys: np.ndarray, signs) -> None:
        """Fold a whole stack of node solutions into the moments at once.

        ``ys`` is ``(P, N, N_rh)`` — one solution block per node
        ``(z_j, ω_j, sign_j)`` — and the fold is one contraction over
        the node axis per moment array instead of ``P`` streaming
        updates.  The stacked sum adds the nodes in a different order
        than folding them one by one, so the two agree to rounding; a
        one-node stack is bit-for-bit the streaming fold.
        """
        ys = np.asarray(ys, dtype=np.complex128)
        if ys.ndim != 3 or ys.shape[1:] != (self.n, self.n_rh):
            raise ConfigurationError(
                f"solution block shape {ys.shape[1:]} != "
                f"{(self.n, self.n_rh)}"
            )
        p = ys.shape[0]
        zs = np.asarray(zs, dtype=np.complex128).reshape(p)
        coeff = (np.asarray(signs, dtype=np.float64).reshape(p)
                 * np.asarray(weights, dtype=np.complex128).reshape(p))
        n_deg = 2 * self.n_mm
        c = _moment_coefficients(coeff, zs, n_deg)
        # Gross (cancellation-free) scale of the accumulation: an upper
        # bound on how large the moments could be if nothing cancelled.
        # The quadrature of an *empty* contour cancels to machine noise
        # relative to this scale, which is what the noise-floor rank
        # diagnostics compare against.
        zmax = np.maximum(1.0, np.abs(zs)) ** (n_deg - 1)
        norms = np.linalg.norm(ys.reshape(p, -1), axis=1)
        self._gross_scale += float(np.sum(np.abs(coeff) * zmax * norms))
        vhy = self.v.conj().T @ ys  # (P, N_rh, N_rh), once per node
        # Elementwise products summed over the node axis (not a GEMM):
        # a one-node sum is its single product, exactly as streamed.
        self.mu += (c.T[:, :, None, None] * vhy[None]).sum(axis=1)
        self.s += (c[:, : self.n_mm].T[:, :, None, None] * ys[None]).sum(axis=1)
        self._points_added += p

    @property
    def points_added(self) -> int:
        return self._points_added

    @property
    def gross_scale(self) -> float:
        """Cancellation-free bound ``Σ_j max(1,|z_j|)^{2N_mm-1} |ω_j| ‖Y_j‖``."""
        return self._gross_scale

    @property
    def v_norm(self) -> float:
        """Frobenius norm of the source block ``V``."""
        return self._v_norm

    def noise_floor(self) -> float:
        """Magnitude below which a Hankel singular value is numerically
        indistinguishable from quadrature-cancellation noise.

        ``|µ̂_k| ≤ ‖V‖ · gross_scale`` entrywise, so a top singular value
        many orders below that bound means the contour integral cancelled
        — a spectrally empty ring — rather than a small true moment.  The
        ``1e3`` cushion absorbs the matrix-size factors.
        """
        return 1e3 * np.finfo(np.float64).eps * self._v_norm * self._gross_scale

    def stacked_s(self) -> np.ndarray:
        """``Ŝ = [Ŝ_0, Ŝ_1, …, Ŝ_{N_mm-1}]`` as an ``N × (N_rh N_mm)`` matrix."""
        return np.concatenate(list(self.s), axis=1)

    def memory_report(self) -> MemoryReport:
        rep = MemoryReport()
        rep.add("moments S_k (N x Nrh x Nmm)", self.s)
        rep.add("projected moments mu_k", self.mu)
        rep.add("source block V", self.v)
        return rep
