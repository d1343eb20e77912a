"""Batched block-BiCG: all ``N_int × N_rh`` shifted systems at once.

The paper's Step 1 is ``N_int`` shifted quadratic systems, each with
``N_rh`` right-hand sides, and its three parallel layers exist to keep
that many independent BiCG instances busy (Iwase et al., SC 2017 §3.3).
Our serial emulation originally ran one Python :class:`BiCGStepper`
object per (shift, RHS) task — 512 objects at paper defaults — advanced
one iteration at a time in a Python loop, so interpreter overhead
dominated.

This module advances **every** system simultaneously on stacked
``(n_shifts, N, N_rh)`` arrays.  Per iteration there is exactly one
batched matvec with ``P`` and one with ``P^†`` (three sparse block
products each, applied to all ``S·N_rh`` columns at once via
:meth:`repro.qep.pencil.QuadraticPencil.apply_batch`); the scalar BiCG
recurrences become broadcast arithmetic on ``(S, N_rh)`` coefficient
arrays.  Semantics are kept identical to the lockstep stepper path:

* per-system convergence masking — a converged/broken-down system is
  frozen (its iterates stop changing) while the rest continue;
* the quorum stopping rule fires on the same round it would have in the
  lockstep emulation (same converged-count bookkeeping);
* breakdown handling matches :class:`repro.solvers.bicg.BiCGStepper`
  exactly (pre-update ``σ``/``ρ`` checks and the post-update ``ρ`` check,
  with the same tolerance and scale).

Array backend seam: the engine's state arrays, dtypes and breakdown
threshold come from an :class:`repro.backends.base.ArrayBackend`
(default ``"numpy"`` — bit-for-bit the historical complex128 engine).
The hot kernels (:meth:`BatchedBiCG.step`, the preconditioner applies,
:meth:`CrossEnergyBatch.apply`/:meth:`~CrossEnergyBatch.apply_adjoint`
and the norm/inner-product helpers) call only through the backend's
``xp`` namespace — never ``numpy`` directly — which is what makes the
mixed-precision and GPU backends drop-in (enforced by
``tests/test_backend_seam.py``).

Warm starts: both the primal and dual systems accept initial guesses.
The dual warm start uses the shifted-system identity — run the shadow
recurrence on ``b̃' = b̃ - A^† x̃_0`` and add ``x̃_0`` back at the end — so
an energy scan can seed both sequences from the previous slice (the
contour-integral self-energy follow-up, arXiv:1709.09324, observes that
adjacent-shift solves share most of their Krylov information).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.backends.dtypes import COMPLEX_DTYPE
from repro.backends.registry import resolve_backend
from repro.solvers.stopping import QuorumController, ResidualRule, StopReason

BatchApply = Callable[[np.ndarray], np.ndarray]

#: Integer stop codes used internally (0 = still iterating).
ACTIVE, CONVERGED, QUORUM, MAXITER, BREAKDOWN = 0, 1, 2, 3, 4

_CODE_TO_REASON = {
    CONVERGED: StopReason.CONVERGED,
    QUORUM: StopReason.QUORUM,
    MAXITER: StopReason.MAXITER,
    BREAKDOWN: StopReason.BREAKDOWN,
}

_REASON_TO_CODE = {v: k for k, v in _CODE_TO_REASON.items()}


@dataclass
class Step1WarmStart:
    """Previous-slice Step-1 solutions, reusable as initial guesses.

    ``y0`` (and ``yd0`` when the dual trick is active) are the stacked
    solutions ``(n_shifts, N, N_rh)`` from an adjacent energy.  The
    engine validates shapes and silently ignores a stale cache whose
    geometry no longer matches (changed config, changed model).
    """

    y0: np.ndarray
    yd0: Optional[np.ndarray] = None

    def matches(self, shape: tuple) -> bool:
        return tuple(self.y0.shape) == tuple(shape)


def _batch_norm(xp, a):
    """Column 2-norms of a stack ``(S, N, m)`` → ``(S, m)``."""
    return xp.sqrt(xp.sum(xp.abs(a) ** 2, axis=1))


def _batch_inner(xp, a, b):
    """Per-system ``⟨a, b⟩ = Σ_n conj(a) b`` → ``(S, m)``."""
    return xp.sum(xp.conj(a) * b, axis=1)


class BatchedBiCG:
    """Vectorized lockstep BiCG over a stack of (shift, RHS) systems.

    Parameters
    ----------
    apply_batch, apply_adjoint_batch:
        Stack matvecs ``(S, N, m) → (S, N, m)`` for ``A_i`` and
        ``A_i^†`` (one entry per shift), in the backend's solve dtype.
    b:
        Stacked right-hand sides ``(S, N, m)`` (cast to the backend's
        solve dtype on entry).
    b_dual:
        Stacked dual right-hand sides; enables the dual-solution
        recurrence (paper §3.2).  ``None`` → primal only (the shadow
        residual starts at ``conj(b)`` as in :class:`BiCGStepper`).
    precond:
        Stacked Jacobi diagonals ``(S, N)`` or ``None``.
    x0, xd0:
        Optional stacked initial guesses for the primal/dual systems.
    record_history:
        Keep per-round residual snapshots (reconstructed into
        per-system lists by :meth:`history_for`).
    backend:
        An :class:`repro.backends.base.ArrayBackend`, its registry
        name, or ``None`` for the default ``"numpy"`` backend.
    """

    def __init__(
        self,
        apply_batch: BatchApply,
        apply_adjoint_batch: BatchApply,
        b: np.ndarray,
        b_dual: Optional[np.ndarray] = None,
        *,
        precond: Optional[np.ndarray] = None,
        x0: Optional[np.ndarray] = None,
        xd0: Optional[np.ndarray] = None,
        record_history: bool = True,
        backend=None,
    ) -> None:
        be = resolve_backend(backend)
        self.backend = be
        xp = be.xp
        self._xp = xp
        self.dtype = be.solve_dtype
        self._apply = apply_batch
        self._apply_h = apply_adjoint_batch
        b = xp.asarray(b, dtype=self.dtype)
        if b.ndim != 3:
            raise ValueError(f"b must have shape (S, N, m), got {b.shape}")
        self.shape = tuple(b.shape)
        s, n, m = self.shape
        self.want_dual = b_dual is not None
        bd = (
            xp.asarray(b_dual, dtype=self.dtype)
            if self.want_dual
            else xp.conj(b)
        )
        if tuple(bd.shape) != self.shape:
            raise ValueError(
                f"b_dual shape {bd.shape} != b shape {b.shape}"
            )

        self.norm_b = _batch_norm(xp, b)
        self.norm_bd = _batch_norm(xp, bd)
        self._scale = xp.maximum(xp.maximum(self.norm_b, self.norm_bd), 1.0)
        self.record_history = record_history
        self._hist_rel: List[np.ndarray] = []
        self._hist_mask: List[np.ndarray] = []

        if x0 is None:
            self.x = xp.zeros_like(b)
            self.r = b.copy()
        else:
            self.x = xp.array(x0, dtype=self.dtype, copy=True)
            self.r = b - self._apply(self.x)
        self._xd_offset = None
        if xd0 is None:
            self.xd = xp.zeros_like(b)
            self.rt = bd.copy()
        else:
            # Shifted dual system: iterate from x̃ = 0 on the deflated
            # RHS b̃ - A† x̃0 and add x̃0 back in finalize.
            self._xd_offset = xp.array(xd0, dtype=self.dtype, copy=True)
            self.xd = xp.zeros_like(b)
            self.rt = bd - self._apply_h(self._xd_offset)

        self._inv_diag = None
        self._inv_diag_conj = None
        if precond is not None:
            diag = xp.asarray(precond, dtype=self.dtype)
            if tuple(diag.shape) != (s, n):
                raise ValueError(
                    f"precond must have shape {(s, n)}, got {diag.shape}"
                )
            if bool(xp.any(diag == 0.0)):
                raise ValueError("Jacobi preconditioner has zero entries")
            self._inv_diag = (1.0 / diag)[:, :, None]
            self._inv_diag_conj = xp.conj(self._inv_diag)

        z = self._prec(self.r)
        zt = self._prec_h(self.rt)
        self.p = z.copy()
        self.pt = zt.copy()
        self._rho = _batch_inner(xp, self.rt, z)

        self.iterations = xp.zeros((s, m), dtype=be.int_dtype)
        self.code = xp.full((s, m), ACTIVE, dtype=be.code_dtype)

        born = self.norm_b == 0.0
        self.rel = xp.zeros((s, m), dtype=be.real_dtype)
        self.rel_dual = xp.zeros((s, m), dtype=be.real_dtype)
        live = ~born
        xp.divide(
            _batch_norm(xp, self.r), self.norm_b, out=self.rel, where=live
        )
        has_bd = live & (self.norm_bd > 0.0)
        xp.divide(
            _batch_norm(xp, self.rt), self.norm_bd, out=self.rel_dual,
            where=has_bd,
        )
        self.code[born] = CONVERGED

    # -- internals ----------------------------------------------------------

    def _prec(self, v):
        return self._inv_diag * v if self._inv_diag is not None else v

    def _prec_h(self, v):
        return (
            self._inv_diag_conj * v
            if self._inv_diag_conj is not None
            else v
        )

    # -- state queries -------------------------------------------------------

    @property
    def active(self) -> np.ndarray:
        """Boolean mask ``(S, m)`` of systems still iterating."""
        return self.code == ACTIVE

    @property
    def any_active(self) -> bool:
        return bool(self._xp.any(self.code == ACTIVE))

    def meets(self, rule: ResidualRule) -> np.ndarray:
        """Mask of systems whose residual rule is satisfied (both systems
        when a dual RHS was requested), mirroring ``BiCGStepper.meets``."""
        ok = self.rel <= rule.tol
        if self.want_dual:
            ok = ok & (self.rel_dual <= rule.tol)
        return ok

    def stop_mask(self, mask: np.ndarray, reason: StopReason) -> None:
        """Externally stop the masked systems (quorum rule, budget)."""
        code = _REASON_TO_CODE[reason]
        self.code[mask & (self.code == ACTIVE)] = code

    def reason(self, i: int, c: int) -> StopReason:
        return _CODE_TO_REASON.get(int(self.code[i, c]), StopReason.MAXITER)

    # -- iteration -----------------------------------------------------------

    def step(self) -> None:
        """Advance all active systems by one lockstep BiCG round.

        Frozen systems (converged, quorum-stopped, broken down) are
        carried through untouched: their update coefficients are masked
        to zero and their search directions are preserved with
        ``xp.where``, so the arithmetic matches running each stepper
        independently.
        """
        xp = self._xp
        act = self.code == ACTIVE
        if not act.any():
            return
        q = self._apply(self.p)
        qt = self._apply_h(self.pt)
        sigma = _batch_inner(xp, self.pt, q)

        limit = self.backend.breakdown_tol * self._scale
        broke_pre = act & (
            (xp.abs(sigma) < limit) | (xp.abs(self._rho) < limit)
        )
        upd = act & ~broke_pre
        if upd.any():
            # Masked division: frozen/near-breakdown entries hold
            # denormal σ whose quotient would overflow and warn.
            alpha = xp.zeros_like(sigma)
            xp.divide(self._rho, sigma, out=alpha, where=upd)
            am = alpha[:, None, :]
            self.x += am * self.p
            self.xd += xp.conj(am) * self.pt
            self.r -= am * q
            self.rt -= xp.conj(am) * qt
            self.iterations += upd

            live_b = upd & (self.norm_b > 0.0)
            xp.divide(
                _batch_norm(xp, self.r), self.norm_b, out=self.rel,
                where=live_b,
            )
            live_bd = upd & (self.norm_bd > 0.0)
            xp.divide(
                _batch_norm(xp, self.rt), self.norm_bd, out=self.rel_dual,
                where=live_bd,
            )
            if self.record_history:
                self._hist_rel.append(self.rel.copy())
                self._hist_mask.append(upd.copy())

            z = self._prec(self.r)
            zt = self._prec_h(self.rt)
            rho_new = _batch_inner(xp, self.rt, z)
            broke_post = upd & (xp.abs(rho_new) < limit)
            go = upd & ~broke_post
            beta = xp.zeros_like(rho_new)
            xp.divide(rho_new, self._rho, out=beta, where=go)
            bm = beta[:, None, :]
            gm = go[:, None, :]
            self.p = xp.where(gm, z + bm * self.p, self.p)
            self.pt = xp.where(gm, zt + xp.conj(bm) * self.pt, self.pt)
            self._rho = xp.where(go, rho_new, self._rho)
            self.code[broke_post] = BREAKDOWN
        self.code[broke_pre] = BREAKDOWN

    # -- results -------------------------------------------------------------

    def solution(self) -> np.ndarray:
        """Stacked primal solutions ``(S, N, m)``."""
        return self.x

    def solution_dual(self) -> Optional[np.ndarray]:
        """Stacked dual solutions, including any warm-start offset."""
        if not self.want_dual:
            return None
        if self._xd_offset is not None:
            return self.xd + self._xd_offset
        return self.xd

    def history_for(self, i: int, c: int) -> List[float]:
        """Per-iteration primal residual history of system ``(i, c)``."""
        return [
            float(rel[i, c])
            for rel, mask in zip(self._hist_rel, self._hist_mask)
            if mask[i, c]
        ]


def run_batched_bicg(
    apply_batch: BatchApply,
    apply_adjoint_batch: BatchApply,
    b: np.ndarray,
    b_dual: Optional[np.ndarray] = None,
    *,
    rule: ResidualRule | None = None,
    quorum: Optional[QuorumController] = None,
    quorum_offset: int = 0,
    maxiter: Optional[int] = None,
    precond: Optional[np.ndarray] = None,
    warm: Optional[Step1WarmStart] = None,
    record_history: bool = True,
    backend=None,
) -> BatchedBiCG:
    """Drive a :class:`BatchedBiCG` to completion, lockstep-equivalent.

    The control flow mirrors ``SSHankelSolver._run_lockstep`` round for
    round: step all active systems, mark the newly converged (and report
    them to the shared ``quorum`` controller under global keys offset by
    ``quorum_offset`` — used when the shift stack is sharded over
    threads), then stop all stragglers once the quorum rule fires.
    Systems still active after ``maxiter`` rounds are stopped with
    ``MAXITER``.
    """
    rule = rule or ResidualRule()
    b = np.asarray(b, dtype=COMPLEX_DTYPE)
    x0 = xd0 = None
    if warm is not None and warm.matches(b.shape):
        x0 = warm.y0
        if warm.yd0 is not None and b_dual is not None:
            xd0 = warm.yd0
    engine = BatchedBiCG(
        apply_batch, apply_adjoint_batch, b, b_dual,
        precond=precond, x0=x0, xd0=xd0, record_history=record_history,
        backend=backend,
    )
    if maxiter is None:
        maxiter = (
            rule.maxiter
            if rule.maxiter is not None
            else max(10 * b.shape[1], 100)
        )

    for _round in range(maxiter):
        if not engine.any_active:
            break
        engine.step()
        newly = engine.active & engine.meets(rule)
        if bool(newly.any()):
            engine.stop_mask(newly, StopReason.CONVERGED)
            if quorum is not None:
                host_newly = engine.backend.to_host(newly)
                for i, c in zip(*np.nonzero(host_newly)):
                    quorum.mark_converged((int(i) + quorum_offset, int(c)))
        if quorum is not None and engine.any_active and quorum.should_stop():
            engine.stop_mask(engine.active, StopReason.QUORUM)
    engine.stop_mask(engine.active, StopReason.MAXITER)
    return engine


class CrossEnergyBatch:
    """Stacked pencil application over a flattened (energy, shift) axis.

    :meth:`repro.qep.pencil.QuadraticPencil.apply_batch` already collapses
    all shifts of *one* energy into three sparse block products; the only
    place the energy enters is the scalar term ``E·x``.  This operator
    exploits that: it carries a flat per-entry ``energies`` array next to
    the flat ``shifts`` array, so one batched matvec advances an entire
    (E, k∥-tile) × shifts product grid — ``K·S·m`` columns through each
    of ``H0``/``H+``/``H-`` at once.

    Bit-for-bit parity with the per-energy path is by construction: CSR
    matmul treats columns independently, and the per-entry combination
    ``E_i x_i - H0 x_i - z_i H+ x_i - z_i^{-1} H- x_i`` is elementwise,
    so entry ``i`` sees exactly the arithmetic it would in a per-energy
    :meth:`~repro.qep.pencil.QuadraticPencil.apply_batch` call.

    Parameters
    ----------
    blocks:
        The :class:`repro.qep.blocks.BlockTriple` (real sparse blocks
        take the real-view products of
        :func:`repro.qep.pencil._block_products`) — or, for a
        reduced-precision/device view, the triple returned by
        :meth:`repro.backends.base.ArrayBackend.solver_blocks`.
    energies, shifts:
        Flat per-entry arrays, one ``(energy, shift)`` pair per stack
        entry — typically ``repeat(E_grid, S)`` against ``tile(zs, K)``.
    dual_symmetric:
        Whether ``P(z)† = P(1/z̄)`` holds for every entry (real energies
        on a bulk triple — :attr:`QuadraticPencil.is_dual_symmetric`).
        Selects between the cheap dual-shift adjoint and the explicit
        adjoint arithmetic, mirroring ``apply_adjoint_batch``.
    backend, dtype:
        The array backend and an optional explicit arithmetic dtype.
        With ``dtype=None`` this is a host-side accumulation operator in
        complex128 (bit-for-bit the historical behavior); an explicit
        ``dtype`` marks a solver-side view running in the backend's
        namespace (the convention shared with
        :meth:`repro.qep.pencil.QuadraticPencil.solver_view`).
    """

    def __init__(
        self,
        blocks,
        energies: np.ndarray,
        shifts: np.ndarray,
        *,
        dual_symmetric: bool,
        backend=None,
        dtype=None,
    ) -> None:
        be = resolve_backend(backend)
        self.backend = be
        self.dtype = np.dtype(dtype) if dtype is not None else be.complex_dtype
        xp = be.xp if dtype is not None else np
        self._xp = xp
        self.blocks = blocks
        self.energies = xp.atleast_1d(xp.asarray(energies, dtype=self.dtype))
        self.shifts = xp.atleast_1d(xp.asarray(shifts, dtype=self.dtype))
        if tuple(self.energies.shape) != tuple(self.shifts.shape):
            raise ValueError(
                f"energies {self.energies.shape} and shifts "
                f"{self.shifts.shape} must be flat arrays of equal length"
            )
        if bool(xp.any(self.shifts == 0)):
            raise ValueError("P(z) is undefined at z = 0")
        self.dual_symmetric = bool(dual_symmetric)
        self._es = self.energies[:, None, None]
        # Same op order as apply_adjoint_batch's dual path: 1/conj(z).
        self._zs = self.shifts[:, None, None]
        self._zs_dual = (1.0 / xp.conj(self.shifts))[:, None, None]

    @property
    def size(self) -> int:
        return int(self.shifts.shape[0])

    def solver_view(self) -> "CrossEnergyBatch":
        """The reduced-precision/device twin of this operator (itself
        when the backend solves in the accumulation dtype)."""
        be = self.backend
        if be.solve_dtype == self.dtype and be.xp is self._xp:
            return self
        return CrossEnergyBatch(
            be.solver_blocks(self.blocks),
            be.to_host(self.energies),
            be.to_host(self.shifts),
            dual_symmetric=self.dual_symmetric,
            backend=be,
            dtype=be.solve_dtype,
        )

    def _products(self, x):
        """The three stacked block products (each ONE sparse matmul)."""
        from repro.qep.pencil import _stacked_products

        return _stacked_products(self.blocks, x, self._xp)

    def _validate(self, x):
        xp = self._xp
        x = xp.asarray(x, dtype=self.dtype)
        if x.ndim != 3 or x.shape[0] != self.size:
            raise ValueError(
                f"need x of shape (T, N, m) with T = {self.size}, "
                f"got {x.shape}"
            )
        return x

    def apply(self, x):
        """``P_{E_i}(z_i) @ X_i`` for every flat entry ``i`` at once."""
        x = self._validate(x)
        h0x, hpx, hmx = self._products(x)
        return self._es * x - h0x - self._zs * hpx - hmx / self._zs

    def apply_adjoint(self, x):
        """``P_{E_i}(z_i)† @ X_i``, mirroring ``apply_adjoint_batch``."""
        xp = self._xp
        x = self._validate(x)
        h0x, hpx, hmx = self._products(x)
        if self.dual_symmetric:
            # P(z)† = P(1/z̄): real energies, so E plays the same scalar
            # role as in the primal application.
            zd = self._zs_dual
            return self._es * x - h0x - zd * hpx - hmx / zd
        zb = xp.conj(self._zs)
        return xp.conj(self._es) * x - h0x - zb * hmx - hpx / zb


def run_grid_bicg(
    apply_batch: BatchApply,
    apply_adjoint_batch: BatchApply,
    b: np.ndarray,
    b_dual: Optional[np.ndarray] = None,
    *,
    segments: Sequence[Tuple[int, int]],
    rule: ResidualRule | None = None,
    quorum_fraction: Optional[float] = None,
    maxiter: Optional[int] = None,
    precond: Optional[np.ndarray] = None,
    record_history: bool = True,
    backend=None,
) -> BatchedBiCG:
    """Drive one :class:`BatchedBiCG` over a cross-energy stack.

    The stack's leading axis is partitioned into ``segments`` — one
    contiguous ``(lo, hi)`` span per energy — and each segment gets its
    **own** :class:`QuorumController` over its own ``(hi-lo)·m`` systems.
    That replicates the bookkeeping of running ``run_batched_bicg`` once
    per energy with a single chunk: each round every segment marks its
    newly converged systems and, when its controller fires, quorum-stops
    only its own stragglers.  Because the BiCG recurrences are per-system
    independent and frozen systems are carried through untouched, every
    system's iterates are bit-identical to the per-energy runs — extra
    global rounds after a segment finishes are no-ops for it.

    ``segments`` must partition ``range(b.shape[0])``; warm starts are
    deliberately unsupported (the grid path replaces the warm chain —
    all energies start cold from the shared source block).
    """
    rule = rule or ResidualRule()
    b = np.asarray(b, dtype=COMPLEX_DTYPE)
    engine = BatchedBiCG(
        apply_batch, apply_adjoint_batch, b, b_dual,
        precond=precond, record_history=record_history, backend=backend,
    )
    if maxiter is None:
        maxiter = (
            rule.maxiter
            if rule.maxiter is not None
            else max(10 * b.shape[1], 100)
        )
    m = b.shape[2]
    quorums = [
        QuorumController((hi - lo) * m, quorum_fraction)
        if quorum_fraction is not None and (hi - lo) * m > 1
        else None
        for lo, hi in segments
    ]

    for _round in range(maxiter):
        if not engine.any_active:
            break
        engine.step()
        newly = engine.active & engine.meets(rule)
        if bool(newly.any()):
            engine.stop_mask(newly, StopReason.CONVERGED)
        host_newly = engine.backend.to_host(newly)
        host_active = engine.backend.to_host(engine.active)
        for (lo, hi), quorum in zip(segments, quorums):
            if quorum is None:
                continue
            seg_new = host_newly[lo:hi]
            if seg_new.any():
                for i, c in zip(*np.nonzero(seg_new)):
                    quorum.mark_converged((int(i), int(c)))
            seg_active = host_active[lo:hi]
            if seg_active.any() and quorum.should_stop():
                mask = engine._xp.zeros(engine.code.shape, dtype=bool)
                mask[lo:hi] = engine.active[lo:hi]
                engine.stop_mask(mask, StopReason.QUORUM)
    engine.stop_mask(engine.active, StopReason.MAXITER)
    return engine
