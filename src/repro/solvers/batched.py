"""Batched block-BiCG: all ``N_int × N_rh`` shifted systems at once.

The paper's Step 1 is ``N_int`` shifted quadratic systems, each with
``N_rh`` right-hand sides, and its three parallel layers exist to keep
that many independent BiCG instances busy (Iwase et al., SC 2017 §3.3).
One Python :class:`repro.solvers.bicg.BiCGStepper` per (shift, RHS)
system — 512 at paper defaults — would spend its time in the
interpreter.

This module advances **every** system simultaneously on stacked
``(n_shifts, N, N_rh)`` arrays.  Per iteration there is exactly one
batched matvec with ``P`` and one with ``P^†`` (three sparse block
products each, applied to all ``S·N_rh`` columns at once via
:meth:`repro.qep.pencil.QuadraticPencil.apply_batch`); the scalar BiCG
recurrences become broadcast arithmetic on ``(S, N_rh)`` coefficient
arrays.

Memory order: every stack is an ``(S, N, m)`` view of ``(N, S, m)``
memory (:func:`_stack`), the column layout of the block products, so
``apply_batch`` multiplies it as one ``(N, S·m)`` block without a copy
and an ``(S, 1, m)`` coefficient broadcasts along each row's contiguous
``S·m`` entries.  The round runs in place: every update is formed in
one complex scratch stack and added to its iterate, norms go through
one real scratch stack, and frozen search directions are kept by a
masked copy, so a round allocates only its two product results.  Each
operation keeps the operands and their order of the plain broadcast
expression, and for ``m ≥ 2`` numpy sums over ``N`` one row at a time
in any memory order, so the iterates equal those of C-ordered stacks
bit for bit (for ``m = 1`` a C-ordered stack would sum its contiguous
``N`` axis pairwise instead).

Each system follows the recurrence of its own
:class:`repro.solvers.bicg.BiCGStepper`, as if all of them were stepped
one round at a time:

* per-system convergence masking — a converged/broken-down system is
  frozen (its iterates stop changing) while the rest continue;
* the quorum stopping rule fires on the round the paper's concurrent
  run would (one converged-count per round, across all systems);
* breakdown handling matches :class:`repro.solvers.bicg.BiCGStepper`
  exactly (pre-update ``σ``/``ρ`` checks and the post-update ``ρ`` check,
  with the same tolerance and scale).

Warm starts: both the primal and dual systems accept initial guesses.
The dual warm start uses the shifted-system identity — run the shadow
recurrence on ``b̃' = b̃ - A^† x̃_0`` and add ``x̃_0`` back at the end — so
an energy scan can seed both sequences from the previous slice (the
contour-integral self-energy follow-up, arXiv:1709.09324, observes that
adjacent-shift solves share most of their Krylov information).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.dtypes import (
    BREAKDOWN_TOL,
    CODE_DTYPE,
    COMPLEX_DTYPE,
    INT_DTYPE,
    REAL_DTYPE,
)
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


def _stack(s: int, n: int, m: int, dtype=COMPLEX_DTYPE) -> np.ndarray:
    """A zeroed ``(S, N, m)`` stack in ``(N, S, m)`` memory order: each
    row's ``S·m`` entries are contiguous, the column layout of the block
    products (see :meth:`repro.qep.pencil.QuadraticPencil.apply_batch`)."""
    return np.zeros((n, s, m), dtype=dtype).transpose(1, 0, 2)


class BatchedBiCG:
    """Vectorized lockstep BiCG over a stack of (shift, RHS) systems.

    Parameters
    ----------
    apply_batch, apply_adjoint_batch:
        Stack matvecs ``(S, N, m) → (S, N, m)`` for ``A_i`` and
        ``A_i^†`` (one entry per shift).
    b:
        Stacked right-hand sides ``(S, N, m)`` (cast to complex128 on
        entry).
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
    ) -> None:
        self._apply = apply_batch
        self._apply_h = apply_adjoint_batch
        b = np.asarray(b, dtype=COMPLEX_DTYPE)
        if b.ndim != 3:
            raise ValueError(f"b must have shape (S, N, m), got {b.shape}")
        self.shape = tuple(b.shape)
        s, n, m = self.shape
        self.want_dual = b_dual is not None
        bd = (
            np.asarray(b_dual, dtype=COMPLEX_DTYPE)
            if self.want_dual
            else np.conj(b)
        )
        if tuple(bd.shape) != self.shape:
            raise ValueError(
                f"b_dual shape {bd.shape} != b shape {b.shape}"
            )

        # Round scratch: one complex and one real stack, reused by every
        # update, norm and inner product.
        self._w = _stack(s, n, m)
        self._wr = _stack(s, n, m, REAL_DTYPE)
        self.norm_b = self._norm(b)
        self.norm_bd = self._norm(bd)
        self._scale = np.maximum(np.maximum(self.norm_b, self.norm_bd), 1.0)
        self.record_history = record_history
        self._hist_rel: List[np.ndarray] = []
        self._hist_mask: List[np.ndarray] = []

        self.x = _stack(s, n, m)
        self.r = _stack(s, n, m)
        if x0 is None:
            np.copyto(self.r, b)
        else:
            np.copyto(self.x, x0)
            np.subtract(b, self._apply(self.x), out=self.r)
        self._xd_offset = None
        self.xd = _stack(s, n, m)
        self.rt = _stack(s, n, m)
        if xd0 is None:
            np.copyto(self.rt, bd)
        else:
            # Shifted dual system: iterate from x̃ = 0 on the deflated
            # RHS b̃ - A† x̃0 and add x̃0 back in finalize.
            self._xd_offset = _stack(s, n, m)
            np.copyto(self._xd_offset, xd0)
            np.subtract(bd, self._apply_h(self._xd_offset), out=self.rt)

        self._inv_diag = None
        self._inv_diag_conj = None
        if precond is not None:
            diag = np.asarray(precond, dtype=COMPLEX_DTYPE)
            if tuple(diag.shape) != (s, n):
                raise ValueError(
                    f"precond must have shape {(s, n)}, got {diag.shape}"
                )
            if bool(np.any(diag == 0.0)):
                raise ValueError("Jacobi preconditioner has zero entries")
            # ``(S, N, 1)`` views of ``(N, S)`` memory, broadcast along
            # the stacks' contiguous ``S·m`` axis.
            inv = _stack(s, n, 1)
            np.divide(1.0, diag[:, :, None], out=inv)
            self._inv_diag = inv
            self._inv_diag_conj = np.conj(inv)
            self._z = _stack(s, n, m)
            self._zt = _stack(s, n, m)

        z = self._prec(self.r)
        zt = self._prec_h(self.rt)
        self.p = _stack(s, n, m)
        self.pt = _stack(s, n, m)
        np.copyto(self.p, z)
        np.copyto(self.pt, zt)
        self._rho = self._inner(self.rt, z)

        self.iterations = np.zeros((s, m), dtype=INT_DTYPE)
        self.code = np.full((s, m), ACTIVE, dtype=CODE_DTYPE)

        born = self.norm_b == 0.0
        self.rel = np.zeros((s, m), dtype=REAL_DTYPE)
        self.rel_dual = np.zeros((s, m), dtype=REAL_DTYPE)
        live = ~born
        np.divide(self._norm(self.r), self.norm_b, out=self.rel, where=live)
        has_bd = live & (self.norm_bd > 0.0)
        np.divide(
            self._norm(self.rt), self.norm_bd, out=self.rel_dual,
            where=has_bd,
        )
        self.code[born] = CONVERGED

    # -- internals ----------------------------------------------------------

    def _norm(self, a):
        """Column 2-norms ``(S, m)`` of a stack ``(S, N, m)``."""
        w = self._wr
        np.abs(a, out=w)
        np.square(w, out=w)
        return np.sqrt(w.sum(axis=1))

    def _inner(self, a, b):
        """Per-system ``⟨a, b⟩ = Σ_n conj(a) b`` → ``(S, m)``."""
        w = self._w
        np.conjugate(a, out=w)
        np.multiply(w, b, out=w)
        return w.sum(axis=1)

    def _prec(self, v):
        if self._inv_diag is None:
            return v
        return np.multiply(self._inv_diag, v, out=self._z)

    def _prec_h(self, v):
        if self._inv_diag_conj is None:
            return v
        return np.multiply(self._inv_diag_conj, v, out=self._zt)

    # -- state queries -------------------------------------------------------

    @property
    def active(self) -> np.ndarray:
        """Boolean mask ``(S, m)`` of systems still iterating."""
        return self.code == ACTIVE

    @property
    def any_active(self) -> bool:
        return bool(np.any(self.code == ACTIVE))

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
        to zero and their search directions are only overwritten where
        the round continues, so the arithmetic matches running each
        stepper independently.  The round runs in place: every update
        is formed in the scratch stack and added to its iterate, and the
        products ``q``/``q̃`` are the only stacks it allocates.
        """
        act = self.code == ACTIVE
        if not act.any():
            return
        q = self._apply(self.p)
        qt = self._apply_h(self.pt)
        sigma = self._inner(self.pt, q)

        limit = BREAKDOWN_TOL * self._scale
        broke_pre = act & (
            (np.abs(sigma) < limit) | (np.abs(self._rho) < limit)
        )
        upd = act & ~broke_pre
        if upd.any():
            # Masked division: frozen/near-breakdown entries hold
            # denormal σ whose quotient would overflow and warn.
            alpha = np.zeros_like(sigma)
            np.divide(self._rho, sigma, out=alpha, where=upd)
            am = alpha[:, None, :]
            amc = np.conj(am)
            w = self._w
            self.x += np.multiply(am, self.p, out=w)
            self.xd += np.multiply(amc, self.pt, out=w)
            self.r -= np.multiply(am, q, out=w)
            self.rt -= np.multiply(amc, qt, out=w)
            self.iterations += upd

            live_b = upd & (self.norm_b > 0.0)
            np.divide(
                self._norm(self.r), self.norm_b, out=self.rel, where=live_b,
            )
            live_bd = upd & (self.norm_bd > 0.0)
            np.divide(
                self._norm(self.rt), self.norm_bd, out=self.rel_dual,
                where=live_bd,
            )
            if self.record_history:
                self._hist_rel.append(self.rel.copy())
                self._hist_mask.append(upd.copy())

            z = self._prec(self.r)
            zt = self._prec_h(self.rt)
            rho_new = self._inner(self.rt, z)
            broke_post = upd & (np.abs(rho_new) < limit)
            go = upd & ~broke_post
            beta = np.zeros_like(rho_new)
            np.divide(rho_new, self._rho, out=beta, where=go)
            bm = beta[:, None, :]
            gm = go[:, None, :]
            # p ← z + β p on the continuing systems only.
            np.multiply(bm, self.p, out=w)
            np.copyto(self.p, np.add(z, w, out=w), where=gm)
            np.multiply(np.conj(bm), self.pt, out=w)
            np.copyto(self.pt, np.add(zt, w, out=w), where=gm)
            np.copyto(self._rho, rho_new, where=go)
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
) -> BatchedBiCG:
    """Drive a :class:`BatchedBiCG` to completion.

    Each round steps all active systems, marks the newly converged (and
    reports them to the shared ``quorum`` controller under global keys
    offset by ``quorum_offset`` — used when the shift stack is sharded
    over threads), then stops all stragglers once the quorum rule fires.
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
                for i, c in zip(*np.nonzero(newly)):
                    quorum.mark_converged((int(i) + quorum_offset, int(c)))
        if quorum is not None and engine.any_active and quorum.should_stop():
            engine.stop_mask(engine.active, StopReason.QUORUM)
    engine.stop_mask(engine.active, StopReason.MAXITER)
    return engine

