"""BiCG with simultaneous dual-system solution.

The bi-conjugate gradient method builds two coupled Krylov recurrences,
one with ``A`` and one with ``A^†``.  Initializing the shadow residual
with the *dual right-hand side* (``r̃_0 = b̃``, ``x̃_0 = 0``) makes the
shadow iterates an actual solution sequence for ``A^† x̃ = b̃``:

.. math::
    x̃_{k+1} = x̃_k + \\bar α_k p̃_k
    \\quad\\Rightarrow\\quad
    b̃ - A^† x̃_k = r̃_k  \\text{ for all } k .

Since plain BiCG already performs one matvec with ``A`` and one with
``A^†`` per iteration, the dual solution is **free**.  With the annulus
quadrature points paired as ``z^{(2)}_j = 1/\\bar z^{(1)}_j`` and
``P(z)^† = P(1/\\bar z)``, this halves Step 1 of the Sakurai-Sugiura
method (paper §3.2).

Jacobi (split) preconditioning preserves the property: the recurrence
applies ``M^{-1}`` in the primal space and ``M^{-†}`` in the shadow
space, and the shadow update is unchanged.

Two entry points:

* :class:`BiCGStepper` — one iteration at a time.  The SS solver runs
  many steppers in **lockstep rounds** to emulate the paper's concurrent
  middle layer exactly (all quadrature points iterate together; once the
  quorum rule triggers, stragglers stop where they are).
* :func:`bicg_dual` — the conventional run-to-completion driver built on
  the stepper, used for standalone solves and threaded execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.dtypes import BREAKDOWN_TOL, COMPLEX_DTYPE
from repro.solvers.stopping import QuorumController, ResidualRule, StopReason

Apply = Callable[[np.ndarray], np.ndarray]


@dataclass
class BiCGResult:
    """Outcome of a BiCG solve.

    Attributes
    ----------
    x:
        Solution of the primal system ``A x = b``.
    x_dual:
        Solution of the dual system ``A^† x̃ = b_dual`` (``None`` when no
        dual RHS was requested).
    iterations:
        Iterations performed.
    reason:
        Why the iteration stopped (:class:`StopReason`).
    residual / residual_dual:
        Final relative residuals (recurrence values).
    history / history_dual:
        Per-iteration relative residual norms — the data behind the
        paper's Figure 5.
    """

    x: np.ndarray
    x_dual: Optional[np.ndarray]
    iterations: int
    reason: StopReason
    residual: float
    residual_dual: float
    history: List[float] = field(default_factory=list)
    history_dual: List[float] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.reason == StopReason.CONVERGED


def _as_apply(a) -> Apply:
    """Accept a matrix (anything with ``@``) or a matvec callable."""
    if hasattr(a, "__matmul__") and not callable(a):
        return lambda x, _a=a: _a @ x
    if callable(a):
        return a
    return lambda x, _a=a: _a @ x


class BiCGStepper:
    """Stateful BiCG iteration for one (primal, dual) system pair.

    Parameters mirror :func:`bicg_dual`.  After construction, call
    :meth:`step` repeatedly; consult :attr:`rel` / :attr:`rel_dual` /
    :attr:`done`, then :meth:`finalize`.
    """

    def __init__(
        self,
        apply_a: Apply,
        apply_ah: Apply,
        b: np.ndarray,
        b_dual: Optional[np.ndarray] = None,
        *,
        precond: Optional[np.ndarray] = None,
        x0: Optional[np.ndarray] = None,
        record_history: bool = True,
    ) -> None:
        self._apply_a = _as_apply(apply_a)
        self._apply_ah = _as_apply(apply_ah)
        b = np.asarray(b, dtype=COMPLEX_DTYPE)
        self.n = b.shape[0]
        self.want_dual = b_dual is not None
        bd = (
            np.asarray(b_dual, dtype=COMPLEX_DTYPE)
            if self.want_dual
            else np.conj(b)
        )
        self.norm_b = float(np.linalg.norm(b))
        self.norm_bd = float(np.linalg.norm(bd))
        self._scale = max(self.norm_b, self.norm_bd, 1.0)
        self.record_history = record_history
        self.history: List[float] = []
        self.history_dual: List[float] = []

        if x0 is None:
            self.x = np.zeros(self.n, dtype=COMPLEX_DTYPE)
            self.r = b.copy()
        else:
            self.x = np.asarray(x0, dtype=COMPLEX_DTYPE).copy()
            self.r = b - self._apply_a(self.x)
        self.xd = np.zeros(self.n, dtype=COMPLEX_DTYPE)
        self.rt = bd.copy()

        self._inv_diag = None
        self._inv_diag_conj = None
        if precond is not None:
            diag = np.asarray(precond, dtype=COMPLEX_DTYPE)
            if np.any(diag == 0.0):
                raise ValueError("Jacobi preconditioner has zero entries")
            self._inv_diag = 1.0 / diag
            self._inv_diag_conj = np.conj(self._inv_diag)

        z = self._prec(self.r)
        zt = self._prec_h(self.rt)
        self.p = z.copy()
        self.pt = zt.copy()
        self._rho = np.vdot(self.rt, z)

        self.iterations = 0
        self.reason: Optional[StopReason] = None
        if self.norm_b == 0.0:
            self.rel = 0.0
            self.rel_dual = 0.0
            self.reason = StopReason.CONVERGED
        else:
            self.rel = float(np.linalg.norm(self.r)) / self.norm_b
            self.rel_dual = (
                float(np.linalg.norm(self.rt)) / self.norm_bd
                if self.norm_bd
                else 0.0
            )

    # -- internals ----------------------------------------------------------

    def _prec(self, v: np.ndarray) -> np.ndarray:
        return self._inv_diag * v if self._inv_diag is not None else v

    def _prec_h(self, v: np.ndarray) -> np.ndarray:
        return self._inv_diag_conj * v if self._inv_diag_conj is not None else v

    # -- public API ----------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.reason is not None

    def meets(self, rule: ResidualRule) -> bool:
        """Whether the residual rule is satisfied (both systems if dual)."""
        if self.want_dual:
            return rule.satisfied(self.rel) and rule.satisfied(self.rel_dual)
        return rule.satisfied(self.rel)

    def step(self) -> None:
        """Advance one BiCG iteration (no-op once :attr:`done`)."""
        if self.done:
            return
        q = self._apply_a(self.p)
        qt = self._apply_ah(self.pt)
        sigma = np.vdot(self.pt, q)
        if (
            abs(sigma) < BREAKDOWN_TOL * self._scale
            or abs(self._rho) < BREAKDOWN_TOL * self._scale
        ):
            self.reason = StopReason.BREAKDOWN
            return
        alpha = self._rho / sigma
        self.x += alpha * self.p
        self.xd += np.conj(alpha) * self.pt
        self.r -= alpha * q
        self.rt -= np.conj(alpha) * qt
        self.iterations += 1

        self.rel = float(np.linalg.norm(self.r)) / self.norm_b
        if self.norm_bd:
            self.rel_dual = float(np.linalg.norm(self.rt)) / self.norm_bd
        if self.record_history:
            self.history.append(self.rel)
            self.history_dual.append(self.rel_dual)

        z = self._prec(self.r)
        zt = self._prec_h(self.rt)
        rho_new = np.vdot(self.rt, z)
        if abs(rho_new) < BREAKDOWN_TOL * self._scale:
            # Next iteration would break down; flag now (solution so far
            # remains valid).
            self.reason = StopReason.BREAKDOWN
            return
        beta = rho_new / self._rho
        self._rho = rho_new
        self.p = z + beta * self.p
        self.pt = zt + np.conj(beta) * self.pt

    def stop(self, reason: StopReason) -> None:
        """Externally stop the iteration (quorum rule, budget)."""
        if not self.done:
            self.reason = reason

    def finalize(self) -> BiCGResult:
        return BiCGResult(
            self.x,
            self.xd if self.want_dual else None,
            self.iterations,
            self.reason if self.reason is not None else StopReason.MAXITER,
            self.rel,
            self.rel_dual if self.want_dual else 0.0,
            self.history,
            self.history_dual if self.want_dual else [],
        )


def bicg_dual(
    apply_a: Apply,
    apply_ah: Apply,
    b: np.ndarray,
    b_dual: Optional[np.ndarray] = None,
    *,
    rule: ResidualRule | None = None,
    quorum: QuorumController | None = None,
    system_index: int = -1,
    precond: Optional[np.ndarray] = None,
    x0: Optional[np.ndarray] = None,
    record_history: bool = True,
) -> BiCGResult:
    """Solve ``A x = b`` (and optionally ``A^† x̃ = b_dual``) with BiCG.

    Parameters
    ----------
    apply_a, apply_ah:
        Matvec callables (or matrices) for ``A`` and ``A^†``.
    b, b_dual:
        Primal RHS and optional dual RHS (see module docstring).
    rule:
        Residual stopping rule (default 1e-10, the paper's setting).
    quorum:
        Optional shared :class:`QuorumController` for the paper's
        load-balancing rule: this solve registers itself as
        ``system_index`` on convergence and aborts once more than the
        quorum fraction of the batch has converged.  Intended for
        *concurrent* execution; the SS solver's serial path uses lockstep
        :class:`BiCGStepper` rounds instead.
    precond:
        Jacobi preconditioner = the diagonal of ``A``.
    x0:
        Primal initial guess (dual always starts at zero).
    record_history:
        Keep per-iteration residuals (Figure 5 data).
    """
    rule = rule or ResidualRule()
    stepper = BiCGStepper(
        apply_a, apply_ah, b, b_dual,
        precond=precond, x0=x0, record_history=record_history,
    )
    maxiter = rule.maxiter if rule.maxiter is not None else max(10 * stepper.n, 100)

    if stepper.done or stepper.meets(rule):
        stepper.stop(StopReason.CONVERGED)
        return stepper.finalize()

    while stepper.iterations < maxiter and not stepper.done:
        stepper.step()
        if stepper.done:
            break
        if stepper.meets(rule):
            stepper.stop(StopReason.CONVERGED)
            if quorum is not None and system_index >= 0:
                quorum.mark_converged(system_index)
            break
        if quorum is not None and quorum.should_stop():
            stepper.stop(StopReason.QUORUM)
            break
    return stepper.finalize()


def bicg_block(
    apply_a: Apply,
    apply_ah: Apply,
    B: np.ndarray,
    B_dual: Optional[np.ndarray] = None,
    *,
    rule: ResidualRule | None = None,
    precond: Optional[np.ndarray] = None,
    record_history: bool = False,
) -> tuple[np.ndarray, Optional[np.ndarray], List[BiCGResult]]:
    """Column-by-column BiCG over a block of right-hand sides.

    The paper parallelizes over the ``N_rh`` right-hand sides (top layer)
    rather than using a block Krylov method; this helper is the serial
    equivalent — the executor-based parallel path lives in the SS solver.

    Returns ``(Y, Y_dual, results)`` with one :class:`BiCGResult` per
    column.
    """
    B = np.asarray(B, dtype=COMPLEX_DTYPE)
    if B.ndim == 1:
        B = B[:, None]
    n, nrhs = B.shape
    Y = np.empty((n, nrhs), dtype=COMPLEX_DTYPE)
    want_dual = B_dual is not None
    Yd = np.empty((n, nrhs), dtype=COMPLEX_DTYPE) if want_dual else None
    results: List[BiCGResult] = []
    for j in range(nrhs):
        bd = B_dual[:, j] if want_dual else None
        res = bicg_dual(
            apply_a, apply_ah, B[:, j], bd,
            rule=rule, precond=precond, record_history=record_history,
        )
        Y[:, j] = res.x
        if want_dual:
            Yd[:, j] = res.x_dual
        results.append(res)
    return Y, Yd, results
