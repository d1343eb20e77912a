"""The single definition site for the solver dtype policy.

The Step-1 modules — the batched BiCG engine in ``solvers/batched.py``
(``run_batched_bicg``), its pencil products in ``qep/pencil.py``, the
Jacobi preconditioner, the stopping rules, ``ss/solver.py``, and the
per-system reference recurrence in ``solvers/bicg.py`` — take their
dtypes from here instead of spelling ``np.complex128``-style literals
inline, so the precision policy is one edit, not a grep
(``tests/test_dtype_literals.py`` checks their sources).

The constants are ``np.dtype`` instances, not scalar types: ``.type``
gives the matching zero-dimensional scalar constructor.
"""

from __future__ import annotations

import numpy as np

#: Solve and accumulation precision — the paper's double-precision
#: arithmetic.
COMPLEX_DTYPE = np.dtype(np.complex128)
REAL_DTYPE = np.dtype(np.float64)

#: Bookkeeping dtypes of the batched engine.
INT_DTYPE = np.dtype(np.int64)
CODE_DTYPE = np.dtype(np.int8)

#: ρ or σ below this (relative to the RHS scale) is treated as BiCG
#: breakdown.
BREAKDOWN_TOL = 1e-290
