"""The single definition site for the solver dtype policy.

The hot kernels in ``qep/pencil.py``, ``solvers/batched.py`` and
``solvers/bicg.py`` take their dtypes from here instead of spelling
``np.complex128``-style literals inline, so the precision policy is one
edit, not a grep.

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
