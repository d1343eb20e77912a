"""Linear solvers for the shifted systems ``P(z_j) Y_j = V``.

The Sakurai-Sugiura Step 1 spends essentially all of its time here
(paper Table 1), so the solver layer carries the paper's two tricks:

* :func:`repro.solvers.bicg.bicg_dual` solves ``P(z) y = v`` **and** the
  dual system ``P(z)^† ỹ = v`` in one Krylov recurrence (two matvecs per
  iteration, which plain BiCG needs anyway) — this halves the number of
  linear solves for the ring contour (paper §3.2);
* :mod:`repro.solvers.stopping` implements the quorum stopping rule that
  caps load imbalance across quadrature points (paper §3.3).
"""

from repro.solvers.bicg import bicg_dual, BiCGResult
from repro.solvers.batched import (
    BatchedBiCG,
    Step1WarmStart,
    run_batched_bicg,
)
from repro.solvers.cg import conjugate_gradient, CGResult
from repro.solvers.direct import SparseLUSolver, rcm_ordering
from repro.solvers.registry import (
    available_strategies,
    get_step1_strategy,
    step1_strategy,
)
from repro.solvers.stopping import (
    ResidualRule,
    QuorumController,
    StopReason,
)
from repro.solvers.preconditioners import jacobi_preconditioner

__all__ = [
    "bicg_dual",
    "BiCGResult",
    "BatchedBiCG",
    "Step1WarmStart",
    "run_batched_bicg",
    "conjugate_gradient",
    "CGResult",
    "SparseLUSolver",
    "rcm_ordering",
    "available_strategies",
    "get_step1_strategy",
    "step1_strategy",
    "ResidualRule",
    "QuorumController",
    "StopReason",
    "jacobi_preconditioner",
]
