"""Direct solvers for the shifted systems.

For validation-scale problems a sparse LU of ``P(z_j)`` beats BiCG by a
wide margin, and one factorization serves **both** the primal systems
``P(z) Y = V`` and the dual systems ``P(z)^† Ỹ = V`` (SuperLU solves
with ``A``, ``A^T`` or ``A^H`` from the same factors) — the direct-solver
counterpart of the paper's remark that "(sparse) direct solvers and the
BiCG method efficiently solve the linear systems (9) and its dual
systems (11)".

For small ``N`` the per-point sparse machinery (CSR assembly, SuperLU
set-up) costs far more than the factorization itself, so
:func:`solve_dense_stack` instead solves every quadrature point of an
energy at once on a dense ``(n_pts, N, N)`` stack with one batched
LAPACK call.  :data:`DENSE_STACK_MAX_N` is the measured crossover.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.errors import SingularPencilError
from repro.utils.memory import MemoryReport

#: Largest ``N`` at which the ``"direct"`` Step-1 strategy factors all
#: quadrature points as one dense stack instead of one SuperLU per
#: point.  From ``benchmarks/sweep_direct_layout.py`` (N_int=32,
#: N_rh=16, 2-core x86-64, OpenBLAS 0.3.31, 1 and 2 BLAS threads): the
#: dense stack is 9-12x faster at N=8, 2.4-4.2x at N=64, 1.3-1.5x at
#: N=96 and 0.6-0.8x at N=128 on ladders and slabs (sparser random
#: triples favour it longer).  64 keeps a wide margin below the
#: break-even near N=110 (docs/architecture.rst).
DENSE_STACK_MAX_N = 64


def solve_dense_stack(p_stack: np.ndarray, b: np.ndarray,
                      adjoint: bool = False) -> np.ndarray:
    """Solve ``P_j Y_j = B`` (or ``P_j^† Y_j = B``) for a dense stack.

    Parameters
    ----------
    p_stack:
        The assembled systems, shape ``(n_pts, N, N)``.
    b:
        Right-hand side ``(N, m)`` shared by every system.
    adjoint:
        Solve with the conjugate transposes instead.

    One batched LU (LAPACK ``gesv`` over the stack) per call.

    Raises
    ------
    SingularPencilError
        If any system of the stack is exactly singular — the same
        contract as :class:`SparseLUSolver`, which the energy scan's
        nudged-energy retry relies on.
    """
    a = p_stack.conj().transpose(0, 2, 1) if adjoint else p_stack
    rhs = np.broadcast_to(b, (a.shape[0],) + b.shape)
    try:
        return np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularPencilError(
            f"dense batched LU factorization failed: {exc}"
        ) from exc


def rcm_ordering(matrix) -> np.ndarray:
    """Fill-reducing column ordering from the sparsity pattern alone.

    Reverse Cuthill-McKee on the structurally symmetrized pattern of
    ``P(z)``.  The pattern of the CBS pencil is identical at every shift
    ``z`` *and* every energy ``E`` (only the values change), so this —
    the symbolic-analysis half of the factorization — can be computed
    once per scan and reused by every :class:`SparseLUSolver` via the
    ``ordering`` argument, instead of re-running SuperLU's COLAMD on
    every (energy, shift) pair.
    """
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    if not sp.issparse(matrix):
        matrix = sp.csr_matrix(np.asarray(matrix))
    pattern = (matrix != 0)
    sym = (pattern + pattern.T).tocsr()
    return np.asarray(
        reverse_cuthill_mckee(sym, symmetric_mode=True), dtype=np.intp
    )


class SparseLUSolver:
    """LU-factorize a (sparse) matrix once, then solve primal/dual systems.

    Parameters
    ----------
    matrix:
        The assembled ``P(z)`` (sparse or dense; dense is converted).
    ordering:
        Optional precomputed column permutation (see
        :func:`rcm_ordering`).  The matrix is factorized as
        ``A[:, ordering]`` with SuperLU's column analysis disabled
        (``permc_spec="NATURAL"``), which amortizes the symbolic
        analysis across the many factorizations of an energy scan.

    Raises
    ------
    SingularPencilError
        If the factorization encounters an exactly singular pencil —
        the energy scan catches this and retries with a nudged energy.
    """

    def __init__(self, matrix, ordering: np.ndarray | None = None) -> None:
        if not sp.issparse(matrix):
            matrix = sp.csc_matrix(np.asarray(matrix, dtype=np.complex128))
        self._n = matrix.shape[0]
        self._ordering = None
        matrix = matrix.tocsc().astype(np.complex128)
        permc_spec = None
        if ordering is not None:
            ordering = np.asarray(ordering, dtype=np.intp)
            if ordering.shape != (self._n,):
                raise ValueError(
                    f"ordering must have shape {(self._n,)}, "
                    f"got {ordering.shape}"
                )
            self._ordering = ordering
            matrix = matrix[:, ordering].tocsc()
            permc_spec = "NATURAL"
        try:
            self._lu = spla.splu(matrix, permc_spec=permc_spec)
        except RuntimeError as exc:  # SuperLU signals singularity this way
            raise SingularPencilError(
                f"sparse LU factorization failed: {exc}"
            ) from exc

    @property
    def n(self) -> int:
        return self._n

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``P(z) y = b`` (b may be a block of columns)."""
        w = self._lu.solve(np.asarray(b, dtype=np.complex128))
        if self._ordering is None:
            return w
        # Factorized A[:, q]: A x = b  ⇔  (A[:, q]) w = b with x[q] = w.
        x = np.empty_like(w)
        x[self._ordering] = w
        return x

    def solve_adjoint(self, b: np.ndarray) -> np.ndarray:
        """Solve ``P(z)^† y = b`` from the same factorization."""
        b = np.asarray(b, dtype=np.complex128)
        if self._ordering is None:
            return self._lu.solve(b, trans="H")
        # (A[:, q])^H y = b[q]  ⇔  A^H y = b (row-permuted equations).
        return self._lu.solve(b[self._ordering], trans="H")

    def memory_report(self) -> MemoryReport:
        """Approximate factor storage (L and U nonzeros)."""
        rep = MemoryReport()
        # SuperLU does not expose its factors cheaply; estimate from nnz.
        nnz = self._lu.nnz if hasattr(self._lu, "nnz") else 0
        rep.add("LU factors (est.)", int(nnz) * 16 + int(nnz) * 4)
        return rep
