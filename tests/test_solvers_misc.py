"""CG, direct LU, stopping rules, preconditioners."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import ConfigurationError, SingularPencilError
from repro.models.random_blocks import random_bulk_triple
from repro.qep.pencil import QuadraticPencil
from repro.solvers.cg import conjugate_gradient
from repro.solvers.direct import SparseLUSolver
from repro.solvers.preconditioners import jacobi_preconditioner
from repro.solvers.stopping import QuorumController, ResidualRule, StopReason
from repro.utils.rng import complex_gaussian, default_rng


# -- CG ----------------------------------------------------------------------

def test_cg_solves_spd():
    rng = default_rng(31)
    g = rng.standard_normal((20, 20))
    a = g @ g.T + 20 * np.eye(20)
    b = rng.standard_normal(20)
    res = conjugate_gradient(a, b, rule=ResidualRule(1e-12, maxiter=500))
    assert res.converged
    assert np.linalg.norm(a @ res.x - b) / np.linalg.norm(b) < 1e-10


def test_cg_hermitian_complex():
    rng = default_rng(32)
    g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    a = g @ g.conj().T + 16 * np.eye(16)
    b = complex_gaussian(rng, 16)
    res = conjugate_gradient(a, b, rule=ResidualRule(1e-12, maxiter=500))
    assert res.converged


def test_cg_zero_rhs():
    res = conjugate_gradient(np.eye(4), np.zeros(4))
    assert res.converged and res.iterations == 0


def test_cg_history():
    rng = default_rng(33)
    a = np.diag(rng.uniform(1, 3, 12))
    b = rng.standard_normal(12)
    res = conjugate_gradient(a, b, record_history=True,
                             rule=ResidualRule(1e-10, maxiter=100))
    assert len(res.history) == res.iterations


# -- direct ---------------------------------------------------------------------

def test_lu_primal_and_adjoint():
    blocks = random_bulk_triple(15, seed=34, sparse=True)
    pencil = QuadraticPencil(blocks, 0.2)
    z = 1.6 * np.exp(0.8j)
    a = pencil.assemble(z)
    lu = SparseLUSolver(a)
    rng = default_rng(35)
    b = complex_gaussian(rng, (15, 2))
    x = lu.solve(b)
    assert np.linalg.norm(a @ x - b) < 1e-10 * np.linalg.norm(b)
    xd = lu.solve_adjoint(b)
    assert np.linalg.norm(a.conj().T @ xd - b) < 1e-10 * np.linalg.norm(b)


def test_lu_adjoint_equals_dual_shift_solve():
    """LU path of the dual trick: adjoint solve == inner-circle solve."""
    blocks = random_bulk_triple(12, seed=36, sparse=True)
    pencil = QuadraticPencil(blocks, 0.1)
    z = 2.0 * np.exp(0.5j)
    lu = SparseLUSolver(pencil.assemble(z))
    rng = default_rng(37)
    b = complex_gaussian(rng, 12)
    xd = lu.solve_adjoint(b)
    a_in = pencil.assemble(1.0 / np.conj(z))
    assert np.linalg.norm(a_in @ xd - b) < 1e-9 * np.linalg.norm(b)


def test_lu_singular_raises():
    a = sp.csc_matrix((3, 3), dtype=np.complex128)  # zero matrix
    with pytest.raises(SingularPencilError):
        SparseLUSolver(a)


def test_lu_dense_input():
    a = np.diag([1.0, 2.0, 4.0])
    lu = SparseLUSolver(a)
    assert np.allclose(lu.solve(np.ones(3)), [1.0, 0.5, 0.25])
    assert lu.n == 3


# -- stopping rules --------------------------------------------------------------

def test_residual_rule_validation():
    with pytest.raises(ValueError):
        ResidualRule(tol=0.0)
    with pytest.raises(ValueError):
        ResidualRule(tol=1e-10, maxiter=0)
    rule = ResidualRule(1e-8)
    assert rule.satisfied(1e-9)
    assert not rule.satisfied(1e-7)


def test_quorum_thresholds():
    q = QuorumController(total=4, fraction=0.5)
    assert not q.should_stop()
    q.mark_converged(0)
    q.mark_converged(1)
    assert not q.should_stop()  # 2/4 is not MORE than half
    q.mark_converged(2)
    assert q.should_stop()
    assert q.converged_count == 3
    q.reset()
    assert not q.should_stop()


def test_quorum_idempotent_marks():
    q = QuorumController(total=2, fraction=0.5)
    q.mark_converged("a")
    q.mark_converged("a")
    assert q.converged_count == 1


def test_quorum_validation():
    with pytest.raises(ValueError):
        QuorumController(total=0)
    with pytest.raises(ValueError):
        QuorumController(total=2, fraction=1.0)


# -- preconditioner ----------------------------------------------------------------

def test_jacobi_matches_diagonal():
    blocks = random_bulk_triple(10, seed=38)
    pencil = QuadraticPencil(blocks, 0.3)
    z = 1.4 * np.exp(0.2j)
    d = jacobi_preconditioner(pencil, z)
    assert np.allclose(d, pencil.diagonal(z))


def test_jacobi_floors_small_entries():
    blocks = random_bulk_triple(6, seed=39)
    # Force one tiny diagonal entry via an energy shift trick: just check
    # the floor machinery directly on a pencil with a zeroed diagonal.
    pencil = QuadraticPencil(blocks, 0.0)
    z = 1.0 + 0.0j

    d_raw = pencil.diagonal(z)
    d = jacobi_preconditioner(pencil, z, floor=1.0)  # aggressive floor
    assert np.all(np.abs(d) >= np.abs(d_raw).max() * 0.999999 * 0 + 1.0 - 1e-12)


# -- strategy resolution -------------------------------------------------------

def test_resolve_strategy():
    from repro.ss.solver import STEP1_METHODS, resolve_strategy

    assert resolve_strategy("auto", 100, 6000) == "direct"
    assert resolve_strategy("auto", 6001, 6000) == "bicg-batched"
    assert resolve_strategy("bicg", 10**9) == "bicg-batched"
    assert resolve_strategy("direct", 10**9) == "direct"
    with pytest.raises(ConfigurationError, match="unknown Step-1 strategy"):
        resolve_strategy("nonsense", 100)
    assert STEP1_METHODS == ("direct", "bicg-batched")
