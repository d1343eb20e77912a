"""BiCG: primal solves, the dual-system trick, quorum, preconditioning."""

import numpy as np
import pytest

from repro.models.random_blocks import random_bulk_triple
from repro.qep.pencil import QuadraticPencil
from repro.solvers.bicg import BiCGStepper, bicg_dual
from repro.solvers.stopping import QuorumController, ResidualRule, StopReason
from repro.utils.rng import complex_gaussian, default_rng


@pytest.fixture()
def system():
    blocks = random_bulk_triple(24, coupling_scale=0.4, seed=21)
    pencil = QuadraticPencil(blocks, energy=0.25)
    z = 2.0 * np.exp(0.6j)
    a = pencil.assemble(z)
    rng = default_rng(22)
    b = complex_gaussian(rng, 24)
    return pencil, z, a, b


def test_solves_primal(system):
    pencil, z, a, b = system
    res = bicg_dual(
        lambda x: pencil.apply(z, x),
        lambda x: pencil.apply_adjoint(z, x),
        b, rule=ResidualRule(1e-12, maxiter=2000),
    )
    assert res.converged
    assert np.linalg.norm(a @ res.x - b) / np.linalg.norm(b) < 1e-10
    assert res.x_dual is None


def test_dual_solution_solves_adjoint_system(system):
    """The heart of the paper's §3.2: one run, two systems."""
    pencil, z, a, b = system
    res = bicg_dual(
        lambda x: pencil.apply(z, x),
        lambda x: pencil.apply_adjoint(z, x),
        b, b_dual=b, rule=ResidualRule(1e-12, maxiter=2000),
    )
    assert res.converged
    ah = a.conj().T
    assert np.linalg.norm(ah @ res.x_dual - b) / np.linalg.norm(b) < 1e-10
    # And the dual solution IS the inner-circle solution P(1/z̄)^{-1} b.
    z_in = 1.0 / np.conj(z)
    a_in = pencil.assemble(z_in)
    assert np.linalg.norm(a_in @ res.x_dual - b) / np.linalg.norm(b) < 1e-10


def test_dual_invariant_every_iteration(system):
    """r̃_k = b̃ - A† x̃_k must hold at every step, not just at the end."""
    pencil, z, a, b = system
    ah = a.conj().T
    st = BiCGStepper(
        lambda x: pencil.apply(z, x),
        lambda x: pencil.apply_adjoint(z, x),
        b, b_dual=b,
    )
    for _ in range(15):
        st.step()
        assert np.allclose(b - ah @ st.xd, st.rt, atol=1e-8 * np.linalg.norm(b))


def test_history_monotone_trend(system):
    pencil, z, a, b = system
    res = bicg_dual(
        lambda x: pencil.apply(z, x),
        lambda x: pencil.apply_adjoint(z, x),
        b, rule=ResidualRule(1e-10, maxiter=2000),
        record_history=True,
    )
    assert len(res.history) == res.iterations
    # Not strictly monotone (BiCG oscillates) but must end far below start.
    assert res.history[-1] < 1e-9


def test_jacobi_preconditioning_preserves_dual(system):
    pencil, z, a, b = system
    diag = pencil.diagonal(z)
    res = bicg_dual(
        lambda x: pencil.apply(z, x),
        lambda x: pencil.apply_adjoint(z, x),
        b, b_dual=b, precond=diag,
        rule=ResidualRule(1e-12, maxiter=3000),
    )
    assert res.converged
    assert np.linalg.norm(a @ res.x - b) / np.linalg.norm(b) < 1e-10
    assert (
        np.linalg.norm(a.conj().T @ res.x_dual - b) / np.linalg.norm(b) < 1e-10
    )


def test_zero_rhs():
    res = bicg_dual(lambda x: x, lambda x: x, np.zeros(5, complex))
    assert res.converged and res.iterations == 0
    assert np.all(res.x == 0)


def test_x0_initial_guess(system):
    pencil, z, a, b = system
    exact = np.linalg.solve(a.astype(complex), b)
    res = bicg_dual(
        lambda x: pencil.apply(z, x),
        lambda x: pencil.apply_adjoint(z, x),
        b, x0=exact, rule=ResidualRule(1e-10),
    )
    assert res.iterations == 0
    assert res.converged


def test_maxiter_respected(system):
    pencil, z, a, b = system
    res = bicg_dual(
        lambda x: pencil.apply(z, x),
        lambda x: pencil.apply_adjoint(z, x),
        b, rule=ResidualRule(1e-14, maxiter=3),
    )
    assert res.iterations <= 3
    assert res.reason in (StopReason.MAXITER, StopReason.CONVERGED)


def test_quorum_aborts_concurrent_solve(system):
    pencil, z, a, b = system
    quorum = QuorumController(total=2, fraction=0.5)
    quorum.mark_converged(0)
    quorum.mark_converged(1)  # 2/2 > 0.5 → stop signal active
    res = bicg_dual(
        lambda x: pencil.apply(z, x),
        lambda x: pencil.apply_adjoint(z, x),
        b, rule=ResidualRule(1e-14, maxiter=500), quorum=quorum,
    )
    assert res.reason == StopReason.QUORUM
    assert res.iterations == 1  # stopped at the first poll


def test_matrix_argument_accepted(system):
    _, z, a, b = system
    res = bicg_dual(a, a.conj().T, b, rule=ResidualRule(1e-10, maxiter=2000))
    assert res.converged
