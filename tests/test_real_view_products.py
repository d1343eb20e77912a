"""Real-arithmetic block products for real sparse Hamiltonians.

A Γ-point real-space triple is real ``float64`` CSR.  The solvers keep
it real and multiply each block by the ``float64`` view of the complex
iterate stack (:func:`repro.qep.pencil._block_products`).  The contract
under test: every application, every full solve and every iteration
count is **bit-equal** (``np.array_equal``) to the same computation on
the triple's ``as_complex()`` twin; only real sparse blocks take the
real view; the memory report counts the stored triple.
"""

import numpy as np
import pytest

from repro.api import resolve_system
from repro.models import TransverseLadder
from repro.models.random_blocks import random_bulk_triple
from repro.qep import pencil as pencil_mod
from repro.qep.pencil import QuadraticPencil, _real_view_applies
from repro.ss.solver import SSConfig, SSHankelSolver

REAL = random_bulk_triple(40, density=0.2, complex_valued=False,
                          sparse=True, seed=5)
TWIN = REAL.as_complex()
N = REAL.n
SHIFTS = np.array([1.3 * np.exp(2j * np.pi * t / 6) for t in range(6)])


def _stack(shape, seed=3):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_fixture_is_a_real_sparse_triple():
    assert _real_view_applies(REAL)
    assert not _real_view_applies(TWIN)


@pytest.mark.parametrize("energy", [0.35, 0.35 + 0.05j],
                         ids=["dual-symmetric", "non-dual"])
def test_batched_appliers_bit_equal(energy):
    x = _stack((len(SHIFTS), N, 4))
    real, twin = QuadraticPencil(REAL, energy), QuadraticPencil(TWIN, energy)
    assert real.is_dual_symmetric == (np.imag(energy) == 0)
    assert np.array_equal(real.apply_batch(SHIFTS, x),
                          twin.apply_batch(SHIFTS, x))
    assert np.array_equal(real.apply_adjoint_batch(SHIFTS, x),
                          twin.apply_adjoint_batch(SHIFTS, x))


def test_non_contiguous_stack_bit_equal():
    x = _stack((len(SHIFTS), N, 8))[:, :, ::2]
    assert not x.flags.c_contiguous
    real, twin = QuadraticPencil(REAL, 0.2), QuadraticPencil(TWIN, 0.2)
    assert np.array_equal(real.apply_batch(SHIFTS, x),
                          twin.apply_batch(SHIFTS, x))


@pytest.mark.parametrize("energy", [-0.4, -0.4 + 0.02j])
def test_apply_vector_and_block_bit_equal(energy):
    real, twin = QuadraticPencil(REAL, energy), QuadraticPencil(TWIN, energy)
    z = SHIFTS[1]
    block = _stack((N, 3))
    for x in (block, block[:, 1], block[:, ::2], block.real):
        out = real.apply(z, x)
        assert out.shape == x.shape and out.dtype == np.complex128
        assert np.array_equal(out, twin.apply(z, x))
        assert np.array_equal(real.apply_adjoint(z, x),
                              twin.apply_adjoint(z, x))


# ----------------------------------------------------------------------
# Batched Step-3 residuals
# ----------------------------------------------------------------------


@pytest.mark.parametrize("blocks", [REAL, TWIN], ids=["real", "complex"])
def test_residuals_equal_one_at_a_time_loop(blocks):
    pencil = QuadraticPencil(blocks, 0.1)
    lams = SHIFTS[:5]
    psis = _stack((N, 5))
    loop = [pencil.residual(lam, psis[:, i]) for i, lam in enumerate(lams)]
    assert np.array_equal(pencil.residuals(lams, psis), np.array(loop))


def test_residuals_zero_column_and_zero_lambda():
    pencil = QuadraticPencil(REAL, 0.1)
    psis = _stack((N, 3))
    psis[:, 1] = 0.0
    lams = np.array([1.1, 0.0, 0.9j])
    res = pencil.residuals(lams, psis)
    assert res[1] == np.inf and np.all(np.isfinite(res[[0, 2]]))
    with pytest.raises(Exception, match="undefined at z = 0"):
        pencil.residuals(np.array([1.1, 0.0]), psis[:, [0, 2]])
    assert pencil.residuals(np.array([]), psis[:, :0]).shape == (0,)


# ----------------------------------------------------------------------
# Full solves: eigenvalues, residuals and BiCG iteration counts
# ----------------------------------------------------------------------


def _solve_pair(blocks, energy, **cfg):
    config = SSConfig(n_int=16, n_mm=4, n_rh=4, seed=3, **cfg)
    real = SSHankelSolver(blocks, config)
    twin = SSHankelSolver(blocks.as_complex(), config)
    assert real.blocks is blocks and twin.blocks.h0.dtype == np.complex128
    return real.solve(energy), twin.solve(energy)


# "bicg" is the legacy name of "bicg-batched": same engine, same bits.
@pytest.mark.parametrize("solver", ["bicg-batched", "bicg", "direct"])
@pytest.mark.parametrize(
    "name, blocks, energy",
    [
        ("al100", resolve_system("al100", {"spacing_angstrom": 0.9}), 0.2),
        ("ladder", TransverseLadder(width=6).blocks(), -0.5),
    ],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_solve_bit_equal(name, blocks, energy, solver):
    assert _real_view_applies(blocks)
    a, b = _solve_pair(blocks, energy, linear_solver=solver)
    assert a.count > 0
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.residuals, b.residuals)
    assert np.array_equal(a.raw_eigenvalues, b.raw_eigenvalues)
    assert [p.iterations for p in a.point_stats] == [
        p.iterations for p in b.point_stats
    ]
    assert (a.total_iterations() > 0) == solver.startswith("bicg")


def test_sparse_lu_solve_bit_equal(monkeypatch):
    """The per-point SuperLU layout assembles ``P(z)`` from the real
    blocks; the upcast happens per operation with the same bits."""
    from repro.ss import solver as solver_mod

    monkeypatch.setattr(solver_mod, "DENSE_STACK_MAX_N", 0)
    blocks = resolve_system("al100", {"spacing_angstrom": 0.9})
    a, b = _solve_pair(blocks, 0.2, linear_solver="direct")
    assert a.count > 0
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.residuals, b.residuals)


@pytest.mark.parametrize("solver", ["bicg-batched", "bicg"])
def test_step1_routing(monkeypatch, solver):
    """The batched engine's products take the real view, also under the
    legacy name ``"bicg"``."""
    seen = []
    routed = pencil_mod._real_view_applies

    def spy(blocks):
        seen.append(routed(blocks))
        return seen[-1]

    monkeypatch.setattr(pencil_mod, "_real_view_applies", spy)
    blocks = TransverseLadder(width=6).blocks()
    res = SSHankelSolver(blocks, SSConfig(n_int=16, n_mm=4, n_rh=4, seed=3,
                                          linear_solver=solver)).solve(-0.5)
    assert res.linear_solver == "bicg-batched"
    assert len(seen) > 10 and all(seen)


# ----------------------------------------------------------------------
# Routing: which triples take the real view
# ----------------------------------------------------------------------


def test_complex_and_dense_take_the_complex_path():
    twisted = resolve_system("al100", {"spacing_angstrom": 0.9, "k_par": 0.7})
    assert twisted.h0.dtype == np.complex128
    assert not _real_view_applies(twisted)
    dense = random_bulk_triple(8, complex_valued=False, seed=2)
    assert dense.h0.dtype == np.float64 and not _real_view_applies(dense)
    # The solver casts every triple that cannot take the real view.
    assert SSHankelSolver(dense).blocks.h0.dtype == np.complex128
    assert SSHankelSolver(twisted).blocks.h0.dtype == np.complex128


def test_real_csr_takes_the_real_path():
    ladder = TransverseLadder(width=4).blocks()
    assert ladder.h0.dtype == np.float64 and _real_view_applies(ladder)
    assert SSHankelSolver(ladder).blocks is ladder


# ----------------------------------------------------------------------
# Memory report
# ----------------------------------------------------------------------


def test_memory_report_counts_the_stored_triple():
    blocks = resolve_system("al100", {"spacing_angstrom": 0.9})
    a, b = _solve_pair(blocks, 0.2, linear_solver="bicg-batched")
    key = "Hamiltonian blocks (sparse)"
    assert a.memory.items[key] == blocks.nbytes
    assert b.memory.items[key] == blocks.as_complex().nbytes
    # float64 data instead of complex128: well under the complex bytes.
    assert a.memory.items[key] < 0.75 * b.memory.items[key]
    other = {k: v for k, v in a.memory.items.items() if k != key}
    assert other == {k: v for k, v in b.memory.items.items() if k != key}
