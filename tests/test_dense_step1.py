"""The two factorization layouts of the ``"direct"`` Step-1 strategy.

Below :data:`repro.solvers.direct.DENSE_STACK_MAX_N` every quadrature
point of an energy is solved on one dense ``(n_pts, N, N)`` stack with a
batched LU; above it each point gets its own SuperLU factorization.
Both layouts must produce the same moments (to rounding) and the same
error contract: an exactly singular ``P(z)`` raises
:class:`SingularPencilError`, which the energy scan answers with a
nudged-energy retry.
"""

import numpy as np
import pytest
import scipy.sparse as sp

import repro.ss.solver as solver_mod
from repro.cbs.scan import CBSCalculator
from repro.errors import SingularPencilError
from repro.models.chain import MonatomicChain
from repro.models.ladder import TransverseLadder
from repro.models.random_blocks import random_bulk_triple
from repro.models.slab import SquareLatticeSlab
from repro.qep.blocks import BlockTriple
from repro.solvers.direct import DENSE_STACK_MAX_N, solve_dense_stack
from repro.ss.moments import MomentAccumulator
from repro.ss.solver import SSConfig, SSHankelSolver
from repro.utils.rng import complex_gaussian, default_rng

from tests.conftest import match_error

PARITY_RTOL = 1e-12

#: (name, blocks factory, energy): N on both sides of the crossover.
SYSTEMS = [
    ("chain", lambda: MonatomicChain(hopping=-1.0).blocks(), 0.7),
    ("ladder-4", lambda: TransverseLadder(width=4).blocks(), -0.5),
    ("ladder-96", lambda: TransverseLadder(width=96).blocks(), -0.5),
    ("slab-8", lambda: SquareLatticeSlab(width=8).blocks(), 0.3),
    ("slab-80", lambda: SquareLatticeSlab(width=80).blocks(), 0.3),
    ("random-12", lambda: random_bulk_triple(
        12, coupling_scale=0.3, sparse=True, seed=5), 0.1),
    ("random-72", lambda: random_bulk_triple(
        72, density=0.1, coupling_scale=0.3, sparse=True, seed=5), 0.1),
]


def _moments(blocks, energy, layout_max_n, monkeypatch):
    """Steps 1-2 with the dense layout forced on (``layout_max_n`` huge)
    or off (``0``)."""
    monkeypatch.setattr(solver_mod, "DENSE_STACK_MAX_N", layout_max_n)
    cfg = SSConfig(n_int=16, n_mm=3, n_rh=4, seed=11, linear_solver="direct")
    solver = SSHankelSolver(blocks, cfg)
    _, _, acc, stats, _, kind = solver.compute_moments(energy)
    assert kind == "direct"
    return acc, stats, solver


def _rel(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


@pytest.mark.parametrize("dual", [True, False], ids=["dual", "complex-E"])
@pytest.mark.parametrize("name,make,energy", SYSTEMS,
                         ids=[s[0] for s in SYSTEMS])
def test_dense_stack_matches_superlu(name, make, energy, dual, monkeypatch):
    blocks = make()
    e = energy if dual else energy + 1e-3j
    dense, dstats, _ = _moments(blocks, e, 10**9, monkeypatch)
    lu, lstats, _ = _moments(blocks, e, 0, monkeypatch)
    assert _rel(dense.mu, lu.mu) <= PARITY_RTOL
    assert _rel(dense.s, lu.s) <= PARITY_RTOL
    # Both layouts report one PointStats per solved (outer) shift.
    assert [p.z for p in dstats] == [p.z for p in lstats]
    assert dense.points_added == lu.points_added == 32


@pytest.mark.parametrize("name,make,energy",
                         [s for s in SYSTEMS if s[0] != "chain"],
                         ids=[s[0] for s in SYSTEMS if s[0] != "chain"])
def test_dense_stack_eigenvalues_match_superlu(name, make, energy,
                                               monkeypatch):
    blocks = make()
    cfg = SSConfig(n_int=16, n_mm=3, n_rh=4, seed=11, linear_solver="direct")
    monkeypatch.setattr(solver_mod, "DENSE_STACK_MAX_N", 10**9)
    dense = SSHankelSolver(blocks, cfg).solve(energy)
    monkeypatch.setattr(solver_mod, "DENSE_STACK_MAX_N", 0)
    lu = SSHankelSolver(blocks, cfg).solve(energy)
    assert dense.count == lu.count
    if lu.count:
        scale = float(np.max(np.abs(lu.eigenvalues)))
        assert match_error(dense.eigenvalues, lu.eigenvalues) <= (
            PARITY_RTOL * scale
        )


def test_layout_follows_the_crossover(monkeypatch):
    """The default constant picks dense at or below it, SuperLU above."""
    calls = []

    def counting(p_stack, b, adjoint=False):
        calls.append(p_stack.shape[1])
        return solve_dense_stack(p_stack, b, adjoint)

    monkeypatch.setattr(solver_mod, "solve_dense_stack", counting)
    cfg = SSConfig(n_int=8, n_mm=2, n_rh=2, seed=1, linear_solver="direct")
    SSHankelSolver(TransverseLadder(width=DENSE_STACK_MAX_N).blocks(),
                   cfg).solve(-0.5)
    assert calls == [DENSE_STACK_MAX_N, DENSE_STACK_MAX_N]  # primal + dual
    calls.clear()
    SSHankelSolver(TransverseLadder(width=DENSE_STACK_MAX_N + 1).blocks(),
                   cfg).solve(-0.5)
    assert calls == []


# -- error contract ------------------------------------------------------------


def _decoupled_layer() -> BlockTriple:
    """Cells that do not couple (H± = 0): ``P(z) = E - H0`` for every
    ``z``, exactly singular at each eigenvalue ±1 of ``H0``."""
    zero = sp.csr_matrix((2, 2), dtype=np.complex128)
    h0 = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    return BlockTriple(zero, h0, zero, cell_length=1.0)


@pytest.mark.parametrize("layout_max_n", [10**9, 0], ids=["dense", "superlu"])
def test_exactly_singular_pencil_raises(layout_max_n, monkeypatch):
    monkeypatch.setattr(solver_mod, "DENSE_STACK_MAX_N", layout_max_n)
    for dual in (True, False):
        cfg = SSConfig(n_int=8, n_mm=2, n_rh=2, seed=1,
                       linear_solver="direct", use_dual_trick=dual)
        with pytest.raises(SingularPencilError):
            SSHankelSolver(_decoupled_layer(), cfg).solve(1.0)


def test_singular_dense_stack_surfaces_as_singular_pencil_error():
    stack = np.stack([np.eye(3, dtype=complex), np.zeros((3, 3), complex)])
    b = np.ones((3, 1), dtype=complex)
    with pytest.raises(SingularPencilError):
        solve_dense_stack(stack, b)
    with pytest.raises(SingularPencilError):
        solve_dense_stack(stack, b, adjoint=True)


def test_scan_retries_singular_energy_on_dense_path():
    """The scan's nudged-energy retry catches the dense-layout error."""
    cfg = SSConfig(n_int=8, n_mm=2, n_rh=2, seed=1, linear_solver="direct")
    calc = CBSCalculator(_decoupled_layer(), cfg)
    sl = calc.solve_energy(1.0)
    assert sl.count == 0  # decoupled cells carry no ring eigenvalues


# -- stacked moment fold --------------------------------------------------------


def test_add_stack_matches_streaming_fold():
    rng = default_rng(3)
    v = complex_gaussian(rng, (7, 3))
    zs = 1.7 * np.exp(1j * np.linspace(0.1, 6.0, 9))
    ws = complex_gaussian(rng, 9)
    signs = np.where(np.arange(9) % 2 == 0, 1.0, -1.0)
    ys = complex_gaussian(rng, (9, 7, 3))
    stream = MomentAccumulator(v, n_mm=3)
    for z, w, y, s in zip(zs, ws, ys, signs):
        stream.add(z, w, y, s)
    stacked = MomentAccumulator(v, n_mm=3)
    stacked.add_stack(zs, ws, ys, signs)
    assert stacked.points_added == stream.points_added == 9
    assert _rel(stacked.mu, stream.mu) <= PARITY_RTOL
    assert _rel(stacked.s, stream.s) <= PARITY_RTOL
    assert stacked.gross_scale == pytest.approx(stream.gross_scale, rel=1e-14)


def test_one_point_stack_is_the_streaming_fold_bitwise():
    """``add`` is the one-point case of ``add_stack``; that case must be
    bit-for-bit the scalar streaming loop below (the pinned BiCG
    eigenvalues in tests/test_backends.py depend on it)."""
    rng = default_rng(4)
    v = complex_gaussian(rng, (5, 2))
    y = complex_gaussian(rng, (5, 2))
    z, w, sign = 1.9 * np.exp(0.7j), 0.03 - 0.01j, -1.0
    acc = MomentAccumulator(v, n_mm=3)
    acc.add(z, w, y, sign)
    coeff = sign * complex(w)
    vhy = v.conj().T @ y
    zk = 1.0 + 0.0j
    for k in range(6):
        c = coeff * zk
        np.testing.assert_array_equal(acc.mu[k], c * vhy)
        if k < 3:
            np.testing.assert_array_equal(acc.s[k], c * y)
        zk *= z
