"""The batched Step-1 engine against independent references.

SS solves on the ``"bicg-batched"`` path are checked against the dense
linearization (:class:`DenseQEPBaseline`), analytic spectra and the
``"direct"`` LU path.  At engine level, :func:`run_batched_bicg` is
checked system by system against one :class:`BiCGStepper` per system,
all stepped one round at a time with one shared quorum controller: same
iterations, same stop reasons, same quorum round.
"""

import numpy as np
import pytest

from repro.baselines.dense_qep import DenseQEPBaseline
from repro.models.chain import MonatomicChain
from repro.models.ladder import TransverseLadder
from repro.models.random_blocks import commuting_bulk_triple, random_bulk_triple
from repro.qep.pencil import QuadraticPencil
from repro.solvers.batched import BatchedBiCG, Step1WarmStart, run_batched_bicg
from repro.solvers.bicg import BiCGStepper, bicg_dual
from repro.solvers.stopping import QuorumController, ResidualRule, StopReason
from repro.ss.solver import SSConfig, SSHankelSolver
from repro.utils.rng import complex_gaussian, default_rng

from tests.conftest import match_error
from tests.test_ss_solver import ladder_reference


def _batched(blocks, energy, **cfg_kwargs):
    return SSHankelSolver(
        blocks, SSConfig(linear_solver="bicg-batched", **cfg_kwargs)
    ).solve(energy)


def _assert_same_set(res, expected, tol=1e-8):
    """Same accepted count, and every eigenvalue matched both ways."""
    assert res.count == len(expected) > 0
    assert match_error(res.eigenvalues, expected) < tol
    assert match_error(expected, res.eigenvalues) < tol


def _stepper_rounds(steppers, rule, quorum, maxiter):
    """Reference for :func:`run_batched_bicg`: one :class:`BiCGStepper`
    per system, all stepped one round at a time.  Within a round each
    system steps and reports its convergence to ``quorum``; after the
    round the stragglers stop once the quorum fires.  Returns that
    round (``None`` if it never fired)."""
    active = dict(steppers)
    fired = None
    for rnd in range(1, maxiter + 1):
        if not active:
            break
        for key, st in list(active.items()):
            st.step()
            if st.done:  # breakdown (or born converged)
                del active[key]
            elif st.meets(rule):
                st.stop(StopReason.CONVERGED)
                if quorum is not None:
                    quorum.mark_converged(key)
                del active[key]
        if quorum is not None and active and quorum.should_stop():
            for st in active.values():
                st.stop(StopReason.QUORUM)
            active.clear()
            fired = rnd
    for st in active.values():
        st.stop(StopReason.MAXITER)
    return fired


def test_auto_prefers_batched_above_threshold():
    lad = TransverseLadder(width=4)
    cfg = SSConfig(n_int=8, n_mm=2, n_rh=2, seed=1, direct_threshold=2)
    solver = SSHankelSolver(lad.blocks(), cfg)
    assert solver._pick_solver() == "bicg-batched"
    cfg = SSConfig(n_int=8, n_mm=2, n_rh=2, seed=1, direct_threshold=100)
    assert SSHankelSolver(lad.blocks(), cfg)._pick_solver() == "direct"


# -- SS solves against independent references ----------------------------------


@pytest.mark.parametrize("energy", [-0.5, 0.7])
def test_chain_parity(energy):
    chain = MonatomicChain(hopping=-1.0)
    bat = _batched(chain.blocks(), energy,
                   n_int=16, n_mm=2, n_rh=2, seed=5, bicg_tol=1e-12)
    _assert_same_set(bat, DenseQEPBaseline(chain.blocks()).solve(energy)
                     .eigenvalues)
    assert match_error(bat.eigenvalues, chain.analytic_lambdas(energy)) < 1e-8


@pytest.mark.parametrize("energy", [-1.2, -0.5, 0.8])
def test_ladder_parity(energy):
    lad = TransverseLadder(width=4)
    bat = _batched(lad.blocks(), energy,
                   n_int=16, n_mm=4, n_rh=4, seed=3, bicg_tol=1e-12)
    _assert_same_set(bat, ladder_reference(lad, energy))


def test_random_blocks_parity():
    blocks, analytic = commuting_bulk_triple(10, seed=8)
    bat = _batched(blocks, 0.1,
                   n_int=32, n_mm=6, n_rh=6, seed=9, bicg_tol=1e-12)
    exact = analytic(0.1)
    inside = exact[(np.abs(exact) > 0.5) & (np.abs(exact) < 2.0)]
    _assert_same_set(bat, inside, tol=1e-6)


def test_random_sparse_straddling_parity():
    """A contour-straddling triple: the residual filter must reject the
    unconverged pairs the way it does for the LU Step 1, not just agree
    when healthy."""
    blocks = random_bulk_triple(30, coupling_scale=0.6, seed=10, sparse=True)
    common = dict(n_int=8, n_mm=4, n_rh=4, seed=3, bicg_tol=1e-12)
    bat = _batched(blocks, 0.05, **common)
    direct = SSHankelSolver(
        blocks, SSConfig(linear_solver="direct", **common)
    ).solve(0.05)
    assert bat.count == direct.count
    if direct.count:
        assert match_error(bat.eigenvalues, direct.eigenvalues) < 1e-6


# -- option matrix: quorum × jacobi -------------------------------------------


@pytest.mark.parametrize("quorum", [None, 0.5])
@pytest.mark.parametrize("jacobi", [False, True])
def test_quorum_jacobi_matrix(quorum, jacobi):
    lad = TransverseLadder(width=4)
    bat = _batched(lad.blocks(), -0.5,
                   n_int=12, n_mm=4, n_rh=4, seed=3, bicg_tol=1e-12,
                   quorum_fraction=quorum, jacobi=jacobi)
    _assert_same_set(bat, ladder_reference(lad, -0.5))


def test_no_dual_trick_parity():
    lad = TransverseLadder(width=4)
    bat = _batched(lad.blocks(), -0.5,
                   n_int=12, n_mm=4, n_rh=4, seed=3, bicg_tol=1e-12,
                   use_dual_trick=False)
    _assert_same_set(bat, ladder_reference(lad, -0.5))


def test_histories_match_lockstep():
    """Per-system residual histories of an SS solve equal those of one
    :class:`BiCGStepper` per (shift, RHS) system stepped in rounds."""
    lad = TransverseLadder(width=4)
    cfg = SSConfig(n_int=8, n_mm=4, n_rh=2, seed=3, record_history=True,
                   linear_solver="bicg-batched")
    res = SSHankelSolver(lad.blocks(), cfg).solve(-0.5)
    pencil = QuadraticPencil(lad.blocks(), -0.5)
    v = complex_gaussian(default_rng(cfg.seed), (pencil.n, cfg.n_rh))
    zs = [po.z for po, _ in cfg.make_contour().dual_pairs()]
    steppers = {
        (i, c): BiCGStepper(lambda x, z=z: pencil.apply(z, x),
                            lambda x, z=z: pencil.apply_adjoint(z, x),
                            v[:, c], v[:, c])
        for i, z in enumerate(zs) for c in range(cfg.n_rh)
    }
    _stepper_rounds(steppers, ResidualRule(cfg.bicg_tol),
                    QuorumController(len(steppers), cfg.quorum_fraction),
                    maxiter=100)
    assert [p.z for p in res.point_stats] == zs
    for i, p in enumerate(res.point_stats):
        refs = [steppers[i, c] for c in range(cfg.n_rh)]
        assert p.iterations == sum(st.iterations for st in refs)
        assert len(p.histories) == len(refs)
        for h, st in zip(p.histories, refs):
            assert len(h) == len(st.history)
            assert np.allclose(h, st.history, rtol=1e-6, atol=1e-12)


def test_threaded_shards_with_quorum_keep_results():
    """Regression: sharded execution with the quorum rule ON must not
    let a fast-scheduled shard's convergence kill barely-started shards
    (quorum is per-shard when time-sliced).  Results must match serial."""
    lad = TransverseLadder(width=4)
    base = dict(n_int=12, n_mm=4, n_rh=4, seed=3, bicg_tol=1e-12,
                quorum_fraction=0.5, linear_solver="bicg-batched")
    serial = SSHankelSolver(lad.blocks(), SSConfig(**base)).solve(-0.5)
    sharded = SSHankelSolver(lad.blocks(), SSConfig(executor=4, **base)).solve(-0.5)
    assert serial.count == 8
    assert sharded.count == serial.count
    assert match_error(sharded.eigenvalues, serial.eigenvalues) < 1e-8


def test_threaded_shards_match_serial():
    blocks = random_bulk_triple(24, coupling_scale=0.4, seed=4, sparse=True)
    base = dict(n_int=12, n_mm=4, n_rh=4, seed=3, bicg_tol=1e-11,
                quorum_fraction=None, linear_solver="bicg-batched")
    serial = SSHankelSolver(blocks, SSConfig(**base)).solve(0.1)
    sharded = SSHankelSolver(blocks, SSConfig(executor=4, **base)).solve(0.1)
    assert sharded.count == serial.count
    assert sharded.total_iterations() == serial.total_iterations()
    if serial.count:
        assert match_error(sharded.eigenvalues, serial.eigenvalues) < 1e-8


# -- engine-level unit tests ---------------------------------------------------


def _random_stack_problem(seed, s=3, n=12, m=2):
    rng = np.random.default_rng(seed)
    mats = rng.standard_normal((s, n, n)) + 1j * rng.standard_normal((s, n, n))
    mats += 3.0 * np.eye(n)[None]  # keep them comfortably nonsingular
    b = rng.standard_normal((s, n, m)) + 1j * rng.standard_normal((s, n, m))

    def apply_batch(x):
        return np.einsum("sij,sjm->sim", mats, x)

    def apply_adjoint_batch(x):
        return np.einsum("sji,sjm->sim", mats.conj(), x)

    return mats, b, apply_batch, apply_adjoint_batch


def test_engine_matches_per_system_bicg():
    """run_batched_bicg == one bicg_dual per system, iteration for
    iteration, on generic dense systems (no quorum)."""
    mats, b, ab, ahb = _random_stack_problem(0)
    rule = ResidualRule(1e-10)
    eng = run_batched_bicg(ab, ahb, b, b, rule=rule, maxiter=200)
    s, n, m = b.shape
    for i in range(s):
        for c in range(m):
            ref = bicg_dual(mats[i], mats[i].conj().T, b[i, :, c], b[i, :, c],
                            rule=ResidualRule(1e-10, 200))
            assert eng.iterations[i, c] == ref.iterations
            assert eng.reason(i, c) == ref.reason
            np.testing.assert_allclose(eng.solution()[i, :, c], ref.x,
                                       rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(eng.solution_dual()[i, :, c],
                                       ref.x_dual, rtol=1e-8, atol=1e-10)



def _quorum_problem(kind):
    """``(b, apply_batch, apply_adjoint_batch, per_system)`` where
    ``per_system(i)`` gives system ``i``'s own ``(A, A^†)`` matvecs."""
    if kind == "random":
        mats, b, ab, ahb = _random_stack_problem(5)
        return b, ab, ahb, lambda i: (mats[i], mats[i].conj().T)
    # Each RHS column lies in the span of k eigenvectors of the (normal,
    # commuting) pencil, so BiCG converges sharply at round k: 4 and 8
    # for the first two columns, so the quorum fires at round 8 and
    # stops the third column (all 40 modes) far from converged.
    blocks, _ = commuting_bulk_triple(40, mu_range=(-20, 20), seed=3)
    pencil = QuadraticPencil(blocks, 0.0)
    zs = np.array([po.z for po, _ in
                   SSConfig(n_int=8).make_contour().dual_pairs()])
    modes = np.linalg.eigh(blocks.h0)[1]
    rng = np.random.default_rng(3)
    v = np.stack([
        modes[:, :k] @ (rng.standard_normal(k) + 1j * rng.standard_normal(k))
        for k in (4, 8, 40)
    ], axis=1)
    b = np.repeat(v[None], zs.size, axis=0)
    return (
        b,
        lambda x: pencil.apply_batch(zs, x),
        lambda x: pencil.apply_adjoint_batch(zs, x),
        lambda i: (lambda x: pencil.apply(zs[i], x),
                   lambda x: pencil.apply_adjoint(zs[i], x)),
    )


@pytest.mark.parametrize("kind", ["random", "commuting"])
def test_engine_quorum_matches_stepper_rounds(kind):
    """The quorum rule: the engine stops the same systems, after the
    same iterations and for the same reasons, as per-system steppers
    advanced round by round with one shared controller."""
    b, ab, ahb, per_system = _quorum_problem(kind)
    s, _, m = b.shape
    rule = ResidualRule(1e-10)
    eng = run_batched_bicg(ab, ahb, b, b, rule=rule, maxiter=400,
                           quorum=QuorumController(s * m, 0.5))
    steppers = {
        (i, c): BiCGStepper(*per_system(i), b[i, :, c], b[i, :, c])
        for i in range(s) for c in range(m)
    }
    fired = _stepper_rounds(steppers, rule, QuorumController(s * m, 0.5),
                            maxiter=400)
    for (i, c), st in steppers.items():
        assert eng.iterations[i, c] == st.iterations
        assert eng.reason(i, c) == st.reason
        if st.reason is StopReason.QUORUM:
            assert st.iterations == fired
    if kind == "commuting":
        assert fired == 8
        assert [eng.reason(i, 2) for i in range(s)] == [StopReason.QUORUM] * s


def test_engine_zero_rhs_column_is_born_converged():
    mats, b, ab, ahb = _random_stack_problem(1)
    b[1, :, 0] = 0.0
    eng = run_batched_bicg(ab, ahb, b, maxiter=100)
    assert eng.reason(1, 0) == StopReason.CONVERGED
    assert eng.iterations[1, 0] == 0
    assert np.all(eng.solution()[1, :, 0] == 0.0)
    # other systems still solved
    assert eng.reason(0, 0) == StopReason.CONVERGED
    assert eng.iterations[0, 0] > 0


def test_engine_warm_start_reduces_iterations():
    mats, b, ab, ahb = _random_stack_problem(2, s=2, n=40, m=2)
    rule = ResidualRule(1e-10)
    cold = run_batched_bicg(ab, ahb, b, b, rule=rule, maxiter=500)
    exact = np.stack([np.linalg.solve(mats[i], b[i]) for i in range(2)])
    exact_d = np.stack(
        [np.linalg.solve(mats[i].conj().T, b[i]) for i in range(2)]
    )
    warm = Step1WarmStart(exact + 1e-8 * b, exact_d + 1e-8 * b)
    hot = run_batched_bicg(ab, ahb, b, b, rule=rule, maxiter=500, warm=warm)
    assert int(hot.iterations.sum()) < int(cold.iterations.sum())
    np.testing.assert_allclose(hot.solution(), exact, rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(hot.solution_dual(), exact_d,
                               rtol=1e-6, atol=1e-8)


def test_engine_stale_warm_start_ignored():
    mats, b, ab, ahb = _random_stack_problem(3)
    stale = Step1WarmStart(np.zeros((5, 4, 3), dtype=np.complex128))
    assert not stale.matches(b.shape)
    eng = run_batched_bicg(ab, ahb, b, warm=stale, maxiter=100)
    assert eng.reason(0, 0) == StopReason.CONVERGED


def test_engine_rejects_bad_shapes():
    mats, b, ab, ahb = _random_stack_problem(4)
    with pytest.raises(ValueError):
        BatchedBiCG(ab, ahb, b[0])  # 2-D, not a stack
    with pytest.raises(ValueError):
        BatchedBiCG(ab, ahb, b, precond=np.ones((2, 2)))
    with pytest.raises(ValueError):
        BatchedBiCG(ab, ahb, b, precond=np.zeros(b.shape[:2]))


# -- batched pencil application ------------------------------------------------


def test_apply_batch_matches_per_shift():
    blocks = random_bulk_triple(15, seed=6, sparse=True)
    pencil = QuadraticPencil(blocks, energy=0.3)
    rng = np.random.default_rng(0)
    zs = 0.7 * np.exp(1j * rng.uniform(0, 2 * np.pi, size=5))
    x = rng.standard_normal((5, 15, 3)) + 1j * rng.standard_normal((5, 15, 3))
    out = pencil.apply_batch(zs, x)
    out_h = pencil.apply_adjoint_batch(zs, x)
    for i, z in enumerate(zs):
        np.testing.assert_allclose(out[i], pencil.apply(z, x[i]), rtol=1e-12)
        np.testing.assert_allclose(
            out_h[i], pencil.apply_adjoint(z, x[i]), rtol=1e-12
        )


def test_apply_batch_complex_energy_adjoint():
    """Complex energy disables the dual identity; the explicit adjoint
    branch must still match the per-shift adjoint."""
    blocks = random_bulk_triple(8, seed=7)
    pencil = QuadraticPencil(blocks, energy=0.3 + 0.05j)
    assert not pencil.is_dual_symmetric
    rng = np.random.default_rng(1)
    zs = np.array([0.8 + 0.1j, 1.5 - 0.4j])
    x = rng.standard_normal((2, 8, 2)) + 1j * rng.standard_normal((2, 8, 2))
    out_h = pencil.apply_adjoint_batch(zs, x)
    for i, z in enumerate(zs):
        np.testing.assert_allclose(
            out_h[i], pencil.apply_adjoint(z, x[i]), rtol=1e-12
        )


def test_apply_batch_rejects_zero_shift():
    blocks = random_bulk_triple(5, seed=2)
    pencil = QuadraticPencil(blocks, energy=0.0)
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        pencil.apply_batch(np.array([1.0, 0.0]), np.zeros((2, 5, 1), complex))
    with pytest.raises(ConfigurationError):
        pencil.apply_batch(np.array([1.0]), np.zeros((2, 5, 1), complex))
