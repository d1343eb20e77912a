"""SSHankelSolver end-to-end: eigenpairs vs analytic/dense references."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.models.chain import DiatomicChain, MonatomicChain
from repro.models.ladder import TransverseLadder
from repro.models.random_blocks import commuting_bulk_triple, random_bulk_triple
from repro.qep.linearization import solve_qep_dense
from repro.ss.hankel import build_hankel_pair, extract_eigenpairs
from repro.ss.solver import SSConfig, SSHankelSolver
from repro.solvers.stopping import StopReason

from tests.conftest import match_error


def ladder_reference(lad: TransverseLadder, e: float):
    exact = lad.analytic_lambdas(e)
    mags = np.abs(exact)
    return exact[(mags > 0.5) & (mags < 2.0)]


# -- configuration -------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigurationError):
        SSConfig(n_int=1)
    with pytest.raises(ConfigurationError):
        SSConfig(lambda_min=1.2)
    with pytest.raises(ConfigurationError):
        SSConfig(delta=0.0)
    with pytest.raises(ConfigurationError):
        SSConfig(linear_solver="qr")
    with pytest.raises(ConfigurationError):
        SSConfig(quorum_fraction=1.5)
    assert SSConfig(n_rh=4, n_mm=8).subspace_capacity == 32


@pytest.mark.parametrize(
    "field,value",
    [
        ("n_int", 1),
        ("n_mm", 0),
        ("n_rh", 0),
        ("delta", 0.0),
        ("delta", 1.5),
        ("lambda_min", 0.0),
        ("lambda_min", 1.2),
        ("ring_radii", (2.0, 1.0)),
        ("ring_radii", "bad"),
        ("linear_solver", "qr"),
        ("direct_threshold", -1),
        ("bicg_tol", 0.0),
        ("bicg_tol", -1e-10),
        ("bicg_maxiter", 0),
        ("quorum_fraction", 0.0),
        ("quorum_fraction", 1.5),
        ("residual_tol", 0.0),
        ("annulus_margin", -0.1),
        ("annulus_margin", 1.0),
    ],
)
def test_config_errors_name_field_and_value(field, value):
    """Every rejected parameter names the offending field and echoes the
    received value, so a bad job spec is diagnosable from the message
    alone."""
    with pytest.raises(ConfigurationError) as err:
        SSConfig(**{field: value})
    message = str(err.value)
    assert field in message
    assert (repr(value) in message) or (str(value) in message)


def test_paper_defaults():
    cfg = SSConfig()
    assert (cfg.n_int, cfg.n_mm, cfg.n_rh) == (32, 8, 16)
    assert cfg.delta == 1e-10
    assert cfg.lambda_min == 0.5
    assert cfg.bicg_tol == 1e-10


# -- correctness, direct path ------------------------------------------------------

@pytest.mark.parametrize("energy", [-1.2, -0.5, 0.0, 0.8])
def test_ladder_all_energies_direct(energy):
    lad = TransverseLadder(width=4)
    cfg = SSConfig(n_int=16, n_mm=4, n_rh=4, seed=3, linear_solver="direct")
    res = SSHankelSolver(lad.blocks(), cfg).solve(energy)
    exact = ladder_reference(lad, energy)
    assert res.count == exact.size
    if exact.size:
        assert match_error(res.eigenvalues, exact) < 1e-9
        assert res.residuals.max() < 1e-9


def test_chain_in_gapless_band():
    chain = MonatomicChain(hopping=-1.0)
    cfg = SSConfig(n_int=16, n_mm=2, n_rh=2, seed=5, linear_solver="direct")
    res = SSHankelSolver(chain.blocks(), cfg).solve(0.7)
    assert match_error(res.eigenvalues, chain.analytic_lambdas(0.7)) < 1e-10


def test_ssh_gap_evanescent_pair():
    ssh = DiatomicChain(t1=-1.0, t2=-0.6)
    e = ssh.branch_point_energy()
    cfg = SSConfig(n_int=24, n_mm=2, n_rh=2, seed=7, linear_solver="direct")
    res = SSHankelSolver(ssh.blocks(), cfg).solve(e)
    exact = ssh.analytic_lambdas(e)
    assert res.count == 2
    assert match_error(res.eigenvalues, exact) < 1e-9
    assert np.all(np.abs(np.abs(res.eigenvalues) - 1.0) > 1e-3)  # evanescent


def test_eigenvectors_satisfy_qep():
    """Random-looking triple with analytic spectrum: SS must find exactly
    the ring eigenvalues.  (A fully random triple is unusable here —
    its eigenvalues straddle the contour, where no contour method
    converges; see test_contour_straddling_degrades_gracefully.)"""
    blocks, analytic = commuting_bulk_triple(10, seed=8)
    e = 0.1
    exact = analytic(e)
    mags = np.abs(exact)
    inside = exact[(mags > 0.5) & (mags < 2.0)]
    # This seed keeps eigenvalues comfortably off the ring boundary.
    boundary_gap = min(np.min(np.abs(mags - 0.5)), np.min(np.abs(mags - 2.0)))
    assert boundary_gap > 0.02
    cfg = SSConfig(n_int=32, n_mm=6, n_rh=6, seed=9, linear_solver="direct",
                   residual_tol=1e-6)
    res = SSHankelSolver(blocks, cfg).solve(e)
    assert res.count == inside.size
    assert match_error(res.eigenvalues, inside) < 1e-6
    dense = solve_qep_dense(blocks, e)
    m2 = np.abs(dense.eigenvalues)
    assert match_error(
        res.eigenvalues, dense.eigenvalues[(m2 > 0.5) & (m2 < 2.0)]
    ) < 1e-6


def test_contour_straddling_degrades_gracefully():
    """Eigenvalues sitting ON the ring boundary poison the quadrature
    filter; the solver must respond by *rejecting* unconverged pairs via
    the residual filter, not by returning garbage."""
    blocks = random_bulk_triple(20, coupling_scale=0.5, seed=8)
    cfg = SSConfig(n_int=16, n_mm=6, n_rh=6, seed=9, linear_solver="direct",
                   residual_tol=1e-8)
    res = SSHankelSolver(blocks, cfg).solve(0.1)
    # Whatever survived the filter genuinely satisfies the QEP.
    assert np.all(res.residuals <= 1e-8)


def test_random_source_reproducible():
    lad = TransverseLadder(width=3)
    cfg = SSConfig(n_int=12, n_mm=4, n_rh=4, seed=17, linear_solver="direct")
    r1 = SSHankelSolver(lad.blocks(), cfg).solve(-0.3)
    r2 = SSHankelSolver(lad.blocks(), cfg).solve(-0.3)
    assert np.allclose(r1.eigenvalues, r2.eigenvalues)


def test_explicit_source_block():
    lad = TransverseLadder(width=3)
    cfg = SSConfig(n_int=12, n_mm=4, n_rh=4, linear_solver="direct")
    solver = SSHankelSolver(lad.blocks(), cfg)
    rng = np.random.default_rng(1)
    v = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    res = solver.solve(-0.3, v=v)
    assert res.count == len(ladder_reference(lad, -0.3))
    with pytest.raises(ConfigurationError):
        solver.solve(-0.3, v=v[:, :2])


# -- BiCG path -----------------------------------------------------------------

def test_bicg_matches_direct():
    lad = TransverseLadder(width=4)
    e = -0.5
    base = SSConfig(n_int=16, n_mm=4, n_rh=4, seed=3)
    direct = SSHankelSolver(
        lad.blocks(),
        SSConfig(**{**base.__dict__, "linear_solver": "direct"}),
    ).solve(e)
    bicg = SSHankelSolver(
        lad.blocks(),
        SSConfig(**{**base.__dict__, "linear_solver": "bicg-batched",
                    "bicg_tol": 1e-12}),
    ).solve(e)
    assert bicg.count == direct.count
    assert match_error(bicg.eigenvalues, direct.eigenvalues) < 1e-8


def test_dual_trick_halves_iterations():
    """Figure-4-adjacent claim: the dual reuse halves Step-1 work."""
    lad = TransverseLadder(width=4)
    common = dict(n_int=12, n_mm=4, n_rh=4, seed=3,
                  linear_solver="bicg-batched", bicg_tol=1e-11,
                  quorum_fraction=None)
    with_dual = SSHankelSolver(
        lad.blocks(), SSConfig(use_dual_trick=True, **common)
    ).solve(-0.5)
    without = SSHankelSolver(
        lad.blocks(), SSConfig(use_dual_trick=False, **common)
    ).solve(-0.5)
    assert match_error(with_dual.eigenvalues, without.eigenvalues) < 1e-8
    assert with_dual.total_iterations() <= 0.6 * without.total_iterations()


def test_quorum_stops_stragglers():
    blocks = random_bulk_triple(30, coupling_scale=0.6, seed=10, sparse=True)
    common = dict(n_int=8, n_mm=4, n_rh=4, seed=3,
                  linear_solver="bicg-batched", bicg_tol=1e-12)
    with_q = SSHankelSolver(
        blocks, SSConfig(quorum_fraction=0.5, **common)
    ).solve(0.05)
    without_q = SSHankelSolver(
        blocks, SSConfig(quorum_fraction=None, **common)
    ).solve(0.05)
    assert with_q.total_iterations() <= without_q.total_iterations()
    # Eigenvalues must survive the early stopping (Fig. 5's argument).
    if with_q.count and without_q.count:
        assert match_error(with_q.eigenvalues, without_q.eigenvalues) < 1e-6


def test_bicg_histories_recorded():
    lad = TransverseLadder(width=4)
    cfg = SSConfig(n_int=8, n_mm=4, n_rh=2, seed=3,
                   linear_solver="bicg-batched", record_history=True)
    res = SSHankelSolver(lad.blocks(), cfg).solve(-0.5)
    assert all(len(p.histories) == 2 for p in res.point_stats)
    assert all(
        h[-1] <= 1e-10 for p in res.point_stats for h in p.histories if h
    )


def test_threaded_executor_matches_serial():
    lad = TransverseLadder(width=4)
    base = dict(n_int=12, n_mm=4, n_rh=4, seed=3,
                linear_solver="bicg-batched", bicg_tol=1e-12,
                quorum_fraction=None)
    serial = SSHankelSolver(lad.blocks(), SSConfig(**base)).solve(-0.5)
    threaded = SSHankelSolver(
        lad.blocks(), SSConfig(executor=4, **base)
    ).solve(-0.5)
    assert threaded.count == serial.count
    assert match_error(threaded.eigenvalues, serial.eigenvalues) < 1e-8


def test_jacobi_option():
    lad = TransverseLadder(width=4)
    cfg = SSConfig(n_int=12, n_mm=4, n_rh=4, seed=3,
                   linear_solver="bicg-batched", jacobi=True, bicg_tol=1e-12)
    res = SSHankelSolver(lad.blocks(), cfg).solve(-0.5)
    exact = ladder_reference(TransverseLadder(width=4), -0.5)
    assert match_error(res.eigenvalues, exact) < 1e-8


#: (count, total BiCG iterations, repr of every accepted eigenvalue in
#: result order) of one batched-BiCG solve per model at E = 0.3; the
#: default double-precision Step 1 must reproduce them bit for bit.
PINNED_SOLVES = {
    "chain": (lambda: MonatomicChain(hopping=-1.0).blocks(), 2, 64, [
        "(-0.15000000000000294-0.9886859966642578j)",
        "(-0.14999999999999958+0.988685996664266j)",
    ]),
    "diatomic": (lambda: DiatomicChain().blocks(), 2, 128, [
        "(-0.711822951895163-5.5468162615118777e-14j)",
        "(-1.404843714771519+6.827871601444713e-15j)",
    ]),
    "ladder": (lambda: TransverseLadder(width=3).blocks(), 6, 192, [
        "(0.20355339059327435+0.979063847344988j)",
        "(-0.503553390593274+0.8639641096839669j)",
        "(-0.5035533905932731-0.8639641096839693j)",
        "(-0.15000000000000246-0.9886859966642575j)",
        "(0.20355339059327704-0.9790638473449962j)",
        "(-0.14999999999999947+0.9886859966642659j)",
    ]),
}


@pytest.mark.parametrize("model", sorted(PINNED_SOLVES))
def test_default_solve_pinned(model):
    build, count, iters, eigs = PINNED_SOLVES[model]
    cfg = SSConfig(n_int=16, n_mm=4, n_rh=4, seed=11,
                   linear_solver="bicg-batched")
    r = SSHankelSolver(build(), cfg).solve(0.3)
    assert r.count == count
    assert r.total_iterations() == iters
    assert [repr(complex(x)) for x in r.eigenvalues] == eigs


# -- result object ----------------------------------------------------------------

def test_result_metadata():
    lad = TransverseLadder(width=4)
    cfg = SSConfig(n_int=12, n_mm=4, n_rh=4, seed=3, linear_solver="direct")
    res = SSHankelSolver(lad.blocks(), cfg).solve(-0.5)
    assert res.linear_solver == "direct"
    assert "solve linear equations" in res.phase_times.as_dict()
    assert "extract eigenpairs" in res.phase_times.as_dict()
    assert res.memory.total > 0
    assert res.rank >= res.count
    ks = res.complex_k(lad.cell_length)
    assert np.allclose(np.exp(1j * ks * lad.cell_length), res.eigenvalues)


def test_hankel_pair_structure():
    rng = np.random.default_rng(2)
    mu = rng.standard_normal((6, 2, 2)) + 1j * rng.standard_normal((6, 2, 2))
    t_lt, t = build_hankel_pair(mu, n_mm=3)
    assert t.shape == (6, 6)
    assert np.allclose(t[0:2, 2:4], mu[1])
    assert np.allclose(t_lt[0:2, 2:4], mu[2])
    assert np.allclose(t[4:6, 4:6], mu[4])


def test_extraction_raises_on_zero_moments():
    from repro.errors import ExtractionError

    mu = np.zeros((4, 2, 2), dtype=complex)
    s = np.zeros((10, 4), dtype=complex)
    with pytest.raises(ExtractionError):
        extract_eigenpairs(mu, s, n_mm=2)


# -- complex_k branch selection and Im(k) sign convention ---------------------

def _result_with_eigenvalues(lams):
    """A minimal SSResult carrying only what complex_k needs."""
    from repro.ss.solver import SSResult
    from repro.utils.memory import MemoryReport
    from repro.utils.timing import PhaseTimes

    lams = np.asarray(lams, dtype=np.complex128)
    res = np.zeros(lams.shape[0])
    return SSResult(
        energy=0.0, eigenvalues=lams, vectors=np.zeros((2, lams.shape[0])),
        residuals=res, raw_eigenvalues=lams.copy(), raw_residuals=res.copy(),
        rank=lams.shape[0], singular_values=np.ones(lams.shape[0]),
        point_stats=[], phase_times=PhaseTimes(), memory=MemoryReport(),
        linear_solver="direct",
    )


def test_complex_k_sign_convention_near_unit_circle():
    """The contract at the propagating/evanescent boundary: decaying
    modes (|λ| < 1) get Im(k) > 0, growing modes (|λ| > 1) get
    Im(k) < 0, and exactly-unimodular λ get Im(k) = 0 — even within
    classification tolerance of |λ| = 1."""
    a = 2.0  # cell length
    eps = 1e-8  # inside a typical propagating_tol=1e-6 band
    theta = 0.7
    lams = np.array([
        (1.0 - eps) * np.exp(1j * theta),   # barely decaying
        (1.0 + eps) * np.exp(1j * theta),   # barely growing
        np.exp(1j * theta),                 # exactly propagating
        0.5,                                # strongly decaying, real λ
        2.0,                                # strongly growing, real λ
    ])
    k = _result_with_eigenvalues(lams).complex_k(a)
    assert k.shape == (5,)
    # sign of Im(k): decaying ⇒ +, growing ⇒ −, unimodular ⇒ 0
    assert k[0].imag > 0 and np.isclose(k[0].imag, eps / a, rtol=1e-6)
    assert k[1].imag < 0 and np.isclose(k[1].imag, -eps / a, rtol=1e-6)
    assert abs(k[2].imag) < 1e-15  # |exp(iθ)| = 1 to machine rounding
    assert np.isclose(k[3].imag, np.log(2.0) / a)
    assert np.isclose(k[4].imag, -np.log(2.0) / a)
    # Re(k) is the principal branch: arg(λ)/a for every mode above
    assert np.allclose(k[:3].real, theta / a)
    assert np.allclose(k[3:].real, 0.0)


def test_complex_k_principal_branch_cut():
    """Re(k) lives in (−π/a, π/a]: λ = −1 maps to +π/a (not −π/a), and
    arguments just past ±π wrap."""
    a = 1.0
    lams = np.array([
        -1.0 + 0.0j,
        np.exp(1j * (np.pi - 1e-6)),
        np.exp(1j * (np.pi + 1e-6)),
    ])
    k = _result_with_eigenvalues(lams).complex_k(a)
    assert np.isclose(k[0].real, np.pi)
    assert np.isclose(k[1].real, np.pi - 1e-6)
    assert np.isclose(k[2].real, -(np.pi - 1e-6))


def test_complex_k_matches_classification_boundary():
    """classify_modes and complex_k agree through the tolerance band:
    within propagating_tol the mode is PROPAGATING (decay ∞); just
    outside, the decaying mode's k has the pinned positive Im part."""
    from repro.cbs.classify import ModeType, classify_modes

    a = 1.0
    tol = 1e-6
    inside = (1.0 - 0.5 * tol) * np.exp(0.3j)
    below = (1.0 - 10 * tol) * np.exp(0.3j)
    above = (1.0 + 10 * tol) * np.exp(0.3j)
    modes = classify_modes(
        0.0, np.array([inside, below, above]), np.zeros(3), a,
        propagating_tol=tol,
    )
    assert modes[0].mode_type is ModeType.PROPAGATING
    assert modes[0].decay_length == np.inf
    assert modes[1].mode_type is ModeType.EVANESCENT_DECAYING
    assert modes[1].k.imag > 0
    assert modes[2].mode_type is ModeType.EVANESCENT_GROWING
    assert modes[2].k.imag < 0


# -- rank probe and per-slice config resolution --------------------------------

def test_rank_probe_counts_ring_modes():
    lad = TransverseLadder(width=4)
    solver = SSHankelSolver(
        lad.blocks(), SSConfig(n_int=16, n_mm=4, n_rh=4, seed=7,
                               linear_solver="direct")
    )
    probe = solver.rank_probe(0.0)
    assert probe.n_rh == 2 and probe.capacity == 8
    assert probe.rank == lad.count_in_annulus(0.0, 0.5, 2.0) == 8
    assert probe.saturated  # rank == capacity: only a lower bound
    bigger = solver.rank_probe(0.0, n_mm=8)
    assert bigger.rank == 8 and not bigger.saturated
    assert 0.0 < bigger.saturation() < 1.0


def test_rank_probe_zero_in_quiet_window():
    """Far outside the bands the probe must report rank 0, not the
    noise rank of the cancelled quadrature (probed at the config's full
    N_int, where exterior-eigenvalue leakage sits below the floor)."""
    lad = TransverseLadder(width=2)
    solver = SSHankelSolver(
        lad.blocks(), SSConfig(n_int=32, n_mm=4, n_rh=4, seed=7,
                               linear_solver="direct")
    )
    probe = solver.rank_probe(9.0)
    assert probe.rank == 0
    assert probe.noise_floor > 0
    assert probe.singular_values[0] < probe.noise_floor


def test_effective_rank_flattens_noise():
    lad = TransverseLadder(width=2)
    solver = SSHankelSolver(
        lad.blocks(), SSConfig(n_int=32, n_mm=2, n_rh=2, seed=7,
                               linear_solver="direct")
    )
    quiet = solver.solve(8.5)
    assert quiet.count == 0
    assert quiet.effective_rank() == 0
    assert quiet.hankel_saturation() == 0.0
    loud = solver.solve(0.0)
    assert loud.effective_rank() == loud.rank > 0


def test_config_resolved_collapses_auto():
    cfg = SSConfig(n_int=8, n_mm=2, n_rh=2, direct_threshold=100)
    assert cfg.linear_solver == "auto"
    assert cfg.resolved(50).linear_solver == "direct"
    assert cfg.resolved(5000).linear_solver == "bicg-batched"
    explicit = SSConfig(n_int=8, n_mm=2, n_rh=2,
                        linear_solver="bicg-batched")
    assert explicit.resolved(50) is explicit


# -- explicit (non-reciprocal) ring radii --------------------------------------

def test_ring_radii_validation():
    with pytest.raises(ConfigurationError):
        SSConfig(ring_radii=(2.0, 0.5))
    with pytest.raises(ConfigurationError):
        SSConfig(ring_radii=(0.0, 2.0))
    with pytest.raises(ConfigurationError):
        SSConfig(ring_radii=(1.0,))
    with pytest.raises(ConfigurationError):
        SSConfig(ring_radii="ab")  # unpacks, but is not numeric
    ring = SSConfig(ring_radii=(0.4, 2.2)).make_contour()
    assert (ring.r_in, ring.r_out) == (0.4, 2.2)
    default = SSConfig(lambda_min=0.5).make_contour()
    assert (default.r_in, default.r_out) == (0.5, 2.0)


def test_solve_with_non_reciprocal_ring_matches_analytic():
    """A non-reciprocal ring must disable the dual shortcut (solving all
    2·N_int systems explicitly) and still find exactly the eigenvalues
    in the requested annulus."""
    lad = TransverseLadder(width=3)
    cfg = SSConfig(n_int=24, n_mm=4, n_rh=4, seed=7,
                   linear_solver="direct", ring_radii=(0.35, 2.4))
    solver = SSHankelSolver(lad.blocks(), cfg)
    res = solver.solve(-0.3)
    exact = lad.analytic_lambdas(-0.3)
    mags = np.abs(exact)
    expected = exact[(mags > 0.35) & (mags < 2.4)]
    outside_paper_ring = expected[(np.abs(expected) <= 0.5)
                                  | (np.abs(expected) >= 2.0)]
    assert res.count == expected.size
    assert match_error(res.eigenvalues, expected) < 1e-8
    assert match_error(expected, res.eigenvalues) < 1e-8
    if outside_paper_ring.size:
        assert match_error(outside_paper_ring, res.eigenvalues) < 1e-8
