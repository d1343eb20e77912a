"""The Sakurai-Sugiura Hankel solver for the CBS quadratic eigenproblem.

Implements paper Algorithm 1 with the §3.2 ring-contour specialization
and the §3.3 execution structure:

* **Step 1** — solve the ``N_int`` outer-circle systems
  ``P(z^{(1)}_j) Y^{(1)}_j = V``; the inner-circle systems come for free
  as the duals ``P(z^{(1)}_j)^† Y^{(2)}_j = V`` (one BiCG run or one LU
  factorization yields both).
* **Step 2** — stream the solutions into the complex moments.
* **Step 3** — block-Hankel extraction of the eigenpairs, followed by a
  residual/region filter.

Step 1 dispatches through the solver-strategy registry
(:mod:`repro.solvers.registry`):

* ``"direct"`` — LU factorization: for small ``N`` one dense batched
  LU over every shift of the energy, otherwise one sparse LU per shift
  (either way one factorization serves the primal and dual systems);
* ``"bicg"`` — the paper's matrix-free path, emulated as one Python
  :class:`BiCGStepper` per (shift, RHS) task advanced in serial
  **lockstep rounds** (or on a thread pool);
* ``"bicg-batched"`` — the vectorized engine
  (:mod:`repro.solvers.batched`): all ``N_int × N_rh`` systems advance
  together on stacked arrays, one batched matvec per round, with the
  same convergence/quorum/breakdown semantics as the lockstep path.
  ``"auto"`` prefers it for matrix-free-scale problems.

The mapping onto the paper's three parallel layers: the bottom layer
(domain-decomposed matvec) corresponds to BLAS/sparse kernels here; the
middle (quadrature points) and top (right-hand sides) layers are either
emulated task-by-task (``bicg``) or collapsed into the stacked batch
dimension (``bicg-batched``), which is how a single Python process gets
hardware-width parallelism out of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.dtypes import COMPLEX_DTYPE, REAL_DTYPE
from repro.errors import ConfigurationError, ExtractionError
from repro.qep.blocks import BlockTriple
from repro.qep.pencil import QuadraticPencil, _real_view_applies
from repro.parallel.executor import SerialExecutor, make_executor
from repro.solvers.batched import Step1WarmStart, run_batched_bicg
from repro.solvers.bicg import BiCGResult, BiCGStepper
from repro.solvers.direct import (
    DENSE_STACK_MAX_N,
    SparseLUSolver,
    rcm_ordering,
    solve_dense_stack,
)
from repro.solvers.preconditioners import jacobi_preconditioner
from repro.solvers.registry import (
    available_strategies,
    get_step1_strategy,
    resolve_strategy,
    step1_strategy,
)
from repro.solvers.stopping import QuorumController, ResidualRule, StopReason
from repro.ss.contour import AnnulusContour
from repro.ss.hankel import build_hankel_pair, extract_eigenpairs
from repro.ss.moments import MomentAccumulator
from repro.utils.memory import MemoryReport
from repro.utils.rng import complex_gaussian, default_rng
from repro.utils.timing import PhaseTimes


@dataclass(frozen=True)
class SSConfig:
    """Input parameters of the Sakurai-Sugiura method (paper Algorithm 1).

    Defaults are the paper's serial-test settings
    (``N_int=32, N_mm=8, N_rh=16, δ=1e-10, λ_min=0.5``, BiCG tol 1e-10).

    Attributes
    ----------
    n_int:
        Quadrature points per circle (``N_int``).
    n_mm:
        Moment degrees (``N_mm``); Hankel capacity is ``n_rh * n_mm``.
    n_rh:
        Right-hand sides / source-block width (``N_rh``).
    delta:
        Relative SVD truncation threshold ``δ``.
    lambda_min:
        Ring radius parameter: the target annulus is
        ``λ_min < |λ| < 1/λ_min``.
    ring_radii:
        Optional explicit ``(r_in, r_out)`` annulus radii overriding the
        reciprocal ``λ_min`` ring.  A non-reciprocal ring is handled
        correctly — the inner-circle dual-node shortcut is disabled and
        all ``2 N_int`` systems are solved explicitly.
    linear_solver:
        A Step-1 strategy name from the solver registry — ``"direct"``
        (LU: dense and batched over all shifts for small ``N``, sparse
        per shift above :data:`repro.solvers.direct.DENSE_STACK_MAX_N`),
        ``"bicg"`` (the paper's iterative path, one task
        per shift×RHS), ``"bicg-batched"`` (vectorized block engine) —
        or ``"auto"`` (direct for ``N <= direct_threshold``, batched
        BiCG above).
    direct_threshold:
        Crossover size for ``"auto"``.
    bicg_tol / bicg_maxiter:
        BiCG stopping rule (the paper uses 1e-10).
    use_dual_trick:
        Reuse each outer solve's dual solution as the paired inner-circle
        solution (paper §3.2).  Requires real energy and a bulk triple;
        the solver falls back to explicit inner solves otherwise.
    quorum_fraction:
        Enable the quorum stopping rule at this fraction (``None`` = off;
        paper: 0.5).  Only meaningful for the BiCG path.
    jacobi:
        Apply Jacobi preconditioning to BiCG (extension; off = paper).
    residual_tol:
        Acceptance threshold on the relative QEP residual of extracted
        eigenpairs.
    annulus_margin:
        Relative margin shrinking the acceptance ring (drops boundary
        modes whose filter convergence is slow).
    executor:
        ``None``/``"serial"``, ``"threads"``, or an int worker count —
        parallelism over (quadrature point × RHS) tasks (``bicg``),
        over shift-stack shards (``bicg-batched``) or over per-shift
        factorizations (``direct`` above the dense-layout size; the
        dense layout is one batched call).
    seed:
        RNG seed for the random source block ``V``.
    record_history:
        Keep per-iteration BiCG residual histories (Figure 5).
    keep_step1_solutions:
        Retain the stacked Step-1 solutions on the solver after each
        ``solve`` (``solver.last_step1``) so an energy scan can warm-start
        the next slice.  Costs ``O(N_int × N × N_rh)`` memory.
    lu_ordering_cache:
        On the direct path's sparse layout, compute a fill-reducing
        ordering from the (shift- and energy-independent) pencil
        sparsity pattern once and reuse it for every factorization of a
        scan.  The small-``N`` dense layout has no symbolic analysis.
    """

    n_int: int = 32
    n_mm: int = 8
    n_rh: int = 16
    delta: float = 1e-10
    lambda_min: float = 0.5
    ring_radii: Optional[Tuple[float, float]] = None
    linear_solver: str = "auto"
    direct_threshold: int = 6000
    bicg_tol: float = 1e-10
    bicg_maxiter: Optional[int] = None
    use_dual_trick: bool = True
    quorum_fraction: Optional[float] = 0.5
    jacobi: bool = False
    residual_tol: float = 1e-6
    annulus_margin: float = 0.0
    executor: object = None
    seed: Optional[int] = None
    record_history: bool = True
    keep_step1_solutions: bool = False
    lu_ordering_cache: bool = False

    def __post_init__(self) -> None:
        if self.n_int < 2:
            raise ConfigurationError(f"n_int must be >= 2, got {self.n_int}")
        if self.n_mm < 1:
            raise ConfigurationError(f"n_mm must be >= 1, got {self.n_mm}")
        if self.n_rh < 1:
            raise ConfigurationError(f"n_rh must be >= 1, got {self.n_rh}")
        if not 0 < self.delta < 1:
            raise ConfigurationError(f"delta must be in (0,1), got {self.delta}")
        if not 0 < self.lambda_min < 1:
            raise ConfigurationError(
                f"lambda_min must be in (0,1), got {self.lambda_min}"
            )
        if self.ring_radii is not None:
            try:
                r_in, r_out = (float(r) for r in self.ring_radii)
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"ring_radii must be a (r_in, r_out) pair of numbers, "
                    f"got {self.ring_radii!r}"
                ) from None
            if not 0 < r_in < r_out:
                raise ConfigurationError(
                    f"ring_radii needs 0 < r_in < r_out, got {self.ring_radii}"
                )
            object.__setattr__(
                self, "ring_radii", (float(r_in), float(r_out))
            )
        known = {"auto", *available_strategies()}
        if self.linear_solver not in known:
            raise ConfigurationError(
                f"unknown linear_solver {self.linear_solver!r}; "
                f"choose one of {sorted(known)}"
            )
        if self.direct_threshold < 0:
            raise ConfigurationError(
                f"direct_threshold must be >= 0, got {self.direct_threshold}"
            )
        if not self.bicg_tol > 0:
            raise ConfigurationError(
                f"bicg_tol must be > 0, got {self.bicg_tol}"
            )
        if self.bicg_maxiter is not None and self.bicg_maxiter < 1:
            raise ConfigurationError(
                f"bicg_maxiter must be >= 1 or None, got {self.bicg_maxiter}"
            )
        if self.quorum_fraction is not None and not 0 < self.quorum_fraction < 1:
            raise ConfigurationError(
                f"quorum_fraction must be in (0,1) or None, "
                f"got {self.quorum_fraction}"
            )
        if not self.residual_tol > 0:
            raise ConfigurationError(
                f"residual_tol must be > 0, got {self.residual_tol}"
            )
        if not 0 <= self.annulus_margin < 1:
            raise ConfigurationError(
                f"annulus_margin must be in [0,1), got {self.annulus_margin}"
            )

    @property
    def subspace_capacity(self) -> int:
        """Maximum extractable eigenpair count ``N_rh × N_mm``."""
        return self.n_rh * self.n_mm

    def make_contour(self) -> AnnulusContour:
        """The integration ring this config describes (explicit radii
        when ``ring_radii`` is set, the reciprocal ``λ_min`` ring
        otherwise)."""
        if self.ring_radii is not None:
            return AnnulusContour(
                self.ring_radii[0], self.ring_radii[1], self.n_int
            )
        return AnnulusContour.from_lambda_min(self.lambda_min, self.n_int)

    def resolved(self, n: int) -> "SSConfig":
        """A per-slice resolvable copy: ``"auto"`` collapsed to the
        concrete Step-1 strategy for problem size ``n``.

        The scan orchestrator resolves once per slice/shard so cache
        keys, reports, and re-solves all name the strategy that actually
        ran instead of the placeholder.
        """
        name = resolve_strategy(self.linear_solver, n, self.direct_threshold)
        if name == self.linear_solver:
            return self
        return replace(self, linear_solver=name)


@dataclass
class PointStats:
    """Per-quadrature-point solve statistics (Fig. 5 / Table 1 data)."""

    z: complex
    circle: int
    iterations: int = 0
    final_residual: float = 0.0
    final_residual_dual: float = 0.0
    reason: str = ""
    histories: List[List[float]] = field(default_factory=list)


@dataclass
class SSResult:
    """Output of :meth:`SSHankelSolver.solve`.

    ``eigenvalues``/``vectors``/``residuals`` are the accepted pairs
    (inside the ring, residual below tolerance); the ``raw_*`` fields
    keep everything the Hankel step produced, for diagnostics.
    """

    energy: float
    eigenvalues: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    raw_eigenvalues: np.ndarray
    raw_residuals: np.ndarray
    rank: int
    singular_values: np.ndarray
    point_stats: List[PointStats]
    phase_times: PhaseTimes
    memory: MemoryReport
    linear_solver: str
    #: Magnitude below which Hankel singular values are quadrature-
    #: cancellation noise (see :meth:`MomentAccumulator.noise_floor`).
    noise_floor: float = 0.0

    @property
    def count(self) -> int:
        return int(self.eigenvalues.shape[0])

    def total_iterations(self) -> int:
        """Sum of BiCG iterations over all quadrature points/RHS."""
        return sum(p.iterations for p in self.point_stats)

    def effective_rank(self) -> int:
        """Hankel rank with sub-noise spectra flattened to zero.

        The relative-``δ`` rank of a spectrally *empty* ring is
        meaningless — the whole singular spectrum is quadrature-
        cancellation noise, which decays slowly and can mimic a
        saturated subspace.  Any spectrum whose top singular value sits
        below :attr:`noise_floor` therefore counts as rank zero.
        """
        s = self.singular_values
        if s.size == 0 or s[0] <= self.noise_floor:
            return 0
        return int(self.rank)

    def hankel_saturation(self) -> float:
        """Fraction of the Hankel capacity the numerical rank occupies.

        ``effective_rank / (N_rh N_mm)`` ∈ [0, 1].  Near 1 the subspace
        is saturated — the moments carry at least as many directions as
        the Hankel pair can represent, so eigenvalues inside the ring
        may have been missed and the orchestrator should grow ``N_mm``/
        ``N_rh`` and re-solve.  Well below 1 there is a clean
        singular-value gap and the count is trustworthy (paper's
        automatic eigenvalue-count property).
        """
        capacity = int(self.singular_values.size)
        if capacity == 0:
            return 0.0
        return float(self.effective_rank()) / float(capacity)

    def complex_k(self, cell_length: float) -> np.ndarray:
        """Accepted eigenvalues as complex wave numbers ``k = -i ln λ / a``.

        Well-shaped for an empty accepted set (hard gap): returns a
        ``(0,)`` complex array without touching ``log``, and suppresses
        the ``log(0)`` warning for any (diagnostic) zero eigenvalue.
        """
        lam = np.asarray(self.eigenvalues, dtype=COMPLEX_DTYPE)
        if lam.size == 0:
            return np.empty(0, dtype=COMPLEX_DTYPE)
        with np.errstate(divide="ignore", invalid="ignore"):
            return -1j * np.log(lam) / cell_length


@dataclass(frozen=True)
class RankProbe:
    """Result of a cheap stochastic rank probe of the moment matrices.

    Attributes
    ----------
    rank:
        Numerical rank of the probe Hankel matrix at the config's ``δ``.
    capacity:
        Probe subspace capacity ``n_rh × n_mm``; ``rank`` close to
        ``capacity`` means the probe itself saturated and the true mode
        count is only bounded below by ``rank``.
    singular_values:
        Full probe Hankel singular-value spectrum (diagnostic).
    n_rh, n_mm, n_int:
        The probe's actual parameters.
    """

    rank: int
    capacity: int
    singular_values: np.ndarray
    n_rh: int
    n_mm: int
    n_int: int
    noise_floor: float = 0.0

    @property
    def saturated(self) -> bool:
        """Whether the probe hit its own capacity (count untrustworthy)."""
        return self.capacity > 0 and self.rank >= self.capacity

    def saturation(self) -> float:
        return self.rank / self.capacity if self.capacity else 0.0


class SSHankelSolver:
    """Sakurai-Sugiura method with block Hankel matrices for the CBS QEP.

    Parameters
    ----------
    blocks:
        The unit-cell :class:`BlockTriple`; validated for bulk symmetry
        unless ``validate=False``.
    config:
        An :class:`SSConfig` (paper defaults when omitted).

    Examples
    --------
    >>> from repro.models import TransverseLadder
    >>> from repro.ss import SSHankelSolver, SSConfig
    >>> ladder = TransverseLadder(width=4)
    >>> solver = SSHankelSolver(ladder.blocks(),
    ...                         SSConfig(n_int=16, n_mm=4, n_rh=4, seed=7))
    >>> result = solver.solve(energy=-0.5)
    >>> result.count == ladder.count_in_annulus(-0.5, 0.5, 2.0)
    True
    """

    def __init__(self, blocks: BlockTriple, config: SSConfig | None = None,
                 *, validate: bool = True) -> None:
        # Real sparse blocks stay real: the Step-1 block products then
        # run on the float64 view of the complex iterates (bit-equal,
        # see repro.qep.pencil); any other triple is cast once here.
        self.blocks = (
            blocks if _real_view_applies(blocks) else blocks.as_complex()
        )
        self.config = config or SSConfig()
        if validate:
            self.blocks.validate_bulk(tol=1e-8)
        self._executor = make_executor(self.config.executor)
        #: Stacked Step-1 solutions of the most recent solve (populated
        #: only when ``config.keep_step1_solutions``); energy scans pass
        #: it back as ``warm=`` to seed the next slice.
        self.last_step1: Optional[Step1WarmStart] = None
        self._lu_ordering_cache: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def compute_moments(
        self, energy: float, v: Optional[np.ndarray] = None,
        warm: Optional[Step1WarmStart] = None,
    ) -> tuple[QuadraticPencil, AnnulusContour, MomentAccumulator,
               List["PointStats"], PhaseTimes, str]:
        """Run Steps 1-2 only: solve the shifted systems, fold moments.

        Shared by the Hankel extraction (:meth:`solve`) and the
        Rayleigh-Ritz variant (:func:`repro.ss.rayleigh_ritz.ss_rayleigh_ritz`).
        ``warm`` optionally carries an adjacent slice's Step-1 solutions
        as initial guesses (consumed by the batched strategy).
        """
        cfg = self.config
        times = PhaseTimes()
        pencil = QuadraticPencil(self.blocks, energy)
        contour = cfg.make_contour()

        if v is None:
            rng = default_rng(cfg.seed)
            v = complex_gaussian(rng, (self.blocks.n, cfg.n_rh))
        else:
            v = np.asarray(v, dtype=COMPLEX_DTYPE)
            if v.shape != (self.blocks.n, cfg.n_rh):
                raise ConfigurationError(
                    f"V must have shape {(self.blocks.n, cfg.n_rh)}, "
                    f"got {v.shape}"
                )

        acc = MomentAccumulator(v, cfg.n_mm)
        solver_kind = self._pick_solver()

        with times.phase("solve linear equations"):
            point_stats = self._step1(
                pencil, contour, v, acc, solver_kind, warm
            )
        return pencil, contour, acc, point_stats, times, solver_kind

    def solve(self, energy: float, v: Optional[np.ndarray] = None,
              warm: Optional[Step1WarmStart] = None) -> SSResult:
        """Compute the QEP eigenpairs in the ring at real ``energy``.

        Parameters
        ----------
        energy:
            The real energy ``E`` of the CBS slice.
        v:
            Optional explicit source block (``N × N_rh``); random complex
            Gaussian by default.
        warm:
            Optional Step-1 warm start from an adjacent energy
            (see :class:`repro.solvers.batched.Step1WarmStart`).
        """
        pencil, contour, acc, point_stats, times, solver_kind = (
            self.compute_moments(energy, v, warm)
        )
        return self._extract_result(
            energy, pencil, contour, acc, point_stats, times, solver_kind
        )

    def _extract_result(
        self,
        energy: float,
        pencil: QuadraticPencil,
        contour: AnnulusContour,
        acc: MomentAccumulator,
        point_stats: List["PointStats"],
        times: PhaseTimes,
        solver_kind: str,
    ) -> SSResult:
        """Step 3 on finished moments: Hankel extraction + filtering."""
        cfg = self.config
        with times.phase("extract eigenpairs"):
            try:
                extraction = extract_eigenpairs(
                    acc.mu, acc.stacked_s(), cfg.n_mm, cfg.delta
                )
            except ExtractionError:
                # Hard gap: the contour encloses nothing and the moments
                # carry no numerical rank.  Report a well-shaped empty
                # result instead of failing the scan.
                return self._empty_result(
                    energy, point_stats, times, acc, solver_kind
                )
            raw_lam = extraction.eigenvalues
            raw_res = pencil.residuals(raw_lam, extraction.vectors)
            inside = contour.contains_many(raw_lam, cfg.annulus_margin)
            keep = inside & (raw_res <= cfg.residual_tol)
            lam = raw_lam[keep]
            vecs = extraction.vectors[:, keep]
            res = raw_res[keep]
            order = np.argsort(np.abs(lam))
            lam, vecs, res = lam[order], vecs[:, order], res[order]

        memory = self._memory_report(acc, extraction.singular_values.size)

        return SSResult(
            energy=float(energy),
            eigenvalues=lam,
            vectors=vecs,
            residuals=res,
            raw_eigenvalues=raw_lam,
            raw_residuals=raw_res,
            rank=extraction.rank,
            singular_values=extraction.singular_values,
            point_stats=point_stats,
            phase_times=times,
            memory=memory,
            linear_solver=solver_kind,
            noise_floor=acc.noise_floor(),
        )

    def _empty_result(
        self, energy: float, point_stats: List["PointStats"],
        times: PhaseTimes, acc: MomentAccumulator, solver_kind: str,
    ) -> SSResult:
        """A structurally valid result with zero accepted eigenpairs."""
        n = self.blocks.n
        empty_c = np.empty(0, dtype=COMPLEX_DTYPE)
        empty_f = np.empty(0, dtype=REAL_DTYPE)
        return SSResult(
            energy=float(energy),
            eigenvalues=empty_c.copy(),
            vectors=np.empty((n, 0), dtype=COMPLEX_DTYPE),
            residuals=empty_f.copy(),
            raw_eigenvalues=empty_c.copy(),
            raw_residuals=empty_f.copy(),
            rank=0,
            singular_values=empty_f.copy(),
            point_stats=point_stats,
            phase_times=times,
            memory=self._memory_report(acc, 0),
            linear_solver=solver_kind,
            noise_floor=acc.noise_floor(),
        )

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def rank_probe(
        self,
        energy: float,
        *,
        n_rh: int = 2,
        n_mm: Optional[int] = None,
        n_int: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> RankProbe:
        """Cheap stochastic estimate of the moment-matrix rank at ``energy``.

        Runs Steps 1–2 with a narrow random source block (``n_rh``
        columns, default 2) and reports the numerical rank of the
        resulting block Hankel matrix — an estimate of the eigenvalue
        count inside the ring at roughly ``n_rh / N_rh`` of a full
        solve's Step-1 cost.  The orchestrator uses it to pre-size
        ``N_mm``/``N_rh`` before committing to a full scan: generic
        random blocks excite every eigendirection, so for eigenvalues of
        geometric multiplicity ≤ ``n_rh`` the probe rank equals the true
        count whenever it stays below the probe capacity (check
        :attr:`RankProbe.saturated`).
        """
        cfg = self.config
        probe_cfg = replace(
            cfg,
            n_rh=int(n_rh),
            n_mm=int(n_mm) if n_mm is not None else cfg.n_mm,
            n_int=int(n_int) if n_int is not None else cfg.n_int,
            record_history=False,
            keep_step1_solutions=False,
            seed=cfg.seed if seed is None else seed,
        )
        probe = SSHankelSolver(self.blocks, probe_cfg, validate=False)
        _, _, acc, _, _, _ = probe.compute_moments(energy)
        _, t = build_hankel_pair(acc.mu, probe_cfg.n_mm)
        sing = np.linalg.svd(t, compute_uv=False)
        floor = acc.noise_floor()
        if sing.size == 0 or sing[0] <= floor:
            rank = 0  # spectrally empty: all noise, no true moments
        else:
            rank = int(np.count_nonzero(sing > probe_cfg.delta * sing[0]))
        return RankProbe(
            rank=rank,
            capacity=probe_cfg.subspace_capacity,
            singular_values=sing,
            n_rh=probe_cfg.n_rh,
            n_mm=probe_cfg.n_mm,
            n_int=probe_cfg.n_int,
            noise_floor=floor,
        )

    # ------------------------------------------------------------------
    # Step 1: the linear solves
    # ------------------------------------------------------------------

    def _pick_solver(self) -> str:
        cfg = self.config
        return resolve_strategy(
            cfg.linear_solver, self.blocks.n, cfg.direct_threshold
        )

    def _use_dual(self, pencil: QuadraticPencil, contour: AnnulusContour) -> bool:
        return (
            self.config.use_dual_trick
            and pencil.is_dual_symmetric
            and contour.is_reciprocal
        )

    def _step1(
        self,
        pencil: QuadraticPencil,
        contour: AnnulusContour,
        v: np.ndarray,
        acc: MomentAccumulator,
        solver_kind: str,
        warm: Optional[Step1WarmStart] = None,
    ) -> List[PointStats]:
        strategy = get_step1_strategy(solver_kind)
        return strategy(self, pencil, contour, v, acc, warm)

    # -- direct (sparse LU) path -------------------------------------------

    def _symbolic_ordering(self, pencil: QuadraticPencil,
                           z: complex) -> Optional[np.ndarray]:
        """Cached fill-reducing ordering (pattern is shift/energy
        independent, so one analysis serves a whole scan)."""
        if not self.config.lu_ordering_cache:
            return None
        if self._lu_ordering_cache is None:
            self._lu_ordering_cache = rcm_ordering(pencil.assemble(z))
        return self._lu_ordering_cache

    def _step1_direct(
        self,
        pencil: QuadraticPencil,
        contour: AnnulusContour,
        v: np.ndarray,
        acc: MomentAccumulator,
        warm: Optional[Step1WarmStart] = None,
    ) -> List[PointStats]:
        """Direct Step 1 in one of two factorization layouts.

        Up to :data:`repro.solvers.direct.DENSE_STACK_MAX_N` unknowns,
        every quadrature point is assembled into one dense
        ``(n_pts, N, N)`` stack, solved with one batched LU (plus one
        for the dual systems) and folded with one stacked moment
        contraction.  Above it, each point gets its own SuperLU
        factorization serving its primal and dual solves — the only
        layout that fits in memory at large ``N``.
        """
        if self.blocks.n <= DENSE_STACK_MAX_N:
            return self._step1_dense(pencil, contour, v, acc)
        stats: List[PointStats] = []
        if self._use_dual(pencil, contour):
            pairs = contour.dual_pairs()
            ordering = self._symbolic_ordering(pencil, pairs[0][0].z)

            def task(pair):
                po, pi = pair
                lu = SparseLUSolver(pencil.assemble(po.z), ordering)
                y_out = lu.solve(v)
                y_in = lu.solve_adjoint(v)  # = P(z_in)^{-1} V via duality
                return po, pi, y_out, y_in

            for po, pi, y_out, y_in in self._executor.map(task, pairs):
                acc.add(po.z, po.weight, y_out, po.sign)
                acc.add(pi.z, pi.weight, y_in, pi.sign)
                stats.append(PointStats(po.z, po.circle, 0, 0.0, 0.0, "direct"))
        else:
            points = contour.points()
            ordering = self._symbolic_ordering(pencil, points[0].z)

            def task(pt):
                lu = SparseLUSolver(pencil.assemble(pt.z), ordering)
                return pt, lu.solve(v)

            for pt, y in self._executor.map(task, points):
                acc.add(pt.z, pt.weight, y, pt.sign)
                stats.append(PointStats(pt.z, pt.circle, 0, 0.0, 0.0, "direct"))
        return stats

    def _step1_dense(
        self,
        pencil: QuadraticPencil,
        contour: AnnulusContour,
        v: np.ndarray,
        acc: MomentAccumulator,
    ) -> List[PointStats]:
        """The small-``N`` layout of :meth:`_step1_direct`."""
        dual = self._use_dual(pencil, contour)
        if dual:
            pairs = contour.dual_pairs()
            solved = [po for po, _ in pairs]
            nodes = solved + [pi for _, pi in pairs]
        else:
            solved = nodes = contour.points()
        p_stack = pencil.assemble_dense_stack([pt.z for pt in solved])
        ys = solve_dense_stack(p_stack, v)
        if dual:
            # The inner circle's solutions are the duals P(z_out)^† Ỹ = V.
            ys = np.concatenate([ys, solve_dense_stack(p_stack, v, True)])
        acc.add_stack(
            [pt.z for pt in nodes], [pt.weight for pt in nodes], ys,
            [pt.sign for pt in nodes],
        )
        return [
            PointStats(pt.z, pt.circle, 0, 0.0, 0.0, "direct")
            for pt in solved
        ]

    # -- BiCG path ------------------------------------------------------------

    def _step1_bicg(
        self,
        pencil: QuadraticPencil,
        contour: AnnulusContour,
        v: np.ndarray,
        acc: MomentAccumulator,
        warm: Optional[Step1WarmStart] = None,  # noqa: ARG002 — lockstep
        # emulation keeps the paper's cold-start semantics; warm starts
        # are a batched-engine feature.
    ) -> List[PointStats]:
        cfg = self.config
        rule = ResidualRule(cfg.bicg_tol, cfg.bicg_maxiter)
        use_dual = self._use_dual(pencil, contour)
        n_rh = v.shape[1]

        if use_dual:
            pairs = contour.dual_pairs()
            shifts = [po.z for po, _ in pairs]
        else:
            points = contour.points()
            shifts = [pt.z for pt in points]

        # One task per (shift, rhs column).
        tasks = [(i, c) for i in range(len(shifts)) for c in range(n_rh)]
        maxiter = rule.maxiter or max(10 * self.blocks.n, 100)
        # Each system applies P(z) to one vector, where the real view
        # loses to a complex product (a width-2 real product costs ~2x a
        # complex matvec at N=512), so real blocks iterate on their
        # complex cast here; the bits are the same either way.
        step_pencil = pencil
        if _real_view_applies(self.blocks):
            step_pencil = QuadraticPencil(self.blocks.as_complex(), pencil.energy)

        def make_stepper(i: int, c: int) -> BiCGStepper:
            z = shifts[i]
            precond = jacobi_preconditioner(pencil, z) if cfg.jacobi else None
            return BiCGStepper(
                lambda x, z=z: step_pencil.apply(z, x),
                lambda x, z=z: step_pencil.apply_adjoint(z, x),
                v[:, c],
                v[:, c] if use_dual else None,
                precond=precond,
                record_history=cfg.record_history,
            )

        steppers: Dict[tuple, BiCGStepper] = {
            (i, c): make_stepper(i, c) for (i, c) in tasks
        }

        quorum = (
            QuorumController(len(tasks), cfg.quorum_fraction)
            if cfg.quorum_fraction is not None and len(tasks) > 1
            else None
        )

        if isinstance(self._executor, SerialExecutor):
            self._run_lockstep(steppers, rule, quorum, maxiter)
        else:
            self._run_threaded(steppers, rule, quorum, maxiter)

        # Fold solutions into the moments and collect statistics.
        stats: List[PointStats] = []
        for i, z in enumerate(shifts):
            y = np.empty((self.blocks.n, n_rh), dtype=COMPLEX_DTYPE)
            yd = np.empty_like(y) if use_dual else None
            iters = 0
            worst = 0.0
            worst_d = 0.0
            reason = "converged"
            histories: List[List[float]] = []
            for c in range(n_rh):
                st = steppers[(i, c)]
                y[:, c] = st.x
                if use_dual:
                    yd[:, c] = st.xd
                iters += st.iterations
                worst = max(worst, st.rel)
                worst_d = max(worst_d, st.rel_dual)
                if st.reason not in (StopReason.CONVERGED, None):
                    reason = st.reason.value
                if cfg.record_history:
                    histories.append(st.history)
            if use_dual:
                po, pi = pairs[i]
                acc.add(po.z, po.weight, y, po.sign)
                acc.add(pi.z, pi.weight, yd, pi.sign)
                stats.append(
                    PointStats(po.z, po.circle, iters, worst, worst_d,
                               reason, histories)
                )
            else:
                pt = points[i]
                acc.add(pt.z, pt.weight, y, pt.sign)
                stats.append(
                    PointStats(pt.z, pt.circle, iters, worst, 0.0,
                               reason, histories)
                )
        return stats

    def _run_lockstep(
        self,
        steppers: Dict[tuple, BiCGStepper],
        rule: ResidualRule,
        quorum: Optional[QuorumController],
        maxiter: int,
    ) -> None:
        """Serial emulation of the concurrent middle layer.

        All systems advance one iteration per round — exactly the
        behaviour of ``N_int × N_rh`` simultaneous BiCG instances — so
        the quorum rule stops stragglers at the same iteration count a
        parallel run would.
        """
        active = dict(steppers)
        for _round in range(maxiter):
            if not active:
                break
            finished = []
            for key, st in active.items():
                st.step()
                if st.done:  # breakdown
                    finished.append(key)
                elif st.meets(rule):
                    st.stop(StopReason.CONVERGED)
                    if quorum is not None:
                        quorum.mark_converged(key)
                    finished.append(key)
            for key in finished:
                active.pop(key)
            if quorum is not None and active and quorum.should_stop():
                for st in active.values():
                    st.stop(StopReason.QUORUM)
                active.clear()
        for st in active.values():
            st.stop(StopReason.MAXITER)

    def _run_threaded(
        self,
        steppers: Dict[tuple, BiCGStepper],
        rule: ResidualRule,
        quorum: Optional[QuorumController],
        maxiter: int,
    ) -> None:
        """Concurrent execution; the quorum controller is shared across
        threads and polled inside each solve."""
        def run(item):
            key, st = item
            while st.iterations < maxiter and not st.done:
                st.step()
                if st.done:
                    break
                if st.meets(rule):
                    st.stop(StopReason.CONVERGED)
                    if quorum is not None:
                        quorum.mark_converged(key)
                    break
                if quorum is not None and quorum.should_stop():
                    st.stop(StopReason.QUORUM)
                    break
            if not st.done:
                st.stop(StopReason.MAXITER)

        self._executor.map(run, list(steppers.items()))

    # -- batched BiCG path ---------------------------------------------------

    def _step1_bicg_batched(
        self,
        pencil: QuadraticPencil,
        contour: AnnulusContour,
        v: np.ndarray,
        acc: MomentAccumulator,
        warm: Optional[Step1WarmStart] = None,
    ) -> List[PointStats]:
        """Vectorized Step 1: every (shift, RHS) system advances together.

        The whole ``N_int × N_rh`` task grid becomes one stacked array
        problem (``repro.solvers.batched``): per BiCG round there is one
        batched pencil application and one adjoint application, instead
        of ``2 · N_int · N_rh`` Python-level matvec calls.  A non-serial
        executor shards the shift axis into per-thread sub-stacks.

        Quorum scope: with a single stack the controller spans all
        systems (exact lockstep semantics).  Sharded chunks advance at
        the scheduler's mercy, so a *global* controller would let a
        fast-scheduled chunk converge fully and kill barely-started
        chunks — each chunk therefore gets its own controller over its
        own systems (sound because convergence is uniform across
        quadrature points, paper Fig. 5).
        """
        cfg = self.config
        rule = ResidualRule(cfg.bicg_tol, cfg.bicg_maxiter)
        use_dual = self._use_dual(pencil, contour)
        n_rh = v.shape[1]

        if use_dual:
            pairs = contour.dual_pairs()
            shifts = np.array([po.z for po, _ in pairs], dtype=COMPLEX_DTYPE)
        else:
            points = contour.points()
            shifts = np.array([pt.z for pt in points], dtype=COMPLEX_DTYPE)
        n_shifts = shifts.shape[0]
        maxiter = rule.maxiter or max(10 * self.blocks.n, 100)

        b = np.broadcast_to(
            v[None, :, :], (n_shifts, self.blocks.n, n_rh)
        ).copy()
        precond = (
            np.stack([jacobi_preconditioner(pencil, z) for z in shifts])
            if cfg.jacobi
            else None
        )
        if warm is not None and not warm.matches(b.shape):
            warm = None  # stale cache (different config/model) — ignore

        workers = getattr(self._executor, "workers", 1)
        n_chunks = (
            1
            if isinstance(self._executor, SerialExecutor)
            else max(1, min(int(workers), n_shifts))
        )
        bounds = np.linspace(0, n_shifts, n_chunks + 1).astype(int)
        chunks = [
            (int(lo), int(hi))
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]

        def chunk_quorum(n_systems: int) -> Optional[QuorumController]:
            if cfg.quorum_fraction is None or n_systems <= 1:
                return None
            return QuorumController(n_systems, cfg.quorum_fraction)

        def run_chunk(span):
            lo, hi = span
            zs = shifts[lo:hi]
            chunk_warm = None
            if warm is not None:
                chunk_warm = Step1WarmStart(
                    warm.y0[lo:hi],
                    warm.yd0[lo:hi] if warm.yd0 is not None else None,
                )
            return run_batched_bicg(
                lambda x, zs=zs: pencil.apply_batch(zs, x),
                lambda x, zs=zs: pencil.apply_adjoint_batch(zs, x),
                b[lo:hi],
                b[lo:hi] if use_dual else None,
                rule=rule,
                quorum=chunk_quorum((hi - lo) * n_rh),
                quorum_offset=lo,
                maxiter=maxiter,
                precond=precond[lo:hi] if precond is not None else None,
                warm=chunk_warm,
                record_history=cfg.record_history,
            )

        engines = self._executor.map(run_chunk, chunks)

        # Fold solutions into the moments and collect statistics, shift
        # by shift, exactly as the lockstep path does.
        stats: List[PointStats] = []
        y_stack = np.concatenate([e.solution() for e in engines], axis=0)
        yd_stack = (
            np.concatenate([e.solution_dual() for e in engines], axis=0)
            if use_dual
            else None
        )
        for i in range(n_shifts):
            chunk_idx = int(np.searchsorted(bounds[1:], i, side="right"))
            eng = engines[chunk_idx]
            il = i - int(bounds[chunk_idx])
            iters = int(eng.iterations[il].sum())
            worst = float(eng.rel[il].max())
            worst_d = float(eng.rel_dual[il].max()) if use_dual else 0.0
            reason = "converged"
            for c in range(n_rh):
                code_reason = eng.reason(il, c)
                if code_reason is not StopReason.CONVERGED:
                    reason = code_reason.value
            histories = (
                [eng.history_for(il, c) for c in range(n_rh)]
                if cfg.record_history
                else []
            )
            if use_dual:
                po, pi = pairs[i]
                acc.add(po.z, po.weight, y_stack[i], po.sign)
                acc.add(pi.z, pi.weight, yd_stack[i], pi.sign)
                stats.append(
                    PointStats(po.z, po.circle, iters, worst, worst_d,
                               reason, histories)
                )
            else:
                pt = points[i]
                acc.add(pt.z, pt.weight, y_stack[i], pt.sign)
                stats.append(
                    PointStats(pt.z, pt.circle, iters, worst, 0.0,
                               reason, histories)
                )

        if cfg.keep_step1_solutions:
            self.last_step1 = Step1WarmStart(y_stack, yd_stack)
        return stats

    # ------------------------------------------------------------------
    # memory accounting (Figure 4(b))
    # ------------------------------------------------------------------

    def _memory_report(self, acc: MomentAccumulator, hankel_dim: int) -> MemoryReport:
        rep = MemoryReport()
        # The triple as stored: a real triple is about half the bytes
        # of its complex cast.
        rep.add("Hamiltonian blocks (sparse)", self.blocks.nbytes)
        rep.merge(acc.memory_report())
        # Hankel pair + SVD factors, all (n_rh*n_mm)^2 complex.
        rep.add("Hankel matrices + SVD", 4 * hankel_dim * hankel_dim * 16)
        # BiCG work vectors: x, xd, r, rt, p, pt, q, qt per concurrent solve.
        rep.add("BiCG work vectors", 8 * self.blocks.n * 16)
        return rep


# The built-in Step-1 strategies.  External code can add more via
# ``repro.solvers.registry.step1_strategy`` (same callable contract).
step1_strategy("direct")(SSHankelSolver._step1_direct)
step1_strategy("bicg")(SSHankelSolver._step1_bicg)
step1_strategy("bicg-batched")(SSHankelSolver._step1_bicg_batched)
