"""Adaptive scan orchestration: whole CBS workloads, not single solves.

The paper's Figure 11 workload is "200 independent calculations at
equidistant energies" — a layer of trivial parallelism *above* the three
Step-1 layers that a single :class:`repro.cbs.scan.CBSCalculator` never
exploits beyond a thread pool.  This module turns an energy scan into an
orchestrated workload:

* **Process sharding** — the sorted energy grid is split into contiguous
  shards (:func:`repro.parallel.executor.chunk_spans`), each shipped to
  a worker process as one picklable :class:`_ShardSpec`.  Warm starts
  (eigenvector seeding + Step-1 initial guesses, PR 1) are preserved
  *inside* each shard — the chain is chunk-local — and the per-shard
  slice lists are merged back in energy order.

* **Auto-tuned SS parameters** — each shard opens with a cheap
  stochastic rank probe of the moment matrices
  (:meth:`repro.ss.solver.SSHankelSolver.rank_probe`) and grows
  ``N_mm``/``N_rh`` only when the Hankel singular-value spectrum shows
  the subspace is saturated (rank pressing against capacity, the
  condition under which eigenvalues are silently missed).  In
  spectrally quiet windows — consecutive slices with zero Hankel rank —
  the quadrature is cheapened by shrinking ``N_int``, and restored (with
  a re-solve) the moment the spectrum reappears.

* **Band-edge grid refinement** — where adjacent slices disagree (mode
  count changes, or the dominant decay rate ``min |Im k|`` jumps — the
  fixed grid's blind spot at band edges) the interval is bisected until
  agreement, a minimum spacing, or a depth cap.

* **Persistent slice cache** — finished slices land in a
  :class:`repro.io.slice_cache.SliceCache` keyed by a hash of the pencil
  blocks + config, so repeated scans, refinement passes, and restarted
  runs skip every energy already solved.

The plain ``CBSCalculator.scan`` warm path delegates to
:func:`run_warm_chain` here, so the serial scan, the process shards and
the refinement passes all execute the identical slice-to-slice loop.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cbs.scan import CBSCalculator, CBSResult, EnergySlice
from repro.io.slice_cache import SliceCache, context_key
from repro.parallel.executor import chunk_spans, make_executor
from repro.qep.blocks import BlockTriple
from repro.ss.solver import SSConfig, SSHankelSolver, SSResult

#: Progress callback ``progress(done, total)``: invoked after every
#: yielded slice of a streamed scan.  ``done`` counts yielded slices;
#: ``total`` is the current known grid size and **may grow** while the
#: stream runs (adaptive refinement inserts energies), so treat
#: ``done == total`` as "caught up", not "finished".  This one
#: signature is shared by every streaming entry point —
#: :func:`repro.api.compute` / :func:`repro.api.compute_iter`,
#: :meth:`ScanOrchestrator.iter_scan`, and
#: :meth:`repro.transport.scan.TransportScanner.iter_scan`.
ProgressFn = Callable[[int, int], None]

#: Cancellation callback ``should_cancel() -> bool``: polled *between*
#: units of work, never mid-solve.  The poll points are: after every
#: consumed base-grid shard, at the start of every refinement round
#: *and* after every shard within a round, and between k∥ columns'
#: refinements — so a cancel lands within one shard's latency
#: wherever the scan happens to be.  Returning ``True`` ends the
#: stream early; everything already yielded stays valid (a partially
#: consumed refinement round is dropped whole, so the stream never
#: carries a torn round), and the blocking :func:`repro.api.compute`
#: returns the partial, energy-ordered, provenance-stamped result.
#: Shared by the same entry points as :data:`ProgressFn`.
CancelFn = Callable[[], bool]

# ----------------------------------------------------------------------
# policies
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TuningPolicy:
    """Knobs of the per-slice SS parameter auto-tuner.

    Attributes
    ----------
    enabled:
        Master switch; off reproduces the fixed-parameter scan.
    probe_rh:
        Source-block width of the stochastic rank probe (cost scales
        with it; 2 resolves any spectrum whose eigenvalue geometric
        multiplicities are ≤ 2, which covers the generic CBS case).
    probe_max_n_mm:
        Ceiling for the probe's own ``N_mm`` growth (the probe doubles
        its moment degree while its own Hankel matrix saturates).
    saturation_ratio:
        ``rank ≥ saturation_ratio × capacity`` counts as saturated —
        for the probe, for the pre-sizing, and for the in-scan regrow
        check on every full solve.
    headroom:
        Target capacity = ``headroom × estimated rank`` — the margin
        that keeps the singular-value gap clean (and absorbs modes that
        enter the ring as the scan moves in energy).
    max_n_mm, max_n_rh:
        Hard caps for the grown parameters.
    max_grow_rounds:
        Re-solve budget per energy when the full solve itself saturates.
    shrink_n_int:
        Allow halving ``N_int`` while the spectrum stays empty
        (spectrally quiet windows — hard gaps).  The first slice whose
        shrunk-contour solve shows nonzero rank is re-solved at the full
        ``N_int`` before anything is trusted.
    min_n_int:
        Floor for the shrunk quadrature.
    """

    enabled: bool = True
    probe_rh: int = 2
    probe_max_n_mm: int = 24
    saturation_ratio: float = 0.85
    headroom: float = 1.5
    max_n_mm: int = 24
    max_n_rh: int = 64
    max_grow_rounds: int = 3
    shrink_n_int: bool = True
    min_n_int: int = 8


@dataclass(frozen=True)
class RefinePolicy:
    """Knobs of the adaptive energy-grid refinement.

    A pair of adjacent slices *disagrees* — and its midpoint is solved —
    when the accepted mode count changes by more than ``count_tol``,
    when one slice has evanescent modes and the other none, or when the
    dominant decay rate ``min |Im k|`` jumps by more than ``kappa_tol``
    (in units of ``1/a``).  Bisection stops at ``min_de`` spacing,
    ``max_depth`` rounds, or ``max_new_slices`` insertions.
    """

    enabled: bool = True
    max_depth: int = 4
    count_tol: int = 0
    kappa_tol: float = 0.25
    min_de: float = 1e-3
    max_new_slices: int = 64


@dataclass(frozen=True)
class OrchestratorConfig:
    """How a :class:`ScanOrchestrator` runs a workload.

    Attributes
    ----------
    executor:
        Executor spec for the shard level (``"processes"``,
        ``("processes", k)``, ``"threads"``, an int, or ``None`` for
        serial).  Processes sidestep the GIL entirely — the paper's
        top-layer parallelism; the per-shard payload (blocks + config)
        is pickled once per shard.
    n_shards:
        Shard count; default = the executor's worker count.
    warm_start:
        Chunk-local warm starting inside each shard (recommended; the
        cross-shard boundaries start cold, which only costs iterations,
        never correctness).
    tuning, refine:
        The two adaptive policies.
    cache_dir:
        Slice-cache root directory; ``None`` disables persistence.
    """

    executor: object = "processes"
    n_shards: Optional[int] = None
    warm_start: bool = True
    tuning: TuningPolicy = TuningPolicy()
    refine: RefinePolicy = RefinePolicy()
    cache_dir: Optional[str] = None


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------


@dataclass
class ShardStats:
    """What one shard did (returned through the process boundary)."""

    e_lo: float
    e_hi: float
    n_energies: int
    cache_hits: int = 0
    solves: int = 0
    retunes: int = 0
    probe_rank: int = -1
    final_n_int: int = 0
    final_n_mm: int = 0
    final_n_rh: int = 0
    #: Wall time spent inside Step-1/2/3 solves in this shard — every
    #: attempt counted exactly once (cache hits contribute nothing).
    solve_seconds: float = 0.0


@dataclass
class ScanReport:
    """Aggregate telemetry of one orchestrated scan."""

    wall_seconds: float = 0.0
    n_shards: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    solves: int = 0
    retunes: int = 0
    #: Total solver wall time attributed to this run's actual solves
    #: (cache hits contribute zero; retune re-solves count every attempt
    #: exactly once — see :class:`ShardStats.solve_seconds`).
    solve_seconds: float = 0.0
    refine_rounds: int = 0
    #: Every bisection insertion as an ``(energy, k_par)`` pair —
    #: ``k_par`` is ``None`` on plain scans, so refinements from
    #: different k∥ columns stay distinguishable in telemetry.
    refined_energies: List[Tuple[float, Optional[float]]] = field(
        default_factory=list
    )
    shards: List[ShardStats] = field(default_factory=list)

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def absorb(self, stats: ShardStats) -> None:
        self.shards.append(stats)
        self.cache_hits += stats.cache_hits
        self.cache_misses += stats.n_energies - stats.cache_hits
        self.solves += stats.solves
        self.retunes += stats.retunes
        self.solve_seconds += stats.solve_seconds

    def summary(self) -> str:
        tuned = {
            (s.final_n_int, s.final_n_mm, s.final_n_rh) for s in self.shards
        }
        # Scalar scans keep the historical rendering; k∥ scans say how
        # many momentum columns the refinements came from.
        kpar_cols = {kp for _, kp in self.refined_energies if kp is not None}
        refined = f"{len(self.refined_energies)} refined slice(s)"
        if kpar_cols:
            refined += f" across {len(kpar_cols)} k∥ column(s)"
        return (
            f"{self.n_shards} shard(s), {self.solves} solve(s) "
            f"({self.retunes} retune re-solves), cache "
            f"{self.cache_hits}/{self.cache_hits + self.cache_misses} hits "
            f"({100.0 * self.cache_hit_rate:.0f}%), "
            f"{refined} in "
            f"{self.refine_rounds} round(s), tuned (N_int,N_mm,N_rh) "
            f"∈ {sorted(tuned)}, wall {self.wall_seconds:.2f}s"
        )


@dataclass
class OrchestratedScan:
    """An orchestrated scan's modes plus its telemetry."""

    result: CBSResult
    report: ScanReport


# ----------------------------------------------------------------------
# the warm chain (shared with CBSCalculator.scan)
# ----------------------------------------------------------------------


def _solve_one(
    calc: CBSCalculator, energy: float, prev: Optional[SSResult]
) -> Tuple[EnergySlice, SSResult]:
    """One slice through the calculator, seeded from ``prev`` if warm."""
    v = calc._seed_v(prev) if (calc.warm_start and prev is not None) else None
    warm = calc._solver.last_step1 if calc.warm_start else None
    return calc._solve_energy_full(energy, v=v, warm=warm)


def iter_warm_chain(
    calc: CBSCalculator,
    energies: Sequence[float],
    cache: Optional[SliceCache] = None,
    k_par: Optional[float] = None,
) -> Iterator[EnergySlice]:
    """The sequential warm-started scan loop, one slice at a time.

    Each slice seeds the next (eigenvector blend + Step-1 initial
    guesses); a cache hit yields the stored slice (with
    ``solve_seconds`` zeroed — this run did no solve work for it) and
    restarts the chain cold at the next miss, since the adjacency
    premise no longer holds across the skipped interval.  k∥-resolved
    callers pass their column's ``k_par`` so every slice — including
    what lands in the cache — carries the momentum tag.
    """
    # A previous scan's cached solutions belong to a (possibly distant)
    # unrelated energy — the adjacency premise only holds within this
    # chain, so start cold.
    calc._solver.last_step1 = None
    prev: Optional[SSResult] = None
    for energy in energies:
        if cache is not None:
            hit = cache.get_hit(energy)
            if hit is not None:
                if k_par is not None:
                    hit.k_par = k_par
                yield hit
                prev = None
                calc._solver.last_step1 = None
                continue
        sl, prev = _solve_one(calc, energy, prev)
        if k_par is not None:
            sl.k_par = k_par
        if cache is not None:
            cache.put(sl)
        yield sl


def run_warm_chain(
    calc: CBSCalculator,
    energies: Sequence[float],
    cache: Optional[SliceCache] = None,
) -> List[EnergySlice]:
    """:func:`iter_warm_chain`, collected (the blocking scan path)."""
    return list(iter_warm_chain(calc, energies, cache))


# ----------------------------------------------------------------------
# auto-tuning helpers
# ----------------------------------------------------------------------


def _grow_size(
    target: int, n_mm: int, n_rh: int, pol: TuningPolicy
) -> Tuple[int, int]:
    """Smallest ``(n_mm, n_rh)`` with capacity ≥ target, growing the
    right-hand-side block first (extra RHS cost, but it keeps the moment
    degree — and with it the Hankel conditioning, which degrades as
    ``|λ|^(2 N_mm − 1)`` — low), then the moment degree."""
    n_rh2 = min(pol.max_n_rh, max(n_rh, math.ceil(target / max(n_mm, 1))))
    n_mm2 = n_mm
    if n_mm2 * n_rh2 < target:
        n_mm2 = min(pol.max_n_mm, max(n_mm, math.ceil(target / n_rh2)))
    return n_mm2, n_rh2


def _saturated(rank: int, capacity: int, pol: TuningPolicy) -> bool:
    return capacity > 0 and rank >= pol.saturation_ratio * capacity


def _has_ring_spectrum(res: SSResult, cfg: SSConfig) -> bool:
    """Whether a solve shows any spectrum *inside* the ring.

    Distinguishes a genuinely quiet window from quadrature leakage of
    out-of-ring eigenvalues: leaked Ritz values approximate eigenvalues
    outside the ring, so requiring an in-ring raw eigenvalue (or an
    accepted mode) is robust at any ``N_int``, where a bare rank check
    is not — coarse contours leak well above the noise floor.
    """
    if res.count > 0:
        return True
    if res.effective_rank() == 0 or res.raw_eigenvalues.size == 0:
        return False
    return bool(cfg.make_contour().contains_many(res.raw_eigenvalues).any())


def _pretune(
    blocks: BlockTriple, cfg: SSConfig, energy: float, pol: TuningPolicy
) -> Tuple[SSConfig, int]:
    """Size ``N_mm``/``N_rh`` from a stochastic rank probe at ``energy``.

    Returns the (possibly grown) config and the probe's rank estimate
    (−1 when the probe failed and tuning proceeds blind)."""
    from repro.errors import SingularPencilError
    from repro.ss.solver import SSHankelSolver

    solver = SSHankelSolver(blocks, cfg, validate=False)
    probe_mm = max(2, cfg.n_mm)
    try:
        while True:
            probe = solver.rank_probe(
                energy, n_rh=pol.probe_rh, n_mm=probe_mm
            )
            if not _saturated(probe.rank, probe.capacity, pol):
                break
            if probe_mm >= pol.probe_max_n_mm:
                break
            probe_mm = min(pol.probe_max_n_mm, 2 * probe_mm)
    except SingularPencilError:
        return cfg, -1
    m_hat = probe.rank
    target = math.ceil(pol.headroom * m_hat)
    if target > cfg.subspace_capacity:
        n_mm, n_rh = _grow_size(target, cfg.n_mm, cfg.n_rh, pol)
        if (n_mm, n_rh) != (cfg.n_mm, cfg.n_rh):
            cfg = replace(cfg, n_mm=n_mm, n_rh=n_rh)
    return cfg, m_hat


# ----------------------------------------------------------------------
# shard work units (picklable; solved by a module-level function)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _ShardSpec:
    """One contiguous (E, k∥) tile of a scan, shippable to a process.

    ``k_par`` tags the tile's transverse-momentum column (``None`` for
    plain 1D scans); warm chains stay within the tile, i.e. along the
    energy axis of one k∥ column.
    """

    blocks: BlockTriple
    config: SSConfig
    energies: Tuple[float, ...]
    propagating_tol: float
    warm_start: bool
    tuning: TuningPolicy
    cache_root: Optional[str] = None
    cache_context: Optional[str] = None
    k_par: Optional[float] = None


def _solve_shard(spec: _ShardSpec) -> Tuple[List[EnergySlice], ShardStats]:
    """Solve one shard: chunk-local warm chain + auto-tuning + cache.

    Module-level so :class:`repro.parallel.executor.ProcessExecutor` can
    pickle it; everything it needs rides in the spec.
    """
    energies = list(spec.energies)
    stats = ShardStats(
        e_lo=min(energies) if energies else math.nan,
        e_hi=max(energies) if energies else math.nan,
        n_energies=len(energies),
    )
    cache = (
        SliceCache(spec.cache_root, context=spec.cache_context)
        if spec.cache_root and spec.cache_context
        else None
    )
    pol = spec.tuning
    cfg = spec.config.resolved(spec.blocks.n)

    def build(c: SSConfig) -> CBSCalculator:
        return CBSCalculator(
            spec.blocks,
            c,
            propagating_tol=spec.propagating_tol,
            warm_start=spec.warm_start,
        )

    if pol.enabled and energies:
        first_uncached = next(
            (e for e in energies if cache is None or e not in cache),
            None,
        )
        if first_uncached is not None:
            cfg, stats.probe_rank = _pretune(
                spec.blocks, cfg, first_uncached, pol
            )

    calc = build(cfg)
    base_n_int = cfg.n_int
    quiet = False
    slices: List[EnergySlice] = []
    prev: Optional[SSResult] = None

    for energy in energies:
        if cache is not None:
            hit = cache.get_hit(energy)
            if hit is not None:
                stats.cache_hits += 1
                hit.k_par = spec.k_par
                slices.append(hit)
                prev = None
                calc._solver.last_step1 = None
                continue

        if pol.enabled and pol.shrink_n_int:
            want = max(pol.min_n_int, base_n_int // 2) if quiet else base_n_int
            if want != calc.config.n_int:
                cfg = replace(cfg, n_int=want)
                calc = build(cfg)
                prev = None

        sl, res = _solve_one(calc, energy, prev)
        stats.solves += 1
        stats.solve_seconds += sl.solve_seconds

        if pol.enabled:
            # A shrunk-contour solve that found in-ring spectrum cannot
            # be trusted (coarser quadrature): restore N_int and redo.
            # Every attempt's time accumulates onto the slice, so the
            # final EnergySlice.solve_seconds is the full cost of
            # producing it — each attempt counted exactly once.
            if (
                quiet
                and calc.config.n_int < base_n_int
                and _has_ring_spectrum(res, calc.config)
            ):
                cfg = replace(cfg, n_int=base_n_int)
                calc = build(cfg)
                prev = None
                spent = sl.solve_seconds
                sl, res = _solve_one(calc, energy, None)
                stats.solves += 1
                stats.solve_seconds += sl.solve_seconds
                sl.solve_seconds += spent
                stats.retunes += 1

            # Grow only when the saturation can actually hide in-ring
            # modes: leakage of *out-of-ring* eigenvalues also fills the
            # Hankel spectrum (especially at shrunk N_int) but there is
            # nothing inside the ring to miss.
            rounds = 0
            while (
                _saturated(
                    res.effective_rank(), calc.config.subspace_capacity, pol
                )
                and _has_ring_spectrum(res, calc.config)
                and rounds < pol.max_grow_rounds
            ):
                target = math.ceil(pol.headroom * max(res.effective_rank(), 1))
                n_mm, n_rh = _grow_size(
                    target, calc.config.n_mm, calc.config.n_rh, pol
                )
                if (n_mm, n_rh) == (calc.config.n_mm, calc.config.n_rh):
                    break  # caps reached — keep what we have
                cfg = replace(cfg, n_mm=n_mm, n_rh=n_rh)
                calc = build(cfg)
                prev = None
                spent = sl.solve_seconds
                sl, res = _solve_one(calc, energy, None)
                stats.solves += 1
                stats.solve_seconds += sl.solve_seconds
                sl.solve_seconds += spent
                stats.retunes += 1
                rounds += 1

            quiet = not _has_ring_spectrum(res, calc.config)

        sl.k_par = spec.k_par
        slices.append(sl)
        prev = res
        if cache is not None:
            cache.put(sl)

    stats.final_n_int = cfg.n_int
    stats.final_n_mm = cfg.n_mm
    stats.final_n_rh = cfg.n_rh
    return slices, stats


# ----------------------------------------------------------------------
# refinement predicates
# ----------------------------------------------------------------------


def _min_imag_k(sl: EnergySlice) -> float:
    ev = sl.evanescent()
    if not ev:
        return math.nan
    return min(abs(m.k.imag) for m in ev)


def _slices_disagree(a: EnergySlice, b: EnergySlice, pol: RefinePolicy) -> bool:
    if abs(a.count - b.count) > pol.count_tol:
        return True
    ka, kb = _min_imag_k(a), _min_imag_k(b)
    if math.isnan(ka) != math.isnan(kb):
        return True  # a band edge: evanescent spectrum (dis)appears
    if not math.isnan(ka) and abs(ka - kb) > pol.kappa_tol:
        return True
    return False


# ----------------------------------------------------------------------
# the orchestrator
# ----------------------------------------------------------------------


class ScanOrchestrator:
    """Process-parallel, auto-tuned, cache-backed CBS energy scans.

    Parameters
    ----------
    blocks:
        Unit-cell block triple.
    config:
        Base :class:`SSConfig`; the auto-tuner derives per-slice configs
        from it (``config.resolved(n)`` collapses ``"auto"`` first).
    propagating_tol:
        Mode-classification tolerance (as in :class:`CBSCalculator`).
    warm_start:
        Chunk-local warm chains inside shards.
    orch:
        The :class:`OrchestratorConfig` (default: process executor,
        tuning + refinement on, no cache).

    Examples
    --------
    >>> from repro.models import TransverseLadder
    >>> from repro.cbs.orchestrator import ScanOrchestrator, OrchestratorConfig
    >>> lad = TransverseLadder(width=2)
    >>> from repro.ss import SSConfig
    >>> orc = ScanOrchestrator(
    ...     lad.blocks(),
    ...     SSConfig(n_int=16, n_mm=2, n_rh=2, seed=1),
    ...     orch=OrchestratorConfig(executor=None),
    ... )
    >>> scan = orc.scan([0.0])
    >>> scan.result.slices[0].count
    4
    """

    def __init__(
        self,
        blocks: BlockTriple,
        config: Optional[SSConfig] = None,
        *,
        propagating_tol: float = 1e-6,
        warm_start: bool = True,
        orch: Optional[OrchestratorConfig] = None,
        cache_context: Optional[str] = None,
        _internal: bool = False,
    ) -> None:
        if not _internal:
            warnings.warn(
                "Constructing ScanOrchestrator directly is deprecated; "
                "declare the workload as a repro.api.CBSJob with "
                "ExecutionSpec(mode='orchestrated') and run it through "
                "repro.api.compute(job) / compute_iter(job).",
                DeprecationWarning,
                stacklevel=2,
            )
        self.blocks = blocks
        self.config = config or SSConfig()
        self.propagating_tol = float(propagating_tol)
        self.warm_start = bool(warm_start)
        self.orch = orch or OrchestratorConfig()
        self._executor = make_executor(self.orch.executor)
        # The tuning policy changes the effective per-slice solver
        # parameters, so it is part of the cache identity — a tuned and
        # an untuned run must never share slice entries.  repro.api
        # passes its job-derived cache context explicitly; the legacy
        # path derives one from the live blocks/config.
        if cache_context is not None:
            self._cache_context = cache_context if self.orch.cache_dir else None
        else:
            self._cache_context = (
                context_key(
                    blocks,
                    self.config,
                    self.propagating_tol,
                    extra=("tuning", self.orch.tuning),
                )
                if self.orch.cache_dir
                else None
            )

    # ------------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return int(self.orch.n_shards or getattr(self._executor, "workers", 1))

    def _tile_spec(
        self,
        blocks: BlockTriple,
        energies: Sequence[float],
        k_par: Optional[float],
        cache_context: Optional[str],
    ) -> _ShardSpec:
        """One (E, k∥) tile work unit of the column at ``k_par``."""
        return _ShardSpec(
            blocks=blocks,
            config=self.config,
            energies=tuple(float(e) for e in energies),
            propagating_tol=self.propagating_tol,
            warm_start=self.warm_start and self.orch.warm_start,
            tuning=self.orch.tuning,
            cache_root=self.orch.cache_dir,
            cache_context=cache_context,
            k_par=k_par,
        )

    def _imap_shards(
        self, specs: List[_ShardSpec]
    ) -> Iterator[Tuple[List[EnergySlice], ShardStats]]:
        if len(specs) <= 1:
            for s in specs:
                yield _solve_shard(s)
            return
        yield from self._executor.imap(_solve_shard, specs)

    # ------------------------------------------------------------------

    def iter_scan(
        self,
        energies: Sequence[float],
        *,
        report: Optional[ScanReport] = None,
        progress: Optional[ProgressFn] = None,
        should_cancel: Optional[CancelFn] = None,
    ) -> Iterator[EnergySlice]:
        """Stream the orchestrated workload slice by slice.

        The one-column case of :meth:`iter_kpar_scan`: the orchestrator's
        own blocks and cache context, tagged ``k_par=None``.  The sorted
        grid's shards are submitted up front; results are yielded in
        ascending energy order as each next-in-order shard completes
        (later shards keep computing while earlier slices are consumed).
        Refinement insertions follow after the base grid, per bisection
        round, in ascending order within each round.

        ``progress(done, total)`` is called after every yielded slice
        (``total`` grows when refinement inserts energies);
        ``should_cancel()`` is polled between shards and refinement
        rounds — on cancellation the stream ends early with whatever
        was already produced.  Telemetry accumulates into ``report``
        (one is created and discarded when not supplied).
        """
        return self._iter_tiles(
            energies,
            [(None, self.blocks)],
            [self._cache_context],
            report,
            progress,
            should_cancel,
        )

    def iter_kpar_scan(
        self,
        energies: Sequence[float],
        columns: Sequence[Tuple[Optional[float], BlockTriple]],
        *,
        cache_contexts: Optional[Sequence[Optional[str]]] = None,
        report: Optional[ScanReport] = None,
        progress: Optional[ProgressFn] = None,
        should_cancel: Optional[CancelFn] = None,
    ) -> Iterator[EnergySlice]:
        """Stream an orchestrated (E, k∥) product-grid scan.

        The 2D grid is sharded into (E, k∥) tiles: every k∥ column's
        energy grid is split into contiguous spans, all tiles are
        submitted to the executor up front, and slices are yielded in
        (k∥, E) order as each next-in-order tile completes — later
        columns keep computing while earlier slices are consumed.
        Warm chains run along the energy axis *within* a tile (one k∥
        column), never across columns.  Band-edge refinement then runs
        per column, since adjacent-slice disagreement is only
        meaningful at fixed k∥; refinement insertions stream after the
        base grid exactly as in :meth:`iter_scan`.

        Parameters
        ----------
        energies : sequence of float
            The shared energy grid (one column per k∥ point).
        columns : sequence of (float or None, BlockTriple)
            ``(k_par, blocks)`` per transverse momentum — the blocks
            built at that k∥ (e.g. through a ``k_par``-aware registry
            builder).  ``k_par`` is stamped on the column's slices as
            given; a plain scan is the single column ``(None, blocks)``.
        cache_contexts : sequence of str or None, optional
            Per-column slice-cache context keys (k∥ folded in —
            :meth:`repro.api.CBSJob.cache_context` does this); required
            when the orchestrator has a cache directory.
        report, progress, should_cancel :
            As in :meth:`iter_scan` (``progress`` counts over the full
            product grid and grows with refinement).
        """
        if cache_contexts is None:
            cache_contexts = [None] * len(columns)
        return self._iter_tiles(
            energies, columns, cache_contexts, report, progress, should_cancel
        )

    def _iter_tiles(
        self,
        energies: Sequence[float],
        columns: Sequence[Tuple[Optional[float], BlockTriple]],
        cache_contexts: Sequence[Optional[str]],
        report: Optional[ScanReport],
        progress: Optional[ProgressFn],
        should_cancel: Optional[CancelFn],
    ) -> Iterator[EnergySlice]:
        """The one scan loop behind :meth:`iter_scan` and
        :meth:`iter_kpar_scan`: tile, stream, then refine per column."""
        report = ScanReport() if report is None else report
        t0 = time.perf_counter()
        grid = sorted({float(e) for e in energies})
        done = 0
        total = len(grid) * len(columns)
        try:
            if not grid or not columns:
                return
            if self.orch.cache_dir and any(
                ctx is None for ctx in cache_contexts
            ):
                raise ValueError(
                    "iter_kpar_scan with cache_dir needs one cache "
                    "context per k∥ column"
                )
            n_tiles = max(1, math.ceil(self.n_shards / len(columns)))
            spans = chunk_spans(len(grid), n_tiles)
            specs = [
                self._tile_spec(blk, grid[lo:hi], k, ctx)
                for (k, blk), ctx in zip(columns, cache_contexts)
                for lo, hi in spans
            ]
            report.n_shards = len(specs)

            tiles_per_col = len(spans)
            col_slices: List[List[EnergySlice]] = [[] for _ in columns]
            for i, (shard_slices, stats) in enumerate(
                self._imap_shards(specs)
            ):
                report.absorb(stats)
                col_slices[i // tiles_per_col].extend(shard_slices)
                for sl in shard_slices:
                    done += 1
                    if progress is not None:
                        progress(done, total)
                    yield sl
                if should_cancel is not None and should_cancel():
                    return

            for ci, ((k, blk), ctx) in enumerate(zip(columns, cache_contexts)):
                # The last tile's poll already covers the first column.
                if ci and should_cancel is not None and should_cancel():
                    return
                column = sorted(col_slices[ci], key=lambda s: s.energy)
                for new_slices in self._iter_refine(
                    column,
                    report,
                    should_cancel,
                    blocks=blk,
                    k_par=k,
                    cache_context=ctx,
                ):
                    total += len(new_slices)
                    for sl in new_slices:
                        done += 1
                        if progress is not None:
                            progress(done, total)
                        yield sl
        finally:
            report.wall_seconds = time.perf_counter() - t0

    def scan(self, energies: Sequence[float]) -> OrchestratedScan:
        """Run the full orchestrated workload over ``energies``.

        The blocking form of :meth:`iter_scan`: collects the stream,
        merges it in energy order, and returns the result with its
        telemetry report.
        """
        report = ScanReport()
        slices = list(self.iter_scan(energies, report=report))
        slices.sort(key=lambda s: s.energy)
        return OrchestratedScan(
            CBSResult(slices, self.blocks.cell_length), report
        )

    def scan_window(
        self, e_min: float, e_max: float, n_energies: int
    ) -> OrchestratedScan:
        """Equidistant orchestrated scan over ``[e_min, e_max]``."""
        if n_energies < 1:
            raise ValueError(f"n_energies must be >= 1, got {n_energies}")
        return self.scan(np.linspace(e_min, e_max, n_energies))

    # ------------------------------------------------------------------

    def _iter_refine(
        self,
        slices: List[EnergySlice],
        report: ScanReport,
        should_cancel: Optional[CancelFn],
        *,
        blocks: BlockTriple,
        k_par: Optional[float],
        cache_context: Optional[str],
    ) -> Iterator[List[EnergySlice]]:
        """Bisection rounds of one k∥ column as a generator of per-round
        slice batches.

        ``slices`` (the column's sorted scan so far) is extended and
        re-sorted in place each round, so the caller's list always holds
        the complete merged column when the generator is exhausted.  The
        bisection solves run against the column's ``blocks`` under its
        ``cache_context`` and are tagged with its ``k_par``.
        """
        pol = self.orch.refine
        if not pol.enabled or len(slices) < 2:
            return
        solved: Set[float] = {s.energy for s in slices}
        for _depth in range(pol.max_depth):
            if should_cancel is not None and should_cancel():
                return
            budget = pol.max_new_slices - len(report.refined_energies)
            if budget <= 0:
                break
            mids: List[float] = []
            for a, b in zip(slices, slices[1:]):
                if b.energy - a.energy <= pol.min_de:
                    continue
                if not _slices_disagree(a, b, pol):
                    continue
                mid = 0.5 * (a.energy + b.energy)
                if mid in solved:
                    continue
                mids.append(mid)
                if len(mids) >= budget:
                    break
            if not mids:
                break
            spans = chunk_spans(len(mids), self.n_shards)
            specs = [
                self._tile_spec(blocks, mids[lo:hi], k_par, cache_context)
                for lo, hi in spans
            ]
            round_slices: List[EnergySlice] = []
            for shard_slices, stats in self._imap_shards(specs):
                round_slices.extend(shard_slices)
                report.absorb(stats)
                if should_cancel is not None and should_cancel():
                    # Mid-round cancel: drop the partial round entirely
                    # (nothing from it was yielded, so the caller's
                    # stream stays consistent; the finished shard
                    # solves are still in the slice cache).
                    return
            solved.update(mids)
            report.refined_energies.extend((m, k_par) for m in mids)
            report.refine_rounds += 1
            slices.extend(round_slices)
            slices.sort(key=lambda s: s.energy)
            yield sorted(round_slices, key=lambda s: s.energy)
