"""Transmission scans: serial, streamed, cached, and process-sharded.

Mirrors the CBS scan stack one level up the physics: where a CBS scan
maps energies to :class:`repro.cbs.scan.EnergySlice`, a transport scan
maps them to :class:`TransportSlice` — electrode self-energies
``Σ_L/Σ_R`` (SS contour route by default, Sancho-Rubio decimation as
the cross-check engine) plus the Landauer transmission of a
:class:`repro.transport.device.TwoProbeDevice`.

The orchestration treatment is the same as for CBS scans
(:mod:`repro.cbs.orchestrator`): the sorted grid is split into
contiguous shards (:func:`repro.parallel.executor.chunk_spans`), each
shipped to a worker process as one picklable
:class:`_TransportShardSpec`, merged back in energy order, streamed
slice by slice with the shared progress/cancellation callbacks
(:data:`repro.cbs.orchestrator.ProgressFn` /
:data:`~repro.cbs.orchestrator.CancelFn`), and persisted through the
same :class:`repro.io.slice_cache.SliceCache` root (transport entries
are keyed alongside CBS slices, in their own context directory).
Telemetry reuses :class:`~repro.cbs.orchestrator.ScanReport` /
:class:`~repro.cbs.orchestrator.ShardStats`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.cbs.orchestrator import (
    CancelFn,
    ProgressFn,
    ScanReport,
    ShardStats,
)
from repro.errors import ConfigurationError
from repro.io.slice_cache import SliceCache
from repro.parallel.executor import chunk_spans, make_executor
from repro.qep.blocks import BlockTriple
from repro.transport.decimation import decimation_self_energies
from repro.transport.device import TwoProbeDevice
from repro.transport.selfenergy import SelfEnergyConfig, ss_self_energies

#: Version of the TransportResult schema (in memory and as persisted by
#: :mod:`repro.io.results`).  Bump on incompatible layout changes.
#: Version 2 added the per-slice k∥ axis (``k_par``/``k_weight``);
#: loaders accept version-1 files and reject anything newer.
TRANSPORT_RESULT_SCHEMA_VERSION = 2


def monkhorst_pack(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """A 1D Monkhorst-Pack transverse-momentum grid and its weights.

    The standard shifted uniform sampling of one transverse period,
    ``θ_j = (2j − n − 1)π/n`` for ``j = 1 … n`` (dimensionless Bloch
    phases in ``(−π, π)``; ``n = 1`` is the zone center Γ̄, even ``n``
    avoids it), each carrying equal weight ``1/n`` so the weights sum
    to one and a Brillouin-zone average is a plain weighted sum.

    Parameters
    ----------
    n : int
        Number of k∥ points (``>= 1``).

    Returns
    -------
    (numpy.ndarray, numpy.ndarray)
        ``(points, weights)``, both length ``n``, points ascending.

    Examples
    --------
    >>> from repro.transport.scan import monkhorst_pack
    >>> pts, w = monkhorst_pack(2)
    >>> [float(round(p, 6)) for p in pts], [float(x) for x in w]
    ([-1.570796, 1.570796], [0.5, 0.5])
    """
    if n < 1:
        raise ConfigurationError(f"monkhorst_pack needs n >= 1, got {n}")
    j = np.arange(1, n + 1, dtype=np.float64)
    points = (2.0 * j - n - 1.0) * math.pi / n
    weights = np.full(n, 1.0 / n)
    return points, weights


@dataclass
class TransportSlice:
    """Transport quantities at one energy.

    Attributes
    ----------
    energy : float
        Real energy ``E`` (the solve ran at ``E + iη``).
    transmission : float
        Landauer transmission ``T(E)``.
    sigma_l, sigma_r : numpy.ndarray
        Retarded electrode self-energies (dense ``N × N``).
    n_channels : int
        Open-channel estimate: lead modes within ``10·√η`` of the unit
        circle, halved (each channel contributes a ± pair).  Diagnostic
        only — near band edges the split is genuinely ambiguous at
        finite ``η``.
    total_iterations : int
        Step-1 iteration total of the SS solve (zero on the direct
        path and for the decimation engine).
    solve_seconds : float
        Wall time spent producing this slice (zeroed on cache hits).
    k_par : float or None
        Transverse Bloch phase the lead blocks were built at (``None``
        for plain 1D transport scans).
    k_weight : float
        Brillouin-zone weight of this slice's k∥ point (``1.0`` for
        plain scans); :meth:`TransportResult.total_transmissions` sums
        ``k_weight × transmission`` per energy.
    """

    energy: float
    transmission: float
    sigma_l: np.ndarray
    sigma_r: np.ndarray
    n_channels: int = 0
    total_iterations: int = 0
    solve_seconds: float = 0.0
    k_par: Optional[float] = None
    k_weight: float = 1.0


@dataclass
class TransportResult:
    """A full transmission scan, one :class:`TransportSlice` per energy.

    Like :class:`repro.cbs.CBSResult`, a schema-versioned,
    provenance-stamped record: :func:`repro.api.compute` fills
    ``provenance`` and :mod:`repro.io.results` persists/validates both.
    """

    slices: List[TransportSlice]
    cell_length: float
    schema_version: int = TRANSPORT_RESULT_SCHEMA_VERSION
    provenance: Dict[str, Any] = field(default_factory=dict)

    @property
    def energies(self) -> np.ndarray:
        """Slice energies, ascending."""
        return np.array([s.energy for s in self.slices])

    def transmissions(self) -> np.ndarray:
        """``T(E)`` over the grid (same order as :attr:`energies`)."""
        return np.array([s.transmission for s in self.slices])

    def channel_counts(self) -> np.ndarray:
        """Open-channel estimates over the grid."""
        return np.array([s.n_channels for s in self.slices], dtype=np.int64)

    def conductance_quantum_units(self) -> np.ndarray:
        """Alias of :meth:`transmissions`: ``G/G₀ = T`` in linear response."""
        return self.transmissions()

    # -- the k∥ axis --------------------------------------------------------

    def k_pars(self) -> List[float]:
        """Distinct transverse momenta in this result, ascending
        (empty for plain 1D scans)."""
        return sorted(
            {s.k_par for s in self.slices if s.k_par is not None}
        )

    def at_kpar(self, k_par: Optional[float]) -> "TransportResult":
        """The k∥-resolved column at ``k_par`` (exact match;
        ``None`` selects the plain slices).  Shares slice objects and
        provenance with this result."""
        column = [s for s in self.slices if s.k_par == k_par]
        return TransportResult(
            column,
            self.cell_length,
            schema_version=self.schema_version,
            provenance=self.provenance,
        )

    def total_transmissions(self) -> Tuple[np.ndarray, np.ndarray]:
        """The Brillouin-zone-summed transmission over the energy grid.

        Returns ``(energies, T_total)`` with
        ``T_total(E) = Σ_{k∥} w_{k∥} T(E, k∥)`` — the quantity entering
        the Landauer conductance of a 3D/2D lead (Iwase et al.,
        arXiv:1709.09324).  For a plain 1D scan (one implicit k∥ point
        of weight one) this equals :meth:`transmissions`.
        """
        totals: Dict[float, float] = {}
        for s in self.slices:
            totals[s.energy] = (
                totals.get(s.energy, 0.0) + s.k_weight * s.transmission
            )
        energies = np.array(sorted(totals))
        return energies, np.array([totals[e] for e in energies])


# ----------------------------------------------------------------------
# the per-energy engine
# ----------------------------------------------------------------------


class TransportCalculator:
    """Per-energy transport solves over one two-probe device.

    Parameters
    ----------
    device : TwoProbeDevice
        The junction (leads + central region).
    config : SelfEnergyConfig, optional
        Numerics of the self-energy solve (defaults when omitted).
    method : {"ss", "decimation"}, optional
        Self-energy engine: the Sakurai-Sugiura contour route
        (default) or Sancho-Rubio decimation (the baseline — useful for
        cross-validation runs; both engines share ``η``).

    Examples
    --------
    >>> from repro.models import MonatomicChain
    >>> from repro.transport import TwoProbeDevice, TransportCalculator
    >>> dev = TwoProbeDevice(MonatomicChain(hopping=-1.0).blocks())
    >>> calc = TransportCalculator(dev)
    >>> sl = calc.solve_energy(0.3)          # inside the band
    >>> bool(abs(sl.transmission - 1.0) < 1e-4)
    True
    """

    def __init__(
        self,
        device: TwoProbeDevice,
        config: Optional[SelfEnergyConfig] = None,
        *,
        method: str = "ss",
    ) -> None:
        if method not in ("ss", "decimation"):
            raise ConfigurationError(
                f"method must be 'ss' or 'decimation', got {method!r}"
            )
        self.device = device
        self.config = config or SelfEnergyConfig()
        self.method = method

    def solve_energy(self, energy: float) -> TransportSlice:
        """One transport slice: ``Σ_L``, ``Σ_R``, and ``T(energy)``."""
        t0 = time.perf_counter()
        cfg = self.config
        iters = 0
        n_channels = 0
        if self.method == "ss":
            sig_l, sig_r, modes = ss_self_energies(
                self.device.lead, energy, cfg
            )
            iters = modes.total_iterations
            window = 10.0 * math.sqrt(cfg.eta)
            near_unit = np.abs(np.abs(modes.eigenvalues) - 1.0) <= window
            n_channels = int(np.count_nonzero(near_unit)) // 2
        else:
            sig_l, sig_r = decimation_self_energies(
                self.device.lead, energy, eta=cfg.eta
            )
        t = self.device.transmission(
            energy, sig_l, sig_r, eta=cfg.eta
        )
        return TransportSlice(
            energy=float(energy),
            transmission=float(t),
            sigma_l=sig_l,
            sigma_r=sig_r,
            n_channels=n_channels,
            total_iterations=iters,
            solve_seconds=time.perf_counter() - t0,
        )

    def iter_scan_cached(
        self,
        energies: Sequence[float],
        cache: Optional[SliceCache] = None,
        *,
        k_par: Optional[float] = None,
        k_weight: float = 1.0,
    ) -> Iterator[Tuple[TransportSlice, bool]]:
        """Yield ``(slice, from_cache)`` in the given energy order.

        The one cache-protocol loop behind every transport scan path
        (the facade's serial route, :meth:`scan`, and the process-shard
        solver): hits are served with ``solve_seconds`` zeroed, misses
        are solved and persisted as they complete.  k∥-resolved callers
        pass their column's ``k_par``/``k_weight`` so every slice —
        including what lands in the cache — carries the tag; hits are
        restamped too (their per-momentum context guarantees agreement,
        this just keeps the slice authoritative either way).
        """
        for energy in energies:
            sl = (
                cache.get_transport_hit(energy)
                if cache is not None
                else None
            )
            if sl is not None:
                if k_par is not None:
                    sl.k_par = k_par
                    sl.k_weight = k_weight
                yield sl, True
                continue
            sl = self.solve_energy(energy)
            if k_par is not None:
                sl.k_par = k_par
                sl.k_weight = k_weight
            if cache is not None:
                cache.put_transport(sl)
            yield sl, False

    def scan(
        self, energies: Sequence[float], cache: Optional[SliceCache] = None
    ) -> TransportResult:
        """Serial transmission scan (ascending energy order)."""
        grid = sorted(float(x) for x in energies)
        slices = [sl for sl, _hit in self.iter_scan_cached(grid, cache)]
        return TransportResult(slices, self.device.lead.cell_length)

    @staticmethod
    def kpar_scan(
        device_factory: "callable",
        energies: Sequence[float],
        *,
        n_kpar: Optional[int] = None,
        k_pars: Optional[Sequence[float]] = None,
        weights: Optional[Sequence[float]] = None,
        config: Optional[SelfEnergyConfig] = None,
        method: str = "ss",
    ) -> TransportResult:
        """Monkhorst-Pack k∥-summed transmission scan (serial reference).

        Sweeps the transverse Brillouin zone, building one two-probe
        device per k∥ point, scanning the energy grid at each, and
        stamping every slice with its ``(k_par, k_weight)`` so the
        returned result carries both the k∥-resolved transmissions and
        (via :meth:`TransportResult.total_transmissions`) the BZ sum.
        For sharded/cached sweeps declare the workload as a
        :class:`repro.api.CBSJob` with a :class:`repro.api.KParSpec`
        instead.

        Parameters
        ----------
        device_factory : callable
            ``device_factory(k_par) -> TwoProbeDevice``: the junction
            at one transverse momentum (typically wrapping a
            ``k_par``-aware system builder).
        energies : sequence of float
            The energy grid (scanned ascending at every k∥).
        n_kpar : int, optional
            Monkhorst-Pack point count (:func:`monkhorst_pack`);
            exactly one of ``n_kpar`` and ``k_pars`` must be given.
        k_pars : sequence of float, optional
            Explicit transverse momenta (dimensionless Bloch phases).
        weights : sequence of float, optional
            BZ weights matching ``k_pars`` (default: equal weights
            summing to one).  Rejected with ``n_kpar``.
        config : SelfEnergyConfig, optional
            Self-energy numerics (shared across the sweep).
        method : {"ss", "decimation"}, optional
            Self-energy engine.

        Returns
        -------
        TransportResult
            All ``len(k∥) × len(E)`` slices, ordered by (k∥, E).
        """
        # One validation contract for every entry to the sweep: resolve
        # through KParSpec (distinct momenta, positive finite weights,
        # values co-sorted ascending, grid XOR values).  Imported
        # lazily — repro.api's package __init__ imports this module.
        from repro.api.spec import KParSpec

        spec = KParSpec(
            values=(
                tuple(float(k) for k in k_pars)
                if k_pars is not None
                else None
            ),
            grid=n_kpar,
            weights=(
                tuple(float(x) for x in weights)
                if weights is not None
                else None
            ),
        )
        slices: List[TransportSlice] = []
        cell_length = None
        for k, wk in zip(spec.points(), spec.resolved_weights()):
            device = device_factory(float(k))
            cell_length = device.lead.cell_length
            calc = TransportCalculator(device, config, method=method)
            for sl, _hit in calc.iter_scan_cached(
                sorted(float(e) for e in energies),
                k_par=float(k),
                k_weight=float(wk),
            ):
                slices.append(sl)
        return TransportResult(slices, cell_length)


# ----------------------------------------------------------------------
# shard work units (picklable; solved by a module-level function)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _TransportShardSpec:
    """One contiguous (E, k∥) tile of a transmission scan, shippable to
    a worker process.  ``k_par``/``k_weight`` tag the tile's transverse
    momentum column (``None``/1 for plain 1D scans)."""

    lead: BlockTriple
    n_cells: int
    device_blocks: Optional[BlockTriple]
    onsite_shift: float
    config: SelfEnergyConfig
    method: str
    energies: Tuple[float, ...]
    cache_root: Optional[str] = None
    cache_context: Optional[str] = None
    k_par: Optional[float] = None
    k_weight: float = 1.0


def _solve_transport_shard(
    spec: _TransportShardSpec,
) -> Tuple[List[TransportSlice], ShardStats]:
    """Solve one transport shard (module-level for pickling)."""
    energies = list(spec.energies)
    stats = ShardStats(
        e_lo=min(energies) if energies else math.nan,
        e_hi=max(energies) if energies else math.nan,
        n_energies=len(energies),
        final_n_int=spec.config.n_int,
        final_n_mm=spec.config.n_mm,
        final_n_rh=spec.config.resolved_n_rh(spec.lead.n),
    )
    cache = (
        SliceCache(spec.cache_root, context=spec.cache_context)
        if spec.cache_root and spec.cache_context
        else None
    )
    device = TwoProbeDevice(
        spec.lead,
        n_cells=spec.n_cells,
        device=spec.device_blocks,
        onsite_shift=spec.onsite_shift,
    )
    calc = TransportCalculator(device, spec.config, method=spec.method)
    slices: List[TransportSlice] = []
    for sl, hit in calc.iter_scan_cached(
        energies, cache, k_par=spec.k_par, k_weight=spec.k_weight
    ):
        if hit:
            stats.cache_hits += 1
        else:
            stats.solves += 1
            stats.solve_seconds += sl.solve_seconds
        slices.append(sl)
    return slices, stats


# ----------------------------------------------------------------------
# the sharded scanner
# ----------------------------------------------------------------------


class TransportScanner:
    """Process-parallel, cache-backed transmission scans.

    The transport twin of :class:`repro.cbs.orchestrator.ScanOrchestrator`
    (same sharding, streaming, telemetry, and cache conventions; no
    grid refinement — ``T(E)`` is smooth at finite ``η``).  Constructed
    by :func:`repro.api.compute` for transport jobs in
    ``"processes"``/``"orchestrated"`` modes; direct construction is
    supported for embedding.

    Parameters
    ----------
    device : TwoProbeDevice
        The junction to scan.
    config : SelfEnergyConfig, optional
        Self-energy numerics.
    method : {"ss", "decimation"}, optional
        Self-energy engine.
    executor : optional
        Shard-level executor spec (as in
        :func:`repro.parallel.executor.make_executor`).
    n_shards : int, optional
        Shard count (default: the executor's worker count).
    cache_dir : str, optional
        Persistent cache root; transport entries live alongside CBS
        slices under per-context subdirectories.
    cache_context : str, optional
        Precomputed context key (required when ``cache_dir`` is set;
        :meth:`repro.api.CBSJob.cache_context` provides it for jobs).
    """

    def __init__(
        self,
        device: TwoProbeDevice,
        config: Optional[SelfEnergyConfig] = None,
        *,
        method: str = "ss",
        executor: object = "processes",
        n_shards: Optional[int] = None,
        cache_dir: Optional[str] = None,
        cache_context: Optional[str] = None,
    ) -> None:
        self.device = device
        self.config = config or SelfEnergyConfig()
        self.method = method
        self._executor = make_executor(executor)
        self._n_shards = n_shards
        self.cache_dir = cache_dir
        self._cache_context = cache_context if cache_dir else None
        if cache_dir is not None and cache_context is None:
            raise ConfigurationError(
                "TransportScanner with cache_dir needs an explicit "
                "cache_context (jobs derive one via CBSJob.cache_context())"
            )

    @property
    def n_shards(self) -> int:
        return int(self._n_shards or getattr(self._executor, "workers", 1))

    def _tile_spec(
        self,
        device: TwoProbeDevice,
        energies: Sequence[float],
        k_par: Optional[float],
        k_weight: float,
        cache_context: Optional[str],
    ) -> _TransportShardSpec:
        """One (E, k∥) tile work unit of the column at ``k_par``."""
        return _TransportShardSpec(
            lead=device.lead,
            n_cells=device.n_cells,
            device_blocks=device.device,
            onsite_shift=device.onsite_shift,
            config=self.config,
            method=self.method,
            energies=tuple(float(e) for e in energies),
            cache_root=self.cache_dir,
            cache_context=cache_context,
            k_par=k_par,
            k_weight=k_weight,
        )

    def _imap_shards(self, specs):
        if len(specs) <= 1:
            for s in specs:
                yield _solve_transport_shard(s)
            return
        yield from self._executor.imap(_solve_transport_shard, specs)

    def iter_scan(
        self,
        energies: Sequence[float],
        *,
        report: Optional[ScanReport] = None,
        progress: Optional[ProgressFn] = None,
        should_cancel: Optional[CancelFn] = None,
    ) -> Iterator[TransportSlice]:
        """Stream the transmission scan slice by slice.

        The one-column case of :meth:`iter_kpar_scan` (the scanner's
        own device, ``k_par=None``, weight 1).  Identical callback
        contract to
        :meth:`repro.cbs.orchestrator.ScanOrchestrator.iter_scan`:
        slices arrive in ascending energy order, ``progress(done,
        total)`` fires after every yielded slice, and
        ``should_cancel()`` is polled between shards — cancellation
        ends the stream early with whatever was already produced.
        """
        return self._iter_tiles(
            energies,
            [(None, 1.0, self.device)],
            [self._cache_context],
            report,
            progress,
            should_cancel,
        )

    def iter_kpar_scan(
        self,
        energies: Sequence[float],
        columns: Sequence[Tuple[Optional[float], float, TwoProbeDevice]],
        *,
        cache_contexts: Optional[Sequence[Optional[str]]] = None,
        report: Optional[ScanReport] = None,
        progress: Optional[ProgressFn] = None,
        should_cancel: Optional[CancelFn] = None,
    ) -> Iterator[TransportSlice]:
        """Stream a k∥-resolved transmission scan over (E, k∥) tiles.

        Every k∥ column's energy grid is split into contiguous tiles,
        all tiles are submitted to the executor up front (so late
        columns overlap with consumption of early ones), and slices are
        yielded in (k∥, E) order.  The callback contract matches
        :meth:`iter_scan`.

        Parameters
        ----------
        energies : sequence of float
            The shared energy grid (one column per k∥ point).
        columns : sequence of (float or None, float, TwoProbeDevice)
            ``(k_par, k_weight, device)`` per transverse momentum,
            stamped on the column's slices as given; a plain scan is
            the single column ``(None, 1.0, device)``.
        cache_contexts : sequence of str or None, optional
            Per-column slice-cache context keys (k∥ must be folded into
            each — :meth:`repro.api.CBSJob.cache_context` does this);
            required when the scanner has a ``cache_dir``.
        """
        if cache_contexts is None:
            cache_contexts = [None] * len(columns)
        return self._iter_tiles(
            energies, columns, cache_contexts, report, progress, should_cancel
        )

    def _iter_tiles(
        self,
        energies: Sequence[float],
        columns: Sequence[Tuple[Optional[float], float, TwoProbeDevice]],
        cache_contexts: Sequence[Optional[str]],
        report: Optional[ScanReport],
        progress: Optional[ProgressFn],
        should_cancel: Optional[CancelFn],
    ) -> Iterator[TransportSlice]:
        """The one scan loop behind :meth:`iter_scan` and
        :meth:`iter_kpar_scan`."""
        report = ScanReport() if report is None else report
        t0 = time.perf_counter()
        grid = sorted({float(e) for e in energies})
        done = 0
        total = len(grid) * len(columns)
        try:
            if not grid or not columns:
                return
            if self.cache_dir and any(ctx is None for ctx in cache_contexts):
                raise ConfigurationError(
                    "iter_kpar_scan with cache_dir needs one cache "
                    "context per k∥ column"
                )
            n_tiles = max(1, math.ceil(self.n_shards / len(columns)))
            spans = chunk_spans(len(grid), n_tiles)
            specs = [
                self._tile_spec(dev, grid[lo:hi], k, w, ctx)
                for (k, w, dev), ctx in zip(columns, cache_contexts)
                for lo, hi in spans
            ]
            report.n_shards = len(specs)
            for shard_slices, stats in self._imap_shards(specs):
                report.absorb(stats)
                for sl in shard_slices:
                    done += 1
                    if progress is not None:
                        progress(done, total)
                    yield sl
                if should_cancel is not None and should_cancel():
                    return
        finally:
            report.wall_seconds = time.perf_counter() - t0

    def scan(
        self, energies: Sequence[float]
    ) -> Tuple[TransportResult, ScanReport]:
        """Run the sharded scan to completion; returns result + report."""
        report = ScanReport()
        slices = list(self.iter_scan(energies, report=report))
        slices.sort(key=lambda s: s.energy)
        return (
            TransportResult(slices, self.device.lead.cell_length),
            report,
        )
