"""``compute(job)`` — one entry point over every CBS engine.

The repo grew three ways to run the same physics: a single
:meth:`SSHankelSolver.solve`, a :meth:`CBSCalculator.scan`, and a
:class:`ScanOrchestrator` workload.  This module makes them internal
backends behind one routing function:

========================  =====================================
job shape                 engine
========================  =====================================
one energy, serial        ``"solver"`` — one SS Hankel solve
energy grid,              ``"scan"`` — :class:`CBSCalculator`
serial/threads            (warm chain or mapped slices)
``mode="processes"`` /    ``"orchestrator"`` —
``mode="orchestrated"``   :class:`ScanOrchestrator` (sharding,
                          tuning, refinement, slice cache)
job with a                ``"transport"`` — Σ(E) + Landauer T(E)
``TransportSpec``         (serial loop or sharded
                          :class:`TransportScanner`)
========================  =====================================

Every route returns a versioned result with a provenance block (job
hash, ``repro.__version__``, engine, per-shard telemetry) — a
:class:`repro.cbs.CBSResult` for CBS jobs, a
:class:`repro.transport.TransportResult` for transport jobs — and
:func:`compute_iter` streams the same workload slice by slice with
progress/cancellation callbacks.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, Iterator, Mapping, Optional, Union

import numpy as np

from repro.api.spec import CBSJob
from repro.cbs.orchestrator import (
    CancelFn,
    OrchestratorConfig,
    ProgressFn,
    RefinePolicy,
    ScanOrchestrator,
    ScanReport,
    TuningPolicy,
    iter_warm_chain,
)
from repro.cbs.scan import CBSCalculator, CBSResult, EnergySlice
from repro.errors import ConfigurationError
from repro.io.slice_cache import SliceCache
from repro.transport.device import TwoProbeDevice
from repro.transport.scan import (
    TransportCalculator,
    TransportResult,
    TransportScanner,
    TransportSlice,
)


def _as_job(job) -> CBSJob:
    if isinstance(job, CBSJob):
        return job
    if isinstance(job, Mapping):
        return CBSJob.from_dict(job)
    raise ConfigurationError(
        f"compute() takes a CBSJob or a job dict, got {type(job).__name__}"
    )


def _jsonify(value):
    """Plain-JSON-types copy (numpy scalars → python, tuples → lists)."""
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def _provenance(
    job: CBSJob, engine: str, report: Optional[ScanReport] = None
) -> Dict[str, Any]:
    from repro import __version__

    prov: Dict[str, Any] = {
        "job_hash": job.job_hash(),
        "cache_context": job.cache_context(),
        "repro_version": __version__,
        "engine": engine,
        "job": job.to_dict(),
    }
    if report is not None:
        # The full telemetry, including the per-shard tuning decisions
        # (probe rank, final N_int/N_mm/N_rh per energy span).
        prov["report"] = _jsonify(asdict(report))
    return prov


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------


def _calculator(job: CBSJob, blocks, *, energy_executor=None) -> CBSCalculator:
    return CBSCalculator(
        blocks,
        job.ss_config(),
        propagating_tol=job.scan.propagating_tol,
        energy_executor=energy_executor,
        warm_start=job.execution.warm_start,
    )


def _make_orchestrator(job: CBSJob, blocks) -> ScanOrchestrator:
    ex = job.execution
    orch = OrchestratorConfig(
        executor=ex.executor_spec(),
        n_shards=ex.n_shards,
        warm_start=True,  # effective warm policy is ex.warm_start below
        tuning=ex.resolved_tuning(),
        refine=ex.resolved_refine(),
        cache_dir=ex.cache_dir,
    )
    return ScanOrchestrator(
        blocks,
        job.ss_config(),
        propagating_tol=job.scan.propagating_tol,
        warm_start=ex.warm_start,
        orch=orch,
        cache_context=job.cache_context(),
        _internal=True,
    )


def _make_map_orchestrator(job: CBSJob, blocks) -> ScanOrchestrator:
    """The orchestrator behind the ``"map"`` engine.

    Tuning and refinement are forced off regardless of the execution
    spec: the surrogate does its own (2D) refinement, and solved map
    pixels are cached under the plain scan context — which for the map
    engine keys on the *disabled* tuning policy
    (:meth:`CBSJob.cache_context` folds the engine-effective value), so
    a tuned solve here would poison entries shared with plain scans.
    """
    ex = job.execution
    orch = OrchestratorConfig(
        executor=ex.executor_spec(),
        n_shards=ex.n_shards,
        warm_start=True,
        tuning=TuningPolicy(enabled=False),
        refine=RefinePolicy(enabled=False),
        cache_dir=ex.cache_dir,
    )
    return ScanOrchestrator(
        blocks,
        job.ss_config(),
        propagating_tol=job.scan.propagating_tol,
        warm_start=ex.warm_start,
        orch=orch,
        cache_context=job.cache_context(),
        _internal=True,
    )


def _iter_map_engine(
    job: CBSJob,
    columns,
    report,
    progress: Optional[ProgressFn],
    should_cancel: Optional[CancelFn],
):
    """The map-surrogate route: solve a sparse pixel subset, stream the
    dense (E, k∥) map.

    Solved pixels go through the ordinary shard/cache machinery under
    the per-momentum contexts (``job.cache_context(k_par=k)``), so they
    are shared with plain scans of the same physics; interpolated
    pixels are predictions and are never written into those namespaces.
    """
    from repro.maps import MapSurrogate

    ex = job.execution
    orc = _make_map_orchestrator(job, columns[0][2])
    contexts = (
        [job.cache_context(k_par=k) for k, _w, _b in columns]
        if ex.cache_dir is not None
        else None
    )
    surrogate = MapSurrogate(
        orc,
        list(job.energies()),
        columns,
        job.map,
        cache_contexts=contexts,
    )
    return surrogate.iter_pixels(
        report=report,
        progress=progress,
        should_cancel=should_cancel,
    )


def _iter_cached_map(
    calc: CBSCalculator,
    energies,
    cache: SliceCache,
    k_par: Optional[float] = None,
) -> Iterator[EnergySlice]:
    """Cache-aware independent-slice map, in ascending energy order.

    Hits are served from the cache (``solve_seconds`` zeroed — this run
    did no work for them); only the misses go through the executor's
    ordered ``imap``, and each is persisted as it completes — stamped
    with the caller's ``k_par`` first, so cached bytes carry the tag.
    """
    hits = {}
    misses = []
    for energy in energies:
        sl = cache.get_hit(energy)
        if sl is not None:
            if k_par is not None:
                sl.k_par = k_par
            hits[energy] = sl
        else:
            misses.append(energy)
    solved = calc._executor.imap(calc.solve_energy, misses)
    try:
        for energy in energies:
            if energy in hits:
                yield hits[energy]
            else:
                sl = next(solved)
                if k_par is not None:
                    sl.k_par = k_par
                cache.put(sl)
                yield sl
    finally:
        close = getattr(solved, "close", None)
        if close is not None:
            close()


def _iter_scan_engine(
    job: CBSJob,
    blocks,
    progress: Optional[ProgressFn],
    should_cancel: Optional[CancelFn],
    *,
    cache_context: Optional[str] = None,
    k_par: Optional[float] = None,
) -> Iterator[EnergySlice]:
    """The CBSCalculator route, streamed slice by slice.

    Serial jobs (and every warm-started job — warm chains are inherently
    sequential) run the shared warm-chain loop; thread jobs stream
    through the executor's ordered ``imap``, so later energies keep
    solving while earlier slices are consumed.  Both honor the
    persistent slice cache when the job names one (k∥-resolved columns
    pass their per-momentum ``cache_context`` and ``k_par``, which is
    stamped onto every slice before it is persisted or yielded).
    """
    ex = job.execution
    energies = list(job.energies())
    total = len(energies)
    cache = (
        SliceCache(
            ex.cache_dir,
            context=(
                cache_context
                if cache_context is not None
                else job.cache_context()
            ),
        )
        if ex.cache_dir is not None
        else None
    )
    sequential = ex.mode == "serial" or ex.warm_start
    if sequential:
        calc = _calculator(job, blocks)
        gen: Iterator[EnergySlice] = iter_warm_chain(
            calc, energies, cache, k_par=k_par
        )
    else:
        calc = _calculator(job, blocks, energy_executor=ex.executor_spec())
        if cache is not None:
            gen = _iter_cached_map(calc, energies, cache, k_par=k_par)
        else:
            gen = calc._executor.imap(calc.solve_energy, energies)
    try:
        for done, sl in enumerate(gen, start=1):
            if progress is not None:
                progress(done, total)
            yield sl
            if should_cancel is not None and should_cancel():
                return
    finally:
        close = getattr(gen, "close", None)
        if close is not None:
            close()


def _make_device(job: CBSJob, blocks) -> TwoProbeDevice:
    """The :class:`repro.transport.TwoProbeDevice` a transport job names."""
    ts = job.transport
    device_blocks = ts.device.build() if ts.device is not None else None
    return TwoProbeDevice(
        blocks,
        n_cells=ts.n_cells,
        device=device_blocks,
        onsite_shift=ts.onsite_shift,
    )


def _iter_transport_engine(
    job: CBSJob,
    blocks,
    report: Optional[ScanReport],
    progress: Optional[ProgressFn],
    should_cancel: Optional[CancelFn],
):
    """The transport route, streamed slice by slice.

    Serial jobs run a cache-aware in-process loop; every other mode
    goes through :class:`repro.transport.TransportScanner` (threads or
    process shards, merged in energy order) with the job-derived cache
    context.  The callback contract is identical to the CBS routes.
    """
    ex = job.execution
    ts = job.transport
    cfg = ts.self_energy_config()
    device = _make_device(job, blocks)
    energies = list(job.energies())

    if ex.mode == "serial":
        cache = (
            SliceCache(ex.cache_dir, context=job.cache_context())
            if ex.cache_dir is not None
            else None
        )
        calc = TransportCalculator(device, cfg, method=ts.method)

        def _serial():
            total = len(energies)
            gen = calc.iter_scan_cached(energies, cache)
            for done, (sl, _hit) in enumerate(gen, start=1):
                if progress is not None:
                    progress(done, total)
                yield sl
                if should_cancel is not None and should_cancel():
                    return

        return _serial()

    scanner = TransportScanner(
        device,
        cfg,
        method=ts.method,
        executor=ex.executor_spec(),
        n_shards=ex.n_shards,
        cache_dir=ex.cache_dir,
        cache_context=(
            job.cache_context() if ex.cache_dir is not None else None
        ),
    )
    return scanner.iter_scan(
        energies,
        report=report,
        progress=progress,
        should_cancel=should_cancel,
    )


# ---------------------------------------------------------------------------
# the k∥ product-grid engine
# ---------------------------------------------------------------------------


def _kpar_columns(job: CBSJob):
    """Resolve one system build per transverse momentum.

    Returns ``[(k_par, weight, blocks), ...]`` in ascending momentum
    order — the k∥ columns of the job's ``ScanSpec × KParSpec`` product
    grid.  Each build injects the momentum as the builder parameter the
    :class:`repro.api.KParSpec` names (``"k_par"`` by default), so only
    systems whose builders accept it can be swept.
    """
    from repro.api.registry import resolve_system

    spec = job.kpar
    columns = []
    for k, w in zip(spec.points(), spec.resolved_weights()):
        params = dict(job.system.params)
        params[spec.param] = float(k)
        blocks = resolve_system(job.system.name, params)
        columns.append((float(k), float(w), blocks))
    return columns


def _iter_kpar_engine(
    job: CBSJob,
    columns,
    engine: str,
    report: Optional[ScanReport],
    progress: Optional[ProgressFn],
    should_cancel: Optional[CancelFn],
):
    """Route a k∥-resolved job through the engine serving its shape.

    Serial/thread CBS jobs and serial transport jobs run their k∥
    columns in ascending momentum order through the same per-column
    loops as their 1D counterparts; the process-sharded engines tile
    the whole (E, k∥) product grid across one executor
    (:meth:`ScanOrchestrator.iter_kpar_scan` /
    :meth:`TransportScanner.iter_kpar_scan`).  The slice cache is keyed
    per momentum via ``job.cache_context(k_par=k)``.  Every yielded
    slice carries its ``k_par`` (transport slices also their BZ
    weight), and ``progress(done, total)`` counts over the full
    product grid.
    """
    if engine == "map":
        return _iter_map_engine(job, columns, report, progress, should_cancel)

    ex = job.execution
    energies = list(job.energies())
    total = len(energies) * len(columns)
    contexts = (
        [job.cache_context(k_par=k) for k, _w, _b in columns]
        if ex.cache_dir is not None
        else None
    )

    if engine == "transport":
        ts = job.transport
        cfg = ts.self_energy_config()
        devices = [
            (k, w, _make_device(job, blocks)) for k, w, blocks in columns
        ]
        if ex.mode == "serial":

            def _serial_transport():
                done = 0
                for ci, (k, w, device) in enumerate(devices):
                    cache = (
                        SliceCache(ex.cache_dir, context=contexts[ci])
                        if contexts is not None
                        else None
                    )
                    calc = TransportCalculator(device, cfg, method=ts.method)
                    for sl, _hit in calc.iter_scan_cached(
                        energies, cache, k_par=k, k_weight=w
                    ):
                        done += 1
                        if progress is not None:
                            progress(done, total)
                        yield sl
                        if should_cancel is not None and should_cancel():
                            return

            return _serial_transport()
        scanner = TransportScanner(
            devices[0][2],
            cfg,
            method=ts.method,
            executor=ex.executor_spec(),
            n_shards=ex.n_shards,
            cache_dir=ex.cache_dir,
            cache_context=contexts[0] if contexts is not None else None,
        )
        return scanner.iter_kpar_scan(
            energies,
            devices,
            cache_contexts=contexts,
            report=report,
            progress=progress,
            should_cancel=should_cancel,
        )

    if engine == "orchestrator":
        orc = _make_orchestrator(job, columns[0][2])
        return orc.iter_kpar_scan(
            energies,
            [(k, blocks) for k, _w, blocks in columns],
            cache_contexts=contexts,
            report=report,
            progress=progress,
            should_cancel=should_cancel,
        )

    # "scan": serial/threads, one energy column per momentum.
    def _serial_columns():
        done = 0
        for ci, (k, _w, blocks) in enumerate(columns):
            gen = _iter_scan_engine(
                job,
                blocks,
                None,
                should_cancel,
                cache_context=contexts[ci] if contexts is not None else None,
                k_par=k,
            )
            for sl in gen:
                # The cache paths stamped before persisting; this covers
                # the uncached executor map, where nothing stamped yet.
                sl.k_par = k
                done += 1
                if progress is not None:
                    progress(done, total)
                yield sl
                if should_cancel is not None and should_cancel():
                    return

    return _serial_columns()


# ---------------------------------------------------------------------------
# the facade
# ---------------------------------------------------------------------------


def _route_iter(
    job: CBSJob,
    blocks,
    engine: str,
    report: Optional[ScanReport],
    progress: Optional[ProgressFn],
    should_cancel: Optional[CancelFn],
) -> Iterator[EnergySlice]:
    """The single engine dispatch behind :func:`compute` and
    :func:`compute_iter` (``report`` collects orchestrator/scanner
    telemetry when the caller wants it)."""
    if engine == "transport":
        return _iter_transport_engine(
            job, blocks, report, progress, should_cancel
        )
    if engine == "orchestrator":
        orc = _make_orchestrator(job, blocks)
        return orc.iter_scan(
            job.energies(),
            report=report,
            progress=progress,
            should_cancel=should_cancel,
        )
    if engine == "solver":

        def _single() -> Iterator[EnergySlice]:
            calc = _calculator(job, blocks)
            (energy,) = job.energies()
            sl = calc.solve_energy(energy)
            if progress is not None:
                progress(1, 1)
            yield sl

        return _single()
    return _iter_scan_engine(job, blocks, progress, should_cancel)


def compute(
    job,
    *,
    progress: Optional[ProgressFn] = None,
    should_cancel: Optional[CancelFn] = None,
) -> Union[CBSResult, TransportResult]:
    """Run a :class:`CBSJob` (or job dict) to a complete result.

    Routing (see module docstring) is by job shape only — the same job
    always produces the same answer whichever engine serves it, and
    jobs that share physics share
    :class:`repro.io.slice_cache.SliceCache` entries across execution
    modes.

    Parameters
    ----------
    job : CBSJob or mapping
        The workload; dicts are validated through
        :meth:`CBSJob.from_dict`.
    progress : callable, optional
        ``progress(done, total)``, invoked after every finished slice;
        see :data:`repro.cbs.orchestrator.ProgressFn` (``total`` may
        grow while refinement inserts energies).
    should_cancel : callable, optional
        ``should_cancel() -> bool``, polled between slices/shards; see
        :data:`repro.cbs.orchestrator.CancelFn`.  A cancelled compute
        returns the partial result — whatever slices finished,
        energy-ordered, provenance stamped.

    Returns
    -------
    repro.cbs.CBSResult or repro.transport.TransportResult
        Energy-ordered slices with a stamped provenance block (job
        hash, ``repro.__version__``, the routed engine, telemetry).
        Jobs carrying a :class:`repro.api.TransportSpec` return a
        ``TransportResult``; all others a ``CBSResult``.

    Examples
    --------
    >>> from repro.api import CBSJob, compute
    >>> result = compute(CBSJob(
    ...     system={"name": "chain", "params": {"hopping": -1.0}},
    ...     scan={"energies": [0.0], "n_mm": 2, "n_rh": 2, "seed": 1,
    ...           "linear_solver": "direct"},
    ...     ring={"n_int": 16}))
    >>> result.slices[0].count
    2
    """
    job = _as_job(job)
    engine = job.engine()
    if engine == "map":
        from repro.maps import MapReport

        report = MapReport()
    else:
        report = (
            ScanReport()
            if engine == "orchestrator"
            or (engine == "transport" and job.execution.mode != "serial")
            else None
        )

    if job.kpar is not None:
        columns = _kpar_columns(job)
        cell_length = columns[0][2].cell_length
        slices = list(
            _iter_kpar_engine(
                job, columns, engine, report, progress, should_cancel
            )
        )
        slices.sort(key=lambda s: (s.k_par, s.energy))
    else:
        blocks = job.system.build()
        cell_length = blocks.cell_length
        slices = list(
            _route_iter(job, blocks, engine, report, progress, should_cancel)
        )
        slices.sort(key=lambda s: s.energy)
    if engine == "transport":
        result: Union[CBSResult, TransportResult] = TransportResult(
            slices, cell_length
        )
        result.provenance = _provenance(job, engine, report)
    elif engine == "map":
        from repro.maps import MapResult

        result = MapResult(slices, cell_length)
        # The inner scan telemetry rides in the usual "report" slot;
        # the surrogate's pixel accounting gets its own block.
        result.provenance = _provenance(job, engine, report.scan)
        map_counters = asdict(report)
        map_counters.pop("scan", None)
        result.provenance["map_report"] = _jsonify(map_counters)
    else:
        result = CBSResult(slices, cell_length)
        result.provenance = _provenance(job, engine, report)
    return result


def compute_iter(
    job,
    *,
    progress: Optional[ProgressFn] = None,
    should_cancel: Optional[CancelFn] = None,
) -> Iterator[Union[EnergySlice, TransportSlice]]:
    """Stream a job's slices as they complete.

    The slices of the requested grid arrive in ascending energy order
    (the sharded engines overlap later shards with consumption of
    earlier ones); adaptive refinement insertions follow after the base
    grid.  Validation, system resolution, and routing happen eagerly at
    call time; only the solving is lazy.

    Parameters
    ----------
    job : CBSJob or mapping
        The workload.
    progress : callable, optional
        ``progress(done, total)``, invoked after every yielded slice —
        the shared contract of
        :data:`repro.cbs.orchestrator.ProgressFn` (``total`` grows when
        refinement inserts energies, so ``done == total`` means
        "caught up", not "finished").
    should_cancel : callable, optional
        ``should_cancel() -> bool`` — the shared contract of
        :data:`repro.cbs.orchestrator.CancelFn`.  Polled between
        slices/shards (never mid-solve); returning ``True`` ends the
        stream early, and every slice already yielded remains valid.

    Yields
    ------
    repro.cbs.EnergySlice or repro.transport.TransportSlice
        CBS slices for CBS jobs; transport slices for jobs carrying a
        :class:`repro.api.TransportSpec`.  k∥-resolved jobs stream in
        (k∥, E) order, one energy column per momentum, each slice
        stamped with its ``k_par``.
    """
    job = _as_job(job)
    if job.kpar is not None:
        columns = _kpar_columns(job)
        return _iter_kpar_engine(
            job, columns, job.engine(), None, progress, should_cancel
        )
    blocks = job.system.build()
    return _route_iter(
        job, blocks, job.engine(), None, progress, should_cancel
    )
