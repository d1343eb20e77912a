"""In-memory span tracer and the layer wrappers of the traced run.

The traced run never edits ``repro``: it swaps public entry points of each
layer for thin timing wrappers (and puts the originals back afterwards).
Every wrapped call becomes one span ``[name, start, end, parent, op,
thread, extra]``; ``parent`` is the index of the enclosing span on the
same thread and ``op`` the operation id it belongs to.  Generator entry
points are timed resume by resume, so a lazy scan's spans land inside
the consumer's operation rather than at call time.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import statistics
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional


class Tracer:
    """Append-only span store with a per-thread parent stack."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[tuple] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is not None:
            op = self.spans[parent][4]
        else:
            op = getattr(self._local, "op", None)
        thread = threading.current_thread().name
        with self._lock:
            self.spans.append(
                [name, time.perf_counter(), None, parent, op, thread, {}])
            idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == idx:
            stack.pop()

    def set_op(self, op: Optional[str]) -> None:
        """Operation id for root spans opened on this thread."""
        self._local.op = op

    # -- wrappers ----------------------------------------------------------

    def timed(self, name: str, fn: Callable, after=None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if after is not None:
                after(tracer.spans[idx][6], args, kwargs, result)
            return result

        return wrapper

    def timed_gen(self, name: str, fn: Callable, before=None, after_item=None,
                  after_all=None) -> Callable:
        """Wrap a generator function: the call and every resume are spans
        named ``name``; ``before`` may rewrite the arguments."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state: Dict[str, Any] = {"t0": time.perf_counter()}
            if before is not None:
                args, kwargs = before(state, args, kwargs)
            idx = tracer.begin(name)
            try:
                gen = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            return tracer._iterate(name, gen, state, after_item, after_all)

        return wrapper

    def _iterate(self, name, gen, state, after_item, after_all):
        it = iter(gen)
        try:
            while True:
                idx = self.begin(name)
                try:
                    item = next(it)
                except StopIteration:
                    self.end(idx)
                    break
                self.end(idx)
                if after_item is not None:
                    after_item(state, item)
                yield item
            if after_all is not None:
                after_all(self, state)
        finally:
            close = getattr(it, "close", None)
            if close is not None:
                close()

    def patch(self, owner, attr: str, wrapper: Callable, *,
              aliases: bool = True) -> None:
        """Replace ``owner.attr`` (and, for a module function, every
        ``repro`` module-level alias of it unless ``aliases`` is false)
        with ``wrapper``; :meth:`uninstall` undoes it."""
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        if isinstance(owner, type) or not aliases:
            return
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original and module is not owner:
                    self._restore.append((module, key, original))
                    setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the spans plus per-name inclusive and self times."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[2] is not None and span[3] is not None:
                child_time[span[3]] += span[2] - span[1]
        totals: Dict[str, Dict[str, float]] = {}
        for i, span in enumerate(self.spans):
            if span[2] is None:
                continue
            dur = span[2] - span[1]
            row = totals.setdefault(span[0], {"calls": 0, "inclusive_s": 0.0,
                                              "self_s": 0.0})
            row["calls"] += 1
            row["inclusive_s"] += dur
            row["self_s"] += dur - child_time[i]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op",
                               "thread", "extra"],
                    "spans": self.spans,
                    "by_name": totals,
                },
                fh,
                default=_jsonable,
            )


def _jsonable(value):
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)
    try:
        return float(value)
    except (TypeError, ValueError):
        return repr(value)


# ---------------------------------------------------------------------------
# the layer wrappers
# ---------------------------------------------------------------------------


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every ``repro`` layer."""
    from repro.api import registry
    from repro.cbs import orchestrator
    from repro.cbs.orchestrator import ScanOrchestrator, ScanReport
    from repro.maps.surrogate import MapReport, MapSurrogate
    from repro.parallel import pool as pool_mod
    from repro.parallel.pool import PersistentPool
    from repro.qep.pencil import QuadraticPencil
    from repro.service import service as service_mod
    from repro.service.store import ResultStore
    from repro.solvers import batched
    from repro.solvers.direct import SparseLUSolver
    from repro.ss.solver import SSHankelSolver
    from repro.transport import selfenergy
    from repro.transport.device import TwoProbeDevice
    from repro.transport.scan import TransportCalculator, TransportScanner

    t = tracer

    # api: registry resolve -> dft/model assembly
    t.patch(registry, "resolve_system",
            t.timed("api.system_build", registry.resolve_system))

    # qep: pencil applications P(z) x, counted in vectors
    def matvec_after(extra, args, kwargs, result):
        pencil, x = args[0], args[2]
        blocks = pencil.blocks
        extra["n"] = pencil.n
        extra["vectors"] = int(x.size // pencil.n)
        extra["nnz"] = sum(int(getattr(m, "nnz", 0) or 0)
                           for m in (blocks.hm, blocks.h0, blocks.hp))

    for attr in ("apply", "apply_adjoint", "apply_batch", "apply_adjoint_batch"):
        t.patch(QuadraticPencil, attr,
                t.timed("qep.matvec", getattr(QuadraticPencil, attr),
                        matvec_after))

    # solvers: batched BiCG and sparse LU
    def bicg_after(extra, args, kwargs, engine):
        iters = getattr(engine, "iterations", None)
        extra["iters"] = int(iters.sum()) if iters is not None else 0

    t.patch(batched, "run_batched_bicg",
            t.timed("solvers.bicg", batched.run_batched_bicg, bicg_after))
    t.patch(SparseLUSolver, "__init__",
            t.timed("solvers.lu_factor", SparseLUSolver.__init__))
    for attr in ("solve", "solve_adjoint"):
        t.patch(SparseLUSolver, attr,
                t.timed("solvers.lu_solve", getattr(SparseLUSolver, attr)))

    # ss: Step 1 (moments) and whole Hankel solves
    def ss_after(extra, args, kwargs, result):
        extra["extract_s"] = float(result.phase_times.get("extract eigenpairs"))
        extra["accepted"] = int(len(result.eigenvalues))
        extra["candidates"] = int(len(result.raw_eigenvalues))

    t.patch(SSHankelSolver, "compute_moments",
            t.timed("ss.step1", SSHankelSolver.compute_moments))
    t.patch(SSHankelSolver, "solve",
            t.timed("ss.solve", SSHankelSolver.solve, ss_after))

    # cbs: scan drivers; sharded scans get a ScanReport injected
    def inject(report_cls):
        def before(state, args, kwargs):
            if kwargs.get("report") is None:
                kwargs = dict(kwargs, report=report_cls())
            state["report"] = kwargs["report"]
            return args, kwargs
        return before

    def keep_report(kind: str):
        def after_all(tracer_, state):
            idx = tracer_.begin(f"{kind}.report")
            tracer_.spans[idx][6]["report"] = state["report"]
            tracer_.end(idx)
        return after_all

    t.patch(orchestrator, "iter_warm_chain",
            t.timed_gen("cbs.scan", orchestrator.iter_warm_chain))
    for attr in ("iter_scan", "iter_kpar_scan"):
        t.patch(ScanOrchestrator, attr,
                t.timed_gen("cbs.scan", getattr(ScanOrchestrator, attr),
                            before=inject(ScanReport),
                            after_all=keep_report("cbs")))
    for attr in ("iter_scan", "iter_kpar_scan"):
        t.patch(TransportScanner, attr,
                t.timed_gen("transport.scan", getattr(TransportScanner, attr)))
    t.patch(TransportCalculator, "iter_scan_cached",
            t.timed_gen("transport.scan", TransportCalculator.iter_scan_cached))

    # parallel: shared-memory publish, pooled imap, worker respawns
    t.patch(pool_mod, "_publish_blocks",
            t.timed("parallel.publish", pool_mod._publish_blocks))

    def imap_item(state, item):
        # Sharded scans yield (slices, ShardStats) per shard.
        stats = item[1] if isinstance(item, tuple) else None
        if hasattr(stats, "solve_seconds"):
            state.setdefault("shard_s", []).append(stats.solve_seconds)

    def imap_done(tracer_, state):
        idx = tracer_.begin("parallel.imap_done")
        extra = tracer_.spans[idx][6]
        extra["wall"] = time.perf_counter() - state["t0"]
        extra["shard_s"] = state.get("shard_s", [])
        extra["workers"] = state["workers"]
        tracer_.end(idx)

    def imap_before(state, args, kwargs):
        state["workers"] = args[0].workers
        return args, kwargs

    t.patch(PersistentPool, "imap",
            t.timed_gen("parallel.imap", PersistentPool.imap,
                        before=imap_before, after_item=imap_item,
                        after_all=imap_done))
    t.patch(PersistentPool, "_heal",
            t.timed("parallel.heal", PersistentPool._heal))
    t.patch(PersistentPool, "_spawn_worker",
            t.timed("parallel.spawn", PersistentPool._spawn_worker))

    # transport: SS self-energies and the Caroli formula
    t.patch(selfenergy, "ss_self_energies",
            t.timed("transport.sigma", selfenergy.ss_self_energies))
    t.patch(TwoProbeDevice, "transmission",
            t.timed("transport.caroli", TwoProbeDevice.transmission))

    # maps: surrogate builds with a MapReport injected
    t.patch(MapSurrogate, "iter_pixels",
            t.timed_gen("maps.build", MapSurrogate.iter_pixels,
                        before=inject(MapReport),
                        after_all=keep_report("maps")))

    # service: spans on a solver thread belong to the job it drives
    service_compute_iter = service_mod.compute_iter

    def traced_compute_iter(job, **kwargs):
        t.set_op("job:" + job.job_hash()[:12])
        return service_compute_iter(job, **kwargs)

    t.patch(service_mod, "compute_iter", traced_compute_iter, aliases=False)

    # io: result-store reads and writes
    def get_after(extra, args, kwargs, result):
        extra["hit"] = result is not None

    t.patch(ResultStore, "get", t.timed("io.store_get", ResultStore.get, get_after))
    t.patch(ResultStore, "put", t.timed("io.store_put", ResultStore.put))


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: (metric name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("api.system_build_s", "s"), ("api.system_builds", "count"),
    ("qep.matvecs", "count"), ("qep.matvec_s", "s"),
    ("qep.flops_per_byte", "flop/B.computed"),
    ("solvers.bicg_s", "s"), ("solvers.bicg_iters", "count"),
    ("solvers.lu_factor_s", "s"), ("solvers.lu_factors", "count"),
    ("solvers.lu_solve_s", "s"),
    ("ss.step1_s", "s"), ("ss.extract_s", "s"), ("ss.solves", "count"),
    ("ss.accept_ratio", "ratio"),
    ("cbs.scan_s", "s"), ("cbs.shard_max_s", "s"),
    ("cbs.shard_imbalance", "ratio"), ("cbs.refined_slices", "count"),
    ("parallel.publish_s", "s"), ("parallel.imap_s", "s"),
    ("parallel.overhead_s", "s"), ("parallel.busy_frac", "ratio"),
    ("parallel.worker_restarts", "count"),
    ("transport.sigma_s", "s"), ("transport.sigma_calls", "count"),
    ("transport.caroli_s", "s"),
    ("maps.solved_frac", "ratio"), ("maps.probe_solves", "count"),
    ("io.store_get_s", "s"), ("io.store_put_s", "s"),
    ("io.store_hit_rate", "ratio"), ("io.store_evictions", "count"),
    ("service.submit_s", "s"), ("service.solves_per_submit", "ratio"),
    ("service.deduped", "ratio"), ("service.rejected", "ratio"),
    ("service.cold_job_p50_s", "s"), ("service.warm_job_p50_s", "s"),
    ("trace.coverage", "ratio"), ("trace.overhead_frac", "ratio"),
]


def _union_length(intervals) -> float:
    total, end = 0.0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def _flops_per_byte(n: int, nnz: int) -> float:
    """Arithmetic intensity of one complex CSR pencil application: an
    8-flop multiply-add per stored entry, against 16-byte values plus
    4-byte column indices, three row-pointer arrays and the streamed
    input/output vectors (computed from block nnz, not measured)."""
    flops = 8.0 * nnz + 3 * 8.0 * n
    nbytes = nnz * (16 + 4) + 3 * (n + 1) * 4 + 4 * 16 * n
    return flops / nbytes if nbytes else 0.0


def layer_metrics(
    tracer: Tracer, units: List[dict], evictions: int = 0
) -> Dict[str, float]:
    """Per-unit layer metrics from the spans of the traced units.

    ``units`` are the traced operations (``start``/``end`` wall times);
    service operations add a ``service`` block seen from the client,
    and ``evictions`` is the store's eviction count over the traced phase.
    """
    n_units = max(1, len(units))
    # Outermost spans only: a wrapped call that re-enters its own layer
    # (an adjoint matvec built on the forward one) is counted once.
    spans = tracer.spans
    by_name: Dict[str, List[list]] = {}
    for span in spans:
        parent = span[3]
        if span[2] is None or (parent is not None
                               and spans[parent][0] == span[0]):
            continue
        by_name.setdefault(span[0], []).append(span)

    def total(name: str) -> float:
        return sum(s[2] - s[1] for s in by_name.get(name, []))

    def count(name: str) -> int:
        return len(by_name.get(name, []))

    def extras(name: str, key: str):
        return [s[6][key] for s in by_name.get(name, []) if key in s[6]]

    m: Dict[str, float] = {}
    m["api.system_build_s"] = total("api.system_build") / n_units
    m["api.system_builds"] = count("api.system_build") / n_units

    vectors = extras("qep.matvec", "vectors")
    m["qep.matvecs"] = sum(vectors) / n_units
    m["qep.matvec_s"] = total("qep.matvec") / n_units
    weighted = [
        (s[6]["vectors"], _flops_per_byte(s[6]["n"], s[6]["nnz"]))
        for s in by_name.get("qep.matvec", []) if s[6].get("vectors")
    ]
    n_vec = sum(v for v, _ in weighted)
    m["qep.flops_per_byte"] = (
        sum(v * f for v, f in weighted) / n_vec if n_vec else 0.0
    )

    m["solvers.bicg_s"] = total("solvers.bicg") / n_units
    m["solvers.bicg_iters"] = sum(extras("solvers.bicg", "iters")) / n_units
    m["solvers.lu_factor_s"] = total("solvers.lu_factor") / n_units
    m["solvers.lu_factors"] = count("solvers.lu_factor") / n_units
    m["solvers.lu_solve_s"] = total("solvers.lu_solve") / n_units

    m["ss.step1_s"] = total("ss.step1") / n_units
    m["ss.extract_s"] = sum(extras("ss.solve", "extract_s")) / n_units
    m["ss.solves"] = count("ss.step1") / n_units
    candidates = sum(extras("ss.solve", "candidates"))
    m["ss.accept_ratio"] = (
        sum(extras("ss.solve", "accepted")) / candidates if candidates else 0.0
    )

    m["cbs.scan_s"] = total("cbs.scan") / n_units
    cbs_reports = extras("cbs.report", "report")
    shard_max, imbalance = [], []
    for rep in cbs_reports:
        secs = [s.solve_seconds for s in rep.shards]
        if secs:
            shard_max.append(max(secs))
            mean = sum(secs) / len(secs)
            imbalance.append(max(secs) / mean if mean > 0 else 1.0)
    m["cbs.shard_max_s"] = sum(shard_max) / n_units
    m["cbs.shard_imbalance"] = (
        statistics.fmean(imbalance) if imbalance else 0.0
    )
    m["cbs.refined_slices"] = sum(
        len(rep.refined_energies) for rep in cbs_reports
    ) / n_units

    m["parallel.publish_s"] = total("parallel.publish") / n_units
    m["parallel.imap_s"] = total("parallel.imap") / n_units
    # More shards than workers (a lead study runs one tile per k-parallel
    # column), so the overhead is the imap wall beyond a perfectly
    # balanced share of the shards' solve time, not beyond the busiest
    # single shard.
    overhead = busy_num = busy_den = 0.0
    for span in by_name.get("parallel.imap_done", []):
        extra = span[6]
        solve = sum(extra["shard_s"])
        overhead += extra["wall"] - solve / extra["workers"]
        busy_num += solve
        busy_den += extra["workers"] * extra["wall"]
    m["parallel.overhead_s"] = overhead / n_units
    m["parallel.busy_frac"] = busy_num / busy_den if busy_den else 0.0
    heal_ids = {i for i, s in enumerate(spans) if s[0] == "parallel.heal"}
    m["parallel.worker_restarts"] = sum(
        1 for s in by_name.get("parallel.spawn", []) if s[3] in heal_ids
    ) / n_units

    m["transport.sigma_s"] = total("transport.sigma") / n_units
    m["transport.sigma_calls"] = count("transport.sigma") / n_units
    m["transport.caroli_s"] = total("transport.caroli") / n_units

    map_reports = extras("maps.report", "report")
    pixels = sum(r.n_pixels for r in map_reports)
    m["maps.solved_frac"] = (
        sum(r.solved_pixels for r in map_reports) / pixels if pixels else 0.0
    )
    m["maps.probe_solves"] = sum(r.probe_pixels for r in map_reports) / n_units

    gets = extras("io.store_get", "hit")
    m["io.store_get_s"] = total("io.store_get") / n_units
    m["io.store_put_s"] = total("io.store_put") / n_units
    m["io.store_hit_rate"] = sum(gets) / len(gets) if gets else 0.0

    svc = [u["service"] for u in units if u.get("service")]
    m["io.store_evictions"] = evictions / n_units
    submits = len(svc)
    cold = [u["wall"] for u in units if u.get("service", {}).get("cold")]
    warm = [u["wall"] for u in units if u.get("service", {}).get("from_store")]
    m["service.submit_s"] = (
        statistics.median(s["submit_s"] for s in svc) if svc else 0.0
    )
    m["service.solves_per_submit"] = (
        sum(s["solves"] for s in svc) / submits if submits else 0.0
    )
    m["service.deduped"] = (
        sum(s["deduped"] for s in svc) / submits if submits else 0.0
    )
    m["service.rejected"] = (
        sum(s["rejected"] for s in svc) / submits if submits else 0.0
    )
    m["service.cold_job_p50_s"] = statistics.median(cold) if cold else 0.0
    m["service.warm_job_p50_s"] = statistics.median(warm) if warm else 0.0

    windows = [(u["start"], u["end"]) for u in units]
    unit_time = sum(hi - lo for lo, hi in windows)
    covered = []
    for span in spans:
        if span[2] is None or span[0].endswith(("report", "imap_done")):
            continue
        for lo, hi in windows:
            a, b = max(lo, span[1]), min(hi, span[2])
            if b > a:
                covered.append((a, b))
    m["trace.coverage"] = _union_length(covered) / unit_time if unit_time else 0.0
    return m


def _op_class(op: dict):
    svc = op.get("service")
    if not svc:
        return "unit"
    kind = "cold" if svc["cold"] else "store" if svc["from_store"] else "dedup"
    return op["family"], kind


def overhead_frac(untraced: List[dict], traced: List[dict]) -> float:
    """Traced over untraced median operation time, minus 1.

    Service operations differ by family and by how they were served
    (solve, store, dedup), and the two phases see different mixes, so
    medians are compared class by class and weighted by traced count.
    """
    groups: Dict[Any, tuple] = {}
    for phase, ops in ((0, untraced), (1, traced)):
        for op in ops:
            groups.setdefault(_op_class(op), ([], []))[phase].append(op["wall"])
    ratios = [
        (len(after), statistics.median(after) / statistics.median(before))
        for before, after in groups.values() if before and after
    ]
    weight = sum(w for w, _ in ratios)
    return sum(w * r for w, r in ratios) / weight - 1.0 if weight else 0.0
