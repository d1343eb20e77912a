"""Persistent shared-memory worker pool for sharded (E, k∥) scans.

``ProcessExecutor`` pays two taxes that make cold sharded scans *lose*
to serial on small problems: every ``compute()`` call spins up a fresh
``ProcessPoolExecutor``, and every shard payload re-pickles the
Hamiltonian ``BlockTriple`` (the only heavy part of a spec).  The
:class:`PersistentPool` removes both:

* workers are spawned once and reused across ``map``/``imap`` calls —
  and across `compute()` calls, via the process-wide :meth:`shared`
  registry that ``make_executor("pool")`` hands out;
* every distinct :class:`~repro.qep.blocks.BlockTriple` (by content,
  so a job that rebuilds equal blocks reuses them) found in a task
  payload is published to a ``multiprocessing.shared_memory`` segment
  once; the shipped spec carries only a small :class:`SharedBlocksRef`
  and the workers reconstruct zero-copy CSR views onto the segment.

The pool speaks the ordinary executor protocol (``map``/``imap`` plus a
``workers`` attribute), so :class:`~repro.cbs.orchestrator.ScanOrchestrator`,
:class:`~repro.transport.scan.TransportScanner` and the declarative api
route to it unchanged — select it with ``ExecutionSpec(mode="pool")``.

Lifecycle: the pool is a context manager (``close()`` on exit even under
exceptions), shuts its workers down after ``idle_timeout`` seconds
without work (respawning transparently on next use), restarts a worker
that died mid-task (resubmitting the lost task once before giving up
with :class:`WorkerCrashedError`), and unlinks every shared-memory
segment it created on ``close()``/interpreter exit, so no
``resource_tracker`` leak warnings are emitted.
"""

from __future__ import annotations

import atexit
import dataclasses
import hashlib
import os
import queue
import threading
import multiprocessing
from collections import deque
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np
import scipy.sparse as sparse

from repro.errors import ConfigurationError
from repro.parallel.executor import ProcessExecutor, limit_blas_threads
from repro.qep.blocks import BlockTriple, SeparableForm

__all__ = ["PersistentPool", "SharedBlocksRef", "WorkerCrashedError"]

_ALIGN = 64  # byte alignment of packed arrays inside a segment


class WorkerCrashedError(RuntimeError):
    """A worker process died (e.g. OOM-killed) while running a task,
    and the task killed its replacement too."""


# --------------------------------------------------------------------------
# shared-memory publication of BlockTriples
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _ArraySpec:
    """Location of one packed ndarray inside a segment."""

    offset: int
    shape: Tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class _MatrixSpec:
    """One operator block: CSR triplet arrays or a single dense array."""

    kind: str  # "csr" | "dense"
    shape: Tuple[int, ...]
    arrays: Tuple[Tuple[str, _ArraySpec], ...]


@dataclass(frozen=True)
class SharedBlocksRef:
    """Picklable stand-in for a published :class:`BlockTriple`.

    A few hundred bytes on the wire regardless of matrix size; workers
    rebuild zero-copy views onto the named segment.  ``separable``
    locates the factors of the triple's separable form (``None`` when
    it has none) in the same segment.
    """

    segment: str
    cell_length: float
    hm: _MatrixSpec
    h0: _MatrixSpec
    hp: _MatrixSpec
    separable: Optional[Tuple[_MatrixSpec, ...]] = None


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _plan_matrix(m, offset: int) -> Tuple[_MatrixSpec, int, List[Tuple[int, np.ndarray]]]:
    """Lay one operator block out at ``offset``; return its spec, the
    next free offset, and the (offset, source array) copy list."""
    if sparse.issparse(m):
        csr = m.tocsr()
        named = [("data", csr.data), ("indices", csr.indices),
                 ("indptr", csr.indptr)]
        kind = "csr"
    else:
        named = [("data", np.ascontiguousarray(m))]
        kind = "dense"
    specs = []
    copies = []
    for name, arr in named:
        offset = _align(offset)
        specs.append((name, _ArraySpec(offset, tuple(arr.shape),
                                       str(arr.dtype))))
        copies.append((offset, arr))
        offset += arr.nbytes
    return _MatrixSpec(kind, tuple(m.shape), tuple(specs)), offset, copies


def _publish_blocks(blocks: BlockTriple) -> Tuple[SharedBlocksRef,
                                                  shared_memory.SharedMemory]:
    """Pack a BlockTriple's arrays (separable form included) into one
    fresh shared segment."""
    offset = 0
    mspecs = []
    copies = []
    form = blocks.separable
    factors = () if form is None else form.factors
    for m in (blocks.hm, blocks.h0, blocks.hp, *factors):
        spec, offset, mcopies = _plan_matrix(m, offset)
        mspecs.append(spec)
        copies.extend(mcopies)
    shm = shared_memory.SharedMemory(create=True, size=max(1, offset))
    for off, arr in copies:
        dst = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf,
                         offset=off)
        dst[...] = arr
        del dst  # release the buffer export before any later close()
    ref = SharedBlocksRef(
        segment=shm.name,
        cell_length=float(blocks.cell_length),
        hm=mspecs[0], h0=mspecs[1], hp=mspecs[2],
        separable=tuple(mspecs[3:]) if form is not None else None,
    )
    return ref, shm


def _blocks_digest(blocks: BlockTriple) -> str:
    """Content key of a BlockTriple: cell length plus the dtype, pattern
    and values of every operator block, then of every factor of its
    separable form, so a factored triple never shares a plain one's
    segment."""
    from repro.io.slice_cache import _hash_matrix

    h = hashlib.sha256(repr(float(blocks.cell_length)).encode())
    for m in (blocks.hm, blocks.h0, blocks.hp):
        h.update(str(m.dtype).encode())
        _hash_matrix(h, m)
    if blocks.separable is not None:
        h.update(b"separable")
        for m in blocks.separable.factors:
            h.update(str(m.dtype).encode())
            _hash_matrix(h, m)
    return h.hexdigest()


def _restore_blocks(ref: SharedBlocksRef,
                    shm: shared_memory.SharedMemory) -> BlockTriple:
    """Worker-side inverse of :func:`_publish_blocks` (zero-copy)."""

    def build(mspec: _MatrixSpec):
        arrays = {
            name: np.ndarray(aspec.shape, dtype=np.dtype(aspec.dtype),
                             buffer=shm.buf, offset=aspec.offset)
            for name, aspec in mspec.arrays
        }
        if mspec.kind == "csr":
            return sparse.csr_matrix(
                (arrays["data"], arrays["indices"], arrays["indptr"]),
                shape=mspec.shape,
            )
        return arrays["data"]

    form = None
    if ref.separable is not None:
        form = SeparableForm(*(build(spec) for spec in ref.separable))
    return BlockTriple(build(ref.hm), build(ref.h0), build(ref.hp),
                       cell_length=ref.cell_length, separable=form)


def _swizzle_item(item, publish: Callable[[BlockTriple], SharedBlocksRef]):
    """Replace every top-level BlockTriple field of a dataclass payload
    with its shared-memory reference (specs carry blocks at top level)."""
    if dataclasses.is_dataclass(item) and not isinstance(item, type):
        changes = {}
        for f in dataclasses.fields(item):
            val = getattr(item, f.name)
            if isinstance(val, BlockTriple):
                changes[f.name] = publish(val)
        if changes:
            return dataclasses.replace(item, **changes)
    return item


def _restore_item(item, attached: Dict[str, shared_memory.SharedMemory],
                  blocks_cache: Dict[str, BlockTriple]):
    """Worker-side inverse of :func:`_swizzle_item`, with per-worker
    caching so repeated shards over the same blocks rebuild nothing."""
    if dataclasses.is_dataclass(item) and not isinstance(item, type):
        changes = {}
        for f in dataclasses.fields(item):
            val = getattr(item, f.name)
            if isinstance(val, SharedBlocksRef):
                triple = blocks_cache.get(val.segment)
                if triple is None:
                    shm = attached.get(val.segment)
                    if shm is None:
                        shm = shared_memory.SharedMemory(name=val.segment)
                        attached[val.segment] = shm
                    triple = _restore_blocks(val, shm)
                    blocks_cache[val.segment] = triple
                changes[f.name] = triple
        if changes:
            return dataclasses.replace(item, **changes)
    return item


# --------------------------------------------------------------------------
# worker process
# --------------------------------------------------------------------------

def _worker_main(task_q, result_q) -> None:
    """Serve tasks until the ``None`` sentinel arrives.

    A task failure is shipped back as a result, never kills the worker;
    attached segments are closed only after the views onto them are
    dropped (closing an mmap with live buffer exports raises).  BLAS
    runs single-threaded: the pool's workers already share the cores.
    """
    limit_blas_threads()
    attached: Dict[str, shared_memory.SharedMemory] = {}
    blocks_cache: Dict[str, BlockTriple] = {}
    try:
        while True:
            msg = task_q.get()
            if msg is None:
                return
            tid, fn, payload = msg
            try:
                value = fn(_restore_item(payload, attached, blocks_cache))
                result_q.put((tid, True, value))
            except BaseException as exc:
                try:
                    result_q.put((tid, False, exc))
                except Exception:
                    result_q.put((tid, False, WorkerCrashedError(
                        f"task failed with an unpicklable exception: "
                        f"{exc!r}")))
    finally:
        blocks_cache.clear()
        import gc

        gc.collect()
        for shm in attached.values():
            try:
                shm.close()
            except Exception:
                pass


class _Worker:
    """One worker process plus its private task queue and the id of the
    task it is currently crunching (``None`` when idle)."""

    __slots__ = ("proc", "task_q", "inflight")

    def __init__(self, proc, task_q):
        self.proc = proc
        self.task_q = task_q
        self.inflight: Optional[int] = None


# --------------------------------------------------------------------------
# the pool
# --------------------------------------------------------------------------

class PersistentPool:
    """Reusable worker pool with shared-memory block publication.

    Parameters
    ----------
    workers:
        Pool size; defaults to ``os.cpu_count()`` capped at 16 (same
        default as :class:`ProcessExecutor`).
    idle_timeout:
        Seconds of inactivity after which the workers (and published
        segments) are torn down; the next ``map`` respawns them.
        ``None`` disables idle shutdown.
    """

    _instances: Dict[int, "PersistentPool"] = {}
    _instances_lock = threading.Lock()

    def __init__(self, workers: Optional[int] = None, *,
                 idle_timeout: Optional[float] = 120.0) -> None:
        if workers is None:
            workers = min(os.cpu_count() or 1, 16)
        if isinstance(workers, bool) or not isinstance(workers, int):
            raise ConfigurationError(
                f"PersistentPool workers must be an int, got {workers!r}")
        if workers < 1:
            raise ConfigurationError(
                f"PersistentPool workers must be >= 1, got {workers!r}")
        self.workers = int(workers)
        self.idle_timeout = idle_timeout
        if "fork" in multiprocessing.get_all_start_methods():
            self._ctx = multiprocessing.get_context("fork")
        else:  # pragma: no cover - non-POSIX fallback
            self._ctx = multiprocessing.get_context("spawn")
        self._workers: List[_Worker] = []
        self._result_q = None
        self._published: Dict[str, SharedBlocksRef] = {}
        self._segments: List[shared_memory.SharedMemory] = []
        self._next_tid = 0
        self._discard: set = set()
        self._closed = False
        self._run_lock = threading.Lock()
        self._idle_timer: Optional[threading.Timer] = None

    # -- shared registry ---------------------------------------------------

    @classmethod
    def shared(
        cls,
        workers: Optional[int] = None,
        *,
        idle_timeout: Optional[float] = None,
    ) -> "PersistentPool":
        """The process-wide pool for ``workers`` lanes — this is what
        ``make_executor("pool")`` returns, so repeated ``compute()``
        calls reuse one set of warm workers.

        ``idle_timeout`` (seconds; ``None`` leaves the pool's current
        setting untouched) adjusts how long the shared pool keeps idle
        workers alive.  Long-lived callers — the job service keeps one
        warm pool across requests — pass a generous timeout so workers
        survive gaps between jobs; one-shot scripts keep the default."""
        if workers is None:
            workers = min(os.cpu_count() or 1, 16)
        with cls._instances_lock:
            pool = cls._instances.get(workers)
            if pool is None or pool._closed:
                if idle_timeout is None:
                    pool = cls(workers)
                else:
                    pool = cls(workers, idle_timeout=idle_timeout)
                cls._instances[workers] = pool
            elif idle_timeout is not None:
                pool.idle_timeout = idle_timeout
        return pool

    @classmethod
    def _close_all(cls) -> None:
        with cls._instances_lock:
            pools = list(cls._instances.values())
            cls._instances.clear()
        for pool in pools:
            pool.close()

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut workers down and unlink every shared segment.  Safe to
        call twice; the pool is unusable afterwards."""
        with self._run_lock:
            self._cancel_idle_timer()
            self._shutdown_workers()
            self._release_segments()
            self._closed = True
        with self._instances_lock:
            for key, pool in list(self._instances.items()):
                if pool is self:
                    del self._instances[key]

    @property
    def alive(self) -> bool:
        """True while at least one worker process is running."""
        return any(w.proc.is_alive() for w in self._workers)

    def _spawn_worker(self) -> _Worker:
        task_q = self._ctx.SimpleQueue()
        proc = self._ctx.Process(
            target=_worker_main, args=(task_q, self._result_q),
            daemon=True, name="repro-pool-worker",
        )
        proc.start()
        return _Worker(proc, task_q)

    def _ensure_workers(self) -> None:
        if self._closed:
            raise RuntimeError("PersistentPool is closed")
        if self._result_q is None:
            # Start the resource tracker *before* forking workers so the
            # children inherit it; otherwise each worker launches its own
            # tracker, which warns about (and double-unlinks) segments the
            # parent already cleaned up.
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
            self._result_q = self._ctx.Queue()
        while len(self._workers) < self.workers:
            self._workers.append(self._spawn_worker())

    def _shutdown_workers(self) -> None:
        for w in self._workers:
            try:
                w.task_q.put(None)
            except Exception:
                pass
        for w in self._workers:
            w.proc.join(timeout=5.0)
            if w.proc.is_alive():  # pragma: no cover - stuck worker
                w.proc.terminate()
                w.proc.join(timeout=5.0)
            try:
                w.task_q.close()
            except Exception:
                pass
        self._workers = []
        self._discard = set()
        if self._result_q is not None:
            try:
                self._result_q.cancel_join_thread()
                self._result_q.close()
            except Exception:
                pass
            self._result_q = None

    def _release_segments(self) -> None:
        for shm in self._segments:
            try:
                shm.close()
            except Exception:
                pass
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
            except Exception:
                pass
        self._segments = []
        self._published = {}

    # -- idle shutdown -----------------------------------------------------

    def _cancel_idle_timer(self) -> None:
        timer = self._idle_timer
        self._idle_timer = None
        if timer is not None:
            timer.cancel()
            if timer is not threading.current_thread():
                # Join so no stray timer thread is alive when a worker
                # respawn forks (multi-threaded fork warns on 3.12+).
                timer.join(timeout=1.0)

    def _arm_idle_timer(self) -> None:
        if self.idle_timeout is None or self._closed:
            return
        self._cancel_idle_timer()
        timer = threading.Timer(self.idle_timeout, self._on_idle)
        timer.daemon = True
        self._idle_timer = timer
        timer.start()

    def _on_idle(self) -> None:
        # Skip (rearmed by the next run anyway) if a run is in flight.
        if not self._run_lock.acquire(blocking=False):
            return
        try:
            if self._closed:
                return
            self._shutdown_workers()
            self._release_segments()
        finally:
            self._run_lock.release()

    # -- publication -------------------------------------------------------

    def _publish(self, blocks: BlockTriple) -> SharedBlocksRef:
        # Keyed on content, not identity: every job rebuilds its blocks,
        # and equal triples must share one segment (and one rebuilt
        # triple per worker) for the life of the pool.
        key = _blocks_digest(blocks)
        ref = self._published.get(key)
        if ref is None:
            ref, shm = _publish_blocks(blocks)
            self._segments.append(shm)
            self._published[key] = ref
        return ref

    # -- executor protocol -------------------------------------------------

    def map(self, fn, items: Iterable) -> List:
        return list(self.imap(fn, items))

    def imap(self, fn, items: Iterable) -> Iterator:
        """In-order results streamed as warm workers finish them."""
        items = list(items)
        if self.workers == 1 or len(items) <= 1:
            for item in items:
                yield fn(item)
            return
        ProcessExecutor._check_picklable(fn)
        with self._run_lock:
            self._cancel_idle_timer()
            self._ensure_workers()
            payloads = [_swizzle_item(item, self._publish) for item in items]
            ProcessExecutor._check_first_item_picklable(payloads)
            yield from self._drive(fn, payloads)

    def _drive(self, fn, payloads) -> Iterator:
        n = len(payloads)
        pending = deque(range(n))
        retries = [0] * n
        tid_to_idx: Dict[int, int] = {}
        results: Dict[int, object] = {}
        next_yield = 0
        try:
            while next_yield < n:
                self._heal(pending, tid_to_idx, retries)
                self._dispatch(pending, fn, payloads, tid_to_idx)
                try:
                    tid, ok, value = self._result_q.get(timeout=0.05)
                except queue.Empty:
                    continue
                for w in self._workers:
                    if w.inflight == tid:
                        w.inflight = None
                        break
                if tid in self._discard:
                    self._discard.discard(tid)
                    continue
                idx = tid_to_idx.pop(tid, None)
                if idx is None:
                    continue
                if not ok:
                    raise value
                results[idx] = value
                while next_yield in results:
                    yield results.pop(next_yield)
                    next_yield += 1
        finally:
            # Abandoned or failed mid-run: anything still crunching in a
            # worker belongs to a dead consumer — ignore its result when
            # it eventually lands.
            for w in self._workers:
                if w.inflight is not None and w.inflight in tid_to_idx:
                    self._discard.add(w.inflight)
            self._arm_idle_timer()

    def _dispatch(self, pending, fn, payloads, tid_to_idx) -> None:
        for w in self._workers:
            if not pending:
                return
            if w.inflight is None and w.proc.is_alive():
                idx = pending.popleft()
                tid = self._next_tid
                self._next_tid += 1
                tid_to_idx[tid] = idx
                w.inflight = tid
                w.task_q.put((tid, fn, payloads[idx]))

    def _heal(self, pending, tid_to_idx, retries) -> None:
        """Respawn dead workers; resubmit each lost task once."""
        for i, w in enumerate(self._workers):
            if w.proc.is_alive():
                continue
            tid = w.inflight
            try:
                w.task_q.close()
            except Exception:
                pass
            self._workers[i] = self._spawn_worker()
            if tid is None:
                continue
            if tid in self._discard:
                self._discard.discard(tid)
                continue
            idx = tid_to_idx.pop(tid, None)
            if idx is None:
                continue
            retries[idx] += 1
            if retries[idx] > 1:
                raise WorkerCrashedError(
                    f"worker died twice while running task {idx}; "
                    f"giving up instead of resubmitting again"
                )
            pending.appendleft(idx)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else (
            "warm" if self.alive else "cold")
        return f"PersistentPool(workers={self.workers}, {state})"


atexit.register(PersistentPool._close_all)
