"""Task executors for the top/middle Sakurai-Sugiura layers.

The linear solves at different (quadrature point, right-hand side) pairs
are embarrassingly parallel — no communication, which is why the paper's
top two layers scale almost ideally.  On a single machine we exploit the
same structure with a thread pool: the heavy kernels (sparse matvec,
SuperLU solves, BLAS) release the GIL, so threads give genuine speedup
without pickling the operators the way a process pool would.

The executor protocol is intentionally tiny (``map`` plus a ``workers``
attribute) so the SS solver does not care which backend runs its tasks.
Step-1 methods choose their own granularity from it: ``direct`` maps
one sparse factorization per quadrature point, while ``bicg-batched``
shards its stacked shift axis into ``workers`` sub-stacks, each advancing a
whole block of systems per matvec (with per-shard quorum control, since
time-sliced shards cannot share one round-by-round quorum soundly).
"""

from __future__ import annotations

import ctypes
import os
import pickle
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import (
    Callable, Dict, Iterable, Iterator, List, Sequence, Tuple, TypeVar,
)

from repro.errors import ConfigurationError

T = TypeVar("T")
R = TypeVar("R")


def chunk_spans(n_items: int, n_chunks: int) -> List[Tuple[int, int]]:
    """Contiguous ``(lo, hi)`` spans splitting ``range(n_items)`` into at
    most ``n_chunks`` near-equal chunks (larger chunks first).

    The chunked process map pattern: a caller shards its work list with
    these spans, ships one picklable payload per chunk, and merges the
    per-chunk results back in input order.  Empty spans are never
    produced; fewer than ``n_chunks`` spans come back when there are
    fewer items than chunks.
    """
    if n_chunks < 1:
        raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
    if n_items < 0:
        raise ValueError(f"n_items must be >= 0, got {n_items}")
    k = min(n_chunks, n_items)
    if k == 0:
        return []
    base, extra = divmod(n_items, k)
    spans: List[Tuple[int, int]] = []
    lo = 0
    for i in range(k):
        hi = lo + base + (1 if i < extra else 0)
        spans.append((lo, hi))
        lo = hi
    return spans


#: ``set_num_threads`` entry points of the OpenBLAS builds numpy and
#: scipy ship: plain OpenBLAS and the ``scipy_openblas`` LP64/ILP64
#: wheels, which prefix and suffix their symbols.
_OPENBLAS_PREFIXES = ("openblas", "scipy_openblas")
_OPENBLAS_SUFFIXES = ("", "64_")


def _openblas_calls(verb: str) -> List[Tuple[str, Callable]]:
    """``(library path, <prefix>_{verb}_num_threads<suffix>)`` for every
    OpenBLAS mapped into this process (none off Linux, where
    ``/proc/self/maps`` does not exist)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({
                line.split(None, 5)[-1].strip() for line in fh
                if "openblas" in line.lower()
            })
    except OSError:
        return []
    calls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in _OPENBLAS_PREFIXES:
            for suffix in _OPENBLAS_SUFFIXES:
                fn = getattr(lib, f"{prefix}_{verb}_num_threads{suffix}", None)
                if fn is not None:
                    calls.append((path, fn))
    return calls


def blas_thread_counts() -> Dict[str, int]:
    """Thread count of every loaded OpenBLAS, keyed by library path."""
    counts = {}
    for path, fn in _openblas_calls("get"):
        fn.argtypes = []
        fn.restype = ctypes.c_int
        counts[path] = int(fn())
    return counts


def limit_blas_threads() -> None:
    """Set every loaded OpenBLAS to one thread; a no-op without one.

    Worker processes call this on start: two workers each running the
    default one-thread-per-core BLAS oversubscribe the cores they share
    and run slower than one process.
    """
    for _path, fn in _openblas_calls("set"):
        fn.argtypes = [ctypes.c_int]
        fn.restype = None
        fn(1)


def _pool_imap(pool_cls, workers: int, fn, items, **pool_kwargs) -> Iterator:
    """Submit everything, yield results in input order as they finish.

    The streaming primitive behind ``imap``: later items keep computing
    in the pool while earlier results are consumed, so an in-order
    consumer (e.g. an energy-ordered slice stream) overlaps compute and
    delivery.  Closing the generator early cancels unstarted work.
    """
    pool = pool_cls(max_workers=workers, **pool_kwargs)
    futures = [pool.submit(fn, item) for item in items]
    try:
        for fut in futures:
            yield fut.result()
    finally:
        # cancel_futures drops everything still queued before the
        # blocking shutdown, so an early failure (or an abandoned
        # stream) propagates promptly instead of waiting for the whole
        # submitted backlog to run to completion.
        pool.shutdown(wait=True, cancel_futures=True)


class SerialExecutor:
    """Run tasks in order in the calling thread (the default)."""

    workers = 1

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        return [fn(item) for item in items]

    def imap(self, fn: Callable[[T], R], items: Sequence[T]) -> Iterator[R]:
        """Lazy in-order results; nothing runs until consumed."""
        for item in items:
            yield fn(item)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "SerialExecutor()"


class ThreadExecutor:
    """Thread-pool executor preserving input order.

    Parameters
    ----------
    workers:
        Pool size; defaults to ``os.cpu_count()`` capped at 16 (beyond
        that the memory-bandwidth-bound kernels stop scaling).
    """

    def __init__(self, workers: int | None = None) -> None:
        if workers is None:
            workers = min(os.cpu_count() or 1, 16)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        items = list(items)
        if self.workers == 1 or len(items) <= 1:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            return list(pool.map(fn, items))

    def imap(self, fn: Callable[[T], R], items: Sequence[T]) -> Iterator[R]:
        """In-order results streamed as they complete on the pool."""
        items = list(items)
        if self.workers == 1 or len(items) <= 1:
            for item in items:
                yield fn(item)
            return
        yield from _pool_imap(ThreadPoolExecutor, self.workers, fn, items)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ThreadExecutor(workers={self.workers})"


class ProcessExecutor:
    """Process-pool executor for coarse-grained tasks (energy slices).

    SciPy's sparse kernels hold the GIL, so threads cannot speed up the
    BiCG inner loops; processes can — at the cost of pickling the task
    payload (the block triple, a few MB).  Use for the *energy-scan*
    level, where one task amortizes many seconds of work; the fine
    (point × RHS) level stays on threads/serial.
    """

    def __init__(self, workers: int | None = None) -> None:
        if workers is None:
            workers = min(os.cpu_count() or 1, 16)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        items = list(items)
        if self.workers == 1 or len(items) <= 1:
            return [fn(item) for item in items]
        self._check_picklable(fn)
        self._check_first_item_picklable(items)
        with ProcessPoolExecutor(
            max_workers=self.workers, initializer=limit_blas_threads
        ) as pool:
            return list(pool.map(fn, items))

    def imap(self, fn: Callable[[T], R], items: Iterable[T]) -> Iterator[R]:
        """In-order results streamed as worker processes finish them."""
        items = list(items)
        if self.workers == 1 or len(items) <= 1:
            for item in items:
                yield fn(item)
            return
        self._check_picklable(fn)
        self._check_first_item_picklable(items)
        yield from _pool_imap(ProcessPoolExecutor, self.workers, fn, items,
                              initializer=limit_blas_threads)

    @staticmethod
    def _check_picklable(fn: Callable) -> None:
        """Fail fast with an actionable message instead of the opaque
        ``PicklingError`` traceback the pool would raise mid-map.

        Lambdas, closures, and functions defined inside other functions
        cannot cross a process boundary; bound methods can, as long as
        the instance itself pickles.
        """
        try:
            pickle.dumps(fn)
        except Exception as exc:
            raise ConfigurationError(
                f"ProcessExecutor.map requires a picklable callable "
                f"(module-level function or bound method of a picklable "
                f"object); got {fn!r}. Move the function to module scope "
                f"or use a thread/serial executor. Pickling failed with: "
                f"{exc}"
            ) from exc

    @staticmethod
    def _check_first_item_picklable(items: Sequence) -> None:
        """Probe the first task payload the same way as the callable.

        Items cross the process boundary too; a payload holding a lock,
        an open file, or a closure dies with the same opaque mid-map
        ``PicklingError`` the callable check was built to prevent.
        """
        if not items:
            return
        try:
            pickle.dumps(items[0])
        except Exception as exc:
            raise ConfigurationError(
                f"ProcessExecutor.map requires picklable task items "
                f"(they are shipped to worker processes); the first item "
                f"{items[0]!r} does not pickle. Move unpicklable state "
                f"(locks, open files, closures) out of the payload or "
                f"use a thread/serial executor. Pickling failed with: "
                f"{exc}"
            ) from exc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessExecutor(workers={self.workers})"


def _check_worker_count(count, spec) -> int:
    """Validate an executor-spec worker count.

    ``bool`` passes ``isinstance(count, int)`` (``True == 1``), so an
    accidental ``make_executor(True)`` used to silently build a
    :class:`SerialExecutor`; likewise ``("processes", -3)`` silently
    mapped to serial.  Both now fail loudly, naming the offending value.
    """
    if isinstance(count, bool) or not isinstance(count, int):
        raise ConfigurationError(
            f"executor spec {spec!r}: worker count must be an int, "
            f"got {count!r}"
        )
    if count < 1:
        raise ConfigurationError(
            f"executor spec {spec!r}: worker count must be >= 1, "
            f"got {count!r}"
        )
    return count


def make_executor(spec) -> "SerialExecutor | ThreadExecutor | ProcessExecutor":
    """Build an executor from a config value.

    ``None`` or ``"serial"`` → :class:`SerialExecutor`;
    ``"threads"`` → :class:`ThreadExecutor` with the default pool;
    ``"processes"`` → :class:`ProcessExecutor` with the default pool;
    ``"pool"`` → the shared persistent worker pool
    (:class:`repro.parallel.pool.PersistentPool`);
    an int ``k`` → threads with ``k`` workers;
    ``("processes", k)`` → processes with ``k`` workers;
    ``("pool", k)`` → the shared persistent pool with ``k`` workers.

    Bools and worker counts below 1 are rejected with a
    :class:`~repro.errors.ConfigurationError`; a count of exactly 1
    degenerates to :class:`SerialExecutor` (no pool is worth spinning up
    for one lane).
    """
    if isinstance(spec, bool):
        raise ConfigurationError(
            f"executor spec must not be a bool, got {spec!r}; pass an "
            f"int worker count or one of 'serial'/'threads'/'processes'/"
            f"'pool'"
        )
    if spec is None or spec == "serial":
        return SerialExecutor()
    if spec == "threads":
        return ThreadExecutor()
    if spec == "processes":
        return ProcessExecutor()
    if spec == "pool":
        from repro.parallel.pool import PersistentPool

        return PersistentPool.shared()
    if isinstance(spec, tuple) and len(spec) == 2 and spec[0] == "processes":
        k = _check_worker_count(spec[1], spec)
        return SerialExecutor() if k == 1 else ProcessExecutor(k)
    if isinstance(spec, tuple) and len(spec) == 2 and spec[0] == "pool":
        k = _check_worker_count(spec[1], spec)
        if k == 1:
            return SerialExecutor()
        from repro.parallel.pool import PersistentPool

        return PersistentPool.shared(k)
    if isinstance(spec, int):
        k = _check_worker_count(spec, spec)
        return SerialExecutor() if k == 1 else ThreadExecutor(k)
    raise ValueError(f"unknown executor spec {spec!r}")
