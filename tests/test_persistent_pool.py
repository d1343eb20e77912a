"""The persistent shared-memory worker pool (``repro.parallel.pool``).

Covers the tentpole contract:

* executor protocol (``map``/``imap`` order and parity, generator
  input, inline degenerate paths);
* persistence — the same worker processes serve consecutive calls;
* shared-memory publication of :class:`BlockTriple` payloads: exact
  roundtrip, one segment per distinct blocks content, and provable
  unlink on ``close()`` (no leaked segments, no resource_tracker
  noise);
* lifecycle — context manager, idle shutdown + transparent respawn,
  crash-restart with single resubmission, exception propagation that
  leaves the pool usable;
* ``make_executor`` routing for ``"pool"`` / ``("pool", k)``;
* api-level parity: a pool-backed (E, k∥) job returns exactly the
  serial and process answers.
"""

import dataclasses
import os
import signal
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.api import CBSJob, ExecutionSpec, KParSpec, compute, resolve_system
from repro.models.ladder import TransverseLadder
from repro.parallel.executor import (
    SerialExecutor,
    blas_thread_counts,
    make_executor,
)
from repro.parallel.pool import (
    PersistentPool,
    SharedBlocksRef,
    WorkerCrashedError,
    _blocks_digest,
    _publish_blocks,
    _restore_blocks,
    _restore_item,
    _swizzle_item,
)
from repro.qep.blocks import BlockTriple, as_dense_complex
from repro.qep.pencil import QuadraticPencil

BLOCKS = TransverseLadder(width=3).blocks()


# -- module-level task functions (workers unpickle these) ----------------


def _square(x):
    return x * x


def _pid(_):
    return os.getpid()


def _raise_on_three(x):
    if x == 3:
        raise ValueError(f"bad item {x}")
    return -x


def _kill_worker_on(item):
    if item == "die":
        os.kill(os.getpid(), signal.SIGKILL)
    return item


def _kill_worker_once(payload):
    marker, item = payload
    if item == "bomb" and not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return item


@dataclasses.dataclass(frozen=True)
class _ShardSpec:
    """Stand-in for an orchestrator shard spec: blocks at top level."""

    blocks: BlockTriple
    scale: float


def _blas_threads(_):
    return blas_thread_counts()


def _h0_trace(spec):
    assert isinstance(spec.blocks, BlockTriple), type(spec.blocks)
    return spec.scale * complex(spec.blocks.h0.diagonal().sum())


@pytest.fixture
def pool():
    p = PersistentPool(2, idle_timeout=None)
    yield p
    p.close()


# ----------------------------------------------------------------------
# executor protocol
# ----------------------------------------------------------------------


def test_map_order_and_parity(pool):
    assert pool.map(_square, range(10)) == [i * i for i in range(10)]


def test_imap_streams_in_order(pool):
    assert list(pool.imap(_square, (i for i in range(7)))) == [
        i * i for i in range(7)
    ]


def test_inline_paths_skip_workers():
    with PersistentPool(1, idle_timeout=None) as p:
        assert p.map(_square, [1, 2, 3]) == [1, 4, 9]
        assert not p.alive  # single lane never forks
    with PersistentPool(4, idle_timeout=None) as p:
        assert p.map(_square, [5]) == [25]  # single item stays inline
        assert not p.alive


def test_workers_persist_across_calls(pool):
    pids_first = set(pool.map(_pid, range(8)))
    assert pool.alive
    pids_second = set(pool.map(_pid, range(8)))
    assert pids_second <= pids_first
    assert len(pids_first) <= 2


def test_worker_count_validation():
    with pytest.raises(ValueError, match="int"):
        PersistentPool(True)
    with pytest.raises(ValueError, match=">= 1"):
        PersistentPool(0)


# ----------------------------------------------------------------------
# shared-memory publication
# ----------------------------------------------------------------------


@pytest.mark.parametrize("dense", [False, True], ids=["csr", "dense"])
def test_publish_restore_roundtrip(dense):
    blocks = BLOCKS.as_dense() if dense else BLOCKS
    ref, shm = _publish_blocks(blocks)
    try:
        restored = _restore_blocks(ref, shm)
        assert restored.cell_length == blocks.cell_length
        assert restored.is_sparse == blocks.is_sparse
        for name in ("hm", "h0", "hp"):
            np.testing.assert_array_equal(
                as_dense_complex(getattr(restored, name)),
                as_dense_complex(getattr(blocks, name)),
            )
        del restored  # drop buffer exports before closing the mmap
    finally:
        shm.close()
        shm.unlink()
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=ref.segment)


def test_publish_restore_keeps_the_separable_form():
    blocks = resolve_system("al100", {"spacing_angstrom": 0.9})
    assert blocks.separable is not None
    ref, shm = _publish_blocks(blocks)
    try:
        restored = _restore_blocks(ref, shm)
        for a, b in zip(restored.separable.factors, blocks.separable.factors):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a.toarray(), b.toarray())
        x = np.arange(3 * blocks.n, dtype=complex).reshape(blocks.n, 3)
        pa = QuadraticPencil(restored, 0.2).apply(1.1j, x)
        assert np.array_equal(pa, QuadraticPencil(blocks, 0.2).apply(1.1j, x))
        del restored
    finally:
        shm.close()
        shm.unlink()


def test_factored_and_plain_triples_get_distinct_segments(pool):
    factored = resolve_system("al100", {"spacing_angstrom": 0.9})
    plain = BlockTriple(factored.hm, factored.h0, factored.hp,
                        factored.cell_length)
    assert _blocks_digest(factored) != _blocks_digest(plain)
    items = [_ShardSpec(b, 1.0) for b in (factored, plain)]
    traces = pool.map(_h0_trace, items)
    assert traces[0] == traces[1]
    assert len(pool._segments) == 2


def test_swizzle_replaces_only_block_fields():
    published = []

    def publish(blocks):
        ref, shm = _publish_blocks(blocks)
        published.append(shm)
        return ref

    item = _ShardSpec(blocks=BLOCKS, scale=2.0)
    try:
        wire = _swizzle_item(item, publish)
        assert isinstance(wire.blocks, SharedBlocksRef)
        assert wire.scale == 2.0
        attached, cache = {}, {}
        back = _restore_item(wire, attached, cache)
        assert isinstance(back.blocks, BlockTriple)
        np.testing.assert_array_equal(
            as_dense_complex(back.blocks.h0), as_dense_complex(BLOCKS.h0)
        )
        # repeated restores hit the per-worker cache, not the segment
        again = _restore_item(wire, attached, cache)
        assert again.blocks is back.blocks
        # non-dataclass payloads pass through untouched
        assert _swizzle_item((1, 2), publish) == (1, 2)
        del back, again, cache
    finally:
        for shm in published:
            shm.close()
            shm.unlink()


def test_blocks_cross_the_pool_via_one_segment(pool):
    items = [_ShardSpec(blocks=BLOCKS, scale=float(s)) for s in range(4)]
    expected = [s.scale * complex(BLOCKS.h0.diagonal().sum()) for s in items]
    assert pool.map(_h0_trace, items) == expected
    # one distinct BlockTriple → one published segment, reused by the
    # second call as well
    assert len(pool._segments) == 1
    assert pool.map(_h0_trace, items) == expected
    assert len(pool._segments) == 1
    # equal content in distinct objects (every job rebuilds its blocks)
    # shares that segment too
    twins = [TransverseLadder(width=3).blocks(),
             TransverseLadder(width=3).blocks()]
    assert twins[0] is not twins[1] and twins[0] is not BLOCKS
    items = [_ShardSpec(blocks=b, scale=1.0) for b in twins]
    assert pool.map(_h0_trace, items) == expected[1:2] * 2
    assert len(pool._segments) == 1
    # different content gets its own segment
    other = TransverseLadder(width=4).blocks()
    pool.map(_h0_trace, [_ShardSpec(other, 1.0), _ShardSpec(other, 2.0)])
    assert len(pool._segments) == 2


def test_workers_run_single_threaded_blas(pool):
    """Pool workers share the host's cores, so each pins its BLAS to
    one thread instead of oversubscribing them."""
    if not blas_thread_counts():
        pytest.skip("no OpenBLAS loaded in this interpreter")
    for counts in pool.map(_blas_threads, range(4)):
        assert counts and set(counts.values()) == {1}


def test_process_executor_workers_run_single_threaded_blas():
    if not blas_thread_counts():
        pytest.skip("no OpenBLAS loaded in this interpreter")
    for counts in make_executor(("processes", 2)).map(_blas_threads, range(2)):
        assert counts and set(counts.values()) == {1}


def test_close_unlinks_segments():
    p = PersistentPool(2, idle_timeout=None)
    items = [_ShardSpec(blocks=BLOCKS, scale=1.0), _ShardSpec(BLOCKS, 2.0)]
    p.map(_h0_trace, items)
    names = [shm.name for shm in p._segments]
    assert names
    p.close()
    assert not p.alive
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
    with pytest.raises(RuntimeError, match="closed"):
        p.map(_square, [1, 2, 3])


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------


def test_context_manager_closes():
    with PersistentPool(2, idle_timeout=None) as p:
        assert p.map(_square, [1, 2, 3]) == [1, 4, 9]
        assert p.alive
    assert not p.alive
    assert p._segments == []


def test_idle_timeout_tears_down_and_respawns():
    p = PersistentPool(2, idle_timeout=0.2)
    try:
        assert p.map(_square, [1, 2, 3]) == [1, 4, 9]
        deadline = time.monotonic() + 10.0
        while p.alive and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not p.alive, "idle timeout never fired"
        # next call respawns transparently
        assert p.map(_square, [4, 5, 6]) == [16, 25, 36]
        assert p.alive
    finally:
        p.close()


def test_task_exception_propagates_and_pool_survives(pool):
    with pytest.raises(ValueError, match="bad item 3"):
        pool.map(_raise_on_three, range(6))
    assert pool.map(_square, range(4)) == [0, 1, 4, 9]


def test_worker_crash_restarts_and_retries_once(tmp_path, pool):
    marker = str(tmp_path / "killed-once")
    payloads = [(marker, "a"), (marker, "bomb"), (marker, "b")]
    # first run of "bomb" SIGKILLs its worker; the resubmitted run sees
    # the marker and succeeds — the caller never notices the crash
    assert pool.map(_kill_worker_once, payloads) == ["a", "bomb", "b"]
    assert os.path.exists(marker)
    assert pool.alive


def test_worker_crash_twice_raises_and_pool_survives(pool):
    with pytest.raises(WorkerCrashedError, match="died twice"):
        pool.map(_kill_worker_on, ["a", "die", "b", "c"])
    # the pool healed its workers and keeps serving
    assert pool.map(_square, range(4)) == [0, 1, 4, 9]


# ----------------------------------------------------------------------
# make_executor routing
# ----------------------------------------------------------------------


def test_make_executor_pool_routing():
    ex = make_executor(("pool", 3))
    assert isinstance(ex, PersistentPool)
    assert ex.workers == 3
    # the shared registry hands out the same warm pool per lane count
    assert make_executor(("pool", 3)) is ex
    assert isinstance(make_executor("pool"), PersistentPool)
    assert isinstance(make_executor(("pool", 1)), SerialExecutor)


# ----------------------------------------------------------------------
# api-level parity: pool ≡ serial ≡ processes on an (E, k∥) job
# ----------------------------------------------------------------------

_GRID_BASE = dict(
    system={"name": "square-slab", "params": {"width": 2}},
    scan={
        "window": [-1.0, 0.8, 3],
        "n_mm": 4,
        "n_rh": 4,
        "seed": 1,
        "linear_solver": "direct",
    },
    ring={"n_int": 16},
    kpar=KParSpec(grid=2),
)


def test_al100_pool_slices_match_serial():
    """Pool workers restore the separable form from the segment; their
    slices equal the serial run's bit for bit."""
    base = dict(
        system={"name": "al100", "params": {"spacing_angstrom": 0.9}},
        scan={"window": [0.1, 0.3, 4], "n_mm": 4, "n_rh": 4, "seed": 1,
              "linear_solver": "bicg-batched"},
        ring={"n_int": 16},
    )
    serial = compute(CBSJob(**base, execution=ExecutionSpec(
        mode="serial", warm_start=False)))
    shared = make_executor(("pool", 2))
    try:
        pooled = compute(CBSJob(**base, execution=ExecutionSpec(
            mode="pool", workers=2, warm_start=False)))
        assert any(ref.separable is not None
                   for ref in shared._published.values())
    finally:
        shared.close()
    assert len(serial.slices) == len(pooled.slices) == 4
    assert sum(sl.lambdas().size for sl in serial.slices) > 0
    for a, b in zip(serial.slices, pooled.slices):
        assert a.energy == b.energy
        np.testing.assert_array_equal(a.lambdas(), b.lambdas())


def _grid_table(result):
    return {
        (sl.k_par, sl.energy): sl.lambdas() for sl in result.slices
    }


def test_pool_mode_matches_serial_and_processes():
    serial = _grid_table(
        compute(CBSJob(**_GRID_BASE, execution=ExecutionSpec(mode="serial",
                                                             warm_start=False)))
    )
    pool_job = CBSJob(
        **_GRID_BASE,
        execution=ExecutionSpec(mode="pool", workers=2, warm_start=False),
    )
    try:
        pooled = _grid_table(compute(pool_job))
        # persistence across compute() calls: the second run reuses the
        # same warm pool and returns the same table
        pooled_again = _grid_table(compute(pool_job))
    finally:
        make_executor(("pool", 2)).close()
    procs = _grid_table(
        compute(CBSJob(
            **_GRID_BASE,
            execution=ExecutionSpec(mode="processes", workers=2,
                                    warm_start=False),
        ))
    )
    assert set(serial) == set(pooled) == set(procs) == set(pooled_again)
    for key, lam in serial.items():
        np.testing.assert_array_equal(pooled[key], lam)
        np.testing.assert_array_equal(pooled_again[key], lam)
        np.testing.assert_array_equal(procs[key], lam)
