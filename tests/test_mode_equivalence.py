"""Cross-mode equivalence matrix: one small (E, k∥) job, every engine.

One parametrized test replaces the scattered per-mode parity checks
(serial-vs-warm-calculator, process-shard-vs-serial, threaded-vs-
blocking) with a single contract: **serial ≡ threads ≡ processes ≡
orchestrated** for the same declarative job, slice for slice, to
≤ 1e-12 (bit-for-bit wherever the engines share code paths).  Each mode
runs the job twice: with a k∥ axis, so the matrix exercises the 2D tile
sharding, and without one — a plain scan, which every engine runs as
the one-column case of the same tile path.

Shard/merge edge cases ride along: more shards than items, single-item
grids, empty grids, and refinement rounds that insert nothing — the
configurations where a mis-ordered merge or an empty-shard crash would
hide.
"""

import warnings

import numpy as np
import pytest

from repro.api import CBSJob, ExecutionSpec, KParSpec, compute
from repro.cbs.orchestrator import (
    OrchestratorConfig,
    RefinePolicy,
    ScanOrchestrator,
    ScanReport,
    TuningPolicy,
)
from repro.models import SquareLatticeSlab
from repro.parallel.executor import chunk_spans
from repro.ss.solver import SSConfig
from repro.transport.scan import TransportScanner
from repro.transport.device import TwoProbeDevice

_BASE = dict(
    system={"name": "square-slab", "params": {"width": 2}},
    scan={"window": [-1.0, 0.8, 4], "n_mm": 4, "n_rh": 4, "seed": 1,
          "linear_solver": "direct"},
    ring={"n_int": 16},
    kpar=KParSpec(values=(0.0, 1.1)),
)
_BASE_1D = {k: v for k, v in _BASE.items() if k != "kpar"}

MODES = [
    ExecutionSpec(mode="serial"),
    ExecutionSpec(mode="serial", warm_start=True),
    ExecutionSpec(mode="threads", workers=2),
    ExecutionSpec(mode="processes", workers=2),
    ExecutionSpec(mode="orchestrated", workers=2),
]


def _set_dev(a, b):
    """Symmetric eigenvalue-set distance (sorting complex conjugate
    pairs is order-fragile at 1e-15 noise; counts are pinned apart)."""
    if a.size == 0 and b.size == 0:
        return 0.0
    dist = np.abs(a[:, None] - b[None, :])
    return max(float(dist.min(axis=1).max()),
               float(dist.min(axis=0).max()))


SHAPES = {"kpar": _BASE, "1d": _BASE_1D}


@pytest.fixture(scope="module")
def serial_reference():
    return {
        shape: {
            (s.k_par, s.energy): s
            for s in compute(CBSJob(**base)).slices
        }
        for shape, base in SHAPES.items()
    }


@pytest.mark.parametrize(
    "execution", MODES,
    ids=lambda e: e.mode + ("+warm" if e.warm_start else ""),
)
def test_mode_matrix_equivalence(execution, serial_reference):
    for shape, base in SHAPES.items():
        result = compute(CBSJob(**base, execution=execution))
        seen = {(s.k_par, s.energy): s for s in result.slices}
        reference = serial_reference[shape]
        # every reference grid point is present (refinement may add more)
        assert set(reference) <= set(seen), shape
        if shape == "1d":
            assert all(k is None for k, _e in seen)
        for key, ref in reference.items():
            got = seen[key]
            assert got.count == ref.count, (shape, key, got.count, ref.count)
            if ref.count == 0:
                continue
            dev = _set_dev(got.lambdas(), ref.lambdas())
            assert dev <= 1e-12, (
                f"{execution.mode} {shape} at {key}: dev {dev:.2e}"
            )


def test_mode_matrix_transport(serial_reference):
    base = dict(
        system={"name": "square-slab", "params": {"width": 1}},
        scan={"window": [-0.5, 0.5, 3]},
        transport={"eta": 1e-6, "n_cells": 2},
    )
    for kpar in (KParSpec(grid=2), None):
        serial = compute(CBSJob(**base, kpar=kpar))
        for mode in ("threads", "processes", "orchestrated"):
            other = compute(
                CBSJob(
                    **base,
                    kpar=kpar,
                    execution=ExecutionSpec(mode=mode, workers=2),
                )
            )
            assert len(other.slices) == len(serial.slices)
            for a, b in zip(serial.slices, other.slices):
                assert (a.k_par, a.energy) == (b.k_par, b.energy)
                assert (a.k_weight == 1.0) == (kpar is None)
                assert abs(a.transmission - b.transmission) <= 1e-12


# ----------------------------------------------------------------------
# chunk_spans / shard-merge edge cases
# ----------------------------------------------------------------------


def test_chunk_spans_more_chunks_than_items():
    spans = chunk_spans(2, 7)
    assert spans == [(0, 1), (1, 2)]
    assert all(hi > lo for lo, hi in spans)  # no empty spans, ever


def test_chunk_spans_single_item_grid():
    assert chunk_spans(1, 1) == [(0, 1)]
    assert chunk_spans(1, 16) == [(0, 1)]


def test_chunk_spans_rejects_negative_items():
    with pytest.raises(ValueError, match="n_items"):
        chunk_spans(-1, 2)


def _orchestrator(**orch_kwargs):
    return ScanOrchestrator(
        SquareLatticeSlab(width=2).blocks(),
        SSConfig(n_int=16, n_mm=4, n_rh=4, seed=1,
                 linear_solver="direct"),
        orch=OrchestratorConfig(executor=None, **orch_kwargs),
        _internal=True,
    )


def test_orchestrator_empty_grid_is_empty_result():
    scan = _orchestrator().scan([])
    assert scan.result.slices == []
    assert scan.report.n_shards == 0
    assert scan.report.solves == 0


def test_orchestrator_single_item_grid_with_many_shards():
    scan = _orchestrator(n_shards=8).scan([0.25])
    assert [s.energy for s in scan.result.slices] == [0.25]
    assert scan.report.n_shards == 1  # never an empty shard


def test_orchestrator_empty_refinement_round():
    """A featureless window produces zero insertions, not a crash, and
    the merge stays energy-ordered."""
    from repro.models import MonatomicChain

    orc = ScanOrchestrator(
        MonatomicChain(hopping=-1.0).blocks(),
        SSConfig(n_int=16, n_mm=2, n_rh=2, seed=1,
                 linear_solver="direct"),
        orch=OrchestratorConfig(
            executor=None,
            n_shards=3,
            refine=RefinePolicy(enabled=True, max_depth=3),
            tuning=TuningPolicy(enabled=False),
        ),
        _internal=True,
    )
    # band center: two propagating modes everywhere, nothing to bisect
    scan = orc.scan([-0.3, -0.1, 0.1, 0.3])
    assert scan.report.refine_rounds == 0
    assert scan.report.refined_energies == []
    energies = [s.energy for s in scan.result.slices]
    assert energies == sorted(energies)


def test_orchestrator_kpar_empty_inputs():
    orc = _orchestrator()
    assert list(orc.iter_kpar_scan([], [(0.0, orc.blocks)])) == []
    assert list(orc.iter_kpar_scan([0.0], [])) == []


def test_orchestrator_kpar_more_columns_than_shards():
    orc = _orchestrator(
        n_shards=1, refine=RefinePolicy(enabled=False)
    )
    columns = [
        (k, SquareLatticeSlab(width=2, k_par=k).blocks())
        for k in (0.0, 0.7, 1.4)
    ]
    report = ScanReport()
    slices = list(
        orc.iter_kpar_scan([0.0, 0.5], columns, report=report)
    )
    keys = [(s.k_par, s.energy) for s in slices]
    assert keys == sorted(keys)
    assert report.n_shards == 3  # one tile per column, none empty


def test_transport_scanner_empty_and_single_grids():
    device = TwoProbeDevice(SquareLatticeSlab(width=1).blocks())
    scanner = TransportScanner(device, executor=None)
    result, report = scanner.scan([])
    assert result.slices == [] and report.n_shards == 0
    result, report = scanner.scan([0.2])
    assert [s.energy for s in result.slices] == [0.2]
    assert report.n_shards == 1
    assert list(
        scanner.iter_kpar_scan([], [(0.0, 1.0, device)])
    ) == []


def test_legacy_scan_orchestrator_still_matches_compute():
    """The deprecated direct-construction path stays wired to the same
    engine the api routes to (the one legacy pin the matrix keeps)."""
    job = CBSJob(
        **_BASE_1D,
        execution=ExecutionSpec(
            mode="orchestrated", workers=1, warm_start=True
        ),
    )
    via_api = compute(job)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        legacy = ScanOrchestrator(
            SquareLatticeSlab(width=2).blocks(),
            job.ss_config(),
            warm_start=True,
            orch=OrchestratorConfig(executor=None),
        ).scan(job.energies())
    assert len(via_api.slices) == len(legacy.result.slices)
    for a, b in zip(via_api.slices, legacy.result.slices):
        assert a.energy == b.energy
        np.testing.assert_array_equal(a.lambdas(), b.lambdas())
