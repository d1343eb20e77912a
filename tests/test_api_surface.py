"""Public API surface pins.

``repro.api.__all__`` is the contract served to callers; this test pins
it exactly so additions/removals are deliberate, and asserts that every
legacy import path still resolves (the deprecation shims must never
break imports).
"""

import importlib

import pytest

import repro
import repro.api as api

EXPECTED_API_ALL = [
    "CBSJob",
    "CBSResult",
    "CBS_RESULT_SCHEMA_VERSION",
    "CancelFn",
    "EnergySlice",
    "ExecutionSpec",
    "JOB_SPEC_VERSION",
    "KParSpec",
    "MapSpec",
    "ProgressFn",
    "RefinePolicy",
    "RingSpec",
    "ScanSpec",
    "SystemSpec",
    "TRANSPORT_RESULT_SCHEMA_VERSION",
    "TransportResult",
    "TransportSlice",
    "TransportSpec",
    "TuningPolicy",
    "available_systems",
    "compute",
    "compute_iter",
    "load_result",
    "monkhorst_pack",
    "register_system",
    "resolve_system",
    "save_result",
]


def test_api_all_is_pinned():
    assert sorted(api.__all__) == EXPECTED_API_ALL
    for name in api.__all__:
        assert getattr(api, name) is not None


def test_top_level_all_resolves():
    for name in repro.__all__:
        assert getattr(repro, name) is not None


LEGACY_IMPORTS = [
    ("repro", "SSConfig"),
    ("repro", "SSHankelSolver"),
    ("repro", "SSResult"),
    ("repro", "BlockTriple"),
    ("repro", "QuadraticPencil"),
    ("repro.ss", "SSHankelSolver"),
    ("repro.ss.solver", "SSConfig"),
    ("repro.cbs", "CBSCalculator"),
    ("repro.cbs", "CBSResult"),
    ("repro.cbs", "EnergySlice"),
    ("repro.cbs", "ScanOrchestrator"),
    ("repro.cbs", "run_warm_chain"),
    ("repro.cbs", "iter_warm_chain"),
    ("repro.cbs.scan", "CBSCalculator"),
    ("repro.cbs.orchestrator", "ScanOrchestrator"),
    ("repro.cbs.orchestrator", "OrchestratorConfig"),
    ("repro.cbs.orchestrator", "TuningPolicy"),
    ("repro.cbs.orchestrator", "RefinePolicy"),
    ("repro.io", "SliceCache"),
    ("repro.io", "save_result"),
    ("repro.io", "load_result"),
    ("repro.io.slice_cache", "context_key"),
    ("repro.models", "MonatomicChain"),
    ("repro.models", "DiatomicChain"),
    ("repro.models", "TransverseLadder"),
    ("repro.models", "SquareLatticeSlab"),
    ("repro.dft.builders", "bulk_al100"),
    ("repro.parallel.executor", "make_executor"),
    ("repro.parallel.executor", "chunk_spans"),
    ("repro.cbs.orchestrator", "ProgressFn"),
    ("repro.cbs.orchestrator", "CancelFn"),
    ("repro.transport", "TwoProbeDevice"),
    ("repro.transport", "TransportCalculator"),
    ("repro.transport", "TransportScanner"),
    ("repro.transport", "ss_self_energies"),
    ("repro.transport", "decimation_self_energies"),
    ("repro.transport", "surface_greens_function"),
]


@pytest.mark.parametrize("module,name", LEGACY_IMPORTS)
def test_legacy_import_resolves(module, name):
    mod = importlib.import_module(module)
    assert getattr(mod, name) is not None


def test_compute_is_importable_from_api_only_place():
    from repro.api import compute, compute_iter, CBSJob  # noqa: F401
