"""The unified workload API: CBSJob specs, routing parity, streaming.

The tentpole contracts (ISSUE 3 acceptance):

* one ``repro.api.compute(job)`` call reproduces, bit-for-bit, the
  results of each legacy path it routes to — single-energy solve,
  serial warm scan, orchestrated scan;
* a ``CBSJob`` serialized to JSON and reloaded produces the same job
  hash and the same slice-cache hits;
* the legacy entry points survive as deprecation shims.
"""

import warnings

import numpy as np
import pytest

import repro.api as api
from repro.api import (
    CBSJob,
    ExecutionSpec,
    RingSpec,
    ScanSpec,
    SystemSpec,
    compute,
    compute_iter,
)
from repro.cbs import CBSCalculator
from repro.cbs.orchestrator import (
    OrchestratorConfig,
    RefinePolicy,
    ScanOrchestrator,
    TuningPolicy,
)
from repro.errors import ConfigurationError
from repro.models.ladder import TransverseLadder
from repro.ss.solver import SSConfig, SSHankelSolver

LADDER = TransverseLadder(width=4)
GRID = [-1.93, -0.9, 0.1, 0.96, 1.93]


def _scan_spec(**kw):
    base = dict(
        energies=tuple(GRID), n_mm=4, n_rh=4, seed=7, linear_solver="direct"
    )
    base.update(kw)
    return ScanSpec(**base)


def _job(**execution):
    return CBSJob(
        system=SystemSpec("ladder", {"width": 4}),
        scan=_scan_spec(),
        ring=RingSpec(n_int=16),
        execution=ExecutionSpec(**execution),
    )


def _legacy_cfg():
    return SSConfig(n_int=16, n_mm=4, n_rh=4, seed=7, linear_solver="direct")


def _lambdas_equal(result, slices):
    assert [s.energy for s in result.slices] == [s.energy for s in slices]
    for a, b in zip(result.slices, slices):
        assert np.array_equal(a.lambdas(), b.lambdas())


# -- spec validation -----------------------------------------------------------


def test_scan_spec_needs_exactly_one_grid_source():
    with pytest.raises(ConfigurationError, match="exactly one"):
        ScanSpec()
    with pytest.raises(ConfigurationError, match="exactly one"):
        ScanSpec(energies=(0.0,), window=(0.0, 1.0, 5))
    with pytest.raises(ConfigurationError, match="non-empty"):
        ScanSpec(energies=())
    with pytest.raises(ConfigurationError, match="n >= 1"):
        ScanSpec(window=(0.0, 1.0, 0))
    with pytest.raises(ConfigurationError, match="finite"):
        ScanSpec(energies=(float("nan"),))


def test_execution_spec_validation():
    with pytest.raises(ConfigurationError, match="mode"):
        ExecutionSpec(mode="gpu")
    with pytest.raises(ConfigurationError, match="workers"):
        ExecutionSpec(workers=0)
    with pytest.raises(ConfigurationError, match="n_shards"):
        ExecutionSpec(n_shards=0)


def test_system_spec_validation():
    with pytest.raises(ConfigurationError, match="non-empty"):
        SystemSpec("")
    with pytest.raises(ConfigurationError, match="strings"):
        SystemSpec("ladder", {1: 2})


def test_job_validates_numerics_eagerly():
    with pytest.raises(ConfigurationError, match="n_int"):
        CBSJob(
            system=SystemSpec("ladder"),
            scan=_scan_spec(),
            ring=RingSpec(n_int=1),
        )


def test_window_grid_matches_linspace():
    spec = ScanSpec(window=(-1.0, 1.0, 7))
    assert spec.grid() == tuple(np.linspace(-1.0, 1.0, 7))


# -- serialization -------------------------------------------------------------


def test_job_dict_and_json_round_trip():
    job = _job(mode="orchestrated", workers=2, warm_start=True,
               tuning=TuningPolicy(max_n_rh=32), refine=RefinePolicy(max_depth=2))
    assert CBSJob.from_dict(job.to_dict()) == job
    reloaded = CBSJob.from_json(job.to_json())
    assert reloaded == job
    assert reloaded.job_hash() == job.job_hash()
    assert reloaded.cache_context() == job.cache_context()


def test_from_dict_rejects_unknown_keys_and_versions():
    job = _job()
    d = job.to_dict()
    d["typo"] = 1
    with pytest.raises(ConfigurationError, match="typo"):
        CBSJob.from_dict(d)
    d = job.to_dict()
    d["scan"]["n_mmm"] = 4
    with pytest.raises(ConfigurationError, match="n_mmm"):
        CBSJob.from_dict(d)
    d = job.to_dict()
    d["spec_version"] = 99
    with pytest.raises(ConfigurationError, match="spec_version"):
        CBSJob.from_dict(d)


def test_removed_backend_and_grid_options_are_rejected():
    """The array-backend seam and the cross-energy grid engine are gone:
    a job file that still names them fails loudly instead of silently
    running something else."""
    d = _job().to_dict()
    d["execution"]["backend"] = "numpy-mixed"
    with pytest.raises(ConfigurationError, match="backend"):
        CBSJob.from_dict(d)
    with pytest.raises(TypeError):
        ExecutionSpec(backend="numpy")
    d = _job().to_dict()
    d["scan"]["linear_solver"] = "bicg-batched-grid"
    with pytest.raises(ConfigurationError) as exc:
        CBSJob.from_dict(d)
    msg = str(exc.value)
    assert "bicg-batched-grid" in msg
    for name in ("auto", "bicg", "bicg-batched", "direct"):
        assert repr(name) in msg
    with pytest.raises(ConfigurationError, match="bicg-batched-grid"):
        SSConfig(linear_solver="bicg-batched-grid")


#: (job kwargs, job_hash, cache_context, cache_context(k_par=0.5)) of
#: default-execution jobs; these digests key every saved slice cache and
#: result store, so they must never drift.
PINNED_JOBS = [
    (
        dict(system={"name": "ladder", "params": {"width": 2}},
             scan={"window": [-1.0, 1.0, 5], "n_mm": 4, "n_rh": 4,
                   "seed": 7}),
        "a82a0847f81ad0447f05d1ea",
        "a269e5387d6a751d6ff30d8d",
        "32a1ce1fa0ad2854314428dd",
    ),
    (
        dict(system={"name": "chain", "params": {"hopping": -1.0}},
             scan={"energies": [0.25, 0.5], "n_mm": 4, "n_rh": 4,
                   "seed": 3},
             execution={"mode": "orchestrated", "workers": 2}),
        "1988c260afe4c3ff13868092",
        "a41a5baad1716b7ae465fc95",
        "18aa529900603d7493a3d90e",
    ),
    (
        dict(system={"name": "chain", "params": {"hopping": -1.0}},
             scan={"window": [-1.5, 1.5, 7]},
             transport={"eta": 1e-7, "n_cells": 2}),
        "a931c1d2f686e13d9bc4a642",
        "9343cc5ebb95dbc73e30ce25",
        "660c1786d6186c98384a5f90",
    ),
]


@pytest.mark.parametrize(
    "kwargs, job_hash, ctx, ctx_k", PINNED_JOBS,
    ids=["plain", "orchestrated", "transport"],
)
def test_job_digests_pinned(kwargs, job_hash, ctx, ctx_k):
    job = CBSJob(**kwargs)
    assert job.job_hash() == job_hash
    assert job.cache_context() == ctx
    assert job.cache_context(k_par=0.5) == ctx_k
    assert CBSJob.from_json(job.to_json()).job_hash() == job_hash



def test_legacy_bicg_name_runs_batched():
    """``"bicg"`` is the legacy spelling of ``"bicg-batched"``: it solves
    bit for bit like it, and a job naming it keeps its digests."""
    blocks = TransverseLadder(width=3).blocks()
    common = dict(n_int=16, n_mm=4, n_rh=4, seed=11)
    legacy, batched = (
        SSHankelSolver(blocks, SSConfig(linear_solver=name, **common))
        .solve(0.3)
        for name in ("bicg", "bicg-batched")
    )
    assert legacy.linear_solver == batched.linear_solver == "bicg-batched"
    assert np.array_equal(legacy.eigenvalues, batched.eigenvalues)
    assert np.array_equal(legacy.residuals, batched.residuals)
    assert [(p.iterations, p.reason) for p in legacy.point_stats] == [
        (p.iterations, p.reason) for p in batched.point_stats
    ]
    assert SSConfig(linear_solver="bicg").resolved(10).linear_solver == (
        "bicg-batched"
    )
    job = CBSJob(
        system={"name": "ladder", "params": {"width": 2}},
        scan={"window": [-1.0, 1.0, 5], "n_mm": 4, "n_rh": 4, "seed": 7,
              "linear_solver": "bicg"},
    )
    assert job.scan.linear_solver == "bicg"
    assert job.job_hash() == "9f943600bfcb10dcd3b2fa44"
    assert job.cache_context() == "90cbe129a01e97c5c787149c"
    assert job.cache_context(k_par=0.5) == "8485f6adb513c44436a31452"

def test_job_accepts_plain_dicts_for_parts():
    job = CBSJob(
        system={"name": "ladder", "params": {"width": 4}},
        scan={"energies": [0.0], "n_mm": 2, "n_rh": 2, "seed": 1},
        ring={"n_int": 16},
        execution={"mode": "serial"},
    )
    assert job.system == SystemSpec("ladder", {"width": 4})
    assert job.engine() == "solver"


def test_cache_context_ignores_execution_but_not_tuning():
    """Worker counts and shard counts never change the answer — tuning
    does (effective per-slice parameters), so only tuning is folded into
    the cache identity."""
    a = _job(mode="orchestrated", workers=1)
    b = _job(mode="orchestrated", workers=8, n_shards=4)
    assert a.cache_context() == b.cache_context()
    assert a.job_hash() != b.job_hash()
    tuned_off = _job(mode="orchestrated", tuning=TuningPolicy(enabled=False))
    assert tuned_off.cache_context() != a.cache_context()
    different_physics = CBSJob(
        system=SystemSpec("ladder", {"width": 3}),
        scan=_scan_spec(),
        ring=RingSpec(n_int=16),
        execution=ExecutionSpec(mode="orchestrated"),
    )
    assert different_physics.cache_context() != a.cache_context()


# -- registry ------------------------------------------------------------------


def test_builtin_systems_registered():
    systems = api.available_systems()
    for name in ("chain", "diatomic-chain", "ladder", "al100", "nanotube"):
        assert name in systems


def test_resolve_system_errors():
    with pytest.raises(ConfigurationError, match="unknown system"):
        api.resolve_system("no-such-system")
    with pytest.raises(ConfigurationError, match="rejected params"):
        api.resolve_system("ladder", {"no_such_param": 1})


def test_register_system_custom_and_duplicate():
    @api.register_system("test-api-custom")
    def _custom(**params):
        return TransverseLadder(width=params.get("width", 2)).blocks()

    try:
        blocks = api.resolve_system("test-api-custom", {"width": 3})
        assert blocks.n == 3
        with pytest.raises(ConfigurationError, match="already registered"):
            api.register_system("test-api-custom")(_custom)
        api.register_system("test-api-custom", replace=True)(_custom)
    finally:
        from repro.api.registry import _SYSTEMS

        _SYSTEMS.pop("test-api-custom", None)


def test_register_system_builtin_name_collision_raises():
    """A user registering a name that collides with a builtin fails
    loudly at registration time (the builtins are loaded before the
    duplicate check), instead of being silently overridden later."""
    with pytest.raises(ConfigurationError, match="already registered"):
        @api.register_system("ladder")
        def _shadow(**params):  # pragma: no cover - never registered
            return TransverseLadder(**params).blocks()


def test_system_spec_is_immutable_hashable_picklable():
    import pickle

    spec = SystemSpec("ladder", {"width": 4})
    with pytest.raises(TypeError):
        spec.params["width"] = 8  # frozen means frozen
    assert isinstance(hash(spec), int)
    assert pickle.loads(pickle.dumps(spec)) == spec
    job = _job()
    assert isinstance(hash(job), int)
    assert pickle.loads(pickle.dumps(job)) == job


def test_register_system_must_return_block_triple():
    @api.register_system("test-api-bad")
    def _bad(**params):
        return 42

    try:
        with pytest.raises(ConfigurationError, match="BlockTriple"):
            api.resolve_system("test-api-bad")
    finally:
        from repro.api.registry import _SYSTEMS

        _SYSTEMS.pop("test-api-bad", None)


# -- routing parity (the acceptance contract) ----------------------------------


def test_single_energy_routes_to_solver_bit_for_bit():
    job = CBSJob(
        system=SystemSpec("ladder", {"width": 4}),
        scan=_scan_spec(energies=(0.1,)),
        ring=RingSpec(n_int=16),
    )
    assert job.engine() == "solver"
    result = compute(job)
    legacy = SSHankelSolver(LADDER.blocks(), _legacy_cfg()).solve(0.1)
    assert np.array_equal(result.slices[0].lambdas(), legacy.eigenvalues)
    assert result.provenance["engine"] == "solver"


def test_serial_warm_scan_routes_to_calculator_bit_for_bit():
    job = _job(mode="serial", warm_start=True)
    assert job.engine() == "scan"
    result = compute(job)
    legacy = CBSCalculator(
        LADDER.blocks(), _legacy_cfg(), warm_start=True
    ).scan(GRID)
    _lambdas_equal(result, legacy.slices)


def test_threaded_scan_routes_to_calculator_bit_for_bit():
    job = _job(mode="threads", workers=2)
    assert job.engine() == "scan"
    result = compute(job)
    legacy = CBSCalculator(
        LADDER.blocks(), _legacy_cfg(), energy_executor=2
    ).scan(GRID)
    _lambdas_equal(result, legacy.slices)


def test_orchestrated_routes_to_orchestrator_bit_for_bit():
    job = _job(mode="orchestrated", workers=1, warm_start=True)
    assert job.engine() == "orchestrator"
    result = compute(job)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        legacy = ScanOrchestrator(
            LADDER.blocks(),
            _legacy_cfg(),
            orch=OrchestratorConfig(executor=None),
        ).scan(GRID)
    _lambdas_equal(result, legacy.result.slices)
    report = result.provenance["report"]
    assert report["solves"] == legacy.report.solves
    assert [s["final_n_mm"] for s in report["shards"]] == [
        s.final_n_mm for s in legacy.report.shards
    ]


def test_processes_mode_disables_adaptivity_by_default():
    job = _job(mode="processes", workers=1)
    assert job.execution.resolved_tuning().enabled is False
    assert job.execution.resolved_refine().enabled is False
    orchestrated = _job(mode="orchestrated", workers=1)
    assert orchestrated.execution.resolved_tuning().enabled is True


# -- provenance ----------------------------------------------------------------


def test_provenance_block_is_stamped():
    from repro import __version__

    job = _job(mode="serial")
    result = compute(job)
    prov = result.provenance
    assert prov["job_hash"] == job.job_hash()
    assert prov["cache_context"] == job.cache_context()
    assert prov["repro_version"] == __version__
    assert prov["engine"] == "scan"
    assert CBSJob.from_dict(prov["job"]) == job
    assert result.schema_version == api.CBS_RESULT_SCHEMA_VERSION


# -- cache behavior through the job hash ---------------------------------------


def test_json_reloaded_job_reproduces_cache_hits(tmp_path):
    """The acceptance contract: serialize → reload → same hash, and the
    rerun is served entirely from the slice cache."""
    job = _job(
        mode="orchestrated", workers=1, warm_start=True,
        cache_dir=str(tmp_path),
    )
    first = compute(job)
    assert first.provenance["report"]["cache_hits"] == 0

    reloaded = CBSJob.from_json(job.to_json())
    assert reloaded.job_hash() == job.job_hash()
    second = compute(reloaded)
    report = second.provenance["report"]
    n_total = len(first.slices)
    assert report["cache_hits"] == n_total
    assert report["solves"] == 0
    _lambdas_equal(second, first.slices)


def test_serial_scan_uses_slice_cache(tmp_path):
    job = _job(mode="serial", warm_start=True, cache_dir=str(tmp_path))
    first = compute(job)
    assert all(s.solve_seconds > 0.0 for s in first.slices)
    second = compute(job)
    assert all(s.solve_seconds == 0.0 for s in second.slices)
    _lambdas_equal(second, first.slices)


def test_cache_shared_across_energy_grids(tmp_path):
    """Slices are keyed per-energy inside the context, so extending the
    grid reuses every energy already solved (the grid is not part of the
    cache identity)."""
    small = CBSJob(
        system=SystemSpec("ladder", {"width": 4}),
        scan=_scan_spec(energies=(GRID[0], GRID[1])),
        ring=RingSpec(n_int=16),
        execution=ExecutionSpec(mode="serial", warm_start=True,
                                cache_dir=str(tmp_path)),
    )
    extended = CBSJob(
        system=SystemSpec("ladder", {"width": 4}),
        scan=_scan_spec(energies=tuple(GRID)),
        ring=RingSpec(n_int=16),
        execution=ExecutionSpec(mode="serial", warm_start=True,
                                cache_dir=str(tmp_path)),
    )
    assert small.cache_context() == extended.cache_context()
    compute(small)
    result = compute(extended)
    cached = {s.energy for s in result.slices if s.solve_seconds == 0.0}
    assert cached == {GRID[0], GRID[1]}


def test_threads_mode_honors_slice_cache(tmp_path):
    job = _job(mode="threads", workers=2, cache_dir=str(tmp_path))
    first = compute(job)
    assert all(s.solve_seconds > 0.0 for s in first.slices)
    second = compute(job)
    assert all(s.solve_seconds == 0.0 for s in second.slices)
    _lambdas_equal(second, first.slices)


def test_ignored_tuning_cannot_poison_tuned_cache(tmp_path):
    """A serial/threads job never tunes, whatever ``execution.tuning``
    says — so its cache context must key under the disabled policy.
    Previously an undersized serial run carrying ``TuningPolicy()``
    cached its mode-losing slices under the *tuned* context and a later
    orchestrated run served them as hits (silent wrong physics)."""
    lad_spec = dict(
        system=SystemSpec("ladder", {"width": 8}),
        scan=ScanSpec(energies=(0.0,), n_mm=2, n_rh=2, seed=7,
                      linear_solver="direct"),
        ring=RingSpec(n_int=24),
    )
    serial = CBSJob(**lad_spec, execution=ExecutionSpec(
        mode="serial", cache_dir=str(tmp_path), tuning=TuningPolicy()))
    tuned = CBSJob(**lad_spec, execution=ExecutionSpec(
        mode="orchestrated", workers=1, cache_dir=str(tmp_path),
        tuning=TuningPolicy()))
    assert serial.cache_context() != tuned.cache_context()

    undersized = compute(serial)  # capacity 4 < 16 ring modes, untuned
    assert undersized.slices[0].count < 16
    recovered = compute(tuned)  # must tune and solve, not hit the cache
    assert recovered.provenance["report"]["cache_hits"] == 0
    assert recovered.slices[0].count == 16


def test_cache_shared_across_execution_modes(tmp_path):
    """Same physics under a different executor reuses the same cache
    entries (the context hashes only answer-determining parts)."""
    serial = _job(mode="serial", warm_start=True, cache_dir=str(tmp_path))
    compute(serial)
    orchestrated = _job(
        mode="orchestrated", workers=1, warm_start=True,
        cache_dir=str(tmp_path),
        tuning=TuningPolicy(enabled=False), refine=RefinePolicy(enabled=False),
    )
    assert orchestrated.cache_context() == serial.cache_context()
    report = compute(orchestrated).provenance["report"]
    assert report["solves"] == 0
    assert report["cache_hits"] == len(serial.energies())


# -- streaming -----------------------------------------------------------------


def test_compute_iter_streams_in_energy_order():
    job = _job(mode="serial", warm_start=True)
    seen = []
    energies = [
        sl.energy
        for sl in compute_iter(job, progress=lambda d, t: seen.append((d, t)))
    ]
    assert energies == sorted(GRID)
    assert seen == [(i + 1, len(GRID)) for i in range(len(GRID))]


def test_compute_iter_threads_matches_blocking_compute():
    job = _job(mode="threads", workers=2)
    streamed = list(compute_iter(job))
    blocking = compute(job)
    _lambdas_equal(blocking, streamed)


def test_compute_iter_cancellation_stops_early():
    job = _job(mode="serial", warm_start=True)
    slices = list(compute_iter(job, should_cancel=lambda: True))
    assert len(slices) == 1  # cancelled after the first yielded slice


def test_compute_cancellation_returns_partial_result():
    job = _job(mode="serial")
    calls = []

    def cancel_after_two():
        calls.append(None)
        return len(calls) >= 2

    partial = compute(job, should_cancel=cancel_after_two)
    assert 0 < len(partial.slices) < len(GRID)
    assert partial.provenance["job_hash"] == job.job_hash()


def test_compute_accepts_job_dict():
    result = compute(
        {
            "system": {"name": "chain", "params": {"hopping": -1.0}},
            "scan": {"energies": [0.7], "n_mm": 2, "n_rh": 2, "seed": 1,
                     "linear_solver": "direct"},
            "ring": {"n_int": 16},
        }
    )
    assert result.slices[0].count == 2


def test_compute_rejects_non_jobs():
    with pytest.raises(ConfigurationError, match="CBSJob"):
        compute(42)


# -- deprecation shims ---------------------------------------------------------


def test_direct_orchestrator_construction_warns():
    with pytest.warns(DeprecationWarning, match="repro.api"):
        ScanOrchestrator(
            LADDER.blocks(), _legacy_cfg(),
            orch=OrchestratorConfig(executor=None),
        )


def test_calculator_orchestrated_warns_once():
    calc = CBSCalculator(LADDER.blocks(), _legacy_cfg())
    with pytest.warns(DeprecationWarning, match="repro.api") as record:
        calc.orchestrated(OrchestratorConfig(executor=None))
    assert len([w for w in record if w.category is DeprecationWarning]) == 1


def test_compute_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        compute(_job(mode="orchestrated", workers=1, warm_start=True))
