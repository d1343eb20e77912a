"""The declarative CBS workload spec: :class:`CBSJob` and its parts.

Every workload in the paper is one shape — *solve the ring QEP for
system S over energies E with Sakurai-Sugiura parameters P* — and a
:class:`CBSJob` is exactly that sentence as a frozen, validated,
fully-serializable value:

* :class:`SystemSpec` — *which physics*: a registered builder name plus
  its parameters (resolved through :mod:`repro.api.registry`);
* :class:`RingSpec` — *which eigenvalue ring*: the annulus contour and
  its quadrature;
* :class:`ScanSpec` — *which energies and which numerics*: the energy
  grid (explicit list or equidistant window) and the SS subspace /
  Step-1 solver parameters;
* :class:`ExecutionSpec` — *how to run it*: serial, threads, processes,
  or the fully orchestrated adaptive path, plus warm-start policy and
  the persistent slice cache.

``to_dict()``/``from_dict()`` round-trip through pure JSON types, and
two derived hashes key everything downstream:

* :meth:`CBSJob.job_hash` — canonical SHA-256 of the *whole* spec; the
  provenance identity recorded in every :class:`repro.cbs.CBSResult`.
* :meth:`CBSJob.cache_context` — hash of only the answer-determining
  parts (system + ring + scan numerics + effective tuning policy);
  execution details (worker counts, shard counts, streaming) are
  excluded so re-running the same physics under a different executor
  reuses the same :class:`repro.io.slice_cache.SliceCache` entries.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.cbs.orchestrator import RefinePolicy, TuningPolicy
from repro.errors import ConfigurationError
from repro.ss.solver import SSConfig

#: Bump when the serialized job layout changes incompatibly.
JOB_SPEC_VERSION = 1

_EXEC_MODES = ("serial", "threads", "processes", "pool", "orchestrated")


def _check_keys(d: Mapping[str, Any], allowed, where: str) -> None:
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) {unknown} in {where}; allowed: {sorted(allowed)}"
        )


def _policy_from_dict(cls, d: Optional[Mapping[str, Any]], where: str):
    if d is None:
        return None
    allowed = [f.name for f in fields(cls)]
    _check_keys(d, allowed, where)
    return cls(**d)


# ---------------------------------------------------------------------------
# the four spec parts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemSpec:
    """A named physical system: registry name + builder parameters.

    ``params`` is stored as a read-only mapping (a private copy behind a
    :class:`types.MappingProxyType`), so a job really is frozen: mutating
    ``job.system.params`` after construction raises instead of silently
    desynchronizing the job from hashes computed earlier.

    Parameters
    ----------
    name : str
        A system name registered through
        :func:`repro.api.register_system` (built-ins: ``"chain"``,
        ``"diatomic-chain"``, ``"ladder"``, ``"al100"``,
        ``"nanotube"``).
    params : mapping of str to JSON value, optional
        Keyword arguments passed to the registered builder.  Values
        must be JSON-serializable (they enter ``to_dict`` verbatim).

    Raises
    ------
    repro.errors.ConfigurationError
        For an empty/non-string name or non-string parameter keys.

    Examples
    --------
    >>> from repro.api import SystemSpec
    >>> spec = SystemSpec("ladder", {"width": 2})
    >>> spec.build().n
    2
    """

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ConfigurationError(
                f"SystemSpec.name must be a non-empty string, got {self.name!r}"
            )
        params = dict(self.params)
        for key in params:
            if not isinstance(key, str):
                raise ConfigurationError(
                    f"SystemSpec.params keys must be strings, got {key!r}"
                )
        object.__setattr__(self, "params", MappingProxyType(params))

    def __hash__(self) -> int:
        # The generated frozen-dataclass hash would choke on the mapping;
        # hash the canonical JSON form instead (params are JSON values).
        return hash(
            (self.name, json.dumps(dict(self.params), sort_keys=True,
                                   default=str))
        )

    # MappingProxyType does not pickle; ship the plain dict across
    # process boundaries and rewrap on the other side.
    def __getstate__(self):
        return {"name": self.name, "params": dict(self.params)}

    def __setstate__(self, state) -> None:
        object.__setattr__(self, "name", state["name"])
        object.__setattr__(
            self, "params", MappingProxyType(dict(state["params"]))
        )

    def build(self):
        """Resolve to a :class:`repro.qep.blocks.BlockTriple`."""
        from repro.api.registry import resolve_system

        return resolve_system(self.name, self.params)

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "SystemSpec":
        _check_keys(d, ("name", "params"), "SystemSpec")
        return cls(name=d.get("name", ""), params=d.get("params", {}))


@dataclass(frozen=True)
class RingSpec:
    """The target eigenvalue annulus and its quadrature.

    Parameters
    ----------
    lambda_min : float, optional
        The paper's reciprocal ring ``λ_min < |λ| < 1/λ_min``.
    ring_radii : (float, float), optional
        Explicit ``(r_in, r_out)`` radii overriding ``lambda_min``.  A
        non-reciprocal ring disables the dual-system shortcut and
        solves all ``2 N_int`` systems.
    n_int : int, optional
        Quadrature points per circle (``N_int``).
    annulus_margin : float, optional
        Relative margin shrinking the *acceptance* ring (drops
        slowly-converging boundary modes).

    Notes
    -----
    Validation is delegated to :class:`repro.ss.solver.SSConfig`, which
    a :class:`CBSJob` constructs eagerly.
    """

    lambda_min: float = 0.5
    ring_radii: Optional[Tuple[float, float]] = None
    n_int: int = 32
    annulus_margin: float = 0.0

    def __post_init__(self) -> None:
        if self.ring_radii is not None:
            object.__setattr__(
                self, "ring_radii", tuple(float(r) for r in self.ring_radii)
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "lambda_min": float(self.lambda_min),
            "ring_radii": (
                list(self.ring_radii) if self.ring_radii is not None else None
            ),
            "n_int": int(self.n_int),
            "annulus_margin": float(self.annulus_margin),
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "RingSpec":
        allowed = [f.name for f in fields(cls)]
        _check_keys(d, allowed, "RingSpec")
        d = dict(d)
        if d.get("ring_radii") is not None:
            d["ring_radii"] = tuple(d["ring_radii"])
        return cls(**d)


@dataclass(frozen=True)
class ScanSpec:
    """The energy grid plus the SS numerical parameters.

    Exactly one of ``energies`` or ``window`` must be given; the
    remaining fields mirror :class:`repro.ss.solver.SSConfig` minus the
    contour (that is :class:`RingSpec`) and minus execution-only knobs
    (those are :class:`ExecutionSpec`).

    Parameters
    ----------
    energies : tuple of float, optional
        Explicit energy values (any order; de-duplicated and sorted).
    window : (float, float, int), optional
        ``(e_min, e_max, n)`` equidistant grid (paper Fig. 11 style).
    n_mm : int, optional
        Moment degrees ``N_mm``.
    n_rh : int, optional
        Right-hand sides ``N_rh`` (subspace capacity is
        ``n_rh × n_mm``).
    delta : float, optional
        Relative SVD truncation threshold ``δ``.
    linear_solver : str, optional
        Step-1 method (``"auto"``, ``"direct"``, ``"bicg-batched"``);
        ``"bicg"`` is the legacy spelling of ``"bicg-batched"`` and is
        kept verbatim, so the job's hash does not change.
    direct_threshold : int, optional
        ``"auto"`` crossover size.
    bicg_tol, bicg_maxiter :
        BiCG stopping rule.
    use_dual_trick : bool, optional
        Reuse dual solutions for the inner circle (paper §3.2).
    quorum_fraction : float or None, optional
        Quorum stopping-rule fraction (``None`` = off).
    jacobi : bool, optional
        Jacobi-precondition BiCG.
    residual_tol : float, optional
        Eigenpair acceptance residual.
    seed : int, optional
        RNG seed for the source block ``V``.
    propagating_tol : float, optional
        ``||λ|-1|`` threshold of the propagating classification.

    Notes
    -----
    For a transport job (:class:`CBSJob` with a :class:`TransportSpec`)
    only the *grid* fields (``energies``/``window``) are consumed; the
    self-energy numerics live on the :class:`TransportSpec` because
    transport rings are shaped differently (wider, low moment degree).
    """

    energies: Optional[Tuple[float, ...]] = None
    window: Optional[Tuple[float, float, int]] = None
    n_mm: int = 8
    n_rh: int = 16
    delta: float = 1e-10
    linear_solver: str = "auto"
    direct_threshold: int = 6000
    bicg_tol: float = 1e-10
    bicg_maxiter: Optional[int] = None
    use_dual_trick: bool = True
    quorum_fraction: Optional[float] = 0.5
    jacobi: bool = False
    residual_tol: float = 1e-6
    seed: Optional[int] = None
    propagating_tol: float = 1e-6

    def __post_init__(self) -> None:
        if (self.energies is None) == (self.window is None):
            raise ConfigurationError(
                f"ScanSpec needs exactly one of energies or window; got "
                f"energies={self.energies!r}, window={self.window!r}"
            )
        if self.energies is not None:
            energies = tuple(float(e) for e in self.energies)
            if not energies:
                raise ConfigurationError("ScanSpec.energies must be non-empty")
            if not all(math.isfinite(e) for e in energies):
                raise ConfigurationError(
                    f"ScanSpec.energies must be finite, got {energies}"
                )
            object.__setattr__(self, "energies", energies)
        if self.window is not None:
            try:
                lo, hi, n = self.window
                window = (float(lo), float(hi), int(n))
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"ScanSpec.window must be (e_min, e_max, n), "
                    f"got {self.window!r}"
                ) from None
            if not (math.isfinite(window[0]) and math.isfinite(window[1])):
                raise ConfigurationError(
                    f"ScanSpec.window bounds must be finite, got {window}"
                )
            if window[2] < 1:
                raise ConfigurationError(
                    f"ScanSpec.window needs n >= 1, got {window[2]}"
                )
            object.__setattr__(self, "window", window)
        if not self.propagating_tol > 0:
            raise ConfigurationError(
                f"propagating_tol must be > 0, got {self.propagating_tol}"
            )

    def grid(self) -> Tuple[float, ...]:
        """The concrete ascending, de-duplicated energy grid.

        Windows expand through ``np.linspace`` so the values (and with
        them the bit-level slice-cache keys) are identical to the legacy
        ``scan_window`` paths.
        """
        if self.energies is not None:
            return tuple(sorted(set(self.energies)))
        import numpy as np

        lo, hi, n = self.window
        return tuple(sorted({float(e) for e in np.linspace(lo, hi, n)}))

    def to_dict(self) -> Dict[str, Any]:
        d = asdict(self)
        d["energies"] = list(self.energies) if self.energies is not None else None
        d["window"] = list(self.window) if self.window is not None else None
        return d

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "ScanSpec":
        allowed = [f.name for f in fields(cls)]
        _check_keys(d, allowed, "ScanSpec")
        d = dict(d)
        if d.get("energies") is not None:
            d["energies"] = tuple(d["energies"])
        if d.get("window") is not None:
            d["window"] = tuple(d["window"])
        return cls(**d)


@dataclass(frozen=True)
class ExecutionSpec:
    """How a job runs — never *what* it computes.

    Attributes
    ----------
    mode:
        ``"serial"`` | ``"threads"`` | ``"processes"`` | ``"pool"`` |
        ``"orchestrated"``.  Serial/threads map the energy grid through
        :class:`repro.cbs.CBSCalculator`; processes/pool/orchestrated
        shard it through :class:`repro.cbs.orchestrator.ScanOrchestrator`
        (``"processes"`` with the adaptive policies off by default,
        ``"orchestrated"`` with tuning + refinement on).  ``"pool"`` is
        ``"processes"`` backed by the persistent shared-memory worker
        pool (:class:`repro.parallel.pool.PersistentPool`): workers
        survive across ``compute()`` calls and the Hamiltonian blocks
        ship once via ``multiprocessing.shared_memory`` instead of being
        re-pickled per shard.
    workers:
        Worker count for the chosen executor (``None`` = its default).
    n_shards:
        Shard count for the orchestrated modes (``None`` = worker count).
    warm_start:
        Slice-to-slice warm starting (sequential chains; chunk-local
        inside shards).
    cache_dir:
        Persistent slice-cache root (``None`` disables).  Honored by
        every mode; the context key is physics-only, so cache entries
        are shared across execution modes and energy grids.
    tuning, refine:
        Optional explicit adaptive policies; ``None`` means the mode
        default (enabled for ``"orchestrated"``, disabled otherwise).
    """

    mode: str = "serial"
    workers: Optional[int] = None
    n_shards: Optional[int] = None
    warm_start: bool = False
    cache_dir: Optional[str] = None
    tuning: Optional[TuningPolicy] = None
    refine: Optional[RefinePolicy] = None

    def __post_init__(self) -> None:
        if self.mode not in _EXEC_MODES:
            raise ConfigurationError(
                f"ExecutionSpec.mode must be one of {_EXEC_MODES}, "
                f"got {self.mode!r}"
            )
        if self.workers is not None and self.workers < 1:
            raise ConfigurationError(
                f"ExecutionSpec.workers must be >= 1 or None, "
                f"got {self.workers}"
            )
        if self.n_shards is not None and self.n_shards < 1:
            raise ConfigurationError(
                f"ExecutionSpec.n_shards must be >= 1 or None, "
                f"got {self.n_shards}"
            )
        if isinstance(self.tuning, Mapping):
            object.__setattr__(
                self,
                "tuning",
                _policy_from_dict(TuningPolicy, self.tuning, "TuningPolicy"),
            )
        if isinstance(self.refine, Mapping):
            object.__setattr__(
                self,
                "refine",
                _policy_from_dict(RefinePolicy, self.refine, "RefinePolicy"),
            )

    # -- mode-resolved views ------------------------------------------------

    def resolved_tuning(self) -> TuningPolicy:
        if self.tuning is not None:
            return self.tuning
        if self.mode == "orchestrated":
            return TuningPolicy()
        return TuningPolicy(enabled=False)

    def resolved_refine(self) -> RefinePolicy:
        if self.refine is not None:
            return self.refine
        if self.mode == "orchestrated":
            return RefinePolicy()
        return RefinePolicy(enabled=False)

    def executor_spec(self):
        """The :func:`repro.parallel.executor.make_executor` spec."""
        if self.mode == "serial":
            return None
        if self.mode == "threads":
            return "threads" if self.workers is None else int(self.workers)
        if self.mode == "pool":
            return "pool" if self.workers is None else ("pool", int(self.workers))
        # processes / orchestrated
        if self.workers is None:
            return "processes"
        return ("processes", int(self.workers))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "workers": self.workers,
            "n_shards": self.n_shards,
            "warm_start": bool(self.warm_start),
            "cache_dir": self.cache_dir,
            "tuning": asdict(self.tuning) if self.tuning is not None else None,
            "refine": asdict(self.refine) if self.refine is not None else None,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "ExecutionSpec":
        allowed = [f.name for f in fields(cls)]
        _check_keys(d, allowed, "ExecutionSpec")
        d = dict(d)
        d["tuning"] = _policy_from_dict(
            TuningPolicy, d.get("tuning"), "ExecutionSpec.tuning"
        )
        d["refine"] = _policy_from_dict(
            RefinePolicy, d.get("refine"), "ExecutionSpec.refine"
        )
        return cls(**d)


@dataclass(frozen=True)
class KParSpec:
    """The transverse-momentum axis of a k∥-resolved workload.

    Attaching a ``KParSpec`` to a :class:`CBSJob` turns its 1D energy
    scan into a product grid over ``ScanSpec × KParSpec``: the system
    builder is resolved once per k∥ point (with the momentum injected
    as the builder parameter named by ``param``), and every engine —
    serial, threads, process-sharded, orchestrated, transport — runs
    each (E, k∥) column of the grid, stamping the slices with their
    momentum.  This is how the paper's 3D/2D leads (Al(100), bundles)
    are scanned: complex bands and electrode self-energies are defined
    per transverse momentum, and the Landauer transmission of such a
    lead is the Brillouin-zone-weighted sum over k∥.

    Momenta are dimensionless transverse Bloch phases (radians; one
    transverse period ↔ ``2π``) — the convention shared by every
    ``k_par``-aware builder (``"square-slab"``, ``"ladder"``,
    ``"al100"``, ``"nanotube"``).

    Parameters
    ----------
    values : tuple of float, optional
        Explicit momenta (finite, distinct; stored ascending).
        Exactly one of ``values`` and ``grid`` must be given.
    grid : int, optional
        Monkhorst-Pack point count: the standard shifted uniform
        sampling ``θ_j = (2j − n − 1)π/n`` with equal weights
        (:func:`repro.transport.monkhorst_pack`).
    weights : tuple of float, optional
        Brillouin-zone weights matching ``values`` one-to-one
        (positive, finite; default: equal weights summing to one).
        Only allowed with ``values`` — a Monkhorst-Pack grid implies
        its own.
    param : str, optional
        Name of the builder keyword receiving the momentum
        (default ``"k_par"``).

    Examples
    --------
    >>> from repro.api import KParSpec
    >>> KParSpec(grid=2).points()
    (-1.5707963267948966, 1.5707963267948966)
    >>> KParSpec(values=(0.0, 1.0)).resolved_weights()
    (0.5, 0.5)
    """

    values: Optional[Tuple[float, ...]] = None
    grid: Optional[int] = None
    weights: Optional[Tuple[float, ...]] = None
    param: str = "k_par"

    def __post_init__(self) -> None:
        if (self.values is None) == (self.grid is None):
            raise ConfigurationError(
                f"KParSpec needs exactly one of values or grid; got "
                f"values={self.values!r}, grid={self.grid!r}"
            )
        if not isinstance(self.param, str) or not self.param:
            raise ConfigurationError(
                f"KParSpec.param must be a non-empty string, "
                f"got {self.param!r}"
            )
        if self.grid is not None:
            if self.weights is not None:
                raise ConfigurationError(
                    "KParSpec.weights are implied by the Monkhorst-Pack "
                    "grid; pass them only with explicit values"
                )
            grid = int(self.grid)
            if grid < 1:
                raise ConfigurationError(
                    f"KParSpec.grid must be >= 1, got {self.grid}"
                )
            object.__setattr__(self, "grid", grid)
            return
        values = tuple(float(k) for k in self.values)
        if not values:
            raise ConfigurationError("KParSpec.values must be non-empty")
        if not all(math.isfinite(k) for k in values):
            raise ConfigurationError(
                f"KParSpec.values must be finite, got {values}"
            )
        if len(set(values)) != len(values):
            raise ConfigurationError(
                f"KParSpec.values must be distinct, got {values} "
                f"(duplicate momenta make the weights ambiguous)"
            )
        if self.weights is not None:
            weights = tuple(float(w) for w in self.weights)
            if len(weights) != len(values):
                raise ConfigurationError(
                    f"KParSpec.weights length {len(weights)} does not "
                    f"match {len(values)} values (mismatched k∥ axes)"
                )
            if not all(math.isfinite(w) and w > 0 for w in weights):
                raise ConfigurationError(
                    f"KParSpec.weights must be positive and finite, "
                    f"got {weights}"
                )
        else:
            weights = tuple(1.0 / len(values) for _ in values)
        # Store ascending with weights permuted alongside, so the job's
        # canonical form (and its hashes) is order-independent.
        order = sorted(range(len(values)), key=lambda i: values[i])
        object.__setattr__(
            self, "values", tuple(values[i] for i in order)
        )
        object.__setattr__(
            self, "weights", tuple(weights[i] for i in order)
        )

    def points(self) -> Tuple[float, ...]:
        """The concrete ascending k∥ grid."""
        if self.values is not None:
            return self.values
        from repro.transport.scan import monkhorst_pack

        pts, _w = monkhorst_pack(self.grid)
        return tuple(float(k) for k in pts)

    def resolved_weights(self) -> Tuple[float, ...]:
        """The Brillouin-zone weights matching :meth:`points`."""
        if self.values is not None:
            return self.weights
        from repro.transport.scan import monkhorst_pack

        _pts, w = monkhorst_pack(self.grid)
        return tuple(float(x) for x in w)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "values": (
                list(self.values) if self.values is not None else None
            ),
            "grid": self.grid,
            "weights": (
                list(self.weights) if self.weights is not None else None
            ),
            "param": self.param,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "KParSpec":
        allowed = [f.name for f in fields(cls)]
        _check_keys(d, allowed, "KParSpec")
        d = dict(d)
        if d.get("values") is not None:
            d["values"] = tuple(d["values"])
        if d.get("weights") is not None:
            d["weights"] = tuple(d["weights"])
        return cls(**d)


@dataclass(frozen=True)
class MapSpec:
    """The dense-map surrogate over a ``ScanSpec × KParSpec`` grid.

    Attaching a ``MapSpec`` to a :class:`CBSJob` (which must also carry
    a :class:`KParSpec`) routes it to the ``"map"`` engine
    (:class:`repro.maps.MapSurrogate`): instead of solving every
    (E, k∥) pixel of the product grid, a coarse subset is solved, the
    grid is adaptively refined in 2D where neighboring pixels disagree
    (mode-count / ``min |Im k|`` discontinuities — band edges), and the
    remaining pixels are filled by band interpolation between solved
    neighbors with a per-pixel error certificate.  Pixels whose
    certificate exceeds ``tolerance`` are solved for real instead.

    Parameters
    ----------
    coarse_e : int, optional
        Stride of the initial coarse sampling along the energy axis
        (every ``coarse_e``-th grid energy is solved; boundary rows
        always are).  ``1`` solves the full axis.
    coarse_k : int, optional
        Stride along the k∥ axis (boundary columns always solved).
    tolerance : float, optional
        Per-pixel error budget on mode positions (max matched
        ``|Δk|``); an interpolated pixel whose certificate exceeds it
        is solved for real.
    safety : float, optional
        Multiplier applied to measured probe errors when forming the
        certificate — a probe samples the segment's true error at one
        point, so the certificate is ``safety ×`` the probe error.
    max_rounds : int, optional
        Cap on 2D bisection refinement rounds (the min-interval floor
        is grid adjacency; this bounds the rounds on genuinely
        discontinuous edges).
    max_refine_pixels : int, optional
        Cap on total pixels inserted by 2D refinement.

    Notes
    -----
    A ``MapSpec`` never changes what a *solved* pixel is — solved
    pixels share :class:`repro.io.slice_cache.SliceCache` entries (and
    :meth:`CBSJob.cache_context` keys) with plain scans.  It does
    determine the *interpolated* pixels, so it is folded into the
    cache context only for those
    (:meth:`CBSJob.cache_context` with ``interpolated=True``) — the
    "folded in only when it changes physics output" rule.
    """

    coarse_e: int = 4
    coarse_k: int = 2
    tolerance: float = 1e-3
    safety: float = 4.0
    max_rounds: int = 6
    max_refine_pixels: int = 512

    def __post_init__(self) -> None:
        if int(self.coarse_e) < 1 or int(self.coarse_k) < 1:
            raise ConfigurationError(
                f"MapSpec coarse strides must be >= 1, got "
                f"coarse_e={self.coarse_e}, coarse_k={self.coarse_k}"
            )
        object.__setattr__(self, "coarse_e", int(self.coarse_e))
        object.__setattr__(self, "coarse_k", int(self.coarse_k))
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ConfigurationError(
                f"MapSpec.tolerance must be a positive finite float, "
                f"got {self.tolerance!r}"
            )
        if not (math.isfinite(self.safety) and self.safety >= 1.0):
            raise ConfigurationError(
                f"MapSpec.safety must be >= 1, got {self.safety!r}"
            )
        if int(self.max_rounds) < 0 or int(self.max_refine_pixels) < 0:
            raise ConfigurationError(
                f"MapSpec.max_rounds/max_refine_pixels must be >= 0, got "
                f"{self.max_rounds}/{self.max_refine_pixels}"
            )
        object.__setattr__(self, "max_rounds", int(self.max_rounds))
        object.__setattr__(
            self, "max_refine_pixels", int(self.max_refine_pixels)
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "coarse_e": self.coarse_e,
            "coarse_k": self.coarse_k,
            "tolerance": float(self.tolerance),
            "safety": float(self.safety),
            "max_rounds": self.max_rounds,
            "max_refine_pixels": self.max_refine_pixels,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "MapSpec":
        allowed = [f.name for f in fields(cls)]
        _check_keys(d, allowed, "MapSpec")
        return cls(**dict(d))


@dataclass(frozen=True)
class TransportSpec:
    """The transport workload: electrode self-energies + transmission.

    Attaching a ``TransportSpec`` to a :class:`CBSJob` turns the job
    from a CBS scan into a two-probe Landauer calculation over the same
    energy grid: at each energy the lead's retarded self-energies
    ``Σ_L/Σ_R`` are computed (from the SS contour moments by default,
    or by Sancho-Rubio decimation) and the Caroli transmission of the
    device region is evaluated.  :func:`repro.api.compute` then returns
    a :class:`repro.transport.TransportResult` instead of a
    ``CBSResult``.

    Parameters
    ----------
    eta : float, optional
        Positive imaginary energy ``η`` of the retarded prescription
        (both engines evaluate at ``E + iη``).
    n_cells : int, optional
        Unit cells in the central device region.
    device : SystemSpec or mapping, optional
        Registry spec of the device cell; default: the job's lead
        system (an ideal wire).  Must share the lead's block dimension.
    onsite_shift : float, optional
        Uniform onsite shift of the device cells (a square tunnel
        barrier).
    method : {"ss", "decimation"}, optional
        Self-energy engine.
    ring_radius : float or None, optional
        Outer radius of the transport ring ``1/R < |λ| < R``;
        ``None`` auto-sizes it from Cauchy root bounds per energy.
    n_int : int, optional
        Quadrature points per circle of the transport ring.
    n_mm : int, optional
        Moment degrees (kept low — transport rings are wide and Hankel
        conditioning degrades like ``R^{2 N_mm - 1}``).
    n_rh : int or None, optional
        Source-block width; ``None`` auto-sizes to exceed the ``2N``
        possible in-ring eigenpairs.
    residual_tol : float, optional
        Eigenpair acceptance residual of the self-energy solve.
    seed : int or None, optional
        RNG seed of the transport source block.

    Examples
    --------
    >>> from repro.api import CBSJob, ScanSpec, SystemSpec, TransportSpec
    >>> job = CBSJob(
    ...     system=SystemSpec("chain", {"hopping": -1.0}),
    ...     scan=ScanSpec(window=(-1.5, 1.5, 7)),
    ...     transport=TransportSpec(eta=1e-7, n_cells=2),
    ... )
    >>> job.engine()
    'transport'
    """

    eta: float = 1e-6
    n_cells: int = 1
    device: Optional[SystemSpec] = None
    onsite_shift: float = 0.0
    method: str = "ss"
    ring_radius: Optional[float] = None
    n_int: int = 64
    n_mm: int = 2
    n_rh: Optional[int] = None
    residual_tol: float = 1e-8
    seed: Optional[int] = 7

    def __post_init__(self) -> None:
        if self.method not in ("ss", "decimation"):
            raise ConfigurationError(
                f"TransportSpec.method must be 'ss' or 'decimation', "
                f"got {self.method!r}"
            )
        if self.n_cells < 1:
            raise ConfigurationError(
                f"TransportSpec.n_cells must be >= 1, got {self.n_cells}"
            )
        if self.device is not None and not isinstance(
            self.device, SystemSpec
        ):
            object.__setattr__(
                self,
                "device",
                _coerce(self.device, SystemSpec, "TransportSpec.device"),
            )
        self.self_energy_config()  # eager validation (eta, ring, n_rh…)

    def self_energy_config(self):
        """The validated :class:`repro.transport.SelfEnergyConfig` this
        spec describes."""
        from repro.transport.selfenergy import SelfEnergyConfig

        return SelfEnergyConfig(
            eta=self.eta,
            n_int=self.n_int,
            n_mm=self.n_mm,
            n_rh=self.n_rh,
            ring_radius=self.ring_radius,
            residual_tol=self.residual_tol,
            seed=self.seed,
        )

    def to_dict(self) -> Dict[str, Any]:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["device"] = (
            self.device.to_dict() if self.device is not None else None
        )
        return d

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "TransportSpec":
        allowed = [f.name for f in fields(cls)]
        _check_keys(d, allowed, "TransportSpec")
        d = dict(d)
        if d.get("device") is not None:
            d["device"] = SystemSpec.from_dict(d["device"])
        return cls(**d)


# ---------------------------------------------------------------------------
# the job
# ---------------------------------------------------------------------------


def _coerce(value, cls, where: str):
    if isinstance(value, cls):
        return value
    if isinstance(value, Mapping):
        return cls.from_dict(value)
    raise ConfigurationError(
        f"{where} must be a {cls.__name__} or a mapping, got {value!r}"
    )


@dataclass(frozen=True)
class CBSJob:
    """One declarative workload: system × ring × scan × execution.

    Construction validates everything eagerly (including the derived
    :class:`repro.ss.solver.SSConfig`), so an invalid job never reaches
    an engine.  Dicts are accepted for any part and coerced, which
    makes literal job descriptions convenient.

    Parameters
    ----------
    system : SystemSpec or mapping
        Which physics — a registered system name plus builder params.
    scan : ScanSpec or mapping
        Which energies and which SS numerics.
    ring : RingSpec or mapping, optional
        Which eigenvalue annulus (CBS jobs; transport jobs auto-size
        their own ring).
    execution : ExecutionSpec or mapping, optional
        How to run — serial/threads/processes/orchestrated, warm
        starts, the persistent slice cache.
    transport : TransportSpec or mapping, optional
        When present, the job computes electrode self-energies and the
        Landauer transmission over the scan grid instead of the CBS
        (see :class:`TransportSpec`).
    kpar : KParSpec or mapping, optional
        When present, the job runs over the ``ScanSpec × KParSpec``
        product grid — one system build and one energy column per
        transverse momentum — and the result slices carry the k∥ axis
        (see :class:`KParSpec`).  Composes with ``transport``:
        a transport job with a ``kpar`` computes the k∥-resolved and
        Brillouin-zone-summed transmission.
    map : MapSpec or mapping, optional
        When present (requires ``kpar``; incompatible with
        ``transport``), the (E, k∥) product grid is served by the
        adaptive map surrogate instead of being solved densely: a
        coarse pixel subset is solved, band edges are refined in 2D,
        and the rest is interpolated with per-pixel error certificates
        (see :class:`MapSpec`).  :func:`repro.api.compute` returns a
        :class:`repro.maps.MapResult`.

    Examples
    --------
    >>> from repro.api import CBSJob
    >>> job = CBSJob(system={"name": "ladder", "params": {"width": 4}},
    ...              scan={"window": [-2.0, 2.0, 41], "n_mm": 4,
    ...                    "n_rh": 4, "seed": 7})
    >>> job.engine()
    'scan'
    >>> CBSJob.from_json(job.to_json()) == job
    True
    """

    system: SystemSpec
    scan: ScanSpec
    ring: RingSpec = RingSpec()
    execution: ExecutionSpec = ExecutionSpec()
    transport: Optional[TransportSpec] = None
    kpar: Optional[KParSpec] = None
    map: Optional[MapSpec] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "system", _coerce(self.system, SystemSpec, "CBSJob.system")
        )
        object.__setattr__(
            self, "scan", _coerce(self.scan, ScanSpec, "CBSJob.scan")
        )
        object.__setattr__(
            self, "ring", _coerce(self.ring, RingSpec, "CBSJob.ring")
        )
        object.__setattr__(
            self,
            "execution",
            _coerce(self.execution, ExecutionSpec, "CBSJob.execution"),
        )
        if self.transport is not None and not isinstance(
            self.transport, TransportSpec
        ):
            object.__setattr__(
                self,
                "transport",
                _coerce(self.transport, TransportSpec, "CBSJob.transport"),
            )
        if self.kpar is not None and not isinstance(self.kpar, KParSpec):
            object.__setattr__(
                self,
                "kpar",
                _coerce(self.kpar, KParSpec, "CBSJob.kpar"),
            )
        if self.map is not None and not isinstance(self.map, MapSpec):
            object.__setattr__(
                self,
                "map",
                _coerce(self.map, MapSpec, "CBSJob.map"),
            )
        if self.map is not None:
            if self.kpar is None:
                raise ConfigurationError(
                    "CBSJob.map needs a KParSpec: the map surrogate "
                    "interpolates over the (E, k∥) product grid, which "
                    "only exists when the job carries a kpar axis"
                )
            if self.transport is not None:
                raise ConfigurationError(
                    "CBSJob.map is incompatible with transport: the "
                    "surrogate interpolates CBS mode positions, not "
                    "self-energies/transmissions"
                )
        self.ss_config()  # eager validation of the numerical parameters
        if self.kpar is not None and self.kpar.param in self.system.params:
            raise ConfigurationError(
                f"system params already fix {self.kpar.param!r}="
                f"{self.system.params[self.kpar.param]!r}; a KParSpec "
                f"sweeps that parameter — drop it from SystemSpec.params"
            )

    # -- derived views -------------------------------------------------------

    def energies(self) -> Tuple[float, ...]:
        """Ascending de-duplicated energy grid of this job."""
        return self.scan.grid()

    def ss_config(self) -> SSConfig:
        """The :class:`SSConfig` this job describes (validated)."""
        return SSConfig(
            n_int=self.ring.n_int,
            n_mm=self.scan.n_mm,
            n_rh=self.scan.n_rh,
            delta=self.scan.delta,
            lambda_min=self.ring.lambda_min,
            ring_radii=self.ring.ring_radii,
            linear_solver=self.scan.linear_solver,
            direct_threshold=self.scan.direct_threshold,
            bicg_tol=self.scan.bicg_tol,
            bicg_maxiter=self.scan.bicg_maxiter,
            use_dual_trick=self.scan.use_dual_trick,
            quorum_fraction=self.scan.quorum_fraction,
            jacobi=self.scan.jacobi,
            residual_tol=self.scan.residual_tol,
            annulus_margin=self.ring.annulus_margin,
            seed=self.scan.seed,
        )

    def engine(self) -> str:
        """Which backend :func:`repro.api.compute` routes this job to:
        ``"solver"`` (one :class:`SSHankelSolver` call), ``"scan"``
        (:class:`CBSCalculator`), ``"orchestrator"``
        (:class:`ScanOrchestrator`), or ``"transport"``
        (:class:`repro.transport.TransportCalculator` /
        :class:`~repro.transport.TransportScanner`), or ``"map"``
        (:class:`repro.maps.MapSurrogate` — jobs carrying a
        :class:`MapSpec`)."""
        if self.transport is not None:
            return "transport"
        if self.map is not None:
            return "map"
        if self.execution.mode in ("processes", "pool", "orchestrated"):
            return "orchestrator"
        if (
            self.kpar is None
            and self.execution.mode == "serial"
            and len(self.energies()) == 1
            and not self.execution.warm_start
            and self.execution.cache_dir is None
        ):
            return "solver"
        return "scan"

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A pure-JSON-types dict (lists, not tuples) round-tripping
        through :meth:`from_dict`.

        The ``"transport"``/``"kpar"``/``"map"`` keys appear only when
        the job carries the corresponding spec, so plain CBS jobs keep
        the exact dict layout (and hashes) they had before those
        subsystems existed.
        """
        d = {
            "spec_version": JOB_SPEC_VERSION,
            "system": self.system.to_dict(),
            "ring": self.ring.to_dict(),
            "scan": self.scan.to_dict(),
            "execution": self.execution.to_dict(),
        }
        if self.transport is not None:
            d["transport"] = self.transport.to_dict()
        if self.kpar is not None:
            d["kpar"] = self.kpar.to_dict()
        if self.map is not None:
            d["map"] = self.map.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "CBSJob":
        _check_keys(
            d,
            ("spec_version", "system", "ring", "scan", "execution",
             "transport", "kpar", "map"),
            "CBSJob",
        )
        version = d.get("spec_version", JOB_SPEC_VERSION)
        if version != JOB_SPEC_VERSION:
            raise ConfigurationError(
                f"unsupported CBSJob spec_version {version!r}; this build "
                f"reads version {JOB_SPEC_VERSION}"
            )
        if "system" not in d or "scan" not in d:
            raise ConfigurationError(
                "CBSJob dict needs at least 'system' and 'scan'"
            )
        transport = d.get("transport")
        kpar = d.get("kpar")
        map_spec = d.get("map")
        return cls(
            system=SystemSpec.from_dict(d["system"]),
            scan=ScanSpec.from_dict(d["scan"]),
            ring=RingSpec.from_dict(d.get("ring", {})),
            execution=ExecutionSpec.from_dict(d.get("execution", {})),
            transport=(
                TransportSpec.from_dict(transport)
                if transport is not None
                else None
            ),
            kpar=(
                KParSpec.from_dict(kpar) if kpar is not None else None
            ),
            map=(
                MapSpec.from_dict(map_spec)
                if map_spec is not None
                else None
            ),
        )

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, no whitespace — the hash input."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "CBSJob":
        return cls.from_dict(json.loads(text))

    # -- identities ----------------------------------------------------------

    def job_hash(self) -> str:
        """Canonical identity of the whole job (provenance key)."""
        h = hashlib.sha256()
        h.update(b"cbs-job-v%d:" % JOB_SPEC_VERSION)
        h.update(self.to_json().encode("utf-8"))
        return h.hexdigest()[:24]

    def cache_context(
        self, k_par: Optional[float] = None, interpolated: bool = False
    ) -> str:
        """Slice-cache context: a hash of only the answer-determining
        parts of the job.

        For k∥-resolved workloads the cache is keyed **per transverse
        momentum**: pass the column's ``k_par`` and its value is folded
        into the payload (the blocks differ per k∥, so columns must
        never share entries).  ``cache_context()`` with no argument is
        the plain-job context and is byte-for-byte what it was before
        the k∥ axis existed.

        ``interpolated=True`` is the **map-surrogate** namespace: pixels
        the surrogate *predicted* rather than solved.  Their values
        depend on the :class:`MapSpec` (coarse strides, tolerance,
        safety factor), so the spec is folded into the payload — two
        maps with different settings never share predictions, and a
        plain scan (which never passes ``interpolated=True``) can never
        read a predicted pixel as a real solve.  Solved map pixels use
        the ordinary context and are shared with plain scans.

        Execution details (mode, workers, shards, warm starts, the cache
        directory itself) change how fast slices arrive, never what they
        are — except the tuning policy, which changes the effective
        per-slice solver parameters and is therefore folded in via the
        *engine-effective* value: only the orchestrator engine tunes, so
        solver/scan-engine jobs always key under the disabled policy
        regardless of what ``execution.tuning`` says (those engines
        ignore it — keying on the ignored value would let untuned slices
        poison a tuned run's cache).  The energy grid is excluded too:
        slices are keyed per-energy *inside* the context, so extending
        or refining a scan window reuses every energy already solved.
        Two jobs that differ only in execution or grid share cache
        entries; a tuned and an untuned run never do.

        Transport jobs key on exactly what determines ``Σ``/``T`` — the
        system plus the :class:`TransportSpec` — so varying CBS-only
        numerics (ring, moment sizes) never fragments a transport
        cache, and a transport context can never collide with a CBS
        context.
        """
        if self.transport is not None:
            payload = {
                "system": self.system.to_dict(),
                "transport": self.transport.to_dict(),
            }
            if k_par is not None:
                payload["k_par"] = float(k_par)
            h = hashlib.sha256()
            h.update(b"transport-job-cache-v%d:" % JOB_SPEC_VERSION)
            h.update(
                json.dumps(
                    payload, sort_keys=True, separators=(",", ":")
                ).encode("utf-8")
            )
            return h.hexdigest()[:24]
        scan_physics = self.scan.to_dict()
        scan_physics.pop("energies")
        scan_physics.pop("window")
        effective_tuning = (
            self.execution.resolved_tuning()
            if self.engine() == "orchestrator"
            else TuningPolicy(enabled=False)
        )
        if not effective_tuning.enabled:
            # All disabled policies behave identically; key them equally.
            effective_tuning = TuningPolicy(enabled=False)
        payload = {
            "system": self.system.to_dict(),
            "ring": self.ring.to_dict(),
            "scan": scan_physics,
            "tuning": asdict(effective_tuning),
        }
        if k_par is not None:
            payload["k_par"] = float(k_par)
        if interpolated and self.map is not None:
            payload["map"] = self.map.to_dict()
        h = hashlib.sha256()
        h.update(b"cbs-job-cache-v%d:" % JOB_SPEC_VERSION)
        h.update(
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
                "utf-8"
            )
        )
        return h.hexdigest()[:24]


__all__: List[str] = [
    "JOB_SPEC_VERSION",
    "SystemSpec",
    "RingSpec",
    "ScanSpec",
    "ExecutionSpec",
    "TransportSpec",
    "KParSpec",
    "MapSpec",
    "CBSJob",
]
