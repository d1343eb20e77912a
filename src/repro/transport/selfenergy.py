"""Electrode self-energies from the Sakurai-Sugiura contour moments.

The companion paper (Iwase, Futamura, Imakura & Sakurai,
arXiv:1709.09324) observes that the same contour-integral machinery
that extracts the complex band structure yields the electrode
self-energy matrices directly: the retarded ``Σ(E)`` is determined by
the *decaying* generalized Bloch solutions of the lead, and those are
exactly the ring-QEP eigenpairs the SS solver already computes.

Pipeline (per energy, all reusing the existing Step-1/2/3 machinery):

1. Run :meth:`repro.ss.solver.SSHankelSolver.compute_moments` at the
   **complex** energy ``E + iη`` over a ring wide enough to enclose
   every finite nonzero QEP eigenvalue (the retarded prescription
   ``η > 0`` pushes right-movers strictly inside the unit circle, so
   the decaying/growing split is a clean ``|λ| ≶ 1`` test — no group
   velocities needed).  The complex shift disables the dual-node
   shortcut automatically (``P(z)^† = P(1/z̄)`` needs real ``E``); the
   solver then solves all ``2 N_int`` systems explicitly, exactly as
   for a non-reciprocal ring.
2. Hankel-extract the eigenpairs from the accumulated moments
   (:func:`repro.ss.hankel.extract_eigenpairs`), filter by residual.
3. Complete the decaying set with the ``λ = 0`` solutions (the null
   space of ``H−``, invisible to any contour) and the growing set with
   the ``λ = ∞`` solutions (null space of ``H+``), then build the
   surface Green's functions from the Bloch matrices:

   .. math::

       F_+ = U_+ Λ_+ U_+^{-1}, \\qquad
       g_R = (E + iη - H_0 - H_+ F_+)^{-1}, \\qquad
       Σ_R = H_+ g_R H_- ,

   and mirrored with ``Λ_-^{-1}`` for the left lead.

The ring radius is auto-sized from Cauchy-type root bounds of the
quadratic pencil, and the construction *verifies completeness* (the
decaying basis must span ``C^N``) so a too-small ring fails loudly
instead of silently dropping channels.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, ExtractionError
from repro.qep.blocks import BlockTriple, as_dense_complex as _dense
from repro.ss.hankel import extract_eigenpairs
from repro.ss.solver import SSConfig, SSHankelSolver

#: Relative singular-value threshold used for the λ = 0 / λ = ∞ null
#: spaces of the coupling blocks.
_NULL_TOL = 1e-12


class IncompleteBasisError(ConfigurationError):
    """The Bloch basis misses solutions — the transport ring was too
    small (or the residual filter too strict).  Retryable: enlarging
    the ring recovers the missing channels, which is exactly what
    :func:`ss_self_energies` does.  Contrast with a *numerically
    singular* basis (a band degeneracy), which ring growth cannot fix
    and which therefore raises plain :class:`ConfigurationError`."""


@dataclass(frozen=True)
class SelfEnergyConfig:
    """Numerical parameters of the SS self-energy route.

    Parameters
    ----------
    eta : float, optional
        Positive imaginary energy shift (retarded prescription).
    n_int : int, optional
        Quadrature points per circle.  Transport rings are wider than
        CBS rings, so the default is denser than the CBS default.
    n_mm : int, optional
        Moment degrees.  Kept small on purpose: the Hankel conditioning
        degrades like ``r_out^{2 N_mm - 1}`` and transport rings have a
        large ``r_out``.
    n_rh : int or None, optional
        Source-block width; ``None`` sizes it automatically so the
        subspace capacity ``N_rh × N_mm`` exceeds the ``2N`` possible
        in-ring eigenpairs with headroom.
    ring_radius : float or None, optional
        Outer ring radius ``R`` (the ring is the reciprocal annulus
        ``1/R < |λ| < R``).  ``None`` derives ``R`` from Cauchy root
        bounds of the pencil at each energy.
    delta : float, optional
        Relative SVD truncation of the Hankel extraction.
    residual_tol : float, optional
        Acceptance threshold on the relative QEP residual of extracted
        eigenpairs.
    max_grow_rounds : int, optional
        Re-solve budget when the extraction saturates its subspace or
        the decaying basis is incomplete (each round enlarges ``N_rh``
        or the ring).
    seed : int or None, optional
        RNG seed for the random source block.
    linear_solver : str, optional
        Step-1 strategy name (``"auto"`` resolves by problem size).
    """

    eta: float = 1e-6
    n_int: int = 64
    n_mm: int = 2
    n_rh: Optional[int] = None
    ring_radius: Optional[float] = None
    delta: float = 1e-12
    residual_tol: float = 1e-8
    max_grow_rounds: int = 3
    seed: Optional[int] = 7
    linear_solver: str = "auto"

    def __post_init__(self) -> None:
        if not self.eta > 0:
            raise ConfigurationError(f"eta must be > 0, got {self.eta}")
        if self.ring_radius is not None and not self.ring_radius > 1.0:
            raise ConfigurationError(
                f"ring_radius must be > 1, got {self.ring_radius}"
            )
        if self.n_rh is not None and self.n_rh < 1:
            raise ConfigurationError(
                f"n_rh must be >= 1 or None, got {self.n_rh}"
            )
        if self.n_int < 2:
            raise ConfigurationError(f"n_int must be >= 2, got {self.n_int}")
        if self.n_mm < 1:
            raise ConfigurationError(f"n_mm must be >= 1, got {self.n_mm}")
        if not 0 < self.delta < 1:
            raise ConfigurationError(
                f"delta must be in (0,1), got {self.delta}"
            )
        if not self.residual_tol > 0:
            raise ConfigurationError(
                f"residual_tol must be > 0, got {self.residual_tol}"
            )
        if self.max_grow_rounds < 0:
            raise ConfigurationError(
                f"max_grow_rounds must be >= 0, got {self.max_grow_rounds}"
            )

    def resolved_n_rh(self, n: int) -> int:
        """The source-block width a solve at block dimension ``n``
        actually uses: ``n_rh`` when set, else the auto-sizing rule
        (capacity ``n_rh × n_mm`` exceeds the ``2N`` possible in-ring
        eigenpairs with headroom)."""
        if self.n_rh is not None:
            return int(self.n_rh)
        return max(2, -(-(2 * n + 2) // self.n_mm))


@dataclass
class RingModes:
    """The ring-QEP eigenpairs of a lead at one complex energy.

    Attributes
    ----------
    energy : complex
        The complex energy ``E + iη`` of the solve.
    eigenvalues : numpy.ndarray
        Accepted in-ring eigenvalues ``λ``.
    vectors : numpy.ndarray
        Matching eigenvector columns (``N × count``).
    residuals : numpy.ndarray
        Relative QEP residuals of the accepted pairs.
    ring_radius : float
        Outer radius of the ring that was integrated.
    total_iterations : int
        Step-1 iteration total (zero on the direct path).
    """

    energy: complex
    eigenvalues: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    ring_radius: float
    total_iterations: int = 0

    @property
    def count(self) -> int:
        return int(self.eigenvalues.shape[0])


def _null_space(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the (right) null space of a dense block."""
    u, s, vh = np.linalg.svd(m)
    if s.size == 0:
        return np.eye(m.shape[1], dtype=np.complex128)
    rank = int(np.count_nonzero(s > _NULL_TOL * s[0]))
    return vh[rank:].conj().T


def auto_ring_radius(blocks: BlockTriple, energy: complex) -> float:
    """Cauchy-type outer radius bound for the finite nonzero QEP spectrum.

    For the monic-equivalent quadratic ``λ² H+ + λ (H0 − E) + H−`` the
    classical Cauchy bound gives ``|λ| ≤ 1 + ‖H+⁻¹(H0−E)‖ + ‖H+⁻¹H−‖``;
    the reversed polynomial bounds ``1/|λ|`` the same way through
    ``H−``.  Singular coupling blocks use the pseudo-inverse (their
    exactly-zero/infinite eigenvalues are handled separately via null
    spaces, so the bound only needs to cover the finite nonzero part —
    completeness is verified downstream either way).

    Parameters
    ----------
    blocks : BlockTriple
        The lead block triple.
    energy : complex
        The complex energy of the pencil.

    Returns
    -------
    float
        A radius ``R > 1`` such that every finite nonzero eigenvalue
        satisfies ``1/R < |λ| < R`` (with a 10% safety margin).
    """
    h0 = _dense(blocks.h0)
    hp = _dense(blocks.hp)
    hm = _dense(blocks.hm)
    a = h0 - complex(energy) * np.eye(blocks.n, dtype=np.complex128)

    def cauchy(lead: np.ndarray, other: np.ndarray) -> float:
        pinv = np.linalg.pinv(lead, rcond=_NULL_TOL)
        return 1.0 + float(
            np.linalg.norm(pinv @ a, 2) + np.linalg.norm(pinv @ other, 2)
        )

    r = max(cauchy(hp, hm), cauchy(hm, hp))
    return 1.1 * max(r, 1.5)


def _resolve_config(
    blocks: BlockTriple, cfg: SelfEnergyConfig, ring_radius: float
) -> SSConfig:
    n_rh = cfg.resolved_n_rh(blocks.n)
    return SSConfig(
        n_int=cfg.n_int,
        n_mm=cfg.n_mm,
        n_rh=n_rh,
        delta=cfg.delta,
        ring_radii=(1.0 / ring_radius, ring_radius),
        linear_solver=cfg.linear_solver,
        residual_tol=cfg.residual_tol,
        use_dual_trick=False,
        quorum_fraction=None,
        seed=cfg.seed,
        record_history=False,
    )


def ring_eigenpairs(
    blocks: BlockTriple,
    energy: complex,
    config: Optional[SelfEnergyConfig] = None,
) -> RingModes:
    """All finite nonzero QEP eigenpairs of a lead at a complex energy.

    Runs SS Steps 1–3 (moments + block-Hankel extraction) over the
    reciprocal ring ``1/R < |λ| < R`` sized by
    :func:`auto_ring_radius` (or ``config.ring_radius``), growing the
    subspace and the ring when the extraction saturates.

    Parameters
    ----------
    blocks : BlockTriple
        The lead block triple.
    energy : complex
        The complex energy ``E + iη`` (``Im energy > 0`` for retarded
        objects; the caller adds ``η``).
    config : SelfEnergyConfig, optional
        Numerical parameters (defaults when omitted).

    Returns
    -------
    RingModes
        Accepted eigenpairs sorted by ascending ``|λ|``.
    """
    cfg = config or SelfEnergyConfig()
    energy = complex(energy)
    radius = (
        float(cfg.ring_radius)
        if cfg.ring_radius is not None
        else auto_ring_radius(blocks, energy)
    )
    solver_blocks = blocks.as_complex()

    for attempt in range(cfg.max_grow_rounds + 1):
        ss_cfg = _resolve_config(blocks, cfg, radius)
        if attempt:
            grow = 1 + attempt
            ss_cfg = replace(ss_cfg, n_rh=grow * ss_cfg.n_rh)
        solver = SSHankelSolver(solver_blocks, ss_cfg, validate=False)
        pencil, contour, acc, stats, _times, _kind = solver.compute_moments(
            energy
        )
        try:
            ext = extract_eigenpairs(
                acc.mu, acc.stacked_s(), ss_cfg.n_mm, ss_cfg.delta
            )
        except ExtractionError:
            lam = np.empty(0, dtype=np.complex128)
            vecs = np.empty((blocks.n, 0), dtype=np.complex128)
            res = np.empty(0, dtype=np.float64)
        else:
            raw_lam = ext.eigenvalues
            raw_res = pencil.residuals(raw_lam, ext.vectors)
            keep = contour.contains_many(raw_lam) & (
                raw_res <= cfg.residual_tol
            )
            lam = raw_lam[keep]
            vecs = ext.vectors[:, keep]
            res = raw_res[keep]
            saturated = ext.rank >= ss_cfg.subspace_capacity
            if saturated and attempt < cfg.max_grow_rounds:
                continue  # subspace may have hidden eigenpairs — regrow
        order = np.argsort(np.abs(lam))
        iters = int(sum(p.iterations for p in stats))
        return RingModes(
            energy=energy,
            eigenvalues=lam[order],
            vectors=vecs[:, order],
            residuals=res[order],
            ring_radius=radius,
            total_iterations=iters,
        )
    raise ExtractionError(  # pragma: no cover — loop always returns
        "ring_eigenpairs exhausted its grow budget"
    )


def _bloch_matrix(
    basis_vecs: List[np.ndarray],
    basis_vals: List[complex],
    n: int,
    what: str,
) -> np.ndarray:
    """``F = U diag(vals) U^{-1}`` with an invertibility (completeness)
    check on ``U``."""
    if not basis_vecs:
        u = np.empty((n, 0), dtype=np.complex128)
    else:
        u = np.column_stack(basis_vecs)
    if u.shape[1] < n:
        raise IncompleteBasisError(
            f"incomplete {what} Bloch basis: {u.shape[1]} solutions for "
            f"dimension {n} — enlarge the transport ring "
            f"(ring_radius) or loosen residual_tol"
        )
    if u.shape[1] > n:
        # Overcomplete: a direction was counted twice (e.g. a coupling
        # block with a near-zero singular value puts an eigenvalue in
        # the ring AND in the null-space completion).  Ring growth can
        # only make this worse, so raise the non-retryable error with
        # the actual remedy.
        raise ConfigurationError(
            f"overcomplete {what} Bloch basis: {u.shape[1]} solutions "
            f"for dimension {n} — the lead coupling block is nearly "
            f"rank-deficient, so a near-zero eigenvalue was counted "
            f"both by the contour and by the null-space completion; "
            f"tighten residual_tol or regularize the coupling"
        )
    cond = np.linalg.cond(u)
    if not np.isfinite(cond) or cond > 1e12:
        raise ConfigurationError(
            f"{what} Bloch basis is numerically singular "
            f"(cond={cond:.2e}); the lead may be at a band degeneracy — "
            f"nudge the energy or increase eta"
        )
    lam = np.asarray(basis_vals, dtype=np.complex128)
    return u @ (lam[:, None] * np.linalg.inv(u))


def self_energies_from_modes(
    blocks: BlockTriple, modes: RingModes
) -> Tuple[np.ndarray, np.ndarray]:
    """Both retarded self-energies from one set of ring eigenpairs.

    Splits the eigenpairs into decaying (``|λ| < 1``) and growing
    (``|λ| > 1``) sets, completes them with the ``λ = 0`` (null ``H−``)
    and ``λ = ∞`` (null ``H+``) solutions, and evaluates

    .. math::

        Σ_R &= H_+ (E_c - H_0 - H_+ F_+)^{-1} H_- ,\\\\
        Σ_L &= H_- (E_c - H_0 - H_- F_-)^{-1} H_+ ,

    with ``F_+ = U_+ Λ_+ U_+^{-1}`` over the decaying set and
    ``F_- = U_- Λ_-^{-1} U_-^{-1}`` over the growing set.

    Parameters
    ----------
    blocks : BlockTriple
        The lead block triple.
    modes : RingModes
        Output of :func:`ring_eigenpairs` at ``E + iη``.

    Returns
    -------
    (numpy.ndarray, numpy.ndarray)
        ``(Σ_L, Σ_R)``, dense ``N × N`` each.
    """
    n = blocks.n
    h0 = _dense(blocks.h0)
    hp = _dense(blocks.hp)
    hm = _dense(blocks.hm)
    ec = complex(modes.energy)
    eye = np.eye(n, dtype=np.complex128)

    mags = np.abs(modes.eigenvalues)
    dec_vecs = [modes.vectors[:, i] for i in np.flatnonzero(mags < 1.0)]
    dec_vals = [complex(v) for v in modes.eigenvalues[mags < 1.0]]
    gro_vecs = [modes.vectors[:, i] for i in np.flatnonzero(mags > 1.0)]
    gro_vals = [1.0 / complex(v) for v in modes.eigenvalues[mags > 1.0]]

    # λ = 0 solutions (ψ supported on one cell, killed by H−) complete
    # the decaying basis; λ = ∞ (null H+) the growing one.
    null_hm = _null_space(hm)
    for j in range(null_hm.shape[1]):
        dec_vecs.append(null_hm[:, j])
        dec_vals.append(0.0)
    null_hp = _null_space(hp)
    for j in range(null_hp.shape[1]):
        gro_vecs.append(null_hp[:, j])
        gro_vals.append(0.0)

    f_plus = _bloch_matrix(dec_vecs, dec_vals, n, "decaying (right-lead)")
    f_minus = _bloch_matrix(gro_vecs, gro_vals, n, "growing (left-lead)")

    g_r = np.linalg.solve(ec * eye - h0 - hp @ f_plus, eye)
    g_l = np.linalg.solve(ec * eye - h0 - hm @ f_minus, eye)
    return hm @ g_l @ hp, hp @ g_r @ hm


def ss_self_energies(
    blocks: BlockTriple,
    energy: float,
    config: Optional[SelfEnergyConfig] = None,
) -> Tuple[np.ndarray, np.ndarray, RingModes]:
    """Retarded ``(Σ_L, Σ_R)`` at real ``energy`` via the SS contour route.

    The complete-basis check inside :func:`self_energies_from_modes`
    fails loudly when the ring missed channels; in that case the ring
    is enlarged and the solve retried before giving up.

    Parameters
    ----------
    blocks : BlockTriple
        The lead block triple.
    energy : float
        Real energy ``E``; the solve runs at ``E + iη`` with
        ``config.eta``.
    config : SelfEnergyConfig, optional
        Numerical parameters (defaults when omitted).

    Returns
    -------
    (numpy.ndarray, numpy.ndarray, RingModes)
        ``Σ_L``, ``Σ_R``, and the ring eigenpairs they were built from.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.models import MonatomicChain
    >>> from repro.transport.selfenergy import ss_self_energies
    >>> chain = MonatomicChain(hopping=-1.0)
    >>> sig_l, sig_r, modes = ss_self_energies(chain.blocks(), 3.0)
    >>> lam = min(chain.analytic_lambdas(3.0), key=abs)   # Σ_R = t λ
    >>> bool(abs(sig_r[0, 0] - (-1.0) * lam) < 1e-6)
    True
    """
    cfg = config or SelfEnergyConfig()
    ec = complex(energy) + 1j * cfg.eta
    last_err: Optional[Exception] = None
    radius = cfg.ring_radius
    for attempt in range(cfg.max_grow_rounds + 1):
        run_cfg = cfg if radius is None else replace(cfg, ring_radius=radius)
        modes = ring_eigenpairs(blocks, ec, run_cfg)
        try:
            sig_l, sig_r = self_energies_from_modes(blocks, modes)
            return sig_l, sig_r, modes
        except IncompleteBasisError as exc:
            # The only retryable failure: the ring missed channels.
            # Anything else (e.g. a numerically singular basis at a
            # band degeneracy) propagates immediately — a bigger ring
            # cannot fix it, and its message carries the real remedy.
            last_err = exc
            radius = 2.0 * modes.ring_radius
    raise ConfigurationError(
        f"SS self-energy failed at E={energy} after ring growth: {last_err}"
    )
