"""The library workloads: ``dft-bicg``, ``lead-serial`` and ``lead-pool``.

Each unit of work drives ``repro.api.compute_iter`` over the workload's
job dicts and keeps a bit-exact digest of what came out; the oracles
check the first unit against the independent references and every later
unit against the first.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from cbsbench import inputs, oracles

#: Eigenvalue agreement with the dense references.  The SS solver accepts
#: pairs with residual <= 1e-6, and BiCG Step 1 (tolerance 1e-10) leaves
#: eigenvalue errors near 1e-6 on Al(100); sparse LU leaves ~1e-7.
DFT_LAMBDA_TOL = 1e-5
LEAD_LAMBDA_TOL = 1e-6
#: Contour self-energies against Sancho-Rubio decimation (widened where
#: decimation is itself inaccurate, see :func:`oracles.check_sigma`) and
#: against the closed-form slab self-energy (SS reaches ~1e-13).
SIGMA_DECIMATION_TOL = 1e-6
SIGMA_EXACT_TOL = 1e-9


def _digest(sl):
    """Exact fingerprint of one slice (CBS or transport)."""
    k = getattr(sl, "k_par", None)
    if hasattr(sl, "sigma_l"):
        return ("transport", sl.energy, k, sl.transmission,
                sl.sigma_l.tobytes(), sl.sigma_r.tobytes())
    lams = np.array([m.lam for m in sl.modes], dtype=np.complex128)
    return ("cbs", sl.energy, k, lams.tobytes())


class LibraryBench:
    """One library workload bound to one seed."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.jobs: List[Dict] = []
        self.first_outputs = None

    # -- set-up ------------------------------------------------------------

    def setup(self) -> float:
        """Imports, system build, E_F estimate and (pool) worker fork."""
        t0 = time.perf_counter()
        from repro.api import compute_iter, resolve_system

        self._compute_iter = compute_iter
        if self.name == "dft-bicg":
            from repro.dft.builders import bulk_al100
            from repro.dft.fermi import estimate_fermi

            blocks = resolve_system(inputs.AL100["name"],
                                    inputs.AL100["params"])
            n_val = bulk_al100().n_valence_electrons()
            fermi = estimate_fermi(
                blocks, n_val, n_bands=min(blocks.n - 2, max(24, n_val)),
                dense_threshold=600,
            ).fermi
            self.jobs = [inputs.dft_job(self.seed, fermi)]
        else:
            from repro.api import KParSpec

            mode = "serial" if self.name == "lead-serial" else "pool"
            self.jobs = list(inputs.lead_jobs(self.seed, mode))
            for k in KParSpec(grid=inputs.LEAD_KPAR).points():
                resolve_system(inputs.SLAB["name"],
                               dict(inputs.SLAB["params"], k_par=k))
            if mode == "pool":
                from repro.parallel.executor import make_executor

                make_executor(("pool", 2)).map(abs, [1, -2, 3])
        return time.perf_counter() - t0

    # -- one unit ----------------------------------------------------------

    def unit(self) -> Dict:
        start = time.perf_counter()
        first = None
        digests = []
        slices = []
        for job in self.jobs:
            for sl in self._compute_iter(job):
                if first is None:
                    first = time.perf_counter() - start
                digests.append(_digest(sl))
                if self.first_outputs is None:
                    slices.append(sl)
        end = time.perf_counter()
        if self.first_outputs is None:
            self.first_outputs = slices
        return {"start": start, "end": end, "wall": end - start,
                "first": first, "slices": len(digests), "digests": digests}

    # -- oracles -----------------------------------------------------------

    def verify(self, units: List[Dict]) -> List[str]:
        """Failure messages, one per failing unit (after the timed loop)."""
        if not units:
            return []
        reference = self._reference_errors()
        expected = units[0]["digests"]
        if self.name == "lead-pool":
            expected = self._serial_digests()
        failures = []
        for i, unit in enumerate(units):
            errors = list(reference) if i == 0 else []
            if not oracles.same_bits(unit["digests"], expected):
                errors.append(
                    "outputs differ from lead-serial" if self.name == "lead-pool"
                    else "outputs differ from the first unit")
            if errors:
                failures.append(f"unit {i}: " + "; ".join(errors[:3]))
        return failures

    def _serial_digests(self):
        serial = inputs.lead_jobs(self.seed, "serial")
        return [_digest(sl) for job in serial
                for sl in self._compute_iter(job)]

    def _reference_errors(self) -> List[str]:
        from repro.api import resolve_system
        from repro.baselines.transfer_matrix import transfer_matrix_eigenvalues

        slices = self.first_outputs or []
        if self.name == "dft-bicg":
            (sl,) = slices
            blocks = resolve_system(inputs.AL100["name"],
                                    inputs.AL100["params"])
            dense = oracles.dense_qep_eigenvalues(blocks, sl.energy)
            return oracles.match_ring([m.lam for m in sl.modes], dense,
                                      DFT_LAMBDA_TOL)
        errors: List[str] = []
        blocks_at = {}
        for sl in slices:
            k = sl.k_par
            if k not in blocks_at:
                blocks_at[k] = resolve_system(
                    inputs.SLAB["name"], dict(inputs.SLAB["params"], k_par=k))
            blocks = blocks_at[k]
            if hasattr(sl, "sigma_l"):
                errors += oracles.check_sigma(blocks, sl, inputs.LEAD_ETA,
                                              SIGMA_DECIMATION_TOL)
                errors += oracles.check_slab_sigma(
                    sl, inputs.SLAB["params"]["width"], inputs.LEAD_ETA,
                    SIGMA_EXACT_TOL)
            else:
                tm = transfer_matrix_eigenvalues(blocks, sl.energy)
                errors += oracles.match_ring(
                    [m.lam for m in sl.modes], tm, LEAD_LAMBDA_TOL)
        n_cbs = sum(not hasattr(s, "sigma_l") for s in slices)
        expected = inputs.LEAD_ENERGIES * inputs.LEAD_KPAR
        if n_cbs != expected or len(slices) != 2 * expected:
            errors.append(f"{len(slices)} slices, expected {2 * expected}")
        return errors
