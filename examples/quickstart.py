#!/usr/bin/env python3
"""Quickstart: complex band structure through the unified workload API.

One declarative loop for every workload:

    CBSJob (system × ring × scan × execution)  →  repro.api.compute(job)
    →  a versioned CBSResult: λ = exp(i k a) per energy, classified into
       propagating / evanescent modes, provenance-stamped

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.api import CBSJob, RingSpec, ScanSpec, SystemSpec, compute
from repro.models.chain import DiatomicChain, MonatomicChain


def single_energy_demo() -> None:
    """One energy slice of the monatomic chain, against the exact answer.

    A single-energy serial job routes straight to one Sakurai-Sugiura
    Hankel solve (`job.engine() == "solver"`).
    """
    chain = MonatomicChain(onsite=0.0, hopping=-1.0)  # band: [-2, 2]

    def chain_job(energy: float) -> CBSJob:
        return CBSJob(
            system=SystemSpec("chain", {"onsite": 0.0, "hopping": -1.0}),
            scan=ScanSpec(energies=(energy,), n_mm=2, n_rh=2, seed=1,
                          linear_solver="direct"),
            ring=RingSpec(n_int=16),
        )

    print("Monatomic chain, E inside the band (E = 0.7):")
    result = compute(chain_job(0.7))
    exact = chain.analytic_lambdas(0.7)
    for lam in result.slices[0].lambdas():
        err = np.min(np.abs(exact - lam))
        print(f"  λ = {lam:+.6f}   |λ| = {abs(lam):.6f}   error vs analytic: {err:.2e}")
    print("  → |λ| = 1: two counter-propagating Bloch waves.\n")

    print("Same chain, E above the band (E = 2.2):")
    result = compute(chain_job(2.2))
    for lam in result.slices[0].lambdas():
        print(f"  λ = {lam:+.6f}   |λ| = {abs(lam):.6f}")
    print("  → |λ| ≠ 1: a decaying/growing evanescent pair.\n")


def gap_scan_demo() -> None:
    """Scan the SSH chain through its gap: the evanescent loop + branch point.

    An energy-window job; serial execution routes it through the warm
    scan engine.  The job is fully serializable — the JSON round-trip
    below is what a remote worker or a job queue would receive.
    """
    ssh = DiatomicChain(t1=-1.0, t2=-0.6)  # gap of 0.8 centered at 0
    lo, hi = ssh.gap_edges()
    job = CBSJob(
        system=SystemSpec("diatomic-chain", {"t1": -1.0, "t2": -0.6}),
        scan=ScanSpec(window=(lo - 0.3, hi + 0.3, 13), n_mm=2, n_rh=2,
                      seed=1, linear_solver="direct"),
        ring=RingSpec(n_int=24),
    )
    job = CBSJob.from_json(job.to_json())  # declarative: survives the wire
    result = compute(job)

    print(f"SSH chain (gap [{lo:+.2f}, {hi:+.2f}]): dominant |Im k| per energy")
    print(f"  {'E':>7s}  {'modes':>5s}  {'propagating':>11s}  {'|Im k|':>8s}")
    for s, kim in zip(result.slices, result.min_imag_k()):
        kim_txt = f"{kim:8.4f}" if np.isfinite(kim) else "      --"
        print(f"  {s.energy:+7.3f}  {s.count:5d}  {len(s.propagating()):11d}  {kim_txt}")
    print("  → |Im k| rises into the gap and peaks at the branch point (E = 0).")
    print(f"  provenance: job {result.provenance['job_hash']} "
          f"ran on engine '{result.provenance['engine']}' "
          f"(repro {result.provenance['repro_version']})")


if __name__ == "__main__":
    single_energy_demo()
    gap_scan_demo()
