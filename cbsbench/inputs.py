"""Seeded workload inputs.

Every input is a plain job dict built from ``--seed`` alone (the Al(100)
job also folds in the Fermi level, a fixed property of the system), and
only these dicts reach ``repro``.  Sizes are fixed per workload and job
family; the seed moves energies, windows, source seeds and job picks.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Tuple

WORKLOADS = ("dft-bicg", "lead-serial", "lead-pool", "service-mix")

#: The paper's Al(100) lead at the bench grid spacing (N = 512 per layer).
AL100 = {"name": "al100", "params": {"spacing_angstrom": 0.45}}

#: The lead study: a width-8 square-lattice slab, 24 energies x 4
#: Monkhorst-Pack k-parallel points.
SLAB = {"name": "square-slab", "params": {"width": 8}}
LEAD_ENERGIES = 24
LEAD_KPAR = 4
LEAD_ETA = 1e-6

#: Service mix: ResultStore byte budget, below the mix's working set.
STORE_BUDGET = 1_000_000
#: Map-family transverse momenta and its interpolation tolerance.
MAP_KPAR = (0.5, 0.6333333333333333, 0.7666666666666666, 0.9)
MAP_TOLERANCE = 1e-2
#: One block of service rounds; every round gives each client one job.
#: The three submission kinds come in equal shares, one round of each
#: per block: a neutral default, not fitted to any measured traffic.
ROUND_PATTERN = ("twin", "repeat", "new")
#: Twin and new jobs each rotate through the families, so each family
#: gets a third of both.
FAMILIES = ("ladder-cbs", "slab-transport", "slab-map")
#: A repeat picks the ``r``-th earliest job with weight ``1 / r**ZIPF_S``
#: (classic Zipf popularity: the oldest jobs are the most requested).
ZIPF_S = 1.0


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"{seed}:{stream}")


def _source_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31 - 1)


def dft_job(seed: int, fermi: float) -> Dict:
    """One SS solve of the Al(100) QEP within 4 mHa of E_F (BiCG Step 1)."""
    rng = _rng(seed, "dft")
    energy = fermi + rng.uniform(-0.004, 0.004)
    return {
        "system": AL100,
        "scan": {
            "energies": [energy],
            "n_mm": 8,
            "n_rh": 8,
            "linear_solver": "bicg-batched",
            "seed": _source_seed(rng),
        },
        "ring": {"n_int": 32},
    }


def lead_jobs(seed: int, mode: str) -> Tuple[Dict, Dict]:
    """The lead study: a k-resolved CBS scan, then the BZ-summed
    transmission of a barrier on the same lead."""
    rng = _rng(seed, "lead")
    lo = -3.1 + rng.uniform(0.0, 0.2)
    window = [lo, lo + 6.0, LEAD_ENERGIES]
    execution = {"mode": "serial"} if mode == "serial" else {
        "mode": "pool", "workers": 2}
    cbs = {
        "system": SLAB,
        "scan": {
            "window": window,
            "n_mm": 4,
            "n_rh": 8,
            "linear_solver": "direct",
            "seed": _source_seed(rng),
        },
        "ring": {"n_int": 32},
        "kpar": {"grid": LEAD_KPAR},
        "execution": execution,
    }
    transport = {
        "system": SLAB,
        "scan": {"window": window},
        "transport": {
            "eta": LEAD_ETA,
            "n_cells": 2,
            "onsite_shift": rng.uniform(0.4, 0.6),
            "n_int": 32,
            "seed": _source_seed(rng),
        },
        "kpar": {"grid": LEAD_KPAR},
        "execution": execution,
    }
    return cbs, transport


def _new_job(rng: random.Random, family: str) -> Dict:
    shift = rng.uniform(-0.1, 0.1)
    if family == "ladder-cbs":
        return {
            "system": {"name": "ladder", "params": {"width": 3}},
            "scan": {
                "window": [-1.6 + shift, 1.6 + shift, 21],
                "n_mm": 4,
                "n_rh": 4,
                "linear_solver": "direct",
                "seed": _source_seed(rng),
            },
            "ring": {"n_int": 16},
        }
    if family == "slab-transport":
        return {
            "system": {"name": "square-slab", "params": {"width": 2}},
            "scan": {"window": [-2.9 + shift, 0.1 + shift, 6]},
            "transport": {
                "eta": 1e-6,
                "n_cells": 2,
                "onsite_shift": rng.uniform(0.4, 0.6),
                "n_int": 32,
                "seed": _source_seed(rng),
            },
            "kpar": {"grid": 2},
        }
    # Inside both width-2 slab bands for every k in MAP_KPAR: all four
    # modes propagate, so the closed-form map oracle has no ring-edge cases.
    return {
        "system": {"name": "square-slab", "params": {"width": 2}},
        "scan": {
            "window": [-2.0 + shift, -1.6 + shift, 12],
            "n_mm": 4,
            "n_rh": 4,
            "linear_solver": "direct",
            "seed": _source_seed(rng),
        },
        "ring": {"n_int": 16},
        "kpar": {"values": list(MAP_KPAR)},
        "map": {
            "coarse_e": 8,
            "coarse_k": 4,
            "tolerance": MAP_TOLERANCE,
            "safety": 2.0,
        },
    }


def service_rounds(seed: int) -> Iterator[Tuple[str, List[Dict]]]:
    """Endless service schedule: ``(kind, [job for client 0, client 1])``.

    Rounds repeat :data:`ROUND_PATTERN`: a twin round sends one new job
    from both clients at once (in-flight dedup), a new round one new job
    each, and a repeat round a Zipf-skewed pick of earlier jobs each
    (store reads, or re-solves once eviction broke a job's set).  Twin
    and new jobs each rotate through :data:`FAMILIES`; the seed moves
    their energies, windows and source seeds, and the repeat picks.
    """
    rng = _rng(seed, "service")
    picks = _rng(seed, "service-picks")
    created: List[Dict] = []
    count = {"twin": 0, "new": 0}

    def new(kind: str) -> Dict:
        family = FAMILIES[count[kind] % len(FAMILIES)]
        count[kind] += 1
        created.append(_new_job(rng, family))
        return created[-1]

    def repeat() -> Dict:
        weights = [1.0 / r ** ZIPF_S for r in range(1, len(created) + 1)]
        return picks.choices(created, weights)[0]

    while True:
        for kind in ROUND_PATTERN:
            if kind == "twin":
                job = new(kind)
                yield kind, [job, job]
            elif kind == "new":
                yield kind, [new(kind), new(kind)]
            else:
                yield kind, [repeat(), repeat()]
