"""Stream pins of a plain (no k∥) energy scan through every scan engine.

A plain scan runs as the one-column case of the (E, k∥) tile pipeline.
These pins hold the 1D stream to the bytes it had when 1D scans still
had their own loops: for each execution mode, a sha256 over

* the stream order ``(k_par, energy)``,
* the ``progress(done, total)`` sequence,
* every slice's mode count and eigenvalue bytes (CBS) or transmission
  bytes (transport), and its ``k_par is None`` / ``k_weight == 1.0``
  tags,
* the ``n_shards``, ``solves`` and ``refined_energies`` fields of the
  blocking run's :class:`repro.cbs.orchestrator.ScanReport` (sharded
  engines only; refinements are ``(E, None)`` pairs).

Each mode runs uncancelled, cancelled after the third slice, and
cancelled one slice past the base grid (mid-refinement where the engine
refines).  The cancel callbacks read how many progress ticks the
consumer saw, so they are poll-count independent.
"""

import hashlib

import numpy as np
import pytest

from repro.api import CBSJob, ExecutionSpec, compute, compute_iter

_CBS = dict(
    system={"name": "ladder", "params": {"width": 3}},
    scan={"window": [-1.6, 1.6, 9], "n_mm": 4, "n_rh": 4, "seed": 3,
          "linear_solver": "direct"},
    ring={"n_int": 16},
)

_TRANSPORT = dict(
    system={"name": "ladder", "params": {"width": 3}},
    scan={"window": [-1.5, 1.5, 7]},
    transport={"eta": 1e-6, "n_cells": 2, "n_int": 32, "seed": 3},
)

MODES = {
    "serial": (_CBS, ExecutionSpec(mode="serial")),
    "threads": (_CBS, ExecutionSpec(mode="threads", workers=2)),
    "processes": (_CBS, ExecutionSpec(mode="processes", workers=2)),
    "orchestrated": (_CBS, ExecutionSpec(mode="orchestrated", workers=2)),
    "transport-serial": (_TRANSPORT, ExecutionSpec(mode="serial")),
    "transport-sharded": (
        _TRANSPORT, ExecutionSpec(mode="processes", workers=2)
    ),
}

#: sha256 digests recorded before plain scans were routed through the
#: tile pipeline; keys are ``(mode, cancel)`` where ``cancel`` is the
#: progress tick count that triggers cancellation (``None``: never;
#: ``"base+1"``: one tick past the base grid).
PINNED_STREAMS = {
    ('serial', None): (
        '3a0d6a034d4c820dcbba8b67e481a3f0'
        '7d4ac5497c69f60b75865e841d250226'
    ),
    ('serial', 3): (
        '253ed873a0ac10fdae47d78272bccaed'
        '7f3328543c6d3e05b89ef0aef402c556'
    ),
    ('serial', 'base+1'): (
        '3a0d6a034d4c820dcbba8b67e481a3f0'
        '7d4ac5497c69f60b75865e841d250226'
    ),
    ('threads', None): (
        '3a0d6a034d4c820dcbba8b67e481a3f0'
        '7d4ac5497c69f60b75865e841d250226'
    ),
    ('threads', 3): (
        '253ed873a0ac10fdae47d78272bccaed'
        '7f3328543c6d3e05b89ef0aef402c556'
    ),
    ('threads', 'base+1'): (
        '3a0d6a034d4c820dcbba8b67e481a3f0'
        '7d4ac5497c69f60b75865e841d250226'
    ),
    ('processes', None): (
        'be5c0290c8056b7ff5719f3fb6362e2d'
        'd68b6e19efa710c1671a94378aa154e2'
    ),
    ('processes', 3): (
        '172819a6da813f5ec5475dd3e838a765'
        'a6f7b83dbd1770ddad47696ba73d689f'
    ),
    ('processes', 'base+1'): (
        'be5c0290c8056b7ff5719f3fb6362e2d'
        'd68b6e19efa710c1671a94378aa154e2'
    ),
    ('orchestrated', None): (
        'dc29c7a5bd8ce26b6158da40d1dfbe88'
        'bfbf75e5fc43bddc35b44e01eeae50ac'
    ),
    ('orchestrated', 3): (
        '172819a6da813f5ec5475dd3e838a765'
        'a6f7b83dbd1770ddad47696ba73d689f'
    ),
    ('orchestrated', 'base+1'): (
        '70b1c5397f66fe4863c498805710f613'
        'f5d7e8fab08f5b8fc1856a71732e2a1e'
    ),
    ('transport-serial', None): (
        '98dc0a79953dab66219cf9c84c1ef95f'
        '0b2c7f5749966a2d9e6167664c2f682f'
    ),
    ('transport-serial', 3): (
        '6a4936e3f0de0b0ed2724cf6b3fb94ba'
        '4dd0f445e3e7bedb9e13d66cac6c2b0f'
    ),
    ('transport-serial', 'base+1'): (
        '98dc0a79953dab66219cf9c84c1ef95f'
        '0b2c7f5749966a2d9e6167664c2f682f'
    ),
    ('transport-sharded', None): (
        '5bbf63d62972bb43f4a564b3e5766820'
        'e30685480cb67a6cadc71287be440ca9'
    ),
    ('transport-sharded', 3): (
        '7c535886f3fb05d8c16022c520723cbf'
        'a3de69480bfb7b1cdea37fd2af728bcd'
    ),
    ('transport-sharded', 'base+1'): (
        '5bbf63d62972bb43f4a564b3e5766820'
        'e30685480cb67a6cadc71287be440ca9'
    ),
}


def _job(mode):
    base, execution = MODES[mode]
    return CBSJob(**base, execution=execution)


def _cancel_at(job, cancel):
    if cancel == "base+1":
        return len(job.energies()) + 1
    return cancel


def _stream_digest(mode, cancel):
    job = _job(mode)
    limit = _cancel_at(job, cancel)
    h = hashlib.sha256()

    ticks = []

    def should_cancel():
        return limit is not None and len(ticks) >= limit

    for sl in compute_iter(
        job,
        progress=lambda done, total: ticks.append((done, total)),
        should_cancel=should_cancel,
    ):
        h.update(repr((sl.k_par, sl.energy)).encode())
        h.update(repr((sl.k_par is None,
                       getattr(sl, "k_weight", 1.0) == 1.0)).encode())
        if hasattr(sl, "transmission"):
            h.update(np.float64(sl.transmission).tobytes())
        else:
            h.update(repr(sl.count).encode())
            h.update(np.ascontiguousarray(sl.lambdas()).tobytes())
    h.update(repr(ticks).encode())

    blocking_ticks = []

    def blocking_cancel():
        return limit is not None and len(blocking_ticks) >= limit

    result = compute(
        job,
        progress=lambda done, total: blocking_ticks.append((done, total)),
        should_cancel=blocking_cancel,
    )
    report = result.provenance.get("report")
    if report is not None:
        h.update(repr((
            report["n_shards"],
            report["solves"],
            [tuple(p) for p in report["refined_energies"]],
        )).encode())
    h.update(repr(blocking_ticks).encode())
    return h.hexdigest()


CASES = [
    (mode, cancel) for mode in MODES for cancel in (None, 3, "base+1")
]


@pytest.mark.parametrize(
    "mode, cancel", CASES, ids=[f"{m}-cancel{c}" for m, c in CASES]
)
def test_plain_scan_stream_pinned(mode, cancel):
    assert _stream_digest(mode, cancel) == "".join(
        PINNED_STREAMS[(mode, cancel)]
    )
