"""JobService + HTTP front end: dedup, backpressure, quotas, cancel.

The acceptance pins of the service subsystem:

* 8 concurrent submissions of one job run **exactly one**
  ``compute_iter`` (the ``solves_started`` counter says so) and every
  client receives the full slice stream;
* an identical later submission is served entirely from the
  ``ResultStore`` — zero solves;
* a full admission queue rejects with a structured ``retry_after``
  (HTTP 429 + ``Retry-After``), and a quota-exhausted client is
  refused while other clients proceed;
* a streaming client's cancel stops a solve nobody else shares at the
  next poll point, while a shared job keeps running until the last
  interested client detaches.

Deterministic scheduling tests monkeypatch
``repro.service.service.compute_iter`` with a gated fake; end-to-end
tests run real (tiny, serial) chain jobs through the asyncio stack and
the stdlib HTTP server.
"""

import asyncio
import http.client
import json
import math
import threading
import time

import numpy as np
import pytest

from repro.cbs.classify import CBSMode, ModeType
from repro.cbs.scan import EnergySlice
from repro.service import (
    JobService,
    ResultStore,
    ServiceRejected,
    ServiceServer,
    result_from_wire,
    result_to_wire,
    slice_from_wire,
    slice_to_wire,
)
from repro.transport.scan import TransportSlice


def _job(energies=(-0.5, 0.0, 0.5)):
    return {
        "system": {"name": "chain", "params": {"hopping": -1.0}},
        "scan": {
            "energies": list(energies),
            "n_mm": 2,
            "n_rh": 2,
            "seed": 1,
            "linear_solver": "direct",
        },
        "ring": {"n_int": 16},
    }


def _mode(energy):
    return CBSMode(energy, 0.7 + 0.1j, 0.14 + 0.35j,
                   ModeType.EVANESCENT_DECAYING, 2.86, 1e-9)


def _slice(energy):
    return EnergySlice(energy, [_mode(energy)], total_iterations=3,
                       solve_seconds=0.01)


async def _wait_event(event, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not event.is_set():
        assert time.monotonic() < deadline, "event never set"
        await asyncio.sleep(0.005)


async def _wait_state(svc, job_id, *states, timeout=15.0):
    deadline = time.monotonic() + timeout
    st = await svc.status(job_id)
    while time.monotonic() < deadline:
        if st["state"] in states:
            return st
        await asyncio.sleep(0.01)
        st = await svc.status(job_id)
    raise AssertionError(f"timed out waiting for {states}; at {st}")


class _Gate:
    """A controllable stand-in for ``compute_iter``: yields one slice,
    then holds until released (polling ``should_cancel`` meanwhile)."""

    def __init__(self, energies=(0.0, 1.0)):
        self.energies = energies
        self.started = threading.Event()
        self.release = threading.Event()

    def __call__(self, job, *, progress=None, should_cancel=None):
        self.started.set()
        yield _slice(float(self.energies[0]))
        deadline = time.monotonic() + 30.0
        while not self.release.is_set():
            if should_cancel is not None and should_cancel():
                return
            if time.monotonic() > deadline:  # pragma: no cover - hang guard
                raise RuntimeError("gate never released")
            time.sleep(0.005)
        for e in self.energies[1:]:
            yield _slice(float(e))


# ----------------------------------------------------------------------
# dedup + streaming (real solves)
# ----------------------------------------------------------------------


def test_eight_concurrent_submits_one_solve(tmp_path):
    async def main():
        svc = JobService(ResultStore(str(tmp_path)), max_queue=16)
        tickets = await asyncio.gather(
            *[svc.submit(_job(), client=f"c{i}") for i in range(8)]
        )
        job_id = tickets[0].job_id
        assert all(t.job_id == job_id for t in tickets)
        assert sum(t.deduped for t in tickets) == 7
        streams = await asyncio.gather(
            *[_collect(svc, job_id) for _ in range(8)]
        )
        for got in streams:
            assert [s.energy for s in got] == [-0.5, 0.0, 0.5]
        assert svc.metrics_counters["solves_started"] == 1
        assert svc.metrics_counters["deduped"] == 7
        res = await svc.result(job_id)
        assert [s["energy"] for s in res["slices"]] == [-0.5, 0.0, 0.5]
        await svc.aclose()

    async def _collect(svc, job_id):
        return [sl async for sl in svc.stream(job_id)]

    asyncio.run(main())


def test_resubmit_is_served_from_store_with_zero_solves(tmp_path):
    async def first():
        svc = JobService(ResultStore(str(tmp_path)))
        t = await svc.submit(_job())
        await _wait_state(svc, t.job_id, "done")
        await svc.aclose()
        return t.job_id

    async def second(job_id):
        svc = JobService(ResultStore(str(tmp_path)))
        t = await svc.submit(_job())
        assert t.job_id == job_id
        assert t.from_store and t.state == "done"
        assert svc.metrics_counters["solves_started"] == 0
        assert svc.metrics_counters["served_from_store"] == 1
        # The stored stream replays in full, already settled.
        got = [sl async for sl in svc.stream(job_id)]
        assert [s.energy for s in got] == [-0.5, 0.0, 0.5]
        res = result_from_wire(await svc.result(job_id))
        assert len(res.slices) == 3
        await svc.aclose()

    job_id = asyncio.run(first())
    asyncio.run(second(job_id))


def test_resubmit_falls_back_to_solve_after_eviction(tmp_path):
    async def first():
        svc = JobService(ResultStore(str(tmp_path)))
        t = await svc.submit(_job())
        await _wait_state(svc, t.job_id, "done")
        await svc.aclose()

    async def second():
        store = ResultStore(str(tmp_path))
        # Break the manifest's slice set: evict everything.
        store.max_bytes = 0
        store._evict_over_budget()
        store.max_bytes = None
        svc = JobService(store)
        t = await svc.submit(_job())
        assert not t.from_store
        await _wait_state(svc, t.job_id, "done")
        assert svc.metrics_counters["solves_started"] == 1
        await svc.aclose()

    asyncio.run(first())
    asyncio.run(second())


def test_invalid_job_is_structured_reject(tmp_path):
    async def main():
        svc = JobService(ResultStore(str(tmp_path)))
        with pytest.raises(ServiceRejected) as exc_info:
            await svc.submit({"system": {"name": "no-such-model"}})
        assert exc_info.value.code == "invalid-job"
        assert exc_info.value.status == 400
        await svc.aclose()

    asyncio.run(main())


# ----------------------------------------------------------------------
# backpressure + quotas (gated fake solves)
# ----------------------------------------------------------------------


def test_full_queue_rejects_with_retry_after(tmp_path, monkeypatch):
    gate = _Gate()
    monkeypatch.setattr("repro.service.service.compute_iter", gate)

    async def main():
        svc = JobService(
            ResultStore(str(tmp_path)),
            max_queue=2,
            max_running=1,
            retry_after=2.5,
        )
        t1 = await svc.submit(_job((0.1,)), client="a")
        t2 = await svc.submit(_job((0.2,)), client="b")
        with pytest.raises(ServiceRejected) as exc_info:
            await svc.submit(_job((0.3,)), client="c")
        assert exc_info.value.code == "busy"
        assert exc_info.value.status == 429
        assert exc_info.value.retry_after == 2.5
        assert svc.metrics_counters["rejected_busy"] == 1
        payload = exc_info.value.payload()
        assert payload["error"]["retry_after"] == 2.5
        gate.release.set()
        await _wait_state(svc, t1.job_id, "done")
        await _wait_state(svc, t2.job_id, "done")
        # Queue drained: the same submission is admitted now.
        t3 = await svc.submit(_job((0.3,)), client="c")
        await _wait_state(svc, t3.job_id, "done")
        await svc.aclose()

    asyncio.run(main())


def test_quota_refuses_one_client_while_others_proceed(tmp_path, monkeypatch):
    gate = _Gate()
    monkeypatch.setattr("repro.service.service.compute_iter", gate)

    async def main():
        svc = JobService(
            ResultStore(str(tmp_path)), max_queue=8, client_quota=1
        )
        t1 = await svc.submit(_job((0.1,)), client="greedy")
        with pytest.raises(ServiceRejected) as exc_info:
            await svc.submit(_job((0.2,)), client="greedy")
        assert exc_info.value.code == "quota"
        assert exc_info.value.status == 429
        assert svc.metrics_counters["rejected_quota"] == 1
        # Dedup attach to a job the client already holds is free.
        again = await svc.submit(_job((0.1,)), client="greedy")
        assert again.deduped
        # Another client is not affected by greedy's quota.
        other = await svc.submit(_job((0.2,)), client="patient")
        assert not other.deduped
        gate.release.set()
        await _wait_state(svc, t1.job_id, "done")
        await _wait_state(svc, other.job_id, "done")
        await svc.aclose()

    asyncio.run(main())


# ----------------------------------------------------------------------
# cancellation (gated fake solves)
# ----------------------------------------------------------------------


def test_cancel_stops_unshared_solve_between_slices(tmp_path, monkeypatch):
    gate = _Gate(energies=(0.0, 1.0, 2.0))
    monkeypatch.setattr("repro.service.service.compute_iter", gate)

    async def main():
        svc = JobService(ResultStore(str(tmp_path)))
        t = await svc.submit(_job(), client="solo")
        await _wait_event(gate.started)
        ack = await svc.cancel(t.job_id, client="solo")
        assert ack["stopping"] is True
        st = await _wait_state(svc, t.job_id, "cancelled")
        # Stopped at the poll point: the held slices never arrived.
        assert st["n_slices"] <= 1
        assert svc.metrics_counters["cancelled"] == 1
        with pytest.raises(ServiceRejected) as exc_info:
            await svc.result(t.job_id)
        assert exc_info.value.code == "not-done"
        await svc.aclose()

    asyncio.run(main())


def test_shared_job_survives_one_clients_cancel(tmp_path, monkeypatch):
    gate = _Gate(energies=(0.0, 1.0))
    monkeypatch.setattr("repro.service.service.compute_iter", gate)

    async def main():
        svc = JobService(ResultStore(str(tmp_path)))
        t1 = await svc.submit(_job(), client="a")
        t2 = await svc.submit(_job(), client="b")
        assert t2.deduped and t2.job_id == t1.job_id
        await _wait_event(gate.started)
        ack = await svc.cancel(t1.job_id, client="a")
        assert ack["stopping"] is False  # b still holds it
        gate.release.set()
        await _wait_state(svc, t1.job_id, "done")
        got = [sl async for sl in svc.stream(t1.job_id)]
        assert [s.energy for s in got] == [0.0, 1.0]
        assert svc.metrics_counters["cancelled"] == 0
        await svc.aclose()

    asyncio.run(main())


def test_cancel_while_queued_never_solves(tmp_path, monkeypatch):
    gate = _Gate()
    monkeypatch.setattr("repro.service.service.compute_iter", gate)

    async def main():
        svc = JobService(ResultStore(str(tmp_path)), max_running=1)
        held = await svc.submit(_job((0.1,)), client="a")
        queued = await svc.submit(_job((0.2,)), client="b")
        ack = await svc.cancel(queued.job_id, client="b")
        assert ack["stopping"] is True
        gate.release.set()
        await _wait_state(svc, held.job_id, "done")
        st = await _wait_state(svc, queued.job_id, "cancelled")
        assert st["n_slices"] == 0
        # Only the held job ever reached a solver thread.
        assert svc.metrics_counters["solves_started"] == 1
        await svc.aclose()

    asyncio.run(main())


# ----------------------------------------------------------------------
# HTTP front end
# ----------------------------------------------------------------------


def _request(addr, method, path, body=None, headers=None):
    conn = http.client.HTTPConnection(*addr, timeout=60)
    conn.request(method, path, body=body, headers=headers or {})
    resp = conn.getresponse()
    data = resp.read()
    payload = json.loads(data) if data else None
    headers_out = dict(resp.getheaders())
    conn.close()
    return resp.status, payload, headers_out


def test_http_submit_stream_result_metrics(tmp_path):
    with ServiceServer(str(tmp_path)) as server:
        addr = server.address
        status, hz, _ = _request(addr, "GET", "/v1/healthz")
        assert (status, hz["status"]) == (200, "ok")

        status, ticket, _ = _request(
            addr, "POST", "/v1/jobs", body=json.dumps(_job()),
            headers={"X-CBS-Client": "demo"},
        )
        assert status == 200 and ticket["state"] in ("queued", "running")
        job_id = ticket["job_id"]

        conn = http.client.HTTPConnection(*addr, timeout=60)
        conn.request("GET", f"/v1/jobs/{job_id}/stream",
                     headers={"X-CBS-Client": "demo"})
        resp = conn.getresponse()
        assert resp.status == 200
        energies, end = [], None
        while True:
            line = resp.readline()
            if not line:
                break
            obj = json.loads(line)
            if obj.get("event") == "end":
                end = obj
                break
            assert obj["event"] == "slice"
            energies.append(obj["energy"])
        conn.close()
        assert energies == [-0.5, 0.0, 0.5]
        assert end["state"] == "done" and end["n_slices"] == 3

        status, st, _ = _request(addr, "GET", f"/v1/jobs/{job_id}")
        assert st["state"] == "done" and st["n_slices"] == 3

        status, res, _ = _request(addr, "GET", f"/v1/jobs/{job_id}/result")
        assert status == 200
        result = result_from_wire(res)
        assert [s.energy for s in result.slices] == [-0.5, 0.0, 0.5]
        assert result.provenance["job_hash"] == job_id

        status, metrics, _ = _request(addr, "GET", "/v1/metrics")
        assert metrics["solves_started"] == 1
        assert metrics["store"]["bytes"] > 0


def test_http_reject_paths(tmp_path):
    with ServiceServer(str(tmp_path)) as server:
        addr = server.address
        status, err, _ = _request(addr, "GET", "/v1/jobs/deadbeef")
        assert status == 404 and err["error"]["code"] == "unknown-job"
        status, err, _ = _request(
            addr, "POST", "/v1/jobs", body=json.dumps({"bogus": True})
        )
        assert status == 400 and err["error"]["code"] == "invalid-job"
        status, err, _ = _request(
            addr, "POST", "/v1/jobs", body="not json {"
        )
        assert status == 400 and err["error"]["code"] == "invalid-job"
        status, err, _ = _request(addr, "PUT", "/v1/metrics")
        assert status == 404 and err["error"]["code"] == "unknown-route"
        # Options that no longer exist are rejected, not ignored.
        removed_backend = _job()
        removed_backend["execution"] = {"backend": "numpy-mixed"}
        removed_grid = _job()
        removed_grid["scan"]["linear_solver"] = "bicg-batched-grid"
        for job in (removed_backend, removed_grid):
            status, err, _ = _request(
                addr, "POST", "/v1/jobs", body=json.dumps(job)
            )
            assert status == 400 and err["error"]["code"] == "invalid-job"


def test_http_busy_sets_retry_after_header(tmp_path, monkeypatch):
    gate = _Gate()
    monkeypatch.setattr("repro.service.service.compute_iter", gate)
    with ServiceServer(
        str(tmp_path), max_queue=1, max_running=1, retry_after=3.0
    ) as server:
        addr = server.address
        status, t1, _ = _request(
            addr, "POST", "/v1/jobs", body=json.dumps(_job((0.1,)))
        )
        assert status == 200
        status, err, headers = _request(
            addr, "POST", "/v1/jobs", body=json.dumps(_job((0.2,)))
        )
        assert status == 429
        assert err["error"]["code"] == "busy"
        assert err["error"]["retry_after"] == 3.0
        assert headers["Retry-After"] == "3"
        gate.release.set()


def test_http_delete_cancels(tmp_path, monkeypatch):
    gate = _Gate()
    monkeypatch.setattr("repro.service.service.compute_iter", gate)
    with ServiceServer(str(tmp_path)) as server:
        addr = server.address
        status, ticket, _ = _request(
            addr, "POST", "/v1/jobs", body=json.dumps(_job()),
            headers={"X-CBS-Client": "solo"},
        )
        job_id = ticket["job_id"]
        assert gate.started.wait(timeout=10.0)
        status, ack, _ = _request(
            addr, "DELETE", f"/v1/jobs/{job_id}",
            headers={"X-CBS-Client": "solo"},
        )
        assert status == 200 and ack["stopping"] is True
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            _, st, _ = _request(addr, "GET", f"/v1/jobs/{job_id}")
            if st["state"] == "cancelled":
                break
            time.sleep(0.02)
        assert st["state"] == "cancelled"


# ----------------------------------------------------------------------
# wire protocol round-trips
# ----------------------------------------------------------------------


def test_slice_wire_roundtrip_preserves_inf_decay():
    sl = EnergySlice(
        0.5,
        [
            _mode(0.5),
            CBSMode(0.5, np.exp(0.4j), 0.4 + 0.0j,
                    ModeType.PROPAGATING, np.inf, 3e-10),
        ],
        total_iterations=7,
        solve_seconds=0.25,
        k_par=0.3,
    )
    wire = json.loads(json.dumps(slice_to_wire(sl)))  # strict JSON trip
    back = slice_from_wire(wire)
    assert back.energy == 0.5 and back.k_par == 0.3
    assert back.modes[0].decay_length == pytest.approx(2.86)
    assert math.isinf(back.modes[1].decay_length)
    assert back.modes[1].lam == pytest.approx(np.exp(0.4j))
    assert back.solve_seconds == 0.25


def test_transport_slice_wire_roundtrip():
    rng = np.random.default_rng(3)
    sigma = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    sl = TransportSlice(
        energy=0.25, transmission=1.5, sigma_l=sigma, sigma_r=2 * sigma,
        n_channels=2, total_iterations=4, solve_seconds=0.1,
        k_par=None, k_weight=0.5,
    )
    wire = json.loads(json.dumps(slice_to_wire(sl)))
    back = slice_from_wire(wire)
    assert isinstance(back, TransportSlice)
    np.testing.assert_allclose(back.sigma_l, sigma)
    np.testing.assert_allclose(back.sigma_r, 2 * sigma)
    assert back.k_weight == 0.5 and back.k_par is None


def test_result_wire_rejects_foreign_versions():
    from repro.cbs.scan import CBSResult

    result = CBSResult([_slice(0.5)], 1.0)
    wire = result_to_wire(result)
    back = result_from_wire(json.loads(json.dumps(wire)))
    assert isinstance(back, CBSResult)
    assert back.cell_length == 1.0

    bad = dict(wire, protocol_version=99)
    with pytest.raises(ServiceRejected, match="protocol_version"):
        result_from_wire(bad)
    bad = dict(wire, schema_version=0)
    with pytest.raises(ServiceRejected, match="schema_version"):
        result_from_wire(bad)
    bad = dict(wire, kind="mystery")
    with pytest.raises(ServiceRejected, match="kind"):
        result_from_wire(bad)

    with pytest.raises(ServiceRejected, match="slice kind"):
        slice_from_wire({"kind": "nope"})
