"""The ``service-mix`` workload: two closed-loop HTTP clients.

Both clients meet at a barrier before every round of the seeded schedule
(:func:`cbsbench.inputs.service_rounds`), submit their round's job, and
follow its NDJSON stream to the end before the next round, so a twin
round exercises in-flight dedup and a repeat round the result store.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import threading
import time
from typing import Dict, List, Optional

from cbsbench import inputs, oracles

CLIENTS = 2
HTTP_TIMEOUT = 60.0


def _key(job: Dict) -> str:
    return json.dumps(job, sort_keys=True)


def _family(job: Dict) -> str:
    if "map" in job:
        return "slab-map"
    return "slab-transport" if "transport" in job else "ladder-cbs"


class ServiceBench:
    """The job service on loopback plus its two clients."""

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.store_root = os.path.join(workdir, f"store-{os.getpid()}")
        self.server = None
        self.address = None
        self._stop = threading.Event()
        self._barrier: Optional[threading.Barrier] = None

    # -- set-up ------------------------------------------------------------

    def setup(self) -> float:
        """Imports, store creation and server start up to a healthy probe."""
        t0 = time.perf_counter()
        from repro.service import ServiceServer

        shutil.rmtree(self.store_root, ignore_errors=True)
        self.server = ServiceServer(
            self.store_root,
            max_store_bytes=inputs.STORE_BUDGET,
            max_queue=8,
            max_running=2,
            client_quota=4,
            solver_threads=2,
        ).start()
        self.address = self.server.address
        status, _ = self._request("GET", "/v1/healthz")
        if status != 200:
            raise RuntimeError(f"service health probe answered {status}")
        return time.perf_counter() - t0

    def close(self) -> None:
        self._stop.set()
        if self._barrier is not None:
            self._barrier.abort()
        if self.server is not None:
            self.server.stop()
            self.server = None
        shutil.rmtree(self.store_root, ignore_errors=True)

    # -- HTTP --------------------------------------------------------------

    def _request(self, method: str, path: str, body=None, client="bench"):
        conn = http.client.HTTPConnection(*self.address, timeout=HTTP_TIMEOUT)
        try:
            conn.request(method, path, body=body,
                         headers={"X-CBS-Client": client})
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    def metrics(self) -> Dict:
        return self._request("GET", "/v1/metrics")[1]

    def _operation(self, job: Dict, client: str) -> Dict:
        """POST one job and follow its stream to the last slice."""
        op = {"client": client, "family": _family(job), "key": _key(job),
              "slices": [], "first": None, "state": None,
              "deduped": False, "from_store": False, "rejected": False}
        start = time.perf_counter()
        status, ticket = self._request("POST", "/v1/jobs", json.dumps(job),
                                       client)
        op["submit_s"] = time.perf_counter() - start
        if status != 200:
            op["rejected"] = True
            op["state"] = f"http {status}: {ticket.get('code')}"
        else:
            op["deduped"] = bool(ticket["deduped"])
            op["from_store"] = bool(ticket["from_store"])
            conn = http.client.HTTPConnection(*self.address,
                                              timeout=HTTP_TIMEOUT)
            try:
                conn.request("GET", f"/v1/jobs/{ticket['job_id']}/stream",
                             headers={"X-CBS-Client": client})
                resp = conn.getresponse()
                while True:
                    line = resp.readline()
                    if not line:
                        break
                    event = json.loads(line)
                    if event.get("event") == "end":
                        op["state"] = event["state"]
                        break
                    if op["first"] is None:
                        op["first"] = time.perf_counter() - start
                    op["slices"].append(event)
            finally:
                conn.close()
        op["start"], op["end"] = start, time.perf_counter()
        op["wall"] = op["end"] - start
        op["service"] = {
            "submit_s": op["submit_s"],
            "solves": int(not (op["deduped"] or op["from_store"]
                               or op["rejected"])),
            "deduped": int(op["deduped"]),
            "rejected": int(op["rejected"]),
            "cold": not (op["deduped"] or op["from_store"] or op["rejected"]),
            "from_store": op["from_store"],
        }
        return op

    # -- the closed loop ---------------------------------------------------

    def run(self, phases: List[Dict]) -> None:
        """Drive both clients through consecutive timed phases.

        Each phase dict has ``seconds`` (its length; it ends at the first
        round boundary after that), an ``on_start`` hook run while both
        clients wait at the barrier, and receives its operations in
        ``ops``.
        """
        rounds = inputs.service_rounds(self.seed)
        state = {"phase": -1, "round": None, "error": None, "t0": 0.0}

        def next_round() -> None:
            elapsed = time.perf_counter() - state["t0"]
            phase = state["phase"]
            if phase < 0 or (elapsed >= phases[phase]["seconds"]
                             and phases[phase]["ops"]):
                phase += 1
                if phase == len(phases) or state["error"]:
                    self._stop.set()
                    return
                state["phase"] = phase
                phases[phase]["on_start"]()
                state["t0"] = time.perf_counter()
            state["round"] = next(rounds)

        self._barrier = threading.Barrier(CLIENTS, action=next_round)

        def client(index: int) -> None:
            name = f"client-{index}"
            try:
                while True:
                    self._barrier.wait(timeout=HTTP_TIMEOUT)
                    if self._stop.is_set():
                        return
                    kind, jobs = state["round"]
                    op = self._operation(jobs[index], name)
                    op["kind"] = kind
                    phases[state["phase"]]["ops"].append(op)
            except threading.BrokenBarrierError:
                return
            except Exception as exc:  # recorded; the loop stops
                state["error"] = f"{name}: {type(exc).__name__}: {exc}"
                self._stop.set()
                self._barrier.abort()

        threads = [threading.Thread(target=client, args=(i,), daemon=True)
                   for i in range(CLIENTS)]
        for th in threads:
            th.start()
        for th in threads:
            while th.is_alive():
                th.join(timeout=0.2)
        if state["error"]:
            raise RuntimeError(state["error"])

    # -- oracles -----------------------------------------------------------

    def verify(self, ops: List[Dict]) -> List[str]:
        """Served streams against a direct ``compute`` of each job dict,
        and interpolated map pixels against the exact slab bands."""
        from repro.api import compute
        from repro.service.protocol import slice_to_wire

        def canonical(slices):
            rows = []
            for sl in slices:
                row = {k: v for k, v in sl.items()
                       if k not in ("seq", "event", "solve_seconds")}
                rows.append(row)
            return sorted(rows, key=lambda r: (
                json.dumps(r.get("k_par")), r["energy"]))

        direct: Dict[str, list] = {}
        failures = []
        for i, op in enumerate(ops):
            errors = []
            if op["state"] != "done":
                errors.append(f"job ended {op['state']}")
            else:
                if op["key"] not in direct:
                    result = compute(json.loads(op["key"]))
                    direct[op["key"]] = canonical(
                        slice_to_wire(sl) for sl in result.slices)
                if not oracles.same_bits(canonical(op["slices"]),
                                         direct[op["key"]]):
                    errors.append("served slices differ from direct compute")
                if op["family"] == "slab-map":
                    for px in op["slices"]:
                        errors += oracles.check_map_pixel(
                            px, 2, inputs.MAP_TOLERANCE)
            if errors:
                failures.append(f"op {i} ({op['family']}): "
                                + "; ".join(errors[:3]))
        return failures
