#!/usr/bin/env python3
"""Repo benchmark: Sakurai-Sugiura CBS workloads timed end to end.

Run from the repository root::

    python3 cbsbench/run.py --workload dft-bicg --seed 1 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs half the
time untraced and half with layer wrappers installed, reports the
per-layer metrics, and writes its spans under ``.cbsbench/``.  The last
line of standard output is the JSON result; ``#`` lines before it carry
the host fingerprint and diagnostics.  Every process the run starts (pool
workers, the multiprocessing resource tracker, set-up probes) is stopped
before it exits, also on an oracle failure, a timeout or a signal.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from cbsbench import host  # noqa: E402

host.pin_threads()  # before numpy is imported anywhere

import argparse  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

from cbsbench.inputs import WORKLOADS  # noqa: E402

#: A run that is still going after this many seconds stops itself.
WATCHDOG_S = 170
#: Fresh-process set-up probes per run (the run's own set-up is one more).
SETUP_PROBES = 2
#: Untimed units before the timed loop: lazy imports and first-call
#: allocations settle, and the CPU leaves its idle clock (on a shared
#: 2-vCPU host the first seconds of load run up to 30% slower).
WARMUP_S = 4.0
WORKDIR = os.path.join(ROOT, ".cbsbench")

END_TO_END = [
    ("setup_s", "s"), ("job_p50_s", "s"), ("slices_per_s", "1/s"),
    ("jobs_per_s", "1/s"), ("peak_rss_mb", "MB"),
]


class Interrupted(BaseException):
    """Raised from a signal handler; unwinds through every cleanup."""


def _interrupt(signum, _frame):
    raise Interrupted(signal.Signals(signum).name)


_probes = []


def _reap() -> None:
    """Stop everything this process started, waiting for each to end."""
    for proc in _probes:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if "repro.parallel.pool" in sys.modules:
        sys.modules["repro.parallel.pool"].PersistentPool._close_all()
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    for pid in host.children(os.getpid()):
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def _make_bench(workload: str, seed: int):
    if workload == "service-mix":
        from cbsbench.servicemix import ServiceBench

        return ServiceBench(seed, WORKDIR)
    from cbsbench.library import LibraryBench

    return LibraryBench(workload, seed)


def _setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter (``--setup-probe`` child)."""
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, cwd=ROOT,
    )
    _probes.append(proc)
    out, _ = proc.communicate(timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}")
    return float(json.loads(out.decode().strip().splitlines()[-1])["setup_s"])


def _library_loop(bench, phases, tracer):
    """Run whole units until each phase's time is used (>= 1 unit each)."""
    for phase in phases:
        phase["on_start"]()
        t0 = time.perf_counter()
        while True:
            tracer.set_op(f"unit-{sum(len(p['ops']) for p in phases)}")
            try:
                phase["ops"].append(bench.unit())
            except Exception as exc:
                phase["ops"].append({"error": f"{type(exc).__name__}: {exc}"})
            if time.perf_counter() - t0 >= phase["seconds"]:
                break


def run(args) -> dict:
    import cbsbench.spans as spans

    os.makedirs(WORKDIR, exist_ok=True)
    bench = _make_bench(args.workload, args.seed)
    tracer = spans.Tracer()
    try:
        setups = [bench.setup()]

        def start_timing(phase):
            def on_start():
                phase["t0"] = time.perf_counter()
                print("# timed loop started", flush=True)
            return on_start

        def start_tracing():
            traced["t0"] = time.perf_counter()
            spans.install(tracer)
            if args.workload == "service-mix":
                traced["evictions0"] = bench.metrics()["store"]["evictions"]

        warmup = {"seconds": WARMUP_S, "on_start": lambda: None, "ops": []}
        timed = {"seconds": args.seconds, "ops": []}
        timed["on_start"] = start_timing(timed)
        phases = [warmup, timed]
        if args.trace:
            timed["seconds"] = args.seconds / 2
            traced = {"seconds": args.seconds / 2,
                      "on_start": start_tracing, "ops": []}
            phases.append(traced)
        if args.workload == "service-mix":
            bench.run(phases)
        else:
            _library_loop(bench, phases, tracer)
        end = traced["t0"] if args.trace else time.perf_counter()
        elapsed = end - timed["t0"]
        evictions = 0
        if args.trace and args.workload == "service-mix":
            evictions = (bench.metrics()["store"]["evictions"]
                         - traced["evictions0"])
        tracer.uninstall()
        rss = host.peak_rss_mb()
        if args.workload == "service-mix":
            bench.close()
        for _ in range(SETUP_PROBES):
            setups.append(_setup_probe(args.workload, args.seed))

        ops = [op for phase in phases for op in phase["ops"]]
        failures = [op["error"] for op in ops if "error" in op]
        failures += bench.verify([op for op in ops if "error" not in op])
        for msg in failures[:10]:
            print(f"# FAILED {msg}", flush=True)

        good = [op for op in timed["ops"] if "error" not in op]
        if args.trace:
            traced_ops = [op for op in traced["ops"] if "error" not in op]
            metrics = spans.layer_metrics(tracer, traced_ops, evictions)
            metrics["trace.overhead_frac"] = spans.overhead_frac(
                good, traced_ops)
            tracer.dump(os.path.join(WORKDIR, f"spans-{args.workload}.json"))
            units = dict(spans.PER_LAYER)
        else:
            walls = [op["wall"] for op in good]
            metrics = {
                "setup_s": statistics.median(setups),
                "job_p50_s": statistics.median(walls),
                "slices_per_s": sum(
                    op["slices"] if isinstance(op["slices"], int)
                    else len(op["slices"]) for op in good) / elapsed,
                "jobs_per_s": len(good) / elapsed,
                "peak_rss_mb": rss,
            }
            units = dict(END_TO_END)
        _diagnostics(args.workload, spans, timed["ops"], elapsed, setups)
        return {
            "correct": not failures,
            "attempted": len(ops),
            "failed": len(failures),
            "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                        for name, unit in units.items()},
        }
    finally:
        tracer.uninstall()
        close = getattr(bench, "close", None)
        if close is not None:
            close()


def _diagnostics(workload, spans, ops, elapsed, setups) -> None:
    good = [op for op in ops if "error" not in op]
    firsts = [op["first"] for op in good if op["first"] is not None]
    print(f"# {len(ops)} timed operations in {elapsed:.2f} s; first slice "
          f"p50 {statistics.median(firsts) if firsts else 0:.4f} s; set-up "
          "samples " + ", ".join(f"{s:.3f}" for s in setups), flush=True)
    if workload == "service-mix":
        groups = {}
        for op in good:
            groups.setdefault(spans._op_class(op), []).append(op["wall"])
        print("# service ops " + ", ".join(
            f"{fam}/{how}: {len(w)} x {statistics.median(w):.3f} s"
            for (fam, how), w in sorted(groups.items())), flush=True)
    else:
        print("# unit walls " + ", ".join(
            f"{op['wall']:.3f}" for op in good), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"cbsbench: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    signal.signal(signal.SIGTERM, _interrupt)
    signal.signal(signal.SIGINT, _interrupt)
    signal.signal(signal.SIGALRM, _interrupt)
    signal.alarm(WATCHDOG_S)
    try:
        if args.setup_probe:
            bench = _make_bench(args.workload, args.seed)
            try:
                result = {"setup_s": bench.setup()}
            finally:
                close = getattr(bench, "close", None)
                if close is not None:
                    close()
        else:
            print("# host " + json.dumps(host.fingerprint()), flush=True)
            result = run(args)
    except Interrupted as exc:
        print(f"cbsbench: interrupted ({exc})", file=sys.stderr)
        return 130
    finally:
        signal.alarm(0)
        try:
            _reap()
        except Interrupted:
            _reap()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
