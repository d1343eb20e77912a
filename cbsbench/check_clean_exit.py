#!/usr/bin/env python3
"""Clean-exit check: no benchmark invocation may leave a process behind.

Each scenario starts ``cbsbench/run.py`` as the leader of a new session
from a child subreaper, waits for it to end, and then looks for any
process it left behind (pool workers, the multiprocessing resource
tracker, set-up probes, anything they forked): one still running in the
session, or one orphaned by the exit, which is reparented here.  Scenarios, per workload:

* ``ok``        a short run that must exit 0 and print a result;
* ``oracle``    a short run whose oracles are forced to fail: exit 0,
                ``"correct": false``;
* ``sigint`` / ``sigterm``  a run interrupted inside its timed loop: a
                non-zero exit and no result line.

It also checks that a directory holding only ``BENCHMARK.json`` and the
benchmark's own files makes the benchmark fail without a result.

Run from the repository root::

    python3 cbsbench/check_clean_exit.py

It exits non-zero when any scenario fails.
"""

from __future__ import annotations

import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from cbsbench.inputs import WORKLOADS  # noqa: E402
from cbsbench.oracles import BREAK_ENV  # noqa: E402

RUN = [sys.executable, os.path.join(HERE, "run.py")]
SCENARIOS = ("ok", "oracle", "sigint", "sigterm")


def _live(sid: int):
    """PIDs of live processes in session ``sid`` or reparented to us."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z" and (int(fields[3]) == sid
                                 or int(fields[1]) == os.getpid()):
            members.append(int(entry))
    return members


def _reap_orphans():
    """PIDs of orphans that were reparented to us and have exited."""
    reaped = []
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return reaped
        if pid == 0:
            return reaped
        reaped.append(pid)


def _leftovers(sid: int):
    """Processes the benchmark started but did not wait for.

    This script is a child subreaper, so a process orphaned by the
    benchmark's exit is reparented here: still alive, it shows up as our
    child (or by its session id); already gone, it is a zombie we reap.
    Either way the benchmark exited before it ended.
    """
    alive = _live(sid)
    for pid in alive:  # do not leave them running after reporting
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    time.sleep(0.2)
    return sorted(set(alive) | set(_reap_orphans()))


def scenario(workload: str, kind: str):
    """Run one scenario; returns a list of problems (empty when clean)."""
    env = dict(os.environ)
    if kind == "oracle":
        env[BREAK_ENV] = "1"
    proc = subprocess.Popen(
        RUN + ["--workload", workload, "--seed", "1", "--seconds", "2",
               "--trace", "0"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    sid = proc.pid
    problems = []
    if kind in ("sigint", "sigterm"):
        line = proc.stdout.readline()
        while line and "timed loop started" not in line:
            line = proc.stdout.readline()
        time.sleep(0.5)
        proc.send_signal(signal.SIGINT if kind == "sigint" else signal.SIGTERM)
    try:
        out, err = proc.communicate(timeout=180)
    except subprocess.TimeoutExpired:
        os.killpg(sid, signal.SIGKILL)
        out, err = proc.communicate()
        problems.append("did not exit within 180 s")
    last = out.strip().splitlines()[-1] if out.strip() else ""
    result = None
    if last.startswith("{"):
        result = json.loads(last)
    if kind in ("ok", "oracle"):
        if proc.returncode != 0 or result is None:
            problems.append(f"exit {proc.returncode}, stderr: {err[-300:]}")
        elif result["correct"] != (kind == "ok"):
            problems.append(f"correct = {result['correct']}")
    elif proc.returncode == 0 or result is not None:
        problems.append(f"exit {proc.returncode} after a signal, result "
                        f"{'printed' if result else 'absent'}")
    left = _leftovers(sid)
    if left:
        problems.append(f"left running: {left}")
    return problems


def bare_checkout() -> list:
    """A directory with only BENCHMARK.json and cbsbench/ must fail."""
    problems = []
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".cbsbench")) as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "cbsbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "cbsbench/run.py", "--workload", "lead-serial",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
        )
        if proc.returncode == 0 or proc.stdout.strip().startswith("{"):
            problems.append(f"bare checkout exited {proc.returncode}")
    return problems


def main() -> int:
    os.makedirs(os.path.join(ROOT, ".cbsbench"), exist_ok=True)
    PR_SET_CHILD_SUBREAPER = 36
    if ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1,
                                               0, 0, 0) != 0:
        print("cannot become a child subreaper", file=sys.stderr)
        return 2
    failed = 0
    for workload in WORKLOADS:
        for kind in SCENARIOS:
            t0 = time.monotonic()
            problems = scenario(workload, kind)
            status = "PASS" if not problems else "FAIL " + "; ".join(problems)
            failed += bool(problems)
            print(f"{workload:12s} {kind:8s} {time.monotonic() - t0:5.1f} s  "
                  f"{status}", flush=True)
    problems = bare_checkout()
    failed += bool(problems)
    print(f"{'bare':12s} {'checkout':8s}          "
          f"{'PASS' if not problems else 'FAIL ' + '; '.join(problems)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
