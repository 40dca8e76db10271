"""Run one child process of the program and measure it from outside."""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass

import speed
from workloads import OUT_DIR


GAUGE_EVERY_S = 0.25  # how long the timed process runs between two reference passes


@dataclass
class Proc:
    wall_s: float       # spawn to exit, less the stops, at the reference speed (speed.py)
    cpu_s: float        # user + system time of the child and the children it waited for, scaled alike
    raw_wall_s: float   # spawn to exit, less the stops, as measured
    maxrss_mb: float    # the child's own peak RSS
    code: int
    log: str            # path of its captured stdout and stderr


def child_env() -> dict:
    """The environment of the calling one, with src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    return env


def _signal_group(pid: int, sig: int) -> None:
    try:
        os.killpg(pid, sig)
    except ProcessLookupError:  # the group has ended
        pass


def spawn(args: list[str], log_name: str) -> Proc:
    """Run ``python3 <args>`` to completion in its own process group and time it.

    Every GAUGE_EVERY_S seconds the group is stopped, one reference pass
    is timed (speed.gauge) and the group goes on. Each stretch the child
    ran is scaled by speed.NOMINAL_S over the mean of the passes before
    and after it, so a machine that runs slower for a while slows the
    program and the reference alike and the ratio stays.
    """
    log = os.path.join(OUT_DIR, log_name)
    gauges, stretches = [speed.gauge()], []
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=fh, stderr=subprocess.STDOUT, env=child_env(),
            start_new_session=True,
        )
        pidfd = os.pidfd_open(proc.pid)
        try:
            poller = select.poll()
            poller.register(pidfd, select.POLLIN)
            while True:
                if poller.poll(GAUGE_EVERY_S * 1e3):
                    _, status, usage = os.wait4(proc.pid, 0)
                else:
                    _signal_group(proc.pid, signal.SIGSTOP)
                    _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                stretches.append(time.perf_counter() - t0)
                gauges.append(speed.gauge())
                if not os.WIFSTOPPED(status):
                    break
                t0 = time.perf_counter()
                os.killpg(proc.pid, signal.SIGCONT)
        except BaseException:  # interrupted: leave no child running
            _signal_group(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            _signal_group(proc.pid, signal.SIGKILL)  # anything the child left behind
            os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    raw = sum(stretches)
    wall = sum(s * speed.NOMINAL_S * 2 / (a + b) for s, a, b in zip(stretches, gauges, gauges[1:]))
    cpu = (usage.ru_utime + usage.ru_stime) * wall / raw
    return Proc(wall, cpu, raw, usage.ru_maxrss / 1024.0, proc.returncode, log)


def write_json(doc, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def run_config(cfg: dict, name: str, traced_out: str | None = None) -> tuple[Proc, dict | None]:
    """One ``cauchybench run`` on ``cfg``; returns the measurement and the results document.

    With ``traced_out`` the run goes through benchmarks/traced.py, which
    writes its trace there.
    """
    cfg_path = os.path.join(OUT_DIR, f"{name}.config.json")
    out = os.path.join(OUT_DIR, f"{name}.results.json")
    write_json(cfg, cfg_path)
    if os.path.exists(out):
        os.remove(out)
    run = ["run", "--config", cfg_path, "--out", out]
    if traced_out:
        args = [os.path.join("benchmarks", "traced.py"), traced_out, *run]
    else:
        args = ["-m", "cauchybench", *run]
    proc = spawn(args, f"{name}.log")
    doc = read_json(out) if proc.code == 0 and os.path.exists(out) else None
    return proc, doc
