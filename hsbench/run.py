#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the `hsseg` command-line program.

Run from the root of a source checkout:

    python3 hsbench/run.py --workload one-class --seed 1 --seconds 35 --trace 0
    python3 hsbench/run.py --workload all --seed 1 --seconds 35
    python3 hsbench/run.py --workload all --seed 1 --seconds 1 --hashes hashes.json

A run generates the workload's cube from --seed, then runs the workload's
job list in whole rounds, one `hsseg` process at a time (a closed loop with
one client), until the next round would overrun --seconds of measured time.
Every output is checked against the benchmark's own computations (see
checks.py). With --trace 0 it reports the end-to-end metrics; with --trace 1
it alternates untraced and traced rounds and reports the per-layer metrics
(see tracer.py). The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.

This module imports only the standard library before it forks the job
launcher: the kernel carries a parent's peak resident set into every child
it forks, so jobs must be started from a process that stays small for their
peak RSS to be their own.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent


class Launcher:
    """A small forked process that runs each job and reports its exit, wall time and peak RSS."""

    def __init__(self, env: dict[str, str]):
        req_r, req_w = os.pipe()
        rep_r, rep_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(req_w)
            os.close(rep_r)
            code = 0
            try:
                _serve(os.fdopen(req_r, "r"), os.fdopen(rep_w, "w"), env)
            except BaseException:  # the child must never return into the caller's code
                traceback.print_exc()
                code = 1
            os._exit(code)
        os.close(req_r)
        os.close(rep_w)
        self._requests = os.fdopen(req_w, "w")
        self._replies = os.fdopen(rep_r, "r")

    def run(self, argv: list[str], cwd: Path, log: Path, timeout: float) -> tuple[int, float, float]:
        """(exit code, wall seconds, peak RSS in MiB) of one process run to its end."""
        self._requests.write(json.dumps({"argv": argv, "cwd": str(cwd), "log": str(log),
                                         "timeout": timeout}) + "\n")
        self._requests.flush()
        line = self._replies.readline()
        if not line:
            raise RuntimeError("job launcher exited")
        reply = json.loads(line)
        return reply["code"], reply["wall"], reply["rss_mib"]

    def close(self) -> None:
        self._requests.close()
        self._replies.close()
        os.waitpid(self.pid, 0)


def _serve(requests, replies, env) -> None:
    for line in requests:
        req = json.loads(line)
        with open(req["log"], "wb") as out:
            start = perf_counter()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=env,
                                    stdout=out, stderr=subprocess.STDOUT)
            killer = threading.Timer(req["timeout"], proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                killer.cancel()
                if proc.returncode is None:  # interrupted before the child was reaped
                    proc.kill()
                    proc.wait()
        replies.write(json.dumps({"code": proc.returncode, "wall": wall,
                                  "rss_mib": usage.ru_maxrss / 1024.0}) + "\n")
        replies.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="one-class, many-classes, sweep, or all of them")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--hashes", metavar="FILE",
                        help="write the output digest of every job to FILE as JSON")
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "hsseg" / "cli.py").is_file():
        print(f"error: no hsseg sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    launcher = Launcher({**os.environ, "PYTHONPATH": str(src)})
    try:
        sys.path.insert(0, str(BENCH_DIR))
        import harness
        return harness.main(args, launcher, BENCH_DIR)
    finally:
        launcher.close()


if __name__ == "__main__":
    sys.exit(main())
