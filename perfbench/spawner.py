"""Child launcher that stays small.

Linux carries the peak RSS of the memory a child starts from (its parent's)
across exec into the child's own peak, so a child of the benchmark process,
which grows large, would report at least the benchmark's peak. This
process keeps its memory small, starts each child for the benchmark and
reaps it with wait4, so the peak RSS it reports is the child's own.

Protocol: one JSON request per stdin line, {"argv", "cwd", "cpu",
"stdout", "stderr", "timeout_s"} with output file paths, and "cpu" the one
CPU the child runs on or null for all; one JSON reply per stdout line,
{"code", "wall_s", "maxrss_kb"}. Wall time covers start to reap. A child
still running after `timeout_s` seconds is killed. Ends at end of input.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    cpus = os.sched_getaffinity(0)
    for line in sys.stdin:
        req = json.loads(line)
        # the child inherits this process's CPUs
        os.sched_setaffinity(0, cpus if req["cpu"] is None else {req["cpu"]})
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, cwd=req["cwd"])
            watchdog = threading.Timer(req["timeout_s"], proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"code": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
