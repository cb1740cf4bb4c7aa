"""Shared pieces of the benchmark: environment pinning, child processes,
the reference loop that scales times to a fixed host speed, percentiles
and the record of operations attempted and failed."""

from __future__ import annotations

import json
import math
import os
import platform
import random
import re
import select
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

#: thread-count variables of the BLAS and OpenMP runtimes numpy may load;
#: nproc is small, so every process of the benchmark runs single-threaded
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: percentiles a tail may report, lowest first: the upper quartile, then
#: steps of one nine, so the chosen one has from ten to about a hundred
#: samples beyond it and moves little from run to run
TAIL_LADDER = (50.0, 75.0, 90.0, 99.0, 99.9, 99.99)
TAIL_BEYOND = 10

#: seconds between samples of setup_s, and the fewest samples a run takes
SETUP_INTERVAL_S = 1.0
SETUP_MIN = 11

#: CPUs this process may use; repeats of an operation take them in turn,
#: because each CPU of the host slows down on its own
CPUS = sorted(os.sched_getaffinity(0))

#: the reference loop: REF_ROUNDS rounds of pure-Python work on a fixed list
#: of floats (a sort, a comprehension, merges of adjacent violators and a
#: dict) and of integer arithmetic, code like the package's own but sharing
#: none of it; timed as the median of REF_LOOPS runs
REF_DATA = [random.Random(1).random() for _ in range(64)]
REF_ROUNDS = 15
REF_LOOPS = 3
#: the reference loop's time at the speed every reported time is scaled to
#: (about its median on an idle 2-vCPU x86 VM)
REF_NOMINAL_S = 0.00075
#: seconds between timings of the reference loop while a child runs
REF_INTERVAL_S = 0.1

#: a child that runs longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 120.0


def pin_environment() -> None:
    """Pin thread counts for this process and its children.

    Must run before numpy is imported. NC_THREADS is removed so that the
    program's own (unused) knob cannot move any number.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("NC_THREADS", None)
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    os.environ["PYTHONPATH"] = SRC
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def environment_record() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "NC_THREADS": os.environ.get("NC_THREADS"),
    }


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(values: list[float]) -> dict:
    """The highest ladder percentile with at least ten samples beyond it.

    Falls back to the maximum when there are too few samples for any.
    """
    ordered = sorted(values)
    n = len(ordered)
    chosen = None
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100.0 * n) >= TAIL_BEYOND:
            chosen = p
    if chosen is None:
        return {"value": ordered[-1], "percentile": 100.0, "samples": n}
    return {"value": percentile(ordered, chosen), "percentile": chosen, "samples": n}


@dataclass
class Tally:
    """Operations attempted and failed, with the reasons for failures:
    the first few in full, and a count per kind with numbers masked."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    kinds: Counter = field(default_factory=Counter)

    def record(self, ok: bool, reason: str) -> bool:
        """Count one operation; a failed one also keeps its reason."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.kinds[re.sub(r"-?\d[\d.e+-]*", "#", reason)] += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)
        return ok


@dataclass
class ChildResult:
    code: int
    wall_s: float
    maxrss_kb: int
    stdout: bytes
    #: scales wall_s to the nominal host speed
    factor: float


class Spawner:
    """Runs children one at a time through spawner.py, a process that stays
    small, so each child's peak RSS is its own and not this process's.

    Use as a context manager: leaving it ends the spawner and waits for it.
    """

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, os.path.join(ROOT, "perfbench", "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=CHILD_TIMEOUT_S)
        self._proc.stdout.close()

    def run(self, argv: list[str], tag: str, cpu: int) -> ChildResult:
        """Run one child to completion on CPU `cpu` alone; its stdout is
        returned and its stderr left in the work directory for inspection.

        The reference loop is timed on the same CPU before the child, every
        REF_INTERVAL_S while it runs, and after it: the host's speed swings
        within a long child too. The few milliseconds each timing takes
        from the child are the same on every run.
        """
        out_path = os.path.join(OUT, f"child_{tag}.out")
        req = {"argv": argv, "cwd": ROOT, "cpu": cpu, "stdout": out_path,
               "stderr": os.path.join(OUT, f"child_{tag}.err"), "timeout_s": CHILD_TIMEOUT_S}
        refs = [reference_s(cpu)]
        self._proc.stdin.write(json.dumps(req) + "\n")
        self._proc.stdin.flush()
        while not select.select([self._proc.stdout], [], [], REF_INTERVAL_S)[0]:
            refs.append(reference_s(cpu))
        reply = json.loads(self._proc.stdout.readline())
        refs.append(reference_s(cpu))
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        return ChildResult(reply["code"], reply["wall_s"], reply["maxrss_kb"], stdout,
                           speed_factor(refs))


def nc(*args: str) -> list[str]:
    """Command line of the `nc` tool run from the checkout's sources."""
    return [sys.executable, "-m", "ncdist", *args]


def _reference_loop() -> float:
    total = 0.0
    for _ in range(REF_ROUNDS):
        ordered = sorted(REF_DATA, reverse=True)
        shifted = [a - 0.5 * b for a, b in zip(ordered, REF_DATA)]
        merged: list[float] = []
        for v in shifted:
            merged.append(v)
            while len(merged) > 1 and merged[-2] < merged[-1]:
                merged.append((merged.pop() + merged.pop()) / 2.0)
        index = dict(enumerate(shifted))
        total += sum(merged) + max(shifted) + index[3]
        for i in range(400):
            total += i * i
    return total


def reference_s(cpu: int) -> float:
    """Pin this process to `cpu` and time the reference loop there.

    The time is the thread's CPU time, so a loop run beside a child on the
    same CPU does not count the slices the child takes from it.
    """
    os.sched_setaffinity(0, {cpu})
    clock = time.thread_time
    runs = []
    for _ in range(REF_LOOPS):
        t0 = clock()
        _reference_loop()
        runs.append(clock() - t0)
    return statistics.median(runs)


def speed_factor(refs: list[float]) -> float:
    """The factor that scales a time to the nominal host speed, from
    timings of the reference loop taken around and during it."""
    return REF_NOMINAL_S / statistics.median(refs)


def scaled(fn, cpu: int):
    """Run `fn` in this process on `cpu` between two timings of the
    reference loop there; returns fn's result and its speed factor."""
    before = reference_s(cpu)
    result = fn()
    return result, speed_factor([before, reference_s(cpu)])


def run_rounds(round_fn, seconds: float, probe=None) -> int:
    """Run whole rounds while the next one is expected to end in budget.

    A round is started only when the mean round so far fits in what is
    left of `seconds`, so a run never overshoots by a whole slow round.
    Time spent in `probe` (a SetupProbe the rounds call between operations)
    does not count against the budget. Returns the number of rounds run.
    """
    start = time.perf_counter()
    spent = probe.spent_s if probe else 0.0
    rounds = 0
    while True:
        round_fn(rounds)
        rounds += 1
        elapsed = time.perf_counter() - start - ((probe.spent_s - spent) if probe else 0.0)
        if elapsed + elapsed / rounds > seconds:
            return rounds


class SetupProbe:
    """Samples of `setup_s`: wall time of a fresh interpreter importing
    `ncdist.cli`, scaled to the nominal host speed, with bytecode compiled
    by a first, untimed import.

    A workload calls the probe between its operations; it runs one import
    when SETUP_INTERVAL_S has passed since the last, on each CPU in turn,
    so the samples spread over the whole run and see the same machine as
    the workload does.
    """

    ARGV = [sys.executable, "-c", "import ncdist.cli"]

    def __init__(self, spawner: "Spawner", tally: "Tally"):
        self._spawner, self._tally = spawner, tally
        spawner.run(self.ARGV, "setup", CPUS[0])
        self.times: list[float] = []
        self.raw: list[float] = []
        self.spent_s = 0.0
        self._last = time.perf_counter()

    def __call__(self) -> None:
        if time.perf_counter() - self._last >= SETUP_INTERVAL_S:
            self._sample()

    def _sample(self) -> None:
        t0 = time.perf_counter()
        cpu = CPUS[len(self.times) % len(CPUS)]
        child = self._spawner.run(self.ARGV, "setup", cpu)
        if self._tally.record(child.code == 0, f"import ncdist.cli: exit {child.code}"):
            self.times.append(child.wall_s * child.factor)
            self.raw.append(child.wall_s)
        self._last = time.perf_counter()
        self.spent_s += self._last - t0

    def median(self) -> float:
        """Median of the samples, topped up to SETUP_MIN."""
        for _ in range(SETUP_MIN - len(self.times)):
            self._sample()
        return statistics.median(self.times)


def summarize(work_per_s: float, p50_ms: float, tail_ms: list[float], peak_kb: int,
              detail: dict) -> tuple[dict, dict]:
    """The end-to-end metrics every workload reports, and its detail record
    with the tail's percentile and sample count beside it."""
    t = tail(tail_ms)
    metrics = {
        "work_per_s": (work_per_s, "1/s"),
        "op_p50_ms": (p50_ms, "ms"),
        "op_tail_ms": (t["value"], "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    return metrics, dict(detail, op_tail={"percentile": t["percentile"], "samples": t["samples"]})


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
