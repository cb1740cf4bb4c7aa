"""`scan` workload: `nc scan` children at resolutions 200 and 1000.

Exercises the qutrit closed form once per chamber grid point plus CSV
formatting and output; never the projector or Haar sampling. The three
resolution-200 scans at the golden angles must be byte-identical to
tests/golden; the resolution-1000 scan at a seeded angle is checked for
its row count and, on a seeded subsample of rows, against the general
projector.
"""

from __future__ import annotations

import math
import os
import random
import time
from statistics import median

import numpy as np

import ncdist
from ncdist.core import CHAMBER_TOL, SQRT3

from common import CPUS, OUT, ROOT, SetupProbe, Spawner, Tally, nc, run_rounds, summarize

GOLDEN = (
    ("0", "scan_zeta_0.csv"),
    ("0.5235987755982988", "scan_zeta_pi_over_6.csv"),
    ("1.0471975511965976", "scan_zeta_pi_over_3.csv"),
)
GOLDEN_RES = 200
#: least time given to golden scans, so each is timed several times
GOLDEN_MIN_S = 10.0
LARGE_RES = 1000
SUBSAMPLE = 200
DIST_TOL = 1e-8
HEADER = "xi3,xi8,region,distance"


def seeded_zeta(seed: int) -> str:
    return repr(random.Random(seed).uniform(0.0, math.pi / 3.0))


def grid_points(res: int) -> tuple[np.ndarray, np.ndarray]:
    """Chamber grid points in CSV row order, computed as the CLI does."""
    idx = np.arange(res, dtype=float)
    xi3 = (SQRT3 / 2.0) * idx / (res - 1)
    xi8 = 0.5 * idx / (res - 1)
    x3, x8 = np.meshgrid(xi3, xi8)
    mask = (x3 >= -CHAMBER_TOL) & (x8 >= x3 / SQRT3 - CHAMBER_TOL) & (x8 <= 0.5 + CHAMBER_TOL)
    return x3[mask], x8[mask]


def check_scan(data: bytes, res: int, zeta: str, seed: int) -> tuple[int, list[str]]:
    """Check a scan CSV by row count and a seeded subsample of rows.

    Returns the number of data rows and the problems found.
    """
    lines = data.decode("ascii", errors="replace").split("\n")
    x3, x8 = grid_points(res)
    rows = len(lines) - 2
    if lines[0] != HEADER or lines[-1] != "" or rows != len(x3):
        return max(rows, 0), [f"scan res={res} zeta={zeta}: {rows} rows, expected {len(x3)}"]
    kernel = ncdist.qutrit_kernel(float(zeta))
    problems = []
    for k in random.Random(seed).sample(range(rows), min(SUBSAMPLE, rows)):
        fields = lines[k + 1].split(",")
        expect = ncdist.distance_general(
            ncdist.spectrum_from_chart(ncdist.QutritChart(x3[k], x8[k])), kernel
        ).distance_paper
        ok = (
            len(fields) == 4
            and abs(float(fields[0]) - x3[k]) <= 1e-12
            and abs(float(fields[1]) - x8[k]) <= 1e-12
            and abs(float(fields[3]) - expect) <= DIST_TOL
        )
        if not ok:
            problems.append(f"scan res={res} zeta={zeta} row {k}: {lines[k + 1]} vs {expect!r}")
    return rows, problems


def golden_bytes(name: str) -> bytes:
    with open(os.path.join(ROOT, "tests", "golden", name), "rb") as fh:
        return fh.read()


def run_workload(seed: int, seconds: float, tally: Tally, spawner: Spawner,
                 probe: SetupProbe) -> tuple[dict, dict]:
    """A resolution-1000 scan at each end of the run and rounds of the three
    golden scans between them, all children run one after another.

    Runs take the CPUs in turn, and each child's time is scaled to the
    nominal host speed (Spawner.run). `op_p50_ms` is the median over every
    run of the three golden scans and `op_tail_ms` the median of the large
    scan's runs. `work_per_s` counts the points of the large scan and of
    the three golden scans over those two medians. Only children whose
    output passes its checks are timed.
    """
    zeta = seeded_zeta(seed)
    golden = [(z, GOLDEN_RES, golden_bytes(name)) for z, name in GOLDEN]
    small_ms: list[list[float]] = [[] for _ in golden]
    large_ms: list[float] = []
    rows_of: dict[int, int] = {}
    peak_kb = 0

    def run(z: str, res: int, expect: bytes | None, sink: list, k: int) -> None:
        nonlocal peak_kb
        path = os.path.join(OUT, f"scan_{res}.csv")
        argv = nc("scan", "--zeta", z, "--resolution", str(res), "--output", path)
        child = spawner.run(argv, "scan", CPUS[k % len(CPUS)])
        if child.code != 0:
            problems = [f"scan res={res} zeta={z}: exit {child.code}"]
        else:
            with open(path, "rb") as fh:
                data = fh.read()
            if expect is None:
                rows, problems = check_scan(data, res, z, seed)
            else:
                rows = data.count(b"\n") - 1
                problems = [] if data == expect else [f"scan res={res} zeta={z}: output differs"]
        if tally.record(not problems, "; ".join(problems[:3])):
            sink.append(child.wall_s * 1e3 * child.factor)
            rows_of[res] = rows
            peak_kb = max(peak_kb, child.maxrss_kb)
        probe()

    def one_round(r: int) -> None:
        for (z, res, expect), sink in zip(golden, small_ms):
            run(z, res, expect, sink, r)

    start, spent = time.perf_counter(), probe.spent_s
    run(zeta, LARGE_RES, None, large_ms, 0)
    # the golden rounds leave room for the second large scan, but get at
    # least GOLDEN_MIN_S however slow the host is
    left = seconds - 2 * (time.perf_counter() - start - (probe.spent_s - spent))
    rounds = run_rounds(one_round, max(left, GOLDEN_MIN_S), probe=probe)
    run(zeta, LARGE_RES, None, large_ms, 1)
    golden = median(t for runs in small_ms for t in runs)
    large = median(large_ms)
    points = rows_of[LARGE_RES] + rows_of[GOLDEN_RES] * len(GOLDEN)
    work_per_s = points / ((large + golden * len(GOLDEN)) / 1e3)
    return summarize(work_per_s, golden, [large], peak_kb, {
        "rounds": rounds, "points": points, "large_zeta": zeta, "golden_ms": small_ms, "large_ms": large_ms,
        "scan_points_per_s": work_per_s, "scan_peak_rss_mb": peak_kb / 1024.0})


def section(seed: int) -> list[tuple]:
    """In-process op for the traced run: one resolution-200 scan through
    `ncdist.cli.main` at the seeded angle, returning (rows, problems)."""
    import ncdist.cli

    zeta = seeded_zeta(seed)
    path = os.path.join(OUT, "scan_traced.csv")
    argv = ["scan", "--zeta", zeta, "--resolution", str(GOLDEN_RES), "--output", path]

    def check(code: int) -> tuple[int, list[str]]:
        if code != 0:
            return 0, [f"in-process scan exit {code}"]
        with open(path, "rb") as fh:
            return check_scan(fh.read(), GOLDEN_RES, zeta, seed)

    return [("cli.scan", lambda: ncdist.cli.main(argv), check, "scan")]
