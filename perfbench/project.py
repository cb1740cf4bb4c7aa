"""`project` workload: an in-process closed loop of `distance_general`.

Inputs are seeded (Spectrum, KernelSpectrum) pairs at n = 3, 8 and 32, with
spectra from Dirichlet alpha = 1 (spread out) and alpha = 0.05 (near-pure,
which doubles the projector's work), and kernels from `random_kernel` plus
the degenerate qutrit kernels at zeta = 0 and pi/3. This is the general
projector with its long tail; the qutrit scan path appears only through
`classify_region` at n = 3.
"""

from __future__ import annotations

import math
import os
import resource
import time
from statistics import median

import numpy as np

import ncdist

from common import CPUS, SetupProbe, Tally, run_rounds, scaled, summarize, tail

#: n of consecutive states; n = 32 costs about as much as the other six
PATTERN = (3, 8, 3, 8, 3, 8, 32)
ALPHAS = (1.0, 0.05)
#: kernels drawn per n; many, so how hard one seed's kernels are averages out
KERNELS_PER_N = 128
#: distinct states per run, a multiple of the pattern; fixed so the tail
#: percentile does not depend on how many passes fit in the time budget,
#: and sized so that percentile is p99 with 60 states beyond it; one to
#: three passes fit, as fast as the host runs
STATES = 6006
SECTION_STATES = 420
#: states timed between two timings of the reference loop, about 0.1 s
CHUNK = 70

BRUTE_MAX_N = 5
MATCH_TOL = 1e-8
#: the projector's own guarantee on its result: Dykstra returns once the
#: halfspace residual, which is minus the nearest point's floor, is at most
#: 10 * tol, and distance_general's default tol is 1e-12. The nearest
#: points lie down to -1e-11, below the -1e-12 of `is_classical`; that
#: share is reported as the per-layer metric distance.nearest_unclassical_frac
FLOOR_TOL = 1e-11
SUM_TOL = 1e-12
VERTEX_TOL = 1e-9


def make_cases(seed: int, count: int) -> list[tuple]:
    rng = np.random.default_rng(seed)
    pools = {}
    for n in sorted(set(PATTERN)):
        seeds = rng.integers(0, 2**31, size=KERNELS_PER_N)
        pools[n] = [ncdist.random_kernel(n, int(s)) for s in seeds]
    pools[3][:2] = [ncdist.qutrit_kernel(0.0), ncdist.qutrit_kernel(math.pi / 3.0)]
    cases = []
    for i in range(count):
        n = PATTERN[i % len(PATTERN)]
        alpha = ALPHAS[(i // len(PATTERN)) % len(ALPHAS)]
        x = rng.dirichlet(np.full(n, alpha))
        r = ncdist.Spectrum(tuple(float(v) for v in x / x.sum()))
        cases.append((r, pools[n][int(rng.integers(len(pools[n])))]))
    return cases


class Checker:
    """Correctness gates for one projection result."""

    def __init__(self):
        self._vertices: dict[tuple, np.ndarray] = {}

    def vertices(self, kernel) -> np.ndarray:
        key = kernel.values
        if key not in self._vertices:
            poly = ncdist.positivity_polytope(kernel)
            self._vertices[key] = np.array([v.values for v in poly.vertices])
        return self._vertices[key]

    def problems(self, r, kernel, res) -> list[str]:
        if isinstance(res, Exception):
            return [f"n={r.n}: {type(res).__name__}: {res}"]
        out = []
        x = res.nearest.values
        if any(a < b for a, b in zip(x, x[1:])):
            out.append(f"n={r.n}: nearest not ordered")
        if abs(math.fsum(x) - 1.0) > SUM_TOL:
            out.append(f"n={r.n}: nearest sums to {math.fsum(x)!r}")
        if ncdist.wigner_floor(res.nearest, kernel) < -FLOOR_TOL:
            out.append(f"n={r.n}: nearest floor {ncdist.wigner_floor(res.nearest, kernel)!r}")
        if r.n <= BRUTE_MAX_N:
            oracle = ncdist.bruteforce_project(r, kernel).values
            gap = max(abs(a - b) for a, b in zip(x, oracle))
            if gap > MATCH_TOL:
                out.append(f"n={r.n}: {gap:.2e} from bruteforce_project")
        if r.n == 3:
            closed = ncdist.qutrit_distance(
                ncdist.chart_from_spectrum(r), ncdist.zeta_from_kernel(kernel)
            ).distance_paper
            if abs(closed - res.distance_paper) > MATCH_TOL:
                out.append(f"n=3: distance {res.distance_paper!r} vs closed form {closed!r}")
        xa = np.array(x)
        cert = float(np.max((self.vertices(kernel) - xa) @ (np.array(r.values) - xa)))
        if cert > VERTEX_TOL:
            out.append(f"n={r.n}: vertex certificate {cert:.2e}")
        return out


def call(r, kernel):
    """One operation; a raised error is returned so it counts as failed."""
    try:
        return ncdist.distance.distance_general(r, kernel)
    except Exception as exc:  # noqa: BLE001 - every failure is recorded, none stops the run
        return exc


def run_workload(seed: int, seconds: float, tally: Tally, probe: SetupProbe) -> tuple[dict, dict]:
    """Closed loop of passes over the seeded states.

    Passes take the CPUs in turn. Each chunk of states is timed between two
    readings of the reference loop, and each state's time is scaled by its
    chunk's factor to the nominal host speed; a state's time is the median
    over the passes. Only calls whose result passes every gate are timed.
    """
    cases = make_cases(seed, STATES)
    checker = Checker()
    times: list[list[float]] = [[] for _ in cases]
    first: list = [None] * len(cases)
    found: list[list[str]] = [[] for _ in cases]
    clock = time.perf_counter

    def chunk(p: int, lo: int) -> list[tuple[int, float]]:
        passed = []
        for i in range(lo, min(lo + CHUNK, len(cases))):
            r, kernel = cases[i]
            t0 = clock()
            res = call(r, kernel)
            dt = clock() - t0
            if isinstance(res, Exception):
                problems = checker.problems(r, kernel, res)
            else:
                if p == 0:
                    first[i], found[i] = res, checker.problems(r, kernel, res)
                problems = found[i] if res == first[i] else [f"n={r.n}: result changed between passes"]
            if tally.record(not problems, "; ".join(problems[:3])):
                passed.append((i, dt))
        return passed

    def one_pass(p: int) -> None:
        cpu = CPUS[p % len(CPUS)]
        for lo in range(0, len(cases), CHUNK):
            passed, factor = scaled(lambda: chunk(p, lo), cpu)
            for i, dt in passed:
                times[i].append(dt * factor)
            probe()

    passes = run_rounds(one_pass, seconds, probe=probe)
    os.sched_setaffinity(0, CPUS)
    state_ms = [median(t) * 1e3 for t in times if t]
    states_per_s = len(state_ms) / (sum(state_ms) / 1e3)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return summarize(states_per_s, median(state_ms), state_ms, peak_kb, {
        "passes": passes, "states": len(cases), "calls": sum(len(t) for t in times),
        "states_per_s": states_per_s, "state_p50_us": median(state_ms) * 1e3,
        "state_tail_us": tail(state_ms)["value"] * 1e3})


def section(seed: int) -> list[tuple]:
    """In-process ops for the traced run: one `distance_general` call per
    seeded state, labelled (n, alpha); the call's own span comes from the
    rebound name."""
    checker = Checker()
    ops = []
    for i, (r, kernel) in enumerate(make_cases(seed, SECTION_STATES)):
        def check(res, r=r, kernel=kernel):
            return 1, checker.problems(r, kernel, res)

        alpha = ALPHAS[(i // len(PATTERN)) % len(ALPHAS)]
        ops.append((None, lambda r=r, kernel=kernel: call(r, kernel), check, (r.n, alpha)))
    return ops
