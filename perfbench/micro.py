"""Layer microbenchmarks with a fixed seed, run untraced.

Each times one public function of a module on fixed inputs, after a
warm-up that is not counted, and reports the median over batches.
"""

from __future__ import annotations

import math
import time
from statistics import median

import numpy as np

import ncdist

from common import tail

SEED = 20231017
BATCHES = 7
WARMUP = 10


def per_call(fn, args: list[tuple], batches: int = BATCHES) -> float:
    """Median over batches of the mean seconds per call."""
    for a in args[:WARMUP]:
        fn(*a)
    clock = time.perf_counter
    means = []
    for _ in range(batches):
        t0 = clock()
        for a in args:
            fn(*a)
        means.append((clock() - t0) / len(args))
    return median(means)


def latencies_us(fn, args: list[tuple]) -> list[float]:
    """One timed call per input, after a warm-up, in microseconds."""
    for a in args[:WARMUP]:
        fn(*a)
    clock = time.perf_counter
    out = []
    for a in args:
        t0 = clock()
        fn(*a)
        out.append((clock() - t0) * 1e6)
    return out


def _spectrum(rng, n: int, alpha: float = 1.0):
    x = rng.dirichlet(np.full(n, alpha))
    return ncdist.Spectrum(tuple(float(v) for v in x / x.sum()))


def _chart(rng):
    """Uniform point of the chamber triangle."""
    root = math.sqrt(rng.random())
    return ncdist.QutritChart(math.sqrt(3.0) / 2.0 * root * rng.random(), 0.5 * root)


def run() -> dict:
    rng = np.random.default_rng(SEED)
    zetas = [float(z) for z in rng.uniform(0.0, math.pi / 3.0, 500)]
    k3 = [ncdist.qutrit_kernel(z) for z in zetas]
    s3 = [_spectrum(rng, 3) for _ in zetas]
    charts = [_chart(rng) for _ in zetas]
    mats = []
    for r in s3[:300]:
        u = ncdist.haar_unitary(3, rng)
        mats.append(((u * r.as_array()) @ u.conj().T,))
    seeds = [int(s) for s in rng.integers(0, 2**31, 300)]
    k8 = [ncdist.random_kernel(8, s) for s in seeds[:50]]
    v32 = [tuple(float(v) for v in rng.normal(size=32) / 8.0) for _ in range(300)]
    a32 = ncdist.random_kernel(32, seeds[0]).values[::-1]

    out = {
        "core.Spectrum.us": (per_call(ncdist.Spectrum, [(tuple(rng.permutation(r.values)),) for r in s3]) * 1e6, "us"),
        "kernel.KernelSpectrum.us": (per_call(ncdist.KernelSpectrum, [(k.values[::-1],) for k in k3]) * 1e6, "us"),
        "kernel.qutrit_kernel.us": (per_call(ncdist.qutrit_kernel, [(z,) for z in zetas]) * 1e6, "us"),
        "kernel.random_kernel.us": (per_call(ncdist.random_kernel, [(8, s) for s in seeds]) * 1e6, "us"),
        "core.spectrum_from_matrix.us": (per_call(ncdist.spectrum_from_matrix, mats) * 1e6, "us"),
        "wigner.wigner_floor.us": (per_call(ncdist.wigner_floor, list(zip(s3, k3))) * 1e6, "us"),
        "geometry.classify_region.us": (per_call(ncdist.classify_region, list(zip(charts, zetas))) * 1e6, "us"),
        "distance.qutrit_distance.us": (per_call(ncdist.qutrit_distance, list(zip(charts, zetas))) * 1e6, "us"),
        "geometry.positivity_polytope.ms": (per_call(ncdist.positivity_polytope, [(k,) for k in k8]) * 1e3, "ms"),
        "distance.project_simplex.us": (per_call(ncdist.project_simplex, [(v,) for v in v32]) * 1e6, "us"),
        "distance.project_monotone_nonincreasing.us": (
            per_call(ncdist.project_monotone_nonincreasing, [(v,) for v in v32]) * 1e6, "us"),
        "distance.project_halfspace.us": (per_call(ncdist.project_halfspace, [(v, a32) for v in v32]) * 1e6, "us"),
    }

    for n, count in ((3, 1000), (8, 1000), (32, 200)):
        pairs = [(_spectrum(rng, n, (1.0, 0.05)[i % 2]), ncdist.random_kernel(n, seeds[i % len(seeds)]))
                 for i in range(count)]
        lat = latencies_us(ncdist.distance_general, pairs)
        out[f"distance.distance_general.n{n}.p50_us"] = (median(lat), "us")
        out[f"distance.distance_general.n{n}.tail_us"] = (tail(lat)["value"], "us")

    brute = [(_spectrum(rng, 5), ncdist.random_kernel(5, s)) for s in seeds[:20]]
    out["distance.bruteforce_project.n5.ms"] = (per_call(ncdist.bruteforce_project, brute, 3) * 1e3, "ms")

    rho = np.diag(np.array(s3[0].values, dtype=complex))
    samples = 20_000
    t = per_call(ncdist.sampled_min, [(rho, k3[0], samples, SEED)], 5)
    out["wigner.sampled_min.haar_samples_per_s"] = (samples / t, "1/s")
    return out
