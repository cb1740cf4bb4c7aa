"""`cli` workload: short `nc` children run one after another.

`indicator` (spectrum and matrix payloads at n = 3, `--pi` at n = 8),
`kernel` and `polytope` are dominated by interpreter start and
`import ncdist`; `sample-min --samples 100000` at n = 3 and 8 by batched
Haar QR. The distance layer runs cold, once per process. Every child must
exit 0 and print the JSON the library gives in-process; for `sample-min`
only the analytic floor and `w_sampled >= w_analytic - 1e-12` are checked,
because its `gap` is zero by construction.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from statistics import median

import numpy as np

import ncdist

from common import CPUS, OUT, SetupProbe, Spawner, Tally, nc, run_rounds, summarize, tail

SAMPLES = 100_000
SAMPLE_TOL = 1e-12


def make_inputs(seed: int) -> tuple[list, list]:
    """Seeded state files and the (command, argv) lists run against them."""
    rnd = random.Random(seed)
    rng = np.random.default_rng(seed)
    zeta = repr(rnd.uniform(0.0, math.pi / 3.0))
    kseed = str(rnd.randrange(2**31))
    sseed = str(rnd.randrange(2**31))
    pi8 = ",".join(repr(v) for v in ncdist.random_kernel(8, int(kseed)).values)

    r3 = rng.dirichlet(np.ones(3))
    r8 = rng.dirichlet(np.ones(8))
    u = ncdist.haar_unitary(3, rng)
    m3 = (u * rng.dirichlet(np.ones(3))) @ u.conj().T
    payloads = {
        "s3": {"n": 3, "spectrum": [float(v) for v in r3 / r3.sum()]},
        "m3": {"n": 3, "matrix_re": m3.real.tolist(), "matrix_im": m3.imag.tolist()},
        "s8": {"n": 8, "spectrum": [float(v) for v in r8 / r8.sum()]},
    }
    paths = {}
    for name, data in payloads.items():
        paths[name] = os.path.join(OUT, f"state_{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(data, fh)

    short = [
        ["indicator", "--state", paths["s3"], "--zeta", zeta],
        ["indicator", "--state", paths["m3"], "--zeta", zeta],
        ["indicator", "--state", paths["s8"], "--pi", pi8],
        ["kernel", "--n", "3", "--zeta", zeta],
        ["kernel", "--n", "8", "--seed", kseed],
        ["polytope", "--n", "3", "--zeta", zeta],
        ["polytope", "--n", "8", "--seed", kseed],
    ]
    sample = [
        ["sample-min", "--state", paths["s3"], "--zeta", zeta, "--samples", str(SAMPLES), "--seed", sseed],
        ["sample-min", "--state", paths["s8"], "--pi", pi8, "--samples", str(SAMPLES), "--seed", sseed],
    ]
    return short, sample


def _option(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def _state(path: str):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if "spectrum" in data:
        return ncdist.Spectrum(tuple(data["spectrum"]))
    m = np.array(data["matrix_re"]) + 1j * np.array(data["matrix_im"])
    return ncdist.spectrum_from_matrix(m)


def _kernel(argv: list[str], n: int):
    if _option(argv, "--zeta") is not None:
        return ncdist.qutrit_kernel(float(_option(argv, "--zeta")))
    if _option(argv, "--pi") is not None:
        return ncdist.kernel_from_spectrum([float(v) for v in _option(argv, "--pi").split(",")], n)
    return ncdist.random_kernel(n, int(_option(argv, "--seed")))


def expected(argv: list[str]) -> dict:
    """The library's answer for a short command, as the CLI would print it."""
    if argv[0] == "indicator":
        spectrum = _state(_option(argv, "--state"))
        res = ncdist.distance_general(spectrum, _kernel(argv, spectrum.n))
        out = {
            "w": res.floor,
            "classical": res.classical,
            "distance_paper": res.distance_paper,
            "distance_frobenius": res.distance_frobenius,
            "region": res.region.value if res.region is not None else None,
            "nearest_spectrum": list(res.nearest.values),
        }
    elif argv[0] == "kernel":
        k = _kernel(argv, int(_option(argv, "--n")))
        res_trace, res_square = k.residuals()
        out = {"pi": list(k.values), "residual_trace": res_trace, "residual_square": res_square}
    else:
        out = ncdist.positivity_polytope(_kernel(argv, int(_option(argv, "--n")))).to_json_dict()
    return json.loads(json.dumps(out))


def problems(argv: list[str], code: int, stdout: str, want: dict | None) -> list[str]:
    """Problems with one command's exit code and output."""
    if code != 0:
        return [f"{argv[0]}: exit {code}"]
    try:
        got = json.loads(stdout)
    except ValueError:
        return [f"{argv[0]}: output is not JSON"]
    if argv[0] != "sample-min":
        return [] if got == want else [f"{argv[0]}: {got} != {want}"]
    spectrum = _state(_option(argv, "--state"))
    floor = ncdist.wigner_floor(spectrum, _kernel(argv, spectrum.n))
    if got.get("w_analytic") != floor:
        return [f"sample-min: w_analytic {got.get('w_analytic')!r} != {floor!r}"]
    if not got.get("w_sampled", -math.inf) >= floor - SAMPLE_TOL:
        return [f"sample-min: w_sampled {got.get('w_sampled')!r} below floor {floor!r}"]
    return []


def run_workload(seed: int, seconds: float, tally: Tally, spawner: Spawner,
                 probe: SetupProbe) -> tuple[dict, dict]:
    """Rounds of every command once, until the time budget is spent.

    Rounds take the CPUs in turn, and each child's time is scaled to the
    nominal host speed (Spawner.run); a command's time is the median over
    the rounds.
    """
    short, sample = make_inputs(seed)
    wants = [expected(argv) for argv in short]
    short_ms: list[list[float]] = [[] for _ in short]
    sample_s: list[list[float]] = [[] for _ in sample]
    peak_kb = 0

    def run(argv: list[str], want: dict | None, sink: list, scale: float, cpu: int) -> None:
        nonlocal peak_kb
        child = spawner.run(nc(*argv), argv[0], cpu)
        peak_kb = max(peak_kb, child.maxrss_kb)
        found = problems(argv, child.code, child.stdout.decode("utf-8", errors="replace"), want)
        if tally.record(not found, "; ".join(found)):
            sink.append(child.wall_s * scale * child.factor)
        probe()

    def one_round(r: int) -> None:
        cpu = CPUS[r % len(CPUS)]
        for argv, want, sink in zip(short, wants, short_ms):
            run(argv, want, sink, 1e3, cpu)
        for argv, sink in zip(sample, sample_s):
            run(argv, None, sink, 1.0, cpu)

    rounds = run_rounds(one_round, seconds, probe=probe)
    short_med = [median(t) for t in short_ms if t]
    sample_med = [median(t) for t in sample_s if t]
    return summarize(SAMPLES * len(sample_med) / sum(sample_med), median(short_med), short_med,
                     peak_kb, {"rounds": rounds, "cli_short_p50_ms": median(short_med),
                               "cli_short_tail_ms": tail(short_med)["value"],
                               "sample_min_p50_s": median(sample_med)})


def main_capture(argv: list[str]) -> tuple[int, str]:
    """`ncdist.cli.main` in-process, with its stdout captured."""
    import ncdist.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ncdist.cli.main(argv)
    return code, buf.getvalue()


def section(seed: int) -> list[tuple]:
    """In-process ops for the traced run: each command once through
    `ncdist.cli.main`."""
    short, sample = make_inputs(seed)
    ops = []
    for argv in short + sample:
        want = expected(argv) if argv[0] != "sample-min" else None

        def check(res, argv=argv, want=want):
            return 1, problems(argv, res[0], res[1], want)

        ops.append((f"cli.{argv[0]}", lambda argv=argv: main_capture(argv), check, argv[0]))
    return ops
