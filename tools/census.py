"""Output census: run fixed, seeded families of ncdist calls on two source
trees and report, per family, how many cases differ.

    python3 tools/census.py --base REV_OR_DIR [--quick]

The base is a git revision, extracted with `git archive` into a temporary
directory, or a directory that holds a source tree (its `src/`). The head
is the tree this file lives in. Each tree runs every family in one child
process with PYTHONPATH set to its `src`, so both sides run the same
cases, generated by this file. The two children run at the same time,
each with one BLAS thread (the variables `perfbench/common.py` pins),
unless the caller's environment sets a thread count. A case records:

- `scan`: the exit code, stdout, stderr and output file SHA-256 of one
  `nc scan`;
- `qutrit-points`: every field of `qutrit_distance` and `classify_region`
  at one chart point, floats by `float.hex`, or the exception raised;
- `cli-short`: the exit code, stdout and stderr of one `nc indicator`,
  `kernel` or `polytope`;
- `general`: every field of `distance_general` on one seeded state at
  n = 2..64, floats by `float.hex`, or the exception raised. The states
  include sign-row states, which make the projector restart. One kernel
  object serves all the states of that kernel, so the first projected
  state of each kernel builds the projector's record of the kernel (the
  cold path) and the later ones reuse it (the warm path);
- `sample-min`: the exit code, stdout and stderr of one `nc sample-min`
  of 1500 samples at n = 2, 3, 8, 16 or 24, so the last block is partial,
  and the minimum over the Haar draws alone by `float.hex`. The printed
  minimum is the eigenbasis candidate's in every case, so only that
  record checks the draws' arithmetic.

It prints one JSON summary per family: the number of cases, the number
that differ and the first few differing cases with both records. The exit
status is 0 when no case differs, 1 when some do and 2 when a tree cannot
be run. `--quick` runs a small size of each family, in about a second per
tree; the default sizes are those of the scan and qutrit-point censuses
quoted in CHANGES.md. Only the stdlib and numpy are used.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import operator
import os
import random
import runpy
import subprocess
import sys
import tarfile
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: differing cases shown per family
EXAMPLES = 3
ZETA_MAX = math.pi / 3.0


def _fail(message: str):
    print(f"census: {message}", file=sys.stderr)
    raise SystemExit(2)


def _run_cli(argv: list[str]) -> list:
    """Exit code, stdout and stderr of one in-process `nc` command."""
    from ncdist.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return [code, out.getvalue(), err.getvalue()]


def _scan_cases(quick: bool):
    """`nc scan` at fixed and seeded angles, every resolution, both
    conventions, plus the rejected inputs."""
    rng = random.Random(2026)
    if quick:
        zetas = [0.0, ZETA_MAX, 0.7]
        resolutions = (2, 3, 7, 61, 401)
    else:
        zetas = [0.0, math.pi / 6, ZETA_MAX, ZETA_MAX + 1e-9]
        zetas += [rng.uniform(0.0, ZETA_MAX) for _ in range(20)]
        resolutions = (2, 3, 7, 200, 401, 1000)
    for zeta in zetas:
        for res in resolutions:
            for convention in ("paper", "frobenius"):
                yield ["--zeta", repr(zeta), "--resolution", str(res), "--convention", convention]
    yield ["--zeta", repr(ZETA_MAX + 1e-8), "--resolution", "7"]
    yield ["--zeta", "0.3", "--resolution", "1"]
    yield ["--zeta", "0.3", "--resolution", "10001"]
    yield ["--zeta-degrees", "30", "--resolution", "7"]


def family_scan(quick: bool):
    for args in _scan_cases(quick):
        argv = ["scan", *args, "--output", "out.csv"]
        record = _run_cli(argv)
        try:
            with open("out.csv", "rb") as fh:
                record.append(hashlib.sha256(fh.read()).hexdigest())
            os.remove("out.csv")
        except FileNotFoundError:
            record.append(None)
        yield args, record


def _around(x: float, k: int) -> list[float]:
    """The 2k + 1 consecutive floats centred on x."""
    for _ in range(k):
        x = math.nextafter(x, -math.inf)
    out = [x]
    for _ in range(2 * k):
        out.append(math.nextafter(out[-1], math.inf))
    return out


def _qutrit_points(quick: bool):
    """(zeta, xi3, xi8): per angle, uniform chamber points, then 7 x 7
    float clusters around the classical edge p = 1/4 + 0.75e-12, the two
    tie lines s = s_Q - 1e-12 and s = s_R + 1e-12, and the cut ends Q and R,
    in the cut-line frame (p, s) of the closed form."""
    rng = random.Random(2021)
    zetas = [0.0, math.pi / 6, ZETA_MAX]
    zetas += [rng.uniform(0.0, ZETA_MAX) for _ in range(1 if quick else 41)]
    for zeta in zetas:
        for _ in range(60 if quick else 1500):
            root, v = math.sqrt(rng.random()), rng.random()
            yield zeta, math.sqrt(3.0) / 2.0 * root * v, 0.5 * root
        a = zeta + math.pi / 6.0
        s_q, s_r = 0.25 * math.tan(ZETA_MAX - zeta), -0.25 * math.tan(zeta)
        centres = (
            (0.25 + 0.75e-12, 0.5 * (s_q + s_r)),
            (0.3, s_q - 1e-12),
            (0.3, s_r + 1e-12),
            (0.25, s_q),
            (0.25, s_r),
        )
        for p, s in centres:
            x3 = p * math.cos(a) - s * math.sin(a)
            x8 = p * math.sin(a) + s * math.cos(a)
            for u8 in _around(x8, 3):
                for u3 in _around(x3, 3):
                    yield zeta, u3, u8


def family_qutrit_points(quick: bool):
    from ncdist import QutritChart, classify_region, qutrit_distance

    for zeta, x3, x8 in _qutrit_points(quick):
        c = QutritChart(x3, x8)
        try:
            res = qutrit_distance(c, zeta)
            record = [
                res.region.value,
                res.distance_paper.hex(),
                res.distance_frobenius.hex(),
                res.floor.hex(),
                res.classical,
                [v.hex() for v in res.nearest.values],
                classify_region(c, zeta).value,
            ]
        # a raise is that point's output, to be compared like any other
        except Exception as exc:
            record = ["raises", type(exc).__name__, str(exc)]
        yield [zeta.hex(), x3.hex(), x8.hex()], record


def _kernel_text(rng: random.Random, n: int) -> str:
    """A valid kernel spectrum as `--pi` text: 1/n plus a random direction
    orthogonal to the ones, scaled so the squares sum to n. It may start
    with a minus sign, so it is passed as `--pi=TEXT`."""
    u = [rng.gauss(0.0, 1.0) for _ in range(n)]
    mean = math.fsum(u) / n
    u = [x - mean for x in u]
    t = math.sqrt(n - 1.0 / n) / math.sqrt(math.fsum(x * x for x in u))
    return ",".join(repr(1.0 / n + t * x) for x in u)


def _write_state(rng: random.Random, n: int, matrix: bool) -> None:
    """state.json: a random spectrum, or a density matrix with that
    spectrum in a random unitary basis."""
    w = [rng.expovariate(1.0) for _ in range(n)]
    total = math.fsum(w)
    w = [x / total for x in w]
    if not matrix:
        state = {"n": n, "spectrum": w}
    else:
        import numpy as np

        g = np.random.default_rng(rng.getrandbits(32))
        q, _ = np.linalg.qr(g.standard_normal((n, n)) + 1j * g.standard_normal((n, n)))
        rho = (q * np.array(w)) @ q.conj().T
        state = {"n": n, "matrix_re": rho.real.tolist(), "matrix_im": rho.imag.tolist()}
    with open("state.json", "w", encoding="utf-8") as fh:
        json.dump(state, fh)


def family_cli_short(quick: bool):
    rng = random.Random(2031)
    for n in (2, 3, 5) if quick else range(2, 10):
        for rep in range(1 if quick else 8):
            sources = [["--seed", str(1000 * n + rep)], ["--pi=" + _kernel_text(rng, n)]]
            if n == 3:
                sources += [["--zeta", repr(z)] for z in (0.0, ZETA_MAX, rng.uniform(0, ZETA_MAX))]
            _write_state(rng, n, matrix=rep % 2 == 1)
            for source in sources:
                for argv in (
                    ["kernel", "--n", str(n), *source],
                    ["polytope", "--n", str(n), *source],
                    ["indicator", "--state", "state.json", *source],
                ):
                    yield [n, rep, *argv], _run_cli(argv)
    for argv in (
        ["kernel", "--n", "3", "--pi", "1,1,1"],
        ["kernel", "--n", "4", "--zeta", "0.1"],
        ["kernel", "--n", "1", "--seed", "0"],
        ["polytope", "--n", "3", "--zeta", "2"],
        ["indicator", "--state", "missing.json", "--zeta", "0"],
    ):
        yield argv, _run_cli(argv)


def _run_sample_min(argv: list[str]) -> list:
    """`_run_cli`'s record of one `nc sample-min`, and the minimum over its
    Haar draws alone, leaving out the eigenbasis candidate, as `float.hex`
    (None when no block ran). The tree's own sampler computes it: every
    block of draws is evaluated by `wigner._block_values`, which is watched
    during the run; the real part of what it returns is the block's values,
    whatever its arguments."""
    from ncdist import wigner

    exact, draws = wigner._block_values, []

    def watched(*args):
        vals = exact(*args)
        draws.append(float(vals.real.min()))
        return vals

    wigner._block_values = watched
    try:
        record = _run_cli(argv)
    finally:
        wigner._block_values = exact
    return [*record, min(draws).hex() if draws else None]


def family_sample_min(quick: bool):
    """`nc sample-min` at n = 2, 3, 8, 16 and 24, on spectrum and matrix
    payloads, with `--pi` kernels (and `--zeta` at n = 3) and fixed seeds.
    1500 samples make a full block and a partial last one. Then the
    rejected inputs. Each record holds the minimum over the draws alone
    (:func:`_run_sample_min`)."""
    rng = random.Random(2051)
    for n in (2, 3, 8, 16, 24):
        for rep in range(2 if quick else 6):
            sources = [["--pi=" + _kernel_text(rng, n)]]
            if n == 3:
                sources.append(["--zeta", repr(rng.uniform(0.0, ZETA_MAX))])
            _write_state(rng, n, matrix=rep % 2 == 1)
            for source in sources:
                argv = ["sample-min", "--state", "state.json", *source,
                        "--samples", "1500", "--seed", str(rep)]
                yield [n, rep, *argv], _run_sample_min(argv)
    # a qutrit state, so that --zeta is valid and only the marked input fails
    _write_state(rng, 3, matrix=False)
    for argv in (
        ["sample-min", "--state", "state.json", "--zeta", "0.3", "--samples", "0"],
        ["sample-min", "--state", "state.json", "--zeta", "0.3", "--seed", "-1"],
    ):
        yield argv, _run_sample_min(argv)


def _dirichlet(rng: random.Random, n: int, alpha: float) -> list[float]:
    """A Dirichlet(alpha) point of the probability simplex, unsorted."""
    w = [rng.gammavariate(alpha, 1.0) for _ in range(n)]
    total = math.fsum(w)
    return [x / total for x in w]


def _sign_row_states(rng: random.Random, n: int, kernel, count: int) -> list[list[float]]:
    """Spectra whose last entry is -t, t in (0, 1e-12], with the floor in
    (-4e-12, -1e-12): a Dirichlet state of that last entry mixed with the
    flat or the pure state of it, whichever puts the floor in between.
    The search's point then often ends in a negative entry, so the
    projector holds it at 0 and restarts. The flat state is classical only
    for a kernel whose largest value is at most 1, so the caller passes
    such kernels."""
    a = kernel.values[::-1]
    states = []
    for i in range(count):
        t = 1e-12 * (1.0 - rng.random())
        target = -1e-12 * (1.0 + 3.0 * rng.random())
        tail = [t / (n - 1)] * (n - 1) + [-t]
        head = sorted(_dirichlet(rng, n - 1, (1.0, 0.05)[i % 2]), reverse=True)
        mix = [u + v for u, v in zip([*head, 0.0], tail)]
        f_mix = math.fsum(map(operator.mul, mix, a))
        if f_mix > target:
            end = [1.0 + tail[0], *tail[1:]]
        else:
            end = [1.0 / (n - 1) + v for v in tail[:-1]] + [-t]
        f_end = math.fsum(map(operator.mul, end, a))
        s = (target - f_end) / (f_mix - f_end)
        states.append([s * u + (1.0 - s) * v for u, v in zip(mix, end)])
    return states


def general_states(quick: bool):
    """Seeded states at n = 2..64, as (key, kernel, values): Dirichlet
    alpha 1 and 0.05, tied, pure and flat spectra on random kernels (and the
    degenerate qutrit kernels), plus sign-row states that make the
    projector restart."""
    from ncdist import qutrit_kernel, random_kernel

    rng = random.Random(2041)
    dims = (2, 3, 5, 8, 32, 64) if quick else (2, 3, 4, 5, 6, 8, 12, 16, 24, 32, 48, 64)
    for n in dims:
        seeds = [rng.getrandbits(30) for _ in range(4 if quick else 200)]
        kernels = [(s, random_kernel(n, s)) for s in seeds]
        if n == 3:
            kernels[:2] = [("zeta=0", qutrit_kernel(0.0)), ("zeta=pi/3", qutrit_kernel(ZETA_MAX))]
        cases = []
        for k in kernels:
            m = rng.randint(2, n)
            counts = [rng.randint(0, 3) for _ in range(n)]
            counts[0] += 1
            cases += [(k, "dirichlet-1", _dirichlet(rng, n, 1.0)) for _ in range(4)]
            cases += [(k, "dirichlet-0.05", _dirichlet(rng, n, 0.05)) for _ in range(4)]
            cases.append((k, "tied", [c / sum(counts) for c in counts]))
            cases.append((k, "pure", [1.0] + [0.0] * (n - 1)))
            cases.append((k, "flat", [1.0 / m] * m + [0.0] * (n - m)))
        edge = [("zeta=0", qutrit_kernel(0.0))] if n == 3 else []
        # random kernels whose largest value is at most 1 are rare above n = 8
        while 3 < n <= 8 and len(edge) < (1 if quick else 4):
            seed = rng.getrandbits(30)
            k = random_kernel(n, seed)
            if k.values[0] <= 1.0:
                edge.append((seed, k))
        for label, k in edge:
            states = _sign_row_states(rng, n, k, 4 if quick else 32)
            cases += [((label, k), "sign-row", v) for v in states]
        for (label, k), kind, values in cases:
            yield [n, label, kind, [v.hex() for v in values]], k, values


def general_record(res) -> list:
    """Every field of a `distance_general` result, floats by `float.hex`."""
    return [
        res.region and res.region.value,
        res.distance_paper.hex(),
        res.distance_frobenius.hex(),
        res.floor.hex(),
        res.classical,
        [v.hex() for v in res.nearest.values],
    ]


def family_general(quick: bool):
    """`distance_general` on :func:`general_states`: every result field,
    or the exception raised."""
    from ncdist import Spectrum, distance_general

    for key, k, values in general_states(quick):
        try:
            record = general_record(distance_general(Spectrum(tuple(values)), k))
        # a raise is that state's output, to be compared like any other
        except Exception as exc:
            record = ["raises", type(exc).__name__, str(exc)]
        yield key, record


#: each family's cases, (key, record) pairs, in the order they run
FAMILIES = {"scan": family_scan, "qutrit-points": family_qutrit_points,
            "cli-short": family_cli_short, "general": family_general,
            "sample-min": family_sample_min}


def child(src: str, out: str, quick: bool) -> None:
    """Run every family on the ncdist under `src`, one JSON line per case
    [family, key, record], in a scratch working directory, so that file
    names in messages are the same for every tree."""
    import ncdist

    if not Path(ncdist.__file__).resolve().is_relative_to(Path(src).resolve()):
        _fail(f"imported {ncdist.__file__}, not the tree under {src}")
    with open(out, "w", encoding="utf-8") as fh, tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for family, cases in FAMILIES.items():
            for key, record in cases(quick):
                fh.write(json.dumps([family, key, record]) + "\n")


def _source(base: str, tmp: Path) -> Path:
    """The `src` directory of the base: a directory's own, or that of a git
    revision extracted into tmp."""
    if os.path.isdir(base):
        return Path(base).resolve() / "src"
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", base, "src"],
        capture_output=True, check=False,
    )
    if tar.returncode != 0:
        _fail(f"git archive {base}: {tar.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        archive.extractall(tmp / "base", filter="data")
    return tmp / "base" / "src"


def _thread_vars() -> tuple[str, ...]:
    """The BLAS and OpenMP thread-count variables the benchmark pins, from
    `perfbench/common.py`. The two children run at once, so on a small
    host their BLAS threads would contend; each child gets one thread
    unless the caller's environment sets its own count."""
    return runpy.run_path(str(ROOT / "perfbench" / "common.py"))["THREAD_VARS"]


def compare(base_out: Path, head_out: Path) -> dict[str, dict]:
    """Per family: the case count, the number of differing cases and the
    first EXAMPLES of them, reading both trees' case lines in step."""
    summary = {f: {"family": f, "cases": 0, "differ": 0, "examples": []} for f in FAMILIES}
    with open(base_out, encoding="utf-8") as fb, open(head_out, encoding="utf-8") as fh:
        for line_b, line_h in zip_longest(fb, fh):
            b = json.loads(line_b) if line_b else [None, None, None]
            h = json.loads(line_h) if line_h else [None, None, None]
            entry = summary[h[0] or b[0]]
            entry["cases"] += 1
            if b != h:
                entry["differ"] += 1
                if len(entry["examples"]) < EXAMPLES:
                    entry["examples"].append({"key": h[1] or b[1], "base": b[2], "head": h[2]})
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git revision or source directory (required)")
    parser.add_argument("--quick", action="store_true", help="small family sizes")
    parser.add_argument("--child", nargs=2, metavar=("SRC", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(*args.child, args.quick)
        return 0
    if args.base is None:
        parser.error("the following arguments are required: --base")
    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = Path(tmp_name)
        trees = {"base": _source(args.base, tmp), "head": ROOT / "src"}
        procs, threads = {}, dict.fromkeys(_thread_vars(), "1")
        for side, src in trees.items():
            if not (src / "ncdist").is_dir():
                _fail(f"no ncdist package under {src}")
            cmd = [sys.executable, __file__, "--child", str(src), str(tmp / f"{side}.jsonl")]
            env = {**threads, **os.environ, "PYTHONPATH": str(src)}
            procs[side] = subprocess.Popen(
                cmd + ["--quick"] * args.quick, env=env, stderr=subprocess.PIPE, text=True
            )
        failed = False
        for side, proc in procs.items():
            _, err = proc.communicate()
            if proc.returncode != 0:
                print(f"census: the {side} tree failed:\n{err}", file=sys.stderr)
                failed = True
        if failed:
            return 2
        summary = compare(tmp / "base.jsonl", tmp / "head.jsonl")
    for entry in summary.values():
        print(json.dumps(entry))
    return 1 if any(e["differ"] for e in summary.values()) else 0


if __name__ == "__main__":
    raise SystemExit(main())
