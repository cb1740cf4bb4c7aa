"""Command-line interface.

Subcommands: `kernel` (construct/validate kernel spectra), `indicator`
(nonclassicality distance of a state file), `scan` (chamber grid to CSV),
`polytope` (positivity polytope as JSON) and `sample-min` (Monte-Carlo
check of the analytic floor). Every command prints one JSON object, except
`scan`, which streams one CSV file row by row. `indicator` computes the
distance by the exact projection of `distance_general`. `scan` validates
zeta once and evaluates the qutrit closed form (`_cut_projection`) once per
grid row, in plain floats on the row's chamber prefix, without numpy: it
gets the row's four region runs (OQR, AQT, QRST, BRS) and their distances,
and writes each run under its one label. For qutrits the two agree. The
OQR run is written as fixed text, and the other three runs with one
printf-style `%` call per row, on a template of `%s,xi8,label,%.12g`
lines: `%.12g` prints as `format(v, ".12g")`, and the xi8 text comes from
`_fmt`, so the template holds no other `%`. Exit codes: 0 success, 2
invalid input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from bisect import bisect_left
from typing import Any

from .core import SQRT3, MetricConvention, Spectrum, chamber_mask, spectrum_from_matrix
from .distance import distance_general
from .errors import NcdistError
from .geometry import QUTRIT_FACTOR, REGIONS, _cut_frame, _cut_projection, positivity_polytope
from .kernel import KernelSpectrum, check_zeta, kernel_from_spectrum, qutrit_kernel, random_kernel
from .wigner import sampled_min, wigner_floor


def _fmt(x: float) -> str:
    """A non-negative float as decimal text, capped at 12 significant digits."""
    return format(x, ".12g")


def _zeta_value(args) -> float | None:
    if args.zeta is not None and args.zeta_degrees is not None:
        raise ValueError("give either --zeta or --zeta-degrees, not both")
    if args.zeta is not None:
        return float(args.zeta)
    if args.zeta_degrees is not None:
        return math.radians(float(args.zeta_degrees))
    return None


def _parse_pi(text: str) -> list[float]:
    parts = [p.strip() for p in text.replace("−", "-").split(",")]
    if not all(parts):
        raise ValueError("--pi expects a comma-separated list of numbers")
    return [float(p) for p in parts]


def _kernel_from_args(args, n: int, seed_selects_kernel: bool = True) -> KernelSpectrum:
    """Build the kernel requested on the command line.

    Exactly one source must be given: --zeta/--zeta-degrees (qutrit family,
    needs n = 3), --pi (explicit values) or --seed (random spectrum). For
    `sample-min` the seed drives the sampler instead, so only the first two
    sources select the kernel there.
    """
    zeta = _zeta_value(args)
    sources = [zeta is not None, args.pi is not None]
    if seed_selects_kernel:
        sources.append(args.seed is not None)
    if sum(sources) != 1:
        names = "--zeta/--zeta-degrees, --pi" + (" or --seed" if seed_selects_kernel else "")
        raise ValueError(f"specify exactly one kernel source: {names}")
    if zeta is not None:
        if n != 3:
            raise ValueError("--zeta parametrizes the qutrit family and needs n = 3")
        return qutrit_kernel(zeta)
    if args.pi is not None:
        return kernel_from_spectrum(_parse_pi(args.pi), n)
    return random_kernel(n, args.seed)


def _numbers(value, what: str) -> list[float]:
    """The entries of a JSON list of numbers, as floats."""
    # bool is an int subclass, and float() would also take a numeric string
    if not isinstance(value, list) or not all(type(v) in (int, float) for v in value):
        raise ValueError(f"{what} must be a list of numbers")
    try:
        return [float(v) for v in value]
    except OverflowError:  # a JSON integer past the float range
        raise ValueError(f"{what} must be numbers within the float range") from None


def _load_state(path: str) -> tuple[Spectrum, Any]:
    """Read a state file; returns the spectrum and, when given, the matrix
    as a complex numpy array."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("state file is nested too deeply to read") from None
    if not isinstance(data, dict) or "n" not in data:
        raise ValueError("state file must be a JSON object with an 'n' field")
    n = data["n"]
    # bool is an int subclass, and int() would truncate a float silently
    if type(n) is not int:
        raise ValueError(f"'n' must be an integer, got {n!r}")
    has_spectrum = "spectrum" in data
    has_matrix = "matrix_re" in data or "matrix_im" in data
    if has_spectrum == has_matrix:
        raise ValueError(
            "state file needs exactly one payload: 'spectrum' or 'matrix_re'/'matrix_im'"
        )
    if has_spectrum:
        values = _numbers(data["spectrum"], "'spectrum'")
        if len(values) != n:
            raise ValueError(f"spectrum has {len(values)} entries, expected n={n}")
        return Spectrum(tuple(values)), None
    if "matrix_re" not in data or "matrix_im" not in data:
        raise ValueError("matrix payload needs both 'matrix_re' and 'matrix_im'")
    parts = []
    for key in ("matrix_re", "matrix_im"):
        rows = data[key]
        if not isinstance(rows, list):
            raise ValueError(f"'{key}' must be a list of rows")
        rows = [_numbers(row, f"each row of '{key}'") for row in rows]
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError(f"'{key}' must be {n} rows of {n} numbers")
        parts.append(rows)
    import numpy as np

    m = np.array(parts[0]) + 1j * np.array(parts[1])
    return spectrum_from_matrix(m), m


def _cmd_kernel(args) -> int:
    kernel = _kernel_from_args(args, args.n)
    res_trace, res_square = kernel.residuals()
    print(json.dumps({
        "pi": list(kernel.values),
        "residual_trace": res_trace,
        "residual_square": res_square,
    }))
    return 0


def _cmd_indicator(args) -> int:
    spectrum, _ = _load_state(args.state)
    kernel = _kernel_from_args(args, spectrum.n)
    result = distance_general(spectrum, kernel)
    print(json.dumps({
        "w": result.floor,
        "classical": result.classical,
        "distance_paper": result.distance_paper,
        "distance_frobenius": result.distance_frobenius,
        "region": result.region.value if result.region is not None else None,
        "nearest_spectrum": list(result.nearest.values),
    }))
    return 0


def _cmd_scan(args) -> int:
    zeta = _zeta_value(args)
    if zeta is None:
        raise ValueError("scan needs --zeta or --zeta-degrees")
    zeta = check_zeta(zeta)
    if not 2 <= args.resolution <= 10_000:
        raise ValueError("resolution must be between 2 and 10000")
    paper = MetricConvention(args.convention) is MetricConvention.PAPER
    res = args.resolution
    xi3 = [(SQRT3 / 2.0) * i / (res - 1) for i in range(res)]
    xi3_text = [_fmt(x) for x in xi3]
    frame = _cut_frame(zeta)
    with open(args.output, "w", encoding="ascii", newline="\n") as fh:
        fh.write("xi3,xi8,region,distance\n")
        for j in range(res):
            xi8 = 0.5 * j / (res - 1)
            y = _fmt(xi8)
            # chamber_mask holds on a prefix of each row, as its bound on
            # xi8 rises with xi3 and its other two tests hold on this grid
            m = bisect_left(xi3, True, key=lambda x: not chamber_mask(x, xi8))
            ends, d = _cut_projection(xi3[:m], xi8, frame)
            if not paper:
                d = [v / QUTRIT_FACTOR for v in d]
            i0 = ends[0]
            # OQR's distances are 0, so its run formats no float; the
            # empty last item ends the run's last line
            zero = f",{y},OQR,0\n"
            fh.write(zero.join([*xi3_text[:i0], ""]))
            # one % call formats the other runs, and %.12g prints as
            # format(v, ".12g"); y comes from _fmt and the labels are
            # letters, so the template holds no % of its own
            template = "".join(
                f"%s,{y},{region.value},%.12g\n" * (hi - lo)
                for region, lo, hi in zip(REGIONS[1:], ends, (*ends[1:], m))
            )
            fields = [None] * (2 * len(d))
            fields[0::2] = xi3_text[i0:m]
            fields[1::2] = d
            fh.write(template % tuple(fields))
    return 0


def _cmd_polytope(args) -> int:
    kernel = _kernel_from_args(args, args.n)
    print(json.dumps(positivity_polytope(kernel).to_json_dict()))
    return 0


def _cmd_sample_min(args) -> int:
    import numpy as np

    spectrum, rho = _load_state(args.state)
    if rho is None:
        rho = np.diag(np.array(spectrum.values, dtype=complex))
    kernel = _kernel_from_args(args, spectrum.n, seed_selects_kernel=False)
    seed = args.seed if args.seed is not None else 0
    w_analytic = wigner_floor(spectrum, kernel)
    w_sampled = sampled_min(rho, kernel, args.samples, seed)
    print(json.dumps({
        "w_analytic": w_analytic,
        "w_sampled": w_sampled,
        "gap": max(0.0, w_sampled - w_analytic),
    }))
    return 0


def _add_zeta_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--zeta", type=float, help="qutrit moduli angle in radians")
    sub.add_argument(
        "--zeta-degrees", type=float, dest="zeta_degrees", help="moduli angle in degrees"
    )


def _add_kernel_options(sub: argparse.ArgumentParser) -> None:
    _add_zeta_options(sub)
    sub.add_argument("--pi", type=str, help="comma-separated kernel spectrum")
    sub.add_argument("--seed", type=int, help="seed (random kernel, or sampler seed)")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nc",
        description="Nonclassicality distance of finite-dimensional quantum states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_kernel = sub.add_parser("kernel", help="construct or validate a kernel spectrum")
    p_kernel.add_argument("--n", type=int, required=True, help="dimension")
    _add_kernel_options(p_kernel)
    p_kernel.set_defaults(func=_cmd_kernel)

    p_ind = sub.add_parser("indicator", help="nonclassicality distance of a state")
    p_ind.add_argument("--state", type=str, required=True, help="state JSON file")
    _add_kernel_options(p_ind)
    p_ind.set_defaults(func=_cmd_indicator)

    p_scan = sub.add_parser("scan", help="grid scan of the qutrit chamber to CSV")
    _add_zeta_options(p_scan)
    p_scan.add_argument("--resolution", type=int, required=True)
    p_scan.add_argument("--output", type=str, required=True, help="CSV output path")
    p_scan.add_argument(
        "--convention",
        choices=[m.value for m in MetricConvention],
        default=MetricConvention.PAPER.value,
    )
    p_scan.set_defaults(func=_cmd_scan)

    p_poly = sub.add_parser("polytope", help="positivity polytope as JSON")
    p_poly.add_argument("--n", type=int, required=True, help="dimension")
    _add_kernel_options(p_poly)
    p_poly.set_defaults(func=_cmd_polytope)

    p_samp = sub.add_parser(
        "sample-min", help="Monte-Carlo check of the analytic floor"
    )
    p_samp.add_argument("--state", type=str, required=True, help="state JSON file")
    _add_kernel_options(p_samp)
    p_samp.add_argument("--samples", type=int, default=1000)
    p_samp.set_defaults(func=_cmd_sample_min)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse already wrote to stderr
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        # a negative seed is rejected by numpy's Philox (random_kernel) and
        # SeedSequence (sampled_min), without naming the option
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.func(args)
    # numpy raises MemoryError for an array no address space can map
    except (NcdistError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
