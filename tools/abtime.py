"""Side-by-side timer: time `distance_general` of two source trees on the
census `general` states, in one process.

    python3 tools/abtime.py --base REV_OR_DIR [--quick]

The base is a git revision or a source directory, taken as
`tools/census.py` takes it. The head is the tree this file lives in. Both
trees' `ncdist` packages are imported into this process, and each state is
built once per tree from the same values and kernel.

It first asserts that every field of `distance_general` is bit-identical
between the trees on every state (floats by `float.hex`), and exits with
status 1, printing the first differing states, when one is not. It then
times each call on its own, in chunks of consecutive states that alternate
which tree runs first, for PASSES passes over all states. Each state keeps
one kernel object of its own over the passes, unused by the check, so a
tree that keeps data on the kernel, as `distance_general` keeps the
projector's record, builds it in pass 1 and reuses it in the later passes.
It prints the ratio of the head's summed time to the base's, overall, for
the cold pass 1 and its range over the warm passes, and the p50 and p99
per-call time of each tree at each n over the warm passes. Run it under
`taskset -c CPU` to pin it to one CPU. Only the stdlib and numpy are used.

The ratios carry a bias of their own. Against a copy of its own tree
(A/A), pinned to one CPU, it printed a cold pass ratio of 0.925-0.927 and
warm pass ratios of 0.95-1.005. Judge a ratio against that spread: a
cold ratio a few per cent from 1 does not resolve a change.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import census

#: consecutive states timed per tree before the other tree runs
CHUNK = 64
#: passes over all states
PASSES = 5
#: differing states shown
EXAMPLES = 3


def load(src: Path):
    """The `ncdist` package under src, imported afresh; the previously
    imported one, if any, leaves sys.modules but keeps working."""
    for name in [m for m in sys.modules if m == "ncdist" or m.startswith("ncdist.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        ncdist = importlib.import_module("ncdist")
    finally:
        sys.path.remove(str(src))
    if not Path(ncdist.__file__).resolve().is_relative_to(src.resolve()):
        census._fail(f"imported {ncdist.__file__}, not the tree under {src}")
    return ncdist


def call(ncdist, values, kernel) -> tuple:
    """The tree's `distance_general` arguments for one state, with a
    kernel no call has used, and the census record of its result on a
    kernel of its own, or None and the exception raised."""
    try:
        r = ncdist.Spectrum(tuple(values))
        checked = ncdist.distance_general(r, ncdist.KernelSpectrum(kernel.values))
        return (r, ncdist.KernelSpectrum(kernel.values)), census.general_record(checked)
    # a raise is that state's output, to be compared like any other
    except Exception as exc:
        return None, ["raises", type(exc).__name__, str(exc)]


def percentile(sorted_values: list[float], q: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision or source directory")
    parser.add_argument("--quick", action="store_true", help="the census's quick states")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        base = load(census._source(args.base, Path(tmp)))
        head = load(census.ROOT / "src")
        return run(base, head, args.quick)


def run(base, head, quick: bool) -> int:
    """Check, then time, the two trees' `ncdist` packages."""
    states, differ = [], []
    for key, kernel, values in census.general_states(quick):
        (base_args, base_record), (head_args, head_record) = (
            call(base, values, kernel), call(head, values, kernel))
        if base_record != head_record:
            differ.append({"key": key, "base": base_record, "head": head_record})
        elif head_args is not None:
            states.append((key[0], {"base": base_args, "head": head_args}))
    if differ:
        print(f"abtime: {len(differ)} states differ", file=sys.stderr)
        for example in differ[:EXAMPLES]:
            print(json.dumps(example), file=sys.stderr)
        return 1
    print(f"{len(states)} states, every distance_general field bit-identical")

    sides = {"base": base.distance_general, "head": head.distance_general}
    times = {side: defaultdict(list) for side in sides}
    totals = {side: [0.0] * PASSES for side in sides}
    clock = time.perf_counter
    for p in range(PASSES):
        for c, lo in enumerate(range(0, len(states), CHUNK)):
            chunk = states[lo:lo + CHUNK]
            order = ("base", "head") if (p + c) % 2 == 0 else ("head", "base")
            for side in order:
                fn, per_n = sides[side], times[side]
                spent = 0.0
                for n, args in chunk:
                    r, kernel = args[side]
                    t0 = clock()
                    fn(r, kernel)
                    dt = clock() - t0
                    if p:
                        per_n[n].append(dt)
                    spent += dt
                totals[side][p] += spent
    ratios = [h / b for h, b in zip(totals["head"], totals["base"])]
    ratio = sum(totals["head"]) / sum(totals["base"])
    warm = f"{min(ratios[1:]):.3f}-{max(ratios[1:]):.3f}"
    print(f"time ratio head/base {ratio:.3f} (cold pass 1 {ratios[0]:.3f}, warm passes 2-{PASSES} {warm})")
    print(f"{'n':>3} {'base p50':>9} {'head p50':>9} {'base p99':>9} {'head p99':>9}  (us, warm passes)")
    for n in sorted(times["base"]):
        row = [percentile(sorted(times[side][n]), q) * 1e6 for q in (0.5, 0.99) for side in sides]
        print(f"{n:>3} " + " ".join(f"{v:9.2f}" for v in row))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
