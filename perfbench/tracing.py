"""The traced run: spans at each module boundary, from outside the package.

Inside the traced process only, the public names that callers look up
across modules (`ncdist.cli.qutrit_distance`, `ncdist.distance.project_simplex`,
`ncdist.geometry.qutrit_anchor_points`, ...) are rebound to wrappers that
record a span per call: name, start, end and parent. No file of the package
changes.

Every section (scan, project, cli) runs once untraced and once traced on the
same inputs; the workload's own section repeats until the time budget is
spent, and its traced minus untraced time is the tracing overhead. Only the
own section's checks count in the run's result; the others' are recorded
apart. Spans of the first traced pass of each section stay in memory, give
the counts and self times, and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import os
import sys
import time
from collections import Counter, defaultdict
from statistics import median

import ncdist

import cli
import micro
import project
import scan
from common import OUT, Tally, run_rounds

#: names traced, by the module that defines them; each is rebound wherever a
#: package module holds it as a global
TRACED = {
    "ncdist.core": ("Spectrum", "QutritChart", "spectrum_from_matrix", "spectrum_from_chart",
                    "chart_from_spectrum"),
    "ncdist.kernel": ("KernelSpectrum", "qutrit_kernel", "random_kernel", "kernel_from_spectrum",
                      "zeta_from_kernel"),
    "ncdist.wigner": ("wigner_floor", "wigner_value", "sampled_min"),
    "ncdist.geometry": ("positivity_polytope", "classify_region", "qutrit_anchor_points",
                        "_cut_projection"),
    "ncdist.distance": ("qutrit_distance", "distance_general", "project_to_classical",
                        "project_simplex", "project_monotone_nonincreasing", "project_halfspace",
                        "bruteforce_project"),
}
CALLERS = ("ncdist.cli", "ncdist.core", "ncdist.kernel", "ncdist.wigner", "ncdist.geometry",
           "ncdist.distance")
LAYERS = ("cli", "core", "kernel", "wigner", "geometry", "distance")
SECTIONS = {"scan": scan.section, "project": project.section, "cli": cli.section}


class Tracer:
    """In-memory spans: [name, parent index, start, end]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid][3] = clock()

        return traced

    @contextlib.contextmanager
    def installed(self):
        import ncdist.cli  # noqa: F401 - the CLI module is a caller to rebind in

        saved = []
        try:
            for origin, names in TRACED.items():
                for name in names:
                    original = getattr(sys.modules[origin], name)
                    wrapper = self.wrap(f"{origin.split('.')[1]}.{name}", original)
                    for caller in CALLERS:
                        module = sys.modules[caller]
                        if module.__dict__.get(name) is original:
                            saved.append((module, name, original))
                            setattr(module, name, wrapper)
            yield
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)

    def self_times(self, lo: int, hi: int) -> list[float]:
        """Self time of each span in [lo, hi): its duration minus the time
        covered by its direct children."""
        own = [s[3] - s[2] for s in self.spans[lo:hi]]
        for s in self.spans[lo:hi]:
            if s[1] >= lo:
                own[s[1] - lo] -= s[3] - s[2]
        return own

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps([i, name, parent, start, end]) + "\n")


def run_ops(ops: list[tuple], tracer: Tracer | None) -> tuple[float, list]:
    """Run a section's ops once; returns the summed op time and, per op,
    (span range, result)."""
    clock = time.perf_counter
    total = 0.0
    info = []
    for name, fn, _, _ in ops:
        call = fn if tracer is None or name is None else tracer.wrap(name, fn)
        lo = len(tracer.spans) if tracer else 0
        t0 = clock()
        res = call()
        total += clock() - t0
        info.append(((lo, len(tracer.spans) if tracer else 0), res))
    return total, info


def check_ops(ops: list[tuple], info: list, tally: Tally) -> list[int]:
    """Check every op's result, untimed and untraced; returns the units
    (scan points, states, commands) each op covered."""
    units = []
    for (_, _, check, _), (_, res) in zip(ops, info):
        count, problems = check(res)
        tally.record(not problems, "; ".join(problems[:3]))
        units.append(count)
    return units


def traced_run(workload: str, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    metrics = micro.run()
    tracer = Tracer()
    first: dict[str, tuple] = {}
    overhead = {"untraced_s": 0.0, "traced_s": 0.0, "passes": 0}
    scan_self: list[float] = []

    # failures of the other sections are kept apart, so the run's own
    # counts show only its workload's gates
    others = Tally()
    for name, make in SECTIONS.items():
        ops = make(seed)
        own = name == workload
        budget = seconds if own else 0.0

        def one_pass(p: int, name=name, ops=ops, counts=tally if own else others) -> None:
            untraced, info = run_ops(ops, None)
            check_ops(ops, info, counts)
            lo = len(tracer.spans)
            with tracer.installed():
                traced, info = run_ops(ops, tracer)
            units = check_ops(ops, info, counts)
            if own:
                overhead["untraced_s"] += untraced
                overhead["traced_s"] += traced
                overhead["passes"] += 1
            if name == "scan":
                scan_self.append(tracer.self_times(*info[0][0])[0])
            if p == 0:
                first[name] = (lo, len(tracer.spans), info, units, ops)
            else:
                del tracer.spans[lo:]

        run_rounds(one_pass, budget)

    # counts per scan point, from the first traced scan
    lo, hi, _, units, _ = first["scan"]
    points = sum(units)
    counts = Counter(s[0] for s in tracer.spans[lo:hi])
    metrics["cli.scan.self_s"] = (median(scan_self), "s")
    for span in ("core.QutritChart", "core.spectrum_from_chart", "geometry.qutrit_anchor_points"):
        metrics[f"{span}.calls_per_point"] = (counts[span] / points, "count")

    # projector work per nonclassical state, from the first traced project
    # section; each Dykstra cycle calls project_simplex once
    _, _, info, _, ops = first["project"]
    cycles = defaultdict(list)
    for ((a, b), res), op in zip(info, ops):
        if not isinstance(res, Exception) and not res.classical:
            cycles[op[3]].append(sum(1 for s in tracer.spans[a:b] if s[0] == "distance.project_simplex"))
    for n in (3, 8, 32):
        per_n = [c for (m, _), v in cycles.items() if m == n for c in v]
        metrics[f"distance.project_simplex.calls_per_state.n{n}.p50"] = (median(per_n), "count")
        metrics[f"distance.project_simplex.calls_per_state.n{n}.max"] = (max(per_n), "count")
    projected = sum(len(v) for v in cycles.values())
    metrics["distance.nonclassical_frac"] = (projected / len(info), "frac")
    # projected states whose nearest point the package's own is_classical
    # rejects: the projector stops with floors down to -10 * tol
    unclassical = sum(
        1 for (_, res), (_, kernel) in zip(info, project.make_cases(seed, len(info)))
        if not isinstance(res, Exception) and not res.classical
        and not ncdist.is_classical(res.nearest, kernel))
    metrics["distance.nearest_unclassical_frac"] = (unclassical / projected, "frac")

    # self time per layer over the first traced pass of every section
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for lo, hi, _, _, _ in first.values():
        for s, own in zip(tracer.spans[lo:hi], tracer.self_times(lo, hi)):
            layer_self[s[0].split(".")[0]] += own
    for layer, value in layer_self.items():
        metrics[f"{layer}.self_s"] = (value, "s")
    metrics["trace.overhead_pct"] = (
        100.0 * (overhead["traced_s"] - overhead["untraced_s"]) / overhead["untraced_s"], "%")

    trace_path = os.path.join(OUT, f"trace_{workload}_{seed}.jsonl.gz")
    tracer.write(trace_path)
    detail = {"other_sections": {"attempted": others.attempted, "failed": others.failed,
                                 "failure_kinds": dict(others.kinds)},
              "overhead": overhead, "spans": len(tracer.spans), "trace_file": os.path.relpath(trace_path),
              "scan_points": points,
              "cycles_by_n_alpha": {f"n{n}_alpha{a}": {"states": len(v), "p50": median(v), "max": max(v)}
                                    for (n, a), v in sorted(cycles.items())}}
    return metrics, detail
