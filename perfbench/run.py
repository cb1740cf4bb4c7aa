"""Benchmark of ncdist: one command per workload run.

    python3 perfbench/run.py --workload {scan,project,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout. The package is run from its sources in
`src/`, as `python -m ncdist` children (the `nc` tool) and through
in-process calls, with every BLAS/OpenMP runtime pinned to one thread.
Outputs are checked; every failed check or failed call counts in `failed`,
and no check is timed.

`--trace 0` prints the end-to-end metrics, which every workload reports.
Each distinct operation (a state, a command, a scan) is repeated through
the run, on each CPU in turn. The host's speed swings by up to half over
seconds, each CPU on its own, so a fixed pure-Python reference loop is
timed on the operation's CPU around it (and, for a child, during it), and
the wall time is scaled to the speed at which that loop takes
REF_NOMINAL_S (common.py). An operation's time is the median of its
scaled repeats.

- `setup_s`: median wall time of a fresh interpreter importing `ncdist.cli`,
  sampled about every second between the workload's operations;
- `work_per_s`: chamber points per second of `nc scan` children (scan),
  states per second (project), Haar samples per second through
  `nc sample-min` children (cli);
- `op_p50_ms` and `op_tail_ms`: the median and the tail over the golden
  scans (p50) and the resolution-1000 scan (tail) on scan, over the states
  on project, and over the short commands on cli. The tail is the highest
  percentile with at least ten samples beyond it, or the maximum when
  there are too few;
- `peak_rss_mb`: largest child (scan, cli) or this process (project).

`--trace 1` prints the per-layer metrics of the traced run (tracing.py).
The last line of stdout is the result as one JSON object, and the line
before it the count of failures of each kind; a readable table goes to
stderr, and the full record, with the tail percentiles, the
environment and the failures, to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from common import OUT, SRC, SetupProbe, Spawner, Tally, environment_record, pin_environment

WORKLOADS = ("scan", "project", "cli")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ncdist", "__init__.py")):
        print(f"error: no ncdist sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    pin_environment()
    os.makedirs(OUT, exist_ok=True)
    tally = Tally()
    with Spawner() as spawner:
        import cli
        import project
        import scan
        import tracing

        if args.trace:
            metrics, detail = tracing.traced_run(args.workload, args.seed, args.seconds, tally)
        else:
            probe = SetupProbe(spawner, tally)
            if args.workload == "project":
                metrics, detail = project.run_workload(args.seed, args.seconds, tally, probe)
            else:
                module = cli if args.workload == "cli" else scan
                metrics, detail = module.run_workload(args.seed, args.seconds, tally, spawner, probe)
            metrics["setup_s"] = (probe.median(), "s")
            detail["setup_samples_s"] = probe.times
            detail["setup_unscaled_s"] = probe.raw

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, failed_frac=tally.failed / tally.attempted,
                  failures=tally.reasons, failure_kinds=dict(tally.kinds), detail=detail, environment=environment_record())
    path = os.path.join(OUT, f"result_{args.workload}_{args.seed}_trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for name, (value, unit) in metrics.items():
        print(f"{name:52s} {value:14.6g} {unit}", file=sys.stderr)
    print(f"{'failed_frac':52s} {record['failed_frac']:14.6g} ({tally.failed}/{tally.attempted})",
          file=sys.stderr)
    for kind, count in tally.kinds.most_common():
        print(f"failed {count:6d} x {kind}", file=sys.stderr)
    # the count of each kind of failure, next to the result, so a newly
    # failing gate shows even where another one already fails
    kinds = {"failure_kinds": dict(tally.kinds)}
    if "other_sections" in detail:
        kinds["other_sections_failure_kinds"] = detail["other_sections"]["failure_kinds"]
    print(json.dumps(kinds))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
