#!/usr/bin/env python3
"""Benchmark of bogolib: three workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload trap-ground --seed 1 --seconds 20 --trace 0

``--workload`` is ``trap-ground``, ``quench-dynamics``, ``desk-scenarios``
or ``all`` (the default: every workload, untraced and then traced, each
in its own process).  Workloads and their gates are in ``workloads.py``.

A run sets its workload up, then repeats the workload's operation for
``--seconds`` (at least once) and checks every result.  With
``--trace 0`` it reports the end-to-end metrics: median seconds per
operation, operations per second including the checks, set-up seconds
(median of several fresh processes, see ``setup_probe.py``) and peak
resident memory.  With ``--trace 1`` every other operation is traced
(``tracing.py``), one operation of each other chain is traced as a
probe, and the run reports the per-layer metrics of
``harness.PER_LAYER``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
of a run (environment, every operation and, when traced, every span)
is written to ``.perfbench_out/`` in the checkout.  Without the library
source and configs next to it, the benchmark exits with code 2.
"""

import argparse
import sys

import benchenv


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload name or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        benchenv.configure()
    except benchenv.MissingSourceError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import harness

    if args.workload not in (*harness.NAMES, "all"):
        parser.error(f"--workload must be one of {', '.join(harness.NAMES)} or all")
    if args.workload == "all":
        return harness.run_all(args)
    return harness.run_one(args)


if __name__ == "__main__":
    sys.exit(main())
