"""Set one workload up in a fresh process and say when it is ready.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>

``run.py`` starts this several times and takes the time from process
start to the ``ready`` line as one sample of the benchmark's set-up
time: interpreter start, ``import bogolib``, input generation and the
warm-up operation.  ``workdir`` is removed before exit.
"""

import shutil
import sys
from pathlib import Path

import benchenv


def main(argv: list[str]) -> int:
    name, seed, workdir = argv[1], int(argv[2]), Path(argv[3])
    benchenv.configure()
    import workloads

    try:
        workloads.make(name, seed, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
