"""Set-up probe, run in a fresh interpreter by ``run.py``.

    python3 perfbench/probe.py WORKLOAD SEED WORKDIR

Does what a fresh process does before its first campaign task is
submitted -- imports, machine-spec build, store or fleet creation,
engine construction and the task list -- then prints ``ready``.  The
caller times the interval from launching the interpreter to that line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import grid  # noqa: E402


def main() -> int:
    workload, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    _, setup = grid.WORKLOADS[workload]
    setup(seed, work)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
