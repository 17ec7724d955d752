"""Time a cold import of modecount plus building one workload's inputs.

run.py starts this script in a fresh process, from the root of a modecount
checkout, several times per run:

    python3 bench/setup_probe.py <workload> <seed> <pool_seed or -1>

It prints the seconds from its first statement to the inputs being built.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    workload, seed, pool_seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    sys.path.insert(0, str(Path.cwd() / "src"))
    import workloads

    ops = workloads.build(workload, seed, None if pool_seed < 0 else pool_seed, workloads.ReportLog())
    for op in ops:
        op.prepare()
    print(repr(time.perf_counter() - T0))


if __name__ == "__main__":
    main()
