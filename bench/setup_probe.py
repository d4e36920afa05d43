"""Time one cold set-up of a workload in a fresh interpreter.

Usage: ``python bench/setup_probe.py <workload> <seed> <tiny 0|1>``.
Imports qflat and the benchmark's workload module, generates the pool,
and prints the seconds that took.  Interpreter start is not included:
the time starts with the first import.
"""

import sys
from time import perf_counter


def main() -> int:
    t0 = perf_counter()
    from pathlib import Path

    bench = Path(__file__).resolve().parent
    sys.path[:0] = [str(bench.parent / "src"), str(bench)]
    import workloads

    workload, seed, tiny = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    items = workloads.make_items(workload, seed, tiny)
    print(f"{perf_counter() - t0!r} {len(items)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
