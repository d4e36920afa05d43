"""Run one qflat CLI command as a child of this small process.

Usage: ``python bench/measure_cli.py verify --suite all ...``.  Prints what
the command prints, then one JSON line with its peak resident memory, and
exits with the command's code.  A child's peak memory includes what the
process that started it held, so the benchmark starts commands from here
rather than from its own, larger process.
"""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120


def main() -> int:
    proc = subprocess.run(
        [sys.executable, "-m", "qflat.cli", *sys.argv[1:]],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S,
    )
    sys.stdout.write(proc.stdout)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # KiB on Linux
    print(json.dumps({"peak_rss_mb": peak_kb / 1024}))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
