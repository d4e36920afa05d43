"""Run the qflat CLI with every layer of ``tracer.LAYERS`` wrapped.

Usage: ``python bench/traced_cli.py verify --suite all ...``.  Prints what
the CLI prints, then one JSON line with the per-layer metrics, and exits
with the CLI's code.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import qflat.cli  # noqa: E402

from tracer import Tracer  # noqa: E402


def main() -> int:
    with Tracer() as tracer:
        code = qflat.cli.main(sys.argv[1:])
    print(json.dumps(tracer.metrics()))
    return code


if __name__ == "__main__":
    sys.exit(main())
