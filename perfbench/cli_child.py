"""Run the ``wpxlab`` command line under the span tracer.

Usage: python perfbench/cli_child.py STATS.json <wpxlab arguments...>

Behaves as ``wpxlab`` (same output and exit code) and writes the layer
totals, its own import time and the time covered by spans to STATS.json.
The package must be importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
from wpxlab.harness import cli  # noqa: E402  (timed import)

IMPORT_S = time.perf_counter() - t0

from tracer import Tracer  # noqa: E402


def main() -> int:
    stats_path = Path(sys.argv[1])
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
    stats_path.write_text(
        json.dumps(
            {
                "import_s": IMPORT_S,
                "covered_s": IMPORT_S + tracer.covered_s(),
                "layers": tracer.layer_stats(),
            }
        )
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
