"""Run one edmkit CLI command with the benchmark's tracer installed.

Usage: ``python cli_entry.py <edmkit arguments>`` with PERFBENCH_T0 set to
the parent's ``time.monotonic()`` at spawn and PERFBENCH_TRACE_OUT naming
the JSON file that receives the spans and counters.  Start-up time runs
from the spawn until ``edmkit.cli.main`` is about to be called.
"""

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer  # noqa: E402


def main() -> int:
    spawned = float(os.environ["PERFBENCH_T0"])
    tracer = Tracer()
    tracer.install()
    import edmkit.cli

    startup = time.monotonic() - spawned
    try:
        return edmkit.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        Path(os.environ["PERFBENCH_TRACE_OUT"]).write_text(json.dumps(tracer.dump(startup)))


if __name__ == "__main__":
    sys.exit(main())
