"""Run one slicekit CLI command under the per-layer tracer.

Usage: python3 bench/cli_child.py STATS_JSON SUBCOMMAND [ARGS...]

The traced ``cli-bundled`` run starts this in place of
``python -m slicekit``.  It runs the package's ``__main__`` the way
``-m`` does, so stdout and the exit code pass through unchanged, and
writes the tracer's stats to STATS_JSON.
"""

import json
import runpy
import sys
from pathlib import Path

from tracer import Tracer

if __name__ == "__main__":
    stats_path = Path(sys.argv[1])
    sys.argv = [sys.argv[0], *sys.argv[2:]]
    with Tracer() as tracer:
        try:
            runpy.run_module("slicekit", run_name="__main__", alter_sys=True)
        finally:
            stats_path.write_text(json.dumps(tracer.dump()), encoding="utf-8")
