"""Start ``repro serve`` with every objective call clocked.

    python3 tunebench/launcher.py REPORT.json TRACE serve --store DIR ...

Wraps each served session's objective in a :class:`clock.ClockedObjective`
(as ``repro.serve.runner.build_objective`` returns it), installs the
:mod:`layers` wrappers too when *TRACE* is 1, and runs
``repro.cli.main`` with the remaining arguments.  On exit (SIGTERM
stops the daemon cleanly) it writes ``REPORT.json``: each session's
clock log keyed by its spec's seed, and the recorded spans and counters.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import repro.serve.runner as runner
from repro.cli import main as cli_main

from clock import ClockedObjective
from layers import Patches, install
from spans import SpanRecorder, dump

#: keeps daemon span ids apart from the client's.
DAEMON_ID_OFFSET = 10 ** 9


def main(argv: list[str]) -> int:
    report, trace, cli_argv = Path(argv[0]), argv[1] == "1", argv[2:]
    logs: dict[str, list] = {}

    def clocked(build):
        def wrapper(spec, **kwargs):
            log = logs.setdefault(str(spec.seed), [])
            return ClockedObjective(build(spec, **kwargs), log)
        return wrapper

    rec = SpanRecorder(id_offset=DAEMON_ID_OFFSET)
    patches = Patches()
    patches.replace(runner, "build_objective", clocked)
    traced = install(rec) if trace else Patches()
    try:
        return cli_main(cli_argv)
    finally:
        traced.restore()
        patches.restore()
        report.write_text(json.dumps({
            "clock": {seed: [entry[:3] for entry in log]
                      for seed, log in logs.items()},
            **dump(rec)}))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
