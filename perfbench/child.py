"""Run one ``miniwfl`` command line in this process, for the harness.

    python3 perfbench/child.py REPORT TRACE RUN_ID -- ARGS...

ARGS go to ``miniwfl.cli.main`` unchanged, from the ``src/`` tree beside
this directory.  With TRACE 0 the only hook is one monotonic timestamp
taken on entry to ``scheduler.run``; with TRACE 1 every layer entry point
is wrapped by ``tracer``.  What was recorded is kept in memory and written
to REPORT once, after the command returns; the exit code is the command's.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main(argv) -> int:
    report, trace, run_id, sep, *args = argv
    if sep != "--":
        raise SystemExit("usage: child.py REPORT TRACE RUN_ID -- ARGS...")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    from miniwfl import cli, scheduler

    if trace == "1":
        import tracer
        recorder = tracer.Recorder(run_id)
        tracer.install(recorder)
        code = cli.main(args)
        recorder.dump(report)
        return code

    entered = []
    run = scheduler.run

    def timed_run(*a, **kw):
        entered.append(time.monotonic())
        return run(*a, **kw)

    scheduler.run = timed_run
    code = cli.main(args)
    with open(report, "w", encoding="utf-8") as fh:
        json.dump({"scheduler_entry": entered[0] if entered else None}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
