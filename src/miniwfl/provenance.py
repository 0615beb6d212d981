"""Per-run provenance: what ran, when, with which inputs and outputs.

One JSON document per run — enough to answer "what happened, when, and to
which data" for every task, without a full research-object bundle.
"""

from __future__ import annotations

import json
import os
import time

from .planner import value_to_json

ENGINE_VERSION = "miniwfl 0.1.0"


def _value_record(value):
    return value_to_json(value, include_path=False)


def iso_time(ts: float) -> str:
    """UTC ISO-8601 with milliseconds, e.g. ``2024-05-01T12:00:00.250Z``."""
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(ts)) + (
        ".%03dZ" % (ts % 1 * 1000))


def _attempt_record(attempt):
    return {
        "attempt": attempt.attempt_number,
        "argv": list(attempt.argv),
        "env": dict(attempt.env),
        "startTime": (iso_time(attempt.start_time)
                      if attempt.start_time else None),
        "endTime": iso_time(attempt.end_time) if attempt.end_time else None,
        "exitCode": attempt.exit_code,
        "outcome": attempt.outcome,
        "error": attempt.error,
        # where the attempt ran: kept when it failed, else deleted once
        # nothing reads it (see scheduler)
        "workdir": attempt.workdir,
    }


def build_record(result, workflow_digest: str, job: dict,
                 run_id: str) -> dict:
    """Assemble the provenance record for a finished run (any status)."""
    tasks = {}
    for task_id, task in sorted(result.tasks.items()):
        tasks[task_id] = {
            "toolDigest": task.tool_digest,
            "state": task.state,
            "cached": task.cached,
            "attempts": [_attempt_record(a) for a in task.attempts],
            "inputs": {k: _value_record(v)
                       for k, v in sorted(task.inputs.items())},
            "outputs": {k: _value_record(v)
                        for k, v in sorted((task.outputs or {}).items())},
        }
    return {
        "runId": run_id,
        "engineVersion": ENGINE_VERSION,
        "workflowDigest": workflow_digest,
        "status": result.status,
        "jobOrder": {k: _value_record(v) for k, v in sorted(job.items())},
        "tasks": tasks,
        "events": [dict(e) for e in result.event_log],
    }


def write_provenance(record: dict, sink: str) -> str:
    """Write the record as ``<sink>/<runId>.json``; returns the path."""
    os.makedirs(sink, exist_ok=True)
    path = os.path.join(sink, f"{record['runId']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path
