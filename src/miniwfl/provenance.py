"""Per-run provenance: what ran, when, with which inputs and outputs.

One JSON document per run — enough to answer "what happened, when, and to
which data" for every task, without a full research-object bundle.  The
environment entries that every attempt shares (the host ``PATH``, say) are
recorded once, as the top-level ``env``; each attempt's ``env`` keeps only
the rest, so ``{**record["env"], **attempt["env"]}`` is what its tool got.
"""

from __future__ import annotations

import json
import os
import time
from functools import lru_cache

from .planner import value_to_json

ENGINE_VERSION = "miniwfl 0.1.0"

# compact, with sorted keys: the C encoder, which an ``indent`` would turn off
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _value_record(value):
    return value_to_json(value, include_path=False)


@lru_cache(maxsize=4)  # formatted once per second, not once per event
def _utc_second(second: int) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(second))


def iso_time(ts: float) -> str:
    """UTC ISO-8601 with milliseconds, e.g. ``2024-05-01T12:00:00.250Z``."""
    return _utc_second(int(ts)) + ".%03dZ" % (ts % 1 * 1000)


def _attempt_record(attempt, shared: dict):
    return {
        "attempt": attempt.attempt_number,
        "argv": list(attempt.argv),
        "env": {k: v for k, v in attempt.env.items() if k not in shared},
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
    envs = [a.env.items() for task in result.tasks.values()
            for a in task.attempts]
    shared = dict(set(envs[0]).intersection(*envs[1:])) if envs else {}
    tasks = {}
    for task_id, task in sorted(result.tasks.items()):
        tasks[task_id] = {
            "toolDigest": task.tool_digest,
            "state": task.state,
            "cached": task.cached,
            "attempts": [_attempt_record(a, shared) for a in task.attempts],
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
        "env": shared,
        "tasks": tasks,
        "events": [dict(e) for e in result.event_log],
    }


def _write_json(fh, value, depth: int):
    """Write ``value`` as ``_encode`` would, but encode each member of the
    containers ``depth`` levels down on its own, so that no string of the
    whole value is built."""
    if not depth or not isinstance(value, (dict, list)):
        fh.write(_encode(value))
        return
    keyed = isinstance(value, dict)
    fh.write("{" if keyed else "[")
    for i, item in enumerate(sorted(value.items()) if keyed else value):
        if i:
            fh.write(",")
        if keyed:
            fh.write(_encode(item[0]) + ":")
            item = item[1]
        _write_json(fh, item, depth - 1)
    fh.write("}" if keyed else "]")


def write_provenance(record: dict, sink: str) -> str:
    """Write the record as ``<sink>/<runId>.json``, one line of compact
    JSON with sorted keys, each task and event encoded on its own; returns
    the path."""
    os.makedirs(sink, exist_ok=True)
    path = os.path.join(sink, f"{record['runId']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        _write_json(fh, record, 2)
        fh.write("\n")
    return path
