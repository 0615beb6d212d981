"""Per-run provenance: what ran, when, with which inputs and outputs.

One JSON document per run — enough to answer "what happened, when, and to
which data" for every task, without a full research-object bundle.  The
record states each fact once; what it leaves out is derived, by the rules
that README.md's "Provenance" section gives as code:

- a shard (``<node>[<i>]``) omits ``toolDigest``, which is its node's;
- a scattered node omits ``outputs`` where they are its shards' outputs in
  index order, each output id's list of the shards' values;
- ``cached`` is ``state == "Cached"``;
- an input that a task (not a shard) reads from an edge, and that equals
  the producer's output, is in ``sources`` as ``<producer>/<output>``;
- ``workdir`` and ``tmpdir``, the directories the engine gave an attempt,
  are relative to the top-level ``outdir``, which the written file gives
  relative to its own directory (``..`` under ``<outdir>/provenance/``),
  so that neither depends on where the outdir is (``argv`` keeps what the
  tool got, absolute paths of staged inputs included);
- an attempt's tool got ``{**record["env"], **attempt["env"]}``, where the
  top-level ``env`` holds the entries that every attempt shares (the host
  ``PATH``, say), plus ``HOME`` and ``TMPDIR`` where those are absent: its
  ``workdir`` and its ``tmpdir``.  An ``env`` of null means the attempt
  ended before it had one.  A value set by ``EnvVarRequirement`` is never
  rewritten.
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


def _relative(path, outdir):
    """``path`` relative to ``outdir`` where it lies below it, else as is,
    so that ``os.path.join(outdir, ...)`` gives it back either way."""
    if path and outdir and path.startswith(outdir + os.sep):
        return path[len(outdir) + 1:]
    return path


def _attempt_record(attempt, outdir):
    derived = {"HOME": attempt.workdir, "TMPDIR": attempt.tmpdir}
    return {
        "attempt": attempt.attempt_number,
        "argv": list(attempt.argv),
        # None: the attempt ended before it had an environment
        "env": {k: v for k, v in attempt.env.items()
                if derived.get(k) != v} if attempt.env else None,
        "startTime": (iso_time(attempt.start_time)
                      if attempt.start_time else None),
        "endTime": iso_time(attempt.end_time) if attempt.end_time else None,
        "exitCode": attempt.exit_code,
        "outcome": attempt.outcome,
        "error": attempt.error,
        # where the attempt ran: kept when it failed, else deleted once
        # nothing reads it (see scheduler)
        "workdir": _relative(attempt.workdir, outdir),
        "tmpdir": _relative(attempt.tmpdir, outdir),
    }


def _gathered(tasks: dict, task_id: str):
    """The outputs of a scattered node's shards ``<task_id>[<i>]``, in
    index order, as one list per output id of the first; None without
    shards."""
    shards = []
    while f"{task_id}[{len(shards)}]" in tasks:
        shards.append(tasks[f"{task_id}[{len(shards)}]"]["outputs"])
    if not shards:
        return None
    return {k: [shard.get(k) for shard in shards] for k in shards[0]}


def build_record(result, workflow_digest: str, job: dict,
                 run_id: str) -> dict:
    """Assemble the provenance record for a finished run (any status).
    ``outdir`` is absolute here, the directory that holds the run's work
    root, and None when no attempt made a directory; write_provenance
    writes it relative to the record's own directory."""
    workdirs = [a.workdir for task in result.tasks.values()
                for a in task.attempts if a.workdir]
    outdir = (os.path.dirname(os.path.dirname(workdirs[0]))
              if workdirs else None)
    tasks = {}
    for task_id, task in sorted(result.tasks.items()):
        tasks[task_id] = {
            "toolDigest": task.tool_digest,
            "state": task.state,
            "attempts": [_attempt_record(a, outdir) for a in task.attempts],
            "inputs": {k: _value_record(v)
                       for k, v in sorted(task.inputs.items())},
            "outputs": {k: _value_record(v)
                        for k, v in sorted((task.outputs or {}).items())},
        }
    for task_id, task in result.tasks.items():
        if task.task is not task.node:  # a shard: its node's inputs, split
            continue
        inputs, sources = tasks[task_id]["inputs"], {}
        for name, (kind, ref) in task.node.bindings.items():
            if kind != "edge" or name not in inputs:
                continue
            made = tasks[ref[0]]["outputs"]  # before rule (b) drops any
            if ref[1] in made and inputs[name] == made[ref[1]]:
                sources[name] = "/".join(ref)
                del inputs[name]
        if sources:
            tasks[task_id]["sources"] = sources
    envs = [a["env"] for task in tasks.values() for a in task["attempts"]
            if a["env"] is not None]
    shared = (dict(set(envs[0].items()).intersection(
        *(env.items() for env in envs[1:]))) if envs else {})
    for env in envs:
        for name in shared:
            del env[name]
    for task_id, task in result.tasks.items():
        this = tasks[task_id]
        if task.task is not task.node:  # a shard, which runs its node's tool
            if this["toolDigest"] == tasks[task.node.id]["toolDigest"]:
                del this["toolDigest"]
        elif this["outputs"] == _gathered(tasks, task_id):
            del this["outputs"]
    return {
        "runId": run_id,
        "engineVersion": ENGINE_VERSION,
        "workflowDigest": workflow_digest,
        "status": result.status,
        "jobOrder": {k: _value_record(v) for k, v in sorted(job.items())},
        "outdir": outdir,
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
    JSON with sorted keys, each task and event encoded on its own, and its
    ``outdir`` relative to ``sink``; returns the path."""
    if record["outdir"] is not None:
        record = dict(record, outdir=os.path.relpath(record["outdir"], sink))
    os.makedirs(sink, exist_ok=True)
    path = os.path.join(sink, f"{record['runId']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        _write_json(fh, record, 2)
        fh.write("\n")
    return path
