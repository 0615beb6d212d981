"""The provenance record states each fact once and loses none: the README's
rules rebuild, from the written record, every fact the run's result held."""

import json
import os

from conftest import cache_entries, provenance_rules, run_cli
from test_acceptance import _stand_in_docker, _upper_case_on_host_and_boxed

from miniwfl import parser, planner, provenance, scheduler
from miniwfl.cache import ResultCache
from miniwfl.runtime import LocalRuntime
from miniwfl.scheduler import Machine, RunConfig, Services

ECHO = {"cwlVersion": "v1.2", "class": "CommandLineTool",
        "baseCommand": ["echo"],
        "inputs": [{"id": "msg", "type": "string", "position": 1}],
        "outputs": [{"id": "out", "type": "File", "capture": "stdout"}],
        "stdout": "out.txt"}
CAT = {"cwlVersion": "v1.2", "class": "CommandLineTool",
       "baseCommand": ["cat"],
       "inputs": [{"id": "fs", "type": "File[]", "position": 1}],
       "outputs": [{"id": "all", "type": "File", "capture": "stdout"}],
       "stdout": "all.txt"}
ENV = {"cwlVersion": "v1.2", "class": "CommandLineTool",
       "baseCommand": ["env"], "inputs": [],
       "outputs": [{"id": "out", "type": "File", "capture": "stdout"}],
       "stdout": "env.txt"}


def _fan_in(width):
    """A ``width``-shard echo scatter ``fan`` into a cat gather."""
    doc = parser.parse_raw({
        "cwlVersion": "v1.2", "class": "Workflow",
        "inputs": [{"id": "items", "type": "string[]"}],
        "outputs": [{"id": "all", "type": "File",
                     "outputSource": "gather/all"}],
        "steps": [
            {"id": "fan", "run": ECHO, "in": {"msg": "items"},
             "scatter": "msg"},
            {"id": "gather", "run": CAT, "in": {"fs": "fan/out"}}]})
    return doc, {"items": [f"line {i}" for i in range(width)]}


def _run(doc, job, work_root, cache=None, use_containers=False,
         on_error="stop"):
    runtime = LocalRuntime(str(work_root), use_containers=use_containers)
    try:
        return scheduler.run(
            planner.plan(doc, job),
            RunConfig(parallelism=2, machine=Machine(cores=4),
                      on_error=on_error),
            Services(runtime, cache), "run")
    finally:
        runtime.close()


def _written(result, sink):
    """The record of ``result`` as written into ``sink``, and its text."""
    path = provenance.write_provenance(
        provenance.build_record(result, "", {}, "run"), str(sink))
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return json.loads(text), text


def _assert_rebuilt(result, sink):
    """Every fact of ``result`` that provenance records, rebuilt by the
    README's rules from the record written into ``sink``, equals it."""
    rules = provenance_rules()
    record, _ = _written(result, sink)
    assert sorted(record["tasks"]) == sorted(result.tasks)
    for task_id, task in result.tasks.items():
        outputs = {k: planner.value_to_json(v, include_path=False)
                   for k, v in (task.outputs or {}).items()}
        assert rules["task_facts"](record, task_id) == (
            task.tool_digest, task.state, task.cached, outputs), task_id
        assert rules["task_inputs"](record, task_id) == {
            k: planner.value_to_json(v, include_path=False)
            for k, v in task.inputs.items()}, task_id
        attempts = record["tasks"][task_id]["attempts"]
        assert len(attempts) == len(task.attempts)
        for written, attempt in zip(attempts, task.attempts):
            assert rules["attempt_env"](record, str(sink), written) \
                == attempt.env
            assert rules["attempt_dirs"](record, str(sink), written) \
                == [attempt.workdir, attempt.tmpdir]
    return record


def test_a_scatter_into_a_gather_and_its_warm_rerun_lose_no_fact(tmp_path):
    doc, job = _fan_in(4)
    cache = ResultCache(str(tmp_path / "cache"))
    try:
        cold = _run(doc, job, tmp_path / "cold" / ".work", cache)
        warm = _run(doc, job, tmp_path / "warm" / ".work", cache)
    finally:
        cache.close()
    assert cold.status == warm.status == "Success"
    record = _assert_rebuilt(cold, tmp_path / "cold" / "provenance")
    assert record["outdir"] == ".."
    assert "outputs" not in record["tasks"]["fan"]
    assert all("toolDigest" not in record["tasks"][f"fan[{i}]"]
               for i in range(4))
    gather = record["tasks"]["gather"]
    assert (gather["inputs"], gather["sources"]) == ({}, {"fs": "fan/out"})
    assert not any("cached" in task for task in record["tasks"].values())
    assert {task.state for task in warm.tasks.values()} == {"Cached"}
    record = _assert_rebuilt(warm, tmp_path / "warm" / "provenance")
    assert record["outdir"] is None  # no attempt, so no directory


def test_the_gathers_inputs_do_not_grow_with_the_scatter(tmp_path):
    """A gather records the scatter output it reads by name, so its
    ``inputs`` and ``sources`` take as many bytes for 2 shards as for 20."""
    sizes = []
    for width in (2, 20):
        result = _run(*_fan_in(width), tmp_path / str(width) / ".work")
        assert result.status == "Success"
        record = _assert_rebuilt(result, tmp_path / str(width) / "provenance")
        gather = record["tasks"]["gather"]
        sizes.append(len(json.dumps([gather["inputs"], gather["sources"]])))
    assert sizes[0] == sizes[1]


def test_an_env_that_sets_home_and_tmpdir_loses_no_fact(tmp_path):
    """Values an EnvVarRequirement sets are written as they are, one of
    them an absolute path under the outdir."""
    tool = dict(ENV, requirements=[{
        "class": "EnvVarRequirement",
        "envDef": {"HOME": "home", "TMPDIR": "$(runtime.outdir)/t"}}])
    doc = parser.parse_raw({
        "cwlVersion": "v1.2", "class": "Workflow", "inputs": [],
        "outputs": [{"id": name, "type": "File",
                     "outputSource": f"{name}/out"}
                    for name in ("own", "host")],
        "steps": [{"id": "own", "run": tool, "in": {}},
                  {"id": "host", "run": ENV, "in": {}}]})
    result = _run(doc, {}, tmp_path / "out" / ".work")
    assert result.status == "Success"
    record = _assert_rebuilt(result, tmp_path / "out" / "provenance")
    (own,) = result.tasks["own"].attempts
    assert own.env["TMPDIR"].startswith(str(tmp_path / "out" / ".work"))
    (written,) = record["tasks"]["own"]["attempts"]
    assert (written["env"]["HOME"], written["env"]["TMPDIR"]) \
        == ("home", own.env["TMPDIR"])
    (written,) = record["tasks"]["host"]["attempts"]
    assert "HOME" not in written["env"] and "TMPDIR" not in written["env"]


def test_an_attempt_ended_before_its_environment_loses_no_fact(tmp_path):
    """An attempt that fails after staging, before its spawn, has a
    directory and no environment, and keeps no entry from being shared."""
    bad = dict(ECHO, requirements=[{
        "class": "InitialWorkDirRequirement",
        "listing": [{"entry": "$(inputs.nope.path)"}]}])
    doc = parser.parse_raw({
        "cwlVersion": "v1.2", "class": "Workflow",
        "inputs": [{"id": "msg", "type": "string"}], "outputs": [],
        "steps": [{"id": "bad", "run": bad, "in": {"msg": "msg"}},
                  {"id": "ok", "run": ECHO, "in": {"msg": "msg"}}]})
    result = _run(doc, {"msg": "x"}, tmp_path / "out" / ".work",
                  on_error="continue")
    assert result.tasks["bad"].state == "Failed"
    (attempt,) = result.tasks["bad"].attempts
    assert attempt.workdir is not None and attempt.env == {}
    record = _assert_rebuilt(result, tmp_path / "out" / "provenance")
    assert record["tasks"]["bad"]["attempts"][0]["env"] is None
    assert record["env"] == {"PATH": os.environ["PATH"]}


def test_a_container_attempt_loses_no_fact(tmp_path, monkeypatch):
    _stand_in_docker(tmp_path, monkeypatch)
    host, boxed = _upper_case_on_host_and_boxed(tmp_path)
    _assert_rebuilt(host, tmp_path / "host-provenance")
    record = _assert_rebuilt(boxed, tmp_path / "boxed-provenance")
    (attempt,) = record["tasks"]["up"]["attempts"]
    assert {**record["env"], **attempt["env"]} == {
        "HOME": "/miniwfl/outdir", "TMPDIR": "/tmp"}


SCATTER_WF = """\
cwlVersion: v1.2
class: Workflow
inputs:
  items: "string[]"
outputs:
  outs: {type: "File[]", outputSource: fan/out}
steps:
  fan:
    run: echo.cwl
    scatter: [msg]
    in: {msg: items}
"""

# bytes per task of a 300-shard echo scatter's record (about 650 measured;
# the host's PATH is in it once); a change that records more per task, such
# as per-attempt phase timings or cache keys, raises it here
BYTES_PER_TASK = 700
# bytes per entry of the cache index after the same scatter (about 250
# measured, 410 when each row held hex text, "class", an inline payload's
# size and a float time); a change that stores more per entry raises it here
BYTES_PER_ENTRY = 300
WIDTH = 300


def _run_scatter(tmp_path, outdir):
    """Run the ``WIDTH``-shard echo scatter into ``outdir``, with the
    cache beside it in ``<outdir>.cache``."""
    (tmp_path / "echo.cwl").write_text(json.dumps(ECHO))
    (tmp_path / "wf.cwl").write_text(SCATTER_WF)
    (tmp_path / "job.json").write_text(json.dumps(
        {"items": [str(i) for i in range(WIDTH)]}))
    code, _ = run_cli([
        "run", str(tmp_path / "wf.cwl"), str(tmp_path / "job.json"),
        "--outdir", str(outdir), "--cache-dir", str(outdir) + ".cache",
        "--parallel", "2", "--no-container", "--quiet"])
    assert code == 0


def test_record_length_is_independent_of_the_outdir_path(tmp_path):
    """Two runs into outdirs whose paths differ in length write records of
    one length, within the bytes-per-task budget."""
    sizes = []
    for outdir in (tmp_path / "o", tmp_path / ("outdir-" + "x" * 40)):
        _run_scatter(tmp_path, outdir)
        (path,) = (outdir / "provenance").iterdir()
        assert str(tmp_path) not in path.read_text()
        sizes.append(path.stat().st_size)
    assert sizes[0] == sizes[1]
    assert sizes[0] <= BYTES_PER_TASK * (WIDTH + 1), sizes[0] / (WIDTH + 1)


OPTIONAL = type(None)
# key -> allowed types at each level of a record; a task leaves out what
# the README's rules rebuild, so some of its keys are optional
RUN_KEYS = {"runId": str, "engineVersion": str, "workflowDigest": str,
            "status": str, "jobOrder": dict, "outdir": (str, OPTIONAL),
            "env": dict, "tasks": dict, "events": list}
TASK_KEYS = {"state": str, "attempts": list, "inputs": dict}
TASK_OPTIONAL_KEYS = {"toolDigest": str, "outputs": dict, "sources": dict}
ATTEMPT_KEYS = {"attempt": int, "argv": list, "env": (dict, OPTIONAL),
                "startTime": (str, OPTIONAL), "endTime": (str, OPTIONAL),
                "exitCode": (int, OPTIONAL), "outcome": str,
                "error": (str, OPTIONAL), "workdir": (str, OPTIONAL),
                "tmpdir": (str, OPTIONAL)}
EVENT_KEYS = {"ts": str, "task": str, "transition": str, "attempt": int}
STATES = {"Succeeded", "Cached", "Skipped", "Failed", "Cancelled"}


def _assert_shape(value, keys, optional=None):
    optional = optional or {}
    assert set(keys) <= set(value) <= set(keys) | set(optional), value
    for key, item in value.items():
        assert isinstance(item, {**keys, **optional}[key]), (key, item)


def test_the_record_schema(tmp_path):
    """The key set and value types at the run, task, attempt and event
    levels, over a run with a scatter, a gather whose input is a source,
    a failed step and a step it left Cancelled."""
    fail = dict(ECHO, baseCommand=["false"])
    doc = parser.parse_raw({
        "cwlVersion": "v1.2", "class": "Workflow",
        "inputs": [{"id": "items", "type": "string[]"}],
        "outputs": [{"id": "all", "type": "File",
                     "outputSource": "gather/all"}],
        "steps": [
            {"id": "fan", "run": ECHO, "in": {"msg": "items"},
             "scatter": "msg"},
            {"id": "gather", "run": CAT, "in": {"fs": "fan/out"}},
            {"id": "bad", "run": fail, "in": {"msg": "items"},
             "scatter": "msg"},
            {"id": "down", "run": CAT, "in": {"fs": "bad/out"}}]})
    result = _run(doc, {"items": ["a", "b"]}, tmp_path / "out" / ".work",
                  on_error="continue")
    record = _assert_rebuilt(result, tmp_path / "out" / "provenance")
    _assert_shape(record, RUN_KEYS)
    for task_id, task in record["tasks"].items():
        _assert_shape(task, TASK_KEYS, TASK_OPTIONAL_KEYS)
        assert task["state"] in STATES, task_id
        assert all(isinstance(source, str) and "/" in source
                   for source in task.get("sources", {}).values())
        for attempt in task["attempts"]:
            _assert_shape(attempt, ATTEMPT_KEYS)
    for event in record["events"]:
        _assert_shape(event, EVENT_KEYS)
    tasks = record["tasks"]
    assert tasks["gather"]["sources"] == {"fs": "fan/out"}
    assert (tasks["bad"]["state"], tasks["down"]["state"]) \
        == ("Failed", "Cancelled")
    last = record["events"][-1]
    assert (last["task"], last["transition"], last["attempt"]) \
        == ("down", "Cancelled", 0)


def test_cache_index_bytes_per_entry(tmp_path):
    """The same scatter leaves one index row per shard, each within the
    bytes-per-entry budget."""
    _run_scatter(tmp_path, tmp_path / "o")
    cache_dir = tmp_path / "o.cache"
    assert len(cache_entries(str(cache_dir))) == WIDTH
    size = (cache_dir / "ac.sqlite").stat().st_size
    assert size <= BYTES_PER_ENTRY * WIDTH, size / WIDTH
