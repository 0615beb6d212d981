"""CLI surface: exit codes, stdout purity, subcommand behavior."""

import ast
import contextlib
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import miniwfl
from conftest import (
    cache_entries,
    prepare_case,
    provenance_rules,
    run_case,
    run_cli,
)
from miniwfl.cache import _INLINE_MAX

TOOL = """\
cwlVersion: v1.2
class: CommandLineTool
baseCommand: [echo]
inputs:
  msg: {type: string, position: 1}
outputs:
  out: {type: File, capture: stdout}
stdout: out.txt
"""

WF = """\
cwlVersion: v1.2
class: Workflow
inputs:
  msg: string
outputs:
  out: {type: File, outputSource: say/out}
steps:
  say:
    run: tool.cwl
    in: {msg: msg}
"""


@pytest.fixture
def project(tmp_path):
    (tmp_path / "tool.cwl").write_text(TOOL)
    (tmp_path / "wf.cwl").write_text(WF)
    (tmp_path / "job.yml").write_text("msg: cli test\n")
    return tmp_path


def _long_output(project):
    """Have ``say`` echo more bytes than a cache entry holds inline, so
    that its output is a ``cas/`` payload file; returns the output."""
    msg = "cli test " + "x" * _INLINE_MAX
    (project / "job.yml").write_text(f"msg: {msg}\n")
    return msg + "\n"


def _run_args(project, *extra):
    return ["run", str(project / "wf.cwl"), str(project / "job.yml"),
            "--outdir", str(project / "out"),
            "--cache-dir", str(project / "cache"),
            "--no-container", "--quiet", *extra]


def test_run_success_exit_zero_and_json_stdout(project):
    code, out = run_cli(_run_args(project))
    assert code == 0
    obj = json.loads(out)  # --quiet stdout is exactly the output object
    assert obj["out"]["class"] == "File"
    assert os.path.isfile(obj["out"]["path"])
    assert open(obj["out"]["path"]).read() == "cli test\n"
    assert obj["out"]["path"].startswith(str(project / "out"))


def test_run_writes_provenance(project):
    code, _ = run_cli(_run_args(project))
    assert code == 0
    prov_dir = project / "out" / "provenance"
    (record_path,) = prov_dir.iterdir()
    record = json.loads(record_path.read_text())
    assert record["status"] == "Success"
    assert record["tasks"]["say"]["state"] == "Succeeded"
    (attempt,) = record["tasks"]["say"]["attempts"]
    assert attempt["argv"] == ["echo", "cli test"]
    assert attempt["exitCode"] == 0
    # where it ran, relative to the outdir, which is relative to the
    # record's directory; deleted once stage-out linked its output
    assert record["outdir"] == ".."
    assert attempt["workdir"].startswith(".work/")
    assert not os.path.exists(project / "out" / attempt["workdir"])
    assert record["jobOrder"] == {"msg": "cli test"}
    assert len(record["workflowDigest"]) == 64


ENV_TOOL = json.dumps({
    "cwlVersion": "v1.2", "class": "CommandLineTool", "baseCommand": ["env"],
    "inputs": {}, "outputs": {"out": {"type": "File", "capture": "stdout"}},
    "stdout": "env.txt"})


def _types(value: dict) -> dict:
    return {k: type(v).__name__ for k, v in value.items()}


def test_provenance_record_schema_and_its_shared_env(project):
    """The record's keys and value types at each level are pinned, and the
    environment is recorded losslessly: the top-level ``env`` holds what
    every attempt shares and each attempt what it adds, which for ``own``
    is the PATH its EnvVarRequirement sets; the README's rule adds HOME
    and TMPDIR, its ``workdir`` and ``tmpdir``."""
    own_path = "/usr/bin:/bin:/miniwfl-test"
    assert own_path != os.environ["PATH"]
    (project / "env.cwl").write_text(ENV_TOOL)
    (project / "wf.cwl").write_text(json.dumps({
        "cwlVersion": "v1.2", "class": "Workflow", "inputs": {},
        "outputs": {name: {"type": "File", "outputSource": f"{name}/out"}
                    for name in ("host", "own")},
        "steps": {
            "host": {"run": "env.cwl", "in": {}},
            "own": {"run": "env.cwl", "in": {}, "requirements": [{
                "class": "EnvVarRequirement",
                "envDef": {"PATH": own_path, "EXTRA": "1"}}]}}}))
    (project / "job.yml").write_text("{}\n")
    code, out = run_cli(_run_args(project, "--parallel", "1"))
    assert code == 0
    (record_path,) = (project / "out" / "provenance").iterdir()
    text = record_path.read_text()
    record = json.loads(text)
    # one line of compact JSON, the C encoder's bytes
    assert text == json.dumps(record, sort_keys=True,
                              separators=(",", ":")) + "\n"
    assert _types(record) == {
        "runId": "str", "engineVersion": "str", "workflowDigest": "str",
        "status": "str", "jobOrder": "dict", "outdir": "str", "env": "dict",
        "tasks": "dict", "events": "list"}
    assert sorted(record["tasks"]) == ["host", "own"]
    for task in record["tasks"].values():
        assert _types(task) == {
            "toolDigest": "str", "state": "str", "attempts": "list",
            "inputs": "dict", "outputs": "dict"}
        assert _types(task["outputs"]["out"]) == {
            "class": "str", "basename": "str", "size": "int",
            "checksum": "str"}
        (attempt,) = task["attempts"]
        assert _types(attempt) == {
            "attempt": "int", "argv": "list", "env": "dict",
            "startTime": "str", "endTime": "str", "exitCode": "int",
            "outcome": "str", "error": "NoneType", "workdir": "str",
            "tmpdir": "str"}
    assert record["events"] and all(_types(e) == {
        "ts": "str", "task": "str", "transition": "str", "attempt": "int"}
        for e in record["events"])
    # HOME and TMPDIR are each attempt's own directories, and PATH differs
    assert record["env"] == {}
    outputs = json.loads(out)
    attempt_env = provenance_rules()["attempt_env"]
    for name, task in record["tasks"].items():
        (attempt,) = task["attempts"]
        assert set(attempt["env"]).isdisjoint(record["env"])
        got = dict(line.split("=", 1) for line in
                   Path(outputs[name]["path"]).read_text().splitlines())
        assert got == attempt_env(record, str(record_path.parent), attempt)
    assert record["tasks"]["host"]["attempts"][0]["env"]["PATH"] \
        == os.environ["PATH"]
    own = record["tasks"]["own"]["attempts"][0]["env"]
    assert (own["PATH"], own["EXTRA"]) == (own_path, "1")


def test_provenance_records_where_a_failed_attempt_is_kept(project):
    (project / "tool.cwl").write_text(TOOL.replace(
        "[echo]", "[sh, -c, 'echo partial > part.txt; exit 3']"))
    code, _ = run_cli(_run_args(project))
    assert code == 2
    (record_path,) = (project / "out" / "provenance").iterdir()
    record = json.loads(record_path.read_text())
    (attempt,) = record["tasks"]["say"]["attempts"]
    assert attempt["exitCode"] == 3
    workdir = Path(os.path.normpath(
        record_path.parent / record["outdir"] / attempt["workdir"]))
    assert workdir.parent == project / "out" / ".work"
    assert (workdir / "part.txt").read_text() == "partial\n"


def test_validation_failure_exits_one(project):
    (project / "wf.cwl").write_text(WF.replace("say/out", "ghost/out"))
    code, out = run_cli(_run_args(project))
    assert code == 1
    assert out == ""


def test_unparseable_document_exits_one(project):
    (project / "wf.cwl").write_text("cwlVersion: v1.2\nclass: Mystery\n")
    code, _ = run_cli(_run_args(project))
    assert code == 1


def test_runtime_failure_exits_two(project):
    (project / "tool.cwl").write_text(TOOL.replace("[echo]", '["false"]')
                                      .replace("capture: stdout",
                                               "glob: never.txt"))
    code, out = run_cli(_run_args(project))
    assert code == 2
    assert json.loads(out) == {"out": None}


def test_usage_error_exits_three(project):
    code, _ = run_cli(["frobnicate"])
    assert code == 3
    code, _ = run_cli(["run", str(project / "wf.cwl")])  # missing job order
    assert code == 3


def test_bad_job_order_exits_one(project):
    (project / "job.yml").write_text("msg: 7\n")
    code, _ = run_cli(_run_args(project))
    assert code == 1


MAIN = "import sys; from miniwfl import cli; sys.exit(cli.main(sys.argv[1:]))"

LATIN1_TOOL = TOOL.replace("baseCommand", "doc: caf\xe9\nbaseCommand") \
    .encode("latin-1")


@pytest.mark.parametrize("argv, files, code", [
    (["run", "nope.cwl", "job.yml"], {}, 1),
    (["validate", "."], {}, 1),
    (["validate", "tool.cwl"], {"tool.cwl": LATIN1_TOOL}, 1),
    (["run", "wf.cwl", "job.yml"], {"tool.cwl": LATIN1_TOOL}, 1),
    (["run", "wf.cwl", "nojob.yml"], {}, 1),
    (["run", "wf.cwl", "job.yml"], {"job.yml": b"msg: [cli\n"}, 1),
    (["run", "wf.cwl", "job.yml", "--parallel", "0"], {}, 3),
    (["run", "wf.cwl", "job.yml", "--retries", "-1"], {}, 3),
    (["validate", "tool.cwl"],
     {"tool.cwl": TOOL.replace("position: 1", "position: true").encode()}, 1),
    (["validate", "tool.cwl"],
     {"tool.cwl": (TOOL + "successCodes: [true]\n").encode()}, 1),
    (["validate", "tool.cwl"], {"tool.cwl": (
        TOOL + "requirements: {ResourceRequirement: {coresMin: true}}\n")
        .encode()}, 1),
], ids=["missing-workflow", "directory", "latin-1-workflow",
        "latin-1-step-tool", "missing-job-order", "malformed-job-order",
        "parallel-0", "negative-retries", "boolean-position",
        "boolean-success-code", "boolean-cores"])
def test_unreadable_input_or_bad_option_is_refused_without_a_traceback(
        project, argv, files, code):
    for name, data in files.items():
        (project / name).write_bytes(data)
    src = os.path.dirname(os.path.dirname(miniwfl.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", MAIN, *argv], cwd=project,
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith("miniwfl: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert not (project / "out").exists()


# each module that the engine's own sources import, and why; a change that
# adds an import adds it here, and says why in CHANGES.md
ENGINE_IMPORTS = {
    "__future__": "annotations, in every module",
    "argparse": "cli: the command line",
    "base64": "cache: inline payloads in the index",
    "collections": "scheduler: the ledger is a Counter",
    "contextlib": "runtime, cache: suppress, redirect",
    "functools": "model: per-tool memos; provenance: per-second stamps",
    "glob": "runtime: output globs",
    "hashlib": "planner, parser, cache: checksums and digests",
    "heapq": "planner: topological order; scheduler: admission",
    "json": "parser, cache, provenance: canonical forms and records",
    "operator": "model: a record's compared fields",
    "os": "everywhere: the filesystem",
    "pathlib": "cache: writing an inline payload's file",
    "re": "model, expression: types and expressions",
    "shutil": "runtime, cache: copies, deletes, tool lookup",
    "signal": "cli, runtime: interrupts, killing a session",
    "stat": "planner, runtime, cache: file modes",
    "subprocess": "runtime: spawning tools",
    "threading": "runtime, scheduler, cache: the run's workers and locks",
    "typing": "annotations",
    "yaml": "parser, planner: documents and job orders",
}
# what those load in turn, on CPython 3.11; PyYAML's own modules (yaml.*,
# and the Cython runtime of its libyaml binding) are left to its build
PULLED_IN = {
    "_blake2", "_bz2", "_collections", "_collections_abc", "_compression",
    "_datetime", "_functools", "_hashlib", "_heapq", "_json", "_locale",
    "_lzma", "_operator", "_posixsubprocess", "_sre", "_stat", "_struct",
    "_typing", "_weakrefset", "binascii", "bz2", "collections.abc",
    "copyreg", "datetime", "enum", "errno", "fcntl", "fnmatch",
    "genericpath", "gettext", "ipaddress", "itertools", "json.decoder",
    "json.encoder", "json.scanner", "keyword", "locale", "lzma", "math",
    "ntpath", "os.path", "posixpath", "re._casefix", "re._compiler",
    "re._constants", "re._parser", "reprlib", "select", "selectors",
    "struct", "types", "typing.io", "typing.re", "urllib", "urllib.parse",
    "warnings", "zlib",
}


def test_cli_import_skips_the_modules_a_run_does_not_need():
    """The modules that ``import miniwfl.cli`` adds to a bare start are
    pinned.  Names come from ``os.urandom`` and workers hand work over
    under one lock: the engine's import loads no ``uuid`` (which loads
    ``platform``), ``concurrent.futures`` or ``queue``.  The child runs
    with ``-S`` and its path set by hand, so that no ``.pth`` hook of the
    host adds modules of its own."""
    import yaml
    paths = [os.path.dirname(os.path.dirname(miniwfl.__file__)),
             os.path.dirname(os.path.dirname(yaml.__file__))]
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys; bare = set(sys.modules); "
         f"sys.path[:0] = {paths!r}; import miniwfl.cli; "
         "print(sorted(set(sys.modules) - bare))"],
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(ast.literal_eval(proc.stdout))
    assert not {"uuid", "concurrent.futures", "queue"} & loaded
    own = {m for m in loaded if m.startswith("miniwfl")}
    assert own == {"miniwfl", *(f"miniwfl.{name}" for name in (
        "cache", "cli", "errors", "expression", "model", "parser",
        "planner", "provenance", "runtime", "scheduler", "upgrader",
        "validator"))}
    yaml_build = {m for m in loaded if m.startswith(("yaml.", "_cython_"))
                  or m == "cython_runtime"}
    assert set(ENGINE_IMPORTS) <= loaded
    if sys.version_info[:2] == (3, 11):  # the list's interpreter
        assert loaded - own - yaml_build - set(ENGINE_IMPORTS) == PULLED_IN


def test_cli_import_compiles_only_the_engines_sources():
    """With the modules pinned above already loaded, ``import miniwfl.cli``
    compiles nothing but ``miniwfl/*.py``: defining the engine's records
    generates no code, as dataclasses did with an ``exec`` per method."""
    import yaml
    package = os.path.dirname(miniwfl.__file__)
    paths = [os.path.dirname(package),
             os.path.dirname(os.path.dirname(yaml.__file__))]
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import importlib, sys\n"
         f"sys.path[:0] = {paths!r}\n"
         f"for name in {sorted({*ENGINE_IMPORTS, *PULLED_IN})!r}:\n"
         "    try:\n"
         "        importlib.import_module(name)\n"
         "    except ImportError:\n"  # a name another interpreter lacks
         "        pass\n"
         "compiled = []\n"
         "sys.addaudithook(lambda event, args: event == 'compile'\n"
         "                 and compiled.append(str(args[1])))\n"
         "import miniwfl.cli\n"
         "print(compiled)"],
        env={**{k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
             "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    compiled = ast.literal_eval(proc.stdout)
    assert {os.path.dirname(path) for path in compiled} <= {package}, compiled
    assert all(path.endswith(".py") for path in compiled)


def test_validate_subcommand(project):
    code, out = run_cli(["validate", str(project / "wf.cwl")])
    assert code == 0
    assert out == ""
    (project / "wf.cwl").write_text(WF.replace("say/out", "ghost/out"))
    code, out = run_cli(["validate", str(project / "wf.cwl")])
    assert code == 1
    lines = [json.loads(l) for l in out.splitlines()]
    assert any(d["code"] == "DanglingReference" for d in lines)


@pytest.mark.parametrize("command, tool, wf, code, location", [
    ("validate", TOOL, WF.replace("{msg: msg}", "{msg: msg, ghost: msg}"),
     "DanglingReference", "$/steps/say/in/ghost"),
    ("validate", TOOL,
     WF.replace("{msg: msg}", "{msg: msg}\n    scatter: msg")
       .replace("{type: File,", '{type: "File[]",'),
     "TypeMismatch", "$/steps/say/in/msg"),
    ("validate",
     TOOL.replace("position: 1}", 'position: 1, format: "iana:text/plain"}'),
     WF.replace("msg: string", 'msg: {type: string, format: "iana:text/csv"}'),
     "FormatMismatch", "$/steps/say/in/msg"),
    ("graph", TOOL, WF.replace("say/out", "ghost/out"),
     "DanglingReference", "$/outputs/out"),
], ids=["unknown-input", "scattered-input", "step-format", "graph-invalid"])
def test_findings_name_their_code_and_location(project, capsys, command,
                                               tool, wf, code, location):
    (project / "tool.cwl").write_text(tool)
    (project / "wf.cwl").write_text(wf)
    exit_code, out = run_cli([command, str(project / "wf.cwl")])
    lines = out if command == "validate" else capsys.readouterr().err
    assert exit_code == 1
    assert [(d["code"], d["location"]) for d in map(json.loads,
                                                   lines.splitlines())] \
        == [(code, location)]
    assert command == "validate" or out == ""


@pytest.mark.parametrize("command", ["run", "graph"])
def test_commands_needing_a_workflow_refuse_a_tool(project, capsys, command):
    argv = [command, str(project / "tool.cwl")]
    if command == "run":
        argv += [str(project / "job.yml"), "--outdir", str(project / "out"),
                 "--no-container", "--quiet"]
    code, out = run_cli(argv)
    assert (code, out) == (1, "")
    assert capsys.readouterr().err \
        == f"miniwfl: {command} requires a Workflow document\n"
    assert not (project / "out").exists()


def test_graph_subcommand_emits_dot(project):
    code, out = run_cli(["graph", str(project / "wf.cwl")])
    assert code == 0
    assert out.startswith("digraph")
    assert '"say"' in out


def test_upgrade_subcommand(project):
    v10 = WF.replace("v1.2", "v1.0")
    (project / "tool.cwl").write_text(TOOL.replace("v1.2", "v1.0"))
    (project / "old.cwl").write_text(v10)
    code, out = run_cli(["upgrade", str(project / "old.cwl"),
                         "--target", "v1.2"])
    assert code == 0
    upgraded = json.loads(out)
    assert upgraded["cwlVersion"] == "v1.2"
    assert upgraded["steps"][0]["run"]["cwlVersion"] == "v1.2"


def test_upgrade_downgrade_is_usage_error(project):
    code, _ = run_cli(["upgrade", str(project / "wf.cwl"),
                       "--target", "v1.0"])
    assert code == 3


def test_warm_cache_run_produces_identical_output(project):
    code1, out1 = run_cli(_run_args(project))
    code2, out2 = run_cli(_run_args(project))
    assert code1 == code2 == 0
    o1, o2 = json.loads(out1), json.loads(out2)
    assert o1["out"]["checksum"] == o2["out"]["checksum"]


def _run_once(project):
    """One run: its output object and the state of ``say`` in its
    provenance record, which is then removed for the next run."""
    code, out = run_cli(_run_args(project))
    assert code == 0
    (record,) = (project / "out" / "provenance").iterdir()
    state = json.loads(record.read_text())["tasks"]["say"]["state"]
    record.unlink()
    return json.loads(out)["out"], state


def _copies(monkeypatch):
    calls = []
    copyfile = shutil.copyfile
    monkeypatch.setattr(shutil, "copyfile", lambda src, dst, **kw:
                        calls.append(dst) or copyfile(src, dst, **kw))
    return calls


def _released(monkeypatch):
    """The inode of each file under each directory the run releases, and
    under ``cached/``, which the run's end removes, taken just before they
    are deleted."""
    from miniwfl.runtime import LocalRuntime
    inodes = []
    release, close = LocalRuntime.release, LocalRuntime.close

    def files(path):
        return [os.stat(f).st_ino for f in Path(path).rglob("*")
                if f.is_file()]

    def spy(self, path):
        inodes.extend(files(path))
        release(self, path)

    def spy_close(self):
        inodes.extend(files(self.cached_dir))
        close(self)

    monkeypatch.setattr(LocalRuntime, "release", spy)
    monkeypatch.setattr(LocalRuntime, "close", spy_close)
    return inodes


def test_staged_output_is_one_inode_with_its_work_output_and_blob(
        project, monkeypatch):
    text = _long_output(project)
    copies = _copies(monkeypatch)
    for expected in ("Succeeded", "Cached"):
        released = _released(monkeypatch)
        out, state = _run_once(project)
        assert state == expected
        # the .work name (say's output, then the hit's link in cached/)
        # was the same inode, and was deleted after stage-out, with .work
        # itself: by its release, or with the run directory
        assert released == [os.stat(out["path"]).st_ino]
        assert not (project / "out" / ".work").exists()
        blob = project / "cache" / "cas" / out["checksum"]
        assert os.path.samefile(out["path"], blob)
        assert os.stat(blob).st_nlink == 2
        assert Path(out["path"]).read_text() == text
    assert copies == []  # stage-out and the hit link; nothing is copied


def test_passthrough_input_is_copied_not_linked(tmp_path, monkeypatch):
    prepare_case("passthrough", str(tmp_path / "case"))
    copies = _copies(monkeypatch)
    code, outputs = run_case("passthrough", str(tmp_path),
                             str(tmp_path / "cache"))
    assert code == 0
    data = tmp_path / "case" / "data.txt"
    # one copy, made under a temporary name and renamed to the output
    (copy,) = copies
    assert copy.startswith(outputs["same"]["path"] + ".")
    assert not os.path.exists(copy)
    assert not os.path.samefile(outputs["same"]["path"], data)
    assert data.stat().st_nlink == 1


def test_leftover_of_an_older_work_layout_never_reaches_a_hit(project):
    text = _long_output(project)
    _run_once(project)
    out, state = _run_once(project)
    assert state == "Cached"
    # where hits were published before each run had a directory of its own
    published = project / "out" / ".work" / "cached" / out["checksum"]
    blob = project / "cache" / "cas" / out["checksum"]
    assert not published.parent.exists()  # released after stage-out
    published.parent.mkdir(parents=True)
    published.write_text("other bytes\n")
    out, state = _run_once(project)
    assert state == "Cached"
    assert os.path.samefile(out["path"], blob)
    assert Path(out["path"]).read_text() == text
    assert blob.read_text() == text


def test_editing_a_staged_output_makes_the_task_run_again(project):
    text = _long_output(project)
    out, state = _run_once(project)
    with open(out["path"], "w") as fh:  # in place: the blob's inode too
        fh.write("edited in --outdir\n")
    out, state = _run_once(project)
    assert state == "Succeeded"
    assert Path(out["path"]).read_text() == text
    out, state = _run_once(project)
    assert state == "Cached"


def test_editing_a_staged_small_output_keeps_its_entry(project):
    """A small output's payload is its entry's copy of the bytes, which an
    edit in --outdir does not reach: the next run is a hit, and stages the
    original bytes beside the edited file."""
    out, state = _run_once(project)
    staged = out["path"]
    with open(staged, "w") as fh:
        fh.write("edited in --outdir\n")
    out, state = _run_once(project)
    assert state == "Cached"
    assert out["path"] == str(project / "out" / "out.1.txt")
    assert Path(out["path"]).read_text() == "cli test\n"
    assert Path(staged).read_text() == "edited in --outdir\n"


def test_entry_of_the_wrong_shape_runs_the_task_again(project):
    _run_once(project)
    cache_dir = str(project / "cache")
    (key,) = cache_entries(cache_dir)
    cache_entries(cache_dir, {key: "{}"})
    out, state = _run_once(project)
    assert state == "Succeeded"
    assert json.loads(cache_entries(cache_dir)[key])["out"][
        "checksum"] == out["checksum"]
    assert _run_once(project)[1] == "Cached"


@pytest.mark.parametrize("name", ["provenance", ".work"])
def test_output_named_like_a_directory_in_the_outdir_moves_on(project, name):
    (project / "tool.cwl").write_text(
        TOOL.replace("[echo]", f"[sh, -c, 'echo hi > {name}']")
            .replace("{type: File, capture: stdout}",
                     f"{{type: File, glob: {name}}}"))
    code, out = run_cli(_run_args(project))
    assert code == 0
    staged = json.loads(out)["out"]
    assert staged["path"] == str(project / "out" / f"{name}.1")
    assert Path(staged["path"]).read_text() == "hi\n"


def test_on_error_flag_validation(project):
    code, _ = run_cli(_run_args(project, "--on-error", "explode"))
    assert code == 3


APPEND_TOOL = """\
cwlVersion: v1.2
class: CommandLineTool
baseCommand: [sh, -c, '[ "$0" = 0 ] && echo appended >> "$1"; cat "$1"']
inputs:
  i: {type: int, position: 1}
  f: {type: File, position: 2}
outputs:
  out: {type: File, capture: stdout}
stdout: seen.txt
"""

APPEND_WF = """\
cwlVersion: v1.2
class: Workflow
inputs:
  f: File
  shards: int[]
outputs:
  seen: {type: "File[]", outputSource: read/out}
steps:
  read:
    run: append.cwl
    scatter: [i]
    in: {i: shards, f: f}
"""


def test_shard_writing_its_input_leaves_siblings_intact(tmp_path):
    (tmp_path / "append.cwl").write_text(APPEND_TOOL)
    (tmp_path / "wf.cwl").write_text(APPEND_WF)
    original = "original\n" * 1000
    (tmp_path / "data.txt").write_text(original)
    (tmp_path / "job.yml").write_text(
        "f: {class: File, path: data.txt}\nshards: [0, 1, 2, 3, 4, 5]\n")
    out = tmp_path / "out"
    code, _ = run_cli(["run", str(tmp_path / "wf.cwl"),
                       str(tmp_path / "job.yml"), "--outdir", str(out),
                       "--no-reuse", "--no-container", "--quiet",
                       "--parallel", "2"])
    # the shards share one read-only copy of data.txt, which CWL forbids a
    # tool to write unless the input is declared writable: the writer
    # fails, and so may any sibling that read the copy while it changed
    assert code == 2
    (record,) = (out / "provenance").iterdir()
    tasks = json.loads(record.read_text())["tasks"]
    assert tasks["read[0]"]["state"] == "Failed"
    assert "input modified by the tool" \
        in tasks["read[0]"]["attempts"][-1]["error"]
    want = hashlib.sha256(original.encode()).hexdigest()
    for i in range(6):
        task = tasks.get(f"read[{i}]", {})
        if task.get("state") == "Succeeded":
            assert task["outputs"]["out"]["checksum"] == want, i
    assert (tmp_path / "data.txt").read_text() == original


def _sh_tool(script, stdout):
    """A tool running ``sh -c script`` with its File input as ``$0``; JSON,
    which is YAML too."""
    return json.dumps({
        "cwlVersion": "v1.2", "class": "CommandLineTool",
        "baseCommand": ["sh", "-c", script],
        "inputs": {"f": {"type": "File", "position": 1}},
        "outputs": {"out": {"type": "File", "capture": "stdout"}},
        "stdout": stdout})


# `make` writes a file; `damage`, then `read` (admitted in id order at
# --parallel 1) read it in place where make left it
DAMAGE_WF = """\
cwlVersion: v1.2
class: Workflow
inputs:
  msg: string
outputs:
  made: {type: File, outputSource: make/out}
  seen: {type: File, outputSource: read/out}
steps:
  make: {run: tool.cwl, in: {msg: msg}}
  damage: {run: damage.cwl, in: {f: make/out}}
  read: {run: read.cwl, in: {f: make/out}}
"""

DAMAGE = {
    "append": 'echo more >> "$0"',
    "overwrite": 'printf J | dd of="$0" conv=notrunc 2>/dev/null',
    "truncate": ': > "$0"',
    "rm": 'rm "$0"',
    "mv": 'mv "$0" moved.txt',
    "chmod": 'chmod +x "$0"',
    "touch": 'touch "$0"',
}


def _run_damaged(project, capsys, damage):
    """Run DAMAGE_WF, whose `damage` step changes make's output as
    DAMAGE[damage] says, and check that run; returns a function that runs
    it again into another --outdir, with the same cache."""
    (project / "damage.cwl").write_text(_sh_tool(DAMAGE[damage], "d.txt"))
    (project / "read.cwl").write_text(_sh_tool('cat "$0"', "seen.txt"))
    (project / "wf.cwl").write_text(DAMAGE_WF)
    _long_output(project)

    def run(outdir):
        code, out = run_cli([
            "run", str(project / "wf.cwl"), str(project / "job.yml"),
            "--outdir", str(project / outdir),
            "--cache-dir", str(project / "cache"), "--no-container",
            "--quiet", "--parallel", "1", "--on-error", "continue"])
        (record,) = (project / outdir / "provenance").iterdir()
        return code, json.loads(out), json.loads(record.read_text())["tasks"]

    code, outputs, tasks = run("out")
    assert code == 2
    (producer,) = (project / "out" / ".work").glob("make-*")
    made = str(producer / "out.txt")
    assert [(t["state"], t["attempts"][-1]["error"])
            for t in (tasks["damage"], tasks["read"])] == [
        ("Failed", f"input modified by the tool: {made}"),
        ("Failed", f"input changed during run: {made}")]
    # the changed file reached neither --outdir nor the output object
    assert outputs == {"made": None, "seen": None}
    assert sorted(os.listdir(project / "out")) == [".work", "provenance"]
    assert f"output file gone, left out: {made}" in capsys.readouterr().err
    assert tasks["make"]["state"] == "Succeeded"
    return run


@pytest.mark.parametrize("damage", ["append", "overwrite", "truncate"])
def test_changed_run_made_input_fails_its_readers_and_reruns_its_producer(
        project, capsys, damage):
    run = _run_damaged(project, capsys, damage)
    # the change reached the producer's cache payload, the same inode, so
    # the next lookup evicts its entry
    assert run("again")[2]["make"]["state"] == "Succeeded"


@pytest.mark.parametrize("damage", ["chmod", "mv", "rm", "touch"])
def test_run_made_input_moved_or_retouched_fails_its_readers_and_is_reused(
        project, capsys, damage):
    run = _run_damaged(project, capsys, damage)
    # the payload's bytes are intact, so the next run reuses the entry;
    # mode bits a reader set stay on the payload
    _, outputs, tasks = run("again")
    assert tasks["make"]["state"] == "Cached"
    made = outputs["made"]["path"]
    assert made.startswith(str(project / "again"))
    assert Path(made).read_text() == _long_output(project)
    assert bool(os.stat(made).st_mode & 0o111) is (damage == "chmod")


def test_passthrough_input_deleted_during_the_run_is_left_out(
        tmp_path, monkeypatch, capsys):
    from miniwfl import scheduler
    prepare_case("passthrough", str(tmp_path / "case"))
    data = tmp_path / "case" / "data.txt"
    run = scheduler.run

    def deleting(*args, **kwargs):
        data.unlink()
        return run(*args, **kwargs)

    monkeypatch.setattr(scheduler, "run", deleting)
    code, outputs = run_case("passthrough", str(tmp_path),
                             str(tmp_path / "cache"))
    assert code == 2
    assert outputs == {"same": None}
    (outdir,) = tmp_path.glob("out-*")
    assert sorted(os.listdir(outdir)) == ["provenance"]
    assert f"output file gone, left out: {data}" in capsys.readouterr().err


def test_blob_removed_between_lookup_and_republish_is_a_miss(project,
                                                             monkeypatch):
    from miniwfl.cache import ResultCache
    text = _long_output(project)
    out, state = _run_once(project)
    lookup = ResultCache.lookup

    def then_prune(self, key, output_ids=None):
        hit = lookup(self, key, output_ids)
        for blob in (project / "cache" / "cas").iterdir():
            blob.unlink()
        return hit

    monkeypatch.setattr(ResultCache, "lookup", then_prune)
    again, state = _run_once(project)
    assert state == "Succeeded"
    assert Path(again["path"]).read_text() == text
    monkeypatch.undo()
    assert _run_once(project)[1] == "Cached"  # stored again


@pytest.mark.parametrize("shards, code", [("[1, 2]", 0), ("[0, 1]", 2)],
                         ids=["success", "failure"])
def test_run_removes_its_input_store(tmp_path, shards, code):
    (tmp_path / "append.cwl").write_text(  # shard 0 fails
        APPEND_TOOL.replace('echo appended >> "$1"', "exit 3"))
    (tmp_path / "wf.cwl").write_text(APPEND_WF)
    (tmp_path / "data.txt").write_text("data\n")
    (tmp_path / "job.yml").write_text(
        f"f: {{class: File, path: data.txt}}\nshards: {shards}\n")
    out = tmp_path / "out"
    assert run_cli(["run", str(tmp_path / "wf.cwl"), str(tmp_path / "job.yml"),
                    "--outdir", str(out), "--no-reuse", "--no-container",
                    "--quiet"])[0] == code
    # the failed shard's attempt is kept; a successful run leaves no .work
    assert (out / ".work").is_dir() is (code != 0)
    assert not list((out / ".work").glob(".run-*"))


CHAIN_TOOL = """\
cwlVersion: v1.2
class: CommandLineTool
baseCommand: [sh, -c, 'cat "$@" /dev/null > o.txt; echo link >> o.txt', sh]
inputs:
  x: {type: "File?", position: 1}
outputs:
  out: {type: File, glob: o.txt}
"""


def _chain_workflow(n):
    steps = "".join(
        f"  s{i:02d}:\n    run: link.cwl\n"
        f"    in: {{{f'x: s{i - 1:02d}/out' if i else ''}}}\n"
        for i in range(n))
    return ("cwlVersion: v1.2\nclass: Workflow\ninputs: {}\n"
            f"outputs:\n  out: {{type: File, outputSource: s{n - 1:02d}/out}}\n"
            f"steps:\n{steps}")


def test_chain_holds_at_most_two_attempt_directories(tmp_path, monkeypatch):
    """Each step's directory is deleted once the next step, its one
    reader, has succeeded: counted by a spy on every attempt's end."""
    from miniwfl.runtime import LocalRuntime
    (tmp_path / "link.cwl").write_text(CHAIN_TOOL)
    (tmp_path / "wf.cwl").write_text(_chain_workflow(20))
    (tmp_path / "job.yml").write_text("{}\n")
    counts = []
    run_task = LocalRuntime.run_task

    def counting(self, *args, **kwargs):
        attempt = run_task(self, *args, **kwargs)
        counts.append(sum(1 for entry in os.scandir(self.work_root)
                          if entry.is_dir() and "-a" in entry.name
                          and not entry.name.startswith(".")
                          and not entry.name.endswith(".tmp")))
        return attempt

    monkeypatch.setattr(LocalRuntime, "run_task", counting)
    code, out = run_cli(["run", str(tmp_path / "wf.cwl"),
                         str(tmp_path / "job.yml"),
                         "--outdir", str(tmp_path / "out"), "--no-reuse",
                         "--no-container", "--quiet", "--parallel", "1"])
    assert code == 0
    assert Path(json.loads(out)["out"]["path"]).read_text() == "link\n" * 20
    assert counts == [1] + [2] * 19
    assert not (tmp_path / "out" / ".work").exists()


NAME_TOOL = """\
cwlVersion: v1.2
class: CommandLineTool
baseCommand: [echo, $(inputs.f.basename)]
inputs:
  f: File
outputs:
  out: {type: File, capture: stdout}
stdout: name.txt
"""

NAME_WF = """\
cwlVersion: v1.2
class: Workflow
inputs:
  f: File
outputs:
  out: {type: File, outputSource: name/out}
steps:
  name:
    run: name.cwl
    in: {f: f}
"""


def test_reuse_tells_inputs_apart_by_basename(tmp_path):
    """a.txt and b.txt hold the same bytes, and the tool prints the name of
    its input: the second run must not reuse the first run's result."""
    (tmp_path / "name.cwl").write_text(NAME_TOOL)
    (tmp_path / "wf.cwl").write_text(NAME_WF)
    printed = []
    for name in ("a.txt", "b.txt"):
        (tmp_path / name).write_text("same bytes\n")
        job = tmp_path / f"job-{name}.yml"
        job.write_text(f"f: {{class: File, path: {name}}}\n")
        code, stdout = run_cli(["run", str(tmp_path / "wf.cwl"), str(job),
                                "--outdir", str(tmp_path / f"out-{name}"),
                                "--cache-dir", str(tmp_path / "cache"),
                                "--no-container", "--quiet"])
        assert code == 0
        printed.append(Path(json.loads(stdout)["out"]["path"]).read_text())
    assert printed == ["a.txt\n", "b.txt\n"]


def test_capture_name_cannot_leave_the_outdir(project):
    (project / "tool.cwl").write_text(
        TOOL.replace("stdout: out.txt", "stdout: ../../../../escaped.txt"))
    code, out = run_cli(["validate", str(project / "wf.cwl")])
    assert code == 1 and out == ""
    code, out = run_cli(_run_args(project))
    assert code == 1 and out == ""
    assert not list(project.rglob("escaped.txt"))


@pytest.mark.parametrize("escape", ["glob", "entryname"])
def test_output_names_cannot_leave_the_outdir(project, escape):
    secret = project / "secret.txt"
    secret.write_text("outside\n")
    if escape == "glob":
        tool = TOOL.replace("{type: File, capture: stdout}",
                            f"{{type: File, glob: {secret}}}")
    else:  # three levels above the attempt directory is the project
        tool = TOOL + (
            "requirements:\n  InitialWorkDirRequirement:\n    listing:\n"
            "      - {entryname: ../../../escaped-iwd.txt, entry: text}\n")
    (project / "tool.cwl").write_text(tool)
    code, out = run_cli(["validate", str(project / "wf.cwl")])
    assert code == 1 and out == ""
    code, out = run_cli(_run_args(project))
    assert code == 1 and out == ""
    assert sorted(p.name for p in project.iterdir()) == [
        "job.yml", "secret.txt", "tool.cwl", "wf.cwl"]
    assert os.stat(secret).st_nlink == 1


def test_validate_rejects_directory_parameters(project):
    (project / "wf.cwl").write_text(
        WF.replace("  msg: string", "  msg: string\n  d: Directory"))
    code, out = run_cli(["validate", str(project / "wf.cwl")])
    assert code == 1
    (diag,) = [json.loads(l) for l in out.splitlines()]
    assert diag["code"] == "UnsupportedType"
    assert diag["message"] == "input 'd': unsupported base type Directory"


SUB_DEFAULT_WF = """\
cwlVersion: v1.2
class: Workflow
inputs: {}
outputs:
  out: {type: File, outputSource: sub/out}
steps:
  sub:
    in: {}
    run:
      cwlVersion: v1.2
      class: Workflow
      inputs:
        greeting: {type: string, default: hello}
      outputs:
        out: {type: File, outputSource: say/out}
      steps:
        say:
          run: tool.cwl
          in: {msg: greeting}
"""


def test_unbound_sub_workflow_input_runs_with_its_default(project):
    (project / "wf.cwl").write_text(SUB_DEFAULT_WF)
    (project / "job.yml").write_text("{}\n")
    code, out = run_cli(["validate", str(project / "wf.cwl")])
    assert (code, out) == (0, "")
    code, out = run_cli(_run_args(project))
    assert code == 0
    assert Path(json.loads(out)["out"]["path"]).read_text() == "hello\n"


CAT_TOOL = """\
cwlVersion: v1.2
class: CommandLineTool
baseCommand: [cat]
inputs:
  f: {type: File, position: 1%s}
outputs:
  out: {type: File, capture: stdout}
stdout: out.txt
"""

CAT_WF = """\
cwlVersion: v1.2
class: Workflow
inputs: {}
outputs:
  out: {type: File, outputSource: show/out}
steps:
  show:
    run: cat.cwl
    in: %s
"""


@pytest.mark.parametrize("where", ["tool default", "step literal"])
def test_file_literal_is_refused_before_anything_runs(project, monkeypatch,
                                                      where):
    from miniwfl import runtime
    literal = "{class: File, path: data.txt}"
    (project / "data.txt").write_text("data\n")
    if where == "tool default":
        (project / "cat.cwl").write_text(CAT_TOOL % f", default: {literal}")
        (project / "wf.cwl").write_text(CAT_WF % "{}")
    else:
        (project / "cat.cwl").write_text(CAT_TOOL % "")
        (project / "wf.cwl").write_text(CAT_WF % f"{{f: {{default: {literal}}}}}")
    (project / "job.yml").write_text("{}\n")
    spawned = []
    monkeypatch.setattr(runtime, "execute",
                        lambda *args, **kwargs: spawned.append(args))
    code, out = run_cli(["validate", str(project / "wf.cwl")])
    assert code == 1
    (diag,) = [json.loads(line) for line in out.splitlines()]
    assert (diag["code"], diag["location"]) == ("UnsupportedFeature",
                                                "$/steps/show/in/f")
    code, out = run_cli(_run_args(project))
    assert (code, out) == (1, "")
    assert spawned == [] and not (project / "out").exists()


@pytest.mark.parametrize("script, glob", [
    ('ln -s "$0" link.txt', "link.txt"),
    ('ln -s "`dirname "$0"`" sub', "sub/outside.txt"),
    ('ln "$0" link.txt', "link.txt"),
], ids=["file-link", "directory-link", "hard-link"])
def test_symlinked_output_is_cached_as_its_bytes(project, script, glob):
    outside = project / "outside.txt"
    original = "original\n" * (_INLINE_MAX // 9 + 1)  # a cas/ payload file
    outside.write_text(original)
    (project / "tool.cwl").write_text(
        TOOL.replace("[echo]", f"[sh, -c, '{script}']")
            .replace("{type: File, capture: stdout}",
                     f"{{type: File, glob: {glob}}}"))
    (project / "job.yml").write_text(f"msg: {outside}\n")

    def run_once():
        code, out = run_cli(_run_args(project))
        assert code == 0
        (record,) = (project / "out" / "provenance").iterdir()
        state = json.loads(record.read_text())["tasks"]["say"]["state"]
        record.unlink()
        return json.loads(out)["out"], state

    out, state = run_once()
    assert state == "Succeeded"
    (blob,) = (project / "cache" / "cas").iterdir()
    assert not blob.is_symlink() and blob.read_text() == original
    assert outside.stat().st_nlink == 1  # neither linked nor replaced
    outside.write_text("edited\n")
    out, state = run_once()
    assert state == "Cached"
    assert Path(out["path"]).read_text() == original


SLEEP_TOOL = """\
cwlVersion: v1.2
class: CommandLineTool
baseCommand: [sleep]
inputs:
  t: {type: string, position: 1}
outputs: {}
"""

SLEEP_WF = """\
cwlVersion: v1.2
class: Workflow
inputs:
  ts: string[]
outputs: {}
steps:
  nap:
    run: sleep.cwl
    in: {t: ts}
    scatter: t
"""

SLEEP_ARGV = ["sleep", "23.7105"]  # no other process runs this command line


def _pids_running(argv):
    """The processes whose command line is exactly ``argv``."""
    wanted = "\0".join(argv) + "\0"
    pids = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/cmdline") as fh:
                if fh.read() == wanted:
                    pids.append(int(entry))
        except OSError:  # the process ended
            continue
    return pids


@pytest.fixture
def kill_leftover_sleeps():
    yield
    for pid in _pids_running(SLEEP_ARGV):
        with contextlib.suppress(OSError):
            os.kill(pid, signal.SIGKILL)


@contextlib.contextmanager
def _sleeping_run(tmp_path):
    """Run tmp_path's wf.cwl and job.yml at --parallel 2 in a process of
    its own; yields that process once two tools run SLEEP_ARGV."""
    src = os.path.dirname(os.path.dirname(miniwfl.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-c", MAIN,
         "run", str(tmp_path / "wf.cwl"), str(tmp_path / "job.yml"),
         "--outdir", str(tmp_path / "out"), "--no-reuse", "--no-container",
         "--quiet", "--parallel", "2"],
        env=dict(os.environ, PYTHONPATH=src), start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 20
        while len(_pids_running(SLEEP_ARGV)) < 2:
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        yield proc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stderr.close()


def test_sigterm_kills_the_running_tools(tmp_path, kill_leftover_sleeps):
    (tmp_path / "sleep.cwl").write_text(SLEEP_TOOL)
    (tmp_path / "wf.cwl").write_text(SLEEP_WF)
    (tmp_path / "job.yml").write_text(f"ts: {[SLEEP_ARGV[1]] * 3}\n")
    with _sleeping_run(tmp_path) as proc:
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(20) == 143, proc.stderr.read()
        assert _pids_running(SLEEP_ARGV) == []


EARLY_SLEEP_WF = """\
cwlVersion: v1.2
class: Workflow
inputs:
  ts: string[]
  msg: string
outputs:
  out: {type: File, outputSource: early/out}
steps:
  early:
    run: tool.cwl
    in: {msg: msg}
  nap:
    run: sleep.cwl
    in: {t: ts}
    scatter: t
"""


def test_sigint_kills_the_running_tools_and_keeps_what_it_made(
        tmp_path, kill_leftover_sleeps):
    """``early`` succeeds first, and its directory waits for stage-out;
    Ctrl-C ends the run before that, so nothing is released."""
    (tmp_path / "tool.cwl").write_text(TOOL)
    (tmp_path / "sleep.cwl").write_text(SLEEP_TOOL)
    (tmp_path / "wf.cwl").write_text(EARLY_SLEEP_WF)
    (tmp_path / "job.yml").write_text(
        f"ts: {[SLEEP_ARGV[1]] * 3}\nmsg: early\n")
    work = tmp_path / "out" / ".work"
    with _sleeping_run(tmp_path) as proc:
        proc.send_signal(signal.SIGINT)
        assert proc.wait(20) == 130
        err = proc.stderr.read().decode()
        assert _pids_running(SLEEP_ARGV) == []
    assert "miniwfl: interrupted" in err
    assert "Traceback" not in err
    (made,) = work.glob("early-*/out.txt")
    assert made.read_text() == "early\n"
    cancelled = [p for p in work.glob("nap_*") if not p.name.endswith(".tmp")]
    assert len(cancelled) == 2
    assert not list(work.glob(".run-*"))


STORE_SLEEP_TOOL = """\
cwlVersion: v1.2
class: CommandLineTool
baseCommand: [sh, -c, 'exec sleep "$0"']
inputs:
  t: {type: string, position: 1}
  f: {type: File, position: 2}
outputs: {}
"""

STORE_SLEEP_WF = """\
cwlVersion: v1.2
class: Workflow
inputs:
  ts: string[]
  f: File
outputs: {}
steps:
  nap:
    run: sleep.cwl
    in: {t: ts, f: f}
    scatter: t
"""


def test_sigterm_leaves_no_input_store(tmp_path, kill_leftover_sleeps):
    (tmp_path / "sleep.cwl").write_text(STORE_SLEEP_TOOL)
    (tmp_path / "wf.cwl").write_text(STORE_SLEEP_WF)
    (tmp_path / "data.txt").write_text("data\n")
    (tmp_path / "job.yml").write_text(
        f"ts: {[SLEEP_ARGV[1]] * 3}\nf: {{class: File, path: data.txt}}\n")
    work = tmp_path / "out" / ".work"
    with _sleeping_run(tmp_path) as proc:
        (store,) = work.glob(".run-*")
        # one entry, linked by both, beside the workers' spares
        assert len([n for n in os.listdir(store)
                    if not n.startswith(".spare-")]) == 1
        assert not [n for n in os.listdir(work)
                    if n.startswith(".spare-") or n == "cached"]
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(20) == 143, proc.stderr.read()
        assert not store.exists()


# --- the cache index under stress ---------------------------------------------

SCATTER_WF = (WF.replace("msg: string", "msg: string[]")
              .replace("{msg: msg}", "{msg: msg}\n    scatter: msg")
              .replace("{type: File,", '{type: "File[]",'))


def _scatter_project(project, shards, pad=""):
    """Scatter ``say`` over ``shards`` messages, each ending in ``pad``."""
    (project / "wf.cwl").write_text(SCATTER_WF)
    (project / "job.yml").write_text(
        f"msg: {[f'shard {i}{pad}' for i in range(shards)]}\n")
    return shards


def _shard_states(project, outdir):
    """The state of each ``say`` shard in the run's provenance record,
    which is then removed for the next run."""
    (record,) = (project / outdir / "provenance").iterdir()
    tasks = json.loads(record.read_text())["tasks"]
    record.unlink()
    return {task["state"] for tid, task in tasks.items()
            if tid.startswith("say[")}


def _scatter_args(project, outdir):
    return ["run", str(project / "wf.cwl"), str(project / "job.yml"),
            "--outdir", str(project / outdir),
            "--cache-dir", str(project / "cache"), "--no-container", "--quiet"]


def _scatter_run(project, outdir="out"):
    code, _ = run_cli(_scatter_args(project, outdir))
    assert code == 0
    return _shard_states(project, outdir)


def test_two_runs_at_once_on_one_cache_store_each_shard_once(project):
    shards = _scatter_project(project, 40)
    src = os.path.dirname(os.path.dirname(miniwfl.__file__))
    procs = [subprocess.Popen(
        [sys.executable, "-c", MAIN, *_scatter_args(project, f"out{n}"),
         "--parallel", "2"],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        for n in (1, 2)]
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        assert "cache index" not in err
    assert len(cache_entries(str(project / "cache"))) == shards
    assert _scatter_run(project, "out3") == {"Cached"}


@pytest.mark.parametrize("damage", [
    lambda data: b"garbage " * 512,
    lambda data: data[:4096] + b"\xff" * (len(data) - 4096),
], ids=["not-a-database", "malformed"])
def test_damaged_index_is_made_again(project, caplog, damage):
    _scatter_project(project, 8)
    assert _scatter_run(project) == {"Succeeded"}
    index = project / "cache" / "ac.sqlite"
    index.write_bytes(damage(index.read_bytes()))
    assert _scatter_run(project) == {"Succeeded"}
    assert "cache index damaged, making it again" in caplog.text
    assert _scatter_run(project) == {"Cached"}


def test_run_leaves_only_the_index_and_cas_in_the_cache(project):
    _scatter_project(project, 3, pad=" " + "x" * _INLINE_MAX)
    for state in ("Succeeded", "Cached"):
        assert _scatter_run(project) == {state}
        assert sorted(os.listdir(project / "cache")) == ["ac.sqlite", "cas"]


def test_small_outputs_leave_only_the_index_and_one_host_path(project):
    """A 50-shard scatter of echo outputs stores every payload in the
    index, with no cas/ at all, and records the host PATH, which every
    attempt shares, once (a warm run makes no attempt)."""
    _scatter_project(project, 50)
    for state, paths in (("Succeeded", 1), ("Cached", 0)):
        code, _ = run_cli(_scatter_args(project, "out"))
        assert code == 0
        (record,) = (project / "out" / "provenance").iterdir()
        text = record.read_text()
        assert text.count(json.dumps(os.environ["PATH"])) == paths
        assert _shard_states(project, "out") == {state}
        assert os.listdir(project / "cache") == ["ac.sqlite"]
    assert len(cache_entries(str(project / "cache"))) == 50


@pytest.mark.parametrize("argv", [
    ["run", "wf.cwl", "job.yml", "--no-reuse", "--no-container", "--quiet"],
    ["validate", "wf.cwl"],
    ["graph", "wf.cwl"],
], ids=["run-without-reuse", "validate", "graph"])
def test_commands_that_reuse_nothing_never_load_sqlite3(project, argv):
    src = os.path.dirname(os.path.dirname(miniwfl.__file__))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from miniwfl import cli; code = cli.main(sys.argv[1:]); "
         "assert 'sqlite3' not in sys.modules, 'sqlite3 loaded'; "
         "sys.exit(code)", *argv],
        cwd=project, env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


# --- what the engine does per task, counted -----------------------------------

FAN_ECHO = """\
cwlVersion: v1.2
class: CommandLineTool
baseCommand: [echo]
inputs:
  n: {type: int, position: 1}
outputs:
  out: {type: File, capture: stdout}
stdout: out.txt
"""

FAN_CAT = """\
cwlVersion: v1.2
class: CommandLineTool
baseCommand: [cat]
inputs:
  parts: {type: "File[]", position: 1}
outputs:
  all: {type: File, capture: stdout}
stdout: all.txt
"""

FAN_WF = """\
cwlVersion: v1.2
class: Workflow
inputs:
  ns: int[]
outputs:
  all: {type: File, outputSource: gather/all}
steps:
  fan:
    run: echo.cwl
    scatter: n
    in: {n: ns}
  gather:
    run: cat.cwl
    in: {parts: fan/out}
"""

# Runs a fan of WIDTH echo shards into a cat gather, with a cache, at
# --parallel 2, once warm and then at two widths, and prints the calls an
# audit hook saw in each of the two, and the tool lookups.
COUNTING_RUN = """\
import collections, contextlib, io, json, os, shutil, sys
from miniwfl import cli
root = sys.argv[1]
counts = collections.Counter()
which = shutil.which

def counted_which(*args, **kwargs):
    counts["shutil.which"] += 1
    return which(*args, **kwargs)

def hook(event, args):
    if event == "open":
        counts["open create" if args[2] & os.O_CREAT else "open read"] += 1
    elif event in ("shutil.rmtree", "os.listdir", "os.mkdir",
                   "subprocess.Popen"):
        counts[event] += 1

def run(width):
    job = os.path.join(root, f"job{width}.yml")
    with open(job, "w") as fh:
        fh.write(f"ns: {list(range(width))}\\n")
    counts.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", os.path.join(root, "wf.cwl"), job,
                         "--parallel", "2", "--no-container", "--quiet",
                         "--outdir", os.path.join(root, f"out{width}"),
                         "--cache-dir", os.path.join(root, f"cache{width}")
                         ]) == 0
    return dict(counts)

shutil.which = counted_which
run(3)  # loads what a run loads on first use
sys.addaudithook(hook)
print(json.dumps([run(50), run(100)]))
"""


def test_each_shard_costs_pinned_calls_and_each_tool_one_lookup(tmp_path):
    """The calls that one more shard of an echo scatter into a cat gather
    costs the engine, counted by an audit hook between a 50- and a
    100-shard run: one read of its output, the two files its streams go
    to, its directory, its spawn, and one ``listdir`` to delete that
    directory, with no ``rmtree``; and each tool is looked up on PATH once
    per run."""
    for name, text in (("echo.cwl", FAN_ECHO), ("cat.cwl", FAN_CAT),
                       ("wf.cwl", FAN_WF)):
        (tmp_path / name).write_text(text)
    src = os.path.dirname(os.path.dirname(miniwfl.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", COUNTING_RUN, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    fifty, hundred = json.loads(proc.stdout)
    per_shard = {event: (hundred.get(event, 0) - fifty.get(event, 0)) / 50
                 for event in ("open read", "open create", "shutil.rmtree",
                               "os.listdir", "os.mkdir", "subprocess.Popen")}
    assert per_shard == {"open read": 1, "open create": 2,
                         "shutil.rmtree": 0, "os.listdir": 1, "os.mkdir": 1,
                         "subprocess.Popen": 1}
    assert fifty["shutil.which"] == hundred["shutil.which"] == 2


def test_a_tool_is_looked_up_once_per_run(tmp_path, monkeypatch):
    """Tool lookups are remembered for one run only: a second run, with
    another binary of the name earlier on PATH, runs that one."""
    which, looked_up = shutil.which, []
    monkeypatch.setattr(shutil, "which", lambda *args, **kwargs: (
        looked_up.append(args[0]) or which(*args, **kwargs)))
    for word in ("first", "second"):
        bindir = tmp_path / word
        bindir.mkdir()
        (bindir / "greet").write_text(f"#!/bin/sh\necho {word} \"$@\"\n")
        (bindir / "greet").chmod(0o755)
    (tmp_path / "tool.cwl").write_text(TOOL.replace("[echo]", "[greet]"))
    (tmp_path / "wf.cwl").write_text(WF)
    (tmp_path / "job.yml").write_text("msg: hello\n")
    said = []
    for word in ("first", "second"):
        monkeypatch.setenv("PATH", f"{tmp_path / word}:{os.environ['PATH']}")
        code, out = run_cli(["run", str(tmp_path / "wf.cwl"),
                             str(tmp_path / "job.yml"), "--no-reuse",
                             "--outdir", str(tmp_path / f"out-{word}"),
                             "--no-container", "--quiet", "--parallel", "1"])
        assert code == 0
        said.append(Path(json.loads(out)["out"]["path"]).read_text())
    assert said == ["first hello\n", "second hello\n"]
    assert looked_up == ["greet", "greet"]


# --- an I/O error on the run's own directories ---------------------------------

def _no_space(path):
    return OSError(28, os.strerror(28), str(path))  # ENOSPC


def _left_in_work(outdir: Path) -> list:
    """What ``.work`` holds after a run whose attempts all succeeded: only
    a failed attempt keeps anything."""
    work = outdir / ".work"
    return sorted(os.listdir(work)) if work.exists() else []


@pytest.mark.parametrize("failing, nth", [
    (lambda out, path: path == str(out), 1),
    (lambda out, path: path == str(out / ".work"), 1),
    (lambda out, path: os.path.basename(path).startswith(".run-"), 1),
    (lambda out, path: path == str(out / "provenance"), 1),
    (lambda out, path: path == str(out), 2),
], ids=["outdir", "work-root", "run-directory", "provenance", "stage-out"])
def test_no_room_for_the_runs_own_directories_ends_with_a_diagnostic(
        project, capsys, monkeypatch, failing, nth):
    """A full disk while the run makes one of its own directories ends the
    run with exit 2 and a ``miniwfl:`` line naming the directory, not a
    traceback, and leaves nothing behind in ``.work``."""
    out, makedirs, calls = project / "out", os.makedirs, []

    def full(path, *args, **kwargs):
        if failing(out, os.fspath(path)):
            calls.append(path)
            if len(calls) == nth:
                raise _no_space(path)
        return makedirs(path, *args, **kwargs)

    _scatter_project(project, 3)
    monkeypatch.setattr(os, "makedirs", full)
    code, _ = run_cli(_scatter_args(project, "out"))
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"miniwfl: {calls[-1]}: No space left on device" in err
    assert "Traceback" not in err
    assert _left_in_work(out) == []
    if os.path.basename(calls[-1]).startswith(".run-"):  # nor .work itself
        assert not (out / ".work").exists()


@pytest.mark.parametrize("step", ["write_provenance", "stage-out"])
def test_directories_held_for_stage_out_are_released_when_it_fails(
        project, capsys, monkeypatch, step):
    """The attempts behind workflow outputs are deleted after stage-out,
    also where provenance or stage-out raised before it was done."""
    from miniwfl import cli, provenance
    if step == "write_provenance":
        target, name = provenance, "write_provenance"
    else:
        target, name = cli, "_stage_workflow_outputs"

    def full(*args, **kwargs):
        raise _no_space(project / "out" / step)

    _scatter_project(project, 3)
    monkeypatch.setattr(target, name, full)
    code, _ = run_cli(_scatter_args(project, "out"))
    assert code == 2
    assert "No space left on device" in capsys.readouterr().err
    assert _left_in_work(project / "out") == []
