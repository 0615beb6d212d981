"""CLI surface: exit codes, stdout purity, subcommand behavior."""

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
from conftest import prepare_case, run_case, run_cli

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
    assert record["jobOrder"] == {"msg": "cli test"}
    assert len(record["workflowDigest"]) == 64


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


def test_staged_output_is_one_inode_with_its_work_output_and_blob(
        project, monkeypatch):
    copies = _copies(monkeypatch)
    for expected in ("Succeeded", "Cached"):
        out, state = _run_once(project)
        assert state == expected
        (made,) = (project / "out" / ".work").glob("say-*/out.txt")
        blob = project / "cache" / "cas" / out["checksum"]
        assert os.path.samefile(out["path"], made)
        assert os.path.samefile(out["path"], blob)
        assert Path(out["path"]).read_text() == "cli test\n"
    assert copies == []  # stage-out and the hit link; nothing is copied


def test_passthrough_input_is_copied_not_linked(tmp_path, monkeypatch):
    prepare_case("passthrough", str(tmp_path / "case"))
    copies = _copies(monkeypatch)
    code, outputs = run_case("passthrough", str(tmp_path),
                             str(tmp_path / "cache"))
    assert code == 0
    data = tmp_path / "case" / "data.txt"
    assert copies == [outputs["same"]["path"]]
    assert not os.path.samefile(outputs["same"]["path"], data)
    assert data.stat().st_nlink == 1


def test_reused_outdir_publishes_the_blob_over_a_replaced_name(project):
    _run_once(project)
    out, state = _run_once(project)
    assert state == "Cached"
    published = project / "out" / ".work" / "cached" / out["checksum"]
    blob = project / "cache" / "cas" / out["checksum"]
    assert os.path.samefile(published, blob)
    other = project / "other.txt"
    other.write_text("other bytes\n")
    os.replace(other, published)
    out, state = _run_once(project)
    assert state == "Cached"
    assert os.path.samefile(published, blob)
    assert published.read_text() == "cli test\n"
    assert Path(out["path"]).read_text() == "cli test\n"


def test_editing_a_staged_output_makes_the_task_run_again(project):
    out, state = _run_once(project)
    with open(out["path"], "w") as fh:  # in place: the blob's inode too
        fh.write("edited in --outdir\n")
    out, state = _run_once(project)
    assert state == "Succeeded"
    assert Path(out["path"]).read_text() == "cli test\n"
    out, state = _run_once(project)
    assert state == "Cached"


def test_entry_of_the_wrong_shape_runs_the_task_again(project):
    _run_once(project)
    (entry,) = (project / "cache" / "ac").iterdir()
    entry.write_text("{}")
    out, state = _run_once(project)
    assert state == "Succeeded"
    assert json.loads(entry.read_text())["outputs"]["out"]["checksum"] \
        == out["checksum"]
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
    assert (out / ".work").is_dir()
    assert not list((out / ".work").glob(".inputs-*"))


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
    outside.write_text("original\n")
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
    assert not blob.is_symlink() and blob.read_text() == "original\n"
    assert outside.stat().st_nlink == 1  # neither linked nor replaced
    outside.write_text("edited\n")
    out, state = run_once()
    assert state == "Cached"
    assert Path(out["path"]).read_text() == "original\n"


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


def test_sigterm_kills_the_running_tools(tmp_path, kill_leftover_sleeps):
    (tmp_path / "sleep.cwl").write_text(SLEEP_TOOL)
    (tmp_path / "wf.cwl").write_text(SLEEP_WF)
    (tmp_path / "job.yml").write_text(f"ts: {[SLEEP_ARGV[1]] * 3}\n")
    src = os.path.dirname(os.path.dirname(miniwfl.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-c",
         "import sys; from miniwfl import cli; sys.exit(cli.main(sys.argv[1:]))",
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
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(20) == 143, proc.stderr.read()
        assert _pids_running(SLEEP_ARGV) == []
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stderr.close()


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
    src = os.path.dirname(os.path.dirname(miniwfl.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-c",
         "import sys; from miniwfl import cli; sys.exit(cli.main(sys.argv[1:]))",
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
        (store,) = work.glob(".inputs-*")
        assert len(os.listdir(store)) == 1  # one entry, linked by both
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(20) == 143, proc.stderr.read()
        assert not store.exists()
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stderr.close()
