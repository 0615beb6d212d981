"""Execution layer: staging, argv building, process control, output collection."""

import os
import stat
import time

import pytest

from miniwfl import parser, runtime
from miniwfl.cache import ResultCache
from miniwfl.errors import StagingError
from miniwfl.expression import EvalContext
from miniwfl.model import CLAUSE_INITIAL_WORKDIR, Clause
from miniwfl.planner import FileValue, TaskNode, file_checksum
from miniwfl.runtime import (
    DockerAdapter,
    LocalRuntime,
    StagedDirectory,
    build_command_line,
    collect_outputs,
    execute,
    stage,
    stream_names,
)


def _tool(**overrides):
    raw = {
        "cwlVersion": "v1.2", "class": "CommandLineTool",
        "baseCommand": ["echo"],
        "inputs": [{"id": "msg", "type": "string", "position": 1}],
        "outputs": [{"id": "out", "type": "File", "capture": "stdout"}],
        "stdout": "out.txt",
    }
    raw.update(overrides)
    return parser.parse_raw(raw).body


def _fv(tmp_path, name="in.txt", content="payload\n"):
    p = tmp_path / name
    p.write_text(content)
    return FileValue.from_path(str(p))


def _read(path):
    with open(path) as fh:
        return fh.read()


def _store(tmp_path):
    return runtime.InputStore(str(tmp_path / "store"))


CTX = EvalContext(inputs={}, runtime={"cores": 1, "ram": 256, "outdir": "/w"})


# --- command line building --------------------------------------------------

def test_positions_order_arguments():
    tool = _tool(inputs=[
        {"id": "b", "type": "string", "position": 2},
        {"id": "a", "type": "string", "position": 1},
    ])
    argv = build_command_line(tool, {"a": "first", "b": "second"}, CTX)
    assert argv == ["echo", "first", "second"]


def test_equal_positions_break_ties_by_id():
    tool = _tool(inputs=[
        {"id": "zz", "type": "string", "position": 1},
        {"id": "aa", "type": "string", "position": 1},
    ])
    argv = build_command_line(tool, {"aa": "1", "zz": "2"}, CTX)
    assert argv == ["echo", "1", "2"]


def test_prefix_precedes_value():
    tool = _tool(inputs=[{"id": "x", "type": "string", "position": 1,
                          "prefix": "--x"}])
    assert build_command_line(tool, {"x": "v"}, CTX) == ["echo", "--x", "v"]


def test_boolean_emits_prefix_only_when_true():
    tool = _tool(inputs=[{"id": "flag", "type": "boolean", "position": 1,
                          "prefix": "--flag"}])
    assert build_command_line(tool, {"flag": True}, CTX) == ["echo", "--flag"]
    assert build_command_line(tool, {"flag": False}, CTX) == ["echo"]


def test_null_and_unpositioned_inputs_are_omitted():
    tool = _tool(inputs=[
        {"id": "x", "type": "string?", "position": 1},
        {"id": "hidden", "type": "string"},  # no position, no prefix
    ])
    assert build_command_line(tool, {"x": None, "hidden": "y"}, CTX) == ["echo"]


def test_array_gets_prefix_once():
    tool = _tool(inputs=[{"id": "xs", "type": "string[]", "position": 1,
                          "prefix": "--xs"}])
    argv = build_command_line(tool, {"xs": ["a", "b", "c"]}, CTX)
    assert argv == ["echo", "--xs", "a", "b", "c"]
    assert build_command_line(tool, {"xs": []}, CTX) == ["echo"]


def test_file_values_render_as_paths(tmp_path):
    fv = _fv(tmp_path)
    tool = _tool(inputs=[{"id": "f", "type": "File", "position": 1}])
    assert build_command_line(tool, {"f": fv}, CTX) == ["echo", fv.path]


def test_string_values_are_interpolated():
    tool = _tool(inputs=[{"id": "s", "type": "string", "position": 1}])
    ctx = EvalContext(inputs={"n": 3, "s": "n=$(inputs.n)"},
                      runtime={"cores": 2, "ram": 256, "outdir": "/w"})
    assert build_command_line(tool, {"s": "n=$(inputs.n)"}, ctx) \
        == ["echo", "n=3"]


def test_numbers_stringify():
    tool = _tool(inputs=[
        {"id": "i", "type": "int", "position": 1},
        {"id": "f", "type": "float", "position": 2},
    ])
    assert build_command_line(tool, {"i": 7, "f": 2.5}, CTX) \
        == ["echo", "7", "2.5"]


# --- staging ----------------------------------------------------------------

def test_stage_copies_inputs_readonly_and_isolated(tmp_path):
    fv = _fv(tmp_path)
    staged, bindings = stage("t1", {"f": fv}, str(tmp_path / "work"),
                             _store(tmp_path))
    staged_fv = bindings["f"]
    assert staged_fv.path != fv.path
    assert staged_fv.path.startswith(staged.inputs_dir + os.sep)
    assert open(staged_fv.path).read() == "payload\n"
    mode = stat.S_IMODE(os.stat(staged_fv.path).st_mode)
    assert mode == 0o444
    assert os.path.isdir(staged.outdir)
    assert os.path.isdir(staged.tmpdir)


def test_stage_without_file_inputs_makes_no_inputs_dir(tmp_path):
    staged, _ = stage("t1", {"msg": "hi"}, str(tmp_path / "work"),
                      _store(tmp_path))
    name = os.path.basename(staged.outdir)
    # without a worker's TMPDIR, the attempt makes its own beside it
    assert sorted(os.listdir(tmp_path / "work")) == [name, f"{name}.tmp"]
    assert staged.tmpdir == f"{staged.outdir}.tmp"
    assert os.listdir(staged.outdir) == []


def test_stage_fresh_directory_per_attempt(tmp_path):
    fv = _fv(tmp_path)
    s1, _ = stage("t1", {"f": fv}, str(tmp_path / "work"), _store(tmp_path))
    s2, _ = stage("t1", {"f": fv}, str(tmp_path / "work"), _store(tmp_path))
    assert s1.outdir != s2.outdir


@pytest.mark.parametrize("drift, error", [
    (lambda path: path.write_text("tampered!\n"), "input changed during run"),
    (lambda path: path.unlink(), "input file missing"),
], ids=["edited", "deleted"])
def test_stage_detects_source_drift(tmp_path, drift, error):
    fv = _fv(tmp_path)
    drift(tmp_path / "in.txt")
    with pytest.raises(StagingError, match=error):
        stage("t1", {"f": fv}, str(tmp_path / "work"), _store(tmp_path))


def test_stage_same_basename_from_different_dirs(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    f1 = _fv(tmp_path / "a", "same.txt", "one\n")
    f2 = _fv(tmp_path / "b", "same.txt", "two\n")
    staged, bindings = stage("t1", {"x": f1, "y": f2}, str(tmp_path / "work"),
                             _store(tmp_path))
    assert bindings["x"].path != bindings["y"].path
    assert open(bindings["x"].path).read() == "one\n"
    assert open(bindings["y"].path).read() == "two\n"
    # only the second of two equal basenames gets a slot directory
    assert bindings["x"].path == os.path.join(staged.inputs_dir, "same.txt")
    assert bindings["y"].path == os.path.join(staged.inputs_dir, "1",
                                              "same.txt")
    assert staged.in_container(bindings["y"].path) \
        == "/miniwfl/inputs/1/same.txt"


def test_stage_slot_directories_skip_names_already_taken(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    f1 = _fv(tmp_path / "a", "1", "one\n")
    f2 = _fv(tmp_path / "b", "1", "two\n")
    staged, bindings = stage("t1", {"x": f1, "y": f2}, str(tmp_path / "work"),
                             _store(tmp_path))
    assert bindings["x"].path == os.path.join(staged.inputs_dir, "1")
    assert bindings["y"].path == os.path.join(staged.inputs_dir, "2", "1")
    assert open(bindings["y"].path).read() == "two\n"


def _count_mkdirs(monkeypatch):
    made = []
    real_mkdir = os.mkdir

    def counting_mkdir(path, *args, **kwargs):
        made.append(path)
        return real_mkdir(path, *args, **kwargs)

    monkeypatch.setattr(os, "mkdir", counting_mkdir)
    return made


def _inodes(*roots):
    """The inode of every entry under ``roots``."""
    found = set()
    for root in roots:
        for directory, dirs, files in os.walk(root):
            for name in dirs + files:
                found.add(os.lstat(os.path.join(directory, name)).st_ino)
    return found


def test_echo_attempt_and_its_store_allocate_three_inodes(tmp_path,
                                                          monkeypatch):
    work, cache_dir = str(tmp_path / "work"), str(tmp_path / "cache")
    rt = LocalRuntime(work, use_containers=False)
    cache = ResultCache(cache_dir)
    node = TaskNode(id="say", tool=_tool(), bindings={})

    def attempt(n):
        result = rt.run_task(node, {"msg": f"hello {n}"}, 1, {})
        assert result.outputs is not None
        cache.store(f"key{n}", result.outputs)
        return result

    first = attempt(0)  # also makes the worker's TMPDIR, ac/ and cas/
    before = _inodes(work, cache_dir)
    made = _count_mkdirs(monkeypatch)
    second = attempt(1)
    out = second.outputs["out"].path
    outdir = os.path.dirname(out)
    kept = {os.lstat(p).st_ino for p in (
        outdir, out, os.path.join(cache_dir, "ac", "key1.json"))}
    assert _inodes(work, cache_dir) - before == kept
    # the attempt directory is the outdir; the blob is a link to out.txt
    assert out == second.stdout_path == os.path.join(outdir, "out.txt")
    assert os.path.samefile(
        os.path.join(cache_dir, "cas", second.outputs["out"].checksum), out)
    # the same worker: no TMPDIR made, and the empty stderr left no log
    assert made == [outdir]
    assert second.env["TMPDIR"] == first.env["TMPDIR"]
    assert os.listdir(second.env["TMPDIR"]) == []
    assert first.stderr_path is None and second.stderr_path is None
    assert not [n for n in os.listdir(work) if n.endswith(".log")]


def test_staging_distinct_basenames_makes_one_inputs_directory(tmp_path,
                                                               monkeypatch):
    work = tmp_path / "work"
    (work / "tmp").mkdir(parents=True)
    bindings = {f"f{n}": _fv(tmp_path, f"in{n}.txt") for n in range(4)}
    store = _store(tmp_path)  # made once per run
    made = _count_mkdirs(monkeypatch)
    staged, _ = stage("t1", bindings, str(work), store,
                      tmpdir=str(work / "tmp"))
    assert made == [staged.outdir, staged.inputs_dir]
    assert staged.inputs_dir == f"{staged.outdir}.inputs"
    assert sorted(os.listdir(staged.inputs_dir)) \
        == [f"in{n}.txt" for n in range(4)]


def _sh(script, inputs=(), **overrides):
    return TaskNode(id="t", tool=_tool(baseCommand=["sh", "-c", script],
                                       inputs=list(inputs), **overrides),
                    bindings={})


F_INPUT = [{"id": "f", "type": "File", "position": 1}]  # seen as $0


def test_uncaptured_stream_is_kept_only_when_not_empty(tmp_path):
    work = str(tmp_path / "work")
    rt = LocalRuntime(work, use_containers=False)
    loud = rt.run_task(_sh("echo out; echo warning >&2"), {}, 1, {})
    quiet = rt.run_task(_sh("echo out"), {}, 1, {})
    outdir = os.path.dirname(loud.stdout_path)
    assert loud.stderr_path == f"{outdir}.stderr.log"
    assert _read(loud.stderr_path) == "warning\n"
    assert quiet.stderr_path is None
    assert [n for n in os.listdir(work) if n.endswith(".log")] \
        == [os.path.basename(loud.stderr_path)]


def test_captured_stream_without_a_name_is_written_in_the_outdir(tmp_path):
    rt = LocalRuntime(str(tmp_path / "work"), use_containers=False)
    node = _sh("echo out; echo err >&2", stdout=None, outputs=[
        {"id": "o", "type": "File", "capture": "stdout"},
        {"id": "e", "type": "File", "capture": "stderr"}])
    result = rt.run_task(node, {}, 1, {})
    assert [fv.basename for fv in (result.outputs["o"], result.outputs["e"])] \
        == ["stdout.log", "stderr.log"]
    assert result.stderr_path == result.outputs["e"].path
    assert _read(result.outputs["e"].path) == "err\n"
    assert os.path.dirname(result.stdout_path) \
        == os.path.dirname(result.outputs["o"].path)


def test_streams_naming_one_file_share_it(tmp_path):
    rt = LocalRuntime(str(tmp_path / "work"), use_containers=False)
    result = rt.run_task(_sh("echo a; echo b >&2; echo c", stderr="out.txt"),
                         {}, 1, {})
    assert _read(result.outputs["out"].path) == "a\nb\nc\n"


def test_tmpdir_left_changed_is_not_reused(tmp_path):
    rt = LocalRuntime(str(tmp_path / "work"), use_containers=False)

    def run(script):
        result = rt.run_task(_sh(script), {}, 1, {})
        return result.env["TMPDIR"], os.path.dirname(result.stdout_path)

    tmpdir, _ = run("echo")
    left = {'touch "$TMPDIR/left"': ["left"], 'chmod 1777 "$TMPDIR"': [],
            "exit 3": [], 'rmdir "$TMPDIR"': None}
    for script, entries in left.items():
        used, outdir = run(script)
        assert used == tmpdir, script
        tmpdir, _ = run("echo")
        assert tmpdir != used and not os.path.exists(used), script
        # kept beside the attempt that changed it or failed, for debugging
        kept = f"{outdir}.tmp"
        assert (os.listdir(kept) if os.path.exists(kept) else None) \
            == entries, script
    # emptied again by the tool: still clean, so reused
    assert run('mkdir "$TMPDIR/d" && rmdir "$TMPDIR/d"')[0] == tmpdir
    assert run("echo")[0] == tmpdir


def test_each_worker_thread_reuses_its_own_tmpdir(tmp_path):
    import sys
    import threading
    rt = LocalRuntime(str(tmp_path / "work"), use_containers=False)
    used = {}  # thread -> TMPDIRs its attempts ran with

    def worker(n):
        for _ in range(5):
            result = rt.run_task(_sh("echo"), {}, 1, {})
            assert result.outputs is not None
            used.setdefault(n, set()).add(result.env["TMPDIR"])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,))
                   for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(len(dirs) for dirs in used.values()) == [1, 1, 1, 1]
    assert len(set.union(*used.values())) == 4 == len(rt._scratches)


def test_timeout_kills_what_the_tool_started(tmp_path):
    from miniwfl.model import CLAUSE_RESOURCE
    rt = LocalRuntime(str(tmp_path / "work"), use_containers=False)
    node = _sh("sleep 7.77 & echo $! > pid; wait", outputs=[])
    result = rt.run_task(node, {}, 1, {"wallTimeMax": 1})
    assert result.failure_kind == "Timeout"
    pid_file = os.path.join(os.path.dirname(result.stdout_path), "pid")
    grandchild = int(_read(pid_file))
    deadline = time.monotonic() + 5  # an orphan is reaped by init
    with pytest.raises(ProcessLookupError):
        while time.monotonic() < deadline:
            os.kill(grandchild, 0)
            time.sleep(0.05)


def test_cancel_kills_the_running_attempts(tmp_path):
    import threading
    rt = LocalRuntime(str(tmp_path / "work"), use_containers=False)
    results = []
    worker = threading.Thread(target=lambda: results.append(
        rt.run_task(_sh("sleep 30", outputs=[]), {}, 1, {})))
    worker.start()
    deadline = time.monotonic() + 10
    while not any(s.pid for s in rt._scratches):
        assert time.monotonic() < deadline
        time.sleep(0.01)
    rt.cancel()
    worker.join(10)
    assert not worker.is_alive()
    assert results[0].failure_kind == "ExitCode"
    assert results[0].exit_code == -9


def _in_workdir(tmp_path, listing, script, values=None):
    """One attempt of ``sh -c script`` with ``listing`` as its
    InitialWorkDir and its File input, if any, as ``$0``."""
    node = TaskNode(id="t", tool=_tool(
        baseCommand=["sh", "-c", script],
        inputs=[{"id": "f", "type": "File?", "position": 1}]),
        bindings={}, requirements=(
            Clause(CLAUSE_INITIAL_WORKDIR, {"listing": listing}),))
    rt = LocalRuntime(str(tmp_path / "work"), use_containers=False)
    return rt.run_task(node, values or {}, 1, {})


def test_stage_materializes_literal_workdir_entries(tmp_path):
    result = _in_workdir(tmp_path, [
        {"entryname": "run.sh", "entry": "echo hi\n"},
    ], "cat run.sh")
    assert _read(result.outputs["out"].path) == "echo hi\n"


def test_stage_workdir_entry_collision(tmp_path):
    result = _in_workdir(tmp_path, [
        {"entryname": "x", "entry": "1"},
        {"entryname": "x", "entry": "2"},
    ], "true")
    assert result.failure_kind == "StagingError"
    assert "collision" in result.error


def test_stage_workdir_entry_from_input_file(tmp_path):
    fv = _fv(tmp_path, content="original\n")
    result = _in_workdir(tmp_path, [
        {"entryname": "renamed.dat", "entry": "$(inputs.f)"},
    ], "cat renamed.dat", {"f": fv})
    assert _read(result.outputs["out"].path) == "original\n"


def test_workdir_entry_holds_verified_bytes_when_source_changes_after_check(
        tmp_path, monkeypatch):
    fv = _fv(tmp_path, content="original\n")
    checksum = runtime.file_checksum
    edits = []

    def hash_then_edit_source(path):
        result = checksum(path)
        if not edits:
            edits.append(path)
            (tmp_path / "in.txt").write_text("swapped!\n")
        return result

    monkeypatch.setattr(runtime, "file_checksum", hash_then_edit_source)
    result = _in_workdir(tmp_path, [
        {"entryname": "renamed.dat", "entry": "$(inputs.f)"},
    ], 'cat "$0" renamed.dat', {"f": fv})
    assert edits  # the source really changed after it was verified
    assert _read(result.outputs["out"].path) == "original\n" * 2


@pytest.mark.parametrize("container", [False, True],
                         ids=["host", "container"])
def test_workdir_entries_see_the_paths_and_runtime_of_the_command(
        tmp_path, container):
    adapter = DockerAdapter()
    adapter.command = "true"  # a container runtime that runs nothing
    rt = LocalRuntime(str(tmp_path / "work"), use_containers=container,
                      adapter=adapter)
    tool = _tool(
        baseCommand=["cat", "where.txt", "cores.txt"],
        inputs=[{"id": "f", "type": "File"}],
        requirements=[{"class": "InitialWorkDirRequirement", "listing": [
            {"entry": "$(inputs.f.path)", "entryname": "where.txt"},
            {"entry": "$(runtime.cores)", "entryname": "cores.txt"}]}],
        hints=[{"class": "DockerRequirement", "dockerPull": "busybox"}])
    node = TaskNode(id="t", tool=tool, bindings={},
                    requirements=tool.requirements, hints=tool.hints)
    result = rt.run_task(node, {"f": _fv(tmp_path)}, 1, {"coresMin": 2})
    assert result.outcome == "Success", result.error
    outdir = os.path.dirname(result.outputs["out"].path)
    staged = "/miniwfl/inputs/in.txt" if container else f"{outdir}.inputs/in.txt"
    assert _read(os.path.join(outdir, "where.txt")) == staged
    assert _read(os.path.join(outdir, "cores.txt")) == "2"
    if not container:
        assert _read(result.outputs["out"].path) == staged + "2"


def _count_hashes(monkeypatch):
    calls = []
    checksum = runtime.file_checksum

    def counting(path):
        calls.append(path)
        return checksum(path)

    monkeypatch.setattr(runtime, "file_checksum", counting)
    return calls


def test_stage_hashes_each_input_once_per_run(tmp_path, monkeypatch):
    fv = _fv(tmp_path)
    other = _fv(tmp_path, "other.txt", "o\n")
    calls = _count_hashes(monkeypatch)
    store = _store(tmp_path)
    for _ in range(3):
        _, bindings = stage("t", {"f": fv, "g": fv, "h": other},
                            str(tmp_path / "work"), store)
        assert _read(bindings["f"].path) == "payload\n"
        assert _read(bindings["h"].path) == "o\n"
    # the first attempt makes and hashes the entries; later ones link them
    assert len(calls) == 2
    # another run's store hashes its copy again
    stage("t", {"f": fv}, str(tmp_path / "work"), _store(tmp_path))
    assert len(calls) == 3


def test_source_edited_between_attempts_fails_the_later_one(tmp_path):
    fv = _fv(tmp_path)
    stage("t", {"f": fv}, str(tmp_path / "work"), _store(tmp_path))
    (tmp_path / "in.txt").write_text("PAYLOAD\n")  # same size, right away
    with pytest.raises(StagingError, match="changed"):
        stage("t", {"f": fv}, str(tmp_path / "work"), _store(tmp_path))


def test_stage_out_names_collisions_without_hashing_its_own_copies(
        tmp_path, monkeypatch):
    from miniwfl import cache, planner
    made = []

    def produced(name, content):  # one shard's output, in its own directory
        directory = tmp_path / "src" / str(len(made))
        directory.mkdir(parents=True)
        made.append(_fv(directory, name, content))
        return made[-1]

    contents = ["a\n", "b\n", "a\n", "c\n", "b\n"]
    outputs = {"xs": [produced("out.txt", c) for c in contents]}
    calls = []
    for module in (planner, runtime, cache):
        checksum = module.file_checksum
        monkeypatch.setattr(module, "file_checksum",
                            lambda p, f=checksum: calls.append(p) or f(p))
    dest = tmp_path / "outdir"
    staged = runtime.stage_out(outputs, str(dest))
    names = [os.path.basename(fv.path) for fv in staged["xs"]]
    assert names == ["out.txt", "out.1.txt", "out.txt", "out.2.txt",
                     "out.1.txt"]
    assert calls == []
    for fv, content in zip(staged["xs"], contents):
        assert _read(fv.path) == content
    # a later call hashes each existing target once, in probe order
    later = {"x": [produced("out.txt", "c\n"), produced("out.txt", "d\n"),
                   produced("out.1.txt", "e\n")]}
    del calls[:]  # loading those hashed them
    staged = runtime.stage_out(later, str(dest))
    assert [os.path.basename(fv.path) for fv in staged["x"]] \
        == ["out.2.txt", "out.3.txt", "out.1.1.txt"]
    assert [os.path.basename(p) for p in calls] \
        == ["out.txt", "out.1.txt", "out.2.txt"]


def test_stage_out_links_what_the_run_made_and_copies_the_rest(tmp_path):
    work = tmp_path / "work"
    (work / "attempt").mkdir(parents=True)
    made = _fv(work / "attempt", "made.txt", "made\n")
    given = _fv(tmp_path, "given.txt", "given\n")
    staged = runtime.stage_out({"made": made, "given": given},
                               str(tmp_path / "outdir"), str(work))
    assert os.path.samefile(staged["made"].path, made.path)
    assert not os.path.samefile(staged["given"].path, given.path)
    assert _read(staged["given"].path) == "given\n"
    assert os.stat(given.path).st_nlink == 1


@pytest.mark.parametrize("taken", ["dangling symlink", "symlink to the bytes",
                                   "directory"])
@pytest.mark.parametrize("linked", [False, True], ids=["copy", "link"])
def test_stage_out_moves_on_from_a_name_that_is_not_a_file(tmp_path, taken,
                                                           linked):
    (tmp_path / "src").mkdir()
    fv = _fv(tmp_path / "src", "out.txt", "a\n")
    dest = tmp_path / "outdir"
    dest.mkdir()
    outside = tmp_path / "outside.txt"
    if taken == "directory":
        (dest / "out.txt").mkdir()
    else:
        if taken == "symlink to the bytes":
            outside.write_text("a\n")
        (dest / "out.txt").symlink_to(outside)
    staged = runtime.stage_out({"o": fv}, str(dest),
                               str(tmp_path / "src") if linked else None)
    assert staged["o"].path == str(dest / "out.1.txt")
    assert _read(staged["o"].path) == "a\n"
    assert os.path.samefile(staged["o"].path, fv.path) is linked
    # nothing was written through the link
    assert outside.exists() is (taken == "symlink to the bytes")


# --- execution --------------------------------------------------------------

def _staged(tmp_path):
    staged, _ = stage("t", {}, str(tmp_path / "work"), _store(tmp_path))
    return staged


def test_execute_success_and_exit_capture(tmp_path):
    staged = _staged(tmp_path)
    attempt = execute("t", 1, ["sh", "-c", "echo out; echo err >&2"], {},
                      staged)
    assert attempt.outcome == runtime.SUCCESS
    assert attempt.exit_code == 0
    assert open(attempt.stdout_path).read() == "out\n"
    assert open(attempt.stderr_path).read() == "err\n"
    assert attempt.end_time >= attempt.start_time


def test_execute_nonzero_exit_is_permanent(tmp_path):
    attempt = execute("t", 1, ["false"], {}, _staged(tmp_path))
    assert attempt.outcome == runtime.PERMANENT_FAILURE
    assert attempt.failure_kind == "ExitCode"
    assert attempt.exit_code == 1


def test_execute_honors_success_codes(tmp_path):
    attempt = execute("t", 1, ["sh", "-c", "exit 3"], {}, _staged(tmp_path),
                      success_codes=frozenset({0, 3}))
    assert attempt.outcome == runtime.SUCCESS


def test_execute_timeout_is_temporary(tmp_path):
    attempt = execute("t", 1, ["sleep", "5"], {}, _staged(tmp_path),
                      wall_time_max=0.3)
    assert attempt.outcome == runtime.TEMPORARY_FAILURE
    assert attempt.failure_kind == "Timeout"
    assert attempt.end_time - attempt.start_time < 3


def test_execute_missing_binary_is_launch_error(tmp_path):
    attempt = execute("t", 1, ["definitely-not-a-binary-xyz"], {},
                      _staged(tmp_path))
    assert attempt.outcome == runtime.PERMANENT_FAILURE
    assert attempt.failure_kind == "LaunchError"


def test_execute_non_executable_file_is_a_launch_race(tmp_path):
    script = tmp_path / "script.sh"
    script.write_text("#!/bin/sh\necho hi\n")
    script.chmod(0o644)  # no execute bit for anyone, root included
    attempt = execute("t", 1, [str(script)], {}, _staged(tmp_path))
    assert attempt.failure_kind == "LaunchRace"
    assert attempt.outcome == runtime.TEMPORARY_FAILURE
    assert attempt.start_time and attempt.end_time


def test_execute_runs_in_outdir_with_explicit_env(tmp_path):
    staged = _staged(tmp_path)
    env = runtime.base_environment(staged, container=False)
    env["CUSTOM"] = "yes"
    attempt = execute("t", 1, ["sh", "-c", "pwd; env | sort"], env, staged)
    lines = open(attempt.stdout_path).read().splitlines()
    assert lines[0] == os.path.realpath(staged.outdir) or lines[0] == staged.outdir
    env_lines = [l for l in lines[1:] if "=" in l]
    keys = {l.split("=", 1)[0] for l in env_lines}
    assert "CUSTOM" in keys
    assert "HOME" in keys and "TMPDIR" in keys and "PATH" in keys
    # hermetic: nothing beyond the declared set (PWD/SHLVL/_ come from sh)
    assert keys <= {"CUSTOM", "HOME", "TMPDIR", "PATH", "PWD", "SHLVL", "_",
                    "OLDPWD"}
    assert f"HOME={staged.outdir}" in env_lines
    assert f"TMPDIR={staged.tmpdir}" in env_lines


def test_execute_stdin_redirection(tmp_path):
    staged = _staged(tmp_path)
    src = tmp_path / "lines.txt"
    src.write_text("1\n2\n3\n")
    attempt = execute("t", 1, ["wc", "-l"], {}, staged,
                      stdin_path=str(src))
    assert attempt.outcome == runtime.SUCCESS
    assert open(attempt.stdout_path).read().strip() == "3"


# --- output collection ------------------------------------------------------

def _run_and_collect(tmp_path, tool, script):
    staged = _staged(tmp_path)
    attempt = execute("t", 1, ["sh", "-c", script], {}, staged)
    assert attempt.outcome == runtime.SUCCESS
    return collect_outputs(tool, staged), staged


def test_collect_stdout_capture_named_file(tmp_path):
    tool = _tool()
    staged = _staged(tmp_path)
    attempt = execute("t", 1, ["echo", "hi"], {}, staged,
                      streams=stream_names(tool))
    outputs = collect_outputs(tool, staged)
    fv = outputs["out"]
    assert fv.basename == "out.txt"
    assert open(fv.path).read() == "hi\n"
    assert fv.checksum == file_checksum(fv.path)
    assert fv.path == attempt.stdout_path  # written in place, no link


def test_collect_glob_single_file(tmp_path):
    tool = _tool(outputs=[{"id": "r", "type": "File", "glob": "*.dat"}])
    outputs, _ = _run_and_collect(tmp_path, tool, "echo x > a.dat")
    assert outputs["r"].basename == "a.dat"


def test_collect_glob_array_sorted(tmp_path):
    tool = _tool(outputs=[{"id": "r", "type": "File[]", "glob": "*.dat"}])
    outputs, _ = _run_and_collect(tmp_path, tool,
                                  "echo 2 > b.dat; echo 1 > a.dat")
    assert [f.basename for f in outputs["r"]] == ["a.dat", "b.dat"]


def test_collect_missing_required_output_raises(tmp_path):
    from miniwfl.errors import OutputMissingError
    tool = _tool(outputs=[{"id": "r", "type": "File", "glob": "*.dat"}])
    with pytest.raises(OutputMissingError):
        _run_and_collect(tmp_path, tool, "true")


def test_collect_missing_optional_output_is_null(tmp_path):
    tool = _tool(outputs=[{"id": "r", "type": "File?", "glob": "*.dat"}])
    outputs, _ = _run_and_collect(tmp_path, tool, "true")
    assert outputs["r"] is None


def test_collect_ambiguous_single_file_glob_raises(tmp_path):
    from miniwfl.errors import OutputAmbiguousError
    tool = _tool(outputs=[{"id": "r", "type": "File", "glob": "*.dat"}])
    with pytest.raises(OutputAmbiguousError):
        _run_and_collect(tmp_path, tool, "touch a.dat b.dat")


def test_collect_primitive_output_parses_json(tmp_path):
    tool = _tool(outputs=[{"id": "n", "type": "int", "glob": "n.json"}])
    outputs, _ = _run_and_collect(tmp_path, tool, "echo 41 > n.json")
    assert outputs["n"] == 41


def test_collect_primitive_output_without_match_raises(tmp_path):
    from miniwfl.errors import OutputMissingError
    tool = _tool(outputs=[{"id": "n", "type": "int", "glob": "n.json"}])
    with pytest.raises(OutputMissingError, match="matched nothing"):
        _run_and_collect(tmp_path, tool, "true")
    optional = _tool(outputs=[{"id": "n", "type": "int?", "glob": "n.json"}])
    outputs, _ = _run_and_collect(tmp_path, optional, "true")
    assert outputs["n"] is None


def test_collect_primitive_output_with_two_matches_raises(tmp_path):
    from miniwfl.errors import OutputAmbiguousError
    tool = _tool(outputs=[{"id": "n", "type": "int", "glob": "*.json"}])
    with pytest.raises(OutputAmbiguousError, match="matched 2 files"):
        _run_and_collect(tmp_path, tool, "echo 1 > a.json; echo 2 > b.json")


# --- docker adapter ---------------------------------------------------------

def test_docker_adapter_argv_contract(tmp_path):
    staged = StagedDirectory(
        staged_inputs={"/orig/a.txt": "/w/t-1.inputs/0/a.txt"},
        outdir="/w/t-1", tmpdir="/w/t-1.tmp")
    argv = DockerAdapter().build_argv(
        "alpine:3.19", ["cat", "/miniwfl/inputs/0/a.txt"], staged,
        {"HOME": "/miniwfl/outdir"})
    assert argv == [
        "docker", "run", "--rm", "--workdir", "/miniwfl/outdir",
        "-v", "/w/t-1.inputs/0/a.txt:/miniwfl/inputs/0/a.txt:ro",
        "-v", "/w/t-1:/miniwfl/outdir:rw",
        "-v", "/w/t-1.tmp:/tmp:rw",
        "--env", "HOME=/miniwfl/outdir",
        "alpine:3.19",
        "cat", "/miniwfl/inputs/0/a.txt",
    ]
    with_stdin = DockerAdapter().build_argv(
        "alpine:3.19", ["wc", "-l"], staged, {}, interactive=True)
    assert with_stdin[:6] == ["docker", "run", "--rm", "--workdir",
                              "/miniwfl/outdir", "-i"]


def test_link_or_copy_never_writes_into_an_existing_target(tmp_path,
                                                          monkeypatch):
    import errno
    source = _fv(tmp_path, "source.txt", "new\n").path
    target = tmp_path / "target.txt"
    target.write_text("kept\n")
    other_name = tmp_path / "other.txt"  # a second link, as from a run
    os.link(target, other_name)
    runtime.link_or_copy(source, str(target))
    assert _read(target) == "kept\n"

    def cross_device(src, dst, **kwargs):
        raise OSError(errno.EXDEV, "Invalid cross-device link")

    monkeypatch.setattr(os, "link", cross_device)
    runtime.link_or_copy(source, str(target))
    assert _read(target) == "kept\n"  # not even a copy renamed over it
    assert _read(other_name) == "kept\n"
    fresh = tmp_path / "fresh.txt"
    runtime.link_or_copy(source, str(fresh))
    assert _read(fresh) == "new\n"  # a copy where there is no target
    assert not os.path.samefile(fresh, source)
    os.remove(fresh)
    assert sorted(os.listdir(tmp_path)) == ["other.txt", "source.txt",
                                            "target.txt"]


# --- LocalRuntime end to end ------------------------------------------------

def test_run_task_counts_spawns_and_collects(tmp_path):
    rt = LocalRuntime(str(tmp_path / "work"), use_containers=False)
    tool = _tool()
    node = TaskNode(id="say", tool=tool, bindings={})
    result = rt.run_task(node, {"msg": "hello"}, 1, {"coresMin": 1})
    assert result.outputs is not None
    assert open(result.outputs["out"].path).read() == "hello\n"
    assert result.start_time > 0  # spawned
    assert result.argv == ["echo", "hello"]


def test_run_task_drops_spent_inputs_only_after_success(tmp_path):
    rt = LocalRuntime(str(tmp_path / "work"), use_containers=False)
    fv = _fv(tmp_path)

    def attempt(script, outputs):
        tool = _tool(baseCommand=["sh", "-c", script],
                     inputs=[{"id": "f", "type": "File", "position": 1}],
                     outputs=outputs)
        result = rt.run_task(TaskNode(id="t", tool=tool, bindings={}),
                             {"f": fv}, 1, {})
        inputs_dir = os.path.dirname(result.stdout_path) + ".inputs"
        return result, inputs_dir

    copied = [{"id": "out", "type": "File", "glob": "copy.txt"}]
    result, inputs_dir = attempt('cp "$0" copy.txt', copied)
    assert _read(result.outputs["out"].path) == "payload\n"
    assert not os.path.exists(inputs_dir)

    result, inputs_dir = attempt('cp "$0" copy.txt; exit 3', copied)
    assert result.outputs is None
    assert os.listdir(inputs_dir) == ["in.txt"]  # kept for debugging

    linked = [{"id": "out", "type": "File", "glob": "link.txt"}]
    result, inputs_dir = attempt('ln -s "$0" link.txt', linked)
    assert _read(result.outputs["out"].path) == "payload\n"
    assert not os.path.exists(inputs_dir)  # the output holds its own bytes

    through_dir = [{"id": "out", "type": "File", "glob": "in/in.txt"}]
    result, inputs_dir = attempt('ln -s "`dirname "$0"`" in', through_dir)
    assert _read(result.outputs["out"].path) == "payload\n"
    assert not os.path.exists(inputs_dir)


def test_run_task_reports_env_clause(tmp_path):
    from miniwfl.model import CLAUSE_ENV
    rt = LocalRuntime(str(tmp_path / "work"), use_containers=False)
    tool = _tool(baseCommand=["sh", "-c", "echo $GREETING"], inputs=[
        {"id": "who", "type": "string"}])
    node = TaskNode(id="t", tool=tool, bindings={}, requirements=(
        Clause(CLAUSE_ENV, {"envDef": {"GREETING": "hi $(inputs.who)"}}),))
    result = rt.run_task(node, {"who": "crew"}, 1, {})
    assert open(result.outputs["out"].path).read() == "hi crew\n"


def test_run_task_expression_failure_is_permanent(tmp_path):
    rt = LocalRuntime(str(tmp_path / "work"), use_containers=False)
    tool = _tool(inputs=[{"id": "s", "type": "string", "position": 1}])
    node = TaskNode(id="t", tool=tool, bindings={})
    result = rt.run_task(node, {"s": "$(inputs.nope)"}, 1, {})
    assert result.outputs is None
    assert result.failure_kind == "ExprError"


def _missing_input(tmp_path):
    fv = _fv(tmp_path)
    os.remove(fv.path)  # gone after the job order was loaded
    return fv


# one case per failure kind: (tool overrides, input values, resources)
FAILURES = {
    "StagingError": (
        {"inputs": [{"id": "f", "type": "File", "position": 1}]},
        lambda tmp_path: {"f": _missing_input(tmp_path)}, {}),
    "ExprError": ({}, lambda tmp_path: {"msg": "$(inputs.nope)"}, {}),
    "LaunchError/empty argv": (
        {"baseCommand": [], "inputs": []}, lambda tmp_path: {}, {}),
    "LaunchError/missing binary": (
        {"baseCommand": ["definitely-not-a-binary-xyz"]},
        lambda tmp_path: {"msg": "x"}, {}),
    "ExitCode": ({"baseCommand": ["false"], "inputs": []},
                 lambda tmp_path: {}, {}),
    "OutputMissing": (
        {"outputs": [{"id": "out", "type": "File", "glob": "none.txt"}]},
        lambda tmp_path: {"msg": "x"}, {}),
    "OutputMissing/capture removed by the tool": (
        {"baseCommand": ["sh", "-c", "echo hi; rm out.txt"], "inputs": []},
        lambda tmp_path: {}, {}),
    "OutputAmbiguous": (
        {"baseCommand": ["sh", "-c", "touch a.txt b.txt"], "inputs": [],
         "outputs": [{"id": "out", "type": "File", "glob": "*.txt"}]},
        lambda tmp_path: {}, {}),
    "Timeout": ({"baseCommand": ["sleep", "5"], "inputs": []},
                lambda tmp_path: {}, {"wallTimeMax": 0.3}),
}


@pytest.mark.parametrize("case", sorted(FAILURES))
def test_run_task_reports_each_failure_kind(tmp_path, case):
    overrides, values, resources = FAILURES[case]
    rt = LocalRuntime(str(tmp_path / "work"), use_containers=False)
    node = TaskNode(id="t", tool=_tool(**overrides), bindings={})
    attempt = rt.run_task(node, values(tmp_path), 1, resources)
    kind = case.split("/")[0]
    assert attempt.failure_kind == kind
    assert attempt.outcome == (runtime.TEMPORARY_FAILURE if kind == "Timeout"
                               else runtime.PERMANENT_FAILURE)
    assert attempt.outputs is None


@pytest.mark.skipif(os.geteuid() == 0,
                    reason="root bypasses file permission bits")
def test_staged_inputs_resist_modification(tmp_path):
    fv = _fv(tmp_path)
    _, bindings = stage("t1", {"f": fv}, str(tmp_path / "work"),
                        _store(tmp_path))
    with pytest.raises(PermissionError):
        open(bindings["f"].path, "w")


# --- the run's input store ----------------------------------------------------

def test_attempts_on_one_input_copy_and_hash_it_once(tmp_path, monkeypatch):
    import shutil
    import sys
    import threading
    rt = LocalRuntime(str(tmp_path / "work"), use_containers=False)
    fv = _fv(tmp_path)
    hashed = _count_hashes(monkeypatch)
    copied, linked = [], []
    copyfile, link = shutil.copyfile, os.link
    monkeypatch.setattr(shutil, "copyfile", lambda src, dst, **kwargs:
                        copied.append(src) or copyfile(src, dst, **kwargs))
    monkeypatch.setattr(os, "link", lambda src, dst, **kwargs:
                        linked.append(dst) or link(src, dst, **kwargs))
    node = _sh('cat "$0"', F_INPUT)
    results = []

    def worker():
        for _ in range(4):
            results.append(rt.run_task(node, {"f": fv}, 1, {}))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [_read(r.outputs["out"].path) for r in results] == ["payload\n"] * 8
    # the second worker waited for the entry the first one made
    assert copied == [fv.path] and len(hashed) == 1
    assert len(linked) == 8


@pytest.mark.parametrize("script, resources", [
    ('echo more >> "$0"; cat "$0"', {}),
    ('echo more >> "$0"; exit 3', {}),
    ('echo more >> "$0"; sleep 5', {"wallTimeMax": 0.3}),
], ids=["success", "exit code", "timeout"])
def test_tool_writing_its_input_fails_and_the_next_one_reads_it_anew(
        tmp_path, monkeypatch, script, resources):
    rt = LocalRuntime(str(tmp_path / "work"), use_containers=False)
    fv = _fv(tmp_path)
    hashed = _count_hashes(monkeypatch)
    writer = rt.run_task(_sh(script, F_INPUT), {"f": fv}, 1, resources)
    assert (writer.failure_kind, writer.error) \
        == ("StagingError", f"input modified by the tool: {fv.path}")
    assert writer.outcome == runtime.PERMANENT_FAILURE
    assert writer.outputs is None
    entry = os.path.join(rt.store.root, fv.checksum)
    assert not os.path.exists(entry)  # dropped, so made again when needed
    kept = os.path.dirname(writer.stdout_path) + ".inputs/in.txt"
    assert _read(kept) == "payload\nmore\n"  # kept for debugging
    hashes_before = len(hashed)
    reader = rt.run_task(_sh('cat "$0"', F_INPUT), {"f": fv}, 1, {})
    assert _read(reader.outputs["out"].path) == "payload\n"
    assert len(hashed) == hashes_before + 1  # the entry made again
    assert os.stat(entry).st_ino != os.stat(kept).st_ino


@pytest.mark.parametrize("script", [
    'cat "$0"', 'mv "$0" "$0.moved" && cat "$0.moved"',
], ids=["read", "rename"])
def test_tool_reading_or_renaming_its_input_passes_the_check(tmp_path,
                                                             script):
    rt = LocalRuntime(str(tmp_path / "work"), use_containers=False)
    result = rt.run_task(_sh(script, F_INPUT), {"f": _fv(tmp_path)}, 1, {})
    assert result.outcome == runtime.SUCCESS, result.error
    assert _read(result.outputs["out"].path) == "payload\n"


def test_source_edited_after_its_entry_is_made_reaches_no_attempt(tmp_path):
    rt = LocalRuntime(str(tmp_path / "work"), use_containers=False)
    fv = _fv(tmp_path)
    node = _sh('cat "$0"', F_INPUT)
    first = rt.run_task(node, {"f": fv}, 1, {})
    (tmp_path / "in.txt").write_text("PAYLOAD\n")
    second = rt.run_task(node, {"f": fv}, 1, {})
    assert [_read(r.outputs["out"].path) for r in (first, second)] \
        == ["payload\n"] * 2


@pytest.mark.parametrize("script", [
    'ln "$0" linked.txt', 'mv "$0" linked.txt',
], ids=["hard link", "rename"])
def test_output_that_is_its_input_gets_an_inode_of_its_own(tmp_path, script):
    rt = LocalRuntime(str(tmp_path / "work"), use_containers=False)
    fv = _fv(tmp_path)
    result = rt.run_task(_sh(script, F_INPUT, outputs=[
        {"id": "out", "type": "File", "glob": "linked.txt"}]), {"f": fv}, 1, {})
    assert result.outcome == runtime.SUCCESS, result.error
    out = result.outputs["out"].path
    assert _read(out) == "payload\n"
    assert not os.path.samefile(out, os.path.join(rt.store.root, fv.checksum))
    assert os.stat(out).st_nlink == 1


def test_close_removes_the_store(tmp_path):
    rt = LocalRuntime(str(tmp_path / "work"), use_containers=False)
    failed = rt.run_task(_sh('cat "$0"; exit 3', F_INPUT),
                         {"f": _fv(tmp_path)}, 1, {})
    assert os.listdir(rt.store.root)
    rt.close()
    assert not os.path.exists(rt.store.root)
    kept = os.path.dirname(failed.stdout_path) + ".inputs/in.txt"
    assert _read(kept) == "payload\n"  # a failed attempt's link keeps its bytes


def test_runtimes_sharing_a_work_root_keep_their_own_stores(tmp_path):
    work = str(tmp_path / "work")
    first, second = (LocalRuntime(work, use_containers=False)
                     for _ in range(2))
    fv = _fv(tmp_path)
    node = _sh('cat "$0"', F_INPUT)
    assert second.run_task(node, {"f": fv}, 1, {}).outputs is not None
    first.run_task(node, {"f": fv}, 1, {})
    first.close()
    # the second run's entry is neither replaced nor removed by the first
    (entry,) = os.listdir(second.store.root)
    assert second.run_task(node, {"f": fv}, 1, {}).outputs is not None
    assert os.listdir(second.store.root) == [entry]


# --- run-made inputs, staged in place ----------------------------------------

def _made(rt, content="payload"):
    """A file the run made: the captured stdout of one attempt of ``rt``."""
    producer = rt.run_task(TaskNode(id="make", tool=_tool(), bindings={}),
                           {"msg": content}, 1, {})
    assert producer.outcome == runtime.SUCCESS, producer.error
    return producer.outputs["out"]


def test_collected_output_carries_a_stamped_mtime_and_is_recorded(tmp_path):
    rt = LocalRuntime(str(tmp_path / "work"), use_containers=False)
    before = time.time_ns()
    fv = _made(rt)
    after = time.time_ns()
    st = os.lstat(fv.path)
    # set while collecting, far enough back that any later write moves it
    lag = runtime._STAMP_LAG_NS
    assert before - lag <= st.st_mtime_ns <= after - lag
    assert rt.made == {fv.path: (fv.checksum, (
        st.st_ino, st.st_size, st.st_mtime_ns, st.st_mode))}


def test_output_the_engine_may_not_stamp_is_read_through_the_store(
        tmp_path, monkeypatch):
    rt = LocalRuntime(str(tmp_path / "work"), use_containers=False)

    def refused(path, *args, **kwargs):  # a file of another user
        raise PermissionError(1, "Operation not permitted", path)

    monkeypatch.setattr(os, "utime", refused)
    fv = _made(rt)
    assert rt.made == {}
    monkeypatch.undo()
    reader = rt.run_task(_sh('cat "$0"', F_INPUT), {"f": fv}, 1, {})
    assert reader.outcome == runtime.SUCCESS, reader.error
    assert reader.argv[-1] == os.path.dirname(reader.stdout_path) \
        + ".inputs/out.txt"


@pytest.mark.parametrize("script, overrides", [
    ('cat "$0"', {}),
    ('ln "$0" linked.txt',
     {"outputs": [{"id": "out", "type": "File", "glob": "linked.txt"}]}),
], ids=["read", "hard link"])
def test_tool_reading_or_linking_a_run_made_input_reads_it_in_place(
        tmp_path, script, overrides):
    rt = LocalRuntime(str(tmp_path / "work"), use_containers=False)
    fv = _made(rt)
    record = rt.made[fv.path]
    result = rt.run_task(_sh(script, F_INPUT, **overrides), {"f": fv}, 1, {})
    assert result.outcome == runtime.SUCCESS, result.error
    assert result.argv[-1] == fv.path  # the producer's own file
    out = result.outputs["out"].path
    assert _read(out) == "payload\n"
    assert not os.path.exists(os.path.dirname(out) + ".inputs")
    # the producer's file is untouched; an output has an inode of its own
    assert rt.made[fv.path] == record
    assert runtime._entry_signature(fv.path) == record[1]
    assert os.stat(out).st_nlink == 1


DAMAGE = {
    "append": 'echo more >> "$0"',
    "overwrite": 'printf J | dd of="$0" conv=notrunc 2>/dev/null',
    "truncate": ': > "$0"',
    "rm": 'rm "$0"',
    "mv": 'mv "$0" moved.txt',
    "chmod": 'chmod +x "$0"',
    "touch": 'touch "$0"',
}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_tool_changing_a_run_made_input_fails_it_and_every_later_reader(
        tmp_path, damage):
    rt = LocalRuntime(str(tmp_path / "work"), use_containers=False)
    fv = _made(rt)
    inode = os.stat(fv.path).st_ino
    writer = rt.run_task(_sh(DAMAGE[damage], F_INPUT), {"f": fv}, 1, {})
    assert (writer.failure_kind, writer.error) \
        == ("StagingError", f"input modified by the tool: {fv.path}")
    assert writer.outcome == runtime.PERMANENT_FAILURE
    assert writer.outputs is None
    assert writer.damaged == [(fv.checksum, inode)]
    # set aside, where no reader and no stage-out finds it
    assert not os.path.exists(fv.path)
    assert os.path.exists(f"{fv.path}.modified") \
        is (damage not in ("rm", "mv"))
    reader = rt.run_task(_sh('cat "$0"', F_INPUT), {"f": fv}, 1, {})
    assert (reader.failure_kind, reader.error) \
        == ("StagingError", f"input changed during run: {fv.path}")
    assert reader.start_time == 0  # never spawned
    assert reader.damaged == [(fv.checksum, inode)]


def test_run_made_input_changed_before_its_reader_stages_fails_it(tmp_path):
    rt = LocalRuntime(str(tmp_path / "work"), use_containers=False)
    fv = _made(rt)
    with open(fv.path, "a") as fh:  # at once: the stamp is 2 s back
        fh.write("x")
    reader = rt.run_task(_sh('cat "$0"', F_INPUT), {"f": fv}, 1, {})
    assert reader.error == f"input changed during run: {fv.path}"
    assert _read(f"{fv.path}.modified") == "payload\nx"


def test_gather_of_same_named_run_made_inputs_makes_nothing_to_stage_them(
        tmp_path, monkeypatch):
    import shutil
    from miniwfl import planner
    rt = LocalRuntime(str(tmp_path / "work"), use_containers=False)
    parts = [_made(rt, str(n)) for n in range(120)]  # every one is out.txt
    assert {fv.basename for fv in parts} == {"out.txt"}
    gather = TaskNode(id="gather", tool=_tool(
        baseCommand=["cat"],
        inputs=[{"id": "parts", "type": "File[]", "position": 1}],
        stdout="all.txt"), bindings={})
    # the whole attempt, from its stage to its check; this worker thread
    # made its TMPDIR for the producers
    calls = {"mkdir": [], "copyfile": [], "link": [], "hash": []}

    def counted(name, real):
        return lambda *a, **k: calls[name].append(a[0]) or real(*a, **k)

    monkeypatch.setattr(os, "mkdir", counted("mkdir", os.mkdir))
    monkeypatch.setattr(os, "link", counted("link", os.link))
    monkeypatch.setattr(shutil, "copyfile",
                        counted("copyfile", shutil.copyfile))
    for module in (runtime, planner):
        monkeypatch.setattr(module, "file_checksum",
                            counted("hash", module.file_checksum))
    result = rt.run_task(gather, {"parts": parts}, 1, {})
    assert result.outcome == runtime.SUCCESS, result.error
    assert _read(result.outputs["out"].path) \
        == "".join(f"{n}\n" for n in range(120))
    outdir = os.path.dirname(result.outputs["out"].path)
    assert calls == {"mkdir": [outdir], "copyfile": [], "link": [],
                     "hash": [result.outputs["out"].path]}
    assert result.argv[1:] == [fv.path for fv in parts]
    assert not os.path.exists(f"{outdir}.inputs")


@pytest.mark.parametrize("container", [False, True],
                         ids=["host", "container"])
def test_workdir_entry_names_a_run_made_file(tmp_path, container):
    adapter = DockerAdapter()
    adapter.command = "true"  # a container runtime that runs nothing
    rt = LocalRuntime(str(tmp_path / "work"), use_containers=container,
                      adapter=adapter)
    fv = _made(rt)
    tool = _tool(
        baseCommand=["cat", "copy.dat"],
        inputs=[{"id": "f", "type": "File"}],
        requirements=[{"class": "InitialWorkDirRequirement", "listing": [
            {"entry": "$(inputs.f)", "entryname": "copy.dat"},
            {"entry": "$(inputs.f.path)", "entryname": "where.txt"}]}],
        hints=[{"class": "DockerRequirement", "dockerPull": "busybox"}])
    node = TaskNode(id="t", tool=tool, bindings={},
                    requirements=tool.requirements, hints=tool.hints)
    result = rt.run_task(node, {"f": fv}, 1, {})
    assert result.outcome == "Success", result.error
    outdir = os.path.dirname(result.outputs["out"].path)
    where = (f"/miniwfl/work/{os.path.relpath(fv.path, rt.work_root)}"
             if container else fv.path)
    assert _read(os.path.join(outdir, "where.txt")) == where
    copy = os.path.join(outdir, "copy.dat")
    assert _read(copy) == "payload\n"
    assert not os.path.samefile(copy, fv.path)
    if not container:
        assert _read(result.outputs["out"].path) == "payload\n"


def test_workers_record_and_read_run_made_files_without_losing_one(tmp_path):
    import sys
    import threading
    rt = LocalRuntime(str(tmp_path / "work"), use_containers=False)
    reader = _sh('cat "$0"', F_INPUT)
    seen, read = [], []

    def worker(n):
        for i in range(4):
            fv = _made(rt, f"{n}-{i}")
            result = rt.run_task(reader, {"f": fv}, 1, {})
            read.append(result.argv[-1] == fv.path
                        and _read(result.outputs["out"].path) == f"{n}-{i}\n")
            seen.append(fv.path)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,))
                   for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert read == [True] * 16
    # every producer's and every reader's output is on record
    assert len(rt.made) == 32 and set(seen) <= set(rt.made)
