"""Acceptance suite: end-to-end guarantees the engine is built around.

Each test prints a PASS line with its measured figures so a full run doubles
as a quick health report.
"""

import hashlib
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time

import pytest

from conftest import (
    NullRuntime,
    corpus_cases,
    load_expected,
    run_case,
    strip_paths,
)

from miniwfl import parser, planner, scheduler, upgrader, validator
from miniwfl.planner import DataflowGraph, TaskNode
from miniwfl.runtime import TEMPORARY_FAILURE, LocalRuntime, TaskAttempt
from miniwfl.scheduler import Machine, RunConfig, Services


def _api_run(doc, job, work_root, parallelism=2, retries=0, cache=None,
             cores=4, use_containers=False):
    graph = planner.plan(doc, job)
    runtime = LocalRuntime(str(work_root), use_containers=use_containers)
    cfg = RunConfig(parallelism=parallelism, retries=retries,
                    machine=Machine(cores=cores))
    result = scheduler.run(graph, cfg, Services(runtime, cache))
    return result, runtime


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


# -- 1. golden conformance corpus -------------------------------------------

def test_conformance_corpus_passes_byte_exact(tmp_path):
    names = corpus_cases()
    assert len(names) >= 25
    started = time.monotonic()
    for name in names:
        case_tmp = tmp_path / name
        case_tmp.mkdir()
        code, outputs = run_case(name, str(case_tmp),
                                 str(case_tmp / "cache"))
        assert code == 0, f"{name} exited {code}"
        assert strip_paths(outputs) == load_expected(name), name
    elapsed = time.monotonic() - started
    assert elapsed < 60
    print(f"PASS corpus: {len(names)} cases byte-exact in {elapsed:.1f}s")


# -- 2. scaled scatter width -------------------------------------------------

WIDE_TOOL = {
    "cwlVersion": "v1.2", "class": "CommandLineTool",
    "baseCommand": ["echo"],
    "inputs": [{"id": "i", "type": "int", "position": 1}],
    "outputs": [{"id": "out", "type": "File", "capture": "stdout"}],
    "stdout": "out.txt",
}


def _wide_workflow(width):
    raw = {
        "cwlVersion": "v1.2", "class": "Workflow",
        "inputs": [{"id": "idx", "type": "int[]"}],
        "outputs": [{"id": "outs", "type": "File[]",
                     "outputSource": "fan/out"}],
        "steps": [{"id": "fan", "run": dict(WIDE_TOOL),
                   "in": {"i": "idx"}, "scatter": ["i"]}],
    }
    return parser.parse_raw(raw), {"idx": list(range(width))}


def test_scaled_width_1000(tmp_path):
    width = 1000
    started = time.monotonic()
    doc, job = _wide_workflow(width)
    checks = {}
    for par in (1, 8):
        result, _ = _api_run(doc, dict(job), tmp_path / f"w{par}",
                             parallelism=par, cores=8)
        assert result.status == "Success"
        outs = result.outputs["outs"]
        assert len(outs) == width
        for i, fv in enumerate(outs):
            assert fv.checksum == _sha(f"{i}\n"), f"shard {i} wrong"
        checks[par] = [fv.checksum for fv in outs]
    assert checks[1] == checks[8]
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    elapsed = time.monotonic() - started
    assert peak_mib < 512
    assert elapsed < 300
    print(f"PASS width-1000: both parallelisms identical, "
          f"peak {peak_mib:.0f} MiB, {elapsed:.1f}s")


# -- 3. dependency safety on random DAGs -------------------------------------

STUB_TOOL = parser.parse_raw({
    "cwlVersion": "v1.2", "class": "CommandLineTool",
    "baseCommand": ["stub"],
    "inputs": [{"id": f"i{k}", "type": "string?"} for k in range(50)],
    "outputs": [{"id": "out", "type": "string?", "glob": "o"}],
}).body


class InstantRuntime(NullRuntime):
    """Zero-cost runtime used to exercise scheduling order alone."""

    spawn_count = 0

    def run_task(self, node, bindings, attempt_number, resources):
        return TaskAttempt(task_id=node.id, attempt_number=attempt_number,
                           outcome="Success", exit_code=0,
                           outputs={"out": node.id})


def _random_edges(rng, n):
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for _ in range(rng.randint(n // 2, 2 * n)):
        i, j = sorted(rng.sample(range(n), 2))
        edges.add((order[i], order[j]))  # forward along a hidden topo order
    return edges


def _graph_from_edges(n, edges):
    """The graph of ``edges`` among ``n`` nodes, each node added after its
    producers, with its layer: 1 + the largest among them."""
    g = DataflowGraph()
    incoming = {}
    for a, b in sorted(edges):
        incoming.setdefault(b, []).append(a)
    order, _ = planner.toposort(range(n), edges)
    for i in order:
        producers = [f"t{a}" for a in incoming.get(i, [])]
        bindings = {f"i{k}": ("edge", (tid, "out"))
                    for k, tid in enumerate(producers)}
        g.nodes[f"t{i}"] = TaskNode(
            id=f"t{i}", tool=STUB_TOOL, bindings=bindings,
            layer=1 + max((g.nodes[tid].layer for tid in producers),
                          default=-1))
        g.edges.update((binding[1], (f"t{i}", inp))
                       for inp, binding in bindings.items())
    return g


def _oracle_dfs_has_cycle(n, edges):
    """Independent recursive DFS with a gray set."""
    adj = {i: [] for i in range(n)}
    for a, b in edges:
        adj[a].append(b)
    state = {i: 0 for i in range(n)}

    def visit(u):
        state[u] = 1
        for v in adj[u]:
            if state[v] == 1 or (state[v] == 0 and visit(v)):
                return True
        state[u] = 2
        return False

    return any(state[i] == 0 and visit(i) for i in range(n))


def _wf_from_edges(n, edges):
    tool = {
        "cwlVersion": "v1.2", "class": "CommandLineTool",
        "baseCommand": ["stub"],
        "inputs": [{"id": f"i{k}", "type": "string?"} for k in range(n)],
        "outputs": [{"id": "out", "type": "string?", "glob": "o"}],
    }
    steps = []
    incoming = {}
    for a, b in sorted(edges):
        incoming.setdefault(b, []).append(a)
    for i in range(n):
        in_block = {f"i{k}": f"s{a}/out"
                    for k, a in enumerate(incoming.get(i, []))}
        steps.append({"id": f"s{i}", "run": dict(tool), "in": in_block})
    return parser.parse_raw({"cwlVersion": "v1.2", "class": "Workflow",
                             "inputs": [], "outputs": [],
                             "steps": steps}).body


def test_dependency_safety_on_random_dags(cached_dir):
    rng = random.Random(20260824)
    started = time.monotonic()
    cfg = RunConfig(parallelism=4, machine=Machine(cores=4))
    detected = 0
    for trial in range(200):
        n = rng.randint(2, 50)
        edges = _random_edges(rng, n)
        graph = _graph_from_edges(n, edges)
        result = scheduler.run(graph, cfg, Services(InstantRuntime(cached_dir)))
        assert result.status == "Success"
        position = {}
        for idx, event in enumerate(result.event_log):
            position[(event["task"], event["transition"])] = idx
        for a, b in edges:
            done = position[(f"t{a}", planner.SUCCEEDED)]
            start = position[(f"t{b}", planner.RUNNING)]
            assert done < start, f"trial {trial}: t{a} finished after t{b} ran"

        # same generator with one injected back edge must always be caught
        a, b = rng.choice(sorted(edges)) if edges else (0, 1)
        cyclic = set(edges) | {(b, a)}
        wf = _wf_from_edges(n, cyclic)
        assert _oracle_dfs_has_cycle(n, cyclic)
        if validator.check_acyclic(wf):
            detected += 1
    assert detected == 200
    elapsed = time.monotonic() - started
    print(f"PASS dependency safety: 200 DAGs ordered correctly, "
          f"200/200 injected cycles detected, {elapsed:.1f}s")


# -- 4. reuse soundness -------------------------------------------------------

class _SpawnCounter:
    def __init__(self, monkeypatch):
        import miniwfl.runtime as rt
        self.count = 0
        original = rt.subprocess.Popen

        def counting_popen(*args, **kwargs):
            self.count += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(rt.subprocess, "Popen", counting_popen)


def test_reuse_second_pass_spawns_nothing(tmp_path, monkeypatch):
    counter = _SpawnCounter(monkeypatch)
    rerun_spawns = {}
    for name in corpus_cases():
        case_tmp = tmp_path / name
        case_tmp.mkdir()
        cache = str(case_tmp / "cache")
        code, first = run_case(name, str(case_tmp), cache)
        assert code == 0
        counter.count = 0
        code, second = run_case(name, str(case_tmp), cache)
        assert code == 0
        rerun_spawns[name] = counter.count
        assert strip_paths(second) == strip_paths(first), name

    for name, spawns in rerun_spawns.items():
        if name == "workreuse_off":
            # reuse explicitly disabled for this step: it must re-execute
            assert spawns > 0
        else:
            assert spawns == 0, f"{name} re-spawned {spawns} processes"
    print(f"PASS reuse: warm second pass spawned zero processes across "
          f"{len(rerun_spawns) - 1} cases; opt-out case re-executed")


def test_no_reuse_reexecutes_everything(tmp_path, monkeypatch):
    counter = _SpawnCounter(monkeypatch)
    case_tmp = tmp_path / "case"
    case_tmp.mkdir()
    cache = str(case_tmp / "cache")
    run_case("echo_string", str(case_tmp), cache, extra_args=["--no-reuse"])
    counter.count = 0
    code, _ = run_case("echo_string", str(case_tmp), cache,
                       extra_args=["--no-reuse"])
    assert code == 0
    assert counter.count > 0
    print("PASS reuse: --no-reuse re-executes on the second pass")


# -- 5. failure semantics -----------------------------------------------------

def _flaky_doc(k):
    """Tool that times out on its first k attempts, then succeeds."""
    script = (
        'n=`cat "$1" 2>/dev/null || echo 0`\n'
        'n=`expr "$n" + 1`\n'
        'echo "$n" > "$1"\n'
        f'if [ "$n" -le {k} ]; then sleep 5; fi\n'
        'echo done\n')
    tool = {
        "cwlVersion": "v1.2", "class": "CommandLineTool",
        "baseCommand": ["sh", "flaky.sh"],
        "inputs": [{"id": "counter", "type": "string", "position": 1}],
        "outputs": [{"id": "out", "type": "File", "capture": "stdout"}],
        "stdout": "out.txt",
        "requirements": [
            {"class": "InitialWorkDirRequirement",
             "listing": [{"entryname": "flaky.sh", "entry": script}]},
            {"class": "ResourceRequirement", "wallTimeMax": 1},
        ],
    }
    return parser.parse_raw({
        "cwlVersion": "v1.2", "class": "Workflow",
        "inputs": [{"id": "counter", "type": "string"}],
        "outputs": [{"id": "out", "type": "File?",
                     "outputSource": "flaky/out"}],
        "steps": [{"id": "flaky", "run": tool, "in": {"counter": "counter"}}],
    })


@pytest.mark.parametrize("k,retries", [(0, 0), (0, 2), (2, 1), (2, 2), (2, 3)])
def test_failure_semantics_attempt_budget(tmp_path, k, retries):
    doc = _flaky_doc(k)
    counter = str(tmp_path / "counter")
    result, _ = _api_run(doc, {"counter": counter}, tmp_path / "w",
                         retries=retries)
    attempts = result.tasks["flaky"].attempts
    assert len(attempts) == min(k, retries) + 1
    expect_success = retries >= k
    assert (result.status == "Success") == expect_success
    for failed_attempt in attempts[:-1] if expect_success else attempts:
        assert failed_attempt.failure_kind == "Timeout"
        assert failed_attempt.outcome == TEMPORARY_FAILURE
    if expect_success:
        assert open(result.outputs["out"].path).read() == "done\n"
    print(f"PASS failure semantics: k={k} retries={retries} -> "
          f"{len(attempts)} attempts, status {result.status}")


# -- 6. concurrency witness ---------------------------------------------------

def _sleep_workflow():
    tool = {
        "cwlVersion": "v1.2", "class": "CommandLineTool",
        "baseCommand": ["sleep", "1"],
        "inputs": [],
        "outputs": [{"id": "out", "type": "File?", "glob": "never-*"}],
    }
    return parser.parse_raw({
        "cwlVersion": "v1.2", "class": "Workflow",
        "inputs": [], "outputs": [],
        "steps": [{"id": "nap_a", "run": dict(tool), "in": {}},
                  {"id": "nap_b", "run": dict(tool), "in": {}}],
    })


def test_concurrency_witness(tmp_path):
    doc = _sleep_workflow()
    started = time.monotonic()
    result, _ = _api_run(doc, {}, tmp_path / "par", parallelism=2, cores=2)
    overlapped = time.monotonic() - started
    assert result.status == "Success"
    started = time.monotonic()
    result, _ = _api_run(doc, {}, tmp_path / "seq", parallelism=1, cores=2)
    serial = time.monotonic() - started
    assert result.status == "Success"
    assert overlapped < 1.8
    assert serial >= 2.0
    print(f"PASS concurrency: parallel {overlapped:.2f}s, "
          f"serial {serial:.2f}s")


# -- 7. container/host equivalence -------------------------------------------

def _docker_usable():
    if shutil.which("docker") is None:
        return False
    probe = subprocess.run(["docker", "info"], capture_output=True,
                           timeout=30)
    return probe.returncode == 0


def _upper_case_on_host_and_boxed(tmp_path):
    """The `tr a-z A-Z` stdin scenario, run on the host and containerized."""
    data = tmp_path / "in.txt"
    data.write_text("mixed Case line\nanother ONE\n")
    tool = {
        "cwlVersion": "v1.2", "class": "CommandLineTool",
        "baseCommand": ["tr", "a-z", "A-Z"],
        "inputs": [{"id": "f", "type": "File"}],
        "stdin": "$(inputs.f)",
        "outputs": [{"id": "out", "type": "File", "capture": "stdout"}],
        "stdout": "upper.txt",
        "hints": [{"class": "DockerRequirement", "dockerPull": "busybox"}],
    }
    doc = parser.parse_raw({
        "cwlVersion": "v1.2", "class": "Workflow",
        "inputs": [{"id": "f", "type": "File"}],
        "outputs": [{"id": "out", "type": "File", "outputSource": "up/out"}],
        "steps": [{"id": "up", "run": tool, "in": {"f": "f"}}],
    })
    job = {"f": planner.FileValue.from_path(str(data))}
    host, _ = _api_run(doc, dict(job), tmp_path / "host",
                       use_containers=False)
    boxed, _ = _api_run(doc, dict(job), tmp_path / "boxed",
                        use_containers=True)
    assert host.status == boxed.status == "Success"
    assert host.outputs["out"].checksum == boxed.outputs["out"].checksum
    return host, boxed


def test_container_host_equivalence(tmp_path):
    if not _docker_usable():
        pytest.skip("no usable container runtime on this host")
    _upper_case_on_host_and_boxed(tmp_path)
    print("PASS container equivalence: identical checksums")


# Stands in for `docker run`: records its arguments in calls.jsonl beside
# itself, maps each `-v host:ctr` mount and the workdir back to host paths,
# and runs the command on the host.
FAKE_DOCKER = """\
#!{python}
import json, os, sys

args = sys.argv[1:]
here = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(here, "calls.jsonl"), "a") as fh:
    fh.write(json.dumps(args) + "\\n")
assert args[:2] == ["run", "--rm"], args
mounts, env, i = {{}}, {{}}, 2
while args[i].startswith("-"):
    flag, value = args[i], args[i + 1]
    if flag == "-i":
        i += 1
        continue
    i += 2
    if flag == "-v":
        host, ctr = value.split(":")[:2]
        mounts[ctr] = host
    elif flag == "--workdir":
        workdir = value
    elif flag == "--env":
        key, _, env[key] = value.partition("=")


def to_host(text):
    for ctr in sorted(mounts, key=len, reverse=True):
        if text == ctr or text.startswith(ctr + "/"):
            return mounts[ctr] + text[len(ctr):]
    return text


command = [to_host(a) for a in args[i + 1:]]
os.chdir(to_host(workdir))
env = {{k: to_host(v) for k, v in env.items()}}
os.execvpe(command[0], command, dict(env, PATH=os.environ["PATH"]))
"""


def _stand_in_docker(tmp_path, monkeypatch):
    """Put FAKE_DOCKER first on PATH; returns where it logs its calls."""
    bindir = tmp_path / "bin"
    bindir.mkdir()
    (bindir / "docker").write_text(FAKE_DOCKER.format(python=sys.executable))
    (bindir / "docker").chmod(0o755)
    monkeypatch.setenv("PATH", f"{bindir}{os.pathsep}{os.environ['PATH']}")
    return bindir / "calls.jsonl"


def test_container_branch_through_a_stand_in_docker(tmp_path, monkeypatch):
    calls = _stand_in_docker(tmp_path, monkeypatch)
    host, boxed = _upper_case_on_host_and_boxed(tmp_path)

    (attempt,) = boxed.tasks["up"].attempts
    assert attempt.argv == host.tasks["up"].attempts[0].argv == [
        "tr", "a-z", "A-Z"]
    assert attempt.env == {"HOME": "/miniwfl/outdir", "TMPDIR": "/tmp"}
    (call,) = [json.loads(line) for line in calls.read_text().splitlines()]
    assert call[:5] == ["run", "--rm", "--workdir", "/miniwfl/outdir", "-i"]
    mounts = [call[i + 1] for i, arg in enumerate(call) if arg == "-v"]
    assert [m.split(":", 1)[1] for m in mounts] == [
        "/miniwfl/inputs/in.txt:ro", "/miniwfl/outdir:rw", "/tmp:rw"]
    assert call[-4:] == ["busybox", "tr", "a-z", "A-Z"]
    print("PASS stand-in container: identical checksums, /miniwfl mounts")


def test_run_made_input_is_mounted_where_it_sits_below_the_work_root(
        tmp_path, monkeypatch):
    calls = _stand_in_docker(tmp_path, monkeypatch)
    boxed = [{"class": "DockerRequirement", "dockerPull": "busybox"}]
    make = {"cwlVersion": "v1.2", "class": "CommandLineTool",
            "baseCommand": ["echo"],
            "inputs": [{"id": "msg", "type": "string", "position": 1}],
            "outputs": [{"id": "out", "type": "File", "capture": "stdout"}],
            "stdout": "out.txt", "hints": boxed}
    read = {"cwlVersion": "v1.2", "class": "CommandLineTool",
            "baseCommand": ["cat"],
            "inputs": [{"id": "f", "type": "File", "position": 1}],
            "outputs": [{"id": "out", "type": "File", "capture": "stdout"}],
            "stdout": "seen.txt", "hints": boxed}
    doc = parser.parse_raw({
        "cwlVersion": "v1.2", "class": "Workflow",
        "inputs": [{"id": "msg", "type": "string"}],
        "outputs": [{"id": "out", "type": "File",
                     "outputSource": "read/out"}],
        "steps": [{"id": "make", "run": make, "in": {"msg": "msg"}},
                  {"id": "read", "run": read, "in": {"f": "make/out"}}],
    })
    result, runtime = _api_run(doc, {"msg": "boxed"}, tmp_path / "work",
                               use_containers=True)
    assert result.status == "Success"
    with open(result.outputs["out"].path) as fh:
        assert fh.read() == "boxed\n"
    made = result.tasks["make"].outputs["out"].path
    in_container = f"/miniwfl/work/{os.path.relpath(made, runtime.work_root)}"
    (attempt,) = result.tasks["read"].attempts
    assert attempt.argv == ["cat", in_container]
    _, call = [json.loads(line) for line in calls.read_text().splitlines()]
    mounts = [call[i + 1] for i, arg in enumerate(call) if arg == "-v"]
    assert mounts[0] == f"{made}:{in_container}:ro"
    assert [m.split(":", 1)[1] for m in mounts[1:]] == [
        "/miniwfl/outdir:rw", "/tmp:rw"]
    assert call[-3:] == ["busybox", "cat", in_container]
    print(f"PASS stand-in container: run-made input at {in_container}")


# -- 8. upgrade preservation --------------------------------------------------

def _load_case_doc(case_dir):
    wf = os.path.join(case_dir, "workflow.cwl")
    return parser.load(wf), wf


def test_upgrade_preserves_run_outputs(tmp_path):
    v10_cases = [n for n in corpus_cases() if n.startswith("v10_")]
    assert v10_cases
    from conftest import prepare_case
    for name in v10_cases:
        case_dir = str(tmp_path / name / "case")
        prepare_case(name, case_dir)
        doc, wf_path = _load_case_doc(case_dir)
        assert doc.version == "v1.0"
        upgraded = upgrader.upgrade(doc, "v1.2")
        assert upgraded.version == "v1.2"
        assert not validator.has_errors(validator.validate(upgraded))
        job = planner.load_job_order_file(
            os.path.join(case_dir, "job.yml"), doc.body)
        before, _ = _api_run(doc, dict(job), tmp_path / name / "w0")
        after, _ = _api_run(upgraded, dict(job), tmp_path / name / "w1")
        assert before.status == after.status == "Success"
        for out_id, fv in before.outputs.items():
            assert fv.checksum == after.outputs[out_id].checksum
    print(f"PASS upgrade: {len(v10_cases)} v1.0 documents preserved "
          f"outputs at v1.2")


# -- 9. shell-pipeline oracle -------------------------------------------------

def _grep_wc_workflow():
    grep_tool = {
        "cwlVersion": "v1.2", "class": "CommandLineTool",
        "baseCommand": ["grep"],
        "inputs": [{"id": "pattern", "type": "string", "position": 1},
                   {"id": "infile", "type": "File", "position": 2}],
        "successCodes": [0, 1],
        "outputs": [{"id": "matches", "type": "File", "capture": "stdout"}],
        "stdout": "matches.txt",
    }
    wc_tool = {
        "cwlVersion": "v1.2", "class": "CommandLineTool",
        "baseCommand": ["wc", "-l"],
        "inputs": [{"id": "infile", "type": "File"}],
        "stdin": "$(inputs.infile)",
        "outputs": [{"id": "count", "type": "File", "capture": "stdout"}],
        "stdout": "count.txt",
    }
    return parser.parse_raw({
        "cwlVersion": "v1.2", "class": "Workflow",
        "inputs": [{"id": "pattern", "type": "string"},
                   {"id": "infile", "type": "File"}],
        "outputs": [{"id": "count", "type": "File",
                     "outputSource": "count/count"}],
        "steps": [
            {"id": "find", "run": grep_tool,
             "in": {"pattern": "pattern", "infile": "infile"}},
            {"id": "count", "run": wc_tool,
             "in": {"infile": "find/matches"}},
        ],
    })


def test_grep_wc_matches_shell_pipeline(tmp_path):
    rng = random.Random(7)
    doc = _grep_wc_workflow()
    words = ["alpha", "beta", "gamma", "needle", "delta"]
    for i in range(5):
        lines = [" ".join(rng.choices(words, k=rng.randint(1, 5)))
                 for _ in range(rng.randint(0, 40))]
        data = tmp_path / f"in{i}.txt"
        data.write_text("".join(line + "\n" for line in lines))
        oracle = subprocess.run(
            ["sh", "-c", f"grep needle '{data}' | wc -l"],
            capture_output=True, text=True, check=True).stdout
        job = {"pattern": "needle",
               "infile": planner.FileValue.from_path(str(data))}
        result, _ = _api_run(doc, job, tmp_path / f"w{i}")
        assert result.status == "Success"
        engine = open(result.outputs["count"].path).read()
        assert engine == oracle, f"file {i}: engine {engine!r} vs {oracle!r}"
    print("PASS oracle: grep|wc equals the shell pipeline on 5 random files")
