"""Scheduling: admission, retries, failure policy, scatter completion."""

import heapq
import os
import random
import signal
import threading
import time

import pytest
from conftest import NullRuntime, cache_entries

from miniwfl import parser, planner, scheduler
from miniwfl.errors import ExprTypeError
from miniwfl.model import CLAUSE_RESOURCE, Clause
from miniwfl.planner import DataflowGraph, TaskNode
from miniwfl.runtime import TEMPORARY_FAILURE, TaskAttempt
from miniwfl.scheduler import (
    Machine,
    RunConfig,
    Services,
    TaskRecord,
    _Ledger,
    admission,
    fits_machine,
    resolve_resources,
    run,
)

TOOL_RAW = {
    "cwlVersion": "v1.2", "class": "CommandLineTool",
    "baseCommand": ["stub"],
    "inputs": [{"id": "x", "type": "string?"},
               {"id": "go", "type": "boolean?"},
               {"id": "xs", "type": "string[]?"}],
    "outputs": [{"id": "out", "type": "string?", "glob": "o"}],
}
TOOL = parser.parse_raw(TOOL_RAW).body


class StubRuntime(NullRuntime):
    """In-process runtime: records execution order, returns canned outputs."""

    def __init__(self, cached_dir, fail=(), temp_fail_counts=None,
                 delay=0.0):
        super().__init__(cached_dir)
        self.fail = set(fail)
        self.temp_fail_counts = dict(temp_fail_counts or {})
        self.delay = delay
        self.lock = threading.Lock()
        self.calls = []       # (task id, attempt)
        self.active = 0
        self.max_active = 0
        self.spawn_count = 0

    def run_task(self, node, bindings, attempt_number, resources):
        with self.lock:
            self.calls.append((node.id, attempt_number))
            self.spawn_count += 1
            self.active += 1
            self.max_active = max(self.max_active, self.active)
        if self.delay:
            time.sleep(self.delay)
        try:
            attempt = TaskAttempt(task_id=node.id,
                                  attempt_number=attempt_number)
            base = node.id.split("[")[0]
            remaining = self.temp_fail_counts.get(node.id, 0)
            if remaining > 0:
                self.temp_fail_counts[node.id] = remaining - 1
                attempt.failure_kind = "Timeout"
                attempt.outcome = TEMPORARY_FAILURE
                attempt.error = "stubbed timeout"
                return attempt
            if base in self.fail or node.id in self.fail:
                attempt.failure_kind = "ExitCode"
                attempt.exit_code = 1
                attempt.error = "stubbed failure"
                return attempt
            attempt.outcome = "Success"
            attempt.exit_code = 0
            attempt.outputs = {"out": f"{node.id}-value"}
            return attempt
        finally:
            with self.lock:
                self.active -= 1


def _node(tid, deps=(), layer=0, scatter=(), guard=None, bindings=None,
          requirements=()):
    b = dict(bindings or {})
    for i, dep in enumerate(deps):
        b[f"dep{i}" if i else "x"] = ("edge", (dep, "out"))
    return TaskNode(id=tid, tool=TOOL, bindings=b, layer=layer,
                    scatter=tuple(scatter), guard=guard,
                    requirements=tuple(requirements))


def _graph(*nodes, outputs=None):
    g = DataflowGraph()
    for n in nodes:
        g.nodes[n.id] = n
        for input_id, binding in n.bindings.items():
            if binding[0] == "edge":
                g.edges.add((binding[1], (n.id, input_id)))
    g.workflow_outputs = outputs or {}
    return g


def _run(graph, runtime, **cfg_kwargs):
    cfg_kwargs.setdefault("parallelism", 2)
    cfg = RunConfig(**cfg_kwargs)
    return run(graph, cfg, Services(runtime, cache=None), "run")


# --- pure admission ---------------------------------------------------------

def _units(spec):
    """spec: list of (tid, layer, cores)."""
    out = []
    for tid, layer, cores in spec:
        node = _node(tid, layer=layer)
        res = {"coresMin": cores, "ramMin": 1, "diskMin": 0}
        out.append(TaskRecord(node=node, task=node, inputs={},
                              resources=res))
    heapq.heapify(out)
    return out

def test_admission_respects_core_capacity():
    units = _units([(f"t{i}", 0, 1) for i in range(4)])
    cfg = RunConfig(parallelism=8, machine=Machine(cores=2, ram_mib=64,
                                                   disk_mib=64))
    admitted = admission(units, _Ledger(), cfg)
    assert [u.node.id for u in admitted] == ["t0", "t1"]


def test_admission_respects_parallelism():
    units = _units([(f"t{i}", 0, 1) for i in range(4)])
    cfg = RunConfig(parallelism=1, machine=Machine(cores=16))
    admitted = admission(units, _Ledger(), cfg)
    assert [u.node.id for u in admitted] == ["t0"]


def test_admission_first_fit_skips_oversized():
    units = _units([("big", 0, 3), ("s1", 0, 1), ("s2", 0, 1), ("s3", 0, 1)])
    cfg = RunConfig(parallelism=8, machine=Machine(cores=4))
    admitted = admission(units, _Ledger(), cfg)
    # big takes 3, then first-fit squeezes in exactly one 1-core task
    assert [u.node.id for u in admitted] == ["big", "s1"]


def test_admission_orders_by_layer_then_id():
    units = _units([("z", 0, 1), ("a", 1, 1), ("m", 0, 1)])
    cfg = RunConfig(parallelism=8, machine=Machine(cores=16))
    admitted = admission(units, _Ledger(), cfg)
    assert [u.node.id for u in admitted] == ["m", "z", "a"]


def test_admission_accounts_for_running_work():
    units = _units([("t1", 0, 2)])
    cfg = RunConfig(parallelism=4, machine=Machine(cores=3))
    ledger = _Ledger(running=1, coresMin=2, ramMin=1, diskMin=0)
    assert admission(units, ledger, cfg) == []


def test_resolve_resources_defaults_and_expressions():
    plain = _node("t")
    assert resolve_resources(plain, {}, Machine()) == {
        "coresMin": 1, "ramMin": 256, "diskMin": 0}
    clause = Clause(CLAUSE_RESOURCE, {"coresMin": 2, "wallTimeMax": 5,
                                      "ramMin": "$(runtime.ram)"})
    node = _node("t2", requirements=[clause])
    res = resolve_resources(node, {}, Machine(cores=8, ram_mib=512))
    assert res == {"coresMin": 2, "ramMin": 512, "diskMin": 0,
                   "wallTimeMax": 5.0}


@pytest.mark.parametrize("payload, message", [
    ({"wallTimeMax": "$(inputs.x)"}, "wallTimeMax must be numeric, got 'a'"),
    ({"coresMin": "$(inputs.go)"},
     "resource coresMin must be a nonnegative integer, got True"),
])
def test_resolve_resources_refusals(payload, message):
    node = _node("t", requirements=[Clause(CLAUSE_RESOURCE, payload)])
    with pytest.raises(ExprTypeError, match=message):
        resolve_resources(node, {"x": "a", "go": True}, Machine())


@pytest.mark.parametrize("kwargs, message", [
    ({"parallelism": 0}, "parallelism must be >= 1"),
    ({"retries": -1}, "retries must be >= 0"),
    ({"on_error": "ignore"}, "onError must be stop or continue"),
])
def test_run_config_refusals(kwargs, message):
    with pytest.raises(ValueError, match=message):
        RunConfig(**kwargs)


def test_fits_machine():
    m = Machine(cores=2, ram_mib=100, disk_mib=10)
    assert fits_machine({"coresMin": 2, "ramMin": 100, "diskMin": 10}, m)
    assert not fits_machine({"coresMin": 3, "ramMin": 1, "diskMin": 0}, m)


# --- end-to-end scheduling over the stub runtime ----------------------------

def test_chain_runs_in_dependency_order(cached_dir):
    g = _graph(_node("a"), _node("b", deps=["a"], layer=1),
               _node("c", deps=["b"], layer=2),
               outputs={"final": ("edge", ("c", "out"))})
    rt = StubRuntime(cached_dir)
    result = _run(g, rt)
    assert result.status == "Success"
    assert [c[0] for c in rt.calls] == ["a", "b", "c"]
    assert result.outputs == {"final": "c-value"}


def test_parallel_siblings_overlap(cached_dir):
    g = _graph(*[_node(f"t{i}") for i in range(4)])
    rt = StubRuntime(cached_dir, delay=0.1)
    result = _run(g, rt, parallelism=4, machine=Machine(cores=4))
    assert result.status == "Success"
    assert rt.max_active >= 2


def test_parallelism_one_serializes(cached_dir):
    g = _graph(*[_node(f"t{i}") for i in range(4)])
    rt = StubRuntime(cached_dir, delay=0.02)
    _run(g, rt, parallelism=1)
    assert rt.max_active == 1


def test_temporary_failures_retry_until_budget(cached_dir):
    g = _graph(_node("flaky"))
    rt = StubRuntime(cached_dir, temp_fail_counts={"flaky": 2})
    result = _run(g, rt, retries=3)
    assert result.status == "Success"
    assert rt.calls == [("flaky", 1), ("flaky", 2), ("flaky", 3)]
    attempts = result.tasks["flaky"].attempts
    assert len(attempts) == 3


def test_retry_budget_exhaustion_fails(cached_dir):
    g = _graph(_node("flaky"))
    rt = StubRuntime(cached_dir, temp_fail_counts={"flaky": 5})
    result = _run(g, rt, retries=2)
    assert result.status == "PermanentFail"
    assert len(rt.calls) == 3  # 1 + retries


def test_permanent_failure_never_retries(cached_dir):
    g = _graph(_node("bad"))
    rt = StubRuntime(cached_dir, fail={"bad"})
    result = _run(g, rt, retries=5)
    assert result.status == "PermanentFail"
    assert rt.calls == [("bad", 1)]
    assert result.tasks["bad"].state == planner.FAILED


def test_on_error_stop_skips_downstream_and_independent_work(cached_dir):
    g = _graph(_node("bad"), _node("down", deps=["bad"], layer=1),
               _node("indep", layer=1))
    rt = StubRuntime(cached_dir, fail={"bad"})
    result = _run(g, rt, parallelism=1, on_error="stop")
    assert result.status == "PermanentFail"
    assert ("down", 1) not in rt.calls
    assert ("indep", 1) not in rt.calls


def test_on_error_continue_runs_independent_work(cached_dir):
    g = _graph(_node("bad"), _node("down", deps=["bad"], layer=1),
               _node("indep", layer=1))
    rt = StubRuntime(cached_dir, fail={"bad"})
    result = _run(g, rt, parallelism=1, on_error="continue")
    assert result.status == "PermanentFail"
    assert ("indep", 1) in rt.calls
    assert ("down", 1) not in rt.calls  # its input never publishes


def test_skipped_guard_publishes_nulls(cached_dir):
    g = _graph(_node("maybe", guard="$(inputs.go)",
                     bindings={"go": ("lit", False)}),
               _node("down", deps=["maybe"], layer=1),
               outputs={"o": ("edge", ("maybe", "out"))})
    rt = StubRuntime(cached_dir)
    result = _run(g, rt)
    assert result.status == "Success"
    assert result.tasks["maybe"].state == planner.SKIPPED
    assert result.outputs == {"o": None}
    assert ("maybe", 1) not in rt.calls
    assert ("down", 1) in rt.calls  # consumes the published null


def test_guard_true_runs_normally(cached_dir):
    g = _graph(_node("maybe", guard="$(inputs.go)",
                     bindings={"go": ("lit", True)}))
    rt = StubRuntime(cached_dir)
    result = _run(g, rt)
    assert rt.calls == [("maybe", 1)]
    assert result.tasks["maybe"].state == planner.SUCCEEDED


def test_guard_type_error_fails_node(cached_dir):
    g = _graph(_node("maybe", guard="$(inputs.x)",
                     bindings={"x": ("lit", "strings are not guards")}))
    result = _run(g, StubRuntime(cached_dir))
    assert result.status == "PermanentFail"


def test_scatter_shards_gather_in_index_order(cached_dir):
    g = _graph(_node("fan", scatter=["xs"],
                     bindings={"xs": ("lit", ["a", "b", "c"])}),
               outputs={"all": ("edge", ("fan", "out"))})
    rt = StubRuntime(cached_dir, delay=0.01)
    result = _run(g, rt, parallelism=3)
    assert result.status == "Success"
    assert result.outputs == {
        "all": ["fan[0]-value", "fan[1]-value", "fan[2]-value"]}
    assert result.tasks["fan"].state == planner.SUCCEEDED


def test_scatter_width_zero_completes_without_spawns(cached_dir):
    g = _graph(_node("fan", scatter=["xs"], bindings={"xs": ("lit", [])}),
               outputs={"all": ("edge", ("fan", "out"))})
    rt = StubRuntime(cached_dir)
    result = _run(g, rt)
    assert result.status == "Success"
    assert result.outputs == {"all": []}
    assert rt.calls == []


def test_scatter_shard_failure_fails_the_node(cached_dir):
    g = _graph(_node("fan", scatter=["xs"],
                     bindings={"xs": ("lit", ["a", "b"])}))
    rt = StubRuntime(cached_dir, fail={"fan[1]"})
    result = _run(g, rt, parallelism=2)
    assert result.status == "PermanentFail"
    assert result.tasks["fan"].state == planner.FAILED


def test_shard_of_a_failed_scatter_is_not_retried(monkeypatch, cached_dir):
    """fan[1] times out only after fan[0] has failed the scatter; its retry
    would run for a result nobody reads."""
    scatter_failed = threading.Event()
    log = scheduler._Coordinator.log

    def watching_log(self, task_id, transition, *args, **kwargs):
        log(self, task_id, transition, *args, **kwargs)
        if (task_id, transition) == ("fan", planner.FAILED):
            scatter_failed.set()

    class LateTimeout(StubRuntime):
        def run_task(self, node, bindings, attempt_number, resources):
            if node.id == "fan[1]":
                assert scatter_failed.wait(timeout=10)
            return super().run_task(node, bindings, attempt_number, resources)

    monkeypatch.setattr(scheduler._Coordinator, "log", watching_log)
    g = _graph(_node("fan", scatter=["xs"],
                     bindings={"xs": ("lit", ["a", "b"])}))
    rt = LateTimeout(cached_dir, fail={"fan[0]"},
                     temp_fail_counts={"fan[1]": 1})
    result = _run(g, rt, parallelism=2, retries=1, on_error="continue")
    assert result.status == "PermanentFail"
    events = [f"{e['task']} {e['transition']} {e['attempt']}"
              for e in result.event_log]
    assert events[events.index("fan Failed 0"):] == ["fan Failed 0",
                                                     "fan[1] Failed 1"]
    assert sorted(rt.calls) == [("fan[0]", 1), ("fan[1]", 1)]
    assert result.tasks["fan[1]"].state == planner.FAILED


def test_scatter_length_mismatch_fails_at_readiness(cached_dir):
    g = _graph(_node("fan", scatter=["xs", "x"],
                     bindings={"xs": ("lit", ["a"]), "x": ("lit", [1, 2])}))
    rt = StubRuntime(cached_dir)
    result = _run(g, rt)
    assert result.status == "PermanentFail"
    assert rt.calls == []


def test_per_shard_guards(cached_dir):
    # guard references the scattered element itself
    g = _graph(_node("fan", scatter=["xs"], guard="$(inputs.xs == 'go')",
                     bindings={"xs": ("lit", ["go", "stop", "go"])}),
               outputs={"all": ("edge", ("fan", "out"))})
    rt = StubRuntime(cached_dir)
    result = _run(g, rt, parallelism=2)
    assert result.status == "Success"
    assert result.outputs == {"all": ["fan[0]-value", None, "fan[2]-value"]}


def test_event_log_dependencies_precede_consumers(cached_dir):
    g = _graph(_node("a"), _node("b", deps=["a"], layer=1))
    result = _run(g, StubRuntime(cached_dir))
    order = [(e["task"], e["transition"]) for e in result.event_log]
    assert order.index(("a", planner.SUCCEEDED)) \
        < order.index(("b", planner.RUNNING))


def test_resource_minima_beyond_machine_fail_without_spawn(cached_dir):
    clause = Clause(CLAUSE_RESOURCE, {"coresMin": 64})
    g = _graph(_node("huge", requirements=[clause]))
    rt = StubRuntime(cached_dir)
    result = _run(g, rt, machine=Machine(cores=2))
    assert result.status == "PermanentFail"
    assert rt.calls == []


def test_deterministic_outputs_across_parallelism(cached_dir):
    def build():
        return _graph(
            _node("a"), _node("b"),
            _node("c", deps=["a"], layer=1),
            _node("d", deps=["b"], layer=1),
            outputs={"o1": ("edge", ("c", "out")),
                     "o2": ("edge", ("d", "out"))})
    r1 = _run(build(), StubRuntime(cached_dir, delay=0.01), parallelism=1)
    r4 = _run(build(), StubRuntime(cached_dir, delay=0.01), parallelism=4)
    assert r1.outputs == r4.outputs
    assert r1.status == r4.status == "Success"


def test_events_carry_millisecond_utc_timestamps(cached_dir):
    import re

    from miniwfl.provenance import iso_time
    result = _run(_graph(_node("a"), _node("b", deps=["a"], layer=1)),
                  StubRuntime(cached_dir))
    assert result.event_log
    for event in result.event_log:
        assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\.\d{3}Z",
                            event["ts"]), event
    # milliseconds are truncated, never rounded into the next second
    assert iso_time(86400.9999) == "1970-01-02T00:00:00.999Z"


# --- retention of attempt directories ---------------------------------------

class RetainingRuntime(StubRuntime):
    """A stub whose attempts have a directory; logs each start and each
    release in the order the coordinator makes them."""

    def __init__(self, cached_dir, **kwargs):
        super().__init__(cached_dir, **kwargs)
        self.log = []

    def run_task(self, node, bindings, attempt_number, resources):
        with self.lock:
            self.log.append(("run", node.id))
        attempt = super().run_task(node, bindings, attempt_number, resources)
        attempt.workdir = f"{node.id}-a{attempt_number}"
        return attempt

    def release(self, workdir):
        self.log.append(("release", workdir))


def test_directory_is_released_once_its_readers_are_done(cached_dir):
    g = _graph(_node("a"), _node("b", deps=["a"], layer=1),
               _node("c", deps=["b"], layer=2), _node("d", deps=["a"]),
               outputs={"out": ("edge", ("c", "out"))})
    rt = RetainingRuntime(cached_dir)
    result = _run(g, rt, parallelism=1)
    assert result.status == "Success"
    # d reads nothing read by anyone; a waits for b and d, and c's output
    # waits for stage-out
    assert rt.log == [("run", "a"), ("run", "d"), ("release", "d-a1"),
                      ("run", "b"), ("release", "a-a1"),
                      ("run", "c"), ("release", "b-a1")]
    assert result.held == ["c-a1"]


def test_scattered_producer_is_released_after_its_gather(cached_dir):
    g = _graph(_node("fan", scatter=["xs"],
                     bindings={"xs": ("lit", ["p", "q", "r"])}),
               _node("gather", deps=["fan"], layer=1))
    rt = RetainingRuntime(cached_dir)
    _run(g, rt, parallelism=1)
    assert rt.log == [("run", "fan[0]"), ("run", "fan[1]"), ("run", "fan[2]"),
                      ("run", "gather"), ("release", "fan[0]-a1"),
                      ("release", "fan[1]-a1"), ("release", "fan[2]-a1"),
                      ("release", "gather-a1")]


def test_failed_attempts_and_what_a_failed_reader_read_are_kept(cached_dir):
    g = _graph(_node("a"), _node("ok", deps=["a"], layer=1),
               _node("bad", deps=["a"], layer=1),
               _node("flaky", deps=["ok"], layer=2),
               outputs={"out": ("edge", ("a", "out"))})
    rt = RetainingRuntime(cached_dir, fail={"bad"},
                          temp_fail_counts={"flaky": 1})
    result = _run(g, rt, parallelism=1, on_error="continue", retries=1)
    assert result.status == "PermanentFail"
    # flaky's first attempt failed and is kept; ok is released once flaky
    # succeeds; a, which bad read, is kept, also from stage-out
    released = [entry[1] for entry in rt.log if entry[0] == "release"]
    assert released == ["ok-a1", "flaky-a2"]
    assert result.held == []


def test_cache_hits_and_skips_release_what_they_read(tmp_path, cached_dir):
    from miniwfl.cache import ResultCache
    g = _graph(_node("a"), _node("hit", deps=["a"], layer=1),
               _node("skip", deps=["a"], layer=1, guard="$(false)"))
    cache = ResultCache(str(tmp_path / "cache"))
    rt = StubRuntime(cached_dir)
    # fills the cache
    run(g, RunConfig(parallelism=1), Services(rt, cache), "run")
    entries = cache_entries(cache.cache_dir)
    (hit_key,) = [key for key, entry in entries.items() if "hit" in entry]
    cache_entries(cache.cache_dir,
                  {key: None for key in entries if key != hit_key})
    rt = RetainingRuntime(cached_dir)
    result = run(g, RunConfig(parallelism=1), Services(rt, cache), "run")
    assert result.tasks["hit"].state == planner.CACHED
    assert result.tasks["skip"].state == planner.SKIPPED
    assert rt.log == [("run", "a"), ("release", "a-a1")]


# --- pinned event log --------------------------------------------------------

class FakeCache:
    """In-memory result cache: ``store`` remembers outputs by key and
    ``republish`` hands them back unchanged."""

    def __init__(self):
        self.entries = {}

    def lookup(self, key, output_ids=None):
        return self.entries.get(key)

    def store(self, key, outputs, source_run_id, contents=None):
        self.entries[key] = outputs

    def republish(self, outputs, dest_dir):
        return outputs

    def materialize(self, values):
        pass


def _fan(tid, xs, **kwargs):
    bindings = dict(kwargs.pop("bindings", {}))
    bindings["xs"] = ("lit", list(xs))
    return _node(tid, scatter=["xs"], bindings=bindings, **kwargs)


def _cores(expr):
    return [Clause(CLAUSE_RESOURCE, {"coresMin": expr})]


def _pin_cached(cached_dir):
    """Warm a fake cache with ``p`` and shards xs=a, xs=b, then run a graph
    in which those hit and the shard xs=c and the consumer miss."""
    cache = FakeCache()
    run(_graph(_node("p"), _fan("fan", ["a", "b"])), RunConfig(),
        Services(StubRuntime(cached_dir), cache=cache), "run")
    graph = _graph(_node("p"), _fan("fan", ["a", "b", "c"]),
                   _fan("all", ["b", "a"]),
                   _node("down", deps=["p", "fan"], layer=1),
                   outputs={"fan": ("edge", ("fan", "out")),
                            "all": ("edge", ("all", "out"))})
    return graph, {"cache": cache}


def _pin_retries(cached_dir):
    return (_graph(_node("flaky"), _fan("fan", ["a", "b"], layer=1)),
            {"retries": 1,
             "runtime": StubRuntime(cached_dir,
                                    temp_fail_counts={"flaky": 1,
                                                      "fan[1]": 1})})


def _pin_failure(on_error):
    def build(cached_dir):
        return (_graph(_node("bad"), _node("down", deps=["bad"], layer=1),
                       _node("indep", layer=1)),
                {"on_error": on_error,
                 "runtime": StubRuntime(cached_dir, fail={"bad"})})
    return build


PIN_SCENARIOS = {
    "chain": lambda cached_dir: (_graph(
        _node("a"), _node("b", deps=["a"], layer=1),
        _node("c", deps=["b"], layer=2)), {}),
    "guard_skip": lambda cached_dir: (_graph(
        _node("maybe", guard="$(inputs.go)", bindings={"go": ("lit", False)}),
        _node("down", deps=["maybe"], layer=1)), {}),
    "shard_guards": lambda cached_dir: (_graph(
        _fan("fan", ["go", "stop", "go"], guard="$(inputs.xs == 'go')"),
        _node("down", deps=["fan"], layer=1),
        outputs={"fan": ("edge", ("fan", "out"))}), {}),
    "width_zero": lambda cached_dir: (_graph(
        _fan("fan", []), _node("down", deps=["fan"], layer=1),
        outputs={"fan": ("edge", ("fan", "out")),
                 "down": ("edge", ("down", "out"))}), {}),
    "retries": _pin_retries,
    "fail_stop": _pin_failure("stop"),
    "fail_continue": _pin_failure("continue"),
    "shard_failure": lambda cached_dir: (_graph(
        _fan("fan", ["a", "b", "c"]), _node("down", deps=["fan"], layer=1),
        _node("indep", layer=1)),
        {"on_error": "continue",
         "runtime": StubRuntime(cached_dir, fail={"fan[1]"})}),
    "oversized": lambda cached_dir: (_graph(
        _node("huge", requirements=_cores(64)),
        _fan("fan", [1, 64, 1], requirements=_cores("$(inputs.xs)")),
        _node("small", layer=1)),
        {"on_error": "continue", "machine": Machine(cores=2)}),
    "cached": _pin_cached,
}

PIN_EXPECTED = {
    "chain": (
        "Success",
        ["a Ready 0", "a Running 1", "a Succeeded 1", "b Ready 0",
         "b Running 1", "b Succeeded 1", "c Ready 0", "c Running 1",
         "c Succeeded 1"],
        {"a": "Succeeded", "b": "Succeeded", "c": "Succeeded"},
        {}),
    "guard_skip": (
        "Success",
        ["maybe Skipped 0", "down Ready 0", "down Running 1",
         "down Succeeded 1"],
        {"down": "Succeeded", "maybe": "Skipped"},
        {}),
    "shard_guards": (
        "Success",
        ["fan Ready 0", "fan Running 0", "fan[1] Skipped 0",
         "fan[0] Running 1", "fan[0] Succeeded 1", "fan[2] Running 1",
         "fan[2] Succeeded 1", "fan Succeeded 0", "down Ready 0",
         "down Running 1", "down Succeeded 1"],
        {"down": "Succeeded", "fan": "Succeeded", "fan[0]": "Succeeded",
         "fan[1]": "Skipped", "fan[2]": "Succeeded"},
        {"fan": ["fan[0]-value", None, "fan[2]-value"]}),
    "width_zero": (
        "Success",
        ["fan Ready 0", "fan Running 0", "fan Succeeded 0", "down Ready 0",
         "down Running 1", "down Succeeded 1"],
        {"down": "Succeeded", "fan": "Succeeded"},
        {"fan": [], "down": "down-value"}),
    "retries": (
        "Success",
        ["fan Ready 0", "fan Running 0", "flaky Ready 0", "flaky Running 1",
         "flaky Running 2", "flaky Succeeded 2", "fan[0] Running 1",
         "fan[0] Succeeded 1", "fan[1] Running 1", "fan[1] Running 2",
         "fan[1] Succeeded 2", "fan Succeeded 0"],
        {"fan": "Succeeded", "fan[0]": "Succeeded", "fan[1]": "Succeeded",
         "flaky": "Succeeded"},
        {}),
    "fail_stop": (
        "PermanentFail",
        ["bad Ready 0", "indep Ready 0", "bad Running 1", "bad Failed 0",
         "down Cancelled 0", "indep Cancelled 0"],
        {"bad": "Failed", "down": "Cancelled", "indep": "Cancelled"},
        {}),
    "fail_continue": (
        "PermanentFail",
        ["bad Ready 0", "indep Ready 0", "bad Running 1", "bad Failed 0",
         "indep Running 1", "indep Succeeded 1", "down Cancelled 0"],
        {"bad": "Failed", "down": "Cancelled", "indep": "Succeeded"},
        {}),
    "shard_failure": (
        "PermanentFail",
        ["fan Ready 0", "fan Running 0", "indep Ready 0", "fan[0] Running 1",
         "fan[0] Succeeded 1", "fan[1] Running 1", "fan[1] Failed 1",
         "fan Failed 0", "indep Running 1", "indep Succeeded 1",
         "down Cancelled 0", "fan[2] Cancelled 0"],
        {"down": "Cancelled", "fan": "Failed", "fan[0]": "Succeeded",
         "fan[1]": "Failed", "fan[2]": "Cancelled", "indep": "Succeeded"},
        {}),
    "oversized": (
        "PermanentFail",
        ["fan Ready 0", "fan Running 0", "fan Failed 0", "huge Ready 0",
         "huge Failed 0", "small Ready 0", "small Running 1",
         "small Succeeded 1", "fan[0] Cancelled 0", "fan[1] Cancelled 0",
         "fan[2] Cancelled 0"],
        {"fan": "Failed", "fan[0]": "Cancelled", "fan[1]": "Cancelled",
         "fan[2]": "Cancelled", "huge": "Failed", "small": "Succeeded"},
        {}),
    "cached": (
        "Success",
        ["all Ready 0", "all Running 0", "fan Ready 0", "fan Running 0",
         "p Ready 0", "all[0] Cached 0", "all[1] Cached 0", "all Cached 0",
         "fan[0] Cached 0", "fan[1] Cached 0", "fan[2] Running 1",
         "fan[2] Succeeded 1", "fan Succeeded 0", "p Cached 0", "down Ready 0",
         "down Running 1", "down Succeeded 1"],
        {"all": "Cached", "all[0]": "Cached", "all[1]": "Cached",
         "down": "Succeeded", "fan": "Succeeded", "fan[0]": "Cached",
         "fan[1]": "Cached", "fan[2]": "Succeeded", "p": "Cached"},
        {"fan": ["fan[0]-value", "fan[1]-value", "fan[2]-value"],
         "all": ["fan[1]-value", "fan[0]-value"]}),
}


@pytest.mark.parametrize("name", sorted(PIN_SCENARIOS))
def test_event_log_and_task_states_are_pinned(name, cached_dir):
    """The coordinator's whole observable trace for each scenario, serial so
    that completions cannot interleave."""
    from miniwfl import provenance
    graph, kwargs = PIN_SCENARIOS[name](cached_dir)
    runtime = kwargs.pop("runtime", None) or StubRuntime(cached_dir)
    cache = kwargs.pop("cache", None)
    result = run(graph, RunConfig(parallelism=1, **kwargs),
                 Services(runtime, cache=cache), "run")
    record = provenance.build_record(result, "", {}, "run")
    status, events, states, outputs = PIN_EXPECTED[name]
    assert result.status == status
    assert [f"{e['task']} {e['transition']} {e['attempt']}"
            for e in result.event_log] == events
    assert {tid: task["state"]
            for tid, task in record["tasks"].items()} == states
    assert {tid: task["state"] == planner.CACHED
            for tid, task in record["tasks"].items()} \
        == {tid: task.cached for tid, task in result.tasks.items()}
    assert result.outputs == outputs


_TERMINAL = {planner.SUCCEEDED, planner.CACHED, planner.SKIPPED,
             planner.FAILED, planner.CANCELLED}


def test_every_record_ends_terminal(cached_dir):
    """Over random graphs of plain and scattered nodes, some failing, some
    failing for a while, under both error policies: every node and every
    shard made has a record, each record ends in a terminal state, and the
    Cancelled ones are logged last, in task-id order."""
    rng = random.Random(29)
    for trial in range(300):
        nodes, fail, flaky = [], set(), {}
        for i in range(rng.randint(1, 10)):
            deps = [f"n{j}" for j in range(i) if rng.random() < 0.3]
            if rng.random() < 0.3:
                nodes.append(_fan(f"n{i}", "abc"[:rng.randint(0, 3)],
                                  deps=deps, layer=len(deps)))
            else:
                nodes.append(_node(f"n{i}", deps=deps, layer=len(deps)))
            if rng.random() < 0.2:
                fail.add(f"n{i}")
            if rng.random() < 0.2:
                flaky[f"n{i}"] = 1
        result = _run(_graph(*nodes),
                      StubRuntime(cached_dir, fail=fail,
                                  temp_fail_counts=flaky),
                      parallelism=rng.randint(1, 3), retries=rng.randint(0, 1),
                      on_error=rng.choice(["stop", "continue"]))
        assert {node.id for node in nodes} <= set(result.tasks), trial
        states = {tid: task.state for tid, task in result.tasks.items()}
        assert set(states.values()) <= _TERMINAL, (trial, states)
        cancelled = [e["task"] for e in result.event_log
                     if e["transition"] == planner.CANCELLED]
        assert [e["task"] for e in result.event_log[
            len(result.event_log) - len(cancelled):]] == sorted(cancelled)
        assert (result.status == "Success") \
            == (not {planner.FAILED, planner.CANCELLED} & set(states.values()))


# --- coordinator cost ------------------------------------------------------

def _scatter(width):
    return _graph(_fan("fan", [str(i) for i in range(width)]))


def _chain(length):
    return _graph(*[_node(f"s{i}", deps=[f"s{i - 1}"] if i else [], layer=i)
                    for i in range(length)])


def _best_of_5(build, size, cached_dir):
    """Fastest of five runs over the stub runtime, whose tasks cost
    nothing, so the time is the coordinator's own; on a small machine one
    descheduling can decide a single short run."""
    times = []
    for _ in range(5):
        graph = build(size)
        started = time.perf_counter()
        assert _run(graph, StubRuntime(cached_dir)).status == "Success"
        times.append(time.perf_counter() - started)
    return min(times)


@pytest.mark.parametrize("build, small, large",
                         [(_scatter, 1000, 4000), (_chain, 500, 2000)])
def test_coordinator_cost_grows_linearly(build, small, large, cached_dir):
    # 4x the units: about 4x the time when linear, 16x when quadratic
    ratio = (_best_of_5(build, large, cached_dir)
             / _best_of_5(build, small, cached_dir))
    assert ratio < 7, f"{large} units took {ratio:.1f}x the time of {small}"


@pytest.mark.parametrize("build, small, large",
                         [(_scatter, 1000, 4000), (_chain, 500, 2000)])
def test_coordinator_work_per_unit_stays_flat(build, small, large,
                                              monkeypatch, cached_dir):
    """The timed gate above in counts, which host noise cannot move: the
    candidates checked for readiness and the admission calls, per unit."""
    counts = {}
    admit = scheduler.admission

    def counting_ready_set(graph, published, candidates):
        candidates = list(candidates)
        counts["candidates"] += len(candidates)
        return planner.ready_set(graph, published, candidates)

    def counting_admission(*args):
        counts["admissions"] += 1
        return admit(*args)

    monkeypatch.setattr(scheduler, "ready_set", counting_ready_set)
    monkeypatch.setattr(scheduler, "admission", counting_admission)
    per_unit = {}
    for size in (small, large):
        counts.update(candidates=0, admissions=0)
        assert _run(build(size), StubRuntime(cached_dir)).status \
            == "Success"
        per_unit[size] = {k: n / size for k, n in counts.items()}
    for key, at_small in per_unit[small].items():
        assert per_unit[large][key] <= 1.1 * at_small, (key, per_unit)


# --- worker threads ----------------------------------------------------------

def _started_threads(monkeypatch):
    """The names of the threads started from now on."""
    started, start = [], threading.Thread.start

    def counting_start(self):
        started.append(self.name)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return started


def test_workers_settle_their_own_attempts(monkeypatch, cached_dir):
    """Each worker goes on with the record that settling its attempt
    admitted, so a wide scatter needs no more workers than its parallelism,
    and runs every shard on one of them."""
    started = _started_threads(monkeypatch)
    rt = StubRuntime(cached_dir)
    assert _run(_scatter(1000), rt, parallelism=2).status == "Success"
    assert len(started) == 2
    assert len(rt.calls) == 1000


def test_released_directories_are_deleted_by_the_workers(monkeypatch,
                                                         tmp_path):
    """Over the local runtime, the worker that settles the gather deletes
    the 20 shard directories it released: the run starts no thread but its
    2 workers, and none of those directories is left when it returns."""
    from miniwfl.runtime import LocalRuntime

    echo = {"cwlVersion": "v1.2", "class": "CommandLineTool",
            "baseCommand": ["echo"],
            "inputs": [{"id": "i", "type": "int", "position": 1}],
            "outputs": [{"id": "out", "type": "File", "capture": "stdout"}]}
    cat = {"cwlVersion": "v1.2", "class": "CommandLineTool",
           "baseCommand": ["cat"],
           "inputs": [{"id": "fs", "type": "File[]", "position": 1}],
           "outputs": [{"id": "out", "type": "File", "capture": "stdout"}]}
    graph = planner.plan(parser.parse_raw({
        "cwlVersion": "v1.2", "class": "Workflow",
        "inputs": [{"id": "idx", "type": "int[]"}],
        "outputs": [{"id": "all", "type": "File",
                     "outputSource": "gather/out"}],
        "steps": [{"id": "fan", "run": echo, "in": {"i": "idx"},
                   "scatter": ["i"]},
                  {"id": "gather", "run": cat, "in": {"fs": "fan/out"}}]}),
        {"idx": list(range(20))})
    released, release = [], LocalRuntime.release
    monkeypatch.setattr(LocalRuntime, "release", lambda self, workdir: (
        released.append(workdir) or release(self, workdir)))
    rt = LocalRuntime(str(tmp_path / "work"), use_containers=False)
    started = _started_threads(monkeypatch)
    result = run(graph, RunConfig(parallelism=2), Services(rt), "run")
    assert result.status == "Success"
    with open(result.outputs["all"].path) as fh:
        assert fh.read() == "".join(f"{i}\n" for i in range(20))
    assert len(started) == 2
    assert len(released) == 20
    assert not any(os.path.exists(workdir) for workdir in released)
    rt.close()


def test_records_are_keyed_at_their_first_admission(monkeypatch,
                                                    cached_dir):
    """A ready scatter's shards are keyed as each is admitted, on the
    workers beside running tools, and not all before the first attempt."""
    log, cache_key = [], scheduler.cache_key
    monkeypatch.setattr(scheduler, "cache_key", lambda *args: (
        log.append("key") or cache_key(*args)))

    class Logging(StubRuntime):
        def run_task(self, node, bindings, attempt_number, resources):
            log.append("run")
            return super().run_task(node, bindings, attempt_number,
                                    resources)

    result = run(_scatter(300), RunConfig(parallelism=2),
                 Services(Logging(cached_dir), FakeCache()), "run")
    assert result.status == "Success"
    assert log.count("key") == 300
    assert log.index("run") <= 2


def test_no_more_workers_than_attempts_in_flight(monkeypatch, cached_dir):
    started = _started_threads(monkeypatch)
    graph = _graph(_node("a"), _node("b"), _node("c", deps=["a"], layer=1))
    assert _run(graph, StubRuntime(cached_dir),
                parallelism=64).status == "Success"
    assert 1 <= len(started) <= 3


def test_workers_settling_at_once_lose_no_update(monkeypatch, cached_dir):
    """More workers than cores, switching threads every few bytecodes:
    every shard runs once, and the ledger never admits past the bound."""
    import sys

    class Jittered(StubRuntime):
        def run_task(self, node, bindings, attempt_number, resources):
            time.sleep(0.0005 * (hash(node.id) % 3))
            return super().run_task(node, bindings, attempt_number,
                                    resources)

    started = _started_threads(monkeypatch)
    rt, results = Jittered(cached_dir), []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runner = threading.Thread(target=lambda: results.append(
            _run(_graph(_fan("fan", [str(i) for i in range(400)]),
                        _node("down", deps=["fan"], layer=1)),
                 rt, parallelism=4)))
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    (result,) = results
    assert result.status == "Success"
    assert sorted(rt.calls) == sorted([(f"fan[{i}]", 1) for i in range(400)]
                                      + [("down", 1)])
    assert rt.max_active <= 4 and len(started) - 1 <= 4  # and the runner


def test_error_in_coordinator_logic_on_a_worker_reaches_the_caller(
        cached_dir):
    """The second lookup runs on the worker that settled ``a``; what it
    raises ends the run in the caller, after ``cancel``, with every worker
    gone."""
    class BrokenIndex:
        lookups = 0

        def lookup(self, key, output_ids=None):
            self.lookups += 1
            if self.lookups == 2:
                raise RuntimeError("index gone")

        def materialize(self, values):
            pass

        def store(self, key, outputs, source_run_id, contents=None):
            pass

    class CancelRecording(StubRuntime):
        cancelled = False

        def cancel(self):
            self.cancelled = True

    before = set(threading.enumerate())
    rt, cache = CancelRecording(cached_dir), BrokenIndex()
    graph = _graph(_node("a"), _node("b", deps=["a"], layer=1))
    with pytest.raises(RuntimeError, match="index gone"):
        run(graph, RunConfig(parallelism=2), Services(rt, cache=cache), "run")
    assert cache.lookups == 2 and rt.calls == [("a", 1)]
    assert rt.cancelled
    assert set(threading.enumerate()) <= before


def test_worker_that_cannot_start_ends_the_run_in_the_caller(monkeypatch,
                                                             cached_dir):
    start, before = threading.Thread.start, set(threading.enumerate())

    def second_start_fails(self):
        if len(threading.enumerate()) > len(before):
            raise RuntimeError("can't start new thread")
        start(self)

    monkeypatch.setattr(threading.Thread, "start", second_start_fails)
    with pytest.raises(RuntimeError, match="can't start"):
        _run(_graph(_node("a"), _node("b")), StubRuntime(cached_dir),
             parallelism=2)
    assert set(threading.enumerate()) <= before


def test_each_template_is_parsed_once_per_run(monkeypatch, cached_dir):
    """300 shards build their argv from one ``$(inputs.item)`` template."""
    from miniwfl import expression
    from miniwfl.expression import EvalContext
    from miniwfl.runtime import build_command_line

    tool = parser.parse_raw({
        "cwlVersion": "v1.2", "class": "CommandLineTool",
        "baseCommand": ["echo"],
        "inputs": [{"id": "item", "type": "int"},
                   {"id": "line", "type": "string", "position": 1}],
        "outputs": [{"id": "out", "type": "string?", "glob": "o"}]}).body

    class ArgvRuntime(StubRuntime):
        argvs = []

        def run_task(self, node, bindings, attempt_number, resources):
            self.argvs.append(build_command_line(
                node.tool, bindings, EvalContext(inputs=bindings)))
            return super().run_task(node, bindings, attempt_number,
                                    resources)

    tokenized, tokenize = [], expression._tokenize
    monkeypatch.setattr(expression, "_tokenize", lambda body, offset: (
        tokenized.append(body) or tokenize(body, offset)))
    expression.parse_expr.cache_clear()
    node = TaskNode(id="fan", tool=tool, scatter=("item",), bindings={
        "item": ("lit", list(range(300))),
        "line": ("lit", "$(inputs.item)")})
    rt = ArgvRuntime(cached_dir)
    assert _run(_graph(node), rt).status == "Success"
    assert sorted(rt.argvs) == sorted(["echo", str(i)] for i in range(300))
    assert tokenized == ["inputs.item"]


def test_interrupt_cancels_the_attempts_in_flight(cached_dir):
    class BlockedRuntime(NullRuntime):
        def __init__(self, cached_dir):
            super().__init__(cached_dir)
            self.started = threading.Event()
            self.cancelled = threading.Event()

        def run_task(self, node, bindings, attempt_number, resources):
            self.started.set()
            self.cancelled.wait(10)
            return TaskAttempt(task_id=node.id, attempt_number=attempt_number)

        def cancel(self):
            self.cancelled.set()

    rt = BlockedRuntime(cached_dir)
    threading.Thread(target=lambda: rt.started.wait(10) and os.kill(
        os.getpid(), signal.SIGINT), daemon=True).start()
    began = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _run(_graph(_node("a")), runtime=rt)
    # the pool did not wait out the blocked attempt
    assert rt.cancelled.is_set() and time.monotonic() - began < 5


def test_interrupt_delivered_to_a_worker_thread_is_handled_at_once(
        cached_dir):
    # the kernel may deliver a process-directed signal to any thread
    class SelfSignallingRuntime(NullRuntime):
        def __init__(self, cached_dir):
            super().__init__(cached_dir)
            self.cancelled = threading.Event()

        def run_task(self, node, bindings, attempt_number, resources):
            time.sleep(0.5)  # till the coordinator waits for this attempt
            signal.pthread_kill(threading.get_ident(), signal.SIGINT)
            self.cancelled.wait(6)
            return TaskAttempt(task_id=node.id, attempt_number=attempt_number)

        def cancel(self):
            self.cancelled.set()

    rt = SelfSignallingRuntime(cached_dir)
    began = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _run(_graph(_node("a")), runtime=rt)
    assert rt.cancelled.is_set() and time.monotonic() - began < 2
