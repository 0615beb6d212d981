"""Scheduling: admission, retries, failure policy, scatter completion."""

import heapq
import os
import signal
import threading
import time

import pytest

from miniwfl import parser, planner, scheduler
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


class StubRuntime:
    """In-process runtime: records execution order, returns canned outputs."""

    def __init__(self, fail=(), temp_fail_counts=None, delay=0.0):
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


def _run(graph, runtime=None, **cfg_kwargs):
    cfg_kwargs.setdefault("parallelism", 2)
    cfg = RunConfig(**cfg_kwargs)
    return run(graph, cfg, Services(runtime or StubRuntime(), cache=None))


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


def test_fits_machine():
    m = Machine(cores=2, ram_mib=100, disk_mib=10)
    assert fits_machine({"coresMin": 2, "ramMin": 100, "diskMin": 10}, m)
    assert not fits_machine({"coresMin": 3, "ramMin": 1, "diskMin": 0}, m)


# --- end-to-end scheduling over the stub runtime ----------------------------

def test_chain_runs_in_dependency_order():
    g = _graph(_node("a"), _node("b", deps=["a"], layer=1),
               _node("c", deps=["b"], layer=2),
               outputs={"final": ("edge", ("c", "out"))})
    rt = StubRuntime()
    result = _run(g, rt)
    assert result.status == "Success"
    assert [c[0] for c in rt.calls] == ["a", "b", "c"]
    assert result.outputs == {"final": "c-value"}


def test_parallel_siblings_overlap():
    g = _graph(*[_node(f"t{i}") for i in range(4)])
    rt = StubRuntime(delay=0.1)
    result = _run(g, rt, parallelism=4, machine=Machine(cores=4))
    assert result.status == "Success"
    assert rt.max_active >= 2


def test_parallelism_one_serializes():
    g = _graph(*[_node(f"t{i}") for i in range(4)])
    rt = StubRuntime(delay=0.02)
    _run(g, rt, parallelism=1)
    assert rt.max_active == 1


def test_temporary_failures_retry_until_budget():
    g = _graph(_node("flaky"))
    rt = StubRuntime(temp_fail_counts={"flaky": 2})
    result = _run(g, rt, retries=3)
    assert result.status == "Success"
    assert rt.calls == [("flaky", 1), ("flaky", 2), ("flaky", 3)]
    attempts = result.tasks["flaky"].attempts
    assert len(attempts) == 3


def test_retry_budget_exhaustion_fails():
    g = _graph(_node("flaky"))
    rt = StubRuntime(temp_fail_counts={"flaky": 5})
    result = _run(g, rt, retries=2)
    assert result.status == "PermanentFail"
    assert len(rt.calls) == 3  # 1 + retries


def test_permanent_failure_never_retries():
    g = _graph(_node("bad"))
    rt = StubRuntime(fail={"bad"})
    result = _run(g, rt, retries=5)
    assert result.status == "PermanentFail"
    assert rt.calls == [("bad", 1)]
    assert result.tasks["bad"].state == planner.FAILED


def test_on_error_stop_skips_downstream_and_independent_work():
    g = _graph(_node("bad"), _node("down", deps=["bad"], layer=1),
               _node("indep", layer=1))
    rt = StubRuntime(fail={"bad"})
    result = _run(g, rt, parallelism=1, on_error="stop")
    assert result.status == "PermanentFail"
    assert ("down", 1) not in rt.calls
    assert ("indep", 1) not in rt.calls


def test_on_error_continue_runs_independent_work():
    g = _graph(_node("bad"), _node("down", deps=["bad"], layer=1),
               _node("indep", layer=1))
    rt = StubRuntime(fail={"bad"})
    result = _run(g, rt, parallelism=1, on_error="continue")
    assert result.status == "PermanentFail"
    assert ("indep", 1) in rt.calls
    assert ("down", 1) not in rt.calls  # its input never publishes


def test_skipped_guard_publishes_nulls():
    g = _graph(_node("maybe", guard="$(inputs.go)",
                     bindings={"go": ("lit", False)}),
               _node("down", deps=["maybe"], layer=1),
               outputs={"o": ("edge", ("maybe", "out"))})
    rt = StubRuntime()
    result = _run(g, rt)
    assert result.status == "Success"
    assert result.tasks["maybe"].state == planner.SKIPPED
    assert result.outputs == {"o": None}
    assert ("maybe", 1) not in rt.calls
    assert ("down", 1) in rt.calls  # consumes the published null


def test_guard_true_runs_normally():
    g = _graph(_node("maybe", guard="$(inputs.go)",
                     bindings={"go": ("lit", True)}))
    rt = StubRuntime()
    result = _run(g, rt)
    assert rt.calls == [("maybe", 1)]
    assert result.tasks["maybe"].state == planner.SUCCEEDED


def test_guard_type_error_fails_node():
    g = _graph(_node("maybe", guard="$(inputs.x)",
                     bindings={"x": ("lit", "strings are not guards")}))
    result = _run(g, StubRuntime())
    assert result.status == "PermanentFail"


def test_scatter_shards_gather_in_index_order():
    g = _graph(_node("fan", scatter=["xs"],
                     bindings={"xs": ("lit", ["a", "b", "c"])}),
               outputs={"all": ("edge", ("fan", "out"))})
    rt = StubRuntime(delay=0.01)
    result = _run(g, rt, parallelism=3)
    assert result.status == "Success"
    assert result.outputs == {
        "all": ["fan[0]-value", "fan[1]-value", "fan[2]-value"]}
    assert result.tasks["fan"].state == planner.SUCCEEDED


def test_scatter_width_zero_completes_without_spawns():
    g = _graph(_node("fan", scatter=["xs"], bindings={"xs": ("lit", [])}),
               outputs={"all": ("edge", ("fan", "out"))})
    rt = StubRuntime()
    result = _run(g, rt)
    assert result.status == "Success"
    assert result.outputs == {"all": []}
    assert rt.calls == []


def test_scatter_shard_failure_fails_the_node():
    g = _graph(_node("fan", scatter=["xs"],
                     bindings={"xs": ("lit", ["a", "b"])}))
    rt = StubRuntime(fail={"fan[1]"})
    result = _run(g, rt, parallelism=2)
    assert result.status == "PermanentFail"
    assert result.tasks["fan"].state == planner.FAILED


def test_shard_of_a_failed_scatter_is_not_retried(monkeypatch):
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
    rt = LateTimeout(fail={"fan[0]"}, temp_fail_counts={"fan[1]": 1})
    result = _run(g, rt, parallelism=2, retries=1, on_error="continue")
    assert result.status == "PermanentFail"
    events = [f"{e['task']} {e['transition']} {e['attempt']}"
              for e in result.event_log]
    assert events[events.index("fan Failed 0"):] == ["fan Failed 0",
                                                     "fan[1] Failed 1"]
    assert sorted(rt.calls) == [("fan[0]", 1), ("fan[1]", 1)]
    assert result.tasks["fan[1]"].state == planner.FAILED


def test_scatter_length_mismatch_fails_at_readiness():
    g = _graph(_node("fan", scatter=["xs", "x"],
                     bindings={"xs": ("lit", ["a"]), "x": ("lit", [1, 2])}))
    rt = StubRuntime()
    result = _run(g, rt)
    assert result.status == "PermanentFail"
    assert rt.calls == []


def test_per_shard_guards():
    # guard references the scattered element itself
    g = _graph(_node("fan", scatter=["xs"], guard="$(inputs.xs == 'go')",
                     bindings={"xs": ("lit", ["go", "stop", "go"])}),
               outputs={"all": ("edge", ("fan", "out"))})
    rt = StubRuntime()
    result = _run(g, rt, parallelism=2)
    assert result.status == "Success"
    assert result.outputs == {"all": ["fan[0]-value", None, "fan[2]-value"]}


def test_event_log_dependencies_precede_consumers():
    g = _graph(_node("a"), _node("b", deps=["a"], layer=1))
    result = _run(g, StubRuntime())
    order = [(e["task"], e["transition"]) for e in result.event_log]
    assert order.index(("a", planner.SUCCEEDED)) \
        < order.index(("b", planner.RUNNING))


def test_resource_minima_beyond_machine_fail_without_spawn():
    clause = Clause(CLAUSE_RESOURCE, {"coresMin": 64})
    g = _graph(_node("huge", requirements=[clause]))
    rt = StubRuntime()
    result = _run(g, rt, machine=Machine(cores=2))
    assert result.status == "PermanentFail"
    assert rt.calls == []


def test_deterministic_outputs_across_parallelism():
    def build():
        return _graph(
            _node("a"), _node("b"),
            _node("c", deps=["a"], layer=1),
            _node("d", deps=["b"], layer=1),
            outputs={"o1": ("edge", ("c", "out")),
                     "o2": ("edge", ("d", "out"))})
    r1 = _run(build(), StubRuntime(delay=0.01), parallelism=1)
    r4 = _run(build(), StubRuntime(delay=0.01), parallelism=4)
    assert r1.outputs == r4.outputs
    assert r1.status == r4.status == "Success"


def test_events_carry_millisecond_utc_timestamps():
    import re

    from miniwfl.provenance import iso_time
    result = _run(_graph(_node("a"), _node("b", deps=["a"], layer=1)))
    assert result.event_log
    for event in result.event_log:
        assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\.\d{3}Z",
                            event["ts"]), event
    # milliseconds are truncated, never rounded into the next second
    assert iso_time(86400.9999) == "1970-01-02T00:00:00.999Z"


# --- pinned event log --------------------------------------------------------

class FakeCache:
    """In-memory result cache: ``store`` remembers outputs by key and
    ``republish`` hands them back unchanged."""

    def __init__(self):
        self.entries = {}

    def lookup(self, key):
        return self.entries.get(key)

    def store(self, key, outputs, source_run_id=""):
        self.entries[key] = outputs

    def republish(self, outputs, dest_dir):
        return outputs


def _fan(tid, xs, **kwargs):
    bindings = dict(kwargs.pop("bindings", {}))
    bindings["xs"] = ("lit", list(xs))
    return _node(tid, scatter=["xs"], bindings=bindings, **kwargs)


def _cores(expr):
    return [Clause(CLAUSE_RESOURCE, {"coresMin": expr})]


def _pin_cached():
    """Warm a fake cache with ``p`` and shards xs=a, xs=b, then run a graph
    in which those hit and the shard xs=c and the consumer miss."""
    cache = FakeCache()
    run(_graph(_node("p"), _fan("fan", ["a", "b"])), RunConfig(),
        Services(StubRuntime(), cache=cache))
    graph = _graph(_node("p"), _fan("fan", ["a", "b", "c"]),
                   _fan("all", ["b", "a"]),
                   _node("down", deps=["p", "fan"], layer=1),
                   outputs={"fan": ("edge", ("fan", "out")),
                            "all": ("edge", ("all", "out"))})
    return graph, {"cache": cache}


def _pin_retries():
    return (_graph(_node("flaky"), _fan("fan", ["a", "b"], layer=1)),
            {"retries": 1,
             "runtime": StubRuntime(temp_fail_counts={"flaky": 1,
                                                      "fan[1]": 1})})


def _pin_failure(on_error):
    def build():
        return (_graph(_node("bad"), _node("down", deps=["bad"], layer=1),
                       _node("indep", layer=1)),
                {"on_error": on_error, "runtime": StubRuntime(fail={"bad"})})
    return build


PIN_SCENARIOS = {
    "chain": lambda: (_graph(_node("a"), _node("b", deps=["a"], layer=1),
                             _node("c", deps=["b"], layer=2)), {}),
    "guard_skip": lambda: (_graph(
        _node("maybe", guard="$(inputs.go)", bindings={"go": ("lit", False)}),
        _node("down", deps=["maybe"], layer=1)), {}),
    "shard_guards": lambda: (_graph(
        _fan("fan", ["go", "stop", "go"], guard="$(inputs.xs == 'go')"),
        _node("down", deps=["fan"], layer=1),
        outputs={"fan": ("edge", ("fan", "out"))}), {}),
    "width_zero": lambda: (_graph(
        _fan("fan", []), _node("down", deps=["fan"], layer=1),
        outputs={"fan": ("edge", ("fan", "out")),
                 "down": ("edge", ("down", "out"))}), {}),
    "retries": _pin_retries,
    "fail_stop": _pin_failure("stop"),
    "fail_continue": _pin_failure("continue"),
    "shard_failure": lambda: (_graph(
        _fan("fan", ["a", "b", "c"]), _node("down", deps=["fan"], layer=1),
        _node("indep", layer=1)),
        {"on_error": "continue", "runtime": StubRuntime(fail={"fan[1]"})}),
    "oversized": lambda: (_graph(
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
        ["bad Ready 0", "indep Ready 0", "bad Running 1", "bad Failed 0"],
        {"bad": "Failed", "indep": "Ready"},
        {}),
    "fail_continue": (
        "PermanentFail",
        ["bad Ready 0", "indep Ready 0", "bad Running 1", "bad Failed 0",
         "indep Running 1", "indep Succeeded 1"],
        {"bad": "Failed", "indep": "Succeeded"},
        {}),
    "shard_failure": (
        "PermanentFail",
        ["fan Ready 0", "fan Running 0", "indep Ready 0", "fan[0] Running 1",
         "fan[0] Succeeded 1", "fan[1] Running 1", "fan[1] Failed 1",
         "fan Failed 0", "indep Running 1", "indep Succeeded 1"],
        {"fan": "Failed", "fan[0]": "Succeeded", "fan[1]": "Failed",
         "fan[2]": "Pending", "indep": "Succeeded"},
        {}),
    "oversized": (
        "PermanentFail",
        ["fan Ready 0", "fan Running 0", "fan Failed 0", "huge Ready 0",
         "huge Failed 0", "small Ready 0", "small Running 1",
         "small Succeeded 1"],
        {"fan": "Failed", "fan[0]": "Pending", "fan[1]": "Pending",
         "huge": "Failed", "small": "Succeeded"},
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
def test_event_log_and_task_states_are_pinned(name):
    """The coordinator's whole observable trace for each scenario, serial so
    that completions cannot interleave."""
    from miniwfl import provenance
    graph, kwargs = PIN_SCENARIOS[name]()
    runtime = kwargs.pop("runtime", None) or StubRuntime()
    cache = kwargs.pop("cache", None)
    result = run(graph, RunConfig(parallelism=1, **kwargs),
                 Services(runtime, cache=cache))
    record = provenance.build_record(result, "", {})
    status, events, states, outputs = PIN_EXPECTED[name]
    assert result.status == status
    assert [f"{e['task']} {e['transition']} {e['attempt']}"
            for e in result.event_log] == events
    assert {tid: task["state"]
            for tid, task in record["tasks"].items()} == states
    assert all(task["cached"] == (task["state"] == planner.CACHED)
               for task in record["tasks"].values())
    assert result.outputs == outputs


# --- coordinator cost ------------------------------------------------------

def _scatter(width):
    return _graph(_fan("fan", [str(i) for i in range(width)]))


def _chain(length):
    return _graph(*[_node(f"s{i}", deps=[f"s{i - 1}"] if i else [], layer=i)
                    for i in range(length)])


def _best_of_5(build, size):
    """Fastest of five runs over the stub runtime, whose tasks cost
    nothing, so the time is the coordinator's own; on a small machine one
    descheduling can decide a single short run."""
    times = []
    for _ in range(5):
        graph = build(size)
        started = time.perf_counter()
        assert _run(graph).status == "Success"
        times.append(time.perf_counter() - started)
    return min(times)


@pytest.mark.parametrize("build, small, large",
                         [(_scatter, 1000, 4000), (_chain, 500, 2000)])
def test_coordinator_cost_grows_linearly(build, small, large):
    # 4x the units: about 4x the time when linear, 16x when quadratic
    ratio = _best_of_5(build, large) / _best_of_5(build, small)
    assert ratio < 7, f"{large} units took {ratio:.1f}x the time of {small}"


@pytest.mark.parametrize("build, small, large",
                         [(_scatter, 1000, 4000), (_chain, 500, 2000)])
def test_coordinator_work_per_unit_stays_flat(build, small, large,
                                              monkeypatch):
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
        assert _run(build(size)).status == "Success"
        per_unit[size] = {k: n / size for k, n in counts.items()}
    for key, at_small in per_unit[small].items():
        assert per_unit[large][key] <= 1.1 * at_small, (key, per_unit)


def test_interrupt_cancels_the_attempts_in_flight():
    class BlockedRuntime:
        def __init__(self):
            self.started = threading.Event()
            self.cancelled = threading.Event()

        def run_task(self, node, bindings, attempt_number, resources):
            self.started.set()
            self.cancelled.wait(10)
            return TaskAttempt(task_id=node.id, attempt_number=attempt_number)

        def cancel(self):
            self.cancelled.set()

    rt = BlockedRuntime()
    threading.Thread(target=lambda: rt.started.wait(10) and os.kill(
        os.getpid(), signal.SIGINT), daemon=True).start()
    began = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _run(_graph(_node("a")), runtime=rt)
    # the pool did not wait out the blocked attempt
    assert rt.cancelled.is_set() and time.monotonic() - began < 5


def test_interrupt_delivered_to_a_worker_thread_is_handled_at_once():
    # the kernel may deliver a process-directed signal to any thread
    class SelfSignallingRuntime:
        def __init__(self):
            self.cancelled = threading.Event()

        def run_task(self, node, bindings, attempt_number, resources):
            time.sleep(0.5)  # till the coordinator waits for this attempt
            signal.pthread_kill(threading.get_ident(), signal.SIGINT)
            self.cancelled.wait(6)
            return TaskAttempt(task_id=node.id, attempt_number=attempt_number)

        def cancel(self):
            self.cancelled.set()

    rt = SelfSignallingRuntime()
    began = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _run(_graph(_node("a")), runtime=rt)
    assert rt.cancelled.is_set() and time.monotonic() - began < 2
