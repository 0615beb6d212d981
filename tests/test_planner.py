"""Planning: job orders, graph construction, inlining, scatter, guards."""

import pytest
from conftest import deep_chain

from miniwfl import parser, planner, scheduler
from miniwfl.errors import (
    JobOrderError,
    PlanError,
    ScatterLengthMismatchError,
)
from miniwfl.expression import EvalContext
from miniwfl.planner import (
    DataflowGraph,
    FileValue,
    TaskNode,
    apply_guard,
    expand_scatter,
    plan,
    ready_set,
    resolved_bindings,
)

TOOL_RAW = {
    "cwlVersion": "v1.2", "class": "CommandLineTool",
    "baseCommand": ["true"],
    "inputs": [{"id": "x", "type": "File?"},
               {"id": "s", "type": "string?"}],
    "outputs": [{"id": "out", "type": "File", "glob": "o.txt"}],
}


def _wf(steps, inputs=None, outputs=None, version="v1.2"):
    raw = {
        "cwlVersion": version, "class": "Workflow",
        "inputs": inputs or [],
        "outputs": outputs or [],
        "steps": steps,
    }
    return parser.parse_raw(raw)


def _fv(tmp_path, name="in.txt", content="data\n"):
    p = tmp_path / name
    p.write_text(content)
    return FileValue.from_path(str(p))


# --- job order loading ------------------------------------------------------

def test_job_order_coerces_and_checksums_files(tmp_path):
    (tmp_path / "a.txt").write_text("hello\n")
    wf = _wf([], inputs=[{"id": "f", "type": "File"},
                         {"id": "n", "type": "int"}]).body
    job = planner.load_job_order(
        {"f": {"class": "File", "path": "a.txt"}, "n": 3}, wf,
        base_dir=str(tmp_path))
    assert job["n"] == 3
    fv = job["f"]
    assert fv.basename == "a.txt"
    assert fv.size == 6
    assert fv.checksum == planner.file_checksum(str(tmp_path / "a.txt"))


def test_job_order_accepts_bare_path_strings(tmp_path):
    (tmp_path / "a.txt").write_text("x")
    wf = _wf([], inputs=[{"id": "f", "type": "File"}]).body
    job = planner.load_job_order({"f": "a.txt"}, wf, base_dir=str(tmp_path))
    assert isinstance(job["f"], FileValue)


def test_job_order_defaults_and_optionals():
    wf = _wf([], inputs=[{"id": "n", "type": "int", "default": 5},
                         {"id": "m", "type": "string?"}]).body
    job = planner.load_job_order({}, wf)
    assert job == {"n": 5, "m": None}


@pytest.mark.parametrize("values,inputs", [
    ({}, [{"id": "n", "type": "int"}]),               # missing required
    ({"n": "x"}, [{"id": "n", "type": "int"}]),       # wrong type
    ({"n": True}, [{"id": "n", "type": "int"}]),      # bool is not int
    ({"n": 1, "z": 2}, [{"id": "n", "type": "int"}]),  # unknown input
    ({"f": "/nonexistent"}, [{"id": "f", "type": "File"}]),
    ({"xs": 3}, [{"id": "xs", "type": "int[]"}]),     # array expected
])
def test_job_order_rejections(values, inputs):
    wf = _wf([], inputs=inputs).body
    with pytest.raises(JobOrderError):
        planner.load_job_order(values, wf)


def test_job_order_int_widens_to_float():
    wf = _wf([], inputs=[{"id": "x", "type": "float"}]).body
    assert planner.load_job_order({"x": 2}, wf) == {"x": 2.0}


# --- graph construction -----------------------------------------------------

def test_two_step_chain_has_one_edge(tmp_path):
    doc = _wf([
        {"id": "a", "run": dict(TOOL_RAW), "in": {"x": "f"}},
        {"id": "b", "run": dict(TOOL_RAW), "in": {"x": "a/out"}},
    ], inputs=[{"id": "f", "type": "File"}],
        outputs=[{"id": "out", "type": "File", "outputSource": "b/out"}])
    graph = plan(doc, {"f": _fv(tmp_path)})
    assert sorted(graph.nodes) == ["a", "b"]
    assert graph.edges == {(("a", "out"), ("b", "x"))}
    assert graph.nodes["a"].layer == 0
    assert graph.nodes["b"].layer == 1
    assert graph.workflow_outputs == {"out": ("edge", ("b", "out"))}


def test_zero_step_passthrough(tmp_path):
    fv = _fv(tmp_path)
    doc = _wf([], inputs=[{"id": "f", "type": "File"}],
              outputs=[{"id": "same", "type": "File", "outputSource": "f"}])
    graph = plan(doc, {"f": fv})
    assert graph.nodes == {}
    assert graph.workflow_outputs == {"same": ("lit", fv)}


def test_subworkflow_inlining_flattens_with_scoped_ids(tmp_path):
    inner = {
        "cwlVersion": "v1.2", "class": "Workflow",
        "inputs": [{"id": "x", "type": "File"}],
        "outputs": [{"id": "out", "type": "File", "outputSource": "q/out"}],
        "steps": [
            {"id": "p", "run": dict(TOOL_RAW), "in": {"x": "x"}},
            {"id": "q", "run": dict(TOOL_RAW), "in": {"x": "p/out"}},
        ],
    }
    doc = _wf([
        {"id": "pre", "run": dict(TOOL_RAW), "in": {"x": "f"}},
        {"id": "sub", "run": inner, "in": {"x": "pre/out"}},
        {"id": "post", "run": dict(TOOL_RAW), "in": {"x": "sub/out"}},
    ], inputs=[{"id": "f", "type": "File"}],
        outputs=[{"id": "out", "type": "File", "outputSource": "post/out"}])
    graph = plan(doc, {"f": _fv(tmp_path)})
    assert sorted(graph.nodes) == ["post", "pre", "sub/p", "sub/q"]
    # consumers wire straight through the inlined boundary
    assert (("sub/q", "out"), ("post", "x")) in graph.edges
    assert [graph.nodes[t].layer for t in ("pre", "sub/p", "sub/q", "post")] \
        == [0, 1, 2, 3]


def test_scatter_and_when_rejected_on_subworkflow_steps():
    inner = {
        "cwlVersion": "v1.2", "class": "Workflow",
        "inputs": [{"id": "x", "type": "File?"}], "outputs": [], "steps": [],
    }
    doc = _wf([{"id": "sub", "run": inner, "in": {"x": "f"},
                "scatter": ["x"]}],
              inputs=[{"id": "f", "type": "File[]"}])
    with pytest.raises(PlanError,
                       match="on a sub-workflow step is not supported"):
        plan(doc, {"f": []})


def test_unresolved_run_reference_fails_planning():
    doc = _wf([{"id": "a", "run": "missing.cwl", "in": {}}])
    with pytest.raises(PlanError, match="unresolved"):
        plan(doc, {})


def test_unbound_required_tool_input_fails_planning():
    tool = dict(TOOL_RAW)
    tool["inputs"] = [{"id": "x", "type": "File"}]
    doc = _wf([{"id": "a", "run": tool, "in": {}}])
    with pytest.raises(PlanError, match="required input"):
        plan(doc, {})


def test_source_naming_an_input_missing_from_the_job_fails_planning(
        tmp_path):
    doc = _wf([{"id": "a", "run": dict(TOOL_RAW), "in": {"x": "f"}}],
              inputs=[{"id": "f", "type": "File"},
                      {"id": "unused", "type": "string"}])
    with pytest.raises(PlanError, match="unresolvable source 'f'"):
        plan(doc, {"unused": "u"})
    assert sorted(plan(doc, {"f": _fv(tmp_path)}).nodes) == ["a"]


def test_tool_defaults_fill_unbound_inputs():
    tool = dict(TOOL_RAW)
    tool["inputs"] = [{"id": "s", "type": "string", "default": "fallback"}]
    doc = _wf([{"id": "a", "run": tool, "in": {}}])
    graph = plan(doc, {})
    assert graph.nodes["a"].bindings == {"s": ("lit", "fallback")}


def test_steps_plan_regardless_of_declaration_order(tmp_path):
    fv = _fv(tmp_path)
    steps = [
        {"id": "late", "run": dict(TOOL_RAW), "in": {"x": "early/out"}},
        {"id": "early", "run": dict(TOOL_RAW), "in": {"x": "f"}},
    ]
    graph = plan(_wf(steps, inputs=[{"id": "f", "type": "File"}]), {"f": fv})
    assert graph.edges == {(("early", "out"), ("late", "x"))}


def test_deep_chain_plans_one_layer_per_step():
    graph = plan(deep_chain(2000), {})
    assert [graph.nodes[f"s{i:04d}"].layer for i in range(2000)] == \
        list(range(2000))


def test_assign_layers_on_deep_chain_added_last_step_first():
    tool = parser.parse_raw(dict(TOOL_RAW)).body
    graph = DataflowGraph()
    for i in reversed(range(2000)):
        bindings = {"x": ("edge", (f"t{i - 1}", "out"))} if i else {}
        graph.nodes[f"t{i}"] = TaskNode(id=f"t{i}", tool=tool,
                                        bindings=bindings)
        if i:
            graph.edges.add(((f"t{i - 1}", "out"), (f"t{i}", "x")))
    planner._assign_layers(graph)
    assert [graph.nodes[f"t{i}"].layer for i in range(2000)] == \
        list(range(2000))


def test_toposort_keeps_given_order_among_ready_ids():
    edges = {("a", "b"), ("c", "d"), ("d", "c"), ("d", "e")}
    order, rest = planner.toposort(["b", "e", "a", "d", "c", "f"], edges)
    assert order == ["a", "b", "f"]
    assert rest == ["e", "d", "c"]


# --- scatter expansion ------------------------------------------------------

def _scatter_node(scatter=("s",), guard=None):
    tool = parser.parse_raw(dict(TOOL_RAW)).body
    return TaskNode(id="fan", tool=tool, bindings={}, scatter=tuple(scatter),
                    guard=guard)


def test_expand_scatter_width_three():
    node = _scatter_node()
    shards = expand_scatter(node, {"s": ["a", "b", "c"], "x": None})
    assert shards == [{"s": "a", "x": None}, {"s": "b", "x": None},
                      {"s": "c", "x": None}]


def test_expand_scatter_width_zero():
    assert expand_scatter(_scatter_node(), {"s": []}) == []


def test_expand_scatter_dot_product_pairs():
    node = _scatter_node(scatter=("s", "x"))
    shards = expand_scatter(node, {"s": ["a", "b"], "x": [1, 2]})
    assert shards == [{"s": "a", "x": 1}, {"s": "b", "x": 2}]


def test_expand_scatter_length_mismatch():
    node = _scatter_node(scatter=("s", "x"))
    with pytest.raises(ScatterLengthMismatchError):
        expand_scatter(node, {"s": ["a", "b"], "x": [1]})
    with pytest.raises(ScatterLengthMismatchError):
        expand_scatter(_scatter_node(), {"s": "not-a-list"})


# --- guards and readiness ---------------------------------------------------

def test_apply_guard_truth_table():
    for value in (True, False):
        node = _scatter_node(scatter=(), guard="$(inputs.go)")
        ctx = EvalContext(inputs={"go": value})
        expected = planner.PROCEED if value else planner.SKIP
        assert apply_guard(node, ctx) == expected
    assert apply_guard(_scatter_node(scatter=()), EvalContext({})) \
        == planner.PROCEED


def test_ready_set_tracks_published_values(tmp_path):
    doc = _wf([
        {"id": "a", "run": dict(TOOL_RAW), "in": {"x": "f"}},
        {"id": "b", "run": dict(TOOL_RAW), "in": {"x": "f"}},
        {"id": "c", "run": dict(TOOL_RAW), "in": {"x": "a/out", "s": "b/out"}},
    ], inputs=[{"id": "f", "type": "File"}])
    # c's second binding is type-sloppy but the plan shape is what matters here
    doc_steps = list(doc.body.steps)
    graph = plan(doc, {"f": _fv(tmp_path)})
    assert ready_set(graph, {}, graph.nodes) == {"a", "b"}
    assert ready_set(graph, {("a", "out"): "v"}, graph.nodes) == {"a", "b"}
    # only the candidates are checked
    assert ready_set(graph, {}, ["b", "c"]) == {"b"}
    # the scheduler passes only the nodes that have not started
    assert ready_set(graph, {("a", "out"): "v", ("b", "out"): "w"},
                     ["c"]) == {"c"}
    assert doc_steps  # silence lint: parsed steps remain immutable


def test_state_transitions_enforced():
    node = _scatter_node(scatter=())
    coordinator = scheduler._Coordinator(
        DataflowGraph(nodes={node.id: node}), scheduler.RunConfig(),
        scheduler.Services(runtime=None))
    record = scheduler.TaskRecord(node, node, {})
    coordinator.mark(record, planner.READY)
    coordinator.mark(record, planner.RUNNING)
    coordinator.mark(record, planner.SUCCEEDED)
    with pytest.raises(PlanError):
        coordinator.mark(record, planner.RUNNING)
    fresh = scheduler.TaskRecord(node, node, {})
    with pytest.raises(PlanError):
        coordinator.mark(fresh, planner.SUCCEEDED)
    assert (record.state, fresh.state) == (planner.SUCCEEDED, planner.PENDING)


def test_clause_precedence_step_overrides_tool():
    from miniwfl.model import CLAUSE_RESOURCE, Clause
    tool = parser.parse_raw(dict(TOOL_RAW)).body
    step_req = Clause(CLAUSE_RESOURCE, {"coresMin": 4})
    tool_req = Clause(CLAUSE_RESOURCE, {"coresMin": 1})
    node = TaskNode(id="t", tool=tool, bindings={},
                    requirements=(step_req, tool_req))
    assert node.clause(CLAUSE_RESOURCE).payload["coresMin"] == 4
    hint_only = TaskNode(id="t2", tool=tool, bindings={},
                         hints=(tool_req,))
    assert hint_only.clause(CLAUSE_RESOURCE).payload["coresMin"] == 1
    assert TaskNode(id="t3", tool=tool, bindings={}).clause(CLAUSE_RESOURCE) is None


def test_to_dot_shape(tmp_path):
    doc = _wf([
        {"id": "a", "run": dict(TOOL_RAW), "in": {"x": "f"}},
        {"id": "b", "run": dict(TOOL_RAW), "in": {"x": "a/out"}},
    ], inputs=[{"id": "f", "type": "File"}])
    dot = planner.to_dot(plan(doc, {"f": _fv(tmp_path)}))
    assert dot.startswith("digraph")
    assert '"a" -> "b"' in dot
    assert "out→x" in dot


def test_resolved_bindings_mixes_literals_and_edges():
    tool = parser.parse_raw(dict(TOOL_RAW)).body
    node = TaskNode(id="t", tool=tool,
                    bindings={"s": ("lit", "hi"), "x": ("edge", ("p", "out"))})
    resolved = resolved_bindings(node.bindings, {("p", "out"): "file-value"})
    assert resolved == {"s": "hi", "x": "file-value"}
