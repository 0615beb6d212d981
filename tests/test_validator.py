"""Static validation: diagnostics, cycle detection, layering."""

import json
import random
import textwrap
from dataclasses import replace

import pytest
import yaml
from conftest import deep_chain
from hypothesis import given, settings, strategies as st

from miniwfl import parser, planner, validator
from miniwfl.errors import GraphCycleError, PlanError
from miniwfl.model import Document, Machine
from miniwfl.validator import Diagnostic


def _doc(text):
    return parser.parse_document(text)


def _codes(diags):
    return sorted(d.code for d in diags)


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


def wf_with_inline_tool(extra_step_yaml="", outputs=None, inputs=None):
    inputs = inputs or "  msg: string"
    outputs = outputs or "  out: {type: File, outputSource: say/out}"
    return _doc(f"""\
cwlVersion: v1.2
class: Workflow
inputs:
{inputs}
outputs:
{outputs}
steps:
  say:
    run:
      cwlVersion: v1.2
      class: CommandLineTool
      baseCommand: [echo]
      inputs:
        msg: {{type: string, position: 1}}
      outputs:
        out: {{type: File, capture: stdout}}
      stdout: out.txt
    in: {{msg: msg}}
{extra_step_yaml}""")


def test_clean_workflow_validates_clean():
    assert validator.validate(wf_with_inline_tool()) == []


def test_unsupported_requirement_is_error_hint_is_warning():
    req = _doc(TOOL + "requirements:\n  - {class: 'acme:Gpu'}\n")
    hint = _doc(TOOL + "hints:\n  - {class: 'acme:Gpu'}\n")
    req_diags = validator.validate(req)
    hint_diags = validator.validate(hint)
    assert _codes(req_diags) == ["UnsupportedRequirement"]
    assert req_diags[0].severity == validator.ERROR
    assert _codes(hint_diags) == ["UnsupportedRequirement"]
    assert hint_diags[0].severity == validator.WARNING
    assert validator.has_errors(req_diags)
    assert not validator.has_errors(hint_diags)


def test_unsupported_version_reported():
    doc = replace(_doc(TOOL), version="v0.9")
    assert _codes(validator.validate(doc)) == ["UnsupportedVersion"]


def test_resource_unsatisfiable():
    doc = _doc(TOOL + "requirements:\n  - {class: ResourceRequirement, coresMin: 4}\n")
    diags = validator.validate(doc, Machine(cores=2))
    assert _codes(diags) == ["ResourceUnsatisfiable"]
    assert validator.validate(doc, Machine(cores=4)) == []


@pytest.mark.parametrize("feature", ["scatter", "when"])
def test_sub_workflow_step_features_are_refused_as_by_the_planner(feature):
    inner = {
        "cwlVersion": "v1.2", "class": "Workflow",
        "inputs": {"msg": "string"},
        "outputs": {"out": {"type": "File", "outputSource": "say/out"}},
        "steps": {"say": {"run": yaml.safe_load(TOOL), "in": {"msg": "msg"}}},
    }
    scatter = feature == "scatter"
    step = {"run": inner, "in": {"msg": "msg"},
            **({"scatter": "msg"} if scatter else {"when": "$(true)"})}
    doc = parser.parse_raw({
        "cwlVersion": "v1.2", "class": "Workflow",
        "inputs": {"msg": "string[]" if scatter else "string"},
        "outputs": {"out": {"type": "File[]" if scatter else "File?",
                            "outputSource": "inner/out"}},
        "steps": {"inner": step},
    })
    (diag,) = validator.validate(doc)
    assert (diag.code, diag.location, diag.message) == (
        "UnsupportedFeature", "$/steps/inner",
        f"{feature} on a sub-workflow step is not supported")
    with pytest.raises(PlanError, match="not supported"):
        planner.plan(doc, {"msg": ["a"] if scatter else "a"})


def test_dangling_source_reference():
    doc = wf_with_inline_tool(
        outputs="  out: {type: File, outputSource: ghost/out}")
    assert "DanglingReference" in _codes(validator.validate(doc))


def test_dangling_output_port():
    doc = wf_with_inline_tool(
        outputs="  out: {type: File, outputSource: say/nope}")
    assert "DanglingReference" in _codes(validator.validate(doc))


def test_type_mismatch_on_connection():
    doc = wf_with_inline_tool(inputs="  msg: int")
    diags = validator.validate(doc)
    assert "TypeMismatch" in _codes(diags)


def test_optionality_only_widens():
    # string? feeding a string sink is a mismatch; string into string? is fine
    narrowing = wf_with_inline_tool(inputs="  msg: string?")
    assert "TypeMismatch" in _codes(validator.validate(narrowing))


def test_missing_required_binding():
    doc = _doc("""\
cwlVersion: v1.2
class: Workflow
inputs: {}
outputs:
  out: {type: File, outputSource: say/out}
steps:
  say:
    run:
      cwlVersion: v1.2
      class: CommandLineTool
      baseCommand: [echo]
      inputs:
        msg: {type: string, position: 1}
      outputs:
        out: {type: File, capture: stdout}
      stdout: out.txt
    in: {}
""")
    assert "MissingBinding" in _codes(validator.validate(doc))


def test_conditional_output_becomes_optional_at_sink():
    base = wf_with_inline_tool()
    text = parser.canonical_serialize(base)
    raw = json.loads(text)
    raw["steps"][0]["when"] = "$(inputs.msg == 'go')"
    strict = parser.parse_raw(raw)
    assert "TypeMismatch" in _codes(validator.validate(strict))
    raw["outputs"][0]["type"] = "File?"
    relaxed = parser.parse_raw(raw)
    assert validator.validate(relaxed) == []


def test_scatter_sink_needs_matching_array():
    doc = wf_with_inline_tool(inputs="  msg: \"string[]\"")
    raw = json.loads(parser.canonical_serialize(doc))
    raw["steps"][0]["scatter"] = ["msg"]
    raw["outputs"][0]["type"] = "File[]"
    assert validator.validate(parser.parse_raw(raw)) == []
    raw["steps"][0]["in"] = {"msg": "msg"}
    del raw["steps"][0]["scatter"]
    assert "TypeMismatch" in _codes(validator.validate(parser.parse_raw(raw)))


def test_invalid_guard_expression():
    doc = wf_with_inline_tool()
    raw = json.loads(parser.canonical_serialize(doc))
    raw["steps"][0]["when"] = "$(inputs.msg =="
    raw["outputs"][0]["type"] = "File?"
    assert "InvalidExpression" in _codes(validator.validate(parser.parse_raw(raw)))


def test_format_mismatch_only_when_both_declared():
    doc = wf_with_inline_tool()
    raw = json.loads(parser.canonical_serialize(doc))
    tool = raw["steps"][0]["run"]
    tool["outputs"][0]["format"] = "iana:text/plain"
    raw["outputs"][0]["format"] = "iana:text/csv"
    assert "FormatMismatch" in _codes(validator.validate(parser.parse_raw(raw)))
    del raw["outputs"][0]["format"]
    assert validator.validate(parser.parse_raw(raw)) == []


def test_directory_parameters_are_rejected():
    tool_dir = wf_with_inline_tool(inputs="  msg: string\n  d: Directory[]?")
    diags = validator.validate(tool_dir)
    assert [(d.code, d.location, d.message) for d in diags] == [
        ("UnsupportedType", "$/inputs/d",
         "input 'd': unsupported base type Directory")]
    doc = parser.parse_document(TOOL.replace("msg: {type: string",
                                             "msg: {type: Directory"))
    assert [d.location for d in validator.validate(doc)] == ["$/inputs/msg"]
    step = parser.parse_document(f"""\
cwlVersion: v1.2
class: Workflow
inputs: {{}}
outputs: {{}}
steps:
  say:
    run:
{textwrap.indent(TOOL.replace("File, capture: stdout", "Directory, glob: d"),
                 "      ")}
    in: {{}}
""")
    assert [d.message for d in validator.validate(step)
            if d.code == "UnsupportedType"] \
        == ["output 'out': unsupported base type Directory"]


def test_diagnostic_json_line_shape():
    d = Diagnostic(validator.ERROR, "TypeMismatch", "$/steps/x", "boom")
    line = json.loads(d.to_json_line())
    assert line == {"severity": "error", "code": "TypeMismatch",
                    "location": "$/steps/x", "message": "boom"}


# --- cycles and layering ----------------------------------------------------

def _chain_workflow(edges, n):
    """Synthetic workflow of n steps with the given (producer, consumer) edges."""
    tool = {
        "cwlVersion": "v1.2", "class": "CommandLineTool",
        "baseCommand": ["true"],
        "inputs": [{"id": f"i{k}", "type": "File?"} for k in range(n)],
        "outputs": [{"id": "out", "type": "File", "glob": "o.txt"}],
    }
    steps = []
    for i in range(n):
        in_block = {}
        for k, (a, b) in enumerate(edges):
            if b == i:
                in_block[f"i{k % n}"] = f"s{a}/out"
        steps.append({"id": f"s{i}", "run": dict(tool), "in": in_block})
    raw = {
        "cwlVersion": "v1.2", "class": "Workflow",
        "inputs": [], "outputs": [], "steps": steps,
    }
    return parser.parse_raw(raw).body


def _plan_layers(wf):
    """Step ids grouped by the layer ``planner.plan`` gives their nodes."""
    layers = []
    graph = planner.plan(Document("v1.2", wf), {})
    for tid, node in graph.nodes.items():
        while len(layers) <= node.layer:
            layers.append(set())
        layers[node.layer].add(tid)
    return layers


def _oracle_has_cycle(n, edges):
    """Independent check: Kahn's algorithm leaves nodes iff a cycle exists."""
    indeg = {i: 0 for i in range(n)}
    adj = {i: [] for i in range(n)}
    for a, b in edges:
        adj[a].append(b)
        indeg[b] += 1
    queue = [i for i in range(n) if indeg[i] == 0]
    seen = 0
    while queue:
        node = queue.pop()
        seen += 1
        for nxt in adj[node]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                queue.append(nxt)
    return seen != n


def _random_dag_edges(rng, n):
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for _ in range(rng.randint(0, 2 * n)):
        i, j = sorted(rng.sample(range(n), 2))
        edges.add((order[i], order[j]))
    return edges


def test_cycle_detection_matches_oracle_on_random_graphs():
    rng = random.Random(1234)
    for trial in range(100):
        n = rng.randint(2, 8)
        edges = _random_dag_edges(rng, n)
        if trial % 2:  # inject a back edge along an existing path when possible
            if edges:
                a, b = rng.choice(sorted(edges))
                edges.add((b, a))
        # the in-binding encoding can overwrite parallel edges into the same
        # consumer slot; rebuild the effective edge set from the workflow
        wf = _chain_workflow(sorted(edges), n)
        eff = {(int(a[1:]), int(b[1:]))
               for a, b in validator.step_dependency_edges(wf)}
        expected = _oracle_has_cycle(n, eff)
        assert bool(validator.check_acyclic(wf)) == expected


def test_deep_chain_listed_backwards_validates_clean():
    assert validator.validate(deep_chain(2000)) == []


def test_deep_ring_is_one_cycle():
    (diag,) = validator.validate(deep_chain(2000, ring=True))
    assert diag.code == "CycleDetected"


def test_cycle_diagnostic_names_the_cycle():
    wf = _chain_workflow([(0, 1), (1, 2), (2, 0)], 3)
    (diag,) = validator.check_acyclic(wf)
    assert diag.code == "CycleDetected"
    assert "s0" in diag.message and "s2" in diag.message


def test_layering_every_edge_crosses_forward():
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(2, 8)
        wf = _chain_workflow(sorted(_random_dag_edges(rng, n)), n)
        layers = _plan_layers(wf)
        index = {}
        for depth, group in enumerate(layers):
            for sid in group:
                index[sid] = depth
        for a, b in validator.step_dependency_edges(wf):
            assert index[a] < index[b]
        assert sorted(index) == sorted(s.id for s in wf.steps)


def test_layering_raises_on_cycle():
    wf = _chain_workflow([(0, 1), (1, 0)], 2)
    with pytest.raises(GraphCycleError):
        _plan_layers(wf)


def test_layering_chain_is_one_step_per_layer():
    wf = _chain_workflow([(0, 1), (1, 2), (2, 3)], 4)
    layers = _plan_layers(wf)
    assert [sorted(g) for g in layers] == [["s0"], ["s1"], ["s2"], ["s3"]]


@settings(max_examples=30)
@given(st.integers(2, 6), st.data())
def test_validation_is_deterministic(n, data):
    edges = data.draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6))
    wf = _chain_workflow(sorted(edges), n)
    assert validator.check_acyclic(wf) == validator.check_acyclic(wf)


# --- validate and plan agree -------------------------------------------------

# the codes after which there is no graph to run, spelled out here so that the
# agreement below does not lean on the module it checks
_STRUCTURAL = {"DanglingReference", "MissingBinding", "UnsupportedFeature",
               "CycleDetected"}


def _random_inputs(rng, n):
    """``n`` string inputs, each required, optional or defaulted."""
    kinds = ("string", "string?", {"type": "string", "default": "d"})
    return {f"i{k}": rng.choice(kinds) for k in range(n)}


def _random_in_block(rng, params, sources):
    """Each of ``params`` bound to one of ``sources``, given a literal, left
    unbound or bound to a source that does not exist."""
    block = {}
    for param in params:
        how = rng.choice(("bound", "bound", "literal", "unbound", "dangling"))
        if how == "bound" and sources:
            block[param] = rng.choice(sources)
        elif how == "literal":
            block[param] = {"default": "lit"}
        elif how == "dangling":
            block[param] = rng.choice(("ghost", "ghost/out", "s0/nope"))
    return block


def _random_tool(rng):
    return {"cwlVersion": "v1.2", "class": "CommandLineTool",
            "baseCommand": ["true"],
            "inputs": _random_inputs(rng, rng.randint(0, 3)),
            "outputs": {"out": {"type": "string", "glob": "o.json"}}}


def _random_workflow(rng):
    """A raw workflow of tool steps and sub-workflow steps one level deep,
    with, now and then, a back edge that closes a cycle; and the id of each
    tool node that a plan of it has."""
    wf_inputs = _random_inputs(rng, rng.randint(0, 3))
    steps, tool_ids = {}, []
    n = rng.randint(1, 4)
    for i in range(n):
        sid = f"s{i}"
        earlier = list(wf_inputs) + [f"s{j}/out" for j in range(i)]
        if rng.random() < 0.4:
            sub_inputs = _random_inputs(rng, rng.randint(0, 3))
            inner = {}
            for k in range(rng.randint(1, 2)):
                tool = _random_tool(rng)
                inner[f"t{k}"] = {"run": tool, "in": _random_in_block(
                    rng, tool["inputs"],
                    list(sub_inputs) + [f"t{j}/out" for j in range(k)])}
                tool_ids.append(f"{sid}/t{k}")
            run = {"cwlVersion": "v1.2", "class": "Workflow",
                   "inputs": sub_inputs, "steps": inner,
                   "outputs": {"out": {"type": "string",
                                       "outputSource": f"t{len(inner) - 1}/out"}}}
        else:
            run = _random_tool(rng)
            tool_ids.append(sid)
        steps[sid] = {"run": run,
                      "in": _random_in_block(rng, run["inputs"], earlier)}
    if n > 1 and rng.random() < 0.3:  # a back edge from the last step
        params = list(steps["s0"]["run"]["inputs"])
        if params:
            steps["s0"]["in"][params[0]] = f"s{n - 1}/out"
    raw = {"cwlVersion": "v1.2", "class": "Workflow", "inputs": wf_inputs,
           "steps": steps,
           "outputs": {"out": {"type": "string",
                               "outputSource": f"s{n - 1}/out"}}}
    return raw, tool_ids


def test_validate_and_plan_agree_on_random_workflows():
    rng = random.Random(11)
    planned = refused = 0
    for _ in range(400):
        raw, tool_ids = _random_workflow(rng)
        doc = parser.parse_raw(raw)
        structural = [d for d in validator.validate(doc)
                      if d.code in _STRUCTURAL]
        job = {p.id: "job" for p in doc.body.inputs}
        try:
            graph = planner.plan(doc, job)
        except (PlanError, GraphCycleError) as exc:
            assert structural, (str(exc), raw)
            refused += 1
            continue
        assert not structural, (structural, raw)
        assert sorted(graph.nodes) == sorted(tool_ids)
        planned += 1
    assert planned > 50 and refused > 50  # both sides are exercised


SUB_DEFAULT = """\
cwlVersion: v1.2
class: Workflow
inputs: {}
outputs:
  out: {type: string, outputSource: sub/out}
steps:
  sub:
    in: {}
    run:
      cwlVersion: v1.2
      class: Workflow
      inputs:
        greeting: {type: string, default: hello}
        extra: string?
      outputs:
        out: {type: string, outputSource: say/out}
      steps:
        say:
          in: {msg: greeting, tail: extra}
          run:
            cwlVersion: v1.2
            class: CommandLineTool
            baseCommand: [echo]
            inputs:
              msg: {type: string, position: 1}
              tail: {type: "string?", position: 2}
            outputs:
              out: {type: string, glob: o.json}
"""


def test_unbound_sub_workflow_inputs_take_their_defaults():
    doc = _doc(SUB_DEFAULT)
    assert validator.validate(doc) == []
    graph = planner.plan(doc, {})
    assert graph.nodes["sub/say"].bindings == {"msg": ("lit", "hello"),
                                              "tail": ("lit", None)}
    required = _doc(SUB_DEFAULT.replace("{type: string, default: hello}",
                                        "string"))
    (diag,) = validator.validate(required)
    assert (diag.code, diag.location) == ("MissingBinding", "$/steps/sub/in")
    with pytest.raises(PlanError, match="required input 'greeting'"):
        planner.plan(required, {})


FILE_TOOL = """\
cwlVersion: v1.2
class: CommandLineTool
baseCommand: [cat]
inputs:
  f: {type: File, position: 1%s}
outputs:
  out: {type: File, capture: stdout}
stdout: out.txt
"""


@pytest.mark.parametrize("where", ["tool default", "step literal"])
def test_file_literals_are_refused(where):
    default = ", default: {class: File, path: data.txt}"
    tool = FILE_TOOL % (default if where == "tool default" else "")
    step_in = "{}" if where == "tool default" else \
        "{f: {default: {class: File, path: data.txt}}}"
    doc = _doc(f"""\
cwlVersion: v1.2
class: Workflow
inputs: {{}}
outputs:
  out: {{type: File, outputSource: show/out}}
steps:
  show:
    in: {step_in}
    run:
{textwrap.indent(tool, "      ")}
""")
    (diag,) = validator.validate(doc)
    assert (diag.code, diag.location) == ("UnsupportedFeature",
                                          "$/steps/show/in/f")
    assert "File literal" in diag.message
    with pytest.raises(PlanError, match="File literal"):
        planner.plan(doc, {})
