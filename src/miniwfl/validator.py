"""Static checks over resolved documents, and the one walk over a workflow.

All problems are reported as diagnostics; validation never stops at the
first finding.  Unsupported requirements are errors, unsupported hints only
warnings — an engine may ignore advice but must refuse what it cannot honor.

This module owns the walk over a workflow's steps: ``walk`` emits the
diagnostics and builds the planned graph in the same pass, so ``validate``
and ``planner.plan`` accept the same documents.
"""

from __future__ import annotations

import json

from . import model
from .errors import ExprSyntaxError
from .expression import parse_expr
from .model import (
    Clause,
    DataType,
    Document,
    Machine,
    Record,
    ToolDescription,
    WorkflowDescription,
)
from .planner import DataflowGraph, TaskNode, step_dependency_edges, toposort

ERROR = "error"
WARNING = "warning"

# The findings that leave no graph to run; planner.plan raises the first.
STRUCTURAL = frozenset({"DanglingReference", "MissingBinding",
                        "UnsupportedFeature", "CycleDetected"})

# The binding of a value that a finding already explains, or that
# validation has no job for.
_UNRESOLVED = ("lit", None)


class Diagnostic(Record):
    severity: str
    code: str
    location: str
    message: str

    def to_json_line(self) -> str:
        return json.dumps({name: getattr(self, name) for name in self.fields},
                          sort_keys=True)


def _err(code, location, message):
    return Diagnostic(ERROR, code, location, message)


def _warn(code, location, message):
    return Diagnostic(WARNING, code, location, message)


def _clause_name(clause: Clause) -> str:
    if clause.kind == model.CLAUSE_EXTENSION:
        return str(clause.payload.get("class", "Extension"))
    return clause.kind


def _check_clauses(requirements, hints, machine: Machine, location: str):
    out = []
    for clause in requirements:
        if clause.kind not in model.KNOWN_CLAUSE_KINDS:
            out.append(_err("UnsupportedRequirement", location,
                            f"cannot execute requirement {_clause_name(clause)}"))
        out.extend(_check_resources(clause, machine, location))
    for clause in hints:
        if clause.kind not in model.KNOWN_CLAUSE_KINDS:
            out.append(_warn("UnsupportedRequirement", location,
                             f"ignoring hint {_clause_name(clause)}"))
        else:
            out.extend(_check_resources(clause, machine, location))
    return out


def _check_resources(clause: Clause, machine: Machine, location: str):
    if clause.kind != model.CLAUSE_RESOURCE:
        return []
    out = []
    for key, cap in machine.capacity.items():
        value = clause.payload.get(key)
        if isinstance(value, int) and value > cap:
            out.append(_err(
                "ResourceUnsatisfiable", location,
                f"{key}={value} exceeds machine capacity {cap}"))
    return out


def _check_types(body, location: str):
    """Directory parses, but nothing runs it: the planner loads no
    Directory value and the runtime collects none."""
    return [_err("UnsupportedType", f"{location}/{side}s/{p.id}",
                 f"{side} {p.id!r}: unsupported base type {p.type.base}")
            for side, params in (("input", body.inputs),
                                 ("output", body.outputs))
            for p in params if p.type.base == "Directory"]


def _assignable(src: DataType, sink: DataType) -> bool:
    """T -> T; T -> T?; optionality never drops silently."""
    if src.base != sink.base or src.array != sink.array:
        return False
    if src.optional and not sink.optional:
        return False
    return True


def check_acyclic(wf: WorkflowDescription, location: str = "steps"):
    """Empty iff the step-dependency relation is a DAG."""
    edges = step_dependency_edges(wf)
    _, rest = toposort((s.id for s in wf.steps), edges)
    if not rest:
        return []
    # Every left-over step has a left-over producer, so walking producers
    # back from any of them must repeat a step; the repeat closes a cycle.
    left = set(rest)
    producer = {}
    for a, b in sorted(edges):
        if a in left:
            producer.setdefault(b, a)
    seen = {}  # step -> position in the walk
    node = rest[0]
    while node not in seen:
        seen[node] = len(seen)
        node = producer[node]
    # the walk runs against the dataflow, so the cycle reads it backwards
    cycle = [node] + list(seen)[seen[node] + 1:][::-1] + [node]
    return [_err("CycleDetected", location,
                 "dependency cycle: " + " -> ".join(cycle))]


def validate(doc: Document, machine: Machine = None):
    """All diagnostics for a resolved document, with resource minima
    checked against ``machine`` (by default ``Machine()``); never raises on
    findings."""
    machine = machine or Machine()
    diags = []
    if doc.version not in model.SUPPORTED_VERSIONS:
        diags.append(_err("UnsupportedVersion", "$",
                          f"version {doc.version} is not supported"))

    body = doc.body
    diags.extend(_check_types(body, "$"))
    if isinstance(body, ToolDescription):
        diags.extend(_check_clauses(body.requirements, body.hints, machine,
                                    "$"))
        return diags

    walk(body, machine, {p.id: _UNRESOLVED for p in body.inputs},
         DataflowGraph(), diags)
    return diags


def walk(wf: WorkflowDescription, machine: Machine, input_bindings: dict,
         graph: DataflowGraph, diags: list, location="$", prefix="") -> dict:
    """Check and plan each step of ``wf`` once, in dependency order (steps
    on a cycle last), inlining sub-workflows under ``prefix``: findings go
    to ``diags``, task nodes and edges to ``graph``, each node with its
    layer: 1 + the largest among its producers, all placed before it.
    Returns the binding of each workflow output.

    ``input_bindings`` maps each workflow input id to its binding.  The
    graph is sound only when no diagnostic is STRUCTURAL."""
    steps = wf.step_map()
    inputs = wf.input_map()
    published = {}  # (step id, output id) -> binding

    def source(ref, loc):
        """``(type, format, binding)`` of a source reference, or None after
        a diagnostic (or for a step whose unresolved run is reported)."""
        if "/" not in ref:
            param = inputs.get(ref)
            if param is None:
                diags.append(_err(
                    "DanglingReference", loc,
                    f"source {ref!r} names no workflow input or step output"))
                return None
            return param.type, param.format, input_bindings[ref]
        step_id, out_id = ref.split("/", 1)
        step = steps.get(step_id)
        if step is None:
            diags.append(_err("DanglingReference", loc,
                              f"source {ref!r}: no step named {step_id!r}"))
            return None
        if not isinstance(step.run, Document):
            return None
        out_param = step.run.body.output_map().get(out_id)
        if out_param is None:
            diags.append(_err(
                "DanglingReference", loc,
                f"source {ref!r}: step {step_id!r} has no output {out_id!r}"))
            return None
        dtype = out_param.type
        if step.scatter:
            dtype = DataType(dtype.base, True, False)
        if step.when is not None:
            dtype = DataType(dtype.base, dtype.array, True)
        # a producer on a cycle may come later; the cycle is reported
        return (dtype, out_param.format,
                published.get((step_id, out_id), _UNRESOLVED))

    def literal(value, sink, loc):
        if sink.type.base == "File" and value not in (None, []):
            diags.append(_err(
                "UnsupportedFeature", loc,
                f"File literal for input {sink.id!r} is not supported; "
                f"bind it from a workflow input"))
        return ("lit", value)

    order, rest = toposort(steps, step_dependency_edges(wf))
    for step_id in order + rest:
        step = steps[step_id]
        step_loc = f"{location}/steps/{step_id}"
        body = step.run.body if isinstance(step.run, Document) else None
        if body is not None:
            requirements = step.requirements + getattr(body, "requirements", ())
            hints = step.hints + getattr(body, "hints", ())
            diags.extend(_check_clauses(requirements, hints, machine,
                                        step_loc))
            diags.extend(_check_types(body, f"{step_loc}/run"))
        if step.when is not None:
            try:
                parse_expr(step.when)
            except ExprSyntaxError as exc:
                diags.append(_err("InvalidExpression", f"{step_loc}/when",
                                  str(exc)))
        if body is None:
            diags.append(_err("DanglingReference", step_loc,
                              f"step {step_id!r} has an unresolved run "
                              f"reference"))
            continue

        sink_params = body.input_map()
        bound = {}
        for input_id, binding in step.in_map:
            sink = sink_params.get(input_id)
            loc = f"{step_loc}/in/{input_id}"
            if sink is None:
                diags.append(_err("DanglingReference", loc,
                                  f"step {step_id!r} binds unknown input "
                                  f"{input_id!r}"))
                continue
            if binding.is_literal:
                bound[input_id] = literal(binding.value, sink, loc)
                continue
            found = source(binding.source, loc)
            if found is None:
                bound[input_id] = _UNRESOLVED
                continue
            src_type, src_format, bound[input_id] = found
            sink_type = sink.type
            if input_id in step.scatter:
                if not (src_type.array and _assignable(src_type.element(),
                                                       sink_type)):
                    diags.append(_err(
                        "TypeMismatch", loc,
                        f"scattered input needs array of "
                        f"{sink_type.to_string()}, got {src_type.to_string()}"))
                continue
            if not _assignable(src_type, sink_type):
                diags.append(_err(
                    "TypeMismatch", loc,
                    f"{src_type.to_string()} is not assignable to "
                    f"{sink_type.to_string()}"))
                continue
            if (src_format is not None and sink.format is not None
                    and src_format != sink.format):
                diags.append(_err(
                    "FormatMismatch", loc,
                    f"source format {src_format!r} != sink format "
                    f"{sink.format!r}"))

        # an unbound input of a tool or a sub-workflow: its default, else
        # None when optional, else a finding
        for param in body.inputs:
            if param.id in bound:
                continue
            if param.default is not None:
                bound[param.id] = literal(param.default, param,
                                          f"{step_loc}/in/{param.id}")
            elif param.type.optional:
                bound[param.id] = ("lit", None)
            else:
                diags.append(_err("MissingBinding", f"{step_loc}/in",
                                  f"required input {param.id!r} of step "
                                  f"{step_id!r} is unbound"))
                bound[param.id] = _UNRESOLVED

        task_id = prefix + step_id
        if isinstance(body, WorkflowDescription):
            for what in ("scatter", "when"):
                if getattr(step, what):
                    diags.append(_err(
                        "UnsupportedFeature", step_loc,
                        f"{what} on a sub-workflow step is not supported"))
            sub_outputs = walk(body, machine, bound, graph, diags,
                               f"{step_loc}/run", task_id + "/")
            published.update(((step_id, out_id), binding)
                             for out_id, binding in sub_outputs.items())
            continue
        edges = [(binding[1], (task_id, input_id))
                 for input_id, binding in bound.items() if binding[0] == "edge"]
        graph.nodes[task_id] = TaskNode(
            id=task_id, tool=body, bindings=bound, scatter=step.scatter,
            guard=step.when, requirements=requirements, hints=hints,
            layer=1 + max((graph.nodes[producer].layer
                           for (producer, _), _ in edges), default=-1))
        graph.edges.update(edges)
        published.update(((step_id, out.id), ("edge", (task_id, out.id)))
                         for out in body.outputs)

    outputs = {}
    for out in wf.outputs:
        loc = f"{location}/outputs/{out.id}"
        found = source(out.output_source, loc)
        if found is None:
            outputs[out.id] = _UNRESOLVED
            continue
        src_type, src_format, outputs[out.id] = found
        if not _assignable(src_type, out.type):
            diags.append(_err(
                "TypeMismatch", loc,
                f"{src_type.to_string()} is not assignable to "
                f"{out.type.to_string()}"))
        if (src_format is not None and out.format is not None
                and src_format != out.format):
            diags.append(_err("FormatMismatch", loc,
                              f"source format {src_format!r} != output format "
                              f"{out.format!r}"))

    if rest:
        diags.extend(check_acyclic(wf, f"{location}/steps"))
    return outputs


def has_errors(diags) -> bool:
    return any(d.severity == ERROR for d in diags)
