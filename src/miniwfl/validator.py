"""Static checks over resolved documents.

All problems are reported as diagnostics; validation never stops at the
first finding.  Unsupported requirements are errors, unsupported hints only
warnings — an engine may ignore advice but must refuse what it cannot honor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import model
from .errors import ExprSyntaxError
from .expression import parse_expr
from .model import (
    Clause,
    DataType,
    Document,
    Machine,
    Step,
    ToolDescription,
    WorkflowDescription,
)
from .planner import step_dependency_edges, toposort

ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    severity: str
    code: str
    location: str
    message: str

    def to_json_line(self) -> str:
        return json.dumps({
            "severity": self.severity,
            "code": self.code,
            "location": self.location,
            "message": self.message,
        }, sort_keys=True)


@dataclass(frozen=True)
class SupportMatrix:
    """What this engine instance can execute."""

    supported_requirement_kinds: frozenset = frozenset(model.KNOWN_CLAUSE_KINDS)
    supported_versions: frozenset = frozenset(model.SUPPORTED_VERSIONS)
    machine: Machine = field(default_factory=Machine)


def _err(code, location, message):
    return Diagnostic(ERROR, code, location, message)


def _warn(code, location, message):
    return Diagnostic(WARNING, code, location, message)


def _clause_name(clause: Clause) -> str:
    if clause.kind == model.CLAUSE_EXTENSION:
        return str(clause.payload.get("class", "Extension"))
    return clause.kind


def _check_clauses(requirements, hints, matrix: SupportMatrix, location: str):
    out = []
    for clause in requirements:
        if clause.kind not in matrix.supported_requirement_kinds:
            out.append(_err("UnsupportedRequirement", location,
                            f"cannot execute requirement {_clause_name(clause)}"))
        out.extend(_check_resources(clause, matrix, location))
    for clause in hints:
        if clause.kind not in matrix.supported_requirement_kinds:
            out.append(_warn("UnsupportedRequirement", location,
                             f"ignoring hint {_clause_name(clause)}"))
        else:
            out.extend(_check_resources(clause, matrix, location))
    return out


def _check_resources(clause: Clause, matrix: SupportMatrix, location: str):
    if clause.kind != model.CLAUSE_RESOURCE:
        return []
    out = []
    for key, cap in matrix.machine.capacity.items():
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


def _run_body(step: Step):
    if isinstance(step.run, Document):
        return step.run.body
    return None


def _source_type(ref: str, steps: dict, inputs: dict, conditional_steps,
                 location: str, diags):
    """Type of a source reference, or None after emitting a diagnostic.

    ``steps`` and ``inputs`` are the workflow's step and input maps."""
    if "/" in ref:
        step_id, out_id = ref.split("/", 1)
        step = steps.get(step_id)
        if step is None:
            diags.append(_err("DanglingReference", location,
                              f"source {ref!r}: no step named {step_id!r}"))
            return None, None
        body = _run_body(step)
        if body is None:
            return None, None  # unresolved run reported separately
        out_param = body.output_map().get(out_id)
        if out_param is None:
            diags.append(_err("DanglingReference", location,
                              f"source {ref!r}: step {step_id!r} has no output {out_id!r}"))
            return None, None
        dtype = out_param.type
        if step.scatter:
            dtype = DataType(dtype.base, True, False)
        if step.id in conditional_steps:
            dtype = DataType(dtype.base, dtype.array, True)
        return dtype, out_param.format
    param = inputs.get(ref)
    if param is None:
        diags.append(_err("DanglingReference", location,
                          f"source {ref!r} names no workflow input or step output"))
        return None, None
    return param.type, param.format


def _check_step_connections(step: Step, steps: dict, inputs: dict, diags,
                            conditional_steps, location):
    body = _run_body(step)
    if body is None:
        diags.append(_err("DanglingReference", location,
                          f"step {step.id!r} has an unresolved run reference"))
        return
    sink_params = body.input_map()

    bound = set()
    for input_id, binding in step.in_map:
        bound.add(input_id)
        sink = sink_params.get(input_id)
        loc = f"{location}/in/{input_id}"
        if sink is None:
            diags.append(_err("DanglingReference", loc,
                              f"step {step.id!r} binds unknown input {input_id!r}"))
            continue
        if binding.is_literal:
            continue
        src_type, src_format = _source_type(binding.source, steps, inputs,
                                            conditional_steps, loc, diags)
        if src_type is None:
            continue
        sink_type = sink.type
        if input_id in step.scatter:
            if not (src_type.array and _assignable(src_type.element(),
                                                   sink_type)):
                diags.append(_err(
                    "TypeMismatch", loc,
                    f"scattered input needs array of {sink_type.to_string()}, "
                    f"got {src_type.to_string()}"))
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
                f"source format {src_format!r} != sink format {sink.format!r}"))

    for param in sink_params.values():
        if param.id in bound:
            continue
        if param.type.optional or param.has_default:
            continue
        diags.append(_err("MissingBinding", f"{location}/in",
                          f"required input {param.id!r} of step {step.id!r} "
                          f"is unbound"))


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


def validate(doc: Document, matrix: SupportMatrix = None, location: str = "$"):
    """All diagnostics for a resolved document; never raises on findings."""
    if matrix is None:
        matrix = SupportMatrix()
    diags = []
    if doc.version not in matrix.supported_versions:
        diags.append(_err("UnsupportedVersion", location,
                          f"version {doc.version} is not supported"))

    body = doc.body
    diags.extend(_check_types(body, location))
    if isinstance(body, ToolDescription):
        diags.extend(_check_clauses(body.requirements, body.hints, matrix,
                                    location))
        return diags

    diags.extend(_validate_workflow(body, matrix, location))
    return diags


def _validate_workflow(wf: WorkflowDescription, matrix, location):
    diags = []
    steps = wf.step_map()
    inputs = wf.input_map()
    conditional_steps = {s.id for s in wf.steps if s.when is not None}

    for step in wf.steps:
        step_loc = f"{location}/steps/{step.id}"
        body = _run_body(step)
        if body is not None:
            requirements = step.requirements + getattr(body, "requirements", ())
            hints = step.hints + getattr(body, "hints", ())
            diags.extend(_check_clauses(requirements, hints, matrix, step_loc))
            diags.extend(_check_types(body, f"{step_loc}/run"))
        if step.when is not None:
            try:
                parse_expr(step.when)
            except ExprSyntaxError as exc:
                diags.append(_err("InvalidExpression", f"{step_loc}/when",
                                  str(exc)))
        _check_step_connections(step, steps, inputs, diags, conditional_steps,
                                step_loc)
        if isinstance(body, WorkflowDescription):
            for what in ("scatter", "when"):  # as the planner refuses them
                if getattr(step, what):
                    diags.append(_err(
                        "UnsupportedFeature", step_loc,
                        f"{what} on a sub-workflow step is not supported"))
            diags.extend(_validate_workflow(step.run.body, matrix,
                                            f"{step_loc}/run"))

    for out in wf.outputs:
        loc = f"{location}/outputs/{out.id}"
        src_type, src_format = _source_type(out.output_source, steps, inputs,
                                            conditional_steps, loc, diags)
        if src_type is not None and not _assignable(src_type, out.type):
            diags.append(_err(
                "TypeMismatch", loc,
                f"{src_type.to_string()} is not assignable to "
                f"{out.type.to_string()}"))
        if (src_format is not None and out.format is not None
                and src_format != out.format):
            diags.append(_err("FormatMismatch", loc,
                              f"source format {src_format!r} != output format "
                              f"{out.format!r}"))

    diags.extend(check_acyclic(wf, f"{location}/steps"))
    return diags


def has_errors(diags) -> bool:
    return any(d.severity == ERROR for d in diags)
