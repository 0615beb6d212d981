"""Planning: job order loading, the planned graph, scatter, readiness.

The walk that inlines sub-workflows and binds each step's inputs is
``validator.walk``, which checks the document in the same pass; ``plan``
adds only the check that needs the job order.  The planned graph is
static: node and edge sets are fixed here, and a run only reads them.  A
scattered step stays one graph node; its run-time expansion into shards
happens inside the scheduler and is invisible to the graph shape.
"""

from __future__ import annotations

import hashlib
import heapq
import os
from dataclasses import dataclass, field, replace
from typing import Optional

import yaml

from .errors import (
    GraphCycleError,
    JobOrderError,
    PlanError,
    ScatterLengthMismatchError,
)
from .expression import EvalContext, eval_guard
from .model import (
    Clause,
    DataType,
    Document,
    ToolDescription,
    WorkflowDescription,
)

# Task states.  The scheduler's records hold them, and a plain node's record
# moves only along _TRANSITIONS.
PENDING = "Pending"
READY = "Ready"
RUNNING = "Running"
SUCCEEDED = "Succeeded"
FAILED = "Failed"
SKIPPED = "Skipped"
CACHED = "Cached"

_TRANSITIONS = {
    PENDING: {READY, SKIPPED, FAILED},
    READY: {RUNNING, CACHED, SKIPPED, FAILED},
    RUNNING: {SUCCEEDED, FAILED, RUNNING, CACHED},
    SUCCEEDED: set(),
    FAILED: set(),
    SKIPPED: set(),
    CACHED: set(),
}


def file_checksum(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass(frozen=True)
class FileValue:
    """A staged data artifact; checksum and size captured at load time."""

    path: str
    basename: str
    size: int
    checksum: str
    format: Optional[str] = None

    @classmethod
    def from_path(cls, path: str, format: Optional[str] = None) -> "FileValue":
        path = os.path.abspath(path)
        if not os.path.isfile(path):
            raise JobOrderError(f"file does not exist: {path}")
        return cls(
            path=path,
            basename=os.path.basename(path),
            size=os.path.getsize(path),
            checksum=file_checksum(path),
            format=format,
        )

    def to_json(self, include_path: bool = True) -> dict:
        out = {
            "class": "File",
            "basename": self.basename,
            "size": self.size,
            "checksum": self.checksum,
        }
        if include_path:
            out["path"] = self.path
        if self.format is not None:
            out["format"] = self.format
        return out


def map_files(value, fn):
    """``value`` with every FileValue in it (at any list depth) replaced by
    ``fn(file_value)``; other values are returned as they are."""
    if isinstance(value, FileValue):
        return fn(value)
    if isinstance(value, list):
        return [map_files(v, fn) for v in value]
    return value


def value_to_json(value, include_path=True):
    return map_files(value, lambda fv: fv.to_json(include_path))


def _coerce_value(value, dtype: DataType, param_id: str, base_dir: str):
    if value is None:
        if dtype.optional:
            return None
        raise JobOrderError(f"input {param_id!r} is null but not optional")
    if dtype.array:
        if not isinstance(value, list):
            raise JobOrderError(f"input {param_id!r} must be an array")
        elem = dtype.element()
        return [_coerce_value(v, elem, param_id, base_dir) for v in value]
    base = dtype.base
    if base == "File":
        return _coerce_file(value, dtype, param_id, base_dir)
    if base == "string":
        if not isinstance(value, str):
            raise JobOrderError(f"input {param_id!r} must be a string")
        return value
    if base == "int":
        if not isinstance(value, int) or isinstance(value, bool):
            raise JobOrderError(f"input {param_id!r} must be an integer")
        return value
    if base == "float":
        if isinstance(value, int) and not isinstance(value, bool):
            return float(value)
        if not isinstance(value, float):
            raise JobOrderError(f"input {param_id!r} must be a float")
        return value
    if base == "boolean":
        if not isinstance(value, bool):
            raise JobOrderError(f"input {param_id!r} must be a boolean")
        return value
    if base == "null":
        raise JobOrderError(f"input {param_id!r} has type null; only null fits")
    raise JobOrderError(f"input {param_id!r}: unsupported base type {base}")


def _coerce_file(value, dtype, param_id, base_dir):
    if isinstance(value, FileValue):
        return value
    fmt = None
    if isinstance(value, dict):
        if value.get("class") != "File" or "path" not in value:
            raise JobOrderError(
                f"input {param_id!r}: File values need class File and a path")
        fmt = value.get("format")
        path = value["path"]
    elif isinstance(value, str):
        path = value
    else:
        raise JobOrderError(f"input {param_id!r} must name a file")
    if not os.path.isabs(path):
        path = os.path.join(base_dir, path)
    return FileValue.from_path(path, format=fmt)


def load_job_order(values: dict, wf, base_dir: str = ".") -> dict:
    """Coerce a raw job-order mapping against the workflow inputs.

    File paths resolve relative to ``base_dir`` and are checksummed now, so
    later staging can detect drift.
    """
    if not isinstance(values, dict):
        raise JobOrderError("job order must be a mapping")
    params = wf.input_map() if isinstance(wf, WorkflowDescription) else {
        p.id: p for p in wf.inputs}
    unknown = set(values) - set(params)
    if unknown:
        raise JobOrderError(f"unknown job inputs: {sorted(unknown)}")
    out = {}
    for param in params.values():
        if param.id in values:
            out[param.id] = _coerce_value(values[param.id], param.type,
                                          param.id, base_dir)
            fv = out[param.id]
            if isinstance(fv, FileValue):
                if fv.format is None and param.format is not None:
                    fv = replace(fv, format=param.format)
                out[param.id] = fv
        elif param.default is not None:
            out[param.id] = _coerce_value(param.default, param.type,
                                          param.id, base_dir)
        elif param.type.optional:
            out[param.id] = None
        else:
            raise JobOrderError(f"missing required workflow input {param.id!r}")
    return out


def load_job_order_file(path: str, wf) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh) or {}
    return load_job_order(raw, wf, base_dir=os.path.dirname(os.path.abspath(path)))


@dataclass(frozen=True)
class TaskNode:
    """One executable unit in the planned graph, which a run only reads:
    the state of each task is on the scheduler's records.

    ``bindings`` maps each tool input to either ``("lit", value)`` or
    ``("edge", (producer task id, output id))``.
    """

    id: str
    tool: ToolDescription
    bindings: dict
    scatter: tuple = ()
    guard: Optional[str] = None
    requirements: tuple = ()
    hints: tuple = ()
    layer: int = 0

    def clause(self, kind: str) -> Optional[Clause]:
        """Effective clause of a kind; step overrides win over tool clauses,
        requirements win over hints."""
        for group in (self.requirements, self.hints):
            for c in group:
                if c.kind == kind:
                    return c
        return None


@dataclass
class DataflowGraph:
    nodes: dict = field(default_factory=dict)
    edges: set = field(default_factory=set)  # ((ptid, out), (ctid, inp))
    workflow_outputs: dict = field(default_factory=dict)


def plan(doc: Document, job: dict) -> DataflowGraph:
    """Inline sub-workflows, bind inputs, and produce the static graph.

    Raises the walk's first structural finding: a cycle as GraphCycleError,
    any other as PlanError."""
    from .validator import STRUCTURAL, SupportMatrix, walk  # imports us
    if not doc.is_workflow:
        raise PlanError("plan requires a workflow document")
    input_bindings = {p.id: ("lit", job[p.id]) if p.id in job else
                      ("job", p.id) for p in doc.body.inputs}
    graph, diags = DataflowGraph(), []
    graph.workflow_outputs = walk(doc.body, SupportMatrix(), input_bindings,
                                  graph, diags)
    for d in diags:
        if d.code in STRUCTURAL:
            error = GraphCycleError if d.code == "CycleDetected" else PlanError
            raise error(f"{d.location}: {d.message}")
    for kind, ref in [*graph.workflow_outputs.values(),
                      *(b for node in graph.nodes.values()
                        for b in node.bindings.values())]:
        if kind == "job":
            raise PlanError(f"unresolvable source {ref!r}: not in the job")
    _assign_layers(graph)
    return graph


def toposort(ids, edges):
    """Kahn's algorithm over (producer, consumer) ``edges`` among ``ids``.

    Returns ``(order, rest)``: the ids in dependency order, ties going to the
    id given first, and the ids on or behind a cycle, in the given order.
    Iterative, so no depth of graph exhausts the stack."""
    ids = list(ids)
    position = {node: i for i, node in enumerate(ids)}
    consumers = {node: [] for node in ids}
    waiting = dict.fromkeys(ids, 0)
    for producer, consumer in edges:
        consumers[producer].append(consumer)
        waiting[consumer] += 1
    ready = [i for i, node in enumerate(ids) if not waiting[node]]
    order = []
    while ready:
        node = ids[heapq.heappop(ready)]
        order.append(node)
        for consumer in consumers[node]:
            waiting[consumer] -= 1
            if not waiting[consumer]:
                heapq.heappush(ready, position[consumer])
    placed = set(order)
    return order, [node for node in ids if node not in placed]


def step_dependency_edges(wf: WorkflowDescription):
    """Edges (producer step id, consumer step id) from data connections."""
    step_ids = set(wf.step_map())
    edges = set()
    for step in wf.steps:
        for _, binding in step.in_map:
            if binding.is_literal or "/" not in (binding.source or ""):
                continue
            producer = binding.source.split("/", 1)[0]
            if producer in step_ids:
                edges.add((producer, step.id))
    return edges


def _assign_layers(graph: DataflowGraph):
    """Layer of each node: 1 + the largest layer among its producers."""
    edges = {(ptid, ctid) for (ptid, _), (ctid, _) in graph.edges
             if ptid in graph.nodes and ctid in graph.nodes}
    producers = {tid: [] for tid in graph.nodes}
    for ptid, ctid in edges:
        producers[ctid].append(ptid)
    order, _ = toposort(graph.nodes, edges)
    for tid in order:
        graph.nodes[tid] = replace(graph.nodes[tid], layer=1 + max(
            (graph.nodes[p].layer for p in producers[tid]), default=-1))


def resolved_bindings(bindings: dict, published: dict) -> dict:
    """The value of each ``("lit", value)`` or ``("edge", key)`` binding; an
    edge whose producer has not published resolves to None."""
    return {k: b[1] if b[0] == "lit" else published.get(b[1])
            for k, b in bindings.items()}


def expand_scatter(node: TaskNode, bound: dict) -> list:
    """The inputs of each shard of a scattered node (dot-product
    semantics): ``bound`` with every scattered array replaced by its i-th
    element.  Width 0 is legal and yields no shards.
    """
    lengths = []
    for input_id in node.scatter:
        value = bound.get(input_id)
        if not isinstance(value, list):
            raise ScatterLengthMismatchError(
                f"scattered input {input_id!r} of {node.id} is not an array")
        lengths.append(len(value))
    if len(set(lengths)) > 1:
        detail = ", ".join(f"{i}={n}" for i, n in zip(node.scatter, lengths))
        raise ScatterLengthMismatchError(
            f"dot scatter over unequal lengths on {node.id}: {detail}")
    return [dict(bound, **dict(zip(node.scatter, values)))
            for values in zip(*(bound[k] for k in node.scatter))]


PROCEED = "proceed"
SKIP = "skip"


def apply_guard(node: TaskNode, ctx: EvalContext) -> str:
    """Evaluate the conditional guard once the inputs are bound."""
    if node.guard is None:
        return PROCEED
    return PROCEED if eval_guard(node.guard, ctx) else SKIP


def ready_set(graph: DataflowGraph, published: dict, candidates) -> set:
    """The ids among ``candidates``, nodes that have not started, whose
    incoming edges all carry published values."""
    return {tid for tid in candidates
            if all(b[1] in published for b in graph.nodes[tid].bindings.values()
                   if b[0] == "edge")}


def to_dot(graph: DataflowGraph) -> str:
    """DOT export: node labels carry the task id, edges the port pair."""
    lines = ["digraph workflow {"]
    for tid in sorted(graph.nodes):
        node = graph.nodes[tid]
        label = tid
        if node.scatter:
            label += "\\nscatter"
        lines.append(f'  "{tid}" [label="{label}"];')
    for (ptid, out), (ctid, inp) in sorted(graph.edges):
        lines.append(f'  "{ptid}" -> "{ctid}" [label="{out}→{inp}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
