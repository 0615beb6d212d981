"""Parsing, normalization, canonical serialization, and reference resolution.

The surface syntax is YAML (JSON being an acceptable subset).  All shorthand
forms are normalized at parse time — map-form parameter blocks become sorted
lists, bare type strings become structured types — so downstream code sees a
single shape.  The canonical form is every model field under its document
key, with defaults left out; serialized as JSON with sorted keys and no
insignificant whitespace, it is what the document digest hashes (SHA-256).
"""

from __future__ import annotations

import hashlib
import json
import os

import yaml

from . import model
from .errors import (
    DocumentSyntaxError,
    IncludeCycleError,
    NotFoundError,
    SchemaError,
)
from .model import (
    Binding,
    Clause,
    DataType,
    Document,
    InputParameter,
    OutputParameter,
    Step,
    ToolDescription,
    WorkflowDescription,
)

# libyaml's safe loader where PyYAML was built with it, else the pure one
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_METADATA_KEYS = ("author", "doc", "label")

_TOOL_KEYS = {
    "cwlVersion", "class", "baseCommand", "inputs", "outputs",
    "requirements", "hints", "stdin", "stdout", "stderr", "successCodes",
}
_WORKFLOW_KEYS = {
    "cwlVersion", "class", "inputs", "outputs", "steps",
    "requirements", "hints",
}
_TOOL_INPUT_KEYS = {"id", "type", "position", "prefix", "default", "format", "streamable"}
_WF_INPUT_KEYS = {"id", "type", "default", "format", "streamable"}
_TOOL_OUTPUT_KEYS = {"id", "type", "glob", "capture", "format"}
_WF_OUTPUT_KEYS = {"id", "type", "outputSource", "format"}
_STEP_KEYS = {"id", "run", "in", "out", "scatter", "when", "requirements", "hints"}

_KIND_TO_CLASS = {v: k for k, v in model.CLAUSE_CLASS_MAP.items()}


def _is_namespaced(key: str) -> bool:
    return ":" in key and not key.startswith(":") and not key.endswith(":")


def _check_keys(mapping: dict, allowed: set, where: str):
    """Unknown keys must be namespaced; returns the namespaced extras."""
    extras = {}
    for key in mapping:
        if key in allowed or key in _METADATA_KEYS:
            continue
        if _is_namespaced(key):
            extras[key] = mapping[key]
        else:
            raise SchemaError(f"unknown key {key!r} in {where}")
    return extras


def _is_int(value) -> bool:
    """Whether ``value`` is an integer and not a boolean, which YAML's
    ``true`` loads as and Python counts as one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require_identifier(name, where):
    if not isinstance(name, str) or not model.is_identifier(name):
        raise SchemaError(f"invalid identifier {name!r} in {where}")


def _version_index(version: str) -> int:
    try:
        return model.SUPPORTED_VERSIONS.index(version)
    except ValueError:
        raise SchemaError(f"unsupported version {version!r}") from None


def parse_document(text: str, base_uri: str = "") -> Document:
    """Parse YAML/JSON document text into an immutable, normalized Document."""
    try:
        raw = yaml.load(text, Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        raise DocumentSyntaxError(f"malformed document: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError("document root must be a mapping")
    return parse_raw(raw, base_uri)


def parse_raw(raw: dict, base_uri: str = "") -> Document:
    version = raw.get("cwlVersion")
    if version is None:
        raise SchemaError("missing cwlVersion")
    if not isinstance(version, str):
        raise SchemaError("cwlVersion must be a string")
    _version_index(version)

    cls = raw.get("class")
    if cls == "CommandLineTool":
        extras = _check_keys(raw, _TOOL_KEYS, "tool document")
        body = _parse_tool(raw, version)
    elif cls == "Workflow":
        extras = _check_keys(raw, _WORKFLOW_KEYS, "workflow document")
        body = _parse_workflow(raw, version, base_uri)
    else:
        raise SchemaError(f"unknown document class {cls!r}")

    metadata = tuple(
        (k, raw[k]) for k in _METADATA_KEYS if k in raw and raw[k] is not None
    )
    extensions = tuple(sorted(extras.items()))
    return Document(version=version, body=body, extensions=extensions,
                    metadata=metadata)


def _parse_type(value, where) -> DataType:
    if isinstance(value, str):
        return DataType.parse(value)
    raise SchemaError(f"type must be a string in {where}")


def _normalize_params(block, where):
    """Map-form {id: spec} or list-form [{id: ..., ...}] -> list of dicts."""
    if block is None:
        return []
    items = []
    if isinstance(block, dict):
        for key, spec in block.items():
            if isinstance(spec, str):
                spec = {"type": spec}
            elif spec is None:
                spec = {}
            elif not isinstance(spec, dict):
                raise SchemaError(f"bad parameter spec for {key!r} in {where}")
            else:
                spec = dict(spec)
            spec["id"] = key
            items.append(spec)
    elif isinstance(block, list):
        for spec in block:
            if not isinstance(spec, dict):
                raise SchemaError(f"bad parameter entry in {where}")
            items.append(dict(spec))
    else:
        raise SchemaError(f"{where} must be a map or a list")
    for spec in items:
        _require_identifier(spec.get("id"), where)
    ids = [spec["id"] for spec in items]
    if len(ids) != len(set(ids)):
        dup = sorted({i for i in ids if ids.count(i) > 1})
        raise SchemaError(f"duplicate ids {dup} in {where}")
    return sorted(items, key=lambda s: s["id"])


def _parse_input(spec: dict, where: str, tool: bool) -> InputParameter:
    allowed = _TOOL_INPUT_KEYS if tool else _WF_INPUT_KEYS
    _check_keys(spec, allowed, where)
    if "type" not in spec:
        raise SchemaError(f"input {spec['id']!r} has no type")
    dtype = _parse_type(spec["type"], where)
    streamable = bool(spec.get("streamable", False))
    if streamable and dtype.base != "File":
        raise SchemaError(f"streamable input {spec['id']!r} must be of File type")
    position = spec.get("position")
    if position is not None and not _is_int(position):
        raise SchemaError(f"position of {spec['id']!r} must be an integer")
    return InputParameter(
        id=spec["id"],
        type=dtype,
        position=position,
        prefix=spec.get("prefix"),
        default=spec.get("default"),
        format=spec.get("format"),
        streamable=streamable,
    )


def _parse_output(spec: dict, where: str, tool: bool) -> OutputParameter:
    allowed = _TOOL_OUTPUT_KEYS if tool else _WF_OUTPUT_KEYS
    _check_keys(spec, allowed, where)
    if "type" not in spec:
        raise SchemaError(f"output {spec['id']!r} has no type")
    dtype = _parse_type(spec["type"], where)
    glob = spec.get("glob")
    capture = spec.get("capture")
    if tool:
        if capture is not None:
            if capture not in ("stdout", "stderr"):
                raise SchemaError(
                    f"output {spec['id']!r}: capture must be stdout or stderr")
            if dtype.base != "File" or dtype.array:
                raise SchemaError(
                    f"output {spec['id']!r}: capture outputs must be File-typed")
        if (glob is None) == (capture is None):
            raise SchemaError(
                f"tool output {spec['id']!r} needs exactly one of glob/capture")
        if glob is not None:
            _check_outdir_name(f"output {spec['id']!r}: glob", glob,
                               pattern=True)
    else:
        if spec.get("outputSource") is None:
            raise SchemaError(
                f"workflow output {spec['id']!r} needs an outputSource")
    return OutputParameter(
        id=spec["id"],
        type=dtype,
        glob=glob,
        output_source=spec.get("outputSource"),
        capture=capture,
        format=spec.get("format"),
    )


def _check_outdir_name(what: str, value, pattern: bool = False):
    """Refuse a name that could leave the output directory.  A name is one
    entry of it: no ``/`` and not ``""``, ``.`` or ``..``.  A glob
    ``pattern`` is a relative path with no ``..`` component.  Neither
    holds NUL."""
    if not isinstance(value, str):
        raise SchemaError(f"{what} must be a string")
    if pattern:
        escapes = value.startswith("/") or ".." in value.split("/")
    else:
        escapes = "/" in value or value in ("", ".", "..")
    if escapes or "\0" in value:
        raise SchemaError(
            f"{what} must name a file in the output directory, not {value!r}")


def _normalize_clauses(block, where: str, version: str):
    if block is None:
        return ()
    entries = []
    if isinstance(block, dict):
        for cls, payload in block.items():
            entry = dict(payload) if isinstance(payload, dict) else {}
            entry["class"] = cls
            entries.append(entry)
    elif isinstance(block, list):
        for entry in block:
            if not isinstance(entry, dict) or "class" not in entry:
                raise SchemaError(f"clause without class in {where}")
            entries.append(dict(entry))
    else:
        raise SchemaError(f"{where} must be a map or a list")

    clauses = []
    for entry in entries:
        cls = entry.pop("class")
        kind = model.CLAUSE_CLASS_MAP.get(cls)
        if kind == model.CLAUSE_WORK_REUSE and _version_index(version) < 1:
            raise SchemaError(
                f"WorkReuse requires v1.1 or later (document is {version})")
        if kind is None:
            payload = dict(entry)
            payload["class"] = cls
            clauses.append(Clause(model.CLAUSE_EXTENSION, payload))
            continue
        _validate_clause_payload(kind, entry, where)
        clauses.append(Clause(kind, dict(entry)))
    clauses.sort(key=lambda c: (c.kind, _canonical_json(c.payload)))
    return tuple(clauses)


_RESOURCE_KEYS = (*model.RESOURCE_DEFAULTS, "wallTimeMax")


def _validate_clause_payload(kind: str, payload: dict, where: str):
    if kind == model.CLAUSE_CONTAINER:
        image = payload.get("image") or payload.get("dockerPull")
        if not image or not isinstance(image, str):
            raise SchemaError(f"Container clause without image in {where}")
        payload.pop("dockerPull", None)
        payload["image"] = image
    elif kind == model.CLAUSE_RESOURCE:
        for key in list(payload):
            if key not in _RESOURCE_KEYS:
                raise SchemaError(f"unknown resource field {key!r} in {where}")
            value = payload[key]
            if _is_int(value):
                if value < 0:
                    raise SchemaError(f"negative resource {key} in {where}")
            elif not isinstance(value, str):
                raise SchemaError(f"resource {key} must be int or expression")
    elif kind == model.CLAUSE_ENV:
        env = payload.get("envDef")
        if not isinstance(env, dict) or not all(
                isinstance(k, str) and isinstance(v, str) for k, v in env.items()):
            raise SchemaError(f"EnvVars clause needs envDef map in {where}")
    elif kind == model.CLAUSE_INITIAL_WORKDIR:
        listing = payload.get("listing")
        if not isinstance(listing, list):
            raise SchemaError(f"InitialWorkDir clause needs a listing in {where}")
        for item in listing:
            if not isinstance(item, dict) or "entry" not in item:
                raise SchemaError(f"bad InitialWorkDir entry in {where}")
            if item.get("entryname") is not None:
                _check_outdir_name(f"entryname in {where}", item["entryname"])
    elif kind == model.CLAUSE_WORK_REUSE:
        if not isinstance(payload.get("enableReuse", True), bool):
            raise SchemaError(f"WorkReuse enableReuse must be boolean in {where}")


def _parse_tool(raw: dict, version: str) -> ToolDescription:
    base = raw.get("baseCommand", [])
    if isinstance(base, str):
        base = [base]
    if not isinstance(base, list) or not all(isinstance(t, str) for t in base):
        raise SchemaError("baseCommand must be a string or list of strings")

    inputs = tuple(
        _parse_input(s, "tool inputs", tool=True)
        for s in _normalize_params(raw.get("inputs"), "tool inputs"))
    outputs = tuple(
        _parse_output(s, "tool outputs", tool=True)
        for s in _normalize_params(raw.get("outputs"), "tool outputs"))

    codes = raw.get("successCodes")
    if codes is None:
        success = frozenset({0})
    else:
        if not isinstance(codes, list) or not all(map(_is_int, codes)):
            raise SchemaError("successCodes must be a list of integers")
        success = frozenset(codes)

    if raw.get("stdin") is not None and not isinstance(raw["stdin"], str):
        raise SchemaError("stdin must be a string")
    for name in ("stdout", "stderr"):  # written in the output directory
        if raw.get(name) is not None:
            _check_outdir_name(name, raw[name])

    return ToolDescription(
        base_command=tuple(base),
        inputs=inputs,
        outputs=outputs,
        requirements=_normalize_clauses(raw.get("requirements"),
                                        "tool requirements", version),
        hints=_normalize_clauses(raw.get("hints"), "tool hints", version),
        stdin=raw.get("stdin"),
        stdout=raw.get("stdout"),
        stderr=raw.get("stderr"),
        success_codes=success,
    )


def _parse_step_in(block, step_id: str):
    if block is None:
        return ()
    if not isinstance(block, dict):
        raise SchemaError(f"step {step_id!r}: 'in' must be a map")
    out = []
    for key, value in block.items():
        _require_identifier(key, f"step {step_id!r} in")
        if isinstance(value, str):
            binding = Binding(source=value)
        elif isinstance(value, dict):
            if set(value) == {"source"}:
                binding = Binding(source=value["source"])
            elif set(value) == {"default"}:
                binding = Binding(value=value["default"], is_literal=True)
            else:
                raise SchemaError(
                    f"step {step_id!r} input {key!r}: expected source or default")
        else:
            binding = Binding(value=value, is_literal=True)
        out.append((key, binding))
    out.sort(key=lambda kv: kv[0])
    return tuple(out)


def _parse_step(spec: dict, version: str, base_uri: str) -> Step:
    _check_keys(spec, _STEP_KEYS, f"step {spec.get('id')!r}")
    step_id = spec["id"]
    run = spec.get("run")
    if isinstance(run, dict):
        run = parse_raw(run, base_uri)
    elif not isinstance(run, str) or not run:
        raise SchemaError(f"step {step_id!r} needs a run reference or inline document")

    in_map = _parse_step_in(spec.get("in"), step_id)
    in_ids = {k for k, _ in in_map}

    scatter = spec.get("scatter", [])
    if isinstance(scatter, str):
        scatter = [scatter]
    if not isinstance(scatter, list) or not all(isinstance(s, str) for s in scatter):
        raise SchemaError(f"step {step_id!r}: scatter must name step inputs")
    if not set(scatter) <= in_ids:
        raise SchemaError(f"step {step_id!r}: scatter ids must be bound in 'in'")

    when = spec.get("when")
    if when is not None:
        if not isinstance(when, str):
            raise SchemaError(f"step {step_id!r}: when must be an expression string")
        if _version_index(version) < 2:
            raise SchemaError(
                f"conditional steps require v1.2 (document is {version})")

    out_decl = spec.get("out")
    if out_decl is not None and not isinstance(out_decl, list):
        raise SchemaError(f"step {step_id!r}: out must be a list")

    return Step(
        id=step_id,
        run=run,
        in_map=in_map,
        scatter=tuple(scatter),
        when=when,
        requirements=_normalize_clauses(spec.get("requirements"),
                                        f"step {step_id!r} requirements", version),
        hints=_normalize_clauses(spec.get("hints"),
                                 f"step {step_id!r} hints", version),
    )


def _parse_workflow(raw: dict, version: str, base_uri: str) -> WorkflowDescription:
    inputs = tuple(
        _parse_input(s, "workflow inputs", tool=False)
        for s in _normalize_params(raw.get("inputs"), "workflow inputs"))
    outputs = tuple(
        _parse_output(s, "workflow outputs", tool=False)
        for s in _normalize_params(raw.get("outputs"), "workflow outputs"))
    steps = tuple(
        _parse_step(s, version, base_uri)
        for s in _normalize_params(raw.get("steps"), "workflow steps"))
    return WorkflowDescription(inputs=inputs, outputs=outputs, steps=steps)


# --- reference resolution ---------------------------------------------------

def load(path: str, _chain=()) -> Document:
    """Read and parse the document at ``path``, with every external
    step.run reference replaced by its loaded document.  A file that cannot
    be read raises NotFoundError; one that is not UTF-8 YAML of a mapping,
    DocumentSyntaxError.  A document may not include itself transitively."""
    path = os.path.abspath(path)
    if path in _chain:
        raise IncludeCycleError(" -> ".join((*_chain, path)))
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
    except OSError as exc:
        raise NotFoundError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise DocumentSyntaxError(f"{path} is not UTF-8: {exc}") from exc
    return resolve_references(parse_document(text, base_uri=path),
                              base_uri=path, _chain=(*_chain, path))


def resolve_references(doc: Document, base_uri: str = "",
                       _chain=()) -> Document:
    """Replace every external step.run reference, relative to ``base_uri``,
    with its loaded document (see load)."""
    if not doc.is_workflow:
        return doc
    steps = []
    for step in doc.body.steps:
        run = step.run
        if isinstance(run, str):
            run = load(os.path.join(os.path.dirname(base_uri), run), _chain)
        else:
            run = resolve_references(run, base_uri, _chain=_chain)
        steps.append(model.replace(step, run=run))
    body = model.replace(doc.body, steps=tuple(steps))
    return model.replace(doc, body=body)


# --- canonical serialization ------------------------------------------------

def _camel(name: str) -> str:
    """A field's document key: ``success_codes`` is ``successCodes``."""
    head, *rest = name.split("_")
    return head + "".join(word.capitalize() for word in rest)


def _plain(value):
    """The canonical plain form of a model value.  A model record is a
    mapping of its fields under their document keys, leaving out a field
    that is None, an empty tuple or at its default (see model.Record)."""
    if isinstance(value, Document):
        return {"cwlVersion": value.version,
                "class": "CommandLineTool" if value.is_tool else "Workflow",
                **_plain(value.body), **dict(value.metadata),
                **dict(value.extensions)}
    if isinstance(value, DataType):
        return value.to_string()
    if isinstance(value, Clause):
        if value.kind == model.CLAUSE_EXTENSION:
            return dict(value.payload)
        return {**value.payload, "class": _KIND_TO_CLASS[value.kind]}
    if isinstance(value, Binding):
        return {"default": value.value} if value.is_literal else value.source
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if not isinstance(value, model.Record):
        return value
    out = {}
    for name, f in value.fields.items():
        v = getattr(value, name)
        if v is None or v == () or v == f.default:
            continue
        if name == "in_map":  # (input id, Binding) pairs
            out["in"] = dict(_plain(v))
        else:
            out[_camel(name)] = _plain(v)
    return out


def to_plain(doc: Document) -> dict:
    """Canonical plain-data form; reparsing it reproduces the Document."""
    return _plain(doc)


_canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                   ensure_ascii=False).encode


def canonical_serialize(doc: Document) -> str:
    """JSON with sorted keys and no insignificant whitespace."""
    return _canonical_json(to_plain(doc))


def canonical_digest(doc: Document) -> str:
    """SHA-256 hex digest of the canonical serialization."""
    return hashlib.sha256(canonical_serialize(doc).encode("utf-8")).hexdigest()


def digest_data(data) -> str:
    """SHA-256 hex digest of canonical JSON for arbitrary plain data."""
    return hashlib.sha256(_canonical_json(data).encode("utf-8")).hexdigest()
