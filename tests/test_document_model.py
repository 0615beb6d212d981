"""Document parsing, normalization, canonical form, and reference resolution."""

import json

import pytest
import yaml
from hypothesis import given, strategies as st

from miniwfl import model, parser
from miniwfl.errors import (
    DocumentSyntaxError,
    IncludeCycleError,
    NotFoundError,
    SchemaError,
    TypeSyntaxError,
)
from miniwfl.model import Clause, DataType, Document

TOOL_YAML = """\
cwlVersion: v1.2
class: CommandLineTool
baseCommand: [echo]
inputs:
  msg: {type: string, position: 1}
outputs:
  out: {type: File, capture: stdout}
stdout: out.txt
"""

WF_YAML = """\
cwlVersion: v1.2
class: Workflow
inputs:
  msg: string
outputs:
  out: {type: File, outputSource: say/out}
steps:
  say:
    run: tool.cwl
    in: {msg: msg}
"""


def test_yaml_and_json_forms_parse_identically():
    raw = yaml.safe_load(TOOL_YAML)
    as_json = json.dumps(raw)
    a = parser.parse_document(TOOL_YAML)
    b = parser.parse_document(as_json)
    assert a == b
    assert parser.canonical_digest(a) == parser.canonical_digest(b)


def test_roundtrip_through_canonical_form():
    doc = parser.parse_document(TOOL_YAML)
    replayed = parser.parse_raw(yaml.safe_load(parser.canonical_serialize(doc)))
    assert replayed == doc
    assert parser.canonical_serialize(replayed) == parser.canonical_serialize(doc)


def test_key_order_does_not_change_digest():
    raw = yaml.safe_load(TOOL_YAML)
    shuffled = dict(reversed(list(raw.items())))
    a = parser.parse_raw(raw)
    b = parser.parse_raw(shuffled)
    assert parser.canonical_digest(a) == parser.canonical_digest(b)


def test_digest_changes_with_content():
    a = parser.parse_document(TOOL_YAML)
    b = parser.parse_document(TOOL_YAML.replace("echo", "printf"))
    assert parser.canonical_digest(a) != parser.canonical_digest(b)


def test_map_and_list_parameter_forms_are_equivalent():
    list_form = """\
cwlVersion: v1.2
class: CommandLineTool
baseCommand: [echo]
inputs:
  - {id: msg, type: string, position: 1}
outputs:
  - {id: out, type: File, capture: stdout}
stdout: out.txt
"""
    assert parser.parse_document(list_form) == parser.parse_document(TOOL_YAML)


def test_string_base_command_normalizes_to_list():
    doc = parser.parse_document(TOOL_YAML.replace("[echo]", "echo"))
    assert doc.body.base_command == ("echo",)


def test_parameters_are_sorted_by_id():
    doc = parser.parse_document("""\
cwlVersion: v1.2
class: CommandLineTool
baseCommand: [echo]
inputs:
  zebra: {type: string}
  apple: {type: string}
outputs: []
""")
    assert [p.id for p in doc.body.inputs] == ["apple", "zebra"]


def test_duplicate_parameter_ids_rejected():
    with pytest.raises(SchemaError, match="duplicate"):
        parser.parse_document("""\
cwlVersion: v1.2
class: CommandLineTool
baseCommand: [echo]
inputs:
  - {id: msg, type: string}
  - {id: msg, type: int}
outputs: []
""")


@pytest.mark.parametrize("name", [
    "../../../../escaped.txt", "sub/out.txt", "/tmp/out.txt", ".", "..", ""])
@pytest.mark.parametrize("stream", ["stdout", "stderr"])
def test_capture_names_stay_in_the_output_directory(stream, name):
    text = TOOL_YAML.replace("stdout: out.txt\n", "")
    with pytest.raises(SchemaError, match=f"{stream} must name a file"):
        parser.parse_document(text + f"{stream}: {json.dumps(name)}\n")
    doc = parser.parse_document(text + f"{stream}: ..out.txt\n")
    assert getattr(doc.body, stream) == "..out.txt"


@pytest.mark.parametrize("glob", [
    "/etc/hostname", "../out.txt", "sub/../../out.txt", "..", "sub/..",
    "o\0.txt", 7])
def test_globs_stay_in_the_output_directory(glob):
    raw = yaml.safe_load(TOOL_YAML)
    raw["outputs"]["out"] = {"type": "File", "glob": glob}
    with pytest.raises(SchemaError, match="glob must"):
        parser.parse_raw(raw)
    for fine in ("sub/*.txt", "..out.txt", "**/o.txt", "./o.txt"):
        raw["outputs"]["out"]["glob"] = fine
        assert parser.parse_raw(raw).body.outputs[0].glob == fine


@pytest.mark.parametrize("name", [
    "../../../escaped-iwd.txt", "sub/x.txt", "/tmp/x.txt", ".", "..", "",
    "x\0y", 7])
@pytest.mark.parametrize("where", ["requirements", "hints"])
def test_working_directory_names_stay_in_the_output_directory(where, name):
    raw = yaml.safe_load(TOOL_YAML)
    raw[where] = [{"class": "InitialWorkDirRequirement",
                   "listing": [{"entryname": name, "entry": "text"}]}]
    with pytest.raises(SchemaError, match=f"entryname in tool {where} must"):
        parser.parse_raw(raw)
    raw[where][0]["listing"][0]["entryname"] = "..x.txt"
    assert parser.parse_raw(raw)


def test_unknown_key_rejected_unless_namespaced():
    with pytest.raises(SchemaError, match="unknown key"):
        parser.parse_document(TOOL_YAML + "mystery: 1\n")
    doc = parser.parse_document(TOOL_YAML + "acme:mystery: 1\n")
    assert doc.extensions == (("acme:mystery", 1),)


def test_unknown_version_rejected():
    with pytest.raises(SchemaError, match="unsupported version"):
        parser.parse_document(TOOL_YAML.replace("v1.2", "v9.9"))
    with pytest.raises(SchemaError, match="cwlVersion"):
        parser.parse_document("class: CommandLineTool\n")


def test_malformed_yaml_reports_syntax_error():
    with pytest.raises(DocumentSyntaxError):
        parser.parse_document("a: [unclosed\n  b: }")


def test_when_requires_v12():
    wf = WF_YAML.replace("run: tool.cwl", "run: tool.cwl\n    when: $(inputs.msg == 'x')")
    parser.parse_document(wf)  # fine at v1.2
    with pytest.raises(SchemaError, match="v1.2"):
        parser.parse_document(wf.replace("cwlVersion: v1.2", "cwlVersion: v1.1"))


def test_work_reuse_requires_v11():
    tool = TOOL_YAML + "requirements:\n  - {class: WorkReuse, enableReuse: false}\n"
    parser.parse_document(tool)
    parser.parse_document(tool.replace("v1.2", "v1.1"))
    with pytest.raises(SchemaError, match="v1.1"):
        parser.parse_document(tool.replace("v1.2", "v1.0"))


def test_scatter_must_name_bound_inputs():
    with pytest.raises(SchemaError, match="scatter"):
        parser.parse_document(WF_YAML.replace(
            "in: {msg: msg}", "in: {msg: msg}\n    scatter: [other]"))


def test_unknown_requirement_class_becomes_extension_clause():
    doc = parser.parse_document(
        TOOL_YAML + "hints:\n  - {class: 'acme:Turbo', level: 3}\n")
    (clause,) = doc.body.hints
    assert clause.kind == "Extension"
    assert clause.payload["class"] == "acme:Turbo"


def test_resolve_references_loads_and_inlines(tmp_path):
    (tmp_path / "tool.cwl").write_text(TOOL_YAML)
    wf_path = tmp_path / "wf.cwl"
    wf_path.write_text(WF_YAML)
    doc = parser.parse_document(WF_YAML, base_uri=str(wf_path))
    assert [step.run for step in doc.body.steps] == ["tool.cwl"]
    resolved = parser.resolve_references(doc, base_uri=str(wf_path))
    assert [type(step.run) for step in resolved.body.steps] == [Document]
    assert resolved.body.steps[0].run.is_tool


def test_resolve_references_missing_file(tmp_path):
    wf_path = tmp_path / "wf.cwl"
    wf_path.write_text(WF_YAML)
    doc = parser.parse_document(WF_YAML, base_uri=str(wf_path))
    with pytest.raises(NotFoundError):
        parser.resolve_references(doc, base_uri=str(wf_path))


def test_resolve_references_detects_cycles(tmp_path):
    a = """\
cwlVersion: v1.2
class: Workflow
inputs: {x: string}
outputs: []
steps:
  s: {run: b.cwl, in: {x: x}}
"""
    b = a.replace("b.cwl", "a.cwl")
    (tmp_path / "a.cwl").write_text(a)
    (tmp_path / "b.cwl").write_text(b)
    doc = parser.parse_document(a, base_uri=str(tmp_path / "a.cwl"))
    with pytest.raises(IncludeCycleError):
        parser.resolve_references(doc, base_uri=str(tmp_path / "a.cwl"))


# --- refusals ---------------------------------------------------------------

def _tool_raw(**fields):
    return {"cwlVersion": "v1.2", "class": "CommandLineTool",
            "baseCommand": "echo", "inputs": {"x": "int"}, "outputs": {},
            **fields}


def _wf_raw(step=(), **fields):
    return {"cwlVersion": "v1.2", "class": "Workflow",
            "inputs": {"x": "int"}, "outputs": {},
            "steps": {"s": {"run": _tool_raw(), "in": {"x": "x"}, "out": [],
                            **dict(step)}},
            **fields}


def _reqs(cls, **payload):
    return _tool_raw(requirements=[{"class": cls, **payload}])


@pytest.mark.parametrize("raw, message", [
    ("[1, 2]", "document root must be a mapping"),
    (_tool_raw(cwlVersion=1.2), "cwlVersion must be a string"),
    (_tool_raw(inputs={"1x": "int"}), "invalid identifier '1x'"),
    (_tool_raw(inputs={"x": {"type": ["int"]}}), "type must be a string"),
    (_tool_raw(inputs={"x": 3}), "bad parameter spec for 'x'"),
    (_tool_raw(inputs=[3]), "bad parameter entry in tool inputs"),
    (_tool_raw(inputs=3), "tool inputs must be a map or a list"),
    (_tool_raw(inputs={"x": {"position": 1}}), "input 'x' has no type"),
    (_tool_raw(inputs={"x": {"type": "int", "streamable": True}}),
     "streamable input 'x' must be of File type"),
    (_tool_raw(inputs={"x": {"type": "int", "position": "1"}}),
     "position of 'x' must be an integer"),
    (_tool_raw(inputs={"x": {"type": "int", "position": True}}),
     "position of 'x' must be an integer"),
    (_tool_raw(outputs={"o": {"glob": "o.txt"}}), "output 'o' has no type"),
    (_tool_raw(outputs={"o": {"type": "File", "capture": "stdin"}}),
     "capture must be stdout or stderr"),
    (_tool_raw(outputs={"o": {"type": "string", "capture": "stdout"}}),
     "capture outputs must be File-typed"),
    (_tool_raw(outputs={"o": "File"}), "needs exactly one of glob/capture"),
    (_wf_raw(outputs={"o": "File"}), "workflow output 'o' needs an outputSource"),
    (_tool_raw(requirements=[{}]), "clause without class in tool requirements"),
    (_tool_raw(hints=3), "tool hints must be a map or a list"),
    (_reqs("DockerRequirement"), "Container clause without image"),
    (_reqs("ResourceRequirement", gpus=1), "unknown resource field 'gpus'"),
    (_reqs("ResourceRequirement", coresMin=-1), "negative resource coresMin"),
    (_reqs("ResourceRequirement", coresMin=True),
     "resource coresMin must be int or expression"),
    (_reqs("ResourceRequirement", ramMin=1.5),
     "resource ramMin must be int or expression"),
    (_reqs("EnvVarRequirement", envDef={"A": 1}),
     "EnvVars clause needs envDef map"),
    (_reqs("InitialWorkDirRequirement"),
     "InitialWorkDir clause needs a listing"),
    (_reqs("InitialWorkDirRequirement", listing=[{"entryname": "a"}]),
     "bad InitialWorkDir entry"),
    (_reqs("WorkReuse", enableReuse="no"),
     "WorkReuse enableReuse must be boolean"),
    (_tool_raw(baseCommand=["echo", 1]),
     "baseCommand must be a string or list of strings"),
    (_tool_raw(successCodes=[0, True]), "successCodes must be a list of integers"),
    (_tool_raw(successCodes=0), "successCodes must be a list of integers"),
    (_tool_raw(stdin=3), "stdin must be a string"),
    (_wf_raw(step={"in": ["x"]}), "step 's': 'in' must be a map"),
    (_wf_raw(step={"in": {"x": {"valueFrom": "x"}}}),
     "step 's' input 'x': expected source or default"),
    (_wf_raw(step={"run": 3}), "step 's' needs a run reference"),
    (_wf_raw(step={"scatter": 3}), "step 's': scatter must name step inputs"),
    (_wf_raw(step={"when": True}), "step 's': when must be an expression"),
    (_wf_raw(step={"out": "o"}), "step 's': out must be a list"),
])
def test_parser_refusals(raw, message):
    with pytest.raises(SchemaError, match=message) as caught:
        if isinstance(raw, str):
            parser.parse_document(raw)
        else:
            parser.parse_raw(raw)
    assert type(caught.value) is SchemaError


# --- data types -------------------------------------------------------------

_BASES = ["File", "Directory", "string", "int", "float", "boolean", "null"]


@given(st.sampled_from(_BASES), st.booleans(), st.booleans())
def test_datatype_roundtrip(base, array, optional):
    dt = DataType(base, array, optional)
    assert DataType.parse(dt.to_string()) == dt


@pytest.mark.parametrize("text,base,array,optional", [
    ("File", "File", False, False),
    ("string[]", "string", True, False),
    ("int?", "int", False, True),
    ("File[]?", "File", True, True),
])
def test_datatype_parse_forms(text, base, array, optional):
    assert DataType.parse(text) == DataType(base, array, optional)


@pytest.mark.parametrize("bad", ["Files", "string[][]", "?", "int??", ""])
def test_datatype_rejects_malformed(bad):
    with pytest.raises(TypeSyntaxError):
        DataType.parse(bad)


def test_canonical_serialization_is_sorted_and_compact():
    doc = parser.parse_document(TOOL_YAML)
    text = parser.canonical_serialize(doc)
    data = json.loads(text)
    assert text == json.dumps(data, sort_keys=True, separators=(",", ":"),
                              ensure_ascii=False)
    assert ": " not in text


@given(st.dictionaries(st.text(max_size=8),
                       st.one_of(st.integers(), st.text(max_size=8)),
                       max_size=5))
def test_digest_data_is_order_independent(data):
    shuffled = dict(reversed(list(data.items())))
    assert parser.digest_data(data) == parser.digest_data(shuffled)
    assert len(parser.digest_data(data)) == 64


# --- the record base ----------------------------------------------------------

def test_record_equality_and_hash_leave_out_uncompared_fields():
    from miniwfl.expression import parse_expr
    from miniwfl.planner import FileValue
    a = FileValue("/a", "a", 1, "sha256$0", signature=(1, 1, 1, 0o644))
    b = FileValue("/a", "a", 1, "sha256$0", signature=None)
    assert a == b and hash(a) == hash(b)
    assert a != model.replace(a, size=2)
    parsed = parse_expr("$(inputs.x)")
    unparsed = model.replace(parsed, ast=())
    assert parsed.ast != unparsed.ast
    assert parsed == unparsed and hash(parsed) == hash(unparsed)
    assert DataType("File") != Clause("File")  # another class: unequal


def test_record_refuses_assignment_unless_mutable():
    from miniwfl.runtime import TaskAttempt
    from miniwfl.scheduler import Services
    dt = DataType("int")
    with pytest.raises(AttributeError):
        dt.base = "string"
    with pytest.raises(AttributeError):
        del dt.array
    with pytest.raises(AttributeError):
        dt.new = 1
    attempt = TaskAttempt("t", 1)
    attempt.exit_code = 0  # a mutable record: assignable, not hashable
    assert attempt.exit_code == 0
    with pytest.raises(TypeError):
        hash(attempt)
    assert Services(None) == Services(None)


def test_record_replace_keeps_the_class_and_refuses_unknown_fields():
    from miniwfl.cache import _Inline
    inline = _Inline(path="", basename="a", size=1, checksum="sha256$0",
                     data=b"x", mode=0o600)
    moved = model.replace(inline, path="/a")
    assert type(moved) is _Inline
    assert (moved.path, moved.data, moved.mode) == ("/a", b"x", 0o600)
    assert inline != moved and inline == model.replace(moved, path="")
    with pytest.raises(TypeError):
        model.replace(inline, colour="red")
    with pytest.raises(TypeError):
        DataType()  # a field without a default
    with pytest.raises(TypeError):
        DataType("int", False, False, "extra")
    with pytest.raises(TypeError):
        DataType("int", base="int")


def test_record_default_factory_makes_one_object_per_record():
    from miniwfl.runtime import TaskAttempt
    from miniwfl.scheduler import RunConfig, TaskRecord
    assert Clause("x").payload is not Clause("x").payload
    assert TaskAttempt("t", 1).argv is not TaskAttempt("t", 1).argv
    assert RunConfig().machine == model.Machine()
    first = TaskRecord(node=None, task=None, inputs={})
    second = TaskRecord(node=None, task=None, inputs={})
    assert first.attempts is not second.attempts
    assert first != second and first == first  # identity equality


def test_record_repr_keeps_the_dataclass_format():
    assert repr(DataType("File", array=True)) == \
        "DataType(base='File', array=True, optional=False)"
    assert repr(Clause("Resource", {"coresMin": 1})) == \
        "Clause(kind='Resource', payload={'coresMin': 1})"
