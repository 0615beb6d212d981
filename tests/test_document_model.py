"""Document parsing, normalization, canonical form, and reference resolution."""

import json

import pytest
import yaml
from hypothesis import given, strategies as st

from miniwfl import parser
from miniwfl.errors import (
    DocumentSyntaxError,
    IncludeCycleError,
    NotFoundError,
    SchemaError,
    TypeSyntaxError,
)
from miniwfl.model import DataType, Document

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
