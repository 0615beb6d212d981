"""Pinned digests: the canonical form of every corpus workflow, the tool
digest of every tool it runs and one cache key must not drift.

A refactor of the canonical form that changes a digest changes every
``workflowDigest`` in provenance and every cache key, so old cache entries
all miss; none of the behavioural tests would notice.  Regenerate the pin
with ``PYTHONPATH=src python tests/test_digests.py`` only after such a
change is meant, and say so where the change is recorded.
"""

import json
import os

import pytest
from conftest import CORPUS_DIR, corpus_cases

from miniwfl import parser
from miniwfl.cache import cache_key, digest_tool
from miniwfl.planner import FileValue, TaskNode

PIN_PATH = os.path.join(os.path.dirname(__file__), "digests.json")

# One tool that sets every field a tool can have, so that a field dropped
# from the canonical form changes the key below.
KEY_TOOL_RAW = {
    "cwlVersion": "v1.2", "class": "CommandLineTool",
    "baseCommand": ["sh", "-c"],
    "inputs": {
        "f": {"type": "File", "position": 2, "prefix": "--in",
              "format": "edam:format_1929", "streamable": True},
        "n": {"type": "int?", "default": 3, "position": 1},
        "words": {"type": "string[]", "prefix": "-w"},
    },
    "outputs": {
        "out": {"type": "File", "capture": "stdout", "format": "edam:x"},
        "hits": {"type": "File[]", "glob": "*.hit"},
    },
    "requirements": {
        "ResourceRequirement": {"coresMin": 2, "ramMin": 512},
        "EnvVarRequirement": {"envDef": {"MODE": "fast"}},
        "InitialWorkDirRequirement": {
            "listing": [{"entry": "$(inputs.f)", "entryname": "in.fa"}]},
    },
    "hints": [{"class": "DockerRequirement", "dockerPull": "alpine:3"},
              {"class": "ex:Cpu", "arch": "x86_64"}],
    "stdin": "$(inputs.f.path)",
    "stdout": "out.txt",
    "stderr": "err.txt",
    "successCodes": [0, 3],
    "label": "pinned tool",
    "ex:meta": {"k": "v"},
}
KEY_STEP_RAW = {
    "cwlVersion": "v1.2", "class": "Workflow",
    "inputs": {}, "outputs": {},
    "steps": {"s": {
        "run": KEY_TOOL_RAW, "in": {}, "out": [],
        "requirements": [{"class": "ResourceRequirement", "coresMin": 1}],
        "hints": [{"class": "WorkReuse", "enableReuse": True}],
    }},
}


def _tool_digests(doc, prefix=""):
    """``{step path: digest_tool}`` for every tool step, sub-workflows
    included."""
    out = {}
    for step in doc.body.steps:
        path = prefix + step.id
        if step.run.is_tool:
            out[path] = digest_tool(step.run.body)
        else:
            out.update(_tool_digests(step.run, path + "/"))
    return out


def _pinned_key(data_dir):
    (step,) = parser.parse_raw(KEY_STEP_RAW).body.steps
    path = os.path.join(data_dir, "reads.fa")
    with open(path, "wb") as fh:
        fh.write(b">r1\nACGT\n")
    node = TaskNode(id="s", tool=step.run.body, bindings={},
                    requirements=step.requirements + step.run.body.requirements,
                    hints=step.hints + step.run.body.hints)
    bindings = {"f": FileValue.from_path(path), "n": 3,
                "words": ["a", "b"]}
    return cache_key(node, bindings, digest_tool(node.tool),
                     {"cores": 2, "ram": 512})


def compute(data_dir):
    """The pinned values, computed by the code under test."""
    workflows = {}
    for name in corpus_cases():
        path = os.path.join(CORPUS_DIR, name, "workflow.cwl")
        doc = parser.load(path)
        workflows[name] = {"canonical_digest": parser.canonical_digest(doc),
                           "tools": _tool_digests(doc)}
    return {"workflows": workflows, "cache_key": _pinned_key(data_dir)}


@pytest.fixture(scope="module")
def pinned():
    with open(PIN_PATH) as fh:
        return json.load(fh)


def test_pin_covers_every_corpus_case(pinned):
    assert sorted(pinned["workflows"]) == corpus_cases()


@pytest.mark.parametrize("name", corpus_cases())
def test_workflow_and_tool_digests_are_pinned(name, pinned):
    doc = parser.load(os.path.join(CORPUS_DIR, name, "workflow.cwl"))
    assert parser.canonical_digest(doc) == \
        pinned["workflows"][name]["canonical_digest"]
    assert _tool_digests(doc) == pinned["workflows"][name]["tools"]


def test_cache_key_is_pinned(pinned, tmp_path):
    assert _pinned_key(str(tmp_path)) == pinned["cache_key"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = compute(tmp)
    with open(PIN_PATH, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {PIN_PATH}")
