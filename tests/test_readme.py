"""The README's code runs as written against the package."""

import hashlib
import os
import re

import yaml

README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def _section_code(heading):
    """The first ```python block under the ``## heading`` of the README."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_snippet_runs_a_one_step_workflow(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "wf.cwl"
    path.write_text(yaml.safe_dump({
        "cwlVersion": "v1.2", "class": "Workflow",
        "inputs": {"msg": "string"},
        "outputs": {"out": {"type": "File", "outputSource": "say/out"}},
        "steps": {"say": {"in": {"msg": "msg"}, "run": {
            "cwlVersion": "v1.2", "class": "CommandLineTool",
            "baseCommand": ["echo"],
            "inputs": {"msg": {"type": "string", "position": 1}},
            "outputs": {"out": {"type": "File", "capture": "stdout"}}}}},
    }))
    scope = {"path": str(path), "job_order": {"msg": "hello"}}
    exec(compile(_section_code("Library"), README, "exec"), scope)
    assert scope["diags"] == []
    result = scope["result"]
    assert result.status == "Success"
    assert result.outputs["out"].checksum \
        == hashlib.sha256(b"hello\n").hexdigest()
    # what only the outputs read was released, and the run directory closed
    assert os.listdir(tmp_path) == ["wf.cwl"]
