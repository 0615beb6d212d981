"""Shared fixtures and helpers for the test suite."""

import contextlib
import io
import json
import os
import shutil
from dataclasses import replace

import pytest

from miniwfl import cli, parser

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")


def corpus_cases():
    return sorted(
        name for name in os.listdir(CORPUS_DIR)
        if os.path.isdir(os.path.join(CORPUS_DIR, name)))


def prepare_case(name, dest):
    """Copy a corpus case into `dest` and resolve path placeholders."""
    src = os.path.join(CORPUS_DIR, name)
    shutil.copytree(src, dest)
    job_path = os.path.join(dest, "job.yml")
    with open(job_path) as fh:
        text = fh.read()
    if "@CASEDIR@" in text:
        with open(job_path, "w") as fh:
            fh.write(text.replace("@CASEDIR@", dest))
    meta_path = os.path.join(dest, "case.json")
    meta = {}
    if os.path.exists(meta_path):
        with open(meta_path) as fh:
            meta = json.load(fh)
    return meta


def run_cli(argv):
    """Invoke the CLI in-process; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def run_case(name, workdir, cache_dir, extra_args=()):
    """Execute one prepared-or-fresh corpus case; returns (code, outputs)."""
    case_dir = os.path.join(workdir, "case")
    if os.path.exists(case_dir):
        meta = {}
        meta_path = os.path.join(case_dir, "case.json")
        if os.path.exists(meta_path):
            with open(meta_path) as fh:
                meta = json.load(fh)
    else:
        meta = prepare_case(name, case_dir)
    outdir = os.path.join(workdir, f"out-{len(os.listdir(workdir))}")
    argv = [
        "run",
        os.path.join(case_dir, "workflow.cwl"),
        os.path.join(case_dir, "job.yml"),
        "--outdir", outdir,
        "--cache-dir", cache_dir,
        "--no-container",
        "--quiet",
        "--parallel", str(meta.get("parallelism", 2)),
        "--retries", str(meta.get("retries", 0)),
    ]
    argv.extend(extra_args)
    code, stdout = run_cli(argv)
    outputs = json.loads(stdout) if stdout.strip() else None
    return code, outputs


def strip_paths(value):
    """Remove location-dependent fields so outputs compare across runs."""
    if isinstance(value, dict):
        return {k: strip_paths(v) for k, v in value.items() if k != "path"}
    if isinstance(value, list):
        return [strip_paths(v) for v in value]
    return value


def deep_chain(n, ring=False):
    """A workflow of ``n`` steps where ``s{i:04d}`` consumes the output of
    the step before it, listed last step first; ``ring`` also feeds the last
    step into the first.  The parser orders steps by id, so the listing is
    reversed on the parsed document."""
    tool = {
        "cwlVersion": "v1.2", "class": "CommandLineTool",
        "baseCommand": ["true"],
        "inputs": [{"id": "x", "type": "File?"}],
        "outputs": [{"id": "out", "type": "File", "glob": "o.txt"}],
    }
    steps = []
    for i in range(n):
        feed = {"x": f"s{(i - 1) % n:04d}/out"} if i or ring else {}
        steps.append({"id": f"s{i:04d}", "run": dict(tool), "in": feed})
    doc = parser.parse_raw({
        "cwlVersion": "v1.2", "class": "Workflow",
        "inputs": [], "outputs": [], "steps": steps,
    })
    return replace(doc, body=replace(doc.body, steps=doc.body.steps[::-1]))


def load_expected(name):
    with open(os.path.join(CORPUS_DIR, name, "expected.json")) as fh:
        return json.load(fh)


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "cache")
