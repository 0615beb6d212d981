"""Shared fixtures and helpers for the test suite."""

import contextlib
import io
import json
import os
import shutil
import sqlite3
import stat
import time
from dataclasses import replace

import pytest

from miniwfl import cli, parser, planner

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")


def cache_entries(cache_dir, changes=None) -> dict:
    """Every row of the cache index under ``cache_dir`` as {key: entry
    text}, read after setting the entry text of each key in ``changes``
    (None deletes that key's row)."""
    db = sqlite3.connect(os.path.join(cache_dir, "ac.sqlite"),
                         isolation_level=None)
    try:
        for key, text in (changes or {}).items():
            if text is None:
                db.execute("DELETE FROM ac WHERE key = ?", (key,))
            else:
                db.execute("UPDATE ac SET entry = ? WHERE key = ?",
                           (text, key))
        return dict(db.execute("SELECT key, entry FROM ac"))
    finally:
        db.close()


def age(path, seconds=3):
    """Set ``path``'s mtime ``seconds`` back: the signature of a file
    written just now is racily clean, and stands in for no hash."""
    then = time.time_ns() - seconds * 1_000_000_000
    os.utime(path, ns=(then, then))


def grow_with_forged_mtime(path, fv):
    """A size-changing write to ``path`` whose mtime is then set back to
    the one ``fv``'s signature holds."""
    with open(path, "a") as fh:
        fh.write("more\n")
    os.utime(path, ns=(fv.signature[2], fv.signature[2]))


def flip_exec_bit(path, fv=None):
    """Toggle the owner's execute bit of ``path``: a ``chmod`` that moves
    its mode whatever the umask made it."""
    os.chmod(path, stat.S_IMODE(os.stat(path).st_mode) ^ stat.S_IXUSR)


def grow_on_hash(monkeypatch, times):
    """Make the first ``times`` reads of a file to hash it append to it
    first, as a writer racing the read would: a hash through
    ``file_checksum`` and one from memory (a small output's) both open
    the file with the ``open`` that ``planner`` looks up."""
    grown = []

    def racing(path, *args, **kwargs):
        if len(grown) < times:
            grown.append(path)
            with open(path, "a") as fh:
                fh.write("more\n")
        return open(path, *args, **kwargs)

    monkeypatch.setattr(planner, "open", racing, raising=False)
    return grown


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


class NullRuntime:
    """The runtime protocol that the scheduler calls, with nothing behind
    it: ``release`` and ``cancel`` do nothing, and cache hits are published
    under ``cached_dir``, given when it is made (the ``cached_dir`` fixture
    names one under the test's ``tmp_path``).  Subclasses supply
    ``run_task``."""

    def __init__(self, cached_dir):
        self.cached_dir = cached_dir

    def release(self, workdir):
        pass

    def cancel(self):
        pass


@pytest.fixture
def cached_dir(tmp_path):
    return str(tmp_path / "cached")


def load_expected(name):
    with open(os.path.join(CORPUS_DIR, name, "expected.json")) as fh:
        return json.load(fh)


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "cache")
