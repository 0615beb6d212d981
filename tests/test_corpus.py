"""Golden corpus: every case must reproduce its frozen expected output."""

import json
import os

import pytest

from conftest import corpus_cases, load_expected, run_case, strip_paths


def test_corpus_has_at_least_25_cases():
    assert len(corpus_cases()) >= 25


@pytest.mark.parametrize("name", corpus_cases())
def test_corpus_case(name, tmp_path, cache_dir):
    code, outputs = run_case(name, str(tmp_path), cache_dir)
    assert code == 0
    assert strip_paths(outputs) == load_expected(name)


# tasks that run again on a warm cache: one turns reuse off, and a scatter
# of width 0 has no shard to be cached
RUN_AGAIN = {("workreuse_off", "no_reuse"), ("scatter_empty", "fan")}


def _run_states(name, workdir, cache_dir):
    """Run a case into a fresh --outdir; returns its outputs and the state
    of each task in its provenance record."""
    before = set(os.listdir(workdir))
    code, outputs = run_case(name, workdir, cache_dir)
    assert code == 0
    (outdir,) = {d for d in os.listdir(workdir) if d.startswith("out-")} \
        - before
    (record,) = os.listdir(os.path.join(workdir, outdir, "provenance"))
    with open(os.path.join(workdir, outdir, "provenance", record)) as fh:
        tasks = json.load(fh)["tasks"]
    return outputs, {tid: task["state"] for tid, task in tasks.items()}


@pytest.mark.parametrize("name", corpus_cases())
def test_corpus_case_warm(name, tmp_path, cache_dir):
    """A second run against the same cache gives the same outputs, and
    every task that ran is served from the cache."""
    workdir = tmp_path / "runs"
    workdir.mkdir()
    _, cold = _run_states(name, str(workdir), cache_dir)
    outputs, warm = _run_states(name, str(workdir), cache_dir)
    assert strip_paths(outputs) == load_expected(name)
    expected = {tid: ("Skipped" if state == "Skipped" else
                      state if (name, tid) in RUN_AGAIN else "Cached")
                for tid, state in cold.items()}
    assert warm == expected


def test_provenance_records_the_format_of_a_file(tmp_path, cache_dir):
    code, _ = run_case("formats_match", str(tmp_path), cache_dir)
    assert code == 0
    (record,) = (tmp_path / "out-1" / "provenance").iterdir()
    prov = json.loads(record.read_text())
    assert prov["jobOrder"]["table"]["format"] == "iana:text/csv"
