"""Golden corpus: every case must reproduce its frozen expected output."""

import json
import os

import pytest

from conftest import corpus_cases, load_expected, run_case, strip_paths


def test_corpus_has_at_least_25_cases():
    assert len(corpus_cases()) >= 25


@pytest.mark.parametrize("name", corpus_cases())
def test_corpus_case(name, tmp_path, cache_dir):
    outputs, _ = _run_states(name, str(tmp_path), cache_dir)
    assert strip_paths(outputs) == load_expected(name)


# tasks that run again on a warm cache: one turns reuse off, and a scatter
# of width 0 has no shard to be cached
RUN_AGAIN = {("workreuse_off", "no_reuse"), ("scatter_empty", "fan")}


def _left_in_work(outdir, tasks):
    """What a run left in ``<outdir>/.work`` besides the logs of streams
    that nothing captured and the directories of failed attempts, which
    are kept: ``tasks`` is the provenance record's."""
    work = os.path.join(outdir, ".work")
    if not os.path.isdir(work):
        return []
    failed = {os.path.basename(attempt["workdir"]) + suffix
              for task in tasks.values() for attempt in task["attempts"]
              if attempt["outcome"] != "Success"
              for suffix in ("", ".tmp")}
    return sorted(name for name in set(os.listdir(work)) - failed
                  if not name.endswith((".stdout.log", ".stderr.log")))


def _run_states(name, workdir, cache_dir):
    """Run a case into a fresh --outdir; returns its outputs and the state
    of each task in its provenance record.  The run must succeed, and
    leave no successful attempt's directory, no ``cached/``, no TMPDIR and
    no spare log."""
    before = set(os.listdir(workdir))
    code, outputs = run_case(name, workdir, cache_dir)
    assert code == 0
    (outdir,) = {d for d in os.listdir(workdir) if d.startswith("out-")} \
        - before
    outdir = os.path.join(workdir, outdir)
    (record,) = os.listdir(os.path.join(outdir, "provenance"))
    with open(os.path.join(outdir, "provenance", record)) as fh:
        tasks = json.load(fh)["tasks"]
    assert _left_in_work(outdir, tasks) == []
    return outputs, {tid: task["state"] for tid, task in tasks.items()}


@pytest.mark.parametrize("name", corpus_cases())
def test_corpus_case_warm(name, tmp_path, cache_dir):
    """A second run against the same cache gives the same outputs, and
    every task that ran is served from the cache: the payloads outlive
    the first run's ``.work`` names, which it deleted."""
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
