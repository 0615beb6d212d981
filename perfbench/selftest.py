"""Tests of the benchmark itself: oracles, disk accounting and the tracer.

    python3 -m pytest -q perfbench/selftest.py

The traced-run tests pin counts that repeat exactly at a given seed, so a
wrapper that stops firing, or fires twice, shows up as a failure here.
The file is not named ``test_*.py`` so that the repository's own test run
does not collect it.
"""

from __future__ import annotations

import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 1


def traced_run(name: str, seed: int = SEED):
    """Set up (with its warm-up run), make one traced run, clean up;
    returns the workload and the run."""
    bench = run.Bench(workloads.generate(name, seed),
                      deadline=time.monotonic() + run.DEADLINE_S)
    try:
        bench.setup()
        result = bench.run("traced", trace=True)
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)
    return bench.w, result


def test_generation_is_a_function_of_the_seed():
    for name in workloads.WORKLOADS:
        a, b = workloads.generate(name, 7), workloads.generate(name, 7)
        assert a.files == b.files and a.unit_outputs == b.unit_outputs
    sizes = {workloads.generate("fanout-cold", s).size for s in range(20)}
    assert len(sizes) > 1


def test_unit_oracle_rejects_a_wrong_output():
    w = workloads.generate("chain", SEED)
    tasks = {tid: {"state": "Succeeded",
                   "outputs": {"out": {"class": "File", "checksum": sums["out"]}}}
             for tid, sums in w.unit_outputs.items()}
    assert workloads.check_units(w, {"tasks": tasks}) == 0
    tasks["s3"]["outputs"]["out"]["checksum"] = "0" * 64
    tasks["s5"]["state"] = "PermanentFail"
    assert workloads.check_units(w, {"tasks": tasks}) == 2


def test_disk_bytes_counts_a_hard_linked_inode_once(tmp_path):
    (tmp_path / "a").write_bytes(b"x" * 100000)
    single = run.disk_bytes([str(tmp_path)])
    os.link(tmp_path / "a", tmp_path / "b")
    assert run.disk_bytes([str(tmp_path)]) == single > 0


def test_missing_entry_point_reports_its_metrics_as_missing(monkeypatch):
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from miniwfl import cli
    monkeypatch.delattr(cli, "_stage_workflow_outputs")
    # let monkeypatch restore every entry point install() is about to wrap
    for module, attr, *_ in tracer.SPANS + tracer.HASHERS + tracer.COPIERS:
        found = tracer._lookup(module, attr)
        if found is not None:
            monkeypatch.setattr(*found)
    recorder = tracer.Recorder("r")
    tracer.install(recorder)
    assert recorder.missing == ["cli.stage_out"]
    values = tracer.layer_metrics([], set(recorder.missing))
    assert values["cli.stage_out_s"] is None
    assert values["cli.stage_out_copy_mib"] is None
    assert values["cache.store_s"] == 0


def test_fanout_cold_keys_twice_per_unit_and_stores_on_coordinator():
    w, result = traced_run("fanout-cold")
    m = result.trace
    assert result.failed == 0
    executed = m["runtime.attempts"] - m["runtime.attempts_failed"]
    assert executed == w.units
    assert m["cache.key_calls"] == 2 * executed
    assert m["cache.store_on_coordinator_frac"] == 1
    assert m["cache.hits"] == 0 and m["runtime.spawns"] == w.units
    assert set(m) == set(tracer.PER_LAYER)


def test_fanout_warm_reuses_every_unit():
    w, result = traced_run("fanout-warm")
    m = result.trace
    assert result.failed == 0
    assert m["cache.hits"] == m["cache.lookups"] == w.units
    assert m["runtime.spawns"] == 0 and m["cache.stores"] == 0


def test_chain_parses_the_shared_tool_once_per_step():
    w, result = traced_run("chain")
    assert result.failed == 0
    assert result.trace["parser.docs_parsed"] == w.size + 1


def test_shared_input_hashes_per_shard_and_quadratically_on_stage_out():
    w, result = traced_run("shared-input")
    m = result.trace
    n = w.size
    assert result.failed == 0
    assert m["cli.stage_out_hash_calls"] == n * (n - 1) // 2
    assert m["runtime.stage_hash_mib"] == n * n  # input is n MiB
