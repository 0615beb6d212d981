"""Result reuse: key construction, store/lookup, corruption, disable switch."""

import json
import os
import shutil

from miniwfl import parser
from miniwfl.cache import ResultCache, cache_key
from miniwfl.model import (
    CLAUSE_CONTAINER,
    CLAUSE_ENV,
    CLAUSE_WORK_REUSE,
    Clause,
)
from miniwfl.planner import FileValue, TaskNode, file_checksum

TOOL_RAW = {
    "cwlVersion": "v1.2", "class": "CommandLineTool",
    "baseCommand": ["cat"],
    "inputs": [{"id": "f", "type": "File", "position": 1}],
    "outputs": [{"id": "out", "type": "File", "capture": "stdout"}],
    "stdout": "out.txt",
}
TOOL = parser.parse_raw(TOOL_RAW).body


def _node(requirements=(), tool=TOOL):
    return TaskNode(id="t", tool=tool, bindings={},
                    requirements=tuple(requirements))


def _fv(tmp_path, name="in.txt", content="stuff\n"):
    p = tmp_path / name
    p.write_text(content)
    return FileValue.from_path(str(p))


def _entry_path(cache_dir, key):
    return os.path.join(cache_dir, "ac", f"{key}.json")


def _entry_payload(cache_dir, key):
    with open(_entry_path(cache_dir, key)) as fh:
        (stored,) = json.load(fh)["outputs"].values()
    return os.path.join(cache_dir, "cas", stored["checksum"])


def test_key_ignores_file_directory(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    f1 = _fv(tmp_path / "a", "same.txt")
    f2 = _fv(tmp_path / "b", "same.txt")  # same name and bytes elsewhere
    assert cache_key(_node(), {"f": f1}) == cache_key(_node(), {"f": f2})


def test_key_changes_with_file_basename(tmp_path):
    # a tool sees the basename through inputs.f.basename and its staged path
    f1 = _fv(tmp_path, "original.txt")
    f2 = _fv(tmp_path, "renamed.txt")  # same bytes, another name
    assert cache_key(_node(), {"f": f1}) != cache_key(_node(), {"f": f2})


def test_key_changes_with_file_content(tmp_path):
    k1 = cache_key(_node(), {"f": _fv(tmp_path, "a.txt", "one\n")})
    k2 = cache_key(_node(), {"f": _fv(tmp_path, "b.txt", "two\n")})
    assert k1 != k2


def test_key_changes_with_tool(tmp_path):
    fv = _fv(tmp_path)
    other = dict(TOOL_RAW, baseCommand=["tac"])
    k1 = cache_key(_node(), {"f": fv})
    k2 = cache_key(_node(tool=parser.parse_raw(other).body), {"f": fv})
    assert k1 != k2


def test_key_changes_with_env_and_image(tmp_path):
    fv = _fv(tmp_path)
    plain = cache_key(_node(), {"f": fv})
    with_env = cache_key(_node([Clause(CLAUSE_ENV,
                                       {"envDef": {"A": "1"}})]), {"f": fv})
    with_image = cache_key(_node([Clause(CLAUSE_CONTAINER,
                                         {"image": "alpine"})]), {"f": fv})
    assert len({plain, with_env, with_image}) == 3


def test_key_is_stable_across_processes(tmp_path):
    p = tmp_path / "fixed.txt"
    p.write_text("fixed\n")
    fv = FileValue.from_path(str(p))
    k = cache_key(_node(), {"f": fv})
    assert k == cache_key(_node(), {"f": fv})
    assert len(k) == 64


def test_work_reuse_disabled_never_matches(tmp_path):
    fv = _fv(tmp_path)
    node = _node([Clause(CLAUSE_WORK_REUSE, {"enableReuse": False})])
    key = cache_key(node, {"f": fv})
    assert key is None
    cache = ResultCache(str(tmp_path / "cache"))
    cache.store(key, {"out": fv})
    assert cache.lookup(key) is None


def test_store_then_lookup_roundtrip(tmp_path):
    fv = _fv(tmp_path)
    key = cache_key(_node(), {"f": fv})
    cache = ResultCache(str(tmp_path / "cache"))
    assert cache.lookup(key) is None
    cache.store(key, {"out": fv, "n": 7})
    hit = cache.lookup(key)
    assert hit["n"] == 7
    got = hit["out"]
    assert got.checksum == fv.checksum
    assert got.basename == fv.basename
    assert got.path != fv.path  # served from the cache's own copy
    assert file_checksum(got.path) == fv.checksum


def test_layout_is_sharded_and_inspectable(tmp_path):
    fv = _fv(tmp_path)
    key = cache_key(_node(), {"f": fv})
    cache = ResultCache(str(tmp_path / "cache"))
    cache.store(key, {"out": fv})
    entry_path = _entry_path(cache.cache_dir, key)
    assert os.path.isfile(entry_path)
    with open(entry_path) as fh:
        entry = json.load(fh)
    assert entry["outputs"]["out"]["checksum"] == fv.checksum
    assert os.listdir(os.path.join(cache.cache_dir, "cas")) == [fv.checksum]


def test_corrupt_payload_is_evicted_as_miss(tmp_path):
    fv = _fv(tmp_path)
    key = cache_key(_node(), {"f": fv})
    cache = ResultCache(str(tmp_path / "cache"))
    cache.store(key, {"out": fv})
    stored = _entry_payload(cache.cache_dir, key)
    with open(stored, "w") as fh:
        fh.write("bitrot")
    assert cache.lookup(key) is None
    assert not os.path.exists(_entry_path(cache.cache_dir, key))  # evicted
    assert not os.path.exists(stored)  # so a later store links a good copy


def test_unreadable_entry_json_is_evicted(tmp_path):
    fv = _fv(tmp_path)
    key = cache_key(_node(), {"f": fv})
    cache = ResultCache(str(tmp_path / "cache"))
    cache.store(key, {"out": fv})
    entry_path = _entry_path(cache.cache_dir, key)
    with open(entry_path, "w") as fh:
        fh.write("{not json")
    assert cache.lookup(key) is None
    assert not os.path.exists(entry_path)


def test_first_writer_wins(tmp_path):
    f1 = _fv(tmp_path, "x.txt", "v1\n")
    key = cache_key(_node(), {"f": f1})
    cache = ResultCache(str(tmp_path / "cache"))
    cache.store(key, {"out": f1})
    f2 = _fv(tmp_path, "y.txt", "v2\n")
    cache.store(key, {"out": f2})  # redundant store is ignored
    assert cache.lookup(key)["out"].checksum == f1.checksum


def test_republish_copies_into_run_directory(tmp_path):
    fv = _fv(tmp_path)
    key = cache_key(_node(), {"f": fv})
    cache = ResultCache(str(tmp_path / "cache"))
    cache.store(key, {"out": fv, "xs": [fv]})
    hit = cache.lookup(key)
    dest = str(tmp_path / "rundir")
    out = cache.republish(hit, dest)
    assert out["out"].path.startswith(dest)
    assert file_checksum(out["out"].path) == fv.checksum
    assert out["xs"][0].path.startswith(dest)
    # the run stays usable even if the cache is pruned afterwards
    shutil.rmtree(str(tmp_path / "cache"))
    assert open(out["out"].path).read() == "stuff\n"


def test_store_failure_degrades_to_warning(tmp_path, caplog):
    fv = _fv(tmp_path)
    key = cache_key(_node(), {"f": fv})
    blocked = tmp_path / "cache"
    blocked.write_text("a file where the cache dir should be")
    cache = ResultCache(str(blocked))
    cache.store(key, {"out": fv})  # must not raise
    assert cache.lookup(key) is None


def test_key_changes_with_step_clauses_and_resources(tmp_path):
    from miniwfl.model import CLAUSE_INITIAL_WORKDIR
    fv = _fv(tmp_path)

    def workdir(text):
        return [Clause(CLAUSE_INITIAL_WORKDIR, {"listing": [
            {"entryname": "cfg.txt", "entry": text}]})]

    keys = {
        cache_key(_node(workdir("alpha")), {"f": fv}),
        cache_key(_node(workdir("beta")), {"f": fv}),
        cache_key(_node(), {"f": fv}, resources={"coresMin": 1}),
        cache_key(_node(), {"f": fv}, resources={"coresMin": 2}),
    }
    assert len(keys) == 4
    # the digest the scheduler memoizes is the one computed by default
    from miniwfl.cache import digest_tool
    assert cache_key(_node(), {"f": fv}, digest_tool(TOOL)) \
        == cache_key(_node(), {"f": fv})


def _run_workflow(raw, job, tmp_path, cache, parallelism=1):
    from miniwfl import planner, scheduler
    from miniwfl.runtime import LocalRuntime
    graph = planner.plan(parser.parse_raw(raw), job)
    runtime = LocalRuntime(str(tmp_path / "work"), use_containers=False)
    cfg = scheduler.RunConfig(parallelism=parallelism)
    return scheduler.run(graph, cfg, scheduler.Services(runtime, cache))


def test_hit_through_a_runtime_without_work_root_writes_nothing(
        tmp_path, monkeypatch):
    from miniwfl import planner, scheduler
    from miniwfl.runtime import LocalRuntime

    class Wrapper:  # any object with run_task, as Services allows
        def __init__(self):
            self.inner = LocalRuntime(str(tmp_path / "work"),
                                      use_containers=False)

        def run_task(self, *args):
            return self.inner.run_task(*args)

    monkeypatch.chdir(tmp_path)
    raw = {"cwlVersion": "v1.2", "class": "Workflow", "inputs": [],
           "outputs": [{"id": "o", "type": "File", "outputSource": "s/out"}],
           "steps": [{"id": "s", "in": {}, "run": {
               "cwlVersion": "v1.2", "class": "CommandLineTool",
               "baseCommand": ["echo", "hi"], "inputs": [],
               "outputs": [{"id": "out", "type": "File",
                            "capture": "stdout"}]}}]}
    graph = planner.plan(parser.parse_raw(raw), {})
    services = scheduler.Services(Wrapper(),
                                  ResultCache(str(tmp_path / "cache")))
    first = scheduler.run(graph, scheduler.RunConfig(), services)
    second = scheduler.run(graph, scheduler.RunConfig(), services)
    assert second.tasks["s"].cached
    assert second.outputs["o"].path == os.path.join(
        str(tmp_path / "cache"), "cas", first.outputs["o"].checksum)
    assert sorted(os.listdir(tmp_path)) == ["cache", "work"]


def test_step_level_workdir_overrides_are_not_reused_across_steps(tmp_path):
    tool = {"cwlVersion": "v1.2", "class": "CommandLineTool",
            "baseCommand": ["cat", "cfg.txt"], "inputs": [],
            "outputs": [{"id": "out", "type": "File", "capture": "stdout"}],
            "stdout": "out.txt"}

    def step(name, text):
        return {"id": name, "run": dict(tool), "in": {}, "requirements": [
            {"class": "InitialWorkDirRequirement", "listing": [
                {"entryname": "cfg.txt", "entry": text}]}]}

    raw = {"cwlVersion": "v1.2", "class": "Workflow", "inputs": [],
           "outputs": [{"id": "a", "type": "File", "outputSource": "a/out"},
                       {"id": "b", "type": "File", "outputSource": "b/out"}],
           "steps": [step("a", "alpha\n"), step("b", "beta\n")]}
    result = _run_workflow(raw, {}, tmp_path,
                           ResultCache(str(tmp_path / "cache")))
    assert result.status == "Success"
    assert open(result.outputs["a"].path).read() == "alpha\n"
    assert open(result.outputs["b"].path).read() == "beta\n"
    assert result.tasks["b"].cached is False


def test_payload_is_a_hard_link_to_the_output(tmp_path):
    fv = _fv(tmp_path)
    key = cache_key(_node(), {"f": fv})
    cache = ResultCache(str(tmp_path / "cache"))
    cache.store(key, {"out": fv})
    assert os.path.samefile(_entry_payload(cache.cache_dir, key), fv.path)


def _refuse_links(monkeypatch):
    import errno

    def cross_device(src, dst, **kwargs):
        raise OSError(errno.EXDEV, "Invalid cross-device link")

    monkeypatch.setattr(os, "link", cross_device)


def test_payload_is_copied_where_links_fail(tmp_path, monkeypatch):
    _refuse_links(monkeypatch)
    fv = _fv(tmp_path)
    key = cache_key(_node(), {"f": fv})
    cache = ResultCache(str(tmp_path / "cache"))
    cache.store(key, {"out": fv})
    payload = _entry_payload(cache.cache_dir, key)
    assert not os.path.samefile(payload, fv.path)
    assert file_checksum(payload) == fv.checksum
    assert os.listdir(os.path.dirname(payload)) == [fv.checksum]  # no .tmp
    assert cache.lookup(key)["out"].checksum == fv.checksum


def test_editing_the_run_output_evicts_the_linked_entry(tmp_path):
    from miniwfl.runtime import LocalRuntime
    runtime = LocalRuntime(str(tmp_path / "work"), use_containers=False)
    fv = _fv(tmp_path)
    node = _node()
    result = runtime.run_task(node, {"f": fv}, 1, {})
    key = cache_key(node, {"f": fv})
    cache = ResultCache(str(tmp_path / "cache"))
    cache.store(key, result.outputs)
    assert cache.lookup(key)["out"].checksum == fv.checksum
    with open(result.outputs["out"].path, "w") as fh:  # in place, same inode
        fh.write("edited under .work\n")
    assert cache.lookup(key) is None
    assert not os.path.exists(_entry_path(cache.cache_dir, key))


def test_scatter_keys_each_shard_once_and_stores_on_workers(tmp_path,
                                                            monkeypatch):
    import threading

    from miniwfl import scheduler
    keyed, stored_on = [], []
    real_key, real_store = scheduler.cache_key, ResultCache.store

    def counting_key(*args, **kwargs):
        keyed.append(args[0].id)
        return real_key(*args, **kwargs)

    def recording_store(self, *args, **kwargs):
        stored_on.append(threading.get_ident())
        return real_store(self, *args, **kwargs)

    monkeypatch.setattr(scheduler, "cache_key", counting_key)
    monkeypatch.setattr(ResultCache, "store", recording_store)
    tool = {"cwlVersion": "v1.2", "class": "CommandLineTool",
            "baseCommand": ["echo"],
            "inputs": [{"id": "i", "type": "int", "position": 1}],
            "outputs": [{"id": "out", "type": "File", "capture": "stdout"}],
            "stdout": "out.txt"}
    raw = {"cwlVersion": "v1.2", "class": "Workflow",
           "inputs": [{"id": "idx", "type": "int[]"}],
           "outputs": [{"id": "outs", "type": "File[]",
                        "outputSource": "fan/out"}],
           "steps": [{"id": "fan", "run": tool, "in": {"i": "idx"},
                      "scatter": ["i"]}]}
    result = _run_workflow(raw, {"idx": list(range(5))}, tmp_path,
                           ResultCache(str(tmp_path / "cache")),
                           parallelism=2)
    assert result.status == "Success"
    assert [open(fv.path).read() for fv in result.outputs["outs"]] \
        == [f"{i}\n" for i in range(5)]
    assert sorted(keyed) == [f"fan[{i}]" for i in range(5)]
    assert len(stored_on) == 5
    assert threading.get_ident() not in stored_on


def test_concurrent_worker_stores_of_one_key_leave_one_entry(tmp_path):
    import sys
    tool = {"cwlVersion": "v1.2", "class": "CommandLineTool",
            "baseCommand": ["echo"],
            "inputs": [{"id": "s", "type": "string", "position": 1}],
            "outputs": [{"id": "out", "type": "File", "capture": "stdout"}],
            "stdout": "out.txt"}
    raw = {"cwlVersion": "v1.2", "class": "Workflow",
           "inputs": [{"id": "xs", "type": "string[]"}],
           "outputs": [{"id": "outs", "type": "File[]",
                        "outputSource": "fan/out"}],
           "steps": [{"id": "fan", "run": tool, "in": {"s": "xs"},
                      "scatter": ["s"]}]}
    cache_dir = tmp_path / "cache"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = _run_workflow(raw, {"xs": ["same"] * 16}, tmp_path,
                               ResultCache(str(cache_dir)), parallelism=8)
    finally:
        sys.setswitchinterval(interval)
    assert result.status == "Success"
    assert {open(fv.path).read() for fv in result.outputs["outs"]} \
        == {"same\n"}
    assert sorted(os.listdir(cache_dir)) == ["ac", "cas"]
    (entry,) = os.listdir(cache_dir / "ac")  # one entry, no temporary file
    assert entry.endswith(".json")
    (blob,) = os.listdir(cache_dir / "cas")
    assert blob == file_checksum(str(cache_dir / "cas" / blob))


def _listing(cache_dir):
    return {sub: set(os.listdir(os.path.join(cache_dir, sub)))
            for sub in ("ac", "cas")}


def test_store_adds_one_entry_file_and_only_absent_blobs(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    shared = _fv(tmp_path, "shared.txt", "shared\n")
    cache.store(cache_key(_node(), {"f": shared}), {"out": shared})
    before = _listing(cache.cache_dir)
    fresh = _fv(tmp_path, "fresh.txt", "fresh\n")
    key = cache_key(_node(), {"f": fresh})
    cache.store(key, {"a": shared, "b": [fresh, fresh]})
    after = _listing(cache.cache_dir)
    assert after["ac"] - before["ac"] == {f"{key}.json"}
    assert after["cas"] - before["cas"] == {fresh.checksum}
    assert before["ac"] <= after["ac"] and before["cas"] <= after["cas"]


def _same_bytes_twice(tmp_path, monkeypatch=None):
    """Store two keys whose outputs hold equal bytes; return the blob's
    (inode, size, mtime) before and after the second store, which refuses
    hard links when ``monkeypatch`` is given."""
    cache = ResultCache(str(tmp_path / "cache"))
    first = _fv(tmp_path, "first.txt", "same\n")
    second = _fv(tmp_path, "second.txt", "same\n")
    cache.store(cache_key(_node(), {"f": first}), {"out": first})
    blob = os.path.join(cache.cache_dir, "cas", first.checksum)

    def signature():
        st = os.stat(blob)
        return st.st_ino, st.st_size, st.st_mtime_ns

    if monkeypatch is not None:
        _refuse_links(monkeypatch)
    os.utime(blob, ns=(0, 0))  # a rewrite would move the mtime off zero
    seen = signature()
    key = cache_key(_node(tool=parser.parse_raw(
        dict(TOOL_RAW, baseCommand=["tac"])).body), {"f": second})
    cache.store(key, {"out": second})
    assert cache.lookup(key)["out"].checksum == second.checksum
    return seen, signature()


def test_equal_bytes_from_another_key_leave_the_blob_untouched(tmp_path):
    before, after = _same_bytes_twice(tmp_path)
    assert after == before


def test_equal_bytes_are_not_copied_over_a_blob_where_links_fail(
        tmp_path, monkeypatch):
    before, after = _same_bytes_twice(tmp_path, monkeypatch)
    assert after == before


def test_evicted_blob_is_relinked_by_a_later_store(tmp_path):
    fv = _fv(tmp_path)
    key = cache_key(_node(), {"f": fv})
    cache = ResultCache(str(tmp_path / "cache"))
    cache.store(key, {"out": fv})
    with open(fv.path, "w") as fh:  # the blob is a link to this file
        fh.write("edited\n")
    assert cache.lookup(key) is None
    assert _listing(cache.cache_dir) == {"ac": set(), "cas": set()}
    again = _fv(tmp_path, "again.txt")  # the original bytes, a new file
    cache.store(key, {"out": again})
    assert cache.lookup(key)["out"].checksum == fv.checksum
    assert os.path.samefile(_entry_payload(cache.cache_dir, key), again.path)


def test_first_store_makes_the_only_two_cache_directories(tmp_path,
                                                          monkeypatch):
    made = []
    real_mkdir = os.mkdir

    def counting_mkdir(path, *args, **kwargs):
        made.append(os.path.relpath(path, str(tmp_path)))
        return real_mkdir(path, *args, **kwargs)

    cache = ResultCache(str(tmp_path / "cache"))
    (tmp_path / "cache").mkdir()
    monkeypatch.setattr(os, "mkdir", counting_mkdir)
    for n in range(3):
        fv = _fv(tmp_path, f"in{n}.txt", f"content {n}\n")
        cache.store(cache_key(_node(), {"f": fv}), {"out": fv, "xs": [fv]})
        assert sorted(made) == [os.path.join("cache", "ac"),
                                os.path.join("cache", "cas")]
