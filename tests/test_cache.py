"""Result reuse: key construction, store/lookup, corruption, disable switch."""

import base64
import hashlib
import json
import os
import random
import shutil
import sqlite3
import time
import types
from collections import Counter
from pathlib import Path

import pytest
from conftest import (age, cache_entries, flip_exec_bit,
                      grow_with_forged_mtime)

from miniwfl import cache as cache_module
from miniwfl import parser, planner, runtime, scheduler
from miniwfl.cache import _INLINE_MAX, ResultCache, cache_key, digest_tool
from miniwfl.model import (
    CLAUSE_CONTAINER,
    CLAUSE_ENV,
    CLAUSE_WORK_REUSE,
    Clause,
    replace,
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
# more bytes than a cache entry holds inline: stored as a cas/ payload file
STUFF = "stuff\n" * (_INLINE_MAX // 6 + 1)


def _key(node, bindings, resources=None):
    """The key the scheduler gives ``node`` run on ``bindings``."""
    return cache_key(node, bindings, digest_tool(node.tool), resources or {})


def _node(requirements=(), tool=TOOL):
    return TaskNode(id="t", tool=tool, bindings={},
                    requirements=tuple(requirements))


def _fv(tmp_path, name="in.txt", content=STUFF):
    p = tmp_path / name
    p.write_text(content)
    return FileValue.from_path(str(p))


def _count(monkeypatch, module, name):
    """Record the first argument of every call of ``module.name``."""
    calls = []
    original = getattr(module, name)

    def counted(first, *args, **kwargs):
        calls.append(first)
        return original(first, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _entry_payload(cache_dir, key):
    (stored,) = json.loads(cache_entries(cache_dir)[key]).values()
    return os.path.join(cache_dir, "cas", stored["checksum"])


def test_key_ignores_file_directory(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    f1 = _fv(tmp_path / "a", "same.txt")
    f2 = _fv(tmp_path / "b", "same.txt")  # same name and bytes elsewhere
    assert _key(_node(), {"f": f1}) == _key(_node(), {"f": f2})


def test_key_changes_with_file_basename(tmp_path):
    # a tool sees the basename through inputs.f.basename and its staged path
    f1 = _fv(tmp_path, "original.txt")
    f2 = _fv(tmp_path, "renamed.txt")  # same bytes, another name
    assert _key(_node(), {"f": f1}) != _key(_node(), {"f": f2})


def test_key_changes_with_file_content(tmp_path):
    k1 = _key(_node(), {"f": _fv(tmp_path, "a.txt", "one\n")})
    k2 = _key(_node(), {"f": _fv(tmp_path, "b.txt", "two\n")})
    assert k1 != k2


def test_key_changes_with_tool(tmp_path):
    fv = _fv(tmp_path)
    other = dict(TOOL_RAW, baseCommand=["tac"])
    k1 = _key(_node(), {"f": fv})
    k2 = _key(_node(tool=parser.parse_raw(other).body), {"f": fv})
    assert k1 != k2


def test_key_changes_with_env_and_image(tmp_path):
    fv = _fv(tmp_path)
    plain = _key(_node(), {"f": fv})
    with_env = _key(_node([Clause(CLAUSE_ENV,
                                       {"envDef": {"A": "1"}})]), {"f": fv})
    with_image = _key(_node([Clause(CLAUSE_CONTAINER,
                                         {"image": "alpine"})]), {"f": fv})
    assert len({plain, with_env, with_image}) == 3


def test_key_is_stable_across_processes(tmp_path):
    p = tmp_path / "fixed.txt"
    p.write_text("fixed\n")
    fv = FileValue.from_path(str(p))
    k = _key(_node(), {"f": fv})
    assert k == _key(_node(), {"f": fv})
    assert len(k) == 64


def test_work_reuse_disabled_never_matches(tmp_path):
    fv = _fv(tmp_path)
    node = _node([Clause(CLAUSE_WORK_REUSE, {"enableReuse": False})])
    key = _key(node, {"f": fv})
    assert key is None
    cache = ResultCache(str(tmp_path / "cache"))
    cache.store(key, {"out": fv}, "run")
    assert cache.lookup(key) is None


def test_store_then_lookup_roundtrip(tmp_path):
    fv = _fv(tmp_path)
    key = _key(_node(), {"f": fv})
    cache = ResultCache(str(tmp_path / "cache"))
    assert cache.lookup(key) is None
    cache.store(key, {"out": fv, "n": 7}, "run")
    hit = cache.lookup(key)
    assert hit["n"] == 7
    got = hit["out"]
    assert got.checksum == fv.checksum
    assert got.basename == fv.basename
    assert got.path != fv.path  # served from the cache's own copy
    assert file_checksum(got.path) == fv.checksum


def test_layout_is_sharded_and_inspectable(tmp_path):
    fv = _fv(tmp_path)
    key = _key(_node(), {"f": fv})
    cache = ResultCache(str(tmp_path / "cache"))
    cache.store(key, {"out": fv}, "run")
    cache.close()
    # one row in a table that any SQLite client reads, and one blob
    assert sorted(os.listdir(cache.cache_dir)) == ["ac.sqlite", "cas"]
    entries = cache_entries(cache.cache_dir)
    assert list(entries) == [key]
    assert json.loads(entries[key])["out"]["checksum"] == fv.checksum
    assert os.listdir(os.path.join(cache.cache_dir, "cas")) == [fv.checksum]


def test_small_output_is_stored_in_its_entry(tmp_path):
    small = _fv(tmp_path, "small.txt", "x" * _INLINE_MAX)
    os.chmod(small.path, 0o750)
    key = _key(_node(), {"f": small})
    cache = ResultCache(str(tmp_path / "cache"))
    run_id = os.urandom(16).hex()  # as the CLI names a run
    started = int(time.time())
    cache.store(key, {"out": small, "xs": [small]}, run_id)
    cache.close()
    # the bytes are in the row, written compact; the key and run id are
    # raw bytes, the store time whole seconds
    assert os.listdir(cache.cache_dir) == ["ac.sqlite"]
    db = sqlite3.connect(os.path.join(cache.cache_dir, "ac.sqlite"))
    try:
        ((raw_key, run, at, text),) = db.execute("SELECT * FROM entries")
    finally:
        db.close()
    assert (raw_key, run) == (bytes.fromhex(key), bytes.fromhex(run_id))
    assert started <= at <= time.time()
    assert ", " not in text and ": " not in text
    stored = json.loads(text)["out"]
    assert base64.b64decode(stored["inline"]) == b"x" * _INLINE_MAX
    assert len(stored["inline"]) == 4096  # one block, as a file would take
    # no "class", and no "size": the decoded length
    assert stored == {"basename": small.basename, "checksum": small.checksum,
                      "inline": stored["inline"], "mode": 0o750}
    # a hit names its file in the run, one per checksum, and the verified
    # bytes are written there once something is to read them
    dest = str(tmp_path / "cached")
    out = cache.republish(cache.lookup(key), dest)
    assert out["out"] == replace(small, path=os.path.join(dest,
                                                          small.checksum))
    assert out["xs"] == [out["out"]]
    assert os.listdir(dest) == []
    cache.materialize(out.values())
    assert os.listdir(dest) == [small.checksum]
    assert Path(out["out"].path).read_text() == "x" * _INLINE_MAX
    assert os.stat(out["out"].path).st_mode & 0o7777 == 0o750
    assert not os.path.samefile(out["out"].path, small.path)
    os.utime(out["out"].path, ns=(0, 0))
    cache.materialize(out.values())  # written already: left as it is
    assert os.stat(out["out"].path).st_mtime_ns == 0


@pytest.mark.parametrize("damage", [
    lambda stored: dict(stored, inline=base64.b64encode(b"bitrot").decode()),
    lambda stored: dict(stored, inline="not base64!"),
    lambda stored: dict(stored, inline=7),
    lambda stored: dict(stored, mode="rwx"),
], ids=["other-bytes", "bad-base64", "not-a-string", "mode-not-a-number"])
def test_corrupt_inline_payload_is_evicted_as_miss(tmp_path, caplog, damage):
    small = _fv(tmp_path, "small.txt", "small\n")
    key = _key(_node(), {"f": small})
    cache = ResultCache(str(tmp_path / "cache"))
    cache.store(key, {"out": small}, "run")
    stored = json.loads(cache_entries(cache.cache_dir)[key])
    stored["out"] = damage(stored["out"])
    cache_entries(cache.cache_dir, {key: json.dumps(stored)})
    assert cache.lookup(key) is None
    assert key not in cache_entries(cache.cache_dir)  # evicted
    assert "evicting" in caplog.text


def test_second_store_of_a_key_with_other_small_bytes_leaves_one_row(
        tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    first = _fv(tmp_path, "one.txt", "one\n")
    key = _key(_node(), {"f": first})
    cache.store(key, {"out": first}, "run")
    cache.store(key, {"out": _fv(tmp_path, "two.txt", "two\n")}, "run")
    cache.close()
    assert os.listdir(cache.cache_dir) == ["ac.sqlite"]  # no orphan blob
    assert list(cache_entries(cache.cache_dir)) == [key]
    assert cache.lookup(key)["out"].checksum == first.checksum


def test_store_hashes_only_inline_bytes_it_reads_again(tmp_path,
                                                      monkeypatch):
    """The bytes collect read and hashed, under a signature that still
    holds, are stored with no second hash; a file read again is hashed."""
    path = tmp_path / "small.txt"
    path.write_text("small\n")
    age(path)
    contents = {}
    small = FileValue.from_path(str(path), contents=contents)
    hashed = []
    real = cache_module.hashlib.sha256

    def sha256(data):
        hashed.append(data)
        return real(data)

    monkeypatch.setattr(cache_module, "hashlib",
                        types.SimpleNamespace(sha256=sha256))
    cache = ResultCache(str(tmp_path / "cache"))
    collected, read_again = (_key(_node(), {"f": small}, {"n": n})
                             for n in (1, 2))
    cache.store(collected, {"out": small}, "run", contents)
    assert hashed == []
    cache.store(read_again, {"out": small}, "run")
    assert hashed == [b"small\n"]
    assert cache.lookup(collected)["out"].checksum == small.checksum


def test_small_output_changed_since_it_was_collected_is_not_stored(
        tmp_path, caplog):
    small = _fv(tmp_path, "small.txt", "collected\n")
    key = _key(_node(), {"f": small})
    (tmp_path / "small.txt").write_text("changed\n")
    cache = ResultCache(str(tmp_path / "cache"))
    cache.store(key, {"out": small}, "run")  # must not raise
    assert "output changed since it was collected" in caplog.text
    assert cache.lookup(key) is None


def test_corrupt_payload_is_evicted_as_miss(tmp_path):
    fv = _fv(tmp_path)
    key = _key(_node(), {"f": fv})
    cache = ResultCache(str(tmp_path / "cache"))
    cache.store(key, {"out": fv}, "run")
    stored = _entry_payload(cache.cache_dir, key)
    with open(stored, "w") as fh:
        fh.write("bitrot")
    assert cache.lookup(key) is None
    assert key not in cache_entries(cache.cache_dir)  # evicted
    assert not os.path.exists(stored)  # so a later store links a good copy


def test_unreadable_payload_is_evicted_as_miss(tmp_path, monkeypatch, caplog):
    """A blob that cannot be read (mode 000 under a non-root engine, or
    EIO) is a miss like a corrupt one; root ignores mode bits, so the read
    error is raised by hand."""
    fv = _fv(tmp_path)
    key = _key(_node(), {"f": fv})
    cache = ResultCache(str(tmp_path / "cache"))
    cache.store(key, {"out": fv}, "run")
    stored = _entry_payload(cache.cache_dir, key)
    checksum = cache_module.file_checksum

    def unreadable(path):
        if path == stored:
            raise PermissionError(13, "Permission denied", path)
        return checksum(path)

    monkeypatch.setattr(cache_module, "file_checksum", unreadable)
    assert cache.lookup(key) is None
    assert "cache entry corrupt, evicting" in caplog.text
    assert key not in cache_entries(cache.cache_dir)  # evicted
    assert not os.path.exists(stored)


def test_unreadable_entry_json_is_evicted(tmp_path):
    fv = _fv(tmp_path)
    key = _key(_node(), {"f": fv})
    cache = ResultCache(str(tmp_path / "cache"))
    cache.store(key, {"out": fv}, "run")
    cache_entries(cache.cache_dir, {key: "{not json"})
    assert cache.lookup(key) is None
    assert key not in cache_entries(cache.cache_dir)


def test_first_writer_wins(tmp_path):
    f1 = _fv(tmp_path, "x.txt", "v1\n")
    key = _key(_node(), {"f": f1})
    cache = ResultCache(str(tmp_path / "cache"))
    cache.store(key, {"out": f1}, "run")
    f2 = _fv(tmp_path, "y.txt", "v2\n")
    cache.store(key, {"out": f2}, "run")  # redundant store is ignored
    assert cache.lookup(key)["out"].checksum == f1.checksum


def test_republish_links_into_run_directory(tmp_path):
    fv = _fv(tmp_path)
    key = _key(_node(), {"f": fv})
    cache = ResultCache(str(tmp_path / "cache"))
    cache.store(key, {"out": fv, "xs": [fv]}, "run")
    hit = cache.lookup(key)
    dest = str(tmp_path / "rundir")
    out = cache.republish(hit, dest)
    assert out["out"].path.startswith(dest)
    assert file_checksum(out["out"].path) == fv.checksum
    assert out["xs"][0].path.startswith(dest)
    # one flat name per blob, a link to it; only the path changed
    assert os.listdir(dest) == [fv.checksum]
    assert os.path.samefile(out["out"].path, hit["out"].path)
    assert out["out"] == replace(hit["out"], path=out["out"].path)
    # the run stays usable even if the cache is pruned afterwards
    shutil.rmtree(str(tmp_path / "cache"))
    assert open(out["out"].path).read() == STUFF


@pytest.mark.parametrize("left", ["other bytes", "symlink to the blob"])
def test_republish_replaces_what_an_earlier_run_left(tmp_path, left):
    fv = _fv(tmp_path)
    key = _key(_node(), {"f": fv})
    cache = ResultCache(str(tmp_path / "cache"))
    cache.store(key, {"out": fv}, "run")
    hit = cache.lookup(key)
    dest = tmp_path / "cached"
    dest.mkdir()
    stale = dest / fv.checksum
    if left == "other bytes":
        stale.write_text("not the blob\n")
    else:
        stale.symlink_to(hit["out"].path)
    out = cache.republish(hit, str(dest))
    assert not os.path.islink(out["out"].path)
    assert os.path.samefile(out["out"].path, hit["out"].path)
    assert os.listdir(dest) == [fv.checksum]  # no temporary name left


def test_republish_keeps_a_name_that_is_the_blob(tmp_path, monkeypatch):
    fv = _fv(tmp_path)
    key = _key(_node(), {"f": fv})
    cache = ResultCache(str(tmp_path / "cache"))
    cache.store(key, {"out": fv, "again": fv}, "run")
    hit = cache.lookup(key)
    dest = str(tmp_path / "cached")
    cache.republish(hit, dest)
    links = _count(monkeypatch, os, "link")
    mkdirs = _count(monkeypatch, os, "mkdir")
    out = cache.republish(hit, dest)  # a second hit of the same blob
    assert (links, mkdirs) == ([], [])
    assert os.listdir(dest) == [fv.checksum]
    assert os.path.samefile(out["again"].path, hit["out"].path)


def test_republish_replaces_a_name_whose_blob_was_stored_again(tmp_path):
    """Within one run: a published name is the blob's inode, so an edit
    through it edits the blob; the next lookup evicts the blob, a new
    store links another inode, and the next hit must not serve the edit."""
    fv = _fv(tmp_path)
    key = _key(_node(), {"f": fv})
    cache = ResultCache(str(tmp_path / "cache"))
    cache.store(key, {"out": fv}, "run")
    dest = str(tmp_path / "cached")
    published = cache.republish(cache.lookup(key), dest)["out"].path
    with open(published, "a") as fh:
        fh.write("edited\n")
    assert cache.lookup(key) is None
    cache.store(key, {"out": _fv(tmp_path, "again.txt")}, "run")
    out = cache.republish(cache.lookup(key), dest)
    assert out["out"].path == published
    assert open(published).read() == STUFF


def test_republish_copies_where_links_fail(tmp_path, monkeypatch):
    fv = _fv(tmp_path)
    key = _key(_node(), {"f": fv})
    cache = ResultCache(str(tmp_path / "cache"))
    cache.store(key, {"out": fv}, "run")
    hit = cache.lookup(key)
    _refuse_links(monkeypatch)
    dest = tmp_path / "cached"
    out = cache.republish(hit, str(dest))
    assert not os.path.samefile(out["out"].path, hit["out"].path)
    assert file_checksum(out["out"].path) == fv.checksum
    assert os.listdir(dest) == [fv.checksum]


@pytest.mark.parametrize("entry", [
    None, [], {}, 5, {"out": {"basename": "o.txt", "size": 1}},
], ids=["null", "list", "empty", "outputs-not-a-map", "file-without-checksum"])
def test_entry_of_the_wrong_shape_is_evicted_as_a_miss(tmp_path, caplog,
                                                       entry):
    """``entry`` is the JSON of a row's outputs, which must map each of
    the tool's output ids to its value, every mapping in it a File."""
    fv = _fv(tmp_path)
    key = _key(_node(), {"f": fv})
    cache = ResultCache(str(tmp_path / "cache"))
    cache.store(key, {"out": fv}, "run")
    cache_entries(cache.cache_dir, {key: json.dumps(entry)})
    assert cache.lookup(key, ["out"]) is None
    assert key not in cache_entries(cache.cache_dir)
    assert "evicting" in caplog.text


def test_an_index_of_the_older_shape_is_dropped_and_its_keys_miss_once(
        tmp_path, caplog):
    """An ``ac(key TEXT, entry TEXT)`` index opens with no warning: its
    table is dropped and its pages freed, and its keys miss and are
    stored again."""
    small = _fv(tmp_path, "small.txt", "small\n")
    key = _key(_node(), {"f": small})
    (tmp_path / "cache").mkdir()
    index = str(tmp_path / "cache" / "ac.sqlite")
    db = sqlite3.connect(index)
    with db:
        db.execute("CREATE TABLE ac (key TEXT PRIMARY KEY,"
                   " entry TEXT NOT NULL) WITHOUT ROWID")
        stored = dict(small.to_json(include_path=False), mode=0o644,
                      inline=base64.b64encode(b"small\n").decode())
        db.execute("INSERT INTO ac VALUES (?, ?)", (key, json.dumps(
            {"outputs": {"out": stored}, "createdAt": 0.0,
             "sourceRunId": "old"})))
    db.close()
    cache = ResultCache(str(tmp_path / "cache"))
    assert cache.lookup(key) is None
    cache.store(key, {"out": small}, "run")
    assert cache.lookup(key)["out"].checksum == small.checksum
    cache.close()
    db = sqlite3.connect(index)
    try:
        tables = db.execute("SELECT name FROM sqlite_master").fetchall()
        (free,) = db.execute("PRAGMA freelist_count").fetchone()
    finally:
        db.close()
    assert tables == [("entries",)]
    assert free == 0  # vacuumed: the dropped table's pages are returned
    assert list(cache_entries(cache.cache_dir)) == [key]
    assert caplog.text == ""


def test_store_failure_degrades_to_warning(tmp_path, caplog):
    fv = _fv(tmp_path)
    key = _key(_node(), {"f": fv})
    blocked = tmp_path / "cache"
    blocked.write_text("a file where the cache dir should be")
    cache = ResultCache(str(blocked))
    cache.store(key, {"out": fv}, "run")  # must not raise
    assert cache.lookup(key) is None


def test_index_that_cannot_be_opened_degrades_to_warning(tmp_path, caplog):
    fv = _fv(tmp_path)
    key = _key(_node(), {"f": fv})
    cache = ResultCache(str(tmp_path / "cache"))
    os.makedirs(cache.index_path)  # a directory where the index goes
    cache.store(key, {"out": fv}, "run")  # must not raise
    assert cache.lookup(key) is None
    assert "cache index unusable" in caplog.text


def test_key_changes_with_step_clauses_and_resources(tmp_path):
    from miniwfl.model import CLAUSE_INITIAL_WORKDIR
    fv = _fv(tmp_path)

    def workdir(text):
        return [Clause(CLAUSE_INITIAL_WORKDIR, {"listing": [
            {"entryname": "cfg.txt", "entry": text}]})]

    keys = {
        _key(_node(workdir("alpha")), {"f": fv}),
        _key(_node(workdir("beta")), {"f": fv}),
        _key(_node(), {"f": fv}, resources={"coresMin": 1}),
        _key(_node(), {"f": fv}, resources={"coresMin": 2}),
    }
    assert len(keys) == 4


def _run_workflow(raw, job, tmp_path, cache, parallelism=1):
    from miniwfl.runtime import LocalRuntime
    graph = planner.plan(parser.parse_raw(raw), job)
    runtime = LocalRuntime(str(tmp_path / "work"), use_containers=False)
    cfg = scheduler.RunConfig(parallelism=parallelism)
    return scheduler.run(graph, cfg, scheduler.Services(runtime, cache),
                         "run")


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
    key = _key(_node(), {"f": fv})
    cache = ResultCache(str(tmp_path / "cache"))
    cache.store(key, {"out": fv}, "run")
    assert os.path.samefile(_entry_payload(cache.cache_dir, key), fv.path)


def _refuse_links(monkeypatch):
    import errno

    def cross_device(src, dst, **kwargs):
        raise OSError(errno.EXDEV, "Invalid cross-device link")

    monkeypatch.setattr(os, "link", cross_device)


def test_payload_is_copied_where_links_fail(tmp_path, monkeypatch):
    _refuse_links(monkeypatch)
    fv = _fv(tmp_path)
    key = _key(_node(), {"f": fv})
    cache = ResultCache(str(tmp_path / "cache"))
    cache.store(key, {"out": fv}, "run")
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
    key = _key(node, {"f": fv})
    cache = ResultCache(str(tmp_path / "cache"))
    cache.store(key, result.outputs, "run")
    assert cache.lookup(key)["out"].checksum == fv.checksum
    with open(result.outputs["out"].path, "w") as fh:  # in place, same inode
        fh.write("edited under .work\n")
    assert cache.lookup(key) is None
    assert key not in cache_entries(cache.cache_dir)


def test_scatter_keys_each_shard_once_and_stores_on_workers(tmp_path,
                                                            monkeypatch):
    import threading

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


def test_a_second_store_of_a_key_with_other_bytes_links_no_blob(tmp_path):
    """Only the store that inserts a key's entry links its payload files:
    the one that finds an entry leaves no blob that no entry names."""
    cache = ResultCache(str(tmp_path / "cache"))
    key = _key(_node(), {})
    first = _fv(tmp_path, "one.txt", STUFF)
    cache.store(key, {"out": first}, "run")
    cache.store(key, {"out": _fv(tmp_path, "two.txt", STUFF + "two\n")},
                "run")
    assert os.listdir(cache.cas_dir) == [first.checksum]
    assert cache.lookup(key)["out"].checksum == first.checksum
    cache.close()


def test_a_store_whose_link_fails_leaves_no_entry_and_no_blob(tmp_path,
                                                              caplog):
    """A payload file that cannot be placed rolls the entry back, and the
    payload files the store placed before it are removed."""
    cache = ResultCache(str(tmp_path / "cache"))
    key = _key(_node(), {})
    gone = _fv(tmp_path, "gone.txt", STUFF + "gone\n")
    os.remove(gone.path)
    cache.store(key, {"a": _fv(tmp_path, "a.txt"), "b": gone}, "run")
    assert "cache store failed" in caplog.text
    assert cache.lookup(key) is None
    assert os.listdir(cache.cas_dir) == []
    cache.store(key, {"a": _fv(tmp_path, "a.txt")}, "run")  # and again
    assert cache.lookup(key) is not None
    cache.close()


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
    cache = ResultCache(str(cache_dir))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = _run_workflow(raw, {"xs": [STUFF] * 16}, tmp_path, cache,
                               parallelism=8)
    finally:
        sys.setswitchinterval(interval)
    assert result.status == "Success"
    assert {open(fv.path).read() for fv in result.outputs["outs"]} \
        == {STUFF + "\n"}
    cache.close()
    assert sorted(os.listdir(cache_dir)) == ["ac.sqlite", "cas"]
    (key,) = cache_entries(str(cache_dir))  # one entry
    assert key == result.tasks["fan[0]"].key
    (blob,) = os.listdir(cache_dir / "cas")
    assert blob == file_checksum(str(cache_dir / "cas" / blob))


def _listing(cache_dir):
    """The keys in the index and the blobs in ``cas/``."""
    return {"ac": set(cache_entries(cache_dir)),
            "cas": set(os.listdir(os.path.join(cache_dir, "cas")))}


def test_store_adds_one_entry_file_and_only_absent_blobs(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    shared = _fv(tmp_path, "shared.txt", "shared\n" + STUFF)
    cache.store(_key(_node(), {"f": shared}), {"out": shared}, "run")
    before = _listing(cache.cache_dir)
    fresh = _fv(tmp_path, "fresh.txt", "fresh\n" + STUFF)
    key = _key(_node(), {"f": fresh})
    cache.store(key, {"a": shared, "b": [fresh, fresh]}, "run")
    after = _listing(cache.cache_dir)
    assert after["ac"] - before["ac"] == {key}
    assert after["cas"] - before["cas"] == {fresh.checksum}
    assert before["ac"] <= after["ac"] and before["cas"] <= after["cas"]


def _same_bytes_twice(tmp_path, monkeypatch=None):
    """Store two keys whose outputs hold equal bytes; return the blob's
    (inode, size, mtime) before and after the second store, which refuses
    hard links when ``monkeypatch`` is given."""
    cache = ResultCache(str(tmp_path / "cache"))
    first = _fv(tmp_path, "first.txt")
    second = _fv(tmp_path, "second.txt")
    cache.store(_key(_node(), {"f": first}), {"out": first}, "run")
    blob = os.path.join(cache.cache_dir, "cas", first.checksum)

    def signature():
        st = os.stat(blob)
        return st.st_ino, st.st_size, st.st_mtime_ns

    if monkeypatch is not None:
        _refuse_links(monkeypatch)
    os.utime(blob, ns=(0, 0))  # a rewrite would move the mtime off zero
    seen = signature()
    key = _key(_node(tool=parser.parse_raw(
        dict(TOOL_RAW, baseCommand=["tac"])).body), {"f": second})
    cache.store(key, {"out": second}, "run")
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
    key = _key(_node(), {"f": fv})
    cache = ResultCache(str(tmp_path / "cache"))
    cache.store(key, {"out": fv}, "run")
    with open(fv.path, "w") as fh:  # the blob is a link to this file
        fh.write("edited\n")
    assert cache.lookup(key) is None
    assert _listing(cache.cache_dir) == {"ac": set(), "cas": set()}
    again = _fv(tmp_path, "again.txt")  # the original bytes, a new file
    cache.store(key, {"out": again}, "run")
    assert cache.lookup(key)["out"].checksum == fv.checksum
    assert os.path.samefile(_entry_payload(cache.cache_dir, key), again.path)


def _inodes_by_name(root):
    """{path relative to ``root``: inode} of everything under ``root``."""
    found = {}
    for directory, dirs, files in os.walk(root):
        for name in dirs + files:
            path = os.path.join(directory, name)
            found[os.path.relpath(path, root)] = os.lstat(path).st_ino
    return found


def test_first_store_makes_cas_and_the_index_and_later_stores_no_inode(
        tmp_path, monkeypatch):
    made = []
    real_mkdir = os.mkdir

    def counting_mkdir(path, *args, **kwargs):
        if not os.path.exists(path):  # a directory made, not one probed
            made.append(os.path.relpath(path, str(tmp_path)))
        return real_mkdir(path, *args, **kwargs)

    cache = ResultCache(str(tmp_path / "cache"))
    (tmp_path / "cache").mkdir()
    monkeypatch.setattr(os, "mkdir", counting_mkdir)
    index = {"ac.sqlite", "ac.sqlite-wal", "ac.sqlite-shm"}
    for n in range(3):
        fv = _fv(tmp_path, f"in{n}.txt", f"content {n}\n" + STUFF)
        # the blob will be a link to the output: a new name, not an inode
        before = {os.stat(fv.path).st_ino}
        before.update(_inodes_by_name(cache.cache_dir).values())
        cache.store(_key(_node(), {"f": fv}), {"out": fv, "xs": [fv]}, "run")
        added = {name for name, ino in _inodes_by_name(cache.cache_dir).items()
                 if ino not in before}
        assert added == ({"cas"} | index if n == 0 else set())
        assert made == [os.path.join("cache", "cas")]
    cache.close()  # the last connection takes -wal and -shm with it
    assert sorted(os.listdir(cache.cache_dir)) == ["ac.sqlite", "cas"]


def test_warm_run_publishes_hits_by_link_alone(tmp_path, monkeypatch):
    """Six hits over two distinct blobs: no copy, one directory for all
    hits, and one link per blob."""
    from miniwfl.runtime import LocalRuntime
    lines = _INLINE_MAX // 2 + 1  # each output a cas/ payload file
    tool = {"cwlVersion": "v1.2", "class": "CommandLineTool",
            "baseCommand": ["sh", "-c",
                            f"yes `expr $0 % 2` | head -n {lines}"],
            "inputs": [{"id": "x", "type": "int", "position": 1}],
            "outputs": [{"id": "out", "type": "File", "capture": "stdout"}],
            "stdout": "out.txt"}
    raw = {"cwlVersion": "v1.2", "class": "Workflow",
           "inputs": [{"id": "xs", "type": "int[]"}],
           "outputs": [{"id": "o", "type": "File[]",
                        "outputSource": "mod/out"}],
           "requirements": [{"class": "ScatterFeatureRequirement"}],
           "steps": [{"id": "mod", "run": tool, "in": {"x": "xs"},
                      "scatter": "x"}]}
    graph = planner.plan(parser.parse_raw(raw), {"xs": [1, 2, 3, 4, 5, 6]})
    cache = ResultCache(str(tmp_path / "cache"))

    def run():
        runtime = LocalRuntime(str(tmp_path / "work"), use_containers=False)
        return runtime, lambda: scheduler.run(
            graph, scheduler.RunConfig(parallelism=2),
            scheduler.Services(runtime, cache), "run")

    cold = run()[1]()
    assert cold.status == "Success"
    runtime, warm = run()
    copies = _count(monkeypatch, shutil, "copyfile")
    mkdirs = _count(monkeypatch, os, "mkdir")
    links = _count(monkeypatch, os, "link")
    result = warm()
    assert [result.tasks[f"mod[{i}]"].state for i in range(6)] \
        == ["Cached"] * 6
    assert [open(fv.path).read() for fv in result.outputs["o"]] \
        == ["1\n" * lines, "0\n" * lines] * 3
    assert copies == []
    assert mkdirs == [runtime.cached_dir]
    assert len(links) == len({fv.checksum for fv in result.outputs["o"]}) == 2


def test_small_hits_are_written_only_where_they_are_read(tmp_path):
    """A hit's inline payload becomes a file only for a task that runs on
    it or for a workflow output: a warm run writes the gather's output
    alone, and a run whose gather changed writes the shards' too."""
    from miniwfl.runtime import LocalRuntime
    echo = {"cwlVersion": "v1.2", "class": "CommandLineTool",
            "baseCommand": ["echo"],
            "inputs": [{"id": "i", "type": "int", "position": 1}],
            "outputs": [{"id": "out", "type": "File", "capture": "stdout"}],
            "stdout": "out.txt"}

    def run(gather):
        tool = {"cwlVersion": "v1.2", "class": "CommandLineTool",
                "baseCommand": gather,
                "inputs": [{"id": "parts", "type": "File[]",
                            "position": 1}],
                "outputs": [{"id": "all", "type": "File",
                             "capture": "stdout"}],
                "stdout": "all.txt"}
        raw = {"cwlVersion": "v1.2", "class": "Workflow",
               "inputs": [{"id": "idx", "type": "int[]"}],
               "outputs": [{"id": "all", "type": "File",
                            "outputSource": "gather/all"}],
               "steps": [{"id": "fan", "run": echo, "in": {"i": "idx"},
                          "scatter": ["i"]},
                         {"id": "gather", "run": tool,
                          "in": {"parts": "fan/out"}}]}
        runtime = LocalRuntime(str(tmp_path / "work"), use_containers=False)
        result = scheduler.run(
            planner.plan(parser.parse_raw(raw), {"idx": [3, 1, 2]}),
            scheduler.RunConfig(parallelism=2),
            scheduler.Services(runtime, cache), "run")
        assert Path(result.outputs["all"].path).read_text() == "3\n1\n2\n"
        states = {tid: task.state for tid, task in result.tasks.items()}
        written = (os.listdir(runtime.cached_dir)
                   if os.path.isdir(runtime.cached_dir) else [])
        return states, sorted(written)

    cache = ResultCache(str(tmp_path / "cache"))
    assert run(["cat"])[1] == []
    states, written = run(["cat"])
    assert set(states.values()) == {"Cached"}
    (stored,) = [json.loads(e) for e in cache_entries(cache.cache_dir).values()
                 if "all" in json.loads(e)]
    assert written == [stored["all"]["checksum"]]
    states, written = run(["cat", "--"])  # another gather: it runs
    assert (states["fan"], states["gather"]) == ("Cached", "Succeeded")
    assert written == sorted(hashlib.sha256(f"{i}\n".encode()).hexdigest()
                             for i in (3, 1, 2))


def test_index_error_on_the_coordinator_is_a_miss_and_a_warning(
        tmp_path, monkeypatch, caplog):
    import threading
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
    cache = ResultCache(str(tmp_path / "cache"))
    assert _run_workflow(raw, {"idx": [1, 2, 3]}, tmp_path,
                         cache).status == "Success"
    cache.close()
    connect, refused_on = sqlite3.connect, []

    class Locked:
        """A connection whose every SELECT finds the index locked."""

        def __init__(self, *args, **kwargs):
            self.db = connect(*args, **kwargs)

        def execute(self, sql, params=()):
            if sql.startswith("SELECT"):
                refused_on.append(threading.get_ident())
                raise sqlite3.OperationalError("database is locked")
            return self.db.execute(sql, params)

        def close(self):
            self.db.close()

    from miniwfl.runtime import LocalRuntime
    run_task, workers = LocalRuntime.run_task, {threading.get_ident()}

    def recording_run_task(self, *args):
        workers.add(threading.get_ident())
        return run_task(self, *args)

    monkeypatch.setattr(sqlite3, "connect", Locked)
    monkeypatch.setattr(LocalRuntime, "run_task", recording_run_task)
    result = _run_workflow(raw, {"idx": [1, 2, 3]}, tmp_path, cache)
    assert result.status == "Success"
    assert [result.tasks[f"fan[{i}]"].state for i in range(3)] \
        == ["Succeeded"] * 3
    # each on the caller's thread or on a worker of this run, which admits
    assert len(refused_on) == 3 and set(refused_on) <= workers
    assert caplog.text.count("database is locked") == 3


# --- a payload's signature stands in for its hash ---------------------------

# (output bytes, aged 3 s before it is loaded, links allowed at store, change
# to the payload after the store, "sig" in the row, payload files hashed by
# the lookup, hit)
LOOKUP_TRUST = {
    "old-mtime": (STUFF, True, True, None, True, 0, True),
    "written-just-now": (STUFF, False, True, None, False, 1, True),
    "touch": (STUFF, True, True, lambda b, fv: os.utime(b), True, 1, True),
    "chmod": (STUFF, True, True, flip_exec_bit, True, 1, True),
    "same-size-rewrite": (STUFF, True, True,
                          lambda b, fv: Path(b).write_text(STUFF), True, 1,
                          True),
    "edited": (STUFF, True, True,
               lambda b, fv: Path(b).write_text(STUFF.upper()), True, 1,
               False),
    "growth-with-forged-mtime": (STUFF, True, True, grow_with_forged_mtime,
                                 True, 1, False),
    "links-refused": (STUFF, True, False, None, False, 1, True),
    # checked by a hash of its decoded bytes, never of a file
    "inline": ("small\n", True, True, None, False, 0, True),
}


@pytest.mark.parametrize("case", sorted(LOOKUP_TRUST))
def test_lookup_hashes_a_payload_only_where_its_signature_moved(
        tmp_path, monkeypatch, case):
    content, aged, links, change, signed, hashes, hit = LOOKUP_TRUST[case]
    source = tmp_path / "out.txt"
    source.write_text(content)
    if aged:
        age(source)
    fv = FileValue.from_path(str(source))
    key = _key(_node(), {"f": fv})
    cache = ResultCache(str(tmp_path / "cache"))
    if not links:
        _refuse_links(monkeypatch)
    cache.store(key, {"out": fv}, "run")
    stored = json.loads(cache_entries(cache.cache_dir)[key])["out"]
    assert ("sig" in stored) is signed
    if change is not None:
        change(_entry_payload(cache.cache_dir, key), fv)
    calls = _count(monkeypatch, cache_module, "file_checksum")
    found = cache.lookup(key)
    assert len(calls) == hashes
    assert (found is not None) is hit
    if hit:
        # the hit's signature stands in for a hash while lstat finds it
        assert found["out"].unchanged() is (signed and hashes == 0)


SLICE = 128 * 1024  # more bytes than an entry holds inline


def _slices_workflow(gather=None):
    """Six shards cut a slice each out of one File input; ``gather``, a
    command, concatenates them."""
    cut = {"cwlVersion": "v1.2", "class": "CommandLineTool",
           "baseCommand": ["sh", "-c", f'dd if="$0" of=slice.bin bs={SLICE}'
                           ' skip="$1" count=1 2>/dev/null'],
           "inputs": [{"id": "data", "type": "File", "position": 1},
                      {"id": "index", "type": "int", "position": 2}],
           "outputs": [{"id": "slice", "type": "File", "glob": "slice.bin"}]}
    raw = {"cwlVersion": "v1.2", "class": "Workflow",
           "inputs": [{"id": "data", "type": "File"},
                      {"id": "indices", "type": "int[]"}],
           "outputs": [{"id": "slices", "type": "File[]",
                        "outputSource": "cut/slice"}],
           "requirements": [{"class": "ScatterFeatureRequirement"}],
           "steps": [{"id": "cut", "run": cut, "scatter": "index",
                      "in": {"data": "data", "index": "indices"}}]}
    if gather is not None:
        raw["outputs"] = [{"id": "all", "type": "File",
                           "outputSource": "gather/all"}]
        raw["steps"].append({"id": "gather", "in": {"parts": "cut/slice"},
                             "run": {
            "cwlVersion": "v1.2", "class": "CommandLineTool",
            "baseCommand": gather,
            "inputs": [{"id": "parts", "type": "File[]", "position": 1}],
            "outputs": [{"id": "all", "type": "File", "capture": "stdout"}],
            "stdout": "all.bin"}})
    return parser.parse_raw(raw)


def _hashed_bytes(monkeypatch):
    """Bytes hashed by each module: planner's are the job-order load's and
    collect's, runtime's the input store's, cache's the lookups'."""
    hashed = Counter()
    for module in (planner, runtime, cache_module):
        def counted(path, name=module.__name__.rsplit(".", 1)[1],
                    real=module.file_checksum):
            hashed[name] += os.path.getsize(path)
            return real(path)

        monkeypatch.setattr(module, "file_checksum", counted)
    return hashed


def _sliced(tmp_path, monkeypatch, gather=None):
    """A 1 MiB job-order input, written 3 s back; the bytes hashed per
    module while it loads; and a function that runs the slicing workflow
    with ``gather`` on one cache and returns the result."""
    data = tmp_path / "data.bin"
    data.write_bytes(random.Random(7).randbytes(1 << 20))
    age(data)
    hashed = _hashed_bytes(monkeypatch)
    doc = _slices_workflow(gather)
    job = planner.load_job_order({"data": "data.bin",
                                  "indices": list(range(6))},
                                 doc.body, base_dir=str(tmp_path))
    cache = ResultCache(str(tmp_path / "cache"))

    def run(gather):
        rt = runtime.LocalRuntime(str(tmp_path / "work"),
                                  use_containers=False)
        try:
            result = scheduler.run(
                planner.plan(_slices_workflow(gather), job),
                scheduler.RunConfig(parallelism=2),
                scheduler.Services(rt, cache), "run")
        finally:
            rt.close()
        assert result.status == "Success"
        return result

    return hashed, cache, run


def test_data_plane_hashes_each_input_once_and_no_signed_payload(
        tmp_path, monkeypatch):
    """Counts, not times: a cold run hashes the job-order input at load
    and each shard's slice at collect, and nothing else; a warm run on its
    cache hashes nothing."""
    hashed, cache, run = _sliced(tmp_path, monkeypatch)
    assert hashed == {"planner": 1 << 20}  # the job-order load
    hashed.clear()
    cold = run(None)
    assert [cold.tasks[f"cut[{i}]"].state for i in range(6)] \
        == ["Succeeded"] * 6
    assert hashed == {"planner": 6 * SLICE}  # collect; staging hashes none
    entries = [json.loads(e) for e in cache_entries(cache.cache_dir).values()]
    assert len(entries) == 6
    assert all("sig" in e["slice"] for e in entries)
    hashed.clear()
    warm = run(None)
    assert [warm.tasks[f"cut[{i}]"].state for i in range(6)] \
        == ["Cached"] * 6
    assert hashed == {}  # no lookup hashed a signed payload
    assert [fv.checksum for fv in warm.outputs["slices"]] \
        == [fv.checksum for fv in cold.outputs["slices"]]


def test_partly_warm_run_stages_the_hits_it_reads_without_hashing(
        tmp_path, monkeypatch):
    hashed, cache, run = _sliced(tmp_path, monkeypatch, ["cat"])
    cold = run(["cat"])
    hashed.clear()
    copies = _count(monkeypatch, shutil, "copyfile")
    changed = run(["cat", "--"])  # another gather: it runs on six hits
    assert [changed.tasks[f"cut[{i}]"].state for i in range(6)] \
        == ["Cached"] * 6
    assert changed.tasks["gather"].state == "Succeeded"
    assert changed.outputs["all"].checksum == cold.outputs["all"].checksum
    # the gather's collect alone hashes; neither its staging nor a lookup
    assert hashed == {"planner": 6 * SLICE}
    # each hit is still copied into the run's input store
    assert len(copies) == 6
