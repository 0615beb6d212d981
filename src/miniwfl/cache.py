"""Content-addressed result reuse.

Keys are built from what an execution *is* — tool digest, input contents
and basenames, every effective requirement and hint (step-level overrides
included) and the resolved resources — never from directories,
timestamps, or host names.  Layout on disk: ``ac.sqlite`` is the index,
one SQLite table ``entries`` with one row per entry: the raw bytes of its
hex ``key`` and of the ``run`` id that stored it (hex text everywhere but
the index), the store time ``at`` in whole seconds, and the compact JSON
of its ``outputs``, where every mapping is a File, without ``"class"``;
``cas/<sha256>`` is one payload file, named by its checksum and shared by
every entry holding those bytes.  An older ``ac`` table is dropped, and
the file vacuumed, when the index is opened; the older ``ac/<key>.json``
and ``<first-2-hex>/<key>/`` layouts are never read: their entries miss.

A payload takes one of two forms, chosen by its size.  A File output of
at most ``_INLINE_MAX`` bytes is stored in its entry, base64 under
``"inline"`` and its mode bits under ``"mode"``, with no ``"size"`` (the
decoded length), in the manner of Bazel's inlined action outputs: a file
of its own would cost a whole filesystem block, and its base64 fits in
one.  A larger one is a ``cas/`` payload file.

The index runs in WAL mode, so one process's readers never wait for
another's writer, and a ``ResultCache`` holds one connection, opened on
first use and shared by the coordinator and the workers under one lock.
``close`` closes it; the last connection closed removes ``-wal`` and
``-shm``.  The index never fails a run: an index that is not a database,
or is malformed, is made again with a warning, and any other SQLite error
makes a lookup a miss and a store a warning.

Payload files are hard links to the outputs the run collected under its
``.work`` directory (copies where the cache sits on another filesystem).
A hit is published as ``.work/.run-<id>/cached/<sha256>``: a link to its
payload file, or a file written from its inline bytes once something is
to read it (see materialize).  Stage-out links both kinds into
``--outdir``, so a large output is one inode across ``.work``, ``cas/``
and ``--outdir``, and an edit to any of those names changes them all; an
inline payload is a copy that no such edit reaches.
``lookup`` therefore checks every payload on each hit, and evicts an
entry that no longer matches along with the payload file that failed; an
entry that is not JSON of the shape ``store`` writes is evicted as well.
It hashes the decoded inline bytes, and a payload file unless the entry
holds the file's signature under ``"sig"`` (see planner.file_signature)
and ``lstat`` still finds it.  A store writes ``"sig"`` only where the
payload file is the collected output's own inode and still has the
signature collect stamped on it, so that any write since moves it; a
payload copied because a link failed is hashed on every hit.  A hit
carries the signature on, so that a task reading it does not hash it
again (see runtime._fill).
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import json
import os
import pathlib
import stat
import threading
import time
from typing import Optional

from . import model, parser
from .model import replace
from .planner import _INLINE_MAX, FileValue, TaskNode, file_checksum, map_files
from .runtime import place_file, write_atomically

_BUSY_TIMEOUT_S = 10.0  # how long a statement waits on another's lock
_SCHEMA = ("PRAGMA journal_mode=WAL", "PRAGMA synchronous=NORMAL",
           "CREATE TABLE IF NOT EXISTS entries (key BLOB PRIMARY KEY,"
           " run BLOB, at INTEGER, outputs TEXT NOT NULL) WITHOUT ROWID")
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _value_fingerprint(value):
    """Location-independent canonical form: Files by content and basename,
    which a tool sees through ``inputs.x.basename`` and its staged path."""
    return map_files(value, lambda fv: {"file": {
        "checksum": fv.checksum, "size": fv.size, "basename": fv.basename}})


def digest_tool(tool) -> str:
    """SHA-256 of the tool's canonical serialization."""
    return parser.canonical_digest(model.Document(version="v1.2", body=tool))


def cache_key(node: TaskNode, bindings: dict, tool_digest: str,
              resources: dict) -> Optional[str]:
    """Key for one concrete execution, or None where
    WorkReuse(enableReuse: false) turns reuse off.

    ``tool_digest`` is ``digest_tool(node.tool)``; ``resources`` are the
    unit's resolved resource values, which reach the command line through
    ``runtime.cores`` and ``runtime.ram``.
    """
    clause = node.clause(model.CLAUSE_WORK_REUSE)
    if clause is not None and clause.payload.get("enableReuse", True) is False:
        return None
    # requirements before hints, step overrides before tool clauses: the
    # order node.clause() resolves them in
    clauses = [{"kind": c.kind, "payload": c.payload}
               for c in node.requirements + node.hints]
    return parser.digest_data({
        "tool": tool_digest,
        "inputs": parser.digest_data(
            {k: _value_fingerprint(v) for k, v in bindings.items()}),
        "env": parser.digest_data(
            {"clauses": clauses, "resources": resources}),
    })


class _Inline(FileValue):
    """A hit's inline payload: its bytes and mode bits, held from lookup
    until they are written to a file (see materialize), and no path until
    republish gives it one."""

    data: bytes = b""
    mode: int = 0o644


def _raw(hex_id: str) -> bytes:
    """A hex key or run id as the index holds it (UTF-8 if not hex)."""
    try:
        return bytes.fromhex(hex_id)
    except ValueError:
        return hex_id.encode()


def _entry_to_value(value, cas_dir):
    if isinstance(value, dict):  # a File: the one mapping an entry holds
        described = {"basename": value["basename"],
                     "checksum": value["checksum"],
                     "format": value.get("format")}
        if "inline" in value:
            data = base64.b64decode(value["inline"], validate=True)
            return _Inline(path="", data=data, size=len(data),
                           mode=stat.S_IMODE(value["mode"]), **described)
        # basename: a tampered entry cannot name a path outside cas/
        return FileValue(path=os.path.join(
            cas_dir, os.path.basename(value["checksum"])),
            size=value["size"],
            signature=tuple(value["sig"]) if "sig" in value else None,
            **described)
    if isinstance(value, list):
        return [_entry_to_value(v, cas_dir) for v in value]
    return value


def _intact(fv: FileValue) -> bool:
    """Whether a hit's payload still holds the bytes its entry names: its
    signature stands in for a hash while ``lstat`` finds it."""
    if isinstance(fv, _Inline):
        return hashlib.sha256(fv.data).hexdigest() == fv.checksum
    if fv.unchanged():
        return True
    try:
        return file_checksum(fv.path) == fv.checksum
    except OSError:  # missing, not a file, or unreadable
        return False


def _write(path: str, data: bytes, mode: int):
    pathlib.Path(path).write_bytes(data)
    os.chmod(path, mode)


def _same_inode(blob: str, name: str) -> bool:
    """Whether ``name`` itself, not a symlink's target, is ``blob``'s inode."""
    try:
        return os.path.samestat(os.stat(blob), os.lstat(name))
    except OSError:
        return False


def _warn(message: str, *args):
    import logging  # here: runs whose cache works never load it
    logging.getLogger(__name__).warning(message, *args)


def _damaged(exc) -> bool:
    """Whether SQLite found the index file not a database, or malformed."""
    code = getattr(exc, "sqlite_errorcode", None)  # Python 3.11 and later
    if code is None:
        return "malformed" in str(exc) or "not a database" in str(exc)
    return code & 0xFF in (11, 26)  # SQLITE_CORRUPT, SQLITE_NOTADB


class ResultCache:
    """Filesystem-backed store of successful task outputs."""

    def __init__(self, cache_dir: str):
        self.cache_dir = os.path.abspath(cache_dir)
        self.index_path = os.path.join(self.cache_dir, "ac.sqlite")
        self.cas_dir = os.path.join(self.cache_dir, "cas")
        self._db = None  # the index's connection, on first use
        self._lock = threading.Lock()  # around every use of _db
        self._made = False  # cas/, on the first payload file stored
        self._published = set()  # directories republish has made
        # path -> (bytes, mode) of each inline hit that republish published
        # and materialize has not written yet, under _writing
        self._unwritten = {}
        self._writing = threading.Lock()

    def _execute(self, sql: str, params: tuple) -> Optional[list]:
        """Run one statement on the index and return its rows; None, with
        a warning, where the index cannot be used."""
        return self._use(lambda db: db.execute(sql, params).fetchall())

    def _use(self, work):
        """Return ``work(connection)``, called under the lock on the index,
        made again where it is damaged; None, with a warning, where the
        index cannot be used."""
        import sqlite3  # here: runs without reuse never load it
        with self._lock:
            try:
                try:
                    return work(self._connection(sqlite3))
                except sqlite3.DatabaseError as exc:
                    if not _damaged(exc):
                        raise
                    _warn("cache index damaged, making it again: %s: %s",
                          self.index_path, exc)
                    self._discard()
                    return work(self._connection(sqlite3))
            except (OSError, sqlite3.Error) as exc:
                _warn("cache index unusable (continuing): %s: %s",
                      self.index_path, exc)
                return None

    def _connection(self, sqlite3):
        """The index's connection, opened first where it is not."""
        if self._db is None:
            os.makedirs(self.cache_dir, exist_ok=True)
            db = sqlite3.connect(self.index_path, timeout=_BUSY_TIMEOUT_S,
                                 isolation_level=None,  # autocommit
                                 check_same_thread=False)
            try:
                for statement in _SCHEMA:
                    db.execute(statement)
                if db.execute("PRAGMA table_info(ac)").fetchall():  # older
                    db.executescript("DROP TABLE IF EXISTS ac; VACUUM")
            except BaseException:
                db.close()
                raise
            self._db = db
        return self._db

    def _discard(self):
        """Close the index and remove its files, to be made again."""
        self._close()
        for suffix in ("", "-wal", "-shm"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.index_path + suffix)

    def _close(self):
        db, self._db = self._db, None
        if db is not None:
            db.close()

    def close(self):
        """Close the index; a later use opens it again."""
        with self._lock:
            self._close()

    def lookup(self, key: Optional[str], output_ids=None):
        """Verified outputs for a key, or None; always None without a key.

        Entries not of the shape ``store`` writes (for ``output_ids``, the
        tool's, where given), or whose payloads are missing, unreadable or
        corrupt, are evicted and reported as misses.  An inline payload's
        File carries its verified bytes for ``republish`` to give a path.
        """
        if key is None:
            return None
        rows = self._execute("SELECT outputs FROM entries WHERE key = ?",
                             (_raw(key),))
        if not rows:
            return None
        try:
            outputs = {out_id: _entry_to_value(stored, self.cas_dir)
                       for out_id, stored in json.loads(rows[0][0]).items()}
            if output_ids is not None and outputs.keys() != set(output_ids):
                raise KeyError(f"outputs {sorted(outputs)}")
        except (ValueError, AttributeError, KeyError, TypeError) as exc:
            _warn("cache entry unreadable, evicting: %s: %r", key, exc)
            self.evict(key)
            return None

        files = []
        map_files(list(outputs.values()), files.append)
        for fv in files:
            if not _intact(fv):
                _warn("cache entry corrupt, evicting: %s", key)
                self.evict(key)
                if not isinstance(fv, _Inline):
                    with contextlib.suppress(OSError):
                        # so that a later store links a good copy
                        os.remove(fv.path)
                return None
        return outputs

    def store(self, key: Optional[str], outputs: dict, source_run_id: str,
              contents: Optional[dict] = None):
        """Persist outputs under a key, if there is one.  The first entry
        stored for a key wins, and only the store that inserts it links
        its payload files, before the entry commits, in one transaction:
        so an entry never names a missing file, and a store that loses, or
        fails, leaves no payload file that no entry names.  A File of at
        most ``_INLINE_MAX`` bytes goes in the entry: the bytes collect
        read and hashed (``contents``, by path) while its signature holds,
        else read again and checked against its collected checksum.  The
        row's ``run`` is ``source_run_id``.  A payload file that
        is the output's own inode and still has its collected signature
        gets that signature in the entry (``"sig"``), which stands in for
        the hash at lookup.  Failures degrade to a warning."""
        linked = []  # (output, its stored form) of each payload file

        def persist(fv):
            stored = fv.to_json(include_path=False)
            del stored["class"]  # every mapping in an entry is a File
            if fv.size <= _INLINE_MAX:
                data = (contents or {}).get(fv.path)
                if data is not None and fv.unchanged():
                    mode = fv.signature[3]  # and collect hashed these bytes
                else:  # read again
                    with open(fv.path, "rb") as fh:
                        data = fh.read(_INLINE_MAX + 1)
                        mode = os.fstat(fh.fileno()).st_mode
                    if hashlib.sha256(data).hexdigest() != fv.checksum:
                        raise ValueError(f"output changed since it was "
                                         f"collected: {fv.path}")
                del stored["size"]  # the decoded length
                stored["mode"] = stat.S_IMODE(mode)
                stored["inline"] = base64.b64encode(data).decode("ascii")
                return stored
            linked.append((fv, stored))  # a payload file, for insert
            return stored

        def row():  # encoded last: insert gives payload files their "sig"
            return (_raw(key), _raw(source_run_id), int(time.time()),
                    _encode(entry))

        def insert(db):
            """Unless the key has an entry, link its payload files and
            insert it; returns the OSError that failed a link, once the
            transaction is rolled back and the files it made removed."""
            made = []
            db.execute("BEGIN IMMEDIATE")
            try:
                if not db.execute("SELECT 1 FROM entries WHERE key = ?",
                                  (_raw(key),)).fetchall():
                    if not self._made:
                        os.makedirs(self.cas_dir, exist_ok=True)
                        self._made = True
                    for fv, stored in linked:
                        blob = os.path.join(self.cas_dir, fv.checksum)
                        # else a blob holds these bytes already, and is kept
                        if place_file(fv.path, blob, link=True):
                            made.append(blob)
                        if fv.unchanged(blob):  # the output's own inode
                            stored["sig"] = list(fv.signature)
                    db.execute("INSERT INTO entries VALUES (?, ?, ?, ?)",
                               row())
                db.execute("COMMIT")
            except BaseException as exc:
                db.execute("ROLLBACK")
                for blob in made:
                    with contextlib.suppress(OSError):
                        os.remove(blob)
                if not isinstance(exc, OSError):
                    raise
                return exc
            return None

        if key is None:
            return
        try:
            entry = {k: map_files(v, persist) for k, v in outputs.items()}
            if not linked:
                self._execute("INSERT OR IGNORE INTO entries"
                              " VALUES (?, ?, ?, ?)", row())
            else:
                failed = self._use(insert)
                if failed is not None:
                    raise failed
        except (OSError, ValueError) as exc:
            _warn("cache store failed (continuing): %s", exc)

    def republish(self, outputs: dict, dest_dir: str) -> dict:
        """Publish a hit's verified payloads as ``<dest_dir>/<sha256>``, so
        that the run stays self-contained even if the cache is pruned
        later.  A payload file is hard-linked there (copied where the cache
        is on another filesystem); a name that is already a link to the
        blob is kept, and any other file there is replaced.  An inline
        payload's file is written from its bytes by ``materialize``, once
        something reads it: a hit whose bytes nothing reads costs no file,
        in the manner of Bazel's builds without the bytes.  Only each
        File's ``path`` changes, and ``dest_dir`` is made once, on its
        first use."""
        if dest_dir not in self._published:
            os.makedirs(dest_dir, exist_ok=True)
            self._published.add(dest_dir)

        def place(fv):
            target = os.path.join(dest_dir, fv.checksum)
            if isinstance(fv, _Inline):
                with self._writing:
                    self._unwritten[target] = (fv.data, fv.mode)
                return FileValue(path=target, basename=fv.basename,
                                 size=fv.size, checksum=fv.checksum,
                                 format=fv.format)
            if not _same_inode(fv.path, target):
                # a blob published earlier in this run may have been
                # edited, evicted and stored again as another inode
                write_atomically(target, lambda partial: place_file(
                    fv.path, partial, link=True))
            return replace(fv, path=target)

        return {k: map_files(v, place) for k, v in outputs.items()}

    def materialize(self, values):
        """Write the file of each File in ``values`` that ``republish``
        published from an inline payload and that is not written yet, so
        that it can be read; from any thread."""
        def write(fv):
            with self._writing:
                unwritten = self._unwritten.get(fv.path)
                if unwritten is not None:
                    write_atomically(fv.path, lambda partial: _write(
                        partial, *unwritten))
                    del self._unwritten[fv.path]

        if self._unwritten:  # each hit is published before its readers run
            map_files(list(values), write)

    def evict(self, key: str):
        """Remove the entry of ``key``, as for a miss found at lookup."""
        self._execute("DELETE FROM entries WHERE key = ?", (_raw(key),))
