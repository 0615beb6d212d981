"""Content-addressed result reuse.

Keys are built from what an execution *is* — tool digest, input contents
and basenames, every effective requirement and hint (step-level overrides
included) and the resolved resources — never from directories,
timestamps, or host names.  Layout on disk, two flat directories:
``ac/<key>.json`` is one entry, and ``cas/<sha256>`` one payload file,
named by its checksum and shared by every entry holding those bytes.
Entries of the older ``<first-2-hex>/<key>/`` layout are never read: they
miss, and can be deleted by hand.

Payload files are hard links to the outputs the run collected under its
``.work`` directory (copies where the cache sits on another filesystem).
A hit is published by link too, as ``.work/cached/<sha256>``, and stage-out
links both kinds into ``--outdir``: one output is one inode across
``.work``, ``cas/`` and ``--outdir``, so an edit to any of those names
changes them all.  ``lookup`` therefore re-hashes every payload file on
each hit, and evicts an entry that no longer matches along with the
payload file that failed; an entry that is not JSON of the shape ``store``
writes is evicted as well.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import time
from dataclasses import replace
from typing import Optional

from . import model, parser
from .planner import FileValue, TaskNode, file_checksum, map_files
from .runtime import link_or_copy, write_atomically

log = logging.getLogger(__name__)


def _value_fingerprint(value):
    """Location-independent canonical form: Files by content and basename,
    which a tool sees through ``inputs.x.basename`` and its staged path."""
    return map_files(value, lambda fv: {"file": {
        "checksum": fv.checksum, "size": fv.size, "basename": fv.basename}})


def digest_tool(tool) -> str:
    """SHA-256 of the tool's canonical serialization."""
    return parser.canonical_digest(model.Document(version="v1.2", body=tool))


def cache_key(node: TaskNode, bindings: dict,
              tool_digest: Optional[str] = None,
              resources: Optional[dict] = None) -> Optional[str]:
    """Key for one concrete execution, or None where
    WorkReuse(enableReuse: false) turns reuse off.

    ``tool_digest`` is ``digest_tool(node.tool)``, computed when not given;
    ``resources`` are the unit's resolved resource values, which reach the
    command line through ``runtime.cores`` and ``runtime.ram``.
    """
    clause = node.clause(model.CLAUSE_WORK_REUSE)
    if clause is not None and clause.payload.get("enableReuse", True) is False:
        return None
    # requirements before hints, step overrides before tool clauses: the
    # order node.clause() resolves them in
    clauses = [{"kind": c.kind, "payload": c.payload}
               for c in node.requirements + node.hints]
    return parser.digest_data({
        "tool": tool_digest or digest_tool(node.tool),
        "inputs": parser.digest_data(
            {k: _value_fingerprint(v) for k, v in bindings.items()}),
        "env": parser.digest_data(
            {"clauses": clauses, "resources": resources}),
    })


def _entry_to_value(value, cas_dir):
    if isinstance(value, dict) and value.get("class") == "File":
        return FileValue(
            # basename: a damaged entry cannot name a path outside cas/
            path=os.path.join(cas_dir, os.path.basename(value["checksum"])),
            basename=value["basename"],
            size=value["size"],
            checksum=value["checksum"],
            format=value.get("format"),
        )
    if isinstance(value, list):
        return [_entry_to_value(v, cas_dir) for v in value]
    return value


def _same_inode(blob: str, name: str) -> bool:
    """Whether ``name`` itself, not a symlink's target, is ``blob``'s inode."""
    try:
        return os.path.samestat(os.stat(blob), os.lstat(name))
    except OSError:
        return False


class ResultCache:
    """Filesystem-backed store of successful task outputs."""

    def __init__(self, cache_dir: str):
        self.cache_dir = os.path.abspath(cache_dir)
        self.ac_dir = os.path.join(self.cache_dir, "ac")
        self.cas_dir = os.path.join(self.cache_dir, "cas")
        self._made = False  # ac/ and cas/, on the first store
        self._published = set()  # directories republish has made

    def _entry_path(self, key: str) -> str:
        return os.path.join(self.ac_dir, f"{key}.json")

    def lookup(self, key: Optional[str]):
        """Verified outputs for a key, or None; always None without a key.

        Entries that cannot be read, are not of the shape ``store`` writes,
        or whose stored files are missing or corrupt are evicted and
        reported as misses.
        """
        if key is None:
            return None
        entry_path = self._entry_path(key)
        try:
            with open(entry_path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
            outputs = {out_id: _entry_to_value(stored, self.cas_dir)
                       for out_id, stored in entry["outputs"].items()}
        except FileNotFoundError:
            return None
        except (OSError, ValueError, AttributeError, KeyError,
                TypeError) as exc:
            log.warning("cache entry unreadable, evicting: %s: %r",
                        entry_path, exc)
            self._evict(entry_path)
            return None

        files = []
        map_files(list(outputs.values()), files.append)
        for fv in files:
            if (not os.path.isfile(fv.path)
                    or file_checksum(fv.path) != fv.checksum):
                log.warning("cache entry corrupt, evicting: %s", entry_path)
                self._evict(entry_path, fv.path)
                return None
        return outputs

    def store(self, key: Optional[str], outputs: dict,
              source_run_id: str = ""):
        """Atomically persist outputs under a key, if there is one; failures
        degrade to a warning."""
        if key is None:
            return
        try:
            self._store(key, outputs, source_run_id)
        except OSError as exc:
            log.warning("cache store failed (continuing): %s", exc)

    def _store(self, key: str, outputs: dict, source_run_id: str):
        entry_path = self._entry_path(key)
        if os.path.exists(entry_path):
            return  # equal keys imply identical results; first writer wins
        if not self._made:
            for directory in (self.ac_dir, self.cas_dir):
                os.makedirs(directory, exist_ok=True)
            self._made = True

        def persist(fv):
            # an existing blob holds these bytes already, and is kept
            link_or_copy(fv.path, os.path.join(self.cas_dir, fv.checksum))
            return fv.to_json(include_path=False)

        entry = {
            "key": key,
            "outputs": {k: map_files(v, persist) for k, v in outputs.items()},
            "createdAt": time.time(),
            "sourceRunId": source_run_id,
        }

        def write(path):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(entry, fh, sort_keys=True, indent=1)
        write_atomically(entry_path, write)

    def republish(self, outputs: dict, dest_dir: str) -> dict:
        """Publish a hit's verified payload files as ``<dest_dir>/<sha256>``,
        so that the run stays self-contained even if the cache is pruned
        later.  Each is a hard link to its blob (a copy where the cache is
        on another filesystem); a name that is already a link to the blob is
        kept, and any other file there is replaced.  Only each File's
        ``path`` changes, and ``dest_dir`` is made once, on its first use."""
        if dest_dir not in self._published:
            os.makedirs(dest_dir, exist_ok=True)
            self._published.add(dest_dir)

        def place(fv):
            target = os.path.join(dest_dir, fv.checksum)
            if not _same_inode(fv.path, target):
                # a run before this one may have left other bytes here
                write_atomically(target,
                                 lambda partial: link_or_copy(fv.path, partial))
            return replace(fv, path=target)

        return {k: map_files(v, place) for k, v in outputs.items()}

    def evict(self, key: str):
        """Remove the entry of ``key``, as for a miss found at lookup."""
        self._evict(self._entry_path(key))

    def drop_damaged(self, damaged: list):
        """Remove each blob that is the inode of a run-made file a later
        task changed, given as (checksum, inode) (see
        runtime.TaskAttempt.damaged), so that every entry naming it misses
        and its task runs again.  A blob of those bytes from elsewhere, on
        another inode, is kept."""
        for checksum, inode in damaged:
            blob = os.path.join(self.cas_dir, checksum)
            with contextlib.suppress(OSError):
                if os.lstat(blob).st_ino == inode:
                    os.remove(blob)

    def _evict(self, *paths: str):
        """Remove an entry, and a blob whose bytes no longer match its
        name, so that a later store links a good copy."""
        for path in paths:
            with contextlib.suppress(OSError):
                os.remove(path)
