"""Task execution: staging, command-line building, process launch, outputs.

An attempt allocates only what it keeps.  Its directory is the tool's
working directory (the outdir).  A File input that this run made, an
output an earlier attempt collected, is staged in place: the tool reads the
producer's own file under the work root, with no copy, link or directory
made for it.  Collect sets each output's mtime to 2 s before hashing it and
records its signature (see collect_outputs), and one ``lstat`` before and
after each attempt that reads it finds any write, truncation, rename,
removal, chmod or touch since: that attempt fails, and the changed file is
set aside as ``<name>.modified``, so every later reader fails too (see
_set_aside).  Beside the attempt directory go ``<attempt>.inputs/``, made
only for job-order inputs and cache hits and holding hard links into the
run's input store (see InputStore), and ``<attempt>.stdout.log``/
``.stderr.log``, kept only for a stream that nothing captures and that was
not empty.  The store holds one read-only copy of each distinct such
input, checked against its checksum and made once per run; a tool that
writes through its link fails its attempt.  A named or captured stream is
written in place in the outdir.  Each worker thread reuses one TMPDIR while
it stays the empty directory it was made as, and one spare log per stream
(see WorkerScratch).  The tool runs in a session of its own with a minimal
explicit environment, and the whole session is killed when it exits or
times out.  A successful attempt's input links are deleted once its
outputs are collected; no output shares an inode with an input (see
_regular).
"""

from __future__ import annotations

import glob as globlib
import contextlib
import json
import os
import shutil
import signal
import stat
import subprocess
import threading
import time
import uuid
from dataclasses import dataclass, field, replace
from typing import Optional

from . import model
from .errors import (
    ExpressionError,
    ExprTypeError,
    InputChangedError,
    OutputAmbiguousError,
    OutputMissingError,
    StagingError,
)
from .expression import EvalContext, interpolate
from .model import ToolDescription
from .planner import FileValue, TaskNode, file_checksum, map_files

SUCCESS = "Success"
TEMPORARY_FAILURE = "TemporaryFailure"
PERMANENT_FAILURE = "PermanentFailure"

C_OUTDIR = "/miniwfl/outdir"
C_INPUTS = "/miniwfl/inputs"
C_WORK = "/miniwfl/work"
C_TMPDIR = "/tmp"

# how far before its hash a collected output's mtime is set: any later
# write then moves the mtime, even within the clock tick of the stamp
_STAMP_LAG_NS = 2_000_000_000


STREAMS = ("stdout", "stderr")


@dataclass
class StagedDirectory:
    outdir: str  # the attempt directory, where the tool runs
    tmpdir: str
    staged_inputs: dict  # original path -> in-sandbox path
    # checksum -> (original path, signature of the store entry linked)
    linked: dict = field(default_factory=dict)
    # path of a run-made input staged in place -> (checksum, signature)
    in_place: dict = field(default_factory=dict)

    @property
    def inputs_dir(self) -> str:
        """Where input links go; created when the first one is staged."""
        return f"{self.outdir}.inputs"

    def in_container(self, host: str) -> str:
        """The path that the staged input ``host`` has in a container: a
        run-made one where it sits below the work root, under C_WORK."""
        if host in self.in_place:
            work_root = os.path.dirname(self.outdir)
            return f"{C_WORK}/{os.path.relpath(host, work_root)}"
        return f"{C_INPUTS}/{os.path.relpath(host, self.inputs_dir)}"

    def log_path(self, which: str) -> str:
        """Where an uncaptured, non-empty stream is kept."""
        return f"{self.outdir}.{which}.log"


class WorkerScratch:
    """What one worker thread reuses from one attempt to the next, so that
    an attempt allocates only what it keeps: a TMPDIR, and one spare log
    per stream for output that nothing captures.  Every name is fresh, so
    that a TMPDIR left behind never blocks the next one."""

    def __init__(self, work_root: str):
        self.work_root = work_root
        self.pid = None      # the running attempt's process (and group)
        self._tmpdir = None  # (path, inode, mode) as made
        self._spares = {}    # stream -> path of its spare log

    def _fresh(self, suffix: str) -> str:
        return os.path.join(self.work_root,
                            f".spare-{uuid.uuid4().hex[:8]}.{suffix}")

    def tmpdir(self) -> str:
        if self._tmpdir is None:
            path = self._fresh("tmp")
            os.mkdir(path)
            st = os.lstat(path)
            self._tmpdir = (path, st.st_ino, st.st_mode)
        return self._tmpdir[0]

    def release_tmpdir(self, attempt_dir: str, failed: bool):
        """Keep the TMPDIR for the next attempt while it is the empty
        directory it was made as, with its mode; after a failed attempt, or
        once the tool left anything in it, it moves to ``<attempt>.tmp``
        and the next attempt gets a new one."""
        if self._tmpdir is None:
            return
        path, ino, mode = self._tmpdir
        try:
            st = os.lstat(path)
            if (not failed and (st.st_ino, st.st_mode) == (ino, mode)
                    and not os.listdir(path)):
                return
            os.rename(path, f"{attempt_dir}.tmp")
        except OSError:
            pass  # gone, or left where it is
        self._tmpdir = None

    def spare_log(self, which: str) -> str:
        if which not in self._spares:
            self._spares[which] = self._fresh(which)
        return self._spares[which]

    def keep_log(self, which: str, target: str):
        """Move a stream's spare log, which holds output, to ``target``."""
        os.replace(self._spares.pop(which), target)


@dataclass
class TaskAttempt:
    task_id: str
    attempt_number: int
    argv: list = field(default_factory=list)
    env: dict = field(default_factory=dict)
    start_time: float = 0.0
    end_time: float = 0.0
    exit_code: Optional[int] = None
    stdout_path: Optional[str] = None  # None: uncaptured, and empty
    stderr_path: Optional[str] = None
    outcome: str = PERMANENT_FAILURE
    failure_kind: Optional[str] = None
    error: Optional[str] = None
    outputs: Optional[dict] = None  # set when the attempt succeeded
    # (checksum, inode) as collected of each run-made input found changed
    damaged: list = field(default_factory=list)

    def settle(self, kind: Optional[str],
               error: Optional[str]) -> "TaskAttempt":
        """Record how the attempt ended: a success without a failure
        ``kind``; of the failures, only a timeout or a launch race is worth
        another attempt."""
        self.failure_kind, self.error = kind, error
        self.outcome = (
            SUCCESS if kind is None
            else TEMPORARY_FAILURE if kind in ("Timeout", "LaunchRace")
            else PERMANENT_FAILURE)
        return self


# the failure kind of each error that ends an attempt before or after its
# process runs
_FAILURE_KINDS = {
    StagingError: "StagingError",
    ExpressionError: "ExprError",
    OutputMissingError: "OutputMissing",
    OutputAmbiguousError: "OutputAmbiguous",
}


def link_or_copy(source: str, target: str):
    """Make ``target`` a hard link to ``source``, or a copy where the
    filesystem refuses the link (another device, no hard links).  An
    existing ``target``, perhaps another run's file, is kept and never
    written to."""
    try:
        os.link(source, target)
    except FileExistsError:
        pass
    except OSError:
        if not os.path.exists(target):
            write_atomically(target,
                             lambda path: shutil.copyfile(source, path))


def write_atomically(target: str, write):
    """Call ``write(path)`` on a temporary name beside ``target``, then
    rename it over ``target``; a failed write leaves nothing behind."""
    partial = f"{target}.{uuid.uuid4().hex[:8]}.tmp"
    try:
        write(partial)
        os.replace(partial, target)
    finally:
        if os.path.exists(partial):
            os.remove(partial)


def _entry_signature(path: str):
    """(inode, size, mtime, mode) of a store entry, or None when its name is
    gone.  Not ctime or the link count, which every new link moves."""
    try:
        st = os.lstat(path)
    except OSError:
        return None
    return (st.st_ino, st.st_size, st.st_mtime_ns, st.st_mode)


class InputStore:
    """The run's one verified, read-only copy of each distinct input,
    ``<root>/<sha256>``, which attempts hard-link their inputs to.

    The first attempt that needs an entry makes it, under a lock of its
    checksum, so that a second one waits instead of copying and hashing
    too.  Every entry made, including one made again after a tool wrote
    through it, is a copy of the source hashed against the job-order
    checksum.  The entry is then made read-only and its mtime pinned to the
    epoch.  Tools may run as root, so a write through a link is detected
    rather than refused: any write moves the mtime, so an entry whose
    signature moved was written to.  A deliberate ``utime`` back to the
    epoch is the one write this misses.
    """

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._lock = threading.Lock()
        self._locks = {}  # checksum -> lock of its entry
        self._made = {}   # checksum -> signature of its entry as made

    def _locked(self, checksum: str) -> threading.Lock:
        with self._lock:
            return self._locks.setdefault(checksum, threading.Lock())

    def _fill(self, fv: FileValue, partial: str):
        if not os.path.isfile(fv.path):
            raise StagingError(f"input file missing: {fv.path}")
        shutil.copyfile(fv.path, partial)
        found = file_checksum(partial)
        if found != fv.checksum:
            raise StagingError(
                f"input changed during run: {fv.path} "
                f"(expected {fv.checksum[:12]}, found {found[:12]})")
        os.chmod(partial, 0o444)
        os.utime(partial, ns=(0, 0))

    def link(self, fv: FileValue, target: str):
        """Make ``target`` a link to ``fv``'s entry, first making the entry
        where it is missing or has changed; returns the entry's signature."""
        path = os.path.join(self.root, fv.checksum)
        with self._locked(fv.checksum):
            signature = self._made.get(fv.checksum)
            if signature is None or _entry_signature(path) != signature:
                write_atomically(path, lambda partial: self._fill(fv, partial))
                signature = self._made[fv.checksum] = _entry_signature(path)
            link_or_copy(path, target)
        return signature

    def check(self, linked: dict) -> list:
        """The sources of the entries in ``linked`` (see StagedDirectory)
        that no longer have the signature they were linked with.  Each one's
        name is dropped while it still names that inode, so that the next
        attempt makes the entry again from the source."""
        modified = []
        for checksum, (source, signature) in sorted(linked.items()):
            path = os.path.join(self.root, checksum)
            if _entry_signature(path) == signature:
                continue
            modified.append(source)
            with self._locked(checksum):
                found = _entry_signature(path)
                if found is not None and found[0] == signature[0]:
                    os.remove(path)
        return modified

    def close(self):
        """Remove the store; the links attempts kept hold their bytes."""
        shutil.rmtree(self.root, ignore_errors=True)


def _set_aside(in_place: dict) -> dict:
    """The entries of ``in_place`` (see StagedDirectory) whose file no
    longer has its signature.  Whatever is at each one's name moves to
    ``<name>.modified``, so that no later reader and no stage-out gets its
    bytes: a later reader finds the name gone, and fails too."""
    moved = {path: made for path, made in in_place.items()
             if _entry_signature(path) != made[1]}
    for path in moved:
        with contextlib.suppress(OSError):  # gone, or set aside already
            os.rename(path, f"{path}.modified")
    return moved


def _check_unchanged(what: str, modified: list, moved: dict):
    """Raise InputChangedError naming the ``modified`` store sources (see
    InputStore.check) and the ``moved`` run-made inputs (see _set_aside),
    if there are any."""
    if modified or moved:
        raise InputChangedError(
            f"{what}: {', '.join(modified + sorted(moved))}",
            [(checksum, signature[0])
             for checksum, signature in moved.values()])


def stage(node_id: str, bindings: dict, work_root: str, store: InputStore,
          tmpdir: Optional[str] = None, made: Optional[dict] = None) -> tuple:
    """Stage a fresh working directory for one attempt.

    Returns (StagedDirectory, staged bindings) where the staged bindings
    carry FileValues rewritten to their in-sandbox host paths;
    StagedDirectory.in_container gives their paths in a container.
    The attempt directory is the outdir.  An input in ``made``, the
    outputs this run collected (path -> (checksum, signature)), is staged
    in place: the tool reads the producer's own file, after one ``lstat``
    finds it unchanged, and the directory's ``in_place`` records it for the
    check after the attempt.  Any other input is linked from ``store`` to
    ``<attempt>.inputs/<basename>``, or to
    ``<attempt>.inputs/<n>/<basename>`` when the basename is taken, and the
    directory's ``linked`` records what InputStore.check compares.  The
    store hashes a source only when it makes that source's entry, once per
    run unless a tool wrote through the entry.
    ``tmpdir`` is the private directory that TMPDIR names and containers
    mount at /tmp, usually a worker's reused one (see WorkerScratch);
    without it ``<attempt>.tmp/`` is made.
    """
    made = made or {}
    safe = node_id.replace("/", "_").replace("[", "_").replace("]", "")
    outdir = os.path.join(work_root, f"{safe}-{uuid.uuid4().hex[:8]}")
    os.makedirs(outdir)
    if tmpdir is None:
        tmpdir = f"{outdir}.tmp"
        os.mkdir(tmpdir)

    staged_inputs = {}
    staged = StagedDirectory(outdir=outdir, tmpdir=tmpdir,
                             staged_inputs=staged_inputs)

    taken = set()  # names directly under the inputs directory

    def read_in_place(fv: FileValue) -> str:
        in_place = {fv.path: made[fv.path]}
        _check_unchanged("input changed during run", [], _set_aside(in_place))
        staged.in_place.update(in_place)
        return fv.path

    def link(fv: FileValue) -> str:
        name = fv.basename
        if not taken:
            os.mkdir(staged.inputs_dir)
        elif name in taken:
            slot = len(taken)
            while str(slot) in taken:
                slot += 1
            os.mkdir(os.path.join(staged.inputs_dir, str(slot)))
            name = f"{slot}/{name}"
        taken.add(name.split("/")[0])
        target = os.path.join(staged.inputs_dir, name)
        staged.linked[fv.checksum] = (fv.path, store.link(fv, target))
        return target

    def place(fv: FileValue) -> FileValue:
        if fv.path not in staged_inputs:
            staged_inputs[fv.path] = (read_in_place(fv) if fv.path in made
                                      else link(fv))
        return replace(fv, path=staged_inputs[fv.path])

    staged_bindings = {k: map_files(bindings[k], place)
                       for k in sorted(bindings)}
    return staged, staged_bindings


def _materialize_initial_workdir(clause, staged, ctx):
    """Write a working-directory listing, each entry evaluated in ``ctx``."""
    if clause is None:
        return
    sources = {}  # staged host or container path -> original path
    for source, host in staged.staged_inputs.items():
        sources[host] = sources[staged.in_container(host)] = source
    seen = set()
    for item in clause.payload.get("listing", []):
        entry = item["entry"]
        entryname = item.get("entryname")
        value = entry
        if isinstance(entry, str):
            try:
                value = interpolate(entry, ctx)
            except ExpressionError as exc:
                raise StagingError(f"bad working-directory entry: {exc}") from exc
        if isinstance(value, FileValue):
            name = entryname or value.basename
            target = os.path.join(staged.outdir, name)
            if name in seen or os.path.exists(target):
                raise StagingError(
                    f"working-directory basename collision: {name!r}")
            seen.add(name)
            # the verified staged copy's bytes, the source's mode bits
            source = sources[value.path]
            shutil.copyfile(staged.staged_inputs[source], target)
            shutil.copymode(source, target)
        else:
            if entryname is None:
                raise StagingError(
                    "literal working-directory entry needs an entryname")
            if entryname in seen:
                raise StagingError(
                    f"working-directory basename collision: {entryname!r}")
            seen.add(entryname)
            target = os.path.join(staged.outdir, entryname)
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(value if isinstance(value, str) else json.dumps(value))


def _publish(source: str, target: str, link: bool) -> bool:
    """Make ``target`` hold ``source``'s bytes unless something is there
    already, never following a link at ``target``; returns whether it was
    made.  ``link`` makes a hard link where the filesystem allows one.
    Raises FileNotFoundError, leaving nothing at ``target``, when
    ``source`` is gone."""
    if link:
        try:
            os.link(source, target)
            return True
        except FileExistsError:
            return False
        except OSError:
            pass  # another filesystem, no hard links, or no source: copy
    try:
        os.close(os.open(target, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    except FileExistsError:
        return False
    try:
        shutil.copyfile(source, target)
    except BaseException:
        os.remove(target)
        raise
    return True


def _held(target: str) -> Optional[str]:
    """Checksum of the regular file at ``target``, or None for anything
    else there (a directory, a symlink, dangling or not), which no output
    is published over."""
    try:
        if stat.S_ISREG(os.lstat(target).st_mode):
            return file_checksum(target)
    except FileNotFoundError:
        pass
    return None


def stage_out(outputs: dict, dest_dir: str,
              work_root: Optional[str] = None,
              left_out: Optional[list] = None) -> dict:
    """Publish the files in ``outputs`` into ``dest_dir`` and rewrite their
    paths.  A file that is gone by now, such as a job-order input deleted
    during the run or a run-made file set aside as changed, becomes None,
    and its path is appended to ``left_out``.

    A file under ``work_root``, which the run made, becomes a hard link, so
    it shares its inode with its ``.work`` output and its cache payload; any
    other file, such as a job-order input passed through to an output, is
    copied, so that no input shares an inode with a staged output.  A
    basename taken by other content (another file, a directory, a symlink)
    moves on to ``name.1.ext``, ``name.2.ext`` and so on; a regular file
    already holding the same content is reused.  Each target is probed once
    per basename and hashed at most once per call, and files linked or
    copied here are never hashed.
    """
    dest_dir = os.path.abspath(dest_dir)
    os.makedirs(dest_dir, exist_ok=True)
    owned = (None if work_root is None
             else os.path.join(os.path.abspath(work_root), ""))
    sums = {}    # target -> checksum of every target written or hashed
    probed = {}  # basename -> how many of its candidate names are known
    chosen = {}  # (basename, checksum) -> first candidate holding it

    def place(fv: FileValue) -> FileValue:
        first = os.path.join(dest_dir, fv.basename)
        base, ext = os.path.splitext(first)
        while (fv.basename, fv.checksum) not in chosen:
            n = probed.get(fv.basename, 0)
            target = f"{base}.{n}{ext}" if n else first
            if target not in sums:
                link = owned is not None and fv.path.startswith(owned)
                try:
                    published = _publish(fv.path, target, link)
                except FileNotFoundError:
                    if left_out is not None:
                        left_out.append(fv.path)
                    return None
                sums[target] = fv.checksum if published else _held(target)
            chosen.setdefault((fv.basename, sums[target]), target)
            probed[fv.basename] = n + 1
        return replace(fv, path=chosen[fv.basename, fv.checksum])

    return {k: map_files(v, place) for k, v in outputs.items()}


def _render_value(value, ctx):
    if isinstance(value, FileValue):
        return [value.path]
    if isinstance(value, bool):
        raise AssertionError("booleans are handled at the binding level")
    if isinstance(value, str):
        rendered = interpolate(value, ctx)
        if isinstance(rendered, FileValue):
            return [rendered.path]
        if rendered is None:
            return []
        return [_scalar_str(rendered)]
    return [_scalar_str(value)]


def _scalar_str(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def build_command_line(tool: ToolDescription, bindings: dict,
                       ctx: EvalContext) -> list:
    """argv per the binding rules; bindings must carry staged FileValues."""
    argv = [interpolate(tok, ctx) if "$(" in tok else tok
            for tok in tool.base_command]
    argv = [_scalar_str(a) for a in argv]

    bindable = [p for p in tool.inputs
                if p.position is not None or p.prefix is not None]
    bindable.sort(key=lambda p: (p.position or 0, p.id))
    for param in bindable:
        value = bindings.get(param.id)
        if value is None:
            continue
        if isinstance(value, bool):
            if value and param.prefix:
                argv.append(param.prefix)
            continue
        if isinstance(value, list):
            if not value:
                continue
            if param.prefix:
                argv.append(param.prefix)
            for element in value:
                argv.extend(_render_value(element, ctx))
            continue
        if param.prefix:
            argv.append(param.prefix)
        argv.extend(_render_value(value, ctx))
    return argv


class DockerAdapter:
    """Builds `docker run` invocations; mounts staged paths per the engine's
    fixed in-container path scheme."""

    command = "docker"

    def available(self) -> bool:
        return shutil.which(self.command) is not None

    def build_argv(self, image: str, argv: list, staged: StagedDirectory,
                   env: dict, interactive: bool = False) -> list:
        out = [self.command, "run", "--rm", "--workdir", C_OUTDIR]
        if interactive:  # stdin redirection needs the stream kept open
            out.append("-i")
        for host in sorted(staged.staged_inputs.values()):
            out += ["-v", f"{host}:{staged.in_container(host)}:ro"]
        out += ["-v", f"{staged.outdir}:{C_OUTDIR}:rw"]
        out += ["-v", f"{staged.tmpdir}:/tmp:rw"]
        for key in sorted(env):
            out += ["--env", f"{key}={env[key]}"]
        out.append(image)
        out.extend(argv)
        return out


def base_environment(staged: StagedDirectory, container: bool) -> dict:
    if container:
        return {"HOME": C_OUTDIR, "TMPDIR": C_TMPDIR}
    return {
        "HOME": staged.outdir,
        "TMPDIR": staged.tmpdir,
        "PATH": os.environ.get("PATH", "/usr/local/bin:/usr/bin:/bin"),
    }


def stream_names(tool: ToolDescription) -> dict:
    """The file in the outdir that each named or captured stream is
    written to; a captured stream without a name goes to ``stdout.log`` or
    ``stderr.log``."""
    captured = {out.capture for out in tool.outputs}
    names = {"stdout": tool.stdout, "stderr": tool.stderr}
    return {which: names[which] or f"{which}.log" for which in STREAMS
            if names[which] or which in captured}


def _kill_session(pid: int):
    """Kill whatever is left of the session an attempt started in."""
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(pid, signal.SIGKILL)


def execute(task_id: str, attempt_number: int, argv: list, env: dict,
            staged: StagedDirectory, success_codes=frozenset({0}),
            wall_time_max: Optional[float] = None,
            container_image: Optional[str] = None,
            adapter: Optional[DockerAdapter] = None,
            stdin_path: Optional[str] = None,
            streams: Optional[dict] = None,
            scratch: Optional[WorkerScratch] = None) -> TaskAttempt:
    """Run one attempt; never raises for tool failure, only reports it.

    ``streams`` (see stream_names) maps a stream to the file in the outdir
    it is written to in place.  Any other stream goes to a spare log of
    ``scratch`` (a private one when not given), kept as
    ``<attempt>.<stream>.log`` only when the stream was not empty; the
    attempt's ``stdout_path``/``stderr_path`` is None for an empty one.
    The tool starts a session of its own, killed as a whole once the tool
    exits or times out, so that nothing it started outlives the attempt.
    """
    attempt = TaskAttempt(task_id=task_id, attempt_number=attempt_number,
                          argv=list(argv), env=dict(env))
    launch_argv = argv
    launch_env = env
    if container_image is not None:
        adapter = adapter or DockerAdapter()
        if not adapter.available():
            return attempt.settle(
                "LaunchError",
                f"container runtime {adapter.command!r} not found")
        launch_argv = adapter.build_argv(container_image, argv, staged, env,
                                         interactive=stdin_path is not None)
        launch_env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin")}

    streams = streams or {}
    scratch = scratch or WorkerScratch(os.path.dirname(staged.outdir))
    targets = {which: os.path.join(staged.outdir, streams[which])
               if which in streams else scratch.spare_log(which)
               for which in STREAMS}
    written = {}  # target -> bytes in it after the run

    attempt.start_time = time.time()
    kind = error = None
    try:
        with contextlib.ExitStack() as files:
            in_fh = (files.enter_context(open(stdin_path, "rb"))
                     if stdin_path is not None else None)
            handles = {}  # one handle per file, shared by both streams
            for target in targets.values():
                if target not in handles:
                    handles[target] = files.enter_context(open(target, "wb"))
            proc = subprocess.Popen(launch_argv, cwd=staged.outdir,
                                    env=launch_env,
                                    stdout=handles[targets["stdout"]],
                                    stderr=handles[targets["stderr"]],
                                    stdin=in_fh, start_new_session=True)
            scratch.pid = proc.pid
            try:
                attempt.exit_code = proc.wait(timeout=wall_time_max)
            except subprocess.TimeoutExpired:
                kind = "Timeout"
                error = f"wall time limit of {wall_time_max}s exceeded"
            # after a timeout the tool itself, else whatever it left running
            _kill_session(proc.pid)
            proc.wait()
            scratch.pid = None
            written = {target: os.fstat(fh.fileno()).st_size
                       for target, fh in handles.items()}
    except FileNotFoundError as exc:
        kind, error = "LaunchError", f"cannot launch: {exc}"
    except OSError as exc:
        kind, error = "LaunchRace", f"launch failed: {exc}"

    attempt.end_time = time.time()
    for which in STREAMS:
        path = targets[which]
        if which not in streams:  # a spare log, kept only with output in it
            path = staged.log_path(which) if written.get(path) else None
            if path is not None:
                scratch.keep_log(which, path)
        setattr(attempt, f"{which}_path", path)
    if kind is None and attempt.exit_code not in success_codes:
        kind = "ExitCode"
        error = f"exit code {attempt.exit_code} not in success codes"
    return attempt.settle(kind, error)


def collect_outputs(tool: ToolDescription, staged: StagedDirectory,
                    made: Optional[dict] = None) -> dict:
    """Locate and checksum every declared output of a successful attempt.

    Each output File's mtime is set to 2 s before its hash starts, and its
    signature taken then, so that any later write moves the signature;
    ``made`` records path -> (checksum, signature) for each.  A file the
    engine may not stamp, such as one a container's root user left, is not
    recorded, and a later reader gets a store copy of it instead.
    """
    made = {} if made is None else made

    def collected(path: str, format: Optional[str]) -> FileValue:
        stamp = time.time_ns() - _STAMP_LAG_NS
        try:
            os.utime(path, ns=(stamp, stamp))
            signature = _entry_signature(path)
        except PermissionError:
            signature = None
        fv = FileValue.from_path(path, format=format)
        if signature is not None:
            made[fv.path] = (fv.checksum, signature)
        return fv

    outputs = {}
    for out in tool.outputs:
        if out.capture is not None:
            path = os.path.join(staged.outdir,
                                stream_names(tool)[out.capture])
            if not os.path.isfile(path):
                raise OutputMissingError(
                    f"output {out.id!r}: captured {out.capture} file "
                    f"{path} is gone")
            outputs[out.id] = collected(_regular(path, staged.outdir),
                                        out.format)
            continue
        matches = sorted(globlib.glob(os.path.join(staged.outdir, out.glob),
                                      recursive=True))
        matches = [_regular(m, staged.outdir) for m in matches
                   if os.path.isfile(m)]
        if out.type.base == "File" and out.type.array:
            outputs[out.id] = [collected(m, out.format) for m in matches]
        else:
            outputs[out.id] = _single_output(out, matches, collected)
    return outputs


def _regular(path: str, outdir: str) -> str:
    """``path`` with no symlink on it below ``outdir``: a linked directory
    becomes a real one holding links to its target's entries, and a linked
    file, or a file with another hard link, a regular file of its own
    holding those bytes.  So an output (and the cache blob linked to it)
    holds the bytes and not a pointer that can change after the run, shares
    its inode with no file outside the attempt and no input-store entry,
    and nothing is ever written through a link."""
    parts = os.path.relpath(path, outdir).split(os.sep)
    for depth in range(1, len(parts)):
        linked = os.path.join(outdir, *parts[:depth])
        if os.path.islink(linked):
            target = os.path.realpath(linked)
            os.unlink(linked)
            os.mkdir(linked)
            for name in os.listdir(target):
                os.symlink(os.path.join(target, name),
                           os.path.join(linked, name))
    st = os.lstat(path)
    if stat.S_ISLNK(st.st_mode) or st.st_nlink > 1:
        write_atomically(path, lambda partial: shutil.copyfile(path, partial))
    return path


def _single_output(out, matches, collected):
    """A non-array output's value from its glob's matches: None when
    nothing matched and the output is optional, else the one match, as a
    File (see collect_outputs) or parsed as JSON."""
    if not matches:
        if out.type.optional:
            return None
        raise OutputMissingError(
            f"output {out.id!r}: glob {out.glob!r} matched nothing")
    if len(matches) > 1:
        raise OutputAmbiguousError(
            f"output {out.id!r}: glob {out.glob!r} matched {len(matches)} files")
    if out.type.base == "File":
        return collected(matches[0], out.format)
    with open(matches[0], "r", encoding="utf-8") as fh:
        text = fh.read().strip()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise OutputMissingError(
            f"output {out.id!r}: {matches[0]} is not JSON-valued: {exc}") from exc


class LocalRuntime:
    """Executes TaskNodes on the local machine, optionally via containers."""

    def __init__(self, work_root: str, use_containers: bool = True,
                 adapter=None):
        self.work_root = os.path.abspath(work_root)
        os.makedirs(self.work_root, exist_ok=True)
        self.use_containers = use_containers
        self.adapter = adapter or DockerAdapter()
        # a name of its own, so that runs sharing a work root never share
        # entries or remove each other's
        self.store = InputStore(os.path.join(
            self.work_root, f".inputs-{uuid.uuid4().hex[:8]}"))
        # path -> (checksum, signature) of each output collected in this
        # run, which later attempts read in place
        self.made = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._scratches = []  # every worker's, for cancel()

    def _scratch(self) -> WorkerScratch:
        scratch = getattr(self._local, "scratch", None)
        if scratch is None:
            scratch = self._local.scratch = WorkerScratch(self.work_root)
            with self._lock:
                self._scratches.append(scratch)
        return scratch

    def close(self):
        """End the run: remove its input store."""
        self.store.close()

    def cancel(self):
        """Kill every attempt running now.  Tools run in sessions of their
        own, which an interrupt of the engine does not reach."""
        with self._lock:
            pids = [s.pid for s in self._scratches if s.pid is not None]
        for pid in pids:
            _kill_session(pid)

    def container_image(self, node: TaskNode) -> Optional[str]:
        clause = node.clause(model.CLAUSE_CONTAINER)
        if clause is None or not self.use_containers:
            return None
        return clause.payload["image"]

    def run_task(self, node: TaskNode, bindings: dict, attempt_number: int,
                 resources: dict) -> TaskAttempt:
        """One full attempt: stage, build argv, run, collect.  The attempt's
        ``outputs`` are set when it succeeded."""
        attempt = TaskAttempt(task_id=node.id, attempt_number=attempt_number)
        image = self.container_image(node)
        scratch = self._scratch()
        staged = None
        try:
            staged, staged_bindings = stage(
                f"{node.id}-a{attempt_number}", bindings, self.work_root,
                self.store, tmpdir=scratch.tmpdir(), made=self.made)
            # argv and env see container paths when running containerized;
            # stdin is redirected host-side and keeps the host staged path
            minima = {**model.RESOURCE_DEFAULTS, **resources}
            host_ctx = EvalContext(inputs=staged_bindings, runtime={
                "cores": minima["coresMin"],
                "ram": minima["ramMin"],
                "outdir": staged.outdir,
            })
            ctx = host_ctx
            if image is not None:
                def to_container(fv: FileValue) -> FileValue:
                    return replace(fv, path=staged.in_container(fv.path))
                ctx = EvalContext(
                    inputs={k: map_files(v, to_container)
                            for k, v in staged_bindings.items()},
                    runtime=dict(host_ctx.runtime, outdir=C_OUTDIR))
            _materialize_initial_workdir(
                node.clause(model.CLAUSE_INITIAL_WORKDIR), staged, ctx)

            env = base_environment(staged, container=image is not None)
            env_clause = node.clause(model.CLAUSE_ENV)
            if env_clause is not None:
                for key, value in env_clause.payload["envDef"].items():
                    env[key] = _scalar_str(interpolate(value, ctx))
            stdin_path = None
            if node.tool.stdin is not None:
                stdin_value = interpolate(node.tool.stdin, host_ctx)
                if isinstance(stdin_value, FileValue):
                    stdin_path = stdin_value.path
                elif isinstance(stdin_value, str) and stdin_value:
                    stdin_path = stdin_value
                else:
                    raise ExprTypeError(
                        f"stdin must resolve to a file, got {stdin_value!r}")
            argv = build_command_line(node.tool, ctx.inputs, ctx)
            if not argv:
                return attempt.settle("LaunchError", "empty command line")

            attempt = execute(
                node.id, attempt_number, argv, env, staged,
                success_codes=node.tool.success_codes,
                wall_time_max=resources.get("wallTimeMax"),
                container_image=image,
                adapter=self.adapter,
                stdin_path=stdin_path,
                streams=stream_names(node.tool),
                scratch=scratch,
            )
            try:
                if attempt.outcome == SUCCESS:
                    attempt.outputs = collect_outputs(node.tool, staged,
                                                      self.made)
            finally:
                # whatever the outcome: once collect has read the outputs,
                # no attempt that saw a written input may succeed
                _check_unchanged("input modified by the tool",
                                 self.store.check(staged.linked),
                                 _set_aside(staged.in_place))
            if attempt.outputs is not None and staged.linked:
                # read by nothing from now on
                shutil.rmtree(staged.inputs_dir, ignore_errors=True)
        except tuple(_FAILURE_KINDS) as exc:
            attempt.outputs = None
            if isinstance(exc, InputChangedError):
                attempt.damaged = exc.damaged
            attempt.settle(next(kind for cls, kind in _FAILURE_KINDS.items()
                                if isinstance(exc, cls)), str(exc))
        finally:
            if staged is not None:
                scratch.release_tmpdir(
                    staged.outdir,
                    failed=bool(attempt.start_time) and attempt.outputs is None)
        return attempt
