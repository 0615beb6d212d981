"""Task execution: staging, command-line building, process launch, outputs.

An attempt allocates only what it keeps.  Its directory is the tool's
working directory (the outdir).  A File input that this run made, an
output an earlier attempt collected, is staged in place: the tool reads the
producer's own file under the work root, with no copy, link or directory
made for it.  Any other File input, a job-order input or a file a cache hit
published, is a hard link in ``<attempt>.inputs/`` to the run's one
verified, read-only copy of it (see InputStore).  One record, the store's
``made``, vouches for both kinds of file with the signature stamped on
them (see _stamp), and one ``lstat`` of each file an attempt reads, at
stage for a run-made input and after the attempt for all, finds any write,
truncation, rename, removal, chmod or touch since: that attempt fails, and
the changed file is set aside (see _set_aside).  Beside the attempt
directory go ``<attempt>.stdout.log``/``.stderr.log``, kept only for a
stream that nothing captures and that was not empty.  A named or captured
stream is written in place in the outdir.  Each worker thread reuses one
TMPDIR while one ``lstat`` finds it as stamped, and one spare log per
stream (see WorkerScratch).  The tool, looked up on PATH once per run, runs
in a session of its own with a minimal explicit environment, and the whole
session is killed when it exits or times out.  A successful attempt's
input links are deleted once its outputs are collected, and a TMPDIR its
tool changed when it ends; no output shares an inode with an input (see
_regular).  Its directory is deleted once the run says nothing reads it
any more (see LocalRuntime.release); a failed attempt keeps everything,
its TMPDIR as ``<attempt>.tmp``.
What lives only as long as the run, the store's copies, the links that
cache hits publish and each worker's TMPDIR and spare logs, sits in one run
directory, ``<work root>/.run-<id>/``, which LocalRuntime.close removes.
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
from typing import Optional

from . import model
from .errors import (
    ExpressionError,
    ExprTypeError,
    JobOrderError,
    OutputAmbiguousError,
    OutputMissingError,
    StagingError,
)
from .expression import EvalContext, interpolate, stringify
from .model import Record, ToolDescription, field, replace
from .planner import (
    _STAMP_LAG_NS,
    FileValue,
    TaskNode,
    file_checksum,
    file_signature,
    map_files,
)

SUCCESS = "Success"
TEMPORARY_FAILURE = "TemporaryFailure"
PERMANENT_FAILURE = "PermanentFailure"

C_OUTDIR = "/miniwfl/outdir"
C_INPUTS = "/miniwfl/inputs"
C_WORK = "/miniwfl/work"
C_TMPDIR = "/tmp"

STREAMS = ("stdout", "stderr")
_TRUNCATE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


class StagedDirectory(Record, frozen=False):
    outdir: str  # the attempt directory, where the tool runs
    tmpdir: str
    staged_inputs: dict  # original path -> in-sandbox path
    # path of each file the tool reads, a store entry or a run-made file
    # read in place -> (its input's name, its signature as read)
    read: dict = field(default_factory=dict)
    linked: set = field(default_factory=set)  # names in inputs_dir, if made

    @property
    def inputs_dir(self) -> str:
        """Where input links go; created when the first one is staged."""
        return f"{self.outdir}.inputs"

    def in_container(self, host: str) -> str:
        """The path that the staged input ``host`` has in a container: a
        run-made one where it sits below the work root, under C_WORK."""
        if host in self.read:
            work_root = os.path.dirname(self.outdir)
            return f"{C_WORK}/{os.path.relpath(host, work_root)}"
        return f"{C_INPUTS}/{os.path.relpath(host, self.inputs_dir)}"

    def log_path(self, which: str) -> str:
        """Where an uncaptured, non-empty stream is kept."""
        return f"{self.outdir}.{which}.log"


class WorkerScratch:
    """What one worker thread reuses from one attempt to the next, so that
    an attempt allocates only what it keeps: a TMPDIR, and one spare log
    per stream for output that nothing captures, all under ``root``, the
    run directory, which goes with them when the run ends.  Every name is
    fresh, so that a TMPDIR left behind never blocks the next one."""

    def __init__(self, root: str, cancelled: threading.Event):
        self.root = root
        self.cancelled = cancelled  # set once the run's attempts are killed
        self.pid = None      # the running attempt's process (and group)
        self._tmpdir = None  # (path, signature as stamped)
        self._spares = {}    # stream -> path of its spare log

    def _fresh(self, suffix: str) -> str:
        return os.path.join(self.root,
                            f".spare-{os.urandom(4).hex()}.{suffix}")

    def tmpdir(self) -> str:
        if self._tmpdir is None:
            path = self._fresh("tmp")
            os.mkdir(path)
            try:  # stamped, so that any change moves its signature
                _stamp(path)
                self._tmpdir = (path, file_signature(path))
            except PermissionError:  # never found unchanged: not reused
                self._tmpdir = (path, None)
        return self._tmpdir[0]

    def release_tmpdir(self, attempt_dir: str, failed: bool):
        """Keep the TMPDIR for the next attempt while one ``lstat`` finds it
        as stamped (see _stamp): nothing made, removed or renamed in it, and
        its mode kept.  After a failed attempt it moves to ``<attempt>.tmp``;
        once changed it is deleted, and the next attempt gets a new one."""
        if self._tmpdir is None:
            return
        path, signature = self._tmpdir
        try:
            if failed:
                os.rename(path, f"{attempt_dir}.tmp")
            elif signature and file_signature(path) == signature:
                return
            else:
                shutil.rmtree(path, ignore_errors=True)
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


class TaskAttempt(Record, frozen=False):
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
    workdir: Optional[str] = None  # the attempt directory, once staged
    tmpdir: Optional[str] = None  # the TMPDIR it was given, once staged
    contents: dict = field(default_factory=dict)  # small outputs' bytes

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


def place_file(source: str, target: str, link: bool) -> bool:
    """Make ``target`` hold ``source``'s bytes unless a name is there
    already, perhaps another run's file or a symlink, which is kept and
    never written to or through; returns whether it was made.  ``link``
    makes a hard link where the filesystem allows one (not across devices,
    not without hard links); else the name is claimed with ``O_EXCL``, so
    that no other writer can take it, and the bytes are copied under a
    temporary name and renamed over the claim.  Raises FileNotFoundError,
    leaving nothing behind, when ``source`` is gone."""
    if link:
        try:
            os.link(source, target)
            return True
        except FileExistsError:
            return False
        except OSError:
            pass  # another filesystem, no hard links, or no source: copy
    try:
        os.close(os.open(target, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return False
    try:
        write_atomically(target, lambda tmp: shutil.copyfile(source, tmp))
    except BaseException:
        os.remove(target)
        raise
    return True


def write_atomically(target: str, write):
    """Call ``write(path)`` on a temporary name beside ``target``, then
    rename it over ``target``; a failed write leaves nothing behind."""
    partial = f"{target}.{os.urandom(4).hex()}.tmp"
    try:
        write(partial)
        os.replace(partial, target)
    finally:
        if os.path.exists(partial):
            os.remove(partial)


def _stamp(path: str):
    """Set ``path``'s mtime 2 s back, so that any later write but a
    deliberate ``utime`` moves its signature (see planner.file_signature),
    and one ``lstat`` finds the write without a hash."""
    stamp = time.time_ns() - _STAMP_LAG_NS
    os.utime(path, ns=(stamp, stamp))


class InputStore:
    """The run's record of the files it vouches for, and its one verified,
    read-only copy, ``<root>/<sha256>``, of each distinct input it did not
    make, which attempts hard-link their inputs to.  ``root`` is the run
    directory, which also holds what else lives only as long as the run
    (see LocalRuntime).

    ``made`` maps the path of each entry, and of each output collected in
    this run (see collect_outputs), to its signature as stamped (see
    _stamp), and a path to None once it is set aside (see _set_aside).  The
    first attempt that needs an entry makes it (see stage) under its path's
    lock, so that a second one waits instead of copying and hashing too.
    Every entry made, also one made again after a tool wrote through it, is
    a copy of the source checked against the job-order checksum: hashed,
    unless the signature recorded when the source was hashed stands in for
    that hash (see _fill).  Tools may run as root, so a write through a
    link is detected, not refused.
    """

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.made = {}
        self._lock = threading.Lock()
        self._locks = {}  # path -> its lock

    def locked(self, path: str) -> threading.Lock:
        with self._lock:
            return self._locks.setdefault(path, threading.Lock())


def _fill(fv: FileValue, partial: str):
    """Copy ``fv``'s source to ``partial``, check it against the job-order
    checksum, make it read-only and stamp it.  The copy is not hashed when
    the source still has the signature recorded at its hash (see
    FileValue.from_path) both before and after the copy: no write reached
    it since, so the copy holds the bytes that were hashed."""
    signed = fv.unchanged()
    if not signed and not os.path.isfile(fv.path):
        raise StagingError(f"input file missing: {fv.path}")
    shutil.copyfile(fv.path, partial)
    if not (signed and fv.unchanged()):
        found = file_checksum(partial)
        if found != fv.checksum:
            raise StagingError(
                f"input changed during run: {fv.path} "
                f"(expected {fv.checksum[:12]}, found {found[:12]})")
    os.chmod(partial, 0o444)
    _stamp(partial)


def _set_aside(read: dict, store: InputStore) -> list:
    """The names of the inputs in ``read`` (see StagedDirectory) whose file
    no longer has the signature read.  The first attempt to notice a
    change renames the file to ``<path>.modified`` and records it as set
    aside, under the path's lock and only while the record still holds the
    signature this attempt read, so that a store entry made again since is
    kept.  A store entry set aside is made again from its source; a
    run-made file set aside fails every later reader, and no stage-out
    finds it."""
    moved = []
    for path, (name, signature) in sorted(read.items()):
        if signature is not None and file_signature(path) == signature:
            continue
        moved.append(name)
        with store.locked(path):
            if signature is not None and store.made.get(path) == signature:
                store.made[path] = None
                with contextlib.suppress(OSError):  # gone already
                    os.rename(path, f"{path}.modified")
    return moved


def stage(node_id: str, bindings: dict, work_root: str, store: InputStore,
          tmpdir: str) -> tuple:
    """Stage a fresh working directory for one attempt.

    Returns (StagedDirectory, staged bindings) where the staged bindings
    carry FileValues rewritten to their in-sandbox host paths;
    StagedDirectory.in_container gives their paths in a container.
    The attempt directory is the outdir.  An input that ``store.made``
    holds, an output this run collected, is staged in place: the tool reads
    the producer's own file, after one ``lstat`` finds it unchanged.  Any
    other input is linked from ``store`` to ``<attempt>.inputs/<basename>``,
    or to ``<attempt>.inputs/<n>/<basename>`` when the basename is taken.
    The store checks a source only when it makes that source's entry, once
    per run unless the entry was set aside or changed, and hashes it only
    where the source's recorded signature has moved (see _fill).  The
    directory's ``read`` records each file read, for the check after the
    attempt (see _set_aside).
    ``tmpdir`` is the private directory that TMPDIR names and containers
    mount at /tmp, a worker's reused one (see WorkerScratch).
    """
    safe = node_id.replace("/", "_").replace("[", "_").replace("]", "")
    outdir = os.path.join(work_root, f"{safe}-{os.urandom(4).hex()}")
    os.makedirs(outdir)

    staged_inputs = {}
    staged = StagedDirectory(outdir=outdir, tmpdir=tmpdir,
                             staged_inputs=staged_inputs)

    def read_in_place(fv: FileValue) -> str:
        read = staged.read[fv.path] = (fv.path, store.made[fv.path])
        if _set_aside({fv.path: read}, store):
            raise StagingError(f"input changed during run: {fv.path}")
        return fv.path

    def link(fv: FileValue) -> str:
        name = fv.basename
        if not staged.linked:
            os.mkdir(staged.inputs_dir)
        elif name in staged.linked:
            slot = len(staged.linked)
            while str(slot) in staged.linked:
                slot += 1
            os.mkdir(os.path.join(staged.inputs_dir, str(slot)))
            name = f"{slot}/{name}"
        staged.linked.add(name.split("/")[0])
        target = os.path.join(staged.inputs_dir, name)
        entry = os.path.join(store.root, fv.checksum)
        with store.locked(entry):
            made = store.made.get(entry)
            if made is None or file_signature(entry) != made:
                write_atomically(entry, lambda partial: _fill(fv, partial))
                made = store.made[entry] = file_signature(entry)
            place_file(entry, target, link=True)
        staged.read[entry] = (fv.path, made)
        return target

    def place(fv: FileValue) -> FileValue:
        if fv.path not in staged_inputs:
            staged_inputs[fv.path] = (read_in_place(fv)
                                      if fv.path in store.made else link(fv))
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


def stage_out(outputs: dict, dest_dir: str, work_root: str,
              left_out: list) -> dict:
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
    owned = os.path.join(os.path.abspath(work_root), "")
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
                try:
                    published = place_file(fv.path, target,
                                           link=fv.path.startswith(owned))
                except FileNotFoundError:
                    left_out.append(fv.path)
                    return None
                sums[target] = fv.checksum if published else _held(target)
            chosen.setdefault((fv.basename, sums[target]), target)
            probed[fv.basename] = n + 1
        return replace(fv, path=chosen[fv.basename, fv.checksum])

    return {k: map_files(v, place) for k, v in outputs.items()}


def _render_value(value, ctx):
    """The argv words of one bound value: none for a string that
    interpolates to null, else its text (see expression.stringify)."""
    if isinstance(value, str):
        value = interpolate(value, ctx)
        if value is None:
            return []
    return [stringify(value)]


def build_command_line(tool: ToolDescription, bindings: dict,
                       ctx: EvalContext) -> list:
    """argv per the binding rules; bindings must carry staged FileValues."""
    argv = [stringify(interpolate(tok, ctx)) if "$(" in tok else tok
            for tok in tool.base_command]

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


def _kill_session(pid: int):
    """Kill whatever is left of the session an attempt started in."""
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(pid, signal.SIGKILL)


def execute(task_id: str, attempt_number: int, argv: list, env: dict,
            staged: StagedDirectory, scratch: WorkerScratch,
            adapter: DockerAdapter, streams: dict,
            success_codes=frozenset({0}),
            wall_time_max: Optional[float] = None,
            container_image: Optional[str] = None,
            stdin_path: Optional[str] = None,
            executable: Optional[str] = None) -> TaskAttempt:
    """Run one attempt; never raises for tool failure, only reports it.

    ``scratch`` is the running worker's (see WorkerScratch), ``adapter``
    builds the launch of a ``container_image`` and ``executable`` is where
    ``argv[0]`` was found.  ``streams`` (see ToolDescription.streams) maps
    a stream to the file in the outdir it is written to in place.  Any
    other stream goes to a spare log of ``scratch``, kept as
    ``<attempt>.<stream>.log`` only when the stream was not empty; the
    attempt's ``stdout_path``/``stderr_path`` is None for an empty one.
    The tool starts a session of its own, killed as a whole once the tool
    exits or times out, so that nothing it started outlives the attempt.
    """
    attempt = TaskAttempt(task_id=task_id, attempt_number=attempt_number,
                          argv=list(argv), env=dict(env),
                          workdir=staged.outdir, tmpdir=staged.tmpdir)
    launch_argv = argv
    launch_env = env
    if container_image is not None:
        if not adapter.available():
            return attempt.settle(
                "LaunchError",
                f"container runtime {adapter.command!r} not found")
        launch_argv = adapter.build_argv(container_image, argv, staged, env,
                                         interactive=stdin_path is not None)
        launch_env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin")}

    targets = {which: os.path.join(staged.outdir, streams[which])
               if which in streams else scratch.spare_log(which)
               for which in STREAMS}
    written = {}  # target -> bytes in it after the run

    attempt.start_time = time.time()
    kind = error = None
    fds = {}  # stream file -> its descriptor, and None -> stdin's
    try:
        if stdin_path is not None:
            fds[None] = os.open(stdin_path, os.O_RDONLY)
        for target in targets.values():
            if target not in fds:  # one per file, shared by both streams
                fds[target] = os.open(target, _TRUNCATE, 0o666)
        proc = subprocess.Popen(launch_argv, executable=executable,
                                cwd=staged.outdir, env=launch_env,
                                stdout=fds[targets["stdout"]],
                                stderr=fds[targets["stderr"]],
                                stdin=fds.get(None), start_new_session=True)
        scratch.pid = proc.pid
        if scratch.cancelled.is_set():  # by a cancel that missed the pid
            _kill_session(proc.pid)
        try:
            attempt.exit_code = proc.wait(timeout=wall_time_max)
        except subprocess.TimeoutExpired:
            kind = "Timeout"
            error = f"wall time limit of {wall_time_max}s exceeded"
        # after a timeout the tool itself, else whatever it left running
        _kill_session(proc.pid)
        proc.wait()
        scratch.pid = None
        written = {target: os.fstat(fds[target]).st_size
                   for target in targets.values()}
    except FileNotFoundError as exc:
        kind, error = "LaunchError", f"cannot launch: {exc}"
    except OSError as exc:
        kind, error = "LaunchRace", f"launch failed: {exc}"
    finally:
        for fd in fds.values():
            os.close(fd)

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
                    made: dict, contents: Optional[dict] = None) -> dict:
    """Locate and checksum every declared output of a successful attempt.

    Each output File is stamped (see _stamp) before its hash starts, so
    that any later write moves its signature, which the FileValue carries;
    ``made`` (see InputStore) records path -> signature for each.  A file
    without a signature, one the engine may not stamp (such as one a
    container's root user left) and that was written too recently to be
    trusted, is not recorded, and a later reader gets a store copy of it
    instead.  A file that changes while it is read twice fails its output,
    and ``contents`` gets each small one's bytes (see FileValue.from_path).
    """
    def collected(path: str, out) -> FileValue:
        try:
            _stamp(path)
        except PermissionError:
            pass
        try:
            fv = FileValue.from_path(path, format=out.format,
                                     contents=contents)
        except JobOrderError:  # a process the attempt left still writes it
            raise OutputMissingError(
                f"output {out.id!r}: {path} changed while it was read"
            ) from None
        if fv.signature is not None:
            made[fv.path] = fv.signature
        return fv

    outputs = {}
    for out in tool.outputs:
        if out.capture is not None:
            path = os.path.join(staged.outdir, tool.streams[out.capture])
            if not os.path.isfile(path):
                raise OutputMissingError(
                    f"output {out.id!r}: captured {out.capture} file "
                    f"{path} is gone")
            outputs[out.id] = collected(_regular(path, staged.outdir), out)
            continue
        matches = sorted(globlib.glob(os.path.join(staged.outdir, out.glob),
                                      recursive=True))
        matches = [_regular(m, staged.outdir) for m in matches
                   if os.path.isfile(m)]
        if out.type.base == "File" and out.type.array:
            outputs[out.id] = [collected(m, out) for m in matches]
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
        return collected(matches[0], out)
    with open(matches[0], "r", encoding="utf-8") as fh:
        text = fh.read().strip()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise OutputMissingError(
            f"output {out.id!r}: {matches[0]} is not JSON-valued: {exc}") from exc


def _unspawned(task_id: str, attempt_number: int,
               staged: Optional[StagedDirectory]) -> TaskAttempt:
    """The record of an attempt that ends before ``execute``."""
    return TaskAttempt(
        task_id=task_id, attempt_number=attempt_number,
        workdir=staged and staged.outdir, tmpdir=staged and staged.tmpdir)


class LocalRuntime:
    """Executes TaskNodes on the local machine, optionally via containers."""

    def __init__(self, work_root: str, use_containers: bool = True,
                 adapter=None):
        self.work_root = os.path.abspath(work_root)
        os.makedirs(self.work_root, exist_ok=True)
        self.use_containers = use_containers
        self.adapter = adapter or DockerAdapter()
        # the run directory: the input store, the links that cache hits
        # publish (cached/) and every worker's TMPDIR and spare logs; a
        # name of its own, so that runs sharing a work root never share
        # entries or remove each other's
        try:
            self.store = InputStore(os.path.join(
                self.work_root, f".run-{os.urandom(4).hex()}"))
        except OSError:  # leave no empty work root, as close does
            with contextlib.suppress(OSError):
                os.rmdir(self.work_root)
            raise
        self.cancelled = threading.Event()  # see cancel
        self.cached_dir = os.path.join(self.store.root, "cached")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._scratches = []  # every worker's, for cancel()
        self._tools = {}  # (tool name, PATH) -> where it was found, or None

    def _scratch(self) -> WorkerScratch:
        scratch = getattr(self._local, "scratch", None)
        if scratch is None:
            scratch = self._local.scratch = WorkerScratch(
                self.store.root, self.cancelled)
            with self._lock:
                self._scratches.append(scratch)
        return scratch

    def close(self):
        """End the run: remove the run directory, and the work root itself
        once nothing is left in it.  The links attempts kept to store
        entries hold their bytes."""
        shutil.rmtree(self.store.root, ignore_errors=True)
        with contextlib.suppress(OSError):  # not empty
            os.rmdir(self.work_root)

    def release(self, workdir: str):
        """Delete a successful attempt's directory, which nothing reads any
        more, before returning, on any worker; logs beside it are kept."""
        try:  # an attempt directory holds files, mostly
            for name in os.listdir(workdir):
                os.unlink(os.path.join(workdir, name))
            os.rmdir(workdir)
        except OSError:  # a directory in it, or gone
            shutil.rmtree(workdir, ignore_errors=True)

    def _executable(self, name: str, path: str) -> Optional[str]:
        """Where ``name`` is on ``path``, looked up once per run as a shell's
        hash table does; else None, and the spawn looks it up."""
        with self._lock:
            if (name, path) not in self._tools:
                found = "/" not in name and shutil.which(name, path=path) or ""
                self._tools[name, path] = found if os.path.isabs(found) else None
            return self._tools[name, path]

    def cancel(self):
        """Kill every attempt, running or yet to start.  Tools run in sessions
        of their own, which an interrupt of the engine does not reach."""
        self.cancelled.set()
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
        ``outputs`` are set when it succeeded.  Its one record is made by
        ``execute``, or where it ends before its spawn."""
        image = self.container_image(node)
        scratch = self._scratch()
        staged = attempt = None
        try:
            staged, staged_bindings = stage(
                f"{node.id}-a{attempt_number}", bindings, self.work_root,
                self.store, scratch.tmpdir())
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
                    env[key] = stringify(interpolate(value, ctx))
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
                attempt = _unspawned(node.id, attempt_number, staged)
                return attempt.settle("LaunchError", "empty command line")

            attempt = execute(
                node.id, attempt_number, argv, env, staged, scratch,
                self.adapter, node.tool.streams,
                success_codes=node.tool.success_codes,
                wall_time_max=resources.get("wallTimeMax"),
                container_image=image,
                stdin_path=stdin_path,
                executable=None if image else self._executable(
                    argv[0], env.get("PATH", os.defpath)),
            )
            try:
                if attempt.outcome == SUCCESS:
                    attempt.outputs = collect_outputs(
                        node.tool, staged, self.store.made, attempt.contents)
            finally:
                # whatever the outcome: once collect has read the outputs,
                # no attempt that saw a written input may succeed
                moved = _set_aside(staged.read, self.store)
                if moved:
                    raise StagingError(
                        f"input modified by the tool: {', '.join(moved)}")
            if attempt.outputs is not None and staged.linked:
                # read by nothing from now on
                shutil.rmtree(staged.inputs_dir, ignore_errors=True)
        except tuple(_FAILURE_KINDS) as exc:
            if attempt is None:
                attempt = _unspawned(node.id, attempt_number, staged)
            attempt.outputs = None
            attempt.settle(next(kind for cls, kind in _FAILURE_KINDS.items()
                                if isinstance(exc, cls)), str(exc))
        finally:
            if staged is not None:
                scratch.release_tmpdir(
                    staged.outdir, failed=attempt is not None and bool(
                        attempt.start_time) and attempt.outputs is None)
        return attempt
