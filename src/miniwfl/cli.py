"""Command-line entry point.

Exit codes: 0 success, 1 validation errors, 2 run ended in permanent
failure or an I/O error on its own directories (``miniwfl: <path>:
<reason>``), 3 usage error, 130 (128 + SIGINT) a run interrupted and 143
(128 + SIGTERM) a run terminated, each after its tools were killed.
Diagnostics go to stderr; machine-readable output
(the output object, DOT text, upgraded documents, validate's diagnostic
lines) goes to stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

from . import parser, planner, provenance, scheduler, upgrader, validator
from .cache import ResultCache
from .errors import DowngradeError, MiniwflError, UnknownVersionError
from .runtime import LocalRuntime, stage_out

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_RUN_FAILED = 2
EXIT_USAGE = 3


class _UsageError(Exception):
    pass


class _Interrupted(BaseException):
    """A SIGINT or SIGTERM, raised in the main thread while a run is on:
    the coordinator kills the attempts in flight, and the run ends with
    128 + the signal's number, keeping the attempt directories it had not
    released."""

    def __init__(self, signum: int):
        super().__init__("interrupted" if signum == signal.SIGINT
                         else "terminated")
        self.code = 128 + signum


def _interrupt(signum, frame):
    raise _Interrupted(signum)


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _ArgumentParser:
    ap = _ArgumentParser(prog="miniwfl",
                         description="Desk-scale declarative workflow engine")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a workflow with a job order")
    run.add_argument("workflow")
    run.add_argument("job")
    run.add_argument("--parallel", type=int, default=os.cpu_count() or 1,
                     metavar="N")
    run.add_argument("--retries", type=int, default=0, metavar="N")
    run.add_argument("--outdir", default="./out", metavar="PATH")
    run.add_argument("--cache-dir",
                     default=os.path.expanduser("~/.cache/miniwfl"),
                     metavar="PATH")
    run.add_argument("--no-reuse", action="store_true",
                     help="disable result reuse for this run")
    run.add_argument("--no-container", action="store_true",
                     help="run container-hinted tools directly on the host")
    run.add_argument("--on-error", choices=["stop", "continue"],
                     default="stop")
    run.add_argument("--quiet", action="store_true",
                     help="emit only the output object on stdout")

    val = sub.add_parser("validate", help="statically check a document")
    val.add_argument("workflow")

    graph = sub.add_parser("graph", help="emit the planned DAG as DOT text")
    graph.add_argument("workflow")

    upg = sub.add_parser("upgrade", help="migrate a document to a newer version")
    upg.add_argument("workflow")
    upg.add_argument("--target", required=True, metavar="vX.Y")
    return ap


def _print_diags(diags, stream):
    for d in diags:
        print(d.to_json_line(), file=stream)


def _stage_workflow_outputs(outputs: dict, outdir: str,
                            work_root: str) -> tuple:
    """Publish output files into the run's --outdir and rewrite paths:
    files the run made under ``work_root`` are linked, others copied.
    Returns the outputs, with None for each file that is gone, and the
    paths of those files."""
    left_out = []
    return stage_out(outputs, outdir, work_root, left_out), left_out


def cmd_run(args) -> int:
    doc = parser.load(args.workflow)

    machine = scheduler.Machine()
    diags = validator.validate(doc, machine)
    if not args.quiet or validator.has_errors(diags):
        _print_diags(diags, sys.stderr)
    if validator.has_errors(diags):
        return EXIT_INVALID
    if not doc.is_workflow:
        print("miniwfl: run requires a Workflow document", file=sys.stderr)
        return EXIT_INVALID

    job = planner.load_job_order_file(args.job, doc.body)
    graph = planner.plan(doc, job)

    outdir = os.path.abspath(args.outdir)
    os.makedirs(outdir, exist_ok=True)
    work_root = os.path.join(outdir, ".work")
    runtime = LocalRuntime(work_root, use_containers=not args.no_container)
    cache = None if args.no_reuse else ResultCache(args.cache_dir)
    cfg = scheduler.RunConfig(
        parallelism=args.parallel,
        retries=args.retries,
        machine=machine,
        on_error=args.on_error,
    )
    run_id = os.urandom(16).hex()
    previous = {signum: signal.signal(signum, _interrupt)
                for signum in (signal.SIGINT, signal.SIGTERM)}
    result = None
    try:
        result = scheduler.run(graph, cfg, scheduler.Services(runtime, cache),
                               run_id=run_id)
        record = provenance.build_record(result, parser.canonical_digest(doc),
                                         job, run_id=run_id)
        prov_path = provenance.write_provenance(
            record, os.path.join(outdir, "provenance"))
        if not args.quiet:
            print(f"miniwfl: provenance written to {prov_path}",
                  file=sys.stderr)
        outputs, left_out = _stage_workflow_outputs(result.outputs, outdir,
                                                    runtime.work_root)
    finally:
        # read by nothing any more, also where provenance or stage-out failed
        for path in result.held if result is not None else ():
            runtime.release(path)
        runtime.close()
        if cache is not None:
            cache.close()
        for signum, handler in previous.items():
            signal.signal(signum, handler)

    obj = {k: planner.value_to_json(v) for k, v in sorted(outputs.items())}
    print(json.dumps(obj, indent=2, sort_keys=True))
    for path in left_out:
        print(f"miniwfl: warning: output file gone, left out: {path}",
              file=sys.stderr)
    if result.status != "Success":
        for tid, task in sorted(result.tasks.items()):
            if task.error:
                print(f"miniwfl: task {tid} failed: {task.error}",
                      file=sys.stderr)
    if result.status != "Success" or left_out:
        return EXIT_RUN_FAILED
    return EXIT_OK


def cmd_validate(args) -> int:
    doc = parser.load(args.workflow)
    diags = validator.validate(doc)
    _print_diags(diags, sys.stdout)
    return EXIT_INVALID if validator.has_errors(diags) else EXIT_OK


def cmd_graph(args) -> int:
    doc = parser.load(args.workflow)
    diags = validator.validate(doc)
    if validator.has_errors(diags):
        _print_diags(diags, sys.stderr)
        return EXIT_INVALID
    if not doc.is_workflow:
        print("miniwfl: graph requires a Workflow document", file=sys.stderr)
        return EXIT_INVALID
    inputs = {}
    for p in doc.body.inputs:
        inputs[p.id] = p.default  # values are irrelevant to the shape
    graph = planner.plan(doc, inputs)
    sys.stdout.write(planner.to_dot(graph))
    return EXIT_OK


def cmd_upgrade(args) -> int:
    doc = parser.load(args.workflow)
    try:
        upgraded = upgrader.upgrade(doc, args.target)
    except (DowngradeError, UnknownVersionError) as exc:
        print(f"miniwfl: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(parser.canonical_serialize(upgraded))
    return EXIT_OK


_COMMANDS = {
    "run": cmd_run,
    "validate": cmd_validate,
    "graph": cmd_graph,
    "upgrade": cmd_upgrade,
}


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
        for flag, least in (("parallel", 1), ("retries", 0)):
            if getattr(args, flag, least) < least:
                ap.error(f"argument --{flag}: must be at least {least}")
    except _UsageError as exc:
        print(f"miniwfl: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except MiniwflError as exc:  # a document, job order or plan refused
        print(f"miniwfl: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except _Interrupted as exc:
        print(f"miniwfl: {exc}", file=sys.stderr)
        return exc.code
    except OSError as exc:  # the run's own directories: a full disk, say
        print(f"miniwfl: {exc.filename or 'I/O error'}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_RUN_FAILED


if __name__ == "__main__":
    sys.exit(main())
