"""Span recorder wrapped around miniwfl's layer entry points.

The wrappers are installed from outside the program: each entry point is
replaced where its caller looks it up (``scheduler`` imports ``ready_set``,
``expand_scatter``, ``cache_key`` and ``interpolate`` by name; ``runtime``
and ``cache`` import ``file_checksum`` by name), so ``src/`` stays
unchanged.  Spans stay in memory and are written once, by ``dump``.

A span is ``[name, start, end, thread, parent, task, run, cpu, extra]``:
monotonic start and end, the thread's CPU seconds inside the span, and
``extra`` holding the bytes hashed and copied while the span was the
innermost open one on its thread, plus flags read from the call's result.
"""

from __future__ import annotations

import importlib
import json
import os
import threading
import time

NAME, START, END, THREAD, PARENT, TASK, RUN, CPU, EXTRA = range(9)


def _task_id(value):
    if isinstance(value, str):
        return value
    return getattr(value, "id", None)


# (module, attribute, span name, index of the task-id argument, result flags)
SPANS = [
    ("miniwfl.cli", "main", "cli.main", None, None),
    ("miniwfl.cli", "_stage_workflow_outputs", "cli.stage_out", None, None),
    ("miniwfl.parser", "parse_document", "parser.parse_document", None, None),
    ("miniwfl.parser", "resolve_references", "parser.resolve_references",
     None, None),
    ("miniwfl.validator", "validate", "validator.validate", None, None),
    ("miniwfl.planner", "load_job_order_file", "planner.job_load", None, None),
    ("miniwfl.planner", "plan", "planner.plan", None, None),
    ("miniwfl.scheduler", "ready_set", "planner.ready_set", None, None),
    ("miniwfl.scheduler", "expand_scatter", "planner.expand_scatter", 0, None),
    ("miniwfl.scheduler", "run", "scheduler.run", None, None),
    ("miniwfl.scheduler", "admission", "scheduler.admission", None, None),
    ("miniwfl.scheduler", "cache_key", "cache.key", 0, None),
    ("miniwfl.cache", "ResultCache.lookup", "cache.lookup", None,
     lambda r: {"hit": int(r is not None)}),
    ("miniwfl.cache", "ResultCache.store", "cache.store", None, None),
    ("miniwfl.cache", "ResultCache.republish", "cache.republish", None, None),
    ("miniwfl.runtime", "LocalRuntime.run_task", "runtime.run_task", 1,
     lambda r: {"failed": int(r.outputs is None)}),
    ("miniwfl.runtime", "stage", "runtime.stage", 0, None),
    ("miniwfl.runtime", "execute", "runtime.execute", 0,
     lambda r: {"spawned": int(bool(r.start_time))}),
    ("miniwfl.runtime", "collect_outputs", "runtime.collect", None, None),
    ("miniwfl.provenance", "build_record", "provenance.build", None, None),
    ("miniwfl.provenance", "write_provenance", "provenance.write", None,
     lambda r: {"record_bytes": os.path.getsize(r)}),
    ("miniwfl.expression", "interpolate", "expression.interpolate", None, None),
    ("miniwfl.scheduler", "interpolate", "expression.interpolate", None, None),
    ("miniwfl.runtime", "interpolate", "expression.interpolate", None, None),
]

# (module, attribute) of the byte movers counted against the innermost span
HASHERS = [("miniwfl.planner", "file_checksum"),
           ("miniwfl.runtime", "file_checksum"),
           ("miniwfl.cache", "file_checksum")]
COPIERS = [("shutil", "copyfile")]


class Recorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.missing = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, key: str, amount: int):
        stack = self._stack()
        if stack:
            extra = stack[-1][EXTRA]
            extra[key] = extra.get(key, 0) + amount

    def span(self, name, fn, task_arg=None, flags=None):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            task = None
            if task_arg is not None and task_arg < len(args):
                task = _task_id(args[task_arg])
            rec = [name, 0.0, 0.0, threading.get_ident(),
                   stack[-1] if stack else None, task, self.run_id, 0.0, {}]
            self.spans.append(rec)
            stack.append(rec)
            cpu = time.thread_time()
            rec[START] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.monotonic()
                rec[CPU] = time.thread_time() - cpu
                stack.pop()
            if flags is not None:
                rec[EXTRA].update(flags(result))
            return result
        return wrapper

    def hasher(self, fn):
        def wrapper(path, *args, **kwargs):
            result = fn(path, *args, **kwargs)
            self._add("hash_calls", 1)
            self._add("hash_bytes", os.path.getsize(path))
            return result
        return wrapper

    def copier(self, fn):
        def wrapper(src, dst, *args, **kwargs):
            result = fn(src, dst, *args, **kwargs)
            self._add("copy_bytes", os.path.getsize(result))
            return result
        return wrapper

    def dump(self, path: str):
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        rows = []
        for rec in self.spans:
            row = list(rec)
            row[PARENT] = (None if rec[PARENT] is None
                           else index[id(rec[PARENT])])
            rows.append(row)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows, "missing": self.missing}, fh)


def _lookup(module: str, attr: str):
    """(owner, name, current value) or None when the entry point is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, name):
        return None
    return owner, name, getattr(owner, name)


def install(recorder: Recorder):
    """Wrap every entry point that exists; record the ones that do not."""
    for module, attr, name, task_arg, flags in SPANS:
        found = _lookup(module, attr)
        if found is None:
            recorder.missing.append(name)
            continue
        owner, attr_name, fn = found
        setattr(owner, attr_name, recorder.span(name, fn, task_arg, flags))
    for table, wrap, label in ((HASHERS, recorder.hasher, "hash"),
                               (COPIERS, recorder.copier, "copy")):
        for module, attr in table:
            found = _lookup(module, attr)
            if found is None:
                recorder.missing.append(f"{label}:{module}.{attr}")
                continue
            owner, attr_name, fn = found
            setattr(owner, attr_name, wrap(fn))


# -- aggregation (runs in the harness, on dumped spans) ----------------------

LAYERS = ["cli", "parser", "validator", "planner", "scheduler", "runtime",
          "cache", "provenance", "expression"]

MIB = float(1 << 20)


def _per_name(spans):
    agg = {}
    for row in spans:
        a = agg.setdefault(row[NAME], {"n": 0, "s": 0.0, "cpu": 0.0})
        a["n"] += 1
        a["s"] += row[END] - row[START]
        a["cpu"] += row[CPU]
        for key, value in row[EXTRA].items():
            a[key] = a.get(key, 0) + value
    return agg


def self_times(spans) -> dict:
    """Layer -> seconds its spans ran minus the time their child spans
    covered.  Children run on the parent's thread, nested inside it."""
    child = [0.0] * len(spans)
    for row in spans:
        if row[PARENT] is not None:
            child[row[PARENT]] += row[END] - row[START]
    out = dict.fromkeys(LAYERS, 0.0)
    for i, row in enumerate(spans):
        layer = row[NAME].split(".", 1)[0]
        out[layer] += row[END] - row[START] - child[i]
    return out


def layer_busy(spans, layer: str) -> float:
    """Wall seconds in spans of ``layer`` not nested in another of its own."""
    total = 0.0
    for row in spans:
        if not row[NAME].startswith(layer + "."):
            continue
        parent = row[PARENT]
        while parent is not None and not spans[parent][NAME].startswith(layer + "."):
            parent = spans[parent][PARENT]
        if parent is None:
            total += row[END] - row[START]
    return total


# names under which install() reports a missing byte counter
PLANNER_HASH = "hash:miniwfl.planner.file_checksum"
RUNTIME_HASH = "hash:miniwfl.runtime.file_checksum"
CACHE_HASH = "hash:miniwfl.cache.file_checksum"
COPY = "copy:shutil.copyfile"

# metric -> (span and counter names it needs, unit, better)
PER_LAYER = {
    "scheduler.run_s": (["scheduler.run"], "s", "lower"),
    "scheduler.coordinator_cpu_s": (["scheduler.run"], "s", "lower"),
    "scheduler.admission_calls": (["scheduler.admission"], "count", "lower"),
    "scheduler.admission_s": (["scheduler.admission"], "s", "lower"),
    "scheduler.worker_busy_frac": (["scheduler.run", "runtime.run_task"],
                                   "ratio", "higher"),
    "scheduler.units": (["runtime.run_task", "cache.lookup"], "count", "higher"),
    "planner.ready_set_calls": (["planner.ready_set"], "count", "lower"),
    "planner.ready_set_s": (["planner.ready_set"], "s", "lower"),
    "planner.expand_scatter_s": (["planner.expand_scatter"], "s", "lower"),
    "planner.plan_s": (["planner.plan"], "s", "lower"),
    "planner.job_load_s": (["planner.job_load"], "s", "lower"),
    "planner.job_hash_mib": (["planner.job_load", PLANNER_HASH], "MiB", "lower"),
    "parser.load_s": (["parser.parse_document", "parser.resolve_references"],
                      "s", "lower"),
    "parser.docs_parsed": (["parser.parse_document"], "count", "lower"),
    "validator.validate_s": (["validator.validate"], "s", "lower"),
    "cache.key_calls": (["cache.key"], "count", "lower"),
    "cache.key_s": (["cache.key"], "s", "lower"),
    "cache.stores": (["cache.store"], "count", "lower"),
    "cache.store_s": (["cache.store"], "s", "lower"),
    "cache.store_copy_mib": (["cache.store", COPY], "MiB", "lower"),
    "cache.store_on_coordinator_frac": (["cache.store", "scheduler.run"],
                                        "ratio", "lower"),
    "cache.lookups": (["cache.lookup"], "count", "lower"),
    "cache.hits": (["cache.lookup"], "count", "higher"),
    "cache.hit_ratio": (["cache.lookup"], "ratio", "higher"),
    "cache.lookup_s": (["cache.lookup"], "s", "lower"),
    "cache.lookup_hash_mib": (["cache.lookup", CACHE_HASH], "MiB", "lower"),
    "cache.republish_s": (["cache.republish"], "s", "lower"),
    "cache.republish_copy_mib": (["cache.republish", COPY], "MiB", "lower"),
    "runtime.attempts": (["runtime.run_task"], "count", "lower"),
    "runtime.attempts_failed": (["runtime.run_task"], "count", "lower"),
    "runtime.run_task_s": (["runtime.run_task"], "s", "lower"),
    "runtime.worker_cpu_s": (["runtime.run_task"], "s", "lower"),
    "runtime.stage_s": (["runtime.stage"], "s", "lower"),
    "runtime.stage_hash_mib": (["runtime.stage", RUNTIME_HASH], "MiB", "lower"),
    "runtime.stage_copy_mib": (["runtime.stage", COPY], "MiB", "lower"),
    "runtime.execute_s": (["runtime.execute"], "s", "lower"),
    "runtime.spawns": (["runtime.execute"], "count", "lower"),
    "runtime.collect_s": (["runtime.collect"], "s", "lower"),
    "runtime.collect_hash_mib": (["runtime.collect", PLANNER_HASH], "MiB", "lower"),
    "cli.stage_out_s": (["cli.stage_out"], "s", "lower"),
    "cli.stage_out_hash_calls": (["cli.stage_out", PLANNER_HASH], "count", "lower"),
    "cli.stage_out_copy_mib": (["cli.stage_out", COPY], "MiB", "lower"),
    "provenance.build_s": (["provenance.build"], "s", "lower"),
    "provenance.write_s": (["provenance.write"], "s", "lower"),
    "provenance.record_mib": (["provenance.write"], "MiB", "lower"),
    "expression.interpolate_calls": (["expression.interpolate"], "count",
                                     "lower"),
    "expression.interpolate_s": (["expression.interpolate"], "s", "lower"),
}
PER_LAYER.update({f"{layer}.self_s": ([], "s", "lower") for layer in LAYERS})

PARALLEL = 2  # worker slots the harness gives every run (--parallel)


def layer_metrics(spans, missing) -> dict:
    """Per-layer metric -> value for one traced run; None where a wrapped
    entry point was missing."""
    agg = _per_name(spans)

    def get(name, key="s"):
        return agg.get(name, {}).get(key, 0)

    run_s = get("scheduler.run")
    coordinator = {row[THREAD] for row in spans if row[NAME] == "scheduler.run"}
    stores_on_coordinator = sum(1 for row in spans if row[NAME] == "cache.store"
                                and row[THREAD] in coordinator)
    lookups = get("cache.lookup", "n")
    hits = get("cache.lookup", "hit")
    attempts = get("runtime.run_task", "n")
    failed = get("runtime.run_task", "failed")
    values = {
        "scheduler.run_s": run_s,
        "scheduler.coordinator_cpu_s": get("scheduler.run", "cpu"),
        "scheduler.admission_calls": get("scheduler.admission", "n"),
        "scheduler.admission_s": get("scheduler.admission"),
        "scheduler.worker_busy_frac": (get("runtime.run_task") / (PARALLEL * run_s)
                                       if run_s else 0.0),
        "scheduler.units": attempts - failed + hits,
        "planner.ready_set_calls": get("planner.ready_set", "n"),
        "planner.ready_set_s": get("planner.ready_set"),
        "planner.expand_scatter_s": get("planner.expand_scatter"),
        "planner.plan_s": get("planner.plan"),
        "planner.job_load_s": get("planner.job_load"),
        "planner.job_hash_mib": get("planner.job_load", "hash_bytes") / MIB,
        "parser.load_s": layer_busy(spans, "parser"),
        "parser.docs_parsed": get("parser.parse_document", "n"),
        "validator.validate_s": get("validator.validate"),
        "cache.key_calls": get("cache.key", "n"),
        "cache.key_s": get("cache.key"),
        "cache.stores": get("cache.store", "n"),
        "cache.store_s": get("cache.store"),
        "cache.store_copy_mib": get("cache.store", "copy_bytes") / MIB,
        "cache.store_on_coordinator_frac": (
            stores_on_coordinator / get("cache.store", "n")
            if get("cache.store", "n") else 0.0),
        "cache.lookups": lookups,
        "cache.hits": hits,
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.lookup_s": get("cache.lookup"),
        "cache.lookup_hash_mib": get("cache.lookup", "hash_bytes") / MIB,
        "cache.republish_s": get("cache.republish"),
        "cache.republish_copy_mib": get("cache.republish", "copy_bytes") / MIB,
        "runtime.attempts": attempts,
        "runtime.attempts_failed": failed,
        "runtime.run_task_s": get("runtime.run_task"),
        "runtime.worker_cpu_s": get("runtime.run_task", "cpu"),
        "runtime.stage_s": get("runtime.stage"),
        "runtime.stage_hash_mib": get("runtime.stage", "hash_bytes") / MIB,
        "runtime.stage_copy_mib": get("runtime.stage", "copy_bytes") / MIB,
        "runtime.execute_s": get("runtime.execute"),
        "runtime.spawns": get("runtime.execute", "spawned"),
        "runtime.collect_s": get("runtime.collect"),
        "runtime.collect_hash_mib": get("runtime.collect", "hash_bytes") / MIB,
        "cli.stage_out_s": get("cli.stage_out"),
        "cli.stage_out_hash_calls": get("cli.stage_out", "hash_calls"),
        "cli.stage_out_copy_mib": get("cli.stage_out", "copy_bytes") / MIB,
        "provenance.build_s": get("provenance.build"),
        "provenance.write_s": get("provenance.write"),
        "provenance.record_mib": get("provenance.write", "record_bytes") / MIB,
        "expression.interpolate_calls": get("expression.interpolate", "n"),
        "expression.interpolate_s": get("expression.interpolate"),
    }
    values.update({f"{layer}.self_s": t
                   for layer, t in self_times(spans).items()})
    for metric, (needs, _, _) in PER_LAYER.items():
        if any(name in missing for name in needs):
            values[metric] = None
    return values
