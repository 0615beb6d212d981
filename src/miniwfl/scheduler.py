"""Drive a planned graph to completion.

One coordinator thread owns all graph state; attempts run in worker threads
(each blocking on its own subprocess) and report back through a queue.
Admission is deterministic first-fit in (layer, task-id) order under both a
parallelism bound and the machine's resource capacity, so runs are
reproducible regardless of completion interleaving.

A scattered node stays a single graph node; its shards are independent work
units sharing the node's completion.
"""

from __future__ import annotations

import os
import queue
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

from . import planner
from .cache import CacheKey, ResultCache, cache_key, digest_tool
from .errors import (
    ExprSyntaxError,
    ExprTypeError,
    ScatterLengthMismatchError,
    UnknownReferenceError,
)
from .expression import EvalContext, interpolate
from .model import CLAUSE_RESOURCE, Machine
from .planner import (
    CACHED,
    FAILED,
    PENDING,
    READY,
    RUNNING,
    SKIPPED,
    SUCCEEDED,
    DataflowGraph,
    TaskNode,
    apply_guard,
    expand_scatter,
    ready_set,
    resolved_bindings,
)
from .provenance import iso_time

TEMPORARY = "Temporary"
PERMANENT = "Permanent"

_TEMPORARY_KINDS = {"Timeout", "LaunchRace"}

RESOURCE_DEFAULTS = {"coresMin": 1, "ramMin": 256, "diskMin": 0}


@dataclass(frozen=True)
class RunConfig:
    parallelism: int = 1
    retries: int = 0
    machine: Machine = field(default_factory=Machine)
    enable_reuse: bool = True
    on_error: str = "stop"  # or "continue"

    def __post_init__(self):
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.on_error not in ("stop", "continue"):
            raise ValueError("onError must be stop or continue")


@dataclass
class Services:
    runtime: object
    cache: Optional[ResultCache] = None


@dataclass
class RunResult:
    status: str  # Success | PermanentFail
    outputs: dict
    event_log: list
    tasks: dict


def classify_failure(attempt) -> str:
    """Temporary (retryable infrastructure-class) vs permanent failure."""
    if attempt.failure_kind in _TEMPORARY_KINDS:
        return TEMPORARY
    return PERMANENT


def resolve_resources(node: TaskNode, bindings: dict, machine: Machine) -> dict:
    """Effective resource minima, with expressions evaluated over the bound
    inputs and defaults applied."""
    resources = dict(RESOURCE_DEFAULTS)
    clause = node.clause(CLAUSE_RESOURCE)
    if clause is not None:
        ctx = EvalContext(inputs=bindings, runtime={
            "cores": machine.cores, "ram": machine.ram_mib, "outdir": ""})
        for key, raw in clause.payload.items():
            value = raw
            if isinstance(raw, str):
                value = interpolate(raw, ctx)
            if key == "wallTimeMax":
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise ExprTypeError(f"wallTimeMax must be numeric, got {value!r}")
                resources[key] = float(value)
                continue
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ExprTypeError(
                    f"resource {key} must be a nonnegative integer, got {value!r}")
            resources[key] = value
    return resources


def fits_machine(resources: dict, machine: Machine) -> bool:
    return (resources["coresMin"] <= machine.cores
            and resources["ramMin"] <= machine.ram_mib
            and resources["diskMin"] <= machine.disk_mib)


@dataclass
class _Scatter:
    """Progress of a scattered node's shards."""

    width: int
    results: list  # per shard: its outputs, or None until it finishes
    done: int = 0
    cached: int = 0
    skipped: int = 0


@dataclass
class _Unit:
    """One admissible execution: a plain node or a single scatter shard."""

    node: TaskNode        # graph node (completion owner)
    exec_node: TaskNode   # what actually runs (shard for scatters)
    bindings: dict
    resources: dict
    shard_index: Optional[int] = None
    attempt: int = 1
    key: Optional[CacheKey] = None  # set by the cache lookup, reused by store

    @property
    def sort_key(self):
        return (self.node.layer, self.exec_node.id)


@dataclass
class _Ledger:
    running: int = 0
    cores: int = 0
    ram: int = 0
    disk: int = 0

    def admitting(self, res):
        self.running += 1
        self.cores += res["coresMin"]
        self.ram += res["ramMin"]
        self.disk += res["diskMin"]

    def releasing(self, res):
        self.running -= 1
        self.cores -= res["coresMin"]
        self.ram -= res["ramMin"]
        self.disk -= res["diskMin"]


def admission(ready_units: list, ledger: _Ledger, cfg: RunConfig) -> list:
    """Deterministic first-fit prefix of the ready units that fits the
    parallelism and capacity budget.  Does not mutate the ledger."""
    admitted = []
    running = ledger.running
    cores = ledger.cores
    ram = ledger.ram
    disk = ledger.disk
    for unit in sorted(ready_units, key=lambda u: u.sort_key):
        if running >= cfg.parallelism:
            break
        res = unit.resources
        if (cores + res["coresMin"] <= cfg.machine.cores
                and ram + res["ramMin"] <= cfg.machine.ram_mib
                and disk + res["diskMin"] <= cfg.machine.disk_mib):
            admitted.append(unit)
            running += 1
            cores += res["coresMin"]
            ram += res["ramMin"]
            disk += res["diskMin"]
    return admitted


class _Coordinator:
    def __init__(self, graph: DataflowGraph, cfg: RunConfig, services: Services):
        self.graph = graph
        self.cfg = cfg
        self.services = services
        self.published = {}
        self.events = []
        self.tasks = {}
        self.admissible = []
        self.ledger = _Ledger()
        self.completions = queue.Queue()
        self.stop_admission = False
        self.in_flight = 0
        self.scatters = {}  # node id -> _Scatter
        self.run_id = ""
        self._tool_digests = {}

    # -- bookkeeping --------------------------------------------------------

    def log(self, task_id: str, transition: str, attempt: int = 0):
        self.events.append({
            "ts": iso_time(time.time()),
            "task": task_id,
            "transition": transition,
            "attempt": attempt,
        })

    def task_info(self, task_id: str) -> dict:
        return self.tasks.setdefault(task_id, {
            "state": PENDING, "cached": False, "attempts": [],
            "inputs": {}, "outputs": None, "toolDigest": None,
        })

    def tool_digest(self, node: TaskNode) -> str:
        if node.id not in self._tool_digests:
            self._tool_digests[node.id] = digest_tool(node.tool)
        return self._tool_digests[node.id]

    def set_state(self, node: TaskNode, state: str, attempt: int = 0):
        node.transition(state)
        self.task_info(node.id)["state"] = state
        self.log(node.id, state, attempt)

    def publish(self, node: TaskNode, outputs: dict):
        for out in node.tool.outputs:
            self.published[(node.id, out.id)] = outputs.get(out.id)

    # -- readiness ----------------------------------------------------------

    def process_readiness(self):
        # Loop to a fixpoint: skipped steps and width-0 scatters publish
        # outputs immediately, which can make their consumers ready in turn.
        while True:
            ready = sorted(ready_set(self.graph, self.published))
            if not ready:
                return
            for tid in ready:
                node = self.graph.nodes[tid]
                try:
                    self._make_ready(node)
                except (ExprSyntaxError, ExprTypeError, UnknownReferenceError,
                        ScatterLengthMismatchError) as exc:
                    self._fail_node(node, str(exc))

    def _make_ready(self, node: TaskNode):
        bindings = resolved_bindings(node, self.published)
        info = self.task_info(node.id)
        info["inputs"] = bindings
        info["toolDigest"] = self.tool_digest(node)

        if node.scatter:
            self._make_scatter_ready(node, bindings)
            return

        if node.guard is not None:
            ctx = EvalContext(inputs=bindings, runtime={})
            if apply_guard(node, ctx) == planner.SKIP:
                self.set_state(node, SKIPPED)
                outputs = {out.id: None for out in node.tool.outputs}
                info["outputs"] = outputs
                self.publish(node, outputs)
                return

        self.set_state(node, READY)
        resources = resolve_resources(node, bindings, self.cfg.machine)
        if not fits_machine(resources, self.cfg.machine):
            self._fail_node(
                node, f"declared resource minima {resources} exceed machine "
                      f"capacity")
            return
        self.admissible.append(_Unit(node=node, exec_node=node,
                                     bindings=bindings, resources=resources))

    def _make_scatter_ready(self, node: TaskNode, bindings: dict):
        shards, width = expand_scatter(node, bindings)
        self.set_state(node, READY)
        self.set_state(node, RUNNING)
        scatter = self.scatters[node.id] = _Scatter(width, [None] * width)
        if width == 0:
            self._finalize_scatter(node)
            return
        for i, shard in enumerate(shards):
            shard_bindings = {k: b[1] for k, b in shard.bindings.items()}
            shard_info = self.task_info(shard.id)
            shard_info["inputs"] = shard_bindings
            shard_info["toolDigest"] = self.tool_digest(node)
            if shard.guard is not None:
                ctx = EvalContext(inputs=shard_bindings, runtime={})
                if apply_guard(shard, ctx) == planner.SKIP:
                    shard_info["state"] = SKIPPED
                    self.log(shard.id, SKIPPED)
                    outputs = {out.id: None for out in node.tool.outputs}
                    shard_info["outputs"] = outputs
                    scatter.results[i] = outputs
                    scatter.done += 1
                    scatter.skipped += 1
                    continue
            resources = resolve_resources(shard, shard_bindings,
                                          self.cfg.machine)
            if not fits_machine(resources, self.cfg.machine):
                self._fail_node(node,
                                f"shard {shard.id}: resource minima exceed "
                                f"machine capacity")
                return
            self.admissible.append(_Unit(node=node, exec_node=shard,
                                         bindings=shard_bindings,
                                         resources=resources, shard_index=i))
        if scatter.done == width:
            self._finalize_scatter(node)

    def _finalize_scatter(self, node: TaskNode):
        scatter = self.scatters[node.id]
        outputs = {}
        for out in node.tool.outputs:
            outputs[out.id] = [
                (r or {}).get(out.id) for r in scatter.results]
        info = self.task_info(node.id)
        executed = scatter.width - scatter.skipped
        if executed > 0 and scatter.cached == executed:
            self.set_state(node, CACHED)
            info["cached"] = True
        else:
            self.set_state(node, SUCCEEDED)
        info["outputs"] = outputs
        self.publish(node, outputs)

    def _fail_node(self, node: TaskNode, error: str):
        if node.state != FAILED:
            self.task_info(node.id)["error"] = error
            self.set_state(node, FAILED)
            if self.cfg.on_error == "stop":
                self.stop_admission = True
        self.admissible = [u for u in self.admissible if u.node is not node]

    # -- admission / completion --------------------------------------------

    def admit(self, pool):
        if self.stop_admission:
            return
        while True:
            admitted = admission(self.admissible, self.ledger, self.cfg)
            if not admitted:
                return
            cache_hit = False
            for unit in admitted:
                self.admissible.remove(unit)
                if self._try_cache(unit):
                    cache_hit = True
                else:
                    self._start(unit, pool)
            if not cache_hit:
                return
            # cache hits published outputs without occupying a worker;
            # downstream nodes may be ready now
            self.process_readiness()
            if self.stop_admission:
                return

    def _try_cache(self, unit: _Unit) -> bool:
        cache = self.services.cache
        if cache is None or not self.cfg.enable_reuse:
            return False
        if unit.key is None:
            unit.key = cache_key(unit.exec_node, unit.bindings,
                                 self.tool_digest(unit.node), unit.resources)
        hit = cache.lookup(unit.key)
        if hit is None:
            return False
        dest = os.path.join(getattr(self.services.runtime, "work_root", "."),
                            "cached",
                            unit.exec_node.id.replace("/", "_"))
        outputs = cache.republish(hit, dest)
        info = self.task_info(unit.exec_node.id)
        info["cached"] = True
        info["outputs"] = outputs
        if unit.shard_index is not None:
            info["state"] = CACHED
            self.log(unit.exec_node.id, CACHED)
            scatter = self.scatters[unit.node.id]
            scatter.results[unit.shard_index] = outputs
            scatter.done += 1
            scatter.cached += 1
            if scatter.done == scatter.width:
                self._finalize_scatter(unit.node)
        else:
            self.set_state(unit.node, CACHED)
            self.publish(unit.node, outputs)
        return True

    def _start(self, unit: _Unit, pool):
        if unit.shard_index is None and unit.node.state == READY:
            self.set_state(unit.node, RUNNING, unit.attempt)
        else:
            self.log(unit.exec_node.id, RUNNING, unit.attempt)
            self.task_info(unit.exec_node.id)["state"] = RUNNING
        self.ledger.admitting(unit.resources)
        self.in_flight += 1

        def work():
            try:
                result = self.services.runtime.run_task(
                    unit.exec_node, unit.bindings, unit.attempt,
                    unit.resources)
                # stored here, off the coordinator; unit.key is set only
                # when the cache is in use
                if result.outputs is not None and unit.key is not None:
                    self.services.cache.store(unit.key, result.outputs,
                                              source_run_id=self.run_id)
            except Exception as exc:  # defensive: worker must always report
                from .runtime import AttemptResult, TaskAttempt
                attempt = TaskAttempt(task_id=unit.exec_node.id,
                                      attempt_number=unit.attempt,
                                      failure_kind="Internal",
                                      error=repr(exc))
                result = AttemptResult(attempt=attempt)
            self.completions.put((unit, result))

        pool.submit(work)

    def handle_completion(self, unit: _Unit, result):
        self.ledger.releasing(unit.resources)
        self.in_flight -= 1
        info = self.task_info(unit.exec_node.id)
        info["attempts"].append(result.attempt)

        if result.outputs is not None:
            self._complete_success(unit, result.outputs)
            return

        if (classify_failure(result.attempt) == TEMPORARY
                and unit.attempt <= self.cfg.retries):
            unit.attempt += 1
            self.admissible.append(unit)
            return

        info["error"] = result.attempt.error
        if unit.shard_index is not None:
            info["state"] = FAILED
            self.log(unit.exec_node.id, FAILED, unit.attempt)
            self._fail_node(unit.node, f"shard {unit.exec_node.id} failed: "
                                       f"{result.attempt.error}")
        else:
            self._fail_node(unit.node, result.attempt.error or "task failed")

    def _complete_success(self, unit: _Unit, outputs: dict):
        info = self.task_info(unit.exec_node.id)
        info["outputs"] = outputs
        if unit.shard_index is not None:
            info["state"] = SUCCEEDED
            self.log(unit.exec_node.id, SUCCEEDED, unit.attempt)
            scatter = self.scatters[unit.node.id]
            scatter.results[unit.shard_index] = outputs
            scatter.done += 1
            if unit.node.state == FAILED:
                return
            if scatter.done == scatter.width:
                self._finalize_scatter(unit.node)
        else:
            self.set_state(unit.node, SUCCEEDED, unit.attempt)
            self.publish(unit.node, outputs)

    # -- main loop ----------------------------------------------------------

    def run(self) -> RunResult:
        with ThreadPoolExecutor(max_workers=self.cfg.parallelism) as pool:
            self.process_readiness()
            while True:
                self.admit(pool)
                if self.in_flight == 0:
                    break
                unit, result = self.completions.get()
                self.handle_completion(unit, result)
                self.process_readiness()
        return self._result()

    def _result(self) -> RunResult:
        failed = any(n.state == FAILED for n in self.graph.nodes.values())
        incomplete = any(n.state in (PENDING, READY, RUNNING)
                         for n in self.graph.nodes.values())
        status = "Success" if not failed and not incomplete else "PermanentFail"
        outputs = {}
        for out_id, binding in self.graph.workflow_outputs.items():
            if binding[0] == "lit":
                outputs[out_id] = binding[1]
            else:
                outputs[out_id] = self.published.get(binding[1])
        return RunResult(status=status, outputs=outputs,
                         event_log=self.events, tasks=self.tasks)


def run(graph: DataflowGraph, cfg: RunConfig, services: Services,
        run_id: str = "") -> RunResult:
    """Execute a planned graph to completion; failures land in the result,
    never as exceptions."""
    coordinator = _Coordinator(graph, cfg, services)
    coordinator.run_id = run_id
    return coordinator.run()
