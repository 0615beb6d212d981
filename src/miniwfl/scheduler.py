"""Drive a planned graph to completion.

One coordinator thread owns all graph state; attempts run in worker threads
(each blocking on its own subprocess) and report back through a queue.

Readiness is incremental: publishing an output makes only the nodes that
read it candidates, and only candidates are checked, in id order.  A ready
node becomes work units (one for a plain node, one per shard for a
scattered node, which stays a single graph node) that all take the same
path: guard, resources, a heap ordered by (layer, task id), admission,
cache lookup or a worker, and one completion routine.  Admission pops the
first-fit units under both a parallelism bound and the machine's resource
capacity, so runs are reproducible regardless of completion interleaving,
and the coordinator's cost grows linearly with tasks and shards.
"""

from __future__ import annotations

import heapq
import os
import queue
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
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
class TaskRecord:
    """What a run recorded about one task or scatter shard."""

    state: str = PENDING
    cached: bool = False
    attempts: list = field(default_factory=list)
    inputs: dict = field(default_factory=dict)
    outputs: Optional[dict] = None
    tool_digest: Optional[str] = None
    error: Optional[str] = None


@dataclass
class RunResult:
    status: str  # Success | PermanentFail
    outputs: dict
    event_log: list
    tasks: dict  # task or shard id -> TaskRecord


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


@dataclass
class _Ledger:
    """Work admitted and not yet finished."""

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


_IDLE = _Ledger()


def fits_machine(resources: dict, machine: Machine,
                 used: _Ledger = _IDLE) -> bool:
    """Whether ``resources`` fit on ``machine`` next to the ``used`` work."""
    return (used.cores + resources["coresMin"] <= machine.cores
            and used.ram + resources["ramMin"] <= machine.ram_mib
            and used.disk + resources["diskMin"] <= machine.disk_mib)


@dataclass
class _Scatter:
    """Progress of a scattered node's shards."""

    width: int
    results: list  # per shard: its outputs, or None until it finishes
    done: int = 0
    cached: int = 0
    skipped: int = 0


@dataclass(eq=False)
class _Unit:
    """One admissible execution, ordered by (layer, exec id): a plain node,
    whose ``exec_node`` is the node itself, or a single scatter shard."""

    node: TaskNode        # graph node (completion owner)
    exec_node: TaskNode   # what actually runs (shard for scatters)
    bindings: dict
    resources: Optional[dict] = None
    shard_index: Optional[int] = None
    attempt: int = 1
    key: Optional[CacheKey] = None  # set by the cache lookup, reused by store

    def __lt__(self, other: "_Unit") -> bool:
        return ((self.node.layer, self.exec_node.id)
                < (other.node.layer, other.exec_node.id))


def admission(heap: list, ledger: _Ledger, cfg: RunConfig) -> list:
    """Pop the deterministic first-fit prefix of the ``heap`` of units that
    fits the parallelism and capacity budget; units passed over go back on
    the heap.  Does not mutate the ledger."""
    budget = replace(ledger)
    admitted, passed = [], []
    while heap and budget.running < cfg.parallelism:
        unit = heapq.heappop(heap)
        if fits_machine(unit.resources, cfg.machine, budget):
            budget.admitting(unit.resources)
            admitted.append(unit)
        else:
            passed.append(unit)
    for unit in passed:
        heapq.heappush(heap, unit)
    return admitted


class _Coordinator:
    def __init__(self, graph: DataflowGraph, cfg: RunConfig, services: Services):
        self.graph = graph
        self.cfg = cfg
        self.services = services
        self.published = {}
        self.events = []
        self.tasks = {}  # task or shard id -> TaskRecord
        self.admissible = []  # heap of _Unit
        self.ledger = _Ledger()
        self.completions = queue.Queue()
        self.stop_admission = False
        self.in_flight = 0
        self.scatters = {}  # node id -> _Scatter
        self.run_id = ""
        self._tool_digests = {}
        # (producer id, output id) -> ids of the nodes that read it
        self.readers = {}
        for node in graph.nodes.values():
            for kind, source in node.bindings.values():
                if kind == "edge":
                    self.readers.setdefault(source, []).append(node.id)
        self.candidates = set(graph.nodes)  # ids to check for readiness

    # -- bookkeeping --------------------------------------------------------

    def log(self, task_id: str, transition: str, attempt: int = 0):
        self.events.append({
            "ts": iso_time(time.time()),
            "task": task_id,
            "transition": transition,
            "attempt": attempt,
        })

    def tool_digest(self, node: TaskNode) -> str:
        if node.id not in self._tool_digests:
            self._tool_digests[node.id] = digest_tool(node.tool)
        return self._tool_digests[node.id]

    def set_state(self, node: TaskNode, state: str, attempt: int = 0):
        node.transition(state)
        self.tasks[node.id].state = state
        self.log(node.id, state, attempt)

    def mark(self, unit: _Unit, state: str, attempt: int = 0):
        if unit.exec_node is unit.node:
            self.set_state(unit.node, state, attempt)
        else:
            self.tasks[unit.exec_node.id].state = state
            self.log(unit.exec_node.id, state, attempt)

    def publish(self, node: TaskNode, outputs: dict):
        for out in node.tool.outputs:
            key = (node.id, out.id)
            self.published[key] = outputs.get(out.id)
            self.candidates.update(self.readers.get(key, ()))

    # -- readiness ----------------------------------------------------------

    def process_readiness(self):
        # Rounds in id order until no candidate is ready: skipped steps and
        # width-0 scatters publish outputs immediately, which can make their
        # readers ready in turn.
        while self.candidates:
            candidates, self.candidates = self.candidates, set()
            for tid in sorted(ready_set(self.graph, self.published,
                                        candidates)):
                node = self.graph.nodes[tid]
                try:
                    self._make_ready(node)
                except (ExprSyntaxError, ExprTypeError, UnknownReferenceError,
                        ScatterLengthMismatchError) as exc:
                    self._fail_node(node, str(exc))

    def _make_ready(self, node: TaskNode):
        bindings = resolved_bindings(node, self.published)
        self.tasks[node.id] = TaskRecord(inputs=bindings,
                                         tool_digest=self.tool_digest(node))
        if not node.scatter:
            units = [_Unit(node, node, bindings)]
        else:
            shards, width = expand_scatter(node, bindings)
            self.set_state(node, READY)
            self.set_state(node, RUNNING)
            self.scatters[node.id] = _Scatter(width, [None] * width)
            if width == 0:
                self._finish_scatter(node)
            units = [_Unit(node, shard,
                           {k: b[1] for k, b in shard.bindings.items()},
                           shard_index=i)
                     for i, shard in enumerate(shards)]

        for unit in units:
            task = unit.exec_node
            if task is not node:
                self.tasks[task.id] = TaskRecord(
                    inputs=unit.bindings, tool_digest=self.tool_digest(node))
            ctx = EvalContext(inputs=unit.bindings, runtime={})
            if apply_guard(task, ctx) == planner.SKIP:
                self._finish(unit, SKIPPED, 0,
                             {out.id: None for out in node.tool.outputs})
                continue
            if task is node:
                self.set_state(node, READY)
            unit.resources = resolve_resources(task, unit.bindings,
                                               self.cfg.machine)
            if not fits_machine(unit.resources, self.cfg.machine):
                what = (f"declared resource minima {unit.resources} exceed"
                        if task is node else
                        f"shard {task.id}: resource minima exceed")
                self._fail_node(node, f"{what} machine capacity")
                return
            heapq.heappush(self.admissible, unit)

    def _finish(self, unit: _Unit, state: str, attempt: int, outputs: dict):
        """Record a unit that ended with outputs (skipped, cached or
        succeeded) and publish them, or fill in its scatter."""
        record = self.tasks[unit.exec_node.id]
        record.outputs = outputs
        record.cached = state == CACHED
        self.mark(unit, state, attempt)
        if unit.exec_node is unit.node:
            self.publish(unit.node, outputs)
            return
        scatter = self.scatters[unit.node.id]
        scatter.results[unit.shard_index] = outputs
        scatter.done += 1
        scatter.cached += state == CACHED
        scatter.skipped += state == SKIPPED
        if scatter.done == scatter.width and unit.node.state != FAILED:
            self._finish_scatter(unit.node)

    def _finish_scatter(self, node: TaskNode):
        scatter = self.scatters[node.id]
        outputs = {out.id: [(r or {}).get(out.id) for r in scatter.results]
                   for out in node.tool.outputs}
        executed = scatter.width - scatter.skipped
        state = (CACHED if executed > 0 and scatter.cached == executed
                 else SUCCEEDED)
        # the scatter node finishes as a unit of its own
        self._finish(_Unit(node, node, {}), state, 0, outputs)

    def _fail_node(self, node: TaskNode, error: str):
        if node.state != FAILED:
            self.tasks[node.id].error = error
            self.set_state(node, FAILED)
            if self.cfg.on_error == "stop":
                self.stop_admission = True
        self.admissible = [u for u in self.admissible if u.node is not node]
        heapq.heapify(self.admissible)

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
        if cache is None:
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
        self._finish(unit, CACHED, 0, cache.republish(hit, dest))
        return True

    def _start(self, unit: _Unit, pool):
        self.mark(unit, RUNNING, unit.attempt)
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
        record = self.tasks[unit.exec_node.id]
        record.attempts.append(result.attempt)

        if result.outputs is not None:
            self._finish(unit, SUCCEEDED, unit.attempt, result.outputs)
            return

        # a retried shard of a failed scatter would run for nothing
        if (classify_failure(result.attempt) == TEMPORARY
                and unit.attempt <= self.cfg.retries
                and unit.node.state != FAILED):
            unit.attempt += 1
            heapq.heappush(self.admissible, unit)
            return

        error = record.error = result.attempt.error
        if unit.exec_node is not unit.node:
            # a failed plain node is logged by _fail_node, with attempt 0
            self.mark(unit, FAILED, unit.attempt)
            error = f"shard {unit.exec_node.id} failed: {error}"
        self._fail_node(unit.node, error or "task failed")

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
