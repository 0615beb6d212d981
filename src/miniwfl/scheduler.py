"""Drive a planned graph to completion.

All run state sits behind one lock, and the workers are the run's only
threads.  The worker thread that finishes an attempt settles it, admits,
and runs the first record admitted at once; any other wakes an idle worker
or starts one (Leader/Followers).  The caller's thread does the first
admission, then waits for the run's end.

Readiness is incremental: publishing an output makes only the nodes that
read it candidates, and only candidates are checked, in id order.  A ready
node becomes task records that run (the node's own for a plain node, one
per shard for a scattered node, which stays a single graph node) and that
all take the same path: guard, resources, a heap ordered by (layer, task
id), admission, cache key (made at the first admission) and lookup or a
worker, and one completion routine.  The graph is only read: a task's
state is on its record, and only ``mark`` changes it.  Admission pops the
first-fit records under both a parallelism bound and the machine's
resource capacity, so runs are reproducible regardless of completion
interleaving, and the coordinator's cost grows linearly with tasks and
shards.  A failed attempt is retried when the runtime reports it as a
``TemporaryFailure``.

The dataflow also says when a successful attempt's directory can no longer
be read: once every node that reads the producer's outputs (a scattered
producer's shards counted together) has ended Succeeded, Cached or Skipped.
Then a worker, the settling one or any idle one, has the runtime release
it outside the lock, before it runs another attempt.  The directories
behind workflow outputs are left to the caller to release after stage-out
(``RunResult.held``); a directory that a failed reader read, or that a
reader never ran on, is kept.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import Counter
from typing import Optional

from . import planner
from .cache import ResultCache, cache_key, digest_tool
from .errors import (
    ExpressionError,
    ExprTypeError,
    PlanError,
    ScatterLengthMismatchError,
)
from .expression import EvalContext, interpolate
from .model import CLAUSE_RESOURCE, RESOURCE_DEFAULTS, Machine, Record
from .model import field, replace
from .planner import (
    _TRANSITIONS,
    CACHED,
    CANCELLED,
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
from .runtime import TEMPORARY_FAILURE, TaskAttempt

# CPython runs a signal's handler on the main thread, once that thread runs
# Python code, and the kernel may deliver a SIGINT or SIGTERM to any thread:
# the caller waits for the run's end in slices this long, so that it acts
# on a signal that a worker thread received without waiting for an attempt
_WAIT_SLICE_S = 0.2

# the states of a task that ended with outputs, which its readers can read
_DONE = frozenset({SUCCEEDED, CACHED, SKIPPED})


class RunConfig(Record):
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


class Services(Record, frozen=False):
    runtime: object  # with run_task, release, cancel, cached_dir
    cache: Optional[ResultCache] = None


class TaskRecord(Record, frozen=False, eq=False):
    """One task or scatter shard: what runs, and what the run recorded.

    A plain node's record runs the node itself; a scattered node has a
    record of its own, which never runs, and one per shard, which runs the
    node under the shard's id.  Records wait for admission in a heap
    ordered by (layer, task id).
    """

    node: TaskNode        # the graph node, which owns completion
    task: TaskNode        # what runs: the node itself, or it as one shard
    inputs: dict
    tool_digest: Optional[str] = None
    resources: Optional[dict] = None
    key: Optional[str] = None  # set at first admission, with a cache
    state: str = PENDING
    attempts: list = field(default_factory=list)
    outputs: Optional[dict] = None
    error: Optional[str] = None

    @property
    def cached(self) -> bool:
        return self.state == CACHED

    def __lt__(self, other: "TaskRecord") -> bool:
        return ((self.node.layer, self.task.id)
                < (other.node.layer, other.task.id))


class RunResult(Record, frozen=False):
    status: str  # Success | PermanentFail
    outputs: dict
    event_log: list
    tasks: dict  # task or shard id -> TaskRecord
    # directories only stage-out still reads: successful attempts behind
    # workflow outputs whose readers are done
    held: list = field(default_factory=list)


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


class _Ledger(Counter):
    """Work admitted and not yet finished: how many records are
    ``running``, and the sum of their minima under each Resource key."""

    def admitting(self, res, sign: int = 1):
        self["running"] += sign
        for key in RESOURCE_DEFAULTS:
            self[key] += sign * res[key]

    def releasing(self, res):
        self.admitting(res, -1)


_IDLE = _Ledger()


def fits_machine(resources: dict, machine: Machine,
                 used: _Ledger = _IDLE) -> bool:
    """Whether ``resources`` fit on ``machine`` next to the ``used`` work."""
    return all(used[key] + resources[key] <= cap
               for key, cap in machine.capacity.items())


def admission(heap: list, ledger: _Ledger, cfg: RunConfig) -> list:
    """Pop the deterministic first-fit prefix of the ``heap`` of records that
    fits the parallelism and capacity budget, and admit each into the
    ``ledger``; records passed over go back on the heap."""
    admitted, passed = [], []
    while heap and ledger["running"] < cfg.parallelism:
        record = heapq.heappop(heap)
        if fits_machine(record.resources, cfg.machine, ledger):
            ledger.admitting(record.resources)
            admitted.append(record)
        else:
            passed.append(record)
    for record in passed:
        heapq.heappush(heap, record)
    return admitted


class _Coordinator:
    def __init__(self, graph: DataflowGraph, cfg: RunConfig, services: Services,
                 run_id: str):
        self.graph = graph
        self.cfg = cfg
        self.services = services
        self.run_id = run_id
        self.published = {}
        self.events = []
        self.tasks = {}  # task or shard id -> TaskRecord
        self.admissible = []  # heap of TaskRecord
        self.ledger = _Ledger()
        self.stop_admission = False
        self.wake = threading.Condition()  # the lock; idle workers wait
        self.workers = []  # started on demand, one per record in flight
        self.handed = []  # started records for idle workers
        self.done = threading.Event()
        self.failure = None  # what coordinator logic raised on a worker
        self.shards = {}  # scattered node id -> its shard records, in order
        self.unfinished = {}  # scattered node id -> its shards not finished
        # (producer id, output id) -> ids of the nodes that read it
        self.readers = {}
        # producer id -> ids of its readers that have not ended in _DONE
        self.awaiting = {}
        for node in graph.nodes.values():
            for kind, source in node.bindings.values():
                if kind == "edge":
                    self.readers.setdefault(source, []).append(node.id)
                    self.awaiting.setdefault(source[0], set()).add(node.id)
        # producers of workflow outputs, which stage-out reads after the run
        self.staged = {source[0] for kind, source
                       in graph.workflow_outputs.values() if kind == "edge"}
        self.workdirs = {}  # node id -> its successful attempts' directories
        self.released = []  # directories for any worker to release
        self.candidates = set(graph.nodes)  # ids to check for readiness

    # -- bookkeeping --------------------------------------------------------

    def log(self, task_id: str, transition: str, attempt: int = 0):
        self.events.append({
            "ts": iso_time(time.time()),
            "task": task_id,
            "transition": transition,
            "attempt": attempt,
        })

    def mark(self, record: TaskRecord, state: str, attempt: int = 0):
        """The one writer of a task's state."""
        if (record.task is record.node
                and state not in _TRANSITIONS[record.state]):
            raise PlanError(f"illegal state transition {record.state} -> "
                            f"{state} for task {record.task.id}")
        record.state = state
        self.log(record.task.id, state, attempt)

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
            candidates = [tid for tid in self.candidates
                          if tid not in self.tasks]
            self.candidates = set()
            for tid in sorted(ready_set(self.graph, self.published,
                                        candidates)):
                node = self.graph.nodes[tid]
                try:
                    self._make_ready(node)
                except (ExpressionError, ScatterLengthMismatchError) as exc:
                    self._fail_node(node, str(exc))

    def _make_ready(self, node: TaskNode):
        bindings = resolved_bindings(node.bindings, self.published)
        digest = digest_tool(node.tool)
        record = self.tasks[node.id] = TaskRecord(node, node, bindings, digest)
        records = [record]
        if node.scatter:
            shard_inputs = expand_scatter(node, bindings)
            self.mark(record, READY)
            self.mark(record, RUNNING)
            records = self.shards[node.id] = [
                TaskRecord(node, replace(node, id=f"{node.id}[{i}]"), inputs,
                           digest)
                for i, inputs in enumerate(shard_inputs)]
            self.unfinished[node.id] = len(records)
            if not records:
                self._finish_scatter(record)

        for record in records:
            task = record.task
            self.tasks[task.id] = record
            ctx = EvalContext(inputs=record.inputs, runtime={})
            if apply_guard(task, ctx) == planner.SKIP:
                self._finish(record, SKIPPED, 0,
                             {out.id: None for out in node.tool.outputs})
                continue
            if task is node:
                self.mark(record, READY)
            record.resources = resolve_resources(task, record.inputs,
                                                 self.cfg.machine)
            if not fits_machine(record.resources, self.cfg.machine):
                what = (f"declared resource minima {record.resources} exceed"
                        if task is node else
                        f"shard {task.id}: resource minima exceed")
                self._fail_node(node, f"{what} machine capacity")
                return
            heapq.heappush(self.admissible, record)

    def _finish(self, record: TaskRecord, state: str, attempt: int,
                outputs: dict):
        """Record a task that ended with outputs (skipped, cached or
        succeeded) and publish them, or fill in its scatter."""
        record.outputs = outputs
        self.mark(record, state, attempt)
        node = record.node
        if record.task is node:
            self.publish(node, outputs)
            for kind, source in node.bindings.values():
                if kind == "edge":
                    self.awaiting[source[0]].discard(node.id)
                    self._release(source[0])
            self._release(node.id)
            return
        self.unfinished[node.id] -= 1
        scatter = self.tasks[node.id]
        if not self.unfinished[node.id] and scatter.state != FAILED:
            self._finish_scatter(scatter)

    def _finish_scatter(self, record: TaskRecord):
        """Finish a scattered node from its shard records: Cached when every
        shard that was not skipped was cached, and at least one was."""
        shards = self.shards[record.node.id]
        outputs = {out.id: [shard.outputs.get(out.id) for shard in shards]
                   for out in record.node.tool.outputs}
        ran = {shard.state for shard in shards} - {SKIPPED}
        self._finish(record, CACHED if ran == {CACHED} else SUCCEEDED, 0,
                     outputs)

    def _release(self, node_id: str):
        """Set the directories of a node's successful attempts out for the
        settling worker to release, once every reader of its outputs is
        done, unless stage-out still reads them."""
        if self.awaiting.get(node_id) or node_id in self.staged:
            return
        self.released.extend(self.workdirs.pop(node_id, ()))

    def _fail_node(self, node: TaskNode, error: str):
        record = self.tasks[node.id]
        if record.state != FAILED:
            record.error = error
            self.mark(record, FAILED)
            if self.cfg.on_error == "stop":
                self.stop_admission = True
        self.admissible = [r for r in self.admissible if r.node is not node]
        heapq.heapify(self.admissible)

    # -- admission / completion --------------------------------------------

    def admit(self, keep: bool):
        """Hand what fits to the workers, in first-fit order, waking one for
        each record but the one the calling worker takes next when ``keep``,
        and start workers till there is one per record in flight.  End the
        run when nothing runs."""
        while not self.stop_admission:
            cache_hit = False
            for record in admission(self.admissible, self.ledger, self.cfg):
                if self._try_cache(record):
                    self.ledger.releasing(record.resources)
                    cache_hit = True
                else:
                    self.mark(record, RUNNING, len(record.attempts) + 1)
                    self.handed.append(record)
            if not cache_hit:
                break
            # cache hits published outputs without occupying a worker;
            # downstream nodes may be ready now
            self.process_readiness()
        self.wake.notify(max(len(self.handed) + len(self.released) - keep, 0))
        for _ in range(len(self.workers), self.ledger["running"]):
            worker = threading.Thread(target=self._work)
            worker.start()  # first: the caller joins only started workers
            self.workers.append(worker)
        if not self.ledger["running"]:
            self._end()

    def _try_cache(self, record: TaskRecord) -> bool:
        cache = self.services.cache
        if cache is None:
            return False
        if not record.attempts:  # its first admission: key it once
            record.key = cache_key(record.task, record.inputs,
                                   record.tool_digest, record.resources)
        if record.key is None:
            return False
        hit = cache.lookup(record.key,
                           [out.id for out in record.task.tool.outputs])
        if hit is None:
            return False
        try:
            hit = cache.republish(hit, self.services.runtime.cached_dir)
        except FileNotFoundError:  # a blob removed since lookup
            cache.evict(record.key)
            return False
        self._finish(record, CACHED, 0, hit)
        return True

    def _attempt(self, record: TaskRecord) -> TaskAttempt:
        """Run one attempt of a started record, outside the lock."""
        number = len(record.attempts) + 1
        try:
            if self.services.cache is not None:
                # the files of the cache hits this task reads
                self.services.cache.materialize(record.inputs.values())
            attempt = self.services.runtime.run_task(
                record.task, record.inputs, number, record.resources)
            contents, attempt.contents = attempt.contents, {}  # till stored
            if attempt.outputs is not None and record.key is not None:
                self.services.cache.store(record.key, attempt.outputs,
                                          self.run_id, contents)
        except Exception as exc:  # defensive: an attempt must always settle
            attempt = TaskAttempt(task_id=record.task.id,
                                  attempt_number=number)
            attempt.settle("Internal", repr(exc))
        return attempt

    def handle_completion(self, record: TaskRecord, attempt: TaskAttempt):
        self.ledger.releasing(record.resources)
        record.attempts.append(attempt)
        number = attempt.attempt_number
        if attempt.outputs is not None:
            if attempt.workdir is not None:
                self.workdirs.setdefault(record.node.id, []).append(
                    attempt.workdir)
            self._finish(record, SUCCEEDED, number, attempt.outputs)
            return

        # a retried shard of a failed scatter would run for nothing
        if (attempt.outcome == TEMPORARY_FAILURE
                and number <= self.cfg.retries
                and self.tasks[record.node.id].state != FAILED):
            heapq.heappush(self.admissible, record)
            return

        error = record.error = attempt.error
        if record.task is not record.node:
            # a failed plain node is logged by _fail_node, with attempt 0
            self.mark(record, FAILED, number)
            error = f"shard {record.task.id} failed: {error}"
        self._fail_node(record.node, error or "task failed")

    # -- workers ------------------------------------------------------------

    def _end(self):
        self.done.set()
        self.wake.notify_all()

    def _work(self):
        """Settle the last attempt; then, outside the lock, release one
        directory that any settling set out, or else run an attempt; repeat."""
        attempt = None
        try:
            while True:
                with self.wake:
                    if attempt is not None and not self.done.is_set():
                        self.handle_completion(record, attempt)
                        self.process_readiness()
                        self.admit(keep=True)
                    attempt = workdir = None
                    self.wake.wait_for(lambda: self.handed or self.released
                                       or self.done.is_set())
                    if self.released:
                        workdir = self.released.pop(0)
                    elif self.done.is_set():
                        return
                    else:
                        record = self.handed.pop(0)
                if workdir is not None:
                    self.services.runtime.release(workdir)
                else:
                    attempt = self._attempt(record)
        except BaseException as exc:  # coordinator logic: the caller raises it
            with self.wake:
                self.failure = self.failure or exc
                self._end()

    def run(self) -> RunResult:
        try:
            with self.wake:
                self.process_readiness()
                self.admit(keep=False)
            while not self.done.wait(_WAIT_SLICE_S):
                pass
            if self.failure is not None:
                raise self.failure
        except BaseException:
            with self.wake:
                self._end()
            # an interrupt does not reach tools that run in sessions of
            # their own, and the workers wait for them to end
            self.services.runtime.cancel()
            raise
        finally:
            for worker in self.workers:
                worker.join()
        self._cancel_live()
        return self._result()

    def _cancel_live(self):
        """End Cancelled, in task-id order, each live or never-made record."""
        for shard in (s for shards in self.shards.values() for s in shards):
            self.tasks.setdefault(shard.task.id, shard)
        for node in self.graph.nodes.values():
            if node.id not in self.tasks:
                self.tasks[node.id] = TaskRecord(node, node, {},
                                                 digest_tool(node.tool))
        for task_id in sorted(self.tasks):
            if _TRANSITIONS[self.tasks[task_id].state]:  # a live state
                self.mark(self.tasks[task_id], CANCELLED)

    def _result(self) -> RunResult:
        states = {self.tasks[tid].state for tid in self.graph.nodes}
        status = "Success" if states <= _DONE else "PermanentFail"
        outputs = resolved_bindings(self.graph.workflow_outputs,
                                    self.published)
        if self.services.cache is not None:
            self.services.cache.materialize(outputs.values())
        held = [workdir for node_id, workdirs in sorted(self.workdirs.items())
                if node_id in self.staged and not self.awaiting.get(node_id)
                and self.tasks[node_id].state in _DONE
                for workdir in workdirs]
        return RunResult(status=status, outputs=outputs,
                         event_log=self.events, tasks=self.tasks, held=held)


def run(graph: DataflowGraph, cfg: RunConfig, services: Services,
        run_id: str) -> RunResult:
    """Execute a planned graph to completion; failures land in the result,
    never as exceptions.  ``run_id`` names the run in the cache entries it
    stores (their ``run``)."""
    return _Coordinator(graph, cfg, services, run_id).run()
