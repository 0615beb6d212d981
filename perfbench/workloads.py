"""Workload generators and their independent correctness oracles.

Every input (documents, job orders, data bytes, shard and step counts) is a
pure function of the workload name and ``--seed``.  The oracle for each
workload is computed here from the generator's own parameters, never from
an earlier engine run, so a wrong engine result cannot become the reference.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field

MIB = 1 << 20

# Base sizes; the seed adds a jitter of under 2% so that different seeds run
# different (but comparable) graphs.
FANOUT_SHARDS = 300
CHAIN_STEPS = 120
SHARED_SHARDS = 24  # also the input size in MiB: one distinct slice per shard

ECHO_TOOL = """\
cwlVersion: v1.2
class: CommandLineTool
baseCommand: [echo]
inputs:
  item: int
  line: {type: string, position: 1, default: "$(inputs.item)"}
outputs:
  out: {type: File, capture: stdout}
stdout: out.txt
"""

CAT_TOOL = """\
cwlVersion: v1.2
class: CommandLineTool
baseCommand: [cat]
inputs:
  parts: {type: "File[]", position: 1}
outputs:
  all: {type: File, capture: stdout}
stdout: all.txt
"""

FANOUT_WORKFLOW = """\
cwlVersion: v1.2
class: Workflow
inputs:
  items: "int[]"
outputs:
  all: {type: File, outputSource: gather/all}
steps:
  fan:
    run: echo.cwl
    scatter: [item]
    in: {item: items}
  gather:
    run: cat.cwl
    in: {parts: fan/out}
"""

INC_TOOL = """\
cwlVersion: v1.2
class: CommandLineTool
baseCommand: [sh, -c, 'n=`cat "$0"`; expr "$n" + 1']
inputs:
  infile: {type: File, position: 1}
outputs:
  out: {type: File, capture: stdout}
stdout: n.txt
"""

SLICE_TOOL = """\
cwlVersion: v1.2
class: CommandLineTool
baseCommand:
  - sh
  - -c
  - 'wc -c < "$0" > count.json && dd if="$0" of=slice.bin bs=1048576 skip="$1" count=1 2>/dev/null'
inputs:
  data: {type: File, position: 1}
  index: {type: int, position: 2}
outputs:
  count: {type: int, glob: count.json}
  slice: {type: File, glob: slice.bin}
"""

SHARED_WORKFLOW = """\
cwlVersion: v1.2
class: Workflow
inputs:
  data: File
  indices: "int[]"
outputs:
  counts: {type: "int[]", outputSource: cut/count}
  slices: {type: "File[]", outputSource: cut/slice}
steps:
  cut:
    run: slice.cwl
    scatter: [index]
    in: {data: data, index: indices}
"""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Workload:
    """A generated workflow, its job order and what a correct run yields."""

    name: str
    seed: int
    size: int                 # shards or steps
    files: dict               # relative path -> bytes, written by materialize
    workflow: str = "workflow.cwl"
    job: str = "job.yml"
    warm: bool = False        # cache filled by one untimed run before timing
    # unit task id -> {output id: expected value}; a File is its sha256,
    # any other value is compared as JSON
    unit_outputs: dict = field(default_factory=dict)
    # workflow output id -> expected value after stage-out (same encoding)
    final_outputs: dict = field(default_factory=dict)

    @property
    def units(self) -> int:
        return len(self.unit_outputs)

    def materialize(self, directory: str):
        for rel, data in self.files.items():
            path = os.path.join(directory, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as fh:
                fh.write(data)


def _size(rng: random.Random, base: int) -> int:
    return base + rng.randrange(max(1, base // 50))


def _fanout(name: str, seed: int, warm: bool) -> Workload:
    # fanout-cold and fanout-warm share one graph per seed
    rng = random.Random(f"fanout:{seed}")
    n = _size(rng, FANOUT_SHARDS)
    lines = [f"{i}\n".encode() for i in range(n)]
    units = {f"fan[{i}]": {"out": sha256(line)} for i, line in enumerate(lines)}
    gathered = sha256(b"".join(lines))
    units["gather"] = {"all": gathered}
    return Workload(
        name=name, seed=seed, size=n, warm=warm,
        files={"workflow.cwl": FANOUT_WORKFLOW.encode(),
               "echo.cwl": ECHO_TOOL.encode(),
               "cat.cwl": CAT_TOOL.encode(),
               "job.yml": json.dumps({"items": list(range(n))}).encode()},
        unit_outputs=units,
        final_outputs={"all": gathered})


def _chain(name: str, seed: int) -> Workload:
    rng = random.Random(f"chain:{seed}")
    n = _size(rng, CHAIN_STEPS)
    lines = ["cwlVersion: v1.2", "class: Workflow", "inputs:",
             "  start: File", "outputs:",
             f"  final: {{type: File, outputSource: s{n}/out}}", "steps:"]
    for k in range(1, n + 1):
        source = "start" if k == 1 else f"s{k - 1}/out"
        lines.append(f"  s{k}: {{run: inc.cwl, in: {{infile: {source}}}}}")
    units = {f"s{k}": {"out": sha256(f"{k}\n".encode())} for k in range(1, n + 1)}
    return Workload(
        name=name, seed=seed, size=n,
        files={"workflow.cwl": ("\n".join(lines) + "\n").encode(),
               "inc.cwl": INC_TOOL.encode(),
               "zero.txt": b"0\n",
               "job.yml": b"start: {class: File, path: zero.txt}\n"},
        unit_outputs=units,
        final_outputs={"final": units[f"s{n}"]["out"]})


def _shared_input(name: str, seed: int) -> Workload:
    rng = random.Random(f"shared-input:{seed}")
    n = _size(rng, SHARED_SHARDS)
    data = rng.randbytes(n * MIB)
    slices = [sha256(data[i * MIB:(i + 1) * MIB]) for i in range(n)]
    units = {f"cut[{i}]": {"count": len(data), "slice": slices[i]}
             for i in range(n)}
    return Workload(
        name=name, seed=seed, size=n,
        files={"workflow.cwl": SHARED_WORKFLOW.encode(),
               "slice.cwl": SLICE_TOOL.encode(),
               "data.bin": data,
               "job.yml": json.dumps({
                   "data": {"class": "File", "path": "data.bin"},
                   "indices": list(range(n))}).encode()},
        unit_outputs=units,
        final_outputs={"counts": [len(data)] * n, "slices": slices})


WORKLOADS = {
    "fanout-cold": lambda seed: _fanout("fanout-cold", seed, warm=False),
    "fanout-warm": lambda seed: _fanout("fanout-warm", seed, warm=True),
    "chain": lambda seed: _chain("chain", seed),
    "shared-input": lambda seed: _shared_input("shared-input", seed),
}


def generate(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)


def disk_needed(workload: Workload) -> int:
    """Free bytes to require before starting, with a 2x margin.  The engine
    copies a unit's inputs into its working directory, so one shared-input
    run holds about shards x input size until it is deleted."""
    inputs = sum(len(data) for data in workload.files.values())
    return 2 * (inputs + workload.size * inputs) + 256 * MIB


def _file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(MIB), b""):
            h.update(chunk)
    return h.hexdigest()


def _matches(expected, actual, read_file) -> bool:
    """Compare one output against the oracle's encoding of it."""
    if isinstance(expected, list):
        return (isinstance(actual, list) and len(actual) == len(expected)
                and all(_matches(e, a, read_file)
                        for e, a in zip(expected, actual)))
    if isinstance(actual, dict) and actual.get("class") == "File":
        return read_file(actual) == expected
    return actual == expected


def check_units(workload: Workload, provenance: dict) -> int:
    """Number of units that did not end Succeeded/Cached or whose recorded
    output checksum differs from the oracle."""
    tasks = provenance.get("tasks", {})
    bad = 0
    for tid, expected in workload.unit_outputs.items():
        task = tasks.get(tid)
        if task is None or task.get("state") not in ("Succeeded", "Cached"):
            bad += 1
            continue
        outputs = task.get("outputs", {})
        if not all(_matches(v, outputs.get(k), lambda f: f.get("checksum"))
                   for k, v in expected.items()):
            bad += 1
    return bad


def check_final(workload: Workload, output_object: dict) -> bool:
    """Whether the staged workflow outputs hold the oracle's bytes.  File
    contents are re-hashed from disk, not taken from the engine's record."""
    return all(
        _matches(v, output_object.get(k), lambda f: _file_digest(f["path"]))
        for k, v in workload.final_outputs.items())
