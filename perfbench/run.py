"""The repository benchmark: generated workloads through the real CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every timed run is a fresh ``miniwfl run --parallel 2 --no-container``
process started by this single-threaded harness, one at a time (a closed
loop with one client), until S seconds have passed.  Inputs, the cache fill
of ``fanout-warm`` and one warm-up run are untimed set-up.  Each run's
outputs are checked against the oracle in ``workloads.py``, and its outdir
and cold cache are deleted before the next run starts.

With ``--trace 0`` the end-to-end metrics are the medians over the runs.
With ``--trace 1`` untraced and traced runs alternate; the per-layer
metrics are medians over the traced runs, and ``trace.overhead_frac`` is
the traced median makespan over the untraced one, minus 1.  The spans of
all traced runs are written once, at the end, to
``.perfbench_work/traces/<workload>-seed<seed>.json``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` (units of work, over all timed runs) and
``metrics``.  The lines before it give every metric by name and unit.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Optional

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
CHILD = os.path.join(HERE, "child.py")

PARALLEL = tracer.PARALLEL
MIN_RUNS = 3          # timed runs of each kind, even past --seconds
DEADLINE_S = 165.0    # the whole invocation must end within 180 s
RUN_TIMEOUT_S = 120.0

END_TO_END = {
    "makespan_s": "s",
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "disk_mib": "MiB",
    "ok_frac": "ratio",
}


@dataclass
class Run:
    makespan_s: float
    setup_s: float
    cpu_s: float
    peak_rss_mib: float
    disk_mib: float
    units: int
    failed: int
    trace: Optional[dict] = None  # per-layer values of a traced run

    @property
    def tasks_per_s(self) -> float:
        busy = self.makespan_s - self.setup_s
        return (self.units - self.failed) / busy if busy > 0 else 0.0


def disk_bytes(roots, seen=None) -> int:
    """Allocated bytes (st_blocks) under ``roots``; each inode counts once."""
    seen = set() if seen is None else seen
    total = 0
    for root in roots:
        for dirpath, dirnames, filenames in os.walk(root):
            for name in dirnames + filenames:
                st = os.lstat(os.path.join(dirpath, name))
                if (st.st_dev, st.st_ino) not in seen:
                    seen.add((st.st_dev, st.st_ino))
                    total += st.st_blocks * 512
    return total


def _wait(proc: subprocess.Popen, timeout: float):
    """wait4 the child; on timeout kill its process group."""
    def on_alarm(signum, frame):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 1.0))
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:  # a tool the engine left behind would still be in the group
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return usage


class Bench:
    def __init__(self, workload: workloads.Workload, deadline: float):
        self.w = workload
        self.deadline = deadline
        self.dir = os.path.join(WORK, workload.name)
        self.inputs = os.path.join(self.dir, "inputs")
        self.outdir = os.path.join(self.dir, "out")
        self.cache = os.path.join(self.dir, "cache")
        self.logs = os.path.join(self.dir, "logs")
        self.cache_inodes = set()  # present before timing; not "added"
        self.spans = []

    def setup(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.logs)
        self.w.materialize(self.inputs)
        if self.w.warm:
            self.run("fill", trace=False)
            disk_bytes([self.cache], self.cache_inodes)
        self.run("warmup", trace=False)

    def _clear(self):
        shutil.rmtree(self.outdir, ignore_errors=True)
        if not self.w.warm:
            shutil.rmtree(self.cache, ignore_errors=True)

    def run(self, label: str, trace: bool) -> Run:
        self._clear()
        report = os.path.join(self.logs, f"{label}.report.json")
        argv = [sys.executable, CHILD, report, "1" if trace else "0",
                f"{self.w.name}/{label}", "--",
                "run", self.w.workflow, self.w.job,
                "--outdir", self.outdir, "--cache-dir", self.cache,
                "--parallel", str(PARALLEL), "--no-container", "--quiet"]
        stdout_path = os.path.join(self.logs, f"{label}.stdout")
        timeout = min(RUN_TIMEOUT_S, self.deadline - time.monotonic())
        with open(stdout_path, "wb") as out, \
                open(os.path.join(self.logs, f"{label}.stderr"), "wb") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, cwd=self.inputs, stdout=out,
                                    stderr=err, start_new_session=True)
            usage = _wait(proc, timeout)
            t1 = time.monotonic()
        result = self._check(proc.returncode, stdout_path, report, t0, t1,
                             usage, trace, label)
        self._clear()
        return result

    def _check(self, code, stdout_path, report, t0, t1, usage, trace,
               label) -> Run:
        units = self.w.units
        failed = units
        entry = None
        trace_values = None
        try:
            with open(report, "r", encoding="utf-8") as fh:
                recorded = json.load(fh)
            os.unlink(report)
        except (OSError, json.JSONDecodeError):
            recorded = None
        if recorded is not None and trace:
            spans = recorded["spans"]
            entry = next((row[tracer.START] for row in spans
                          if row[tracer.NAME] == "scheduler.run"), None)
            trace_values = tracer.layer_metrics(spans, set(recorded["missing"]))
            self.spans.append({"run": label, "missing": recorded["missing"],
                               "spans": spans})
        elif recorded is not None:
            entry = recorded["scheduler_entry"]
        if code == 0 and recorded is not None:
            try:
                with open(stdout_path, "r", encoding="utf-8") as fh:
                    output = json.load(fh)
                prov_paths = glob.glob(
                    os.path.join(self.outdir, "provenance", "*.json"))
                with open(prov_paths[0], "r", encoding="utf-8") as fh:
                    prov = json.load(fh)
            except (OSError, IndexError, json.JSONDecodeError) as exc:
                print(f"{label}: unreadable run output: {exc}", file=sys.stderr)
            else:
                if workloads.check_final(self.w, output):
                    failed = workloads.check_units(self.w, prov)
                else:
                    print(f"{label}: staged outputs differ from the oracle",
                          file=sys.stderr)
        else:
            print(f"{label}: exit code {code}", file=sys.stderr)
        disk = disk_bytes([self.outdir, self.cache], set(self.cache_inodes))
        return Run(
            makespan_s=t1 - t0,
            setup_s=(entry - t0) if entry is not None else t1 - t0,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mib=usage.ru_maxrss / 1024.0,
            disk_mib=disk / float(1 << 20),
            units=units, failed=failed, trace=trace_values)

    def measure(self, seconds: float, trace: bool):
        """Closed loop: the next run starts when the previous one ends."""
        plain, traced = [], []
        start = time.monotonic()
        last = 0.0  # makespan of the latest run
        while True:
            enough = (len(plain) >= MIN_RUNS
                      and (not trace or len(traced) >= MIN_RUNS))
            # stop at the run whose expected end is nearest the window's end
            if enough and time.monotonic() - start + last / 2 >= seconds:
                break
            if time.monotonic() + 2 * last > self.deadline:
                break
            use_trace = trace and len(traced) < len(plain)
            runs = traced if use_trace else plain
            label = f"{'traced' if use_trace else 'run'}{len(runs)}"
            runs.append(self.run(label, trace=use_trace))
            last = runs[-1].makespan_s
        return plain, traced

    def write_spans(self, seed: int):
        directory = os.path.join(WORK, "traces")
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{self.w.name}-seed{seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": self.w.name, "seed": seed,
                       "runs": self.spans}, fh)
        return path


def end_to_end(runs) -> dict:
    units = sum(r.units for r in runs)
    failed = sum(r.failed for r in runs)
    values = {name: statistics.median(getattr(r, name) for r in runs)
              for name in END_TO_END if name != "ok_frac"}
    values["ok_frac"] = 1.0 - failed / units
    return values


def per_layer(plain, traced) -> dict:
    values = {}
    for name in tracer.PER_LAYER:
        samples = [r.trace[name] for r in traced if r.trace is not None]
        values[name] = (None if not samples or None in samples
                        else statistics.median(samples))
    values["trace.overhead_frac"] = (
        statistics.median(r.makespan_s for r in traced)
        / statistics.median(r.makespan_s for r in plain) - 1.0
        if traced and plain else None)
    return values


UNITS = {name: unit for name, (_, unit, _) in tracer.PER_LAYER.items()}
UNITS["trace.overhead_frac"] = "ratio"
UNITS.update(END_TO_END)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "miniwfl", "cli.py")):
        print(f"perfbench: no miniwfl sources under {ROOT}/src", file=sys.stderr)
        return 2

    workload = workloads.generate(args.workload, args.seed)
    os.makedirs(WORK, exist_ok=True)
    need = workloads.disk_needed(workload)
    free = shutil.disk_usage(WORK).free
    if free < need:
        print(f"perfbench: {args.workload} needs {need >> 20} MiB free, "
              f"{free >> 20} MiB available", file=sys.stderr)
        return 2

    bench = Bench(workload, deadline)
    try:
        bench.setup()
        plain, traced = bench.measure(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)

    runs = plain + traced
    attempted = sum(r.units for r in runs)
    failed = sum(r.failed for r in runs)
    if args.trace:
        metrics = per_layer(plain, traced)
        print(f"spans: {bench.write_spans(args.seed)}")
    else:
        metrics = end_to_end(plain)
    print(f"workload={workload.name} seed={args.seed} size={workload.size} "
          f"runs={len(plain)} traced_runs={len(traced)} "
          f"failed_frac={failed / attempted!r} ratio")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {UNITS[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
