"""The benchmark's tracer finds every engine entry point it wraps.

A renamed or moved entry point would leave the tracer's per-layer metrics
empty without failing the benchmark, so the names are checked here.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_finds_every_entry_point_it_wraps():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        os.path.join(ROOT, d) for d in ("src", "perfbench")))
    script = ("import json, tracer; r = tracer.Recorder('x'); "
              "tracer.install(r); print(json.dumps(r.missing))")
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
