"""The benchmark's per-layer tracer still finds every function it wraps.

`bench/tracer.py` wraps package functions by name. A renamed or re-bound
function would leave its wrapper uncalled, and the traced call counts
would drift from the counts a run implies. This runs the tracer in a
fresh interpreter, as the benchmark does, and checks those counts.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

SCRIPT = """
import dataclasses, json
from tracer import Tracer

tracer = Tracer()
tracer.install()
from tsync import engine, net, scenario

drive = dataclasses.replace(
    scenario.preset("suburban"), duration_s=60,
    visibility=(scenario.VisibilitySeg(0.0, 60.0, 7, 5),))
engine.run_scenario(drive)
harness = dataclasses.replace(
    scenario.preset("harness_10pps"), duration_s=60,
    visibility=(scenario.VisibilitySeg(0.0, 60.0, 8, 6),))
net.run_broadcast(harness)
summary = tracer.summary()
print(json.dumps({"calls": summary["calls"], "errors": summary["errors"]}))
"""


def test_traced_call_counts_follow_from_the_runs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]))
    res = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    traced = json.loads(res.stdout)
    calls = traced["calls"]
    # 60 s of one node plus 60 s of three: one pulse, one label, one
    # servo update and one step per node-second.
    node_seconds = 60 + 3 * 60
    for name in ("pps.next_pps", "pps.label_pps", "servo.update",
                 "engine.step"):
        assert calls[name] == node_seconds, name
    assert traced["errors"]["pps.label_pps"] == 0
    # 10 packets/s for 60 s, each stamped by the server and two clients.
    assert calls["net.stamp"] == 3 * 600
