"""Each fast preset's `tsync run` artifacts against the benchmark's goldens.

The hashes and the hashing come from bench/ (`hash_tree` skips the run's
output directory and runtime in manifest.json). `lab_16c`, which takes
many seconds, is left to `python3 bench/run.py --check-goldens`.
`room_24h` is the only preset that crosses midnight (its last RMC names
`020121`), so it is the golden that exercises the per-day date and
sentence frames. A broadcast scenario with drops and path deltas, and
two scenarios losing serial bursts, which no preset has, are pinned to
hashes of their own.
"""

import dataclasses
import importlib.util
import os
import sys

import pytest
from click.testing import CliRunner

from tsync import scenario
from tsync.cli import main

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
SLOW_PRESETS = {"lab_16c"}


def _bench_run():
    spec = importlib.util.spec_from_file_location(
        "bench_run", os.path.join(BENCH, "run.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


bench_run = _bench_run()


@pytest.mark.parametrize(
    "name", [n for n in scenario.PRESET_NAMES if n not in SLOW_PRESETS])
def test_preset_artifacts_match_goldens(name, tmp_path):
    golden = bench_run.load_goldens()["presets"][name]
    out = tmp_path / "out"
    res = CliRunner().invoke(main, [
        "run", "--preset", name, "--seed", str(bench_run.DEFAULT_SEED),
        "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert bench_run.hash_tree(str(out)) == golden


# `harness_10pps` for 120 s with lossy, unequal paths: these hashes fix
# the order of the drop and stamp-latency draws.
DROPS_AND_DELTAS = {
    "harness.csv": "6f21da7723151cdb1d9f40c6c3d3d57061454a3777cc966ef71ff62a5c9cca1a",
    "loop_c1.csv": "03408d685d6e23972e9afc0999367ca7fa468d2a5486aea5ead4f8fa282fe8fe",
    "loop_c2.csv": "67dbec33cbfce508f6b049b68632e2e7ab4900f9b6a03a46600024e5aac6a865",
    "loop_c3.csv": "58717745ed58e73da77645765c4c9bb7fd4042579a37219462fadff05b1b213b",
    "manifest.json": "094a0464ce2396ec574d2cc3df9b1d54fb252998b6ca557e63cd5c365d35eed8",
    "nmea_c1.log": "9396c158aa2f1942526b5388a5cc9902ae60f362add545759e7c71e6f6beee11",
    "nmea_c2.log": "12f16c5c4bf7a1edf8c8e64707864b91b487c3bce9dc91c52a534f85dd9c5185",
    "nmea_c3.log": "06524df723a2bb3ca4104995ecb5b2ebf07b2231988a18df705143f48025549c",
    "pps_c1.log": "30305bde22f9b539272e32a2f0b001bd620efd71de5eb4ba952b323549ee2908",
    "pps_c2.log": "bed4f2843d25876795606e7a28348b9e2028ee2c36d83eca1142239dc818ebf5",
    "pps_c3.log": "f5b0ae267a16c9d917398822f031810c5f7a8b361d0c3c9be777994003ead807",
}


def test_broadcast_with_drops_and_path_deltas(tmp_path):
    cfg = scenario.preset("harness_10pps")
    traffic = cfg.traffic[0]
    params = {**traffic.params, "drop_prob": 0.3,
              "path_delta_ns": {"c1": 1500, "c2": -700}}
    cfg = dataclasses.replace(
        cfg, name="harness_drops", duration_s=120,
        visibility=(scenario.VisibilitySeg(0.0, 120.0, 8, 6),),
        traffic=(dataclasses.replace(traffic, params=params),))
    assert all(n.receiver.stamp_latency_ns for n in cfg.nodes[:2])
    path = tmp_path / "harness_drops.json"
    scenario.save(cfg, path)
    out = tmp_path / "out"
    res = CliRunner().invoke(main, ["run", str(path), "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert bench_run.hash_tree(str(out)) == DROPS_AND_DELTAS


def _serial_drops(name: str) -> scenario.ScenarioConfig:
    """`name` for 300 s under full sky, losing 30% of sentence bursts."""
    cfg = scenario.preset(name)
    nodes = tuple(dataclasses.replace(n, receiver=dataclasses.replace(
        n.receiver, serial=dataclasses.replace(n.receiver.serial,
                                               drop_prob=0.3)))
        for n in cfg.nodes)
    return dataclasses.replace(
        cfg, name=f"{name}_drops", duration_s=300,
        visibility=(scenario.VisibilitySeg(0.0, 300.0, 8, 6),), nodes=nodes)


# These hashes fix the order of each node's serial drop checks and
# latency draws, in sentence-only (`lab_16c`) and combined (`suburban`)
# mode.
SERIAL_DROPS = {
    "lab_16c": {
        "loop_bench.csv":
            "0c05930fb25ea567231c1881b5d5d271a2ab3ae85435609c8fb149a997c212ee",
        "manifest.json":
            "581d65b5ff9a0508d851afa1d76449965ffac471647b3af59e92f2af6578059e",
        "nmea_bench.log":
            "f0e5e159de3d4bf13ec84b5389c573f52e905b5673fbc3dddbb3f43082ef8bf3",
    },
    "suburban": {
        "loop_vehicle.csv":
            "e9d83178333962f3b7989e1fe0ee176f67ffbe73660c2375620f09f48278d87c",
        "manifest.json":
            "b7bc98d29144cb54ff58db33490af3de0bbc32db70169dc0215cfcdbb42ecb36",
        "nmea_vehicle.log":
            "c48d1249fb4d3e089d03d96f08e19a5739b349b83d1b8b7fb931beb6c0f3e750",
        "pps_vehicle.log":
            "abcf0b0b32301b320d13137e3210b313e828b85613fd92adf425f99e7c517759",
    },
}


@pytest.mark.parametrize("name", sorted(SERIAL_DROPS))
def test_serial_drops(name, tmp_path):
    path = tmp_path / f"{name}_drops.json"
    scenario.save(_serial_drops(name), path)
    out = tmp_path / "out"
    res = CliRunner().invoke(main, ["run", str(path), "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert bench_run.hash_tree(str(out)) == SERIAL_DROPS[name]
