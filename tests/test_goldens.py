"""Each fast preset's `tsync run` artifacts against the benchmark's goldens.

The hashes and the hashing come from bench/ (`hash_tree` skips the run's
output directory and runtime in manifest.json). The three presets that
take seconds each are left to `python3 bench/run.py --check-goldens`.
"""

import importlib.util
import os
import sys

import pytest
from click.testing import CliRunner

from tsync import scenario
from tsync.cli import main

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
SLOW_PRESETS = {"room_24h", "lab_16c", "harness_100pps"}


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
