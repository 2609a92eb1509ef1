import dataclasses
import json
import os
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

import tsync
from tsync import engine, metrics, nmea, scenario
from tsync.cli import (CSV_BLOCK, HARNESS_HEADER, NTP_HEADER, _csv,
                       _loop_csv, _write_atomic, main)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "tests", "data")
BEACONS = os.path.join(DATA, "beacons.json")


# How `tsync analyze` names a time in seconds past the int64 ns range.
OUT_OF_RANGE = "time {} is not within 9223372036.854775807 s of 0 (int64 ns)"

# A loop log whose times step by 7e306 s from -1.6e308: an ADEV over such
# steps squares tau past the largest double.
STEP_7E306 = tuple(f"{-1.6e308 + i * 7e306!r},{i},0.0,PPS,0"
                   for i in range(23))

# Rows that make `tsync analyze` exit 1 with "malformed log:".
MALFORMED_ROWS = [
    pytest.param(engine.LOOP_HEADER, "# a comment", id="comment"),
    pytest.param(engine.LOOP_HEADER, "#1.000,4,0.0,PPS,0",
                 id="hash-prefixed-row"),
    pytest.param(engine.LOOP_HEADER, "1.000,4.5,0.0,PPS,0",
                 id="fractional-offset"),
    pytest.param(engine.LOOP_HEADER, f"1.000,{2**63},0.0,PPS,0",
                 id="offset-past-int64"),
    pytest.param(engine.LOOP_HEADER, f"1.000,{-2**63 - 1},0.0,PPS,0",
                 id="offset-below-int64"),
    pytest.param(engine.LOOP_HEADER, "1.000", id="missing-column"),
    pytest.param(HARNESS_HEADER, "0,100000000.5,5,2,3",
                 id="fractional-send-stamp"),
    pytest.param(HARNESS_HEADER, "0,1e8,5,2,3", id="exponent-send-stamp"),
    pytest.param(HARNESS_HEADER, "0,100000000,5,2,3.0",
                 id="fractional-harness-offset"),
    pytest.param(HARNESS_HEADER, f"0,100000000,5,2,{2**63}",
                 id="harness-offset-past-int64"),
]


@pytest.fixture()
def runner():
    return CliRunner()


def short_lab(tmp_path, name="lab_short", duration=300, seed=7):
    cfg = scenario.preset("lab_16c")
    cfg = dataclasses.replace(
        cfg, name=name, duration_s=duration, seed=seed,
        visibility=(scenario.VisibilitySeg(0.0, duration, 8, 6),))
    path = tmp_path / f"{name}.json"
    scenario.save(cfg, path)
    return cfg, str(path)


def harness_file(keys, value, name="harness_10pps") -> dict[str, bytes]:
    """A 20 s harness preset under full sky, with one key set, as the bytes
    of bad.json."""
    cfg = dataclasses.replace(
        scenario.preset(name), duration_s=20,
        visibility=(scenario.VisibilitySeg(0.0, 20.0, 8, 6),))
    doc = target = scenario.to_dict(cfg)
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    return {"bad.json": json.dumps(doc).encode()}


# Scenario or node names that are not one path component.
NOT_ONE_COMPONENT = ("/abs_escape", "../x", "a/b", ".", "..")


class TestRun:
    def test_seeded_runs_byte_identical(self, runner, tmp_path):
        _, path = short_lab(tmp_path)
        for sub in ("a", "b"):
            res = runner.invoke(main, ["run", path, "--seed", "7",
                                       "--out", str(tmp_path / sub)])
            assert res.exit_code == 0, res.output
        a = (tmp_path / "a" / "loop_bench.csv").read_bytes()
        b = (tmp_path / "b" / "loop_bench.csv").read_bytes()
        assert a == b
        assert (tmp_path / "a" / "nmea_bench.log").read_bytes() == \
            (tmp_path / "b" / "nmea_bench.log").read_bytes()

    def test_tunnel_run_has_holdover_segment(self, runner, tmp_path):
        res = runner.invoke(main, ["run", "--preset", "tunnel_5km",
                                   "--out", str(tmp_path / "t")])
        assert res.exit_code == 0, res.output
        rows = (tmp_path / "t" / "loop_vehicle.csv").read_text().splitlines()
        hold = [r for r in rows if ",HOLDOVER," in r]
        assert len(hold) == 315
        manifest = json.loads((tmp_path / "t" / "manifest.json").read_text())
        assert manifest["seed"] == scenario.DEFAULT_SEED
        assert "loop_vehicle.csv" in manifest["files"]

    def test_invalid_scenario_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"name\": \"x\"}")
        res = runner.invoke(main, ["run", str(bad), "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert "config error" in res.output

    @pytest.mark.parametrize("field, value, match", [
        ("duration_s", "NaN", "duration_s: expected a JSON integer, got nan"),
        ("duration_s", "Infinity",
         "duration_s: expected a JSON integer, got inf"),
        ("temperature", '{"kind": "constant", "c": NaN}', "finite"),
    ], ids=["duration-nan", "duration-inf", "temperature-nan"])
    def test_non_finite_number_exits_2(self, runner, tmp_path, field, value,
                                       match):
        short_lab(tmp_path, duration=30)
        data = json.loads((tmp_path / "lab_short.json").read_text())
        data[field] = "@@"
        (tmp_path / "bad.json").write_text(
            json.dumps(data).replace('"@@"', value))
        res = runner.invoke(main, ["run", str(tmp_path / "bad.json"),
                                   "--out", str(tmp_path / "out")])
        assert res.exit_code == 2
        assert res.output.startswith("scenario config error:")
        assert match in res.output

    @pytest.mark.parametrize("keys, value, files, match", [
        (("nodes", 0, "receiver", "serial_jiter_ms"), 99, {},
         "unknown key 'serial_jiter_ms'"),
        (("comment",), "x", {}, "unknown key 'comment'"),
        (("nodes", 0, "constellations"), ["GLONASS"], {}, "constellations"),
        (("nodes", 0, "constellations"), [], {}, "constellations"),
        (("nodes",), {"bench": {"name": "bench"}}, {},
         "nodes must be an array"),
        (("nodes", 0, "servo"), None, {}, "servo must be a JSON object"),
        (("temperature",), {"kind": "trace", "file": "missing.csv"}, {},
         "missing.csv"),
        (("temperature",), {"kind": "trace", "file": "sub"},
         {"sub/x.csv": b""}, "cannot read"),
        (("temperature",), {"kind": "trace", "file": "t.csv"},
         {"t.csv": b"0,16\n10,16\xb0\n"}, "cannot read"),
        ((), None, {"bad.json": b'{"name": "lab\xb0"}'}, "cannot read"),
        (("temperature",), {"kind": "range", "lo": 20, "hi": 25,
                            "period_s": 0}, {}, "period_s must be positive"),
        (("nodes", 0, "receiver", "label_window_ns"), 0, {},
         "label_window_ns must be positive"),
        (("nodes", 0, "receiver", "serial_jitter_ms"), -1, {},
         "nodes[0].receiver: serial_jitter_ms must be in [0, 1000)"),
        *((("nodes", 0, "receiver", "serial_base_latency_ms"), latency, {},
           "nodes[0].receiver: serial_base_latency_ms must be in [0, 1000)")
          for latency in (1e12, 1e13)),
        (("visibility", 0, "nsat_gps"), 33, {},
         "visibility[0]: nsat_gps must be in [0, 32]"),
        (("nodes", 0, "receiver", "pps_half_width_ns"), -1, {},
         "nodes[0].receiver: pps_half_width_ns must be >= 0"),
        (("traffic",), [{"kind": "broadcast", "rate_hz": 10.0, "params": {
            "server": "bench", "clinets": ["bench"]}}], {},
         "traffic[0].params: unknown key 'clinets'"),
        (("traffic",), [{"kind": "ntp", "rate_hz": 1.0,
                         "params": {"client": "nobody"}}], {},
         "traffic[0].params: no node is named 'nobody'"),
        (("traffic",), [{"kind": "broadcast", "rate_hz": 10.0, "params": {
            "server": "bench", "clients": ["bench", "bench"]}}], {},
         "traffic[0].params: clients must be distinct"),
        (("traffic",), [{"kind": "tsf", "rate_hz": 1.0,
                         "params": {"n_nodes": 0}}], {},
         "traffic[0].params: n_nodes must be >= 1"),
        (("traffic",), [{"kind": "tsf", "rate_hz": 1.0,
                         "params": {"spread_ppm": 500}}], {},
         "traffic[0].params: spread_ppm must be in [0, 100]"),
        (("traffic",), [{"kind": "tsf", "rate_hz": 1.0,
                         "params": {"airtime_jitter_us": -5}}], {},
         "traffic[0].params: airtime_jitter_us must be >= 0"),
        (("traffic",), [{"kind": "ntp", "rate_hz": 1.0},
                        {"kind": "ntp", "rate_hz": 2.0}], {},
         "traffic[1]: a second 'ntp' entry; at most one entry per kind"),
        (("traffic",), [{"kind": "tsf", "rate_hz": 1.0},
                        {"kind": "broadcast", "rate_hz": 10.0},
                        {"kind": "broadcast", "rate_hz": 10.0}], {},
         "traffic[2]: a second 'broadcast' entry"),
        (("name",), "", {}, "scenario: name must not be empty"),
        (("nodes", 0, "name"), "", {}, "nodes[0]: name must not be empty"),
        (("nodes", 0, "servo", "holdover_window_s"), 60.0, {},
         "unknown key 'holdover_window_s'"),
        (("nodes", 0, "servo", "holdover_predict"), "false", {},
         "nodes[0].servo.holdover_predict: expected a JSON boolean, "
         "got 'false'"),
        (("seed",), "7", {}, "seed: expected a JSON integer, got '7'"),
        (("seed",), 1.5, {}, "seed: expected a JSON integer, got 1.5"),
        (("seed",), True, {}, "seed: expected a JSON integer, got True"),
        (("name",), 12, {}, "name: expected a JSON string, got 12"),
        (("visibility", 0, "nsat_gps"), 2.9, {},
         "visibility[0].nsat_gps: expected a JSON integer, got 2.9"),
        (("duration_s",), True, {},
         "duration_s: expected a JSON integer, got True"),
        (("duration_s",), 11.5, {},
         "duration_s: expected a JSON integer, got 11.5"),
        (("duration_s",), 0.4, {},
         "duration_s: expected a JSON integer, got 0.4"),
        (("duration_s",), 0, {}, "scenario: duration_s must be positive"),
        *((("nodes", 0, "servo"), gains, {}, f"nodes[0].servo: {match}")
          for gains, match in (
              ({"kp": 0.5, "ki": 3.1},
               "ki must be < 4 - 2*kp = 3 for a stable loop, got 3.1"),
              ({"kp": 2.05, "ki": 0.01}, "kp must be in (0, 2)"),
              ({"kp": 1.9, "ki": 0.25},
               "ki must be < 4 - 2*kp = 0.2 for a stable loop, got 0.25"),
              ({"ki": 50},
               "ki must be < 4 - 2*kp = 3.9375 for a stable loop, got 50"),
              ({"kp": 3}, "kp must be in (0, 2)"))),
        (("nodes", 0, "servo", "mode"), 1, {},
         "nodes[0].servo.mode: expected a JSON string, got 1"),
        (("seed",), -1, {}, "scenario: seed must be >= 0"),
        (("nodes", 0, "initial_offset_ns"), 2**63, {},
         "nodes[0]: initial_offset_ns must be in [-9223372036854775807, "
         "9223372036854775807]"),
        *(((), None, harness_file(("nodes", 0, "receiver", "stamp_bias_ns"),
                                  bias),
           "nodes[0].receiver: stamp_bias_ns must be in [-1000000, 1000000]")
          for bias in (10**30, 2**63 - 1, -2 * 10**8)),
        *(((), None, harness_file(("traffic", 0, "params", "path_delta_ns"),
                                  {"c1": delta}),
           "traffic[0].params: path_delta_ns['c1'] must be in "
           "[-1000000, 1000000]")
          for delta in (10**30, 2**63 - 1, -2 * 10**8)),
        *(((), None, harness_file(("nodes", i, "servo", "mode"), "nmea",
                                  "harness_100pps"),
           f"traffic[0].params: node 'c{i + 1}' has servo mode 'nmea'")
          for i in (0, 2)),
        ((), None, harness_file(("traffic", 0, "rate_hz"), 0.01),
         "traffic[0]: a broadcast at 0.01 Hz sends no packet in 20 s"),
        *((("nodes", 0, "oscillator", key), 1e300, {},
           f"nodes[0].oscillator: {key} must be in {bounds}")
          for key, bounds in (("temp_coeff_ppm_per_c", "[-1000, 1000]"),
                              ("aging_ppm_per_day", "[-1000, 1000]"),
                              ("noise_white_fm", "[0, 0.001]"),
                              ("noise_flicker_fm", "[0, 0.001]"),
                              ("noise_randomwalk_fm", "[0, 0.001]"))),
        *(((*at, "name"), name, {},
           f"{where}: name must be one path component")
          for at, where in (((), "scenario"), (("nodes", 0), "nodes[0]"))
          for name in NOT_ONE_COMPONENT),
        # A temperature lies in [-273.15, 1000] degrees C wherever a
        # scenario gives one.
        (("temperature",), {"kind": "constant", "c": 1e300}, {},
         "temperature: c must be in [-273.15, 1000]"),
        (("temperature",), {"kind": "range", "lo": -300, "hi": 25,
                            "period_s": 60}, {},
         "temperature: lo must be in [-273.15, 1000]"),
        (("temperature",), {"kind": "range", "lo": 20, "hi": 1e300,
                            "period_s": 60}, {},
         "temperature: hi must be in [-273.15, 1000]"),
        (("temperature",), {"kind": "trace",
                            "points": [[0, 16], [10, 1e300]]}, {},
         "temperature: points[*][1] must be in [-273.15, 1000]"),
        (("temperature",), {"kind": "trace", "file": "t.csv"},
         {"t.csv": b"t_s,temp_c\n0,16\n10,-1e300\n"},
         "t.csv: points[*][1] must be in [-273.15, 1000]"),
        (("nodes", 0, "oscillator", "ref_temp_c"), 1e300, {},
         "nodes[0].oscillator: ref_temp_c must be in [-273.15, 1000]"),
    ], ids=["receiver-key-typo", "unknown-top-level-key", "glonass-only",
            "no-constellations", "nodes-as-object", "servo-null",
            "trace-file-missing", "trace-file-is-directory",
            "trace-file-not-utf8", "scenario-not-utf8", "range-period-zero",
            "label-window-zero", "receiver-serial-jitter-negative",
            "serial-latency-1e12", "serial-latency-1e13", "nsat-gps-33",
            "receiver-pps-half-width-negative", "traffic-param-typo",
            "traffic-unknown-node", "broadcast-repeated-client",
            "tsf-no-nodes", "tsf-spread-past-100ppm",
            "tsf-negative-airtime-jitter", "ntp-entry-repeated",
            "broadcast-entry-repeated", "empty-scenario-name",
            "empty-node-name", "removed-holdover-window",
            "boolean-as-string", "seed-as-string", "seed-fractional",
            "seed-as-boolean", "name-as-number", "nsat-fractional",
            "duration-as-boolean", "duration-fractional",
            "duration-under-a-second", "duration-zero",
            "ki-past-triangle", "kp-past-2", "ki-past-triangle-at-high-kp",
            "ki-50", "kp-3",
            "mode-as-number", "seed-negative",
            "initial-offset-past-64-bit", "stamp-bias-past-c-long",
            "stamp-bias-int64-max", "stamp-bias-minus-200ms",
            "path-delta-past-c-long", "path-delta-int64-max",
            "path-delta-minus-200ms", "broadcast-sentence-only-client",
            "broadcast-sentence-only-server", "broadcast-sends-no-packet",
            "temp-coeff-1e300", "aging-1e300", "white-fm-1e300",
            "flicker-fm-1e300", "randomwalk-fm-1e300",
            *(f"{who}-name-{kind}" for who in ("scenario", "node")
              for kind in ("absolute", "parent-prefix", "subdirectory", "dot",
                           "dot-dot")),
            "constant-temperature-1e300", "range-lo-below-absolute-zero",
            "range-hi-1e300", "trace-point-1e300", "trace-file-point-1e300",
            "ref-temperature-1e300"])
    def test_malformed_config_exits_2(self, runner, tmp_path, keys, value,
                                      files, match):
        short_lab(tmp_path, duration=30)
        data = json.loads((tmp_path / "lab_short.json").read_text())
        if keys:
            target = data
            for key in keys[:-1]:
                target = target[key]
            target[keys[-1]] = value
        (tmp_path / "bad.json").write_text(json.dumps(data))
        for name, blob in files.items():
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_bytes(blob)
        res = runner.invoke(main, ["run", str(tmp_path / "bad.json"),
                                   "--out", str(tmp_path / "out")])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        [line] = res.stderr.splitlines()
        assert line.startswith("scenario config error:")
        assert match in line
        assert not (tmp_path / "out").exists()

    def test_unparseable_json_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        res = runner.invoke(main, ["run", str(bad), "--out", str(tmp_path)])
        assert res.exit_code == 2

    def test_nothing_to_run_exits_2(self, runner):
        assert runner.invoke(main, ["run"]).exit_code == 2

    def test_repeated_scenario_name_exits_2(self, runner, tmp_path):
        _, path = short_lab(tmp_path, "lte_ntp", 30)
        for args in (["--preset", "lte_ntp", "--preset", "lte_ntp"],
                     [path, "--preset", "lte_ntp"]):
            out = tmp_path / "out"
            res = runner.invoke(main, ["run", *args, "--out", str(out)])
            assert res.exit_code == 2
            assert res.output.splitlines() == [
                "scenario config error: scenario name 'lte_ntp' given twice"]
            assert not out.exists()

    def test_one_component_names_run(self, runner, tmp_path):
        _, p1 = short_lab(tmp_path, "lab\u00b0", 30)
        _, p2 = short_lab(tmp_path, "...", 30)
        res = runner.invoke(main, ["run", p1, p2,
                                   "--out", str(tmp_path / "multi")])
        assert res.exit_code == 0, res.output
        assert (tmp_path / "multi" / "lab\u00b0" / "manifest.json").exists()
        assert (tmp_path / "multi" / "..." / "manifest.json").exists()

    def test_out_path_through_a_missing_directory(self, runner, tmp_path,
                                                  monkeypatch):
        _, path = short_lab(tmp_path, duration=30)
        monkeypatch.chdir(tmp_path)
        res = runner.invoke(main, ["run", path, "--out", "missing/../dir"])
        assert res.exit_code == 0, res.output
        assert (tmp_path / "dir" / "manifest.json").exists()
        assert not (tmp_path / "missing").exists()

    def test_multi_scenario_out_dirs(self, runner, tmp_path):
        _, p1 = short_lab(tmp_path, "one", 120)
        _, p2 = short_lab(tmp_path, "two", 120)
        res = runner.invoke(main, ["run", p1, p2,
                                   "--out", str(tmp_path / "multi")])
        assert res.exit_code == 0, res.output
        assert (tmp_path / "multi" / "one" / "loop_bench.csv").exists()
        assert (tmp_path / "multi" / "two" / "loop_bench.csv").exists()

    @pytest.mark.parametrize("command", [
        ["run", "--preset", "lte_ntp"],
        ["replay", "nmea.log", "--preset", "lte_ntp"],
    ], ids=["run", "replay"])
    def test_negative_seed_exits_2(self, runner, tmp_path, command):
        (tmp_path / "nmea.log").write_text("")
        out = tmp_path / "out"
        args = [str(tmp_path / a) if a == "nmea.log" else a for a in command]
        res = runner.invoke(main, [*args, "--seed", "-3", "--out", str(out)])
        assert res.exit_code == 2
        assert "Invalid value for '--seed'" in res.output
        assert not out.exists()

    def test_failure_after_the_run_writes_nothing(self, runner, tmp_path):
        """Everything a run reports is computed before its first write: a
        broadcast whose two clients keep no common packet fails with no
        log left behind."""
        cfg = dataclasses.replace(
            scenario.preset("harness_10pps"), duration_s=20,
            visibility=(scenario.VisibilitySeg(0.0, 20.0, 8, 6),))
        doc = scenario.to_dict(cfg)
        doc["traffic"][0]["rate_hz"] = 0.1
        doc["traffic"][0]["params"]["drop_prob"] = 0.95
        (tmp_path / "lossy.json").write_text(json.dumps(doc))
        out = tmp_path / "out"
        res = runner.invoke(main, ["run", str(tmp_path / "lossy.json"),
                                   "--out", str(out)])
        assert res.exit_code == 1
        assert res.stderr.splitlines() == [
            "run failed: no packets seen by both c1 and c2"]
        assert not out.exists()

    def test_phase_overflow_fails_the_run_and_writes_nothing(self, runner,
                                                              tmp_path):
        """A clock whose phase leaves the 64-bit range while a live
        combined-mode second is stepped ends the run with one line."""
        cfg = dataclasses.replace(
            scenario.preset("suburban"), duration_s=30,
            visibility=(scenario.VisibilitySeg(0.0, 30.0, 7, 5),))
        doc = scenario.to_dict(cfg)
        doc["nodes"][0]["initial_offset_ns"] = 2**63 - 1000
        doc["nodes"][0]["oscillator"]["f0_ppm"] = 1000
        (tmp_path / "fast.json").write_text(json.dumps(doc))
        out = tmp_path / "out"
        res = runner.invoke(main, ["run", str(tmp_path / "fast.json"),
                                   "--out", str(out)])
        assert res.exit_code == 1
        assert res.stderr.splitlines() == [
            "run failed: phase accumulator overflow"]
        assert not out.exists()

    def test_tsf_traffic_writes_log(self, runner, tmp_path):
        res = runner.invoke(main, ["run", BEACONS,
                                   "--out", str(tmp_path / "t")])
        assert res.exit_code == 0, res.output
        lines = (tmp_path / "t" / "tsf.csv").read_text().splitlines()
        assert lines[0] == "t_s,max_spread_us"
        assert len(lines) == 1201
        t, spread = lines[1].split(",")
        assert t == "0.1000" and float(spread) >= 0 and "." in spread

    def test_tsf_log_is_seeded(self, runner, tmp_path):
        logs = []
        for sub, seed in (("a", []), ("b", []), ("c", ["--seed", "4"])):
            res = runner.invoke(main, ["run", BEACONS, *seed,
                                       "--out", str(tmp_path / sub)])
            assert res.exit_code == 0, res.output
            logs.append((tmp_path / sub / "tsf.csv").read_bytes())
        assert logs[0] == logs[1]
        assert logs[2] != logs[0]

    def test_data_scenarios_match_published_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        with open(os.path.join(ROOT, "docs", "scenario.schema.json")) as fh:
            schema = json.load(fh)
        names = sorted(n for n in os.listdir(DATA) if n.endswith(".json"))
        assert names
        for name in names:
            with open(os.path.join(DATA, name)) as fh:
                jsonschema.validate(json.load(fh), schema)

    def test_manifest_files_all_exist(self, runner, tmp_path):
        res = runner.invoke(main, ["run", "--preset", "lte_ntp",
                                   "--out", str(tmp_path / "n")])
        assert res.exit_code == 0, res.output
        manifest = json.loads((tmp_path / "n" / "manifest.json").read_text())
        for name in manifest["files"]:
            assert (tmp_path / "n" / name).exists()
        assert "ntp.csv" in manifest["files"]

    def test_node_warnings_reach_stderr(self, tmp_path):
        cfg = scenario.preset("suburban")
        node = cfg.nodes[0]
        node = dataclasses.replace(node, receiver=dataclasses.replace(
            node.receiver, serial=dataclasses.replace(node.receiver.serial,
                                                      drop_prob=0.3)))
        cfg = dataclasses.replace(
            cfg, duration_s=300, nodes=(node,),
            visibility=(scenario.VisibilitySeg(0.0, 300.0, 8, 6),))
        path = tmp_path / "lossy.json"
        scenario.save(cfg, path)
        src = os.path.dirname(os.path.dirname(os.path.abspath(tsync.__file__)))
        res = subprocess.run(
            [sys.executable, "-m", "tsync.cli", "run", str(path),
             "--out", str(tmp_path / "out")],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        lines = res.stderr.splitlines()
        assert len(lines) == manifest["summary"]["nodes"]["vehicle"]["warnings"]
        assert lines and all(
            l.startswith("WARNING tsync: vehicle: unlabeled edge at ")
            for l in lines)


class TestAnalyze:
    def test_zero_log(self, runner, tmp_path):
        path = tmp_path / "loop.csv"
        rows = [engine.LOOP_HEADER] + [f"{t}.000,0,0.0,PPS,0"
                                       for t in range(1, 11)]
        path.write_text("\n".join(rows) + "\n")
        res = runner.invoke(main, ["analyze", str(path)])
        assert res.exit_code == 0
        rep = json.loads(res.output)
        assert rep["mean_ns"] == 0.0 and rep["std_ns"] == 0.0

    def test_matches_in_process_pipeline(self, runner, tmp_path):
        cfg, path = short_lab(tmp_path)
        out = tmp_path / "run"
        assert runner.invoke(main, ["run", path, "--out", str(out)]
                             ).exit_code == 0
        res = runner.invoke(main, ["analyze", str(out / "loop_bench.csv")])
        rep = json.loads(res.output)
        offs = list(engine.run_scenario(cfg)["bench"].loop.offset_ns)
        direct = metrics.report(offs, tau0_s=1.0)
        assert rep["mean_ns"] == direct["mean_ns"]
        assert rep["peak_to_peak_ns"] == direct["peak_to_peak_ns"]
        assert rep["adev"] == direct["adev"]

    def test_harness_box_matches_metrics(self, runner, tmp_path):
        out = tmp_path / "h"
        assert runner.invoke(main, ["run", "--preset", "harness_10pps",
                                    "--out", str(out)]).exit_code == 0
        res = runner.invoke(main, ["analyze", str(out / "harness.csv")])
        rep = json.loads(res.output)
        offsets = [int(line.split(",")[4]) for line in
                   (out / "harness.csv").read_text().splitlines()[1:]]
        box = metrics.boxplot(offsets)
        assert rep["box"]["median"] == box.median
        assert rep["box"]["q1"] == box.q1

    def test_multiple_logs_keyed_by_name(self, runner, tmp_path):
        _, path = short_lab(tmp_path)
        out = tmp_path / "run"
        runner.invoke(main, ["run", path, "--out", str(out)])
        zeros = tmp_path / "zeros.csv"
        zeros.write_text("\n".join(
            [engine.LOOP_HEADER] + [f"{t}.000,0,0.0,PPS,0"
                                    for t in range(1, 6)]) + "\n")
        res = runner.invoke(main, ["analyze", str(out / "loop_bench.csv"),
                                   str(zeros)])
        assert res.exit_code == 0
        rep = json.loads(res.output)
        assert set(rep.keys()) == {"loop_bench.csv", "zeros.csv"}
        assert rep["zeros.csv"]["mean_ns"] == 0.0

    def test_malformed_log_exits_1(self, runner, tmp_path):
        bad = tmp_path / "junk.csv"
        bad.write_text("what,is,this\n1,2,3\n")
        res = runner.invoke(main, ["analyze", str(bad)])
        assert res.exit_code == 1

    @pytest.mark.parametrize("header", [engine.LOOP_HEADER, HARNESS_HEADER])
    def test_header_only_log_is_an_empty_report(self, runner, tmp_path,
                                                header):
        path = tmp_path / "empty.csv"
        path.write_text(header + "\n")
        res = runner.invoke(main, ["analyze", str(path)])
        assert res.exit_code == 0, res.output
        assert json.loads(res.stdout)["n"] == 0
        assert res.stderr == ""

    def test_one_row_and_blank_lines(self, runner, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text(f"{HARNESS_HEADER}\n0,100000000,5,2,3\n")
        res = runner.invoke(main, ["analyze", str(path)])
        assert res.exit_code == 0, res.output
        rep = json.loads(res.output)
        assert rep["n"] == 1 and rep["mean_ns"] == 3.0
        path.write_text(f"{engine.LOOP_HEADER}\n\n1.000,4,0.0,PPS,0\n\n"
                        "2.000,-6,0.0,PPS,0\n\n")
        rep = json.loads(runner.invoke(main, ["analyze", str(path)]).output)
        assert rep["n"] == 2 and rep["min_ns"] == -6.0

    def test_whitespace_only_lines_are_skipped(self, runner, tmp_path):
        path = tmp_path / "ws.csv"
        path.write_bytes(f"{engine.LOOP_HEADER}\n   \n1.000,4,0.0,PPS,0\n"
                         "\t\n2.000,-6,0.0,PPS,0\r\n \r\n".encode())
        res = runner.invoke(main, ["analyze", str(path)])
        assert res.exit_code == 0, res.output
        rep = json.loads(res.stdout)
        assert rep["n"] == 2 and rep["min_ns"] == -6.0
        assert res.stderr == ""

    @pytest.mark.parametrize("header,row", MALFORMED_ROWS)
    def test_malformed_row_exits_1(self, runner, tmp_path, header, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"{header}\n{row}\n")
        res = runner.invoke(main, ["analyze", str(path)])
        assert res.exit_code == 1
        assert res.stderr.startswith(f"malformed log: {path}:2: ")
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("body,line", [
        ("1.000,4,0.0,PPS,0\n2.000,x,0.0,PPS,0\n", 3),
        ("1.000,4,0.0,PPS,0\n2.000\n", 3),
        ("1.000,4,0.0,PPS,0\n \t\n3.000,4.5,0.0,PPS,0\n", 4),
    ], ids=["bad-offset", "one-column", "after-whitespace-line"])
    def test_malformed_row_names_its_file_line(self, runner, tmp_path, body,
                                               line):
        path = tmp_path / "bad.csv"
        path.write_text(f"{engine.LOOP_HEADER}\n{body}")
        res = runner.invoke(main, ["analyze", str(path)])
        assert res.exit_code == 1
        assert res.stderr.startswith(f"malformed log: {path}:{line}: ")
        assert " at row " not in res.stderr

    @pytest.mark.parametrize("times,line,value", [
        (("1.000", "2.000", "3.000", "inf", "inf"), 5, "inf"),
        (("1.000", "2.000", "nan", "4.000"), 4, "nan"),
    ], ids=["inf-rows-4-5", "nan-row-3"])
    def test_non_finite_time_names_its_file_line(self, runner, tmp_path,
                                                 times, line, value):
        path = tmp_path / "bad.csv"
        path.write_text(engine.LOOP_HEADER + "\n" + "".join(
            f"{t},{i},0.0,PPS,0\n" for i, t in enumerate(times)))
        res = runner.invoke(main, ["analyze", str(path)])
        assert res.exit_code == 1
        assert res.stderr == (f"malformed log: {path}:{line}: "
                              f"{OUT_OF_RANGE.format(value)}\n")
        assert res.stdout == ""

    @pytest.mark.parametrize("rows,line,reason", [
        (("1e308,0,0.0,PPS,0", "-1e308,1,0.0,PPS,0", "1e308,2,0.0,PPS,0"), 2,
         OUT_OF_RANGE.format("1e+308")),
        (("-1e308,0,0.0,PPS,0", "1e308,1,0.0,PPS,0"), 2,
         OUT_OF_RANGE.format("-1e+308")),
        (STEP_7E306, 2, OUT_OF_RANGE.format("-1.6e+308")),
        (("1,0,0.0,PPS,0", "9223372036.854775807,1,0.0,PPS,0"), 3,
         OUT_OF_RANGE.format("9223372036.854776")),
        (("0,0,0.0,PPS,0", "1e-300,1,0.0,PPS,0"), 3,
         "time 1e-300 is neither 0.0 nor a finite step of at least 1 ns "
         "away from it"),
        (("1.000,0,0.0,PPS,0", "2.000,1,0.0,PPS,0", "2.000,2,0.0,PPS,0",
          "1.9999999999,3,0.0,PPS,0"), 5,
         "time 1.9999999999 is neither 2.0 nor a finite step of at least "
         "1 ns away from it"),
    ], ids=["gap-overflows-back", "gap-overflows", "steps-of-7e306",
            "past-int64-ns", "gap-below-1ns", "back-by-below-1ns"])
    def test_time_step_not_finite_or_under_1ns_names_its_file_line(
            self, runner, tmp_path, rows, line, reason):
        path = tmp_path / "bad.csv"
        path.write_text(engine.LOOP_HEADER + "\n" + "\n".join(rows) + "\n")
        res = runner.invoke(main, ["analyze", str(path)])
        assert res.exit_code == 1
        assert res.stderr == f"malformed log: {path}:{line}: {reason}\n"
        assert res.stdout == ""


    @pytest.mark.parametrize("header,rows", [
        (engine.LOOP_HEADER, ("1.000,0,0.0,PPS,0", "2.000,1,0.0,HOLDOVER,0",
                              "2.000,2,0.0,PPS,0", "3.000,3,0.0,PPS,0")),
        (engine.LOOP_HEADER, ("5.000,0,0.0,PPS,0", "3.000,1,0.0,HOLDOVER,0",
                              "4.000,2,0.0,HOLDOVER,0")),
        (HARNESS_HEADER, ("0,100000000,5,2,3", "1,100000001,5,2,3",
                          "2,100000000,5,2,3", "3,100000000,5,2,3")),
        # The largest doubles under (2**63 - 1) ns, either side of 0.
        (engine.LOOP_HEADER, ("9223372036.854774,0,0.0,PPS,0",
                              "-9223372036.854774,1,0.0,PPS,0")),
    ], ids=["loop-repeats", "loop-steps-back", "harness", "int64-ns-edges"])
    def test_repeated_or_earlier_time_is_a_valid_row(self, runner, tmp_path,
                                                     header, rows):
        path = tmp_path / "log.csv"
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        res = runner.invoke(main, ["analyze", str(path)])
        assert res.exit_code == 0, res.output
        assert json.loads(res.stdout)["n"] == len(rows)

    @pytest.mark.parametrize("offset_s", [-0.7, 2.6],
                             ids=["behind-0.7s", "ahead-2.6s"])
    def test_pulse_only_outage_log_analyzes(self, runner, tmp_path,
                                            offset_s):
        # A pulse-only node locks to the nearest second, so a clock whole
        # seconds off labels its pulses by its own second. Its holdover
        # rows take the reading a pulse would give, so across an outage
        # the log's times still rise in 1 s steps, and every offset lies
        # within half a second.
        cfg = scenario.preset("lab_16c")
        node = cfg.nodes[0]
        servo = dataclasses.replace(node.servo,
                                    mode=scenario.ServoMode.PPS_ONLY)
        node = dataclasses.replace(
            node, initial_offset_ns=round(offset_s * 1e9), servo=servo)
        cfg = dataclasses.replace(
            cfg, name="pps_outage", duration_s=120, nodes=(node,),
            visibility=(scenario.VisibilitySeg(0.0, 40.0, 8, 6),
                        scenario.VisibilitySeg(40.0, 70.0, 0, 0),
                        scenario.VisibilitySeg(70.0, 120.0, 8, 6)))
        scenario.save(cfg, tmp_path / "pps_outage.json")
        res = runner.invoke(main, ["run", str(tmp_path / "pps_outage.json"),
                                   "--out", str(tmp_path / "out")])
        assert res.exit_code == 0, res.output
        log = tmp_path / "out" / f"loop_{node.name}.csv"
        rows = [line.split(",") for line in log.read_text().splitlines()[1:]]
        times = np.array([float(r[0]) for r in rows])
        offsets = np.array([int(r[1]) for r in rows])
        assert (np.diff(times) == 1.0).all()
        assert (np.abs(offsets) <= 500_000_000).all()
        held = [int(r[1]) for r in rows if r[3] == "HOLDOVER"]
        assert len(held) == 30
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        (seg,) = manifest["summary"]["nodes"][node.name]["holdover_segments"]
        assert seg["end_offset_ns"] == held[-1]
        res = runner.invoke(main, ["analyze", str(log)])
        assert res.exit_code == 0, res.output
        assert json.loads(res.stdout)["noise_fit"] is not None

    def test_header_only_log_writes_a_header_only_adev_csv(self, runner,
                                                         tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(engine.LOOP_HEADER + "\n")
        res = runner.invoke(main, ["analyze", str(path),
                                   "--out", str(tmp_path / "rep")])
        assert res.exit_code == 0, res.output
        assert (tmp_path / "rep" / "empty_adev.csv").read_bytes() == \
            b"tau_s,adev\n"
        assert (tmp_path / "rep" / "empty_offsets.csv").read_bytes() == \
            b"elapsed_s,offset_ns\n"

    # Outside pytest a DeprecationWarning from numpy is ignored, not an
    # error, so a numpy that parses "4.5" into an int64 via a float and
    # warns must still give a malformed log.
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    @pytest.mark.parametrize("header,row", MALFORMED_ROWS)
    def test_malformed_row_exits_1_under_default_filters(
            self, runner, tmp_path, header, row):
        self.test_malformed_row_exits_1(runner, tmp_path, header, row)

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_float_parsed_integer_warning_is_an_error(self, runner, tmp_path,
                                                      monkeypatch):
        # The warning numpy 1.23 to 2.x gave before casting "4.5" to 4; its
        # C reader turns a warning raised as an error into a ValueError.
        def warning_loadtxt(lines, dtype, **kw):
            for _ in lines:
                try:
                    warnings.warn("loadtxt(): Parsing an integer via a float "
                                  "is deprecated.", DeprecationWarning)
                except DeprecationWarning as exc:
                    raise ValueError("could not convert string") from exc
            return np.zeros(1, dtype=dtype)

        monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
        path = tmp_path / "bad.csv"
        path.write_text(f"{engine.LOOP_HEADER}\n1.000,4.5,0.0,PPS,0\n")
        res = runner.invoke(main, ["analyze", str(path)])
        assert res.exit_code == 1
        assert res.stderr.startswith(f"malformed log: {path}:2: ")

    @pytest.mark.parametrize("data", [
        b"\xff\xfe\x00junk\n1,2\n",
        b"elapsed_s,offset_ns,freq_correction_ppm,source,holdover\n"
        b"1.000,4\xff,0.0,PPS,0\n"], ids=["header", "row"])
    def test_non_utf8_log_exits_1(self, runner, tmp_path, data):
        path = tmp_path / "bin.csv"
        path.write_bytes(data)
        res = runner.invoke(main, ["analyze", str(path)])
        assert res.exit_code == 1
        assert res.stderr.startswith(f"malformed log: {path}: ")

    def test_repeated_base_name_exits_2(self, runner, tmp_path):
        logs = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            logs.append(tmp_path / sub / "loop_vehicle.csv")
            logs[-1].write_text(f"{engine.LOOP_HEADER}\n1.000,4,0.0,PPS,0\n")
        res = runner.invoke(main, ["analyze", *map(str, logs),
                                   "--out", str(tmp_path / "rep")])
        assert res.exit_code == 2
        assert "log name 'loop_vehicle.csv' given twice" in res.stderr
        assert not (tmp_path / "rep").exists()

    def test_csv_report_and_out_files(self, runner, tmp_path):
        cfg, path = short_lab(tmp_path)
        out = tmp_path / "run"
        runner.invoke(main, ["run", path, "--out", str(out)])
        res = runner.invoke(main, ["analyze", str(out / "loop_bench.csv"),
                                   "--out", str(tmp_path / "rep")])
        assert res.exit_code == 0
        assert (tmp_path / "rep" / "loop_bench_report.json").exists()
        assert (tmp_path / "rep" / "loop_bench_adev.csv").exists()
        assert (tmp_path / "rep" / "loop_bench_offsets.csv").exists()


@pytest.mark.parametrize("n", [0, 1, CSV_BLOCK, CSV_BLOCK + 1])
def test_block_rendered_csv_equals_per_row_rendering(n):
    rng = np.random.default_rng(n)
    ints = rng.integers(-2**62, 2**62, size=(n, 5))
    ints[::7] = -rng.integers(0, 10, size=(len(ints[::7]), 5))
    edges = [0.0005, 2.0005, -0.0005, 1.0015, -2.0005, 0.0, 12.3455]
    floats = np.round(rng.uniform(-1e4, 1e4, n), 4)
    floats[:min(n, len(edges))] = edges[:n]
    cols = ints.T
    by_row = "\n".join(
        [HARNESS_HEADER, *(f"{p},{t},{a},{b},{o}"
                           for p, t, a, b, o in ints.tolist())]) + "\n"
    assert "".join(_csv(HARNESS_HEADER, "%d,%d,%d,%d,%d", *cols)) == by_row
    by_row = "\n".join(["elapsed_s,offset_ns",
                        *(f"{t:.3f},{o}" for t, o in
                          zip(floats.tolist(), cols[4].tolist()))]) + "\n"
    assert "".join(_csv("elapsed_s,offset_ns", "%.3f,%d", floats,
                        cols[4])) == by_row


@pytest.mark.parametrize("n", [0, 1, CSV_BLOCK, CSV_BLOCK + 1])
def test_block_rendered_loop_log_equals_per_row_rendering(n):
    rng = np.random.default_rng(n)
    elapsed = rng.uniform(-1e5, 1e5, n).tolist()
    offsets = rng.integers(-2**62, 2**62, n).tolist()
    freqs = (rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)).tolist()
    edges = [(0.0005, -0.0, 0), (2.0005, 5e-324, -1), (-0.0005, 1e300, -7),
             (0.0, -1.7976931348623157e308, 3), (86400.0, 1e-12, -2**62)]
    for i, (t, f, o) in enumerate(edges[:n]):
        elapsed[i], freqs[i], offsets[i] = t, f, o
    sources = ["COMBINED", "PPS", "NMEA", "HOLDOVER"]
    rows = [(t, o, f, sources[i % 4], int(i % 3 == 0))
            for i, (t, o, f) in enumerate(zip(elapsed, offsets, freqs))]
    loop = engine.Columns(n, **engine.LOOP_COLUMNS)
    for i, (t, o, f, source, holdover) in enumerate(rows):
        loop.elapsed_s[i], loop.offset_ns[i] = t, o
        loop.freq_correction_ppm[i] = f
        loop.source[i] = engine.SOURCES.index(source)
        loop.holdover[i] = holdover
    loop.n = n
    by_row = "\n".join([engine.LOOP_HEADER, *(
        engine.LOOP_FORMAT % row for row in rows)]) + "\n"
    assert "".join(_loop_csv(loop)) == by_row


def test_written_file_mode_follows_the_umask(tmp_path):
    modes = {}
    for umask in (0o022, 0o077):
        path = tmp_path / f"umask_{umask:03o}.csv"
        old = os.umask(umask)
        try:
            _write_atomic(str(path), ["x\n"])
        finally:
            os.umask(old)
        modes[umask] = stat.S_IMODE(path.stat().st_mode)
    assert modes == {0o022: 0o644, 0o077: 0o600}


def test_failed_streamed_write_keeps_the_previous_file(tmp_path):
    path = tmp_path / "loop.csv"
    path.write_text("previous\n")

    def chunks():
        yield "x" * 100_000  # past the write buffer: the temp file grows
        raise RuntimeError("rendering failed")

    with pytest.raises(RuntimeError, match="rendering failed"):
        _write_atomic(str(path), chunks())
    assert path.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["loop.csv"]


class TestReplay:
    def test_combined_round_trip(self, runner, tmp_path):
        cfg = scenario.preset("tunnel_5km")
        cfg = dataclasses.replace(
            cfg, name="rt", duration_s=240,
            visibility=(scenario.VisibilitySeg(0.0, 240.0, 8, 6),),
            temperature=scenario.ConstantTemp(25.0))
        path = tmp_path / "rt.json"
        scenario.save(cfg, path)
        out = tmp_path / "run"
        assert runner.invoke(main, ["run", str(path), "--out", str(out)]
                             ).exit_code == 0
        res = runner.invoke(main, [
            "replay", str(out / "nmea_vehicle.log"),
            "--pps", str(out / "pps_vehicle.log"),
            "--scenario", str(path), "--out", str(tmp_path / "rp")])
        assert res.exit_code == 0, res.output
        assert (tmp_path / "rp" / "loop_replay.csv").read_bytes() == \
            (out / "loop_vehicle.csv").read_bytes()

    def test_missing_pulse_second_warns_and_coasts(self, runner, tmp_path):
        cfg, path = short_lab(tmp_path, "combined", 120)
        cfg = dataclasses.replace(
            cfg, nodes=(dataclasses.replace(
                cfg.nodes[0], servo=dataclasses.replace(
                    cfg.nodes[0].servo,
                    mode=scenario.ServoMode.NMEA_PLUS_PPS)),))
        scenario.save(cfg, path)
        out = tmp_path / "run"
        assert runner.invoke(main, ["run", str(path), "--out", str(out)]
                             ).exit_code == 0
        pps_lines = (out / "pps_bench.log").read_text().splitlines()
        kept = [l for l in pps_lines if abs(int(l) - 60 * 10**9) > 10**8]
        (tmp_path / "gappy.log").write_text("\n".join(kept) + "\n")
        res = runner.invoke(main, [
            "replay", str(out / "nmea_bench.log"),
            "--pps", str(tmp_path / "gappy.log"),
            "--scenario", str(path), "--out", str(tmp_path / "rp")])
        assert res.exit_code == 0, res.output
        rows = (tmp_path / "rp" / "loop_replay.csv").read_text().splitlines()
        full = (out / "loop_bench.csv").read_text().splitlines()
        assert len(rows) == len(full) - 1
        assert not any(r.startswith("60.000,") for r in rows)

    def test_nmea_only_replay_millisecond_regime(self, runner, tmp_path):
        cfg, path = short_lab(tmp_path)
        out = tmp_path / "run"
        runner.invoke(main, ["run", str(path), "--out", str(out)])
        res = runner.invoke(main, ["replay", str(out / "nmea_bench.log"),
                                   "--mode", "nmea",
                                   "--out", str(tmp_path / "rp")])
        assert res.exit_code == 0, res.output
        rows = (tmp_path / "rp" / "loop_replay.csv").read_text().splitlines()[1:]
        offs = np.array([int(r.split(",")[1]) for r in rows])
        assert np.abs(offs).max() > 100_000  # ms-scale spread
        assert np.abs(offs).max() < 100_000_000

    def test_sentence_outside_its_window_takes_no_sample(self, runner,
                                                         tmp_path):
        _, path = short_lab(tmp_path, duration=20)
        out = tmp_path / "run"
        assert runner.invoke(main, ["run", path, "--out", str(out)]
                             ).exit_code == 0
        lines = (out / "nmea_bench.log").read_text().splitlines()
        assert all("000020.000" in l for l in lines[-2:])
        lines[-2:] = [f"{10**15} {l.partition(' ')[2]}" for l in lines[-2:]]
        (tmp_path / "late.log").write_text("\n".join(lines) + "\n")
        res = runner.invoke(main, [
            "replay", str(tmp_path / "late.log"), "--scenario", path,
            "--out", str(tmp_path / "rp")])
        assert res.exit_code == 0, res.output
        rows = (tmp_path / "rp" / "loop_replay.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == \
            [f"{s}.000" for s in range(1, 20)]
        assert res.stderr == ("WARNING tsync: replay: sentence for second 20 "
                              "arrived outside its window\n")

    def test_capture_longer_than_scenario_fails_cleanly(self, runner, tmp_path):
        _, path = short_lab(tmp_path, duration=300)
        out = tmp_path / "run"
        assert runner.invoke(main, ["run", path, "--out", str(out)]
                             ).exit_code == 0
        _, short_path = short_lab(tmp_path, name="lab_cut", duration=100)
        res = runner.invoke(main, [
            "replay", str(out / "nmea_bench.log"),
            "--scenario", short_path, "--out", str(tmp_path / "rp")])
        assert res.exit_code == 1
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert res.output.startswith("replay error:")
        assert "100 s" in res.output
        assert len(res.output.strip().splitlines()) == 1
        assert not (tmp_path / "rp" / "loop_replay.csv").exists()

    def test_capture_denser_than_its_seconds_replays(self, runner,
                                                     tmp_path):
        # 284 edges inside seconds 1-29, each one clock advance, against a
        # 30 s scenario: the noise stream holds a draw for each of them.
        cfg = dataclasses.replace(
            scenario.preset("suburban"), duration_s=30,
            visibility=(scenario.VisibilitySeg(0.0, 30.0, 7, 5),))
        path = tmp_path / "suburban_30s.json"
        scenario.save(cfg, path)
        out = tmp_path / "run"
        assert runner.invoke(main, ["run", str(path), "--out", str(out)]
                             ).exit_code == 0
        edges = [10**9 + k * 10**8 for k in range(284)]
        (tmp_path / "dense.log").write_text("".join(f"{e}\n" for e in edges))
        res = runner.invoke(main, [
            "replay", str(out / "nmea_vehicle.log"),
            "--pps", str(tmp_path / "dense.log"),
            "--scenario", str(path), "--out", str(tmp_path / "rp")])
        assert res.exit_code == 0, res.output
        loop = (tmp_path / "rp" / "loop_replay.csv").read_text()
        assert loop.startswith(engine.LOOP_HEADER + "\n")

    def test_repeated_pps_edge_fails_cleanly(self, runner, tmp_path):
        cfg, path = short_lab(tmp_path, "combined", 30)
        cfg = dataclasses.replace(
            cfg, nodes=(dataclasses.replace(
                cfg.nodes[0], servo=dataclasses.replace(
                    cfg.nodes[0].servo,
                    mode=scenario.ServoMode.NMEA_PLUS_PPS)),))
        scenario.save(cfg, path)
        out = tmp_path / "run"
        assert runner.invoke(main, ["run", path, "--out", str(out)]
                             ).exit_code == 0
        lines = (out / "pps_bench.log").read_text().splitlines()
        lines.insert(5, lines[4])
        (tmp_path / "dup.log").write_text("\n".join(lines) + "\n")
        res = runner.invoke(main, [
            "replay", str(out / "nmea_bench.log"),
            "--pps", str(tmp_path / "dup.log"),
            "--scenario", path, "--out", str(tmp_path / "rp")])
        assert res.exit_code == 1
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert res.output.startswith("replay error:")
        assert "does not move time forward" in res.output
        assert len(res.output.strip().splitlines()) == 1
        assert not (tmp_path / "rp" / "loop_replay.csv").exists()

    @pytest.mark.parametrize("nmea_lines, pps_lines, where", [
        (["1077527366 $GNRMC,000001.000,A,,,,,,,010121,,*24",
          "2075149360 $GNRMC,000002.000,A,,,,,,,010121,,*27"],
         ["1000000000", "abc"], "pps.log:2:"),
        (["1077527366 $GNRMC,000001.000,A,,,,,,,010121,,*24",
          "10x8 $GNGGA,000001.000,,,,,1,14,,,M,,M*63"],
         None, "nmea.log:2:"),
        (["1077527366 $GNRMC,000001.000,A,,,,,,,010121,,*24",
          "", "$GNRMC,,A,,,,,,,010121,,*3B"],
         None, "nmea.log:3:"),
        (["1077527366 $GNRMC,000001.000,A,,,,,,,010121,,*24",
          "2075149360 $GNRMC,000002.000,A,,,,,,,010121,,*27"],
         ["1000000000", "\u00b0"], "pps.log:2:"),
        (["1077527366 $GNRMC,000001.000,A,,,,,,,010121,,*24", "\u00b0"],
         None, "nmea.log:2:"),
        (["1077527366 $GNRMC,000001.000,A,,,,,,,010121,,*24",
          "2075149360 $GNRMC,000002.000,A,,,,,,,010121,,*27"],
         ["1000000000", str(2**70)], "64-bit"),
        (["1077527366 $GNRMC,000001.000,A,,,,,,,010121,,*24",
          f"{2**63} $GNRMC,000002.000,A,,,,,,,010121,,*27"],
         None, "64-bit"),
        (["1077527366 $GNRMC,000001.000,A,,,,,,,010121,,*24",
          "2075149360 $GNRMC,000002.000,A,,,,,,,010121,,*27",
          "2500000000 $GNRMC,000001.000,A,,,,,,,010121,,*24"],
         None, "not after history tail"),
    ], ids=["pps-not-an-integer", "bad-arrival-prefix", "empty-time-field",
            "pps-non-ascii", "nmea-non-ascii", "pps-beyond-64-bit",
            "arrival-beyond-64-bit", "sentence-names-earlier-second"])
    def test_malformed_line_fails_cleanly(self, runner, tmp_path, nmea_lines,
                                          pps_lines, where):
        (tmp_path / "nmea.log").write_text("\n".join(nmea_lines) + "\n",
                                           encoding="utf-8")
        args = ["replay", str(tmp_path / "nmea.log"),
                "--out", str(tmp_path / "rp")]
        if pps_lines is not None:
            (tmp_path / "pps.log").write_text("\n".join(pps_lines) + "\n",
                                              encoding="utf-8")
            args += ["--pps", str(tmp_path / "pps.log")]
        res = runner.invoke(main, args)
        assert res.exit_code == 1
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert res.output.startswith("replay error:")
        assert where in res.output
        assert len(res.output.strip().splitlines()) == 1
        assert not (tmp_path / "rp" / "loop_replay.csv").exists()

    @pytest.mark.parametrize("log, lines, message", [
        ("nmea", ["1_077_527_366 $GNRMC,000001.000,A,,,,,,,010121,,*24"],
         "1: bad arrival time '1_077_527_366'"),
        ("nmea", ["1077527366 $GNRMC,000001.000,A,,,,,,,010121,,*24",
                  "+2075149360 $GNRMC,000002.000,A,,,,,,,010121,,*27"],
         "2: bad arrival time '+2075149360'"),
        ("pps", ["1_000_000_000"], "1: bad edge time '1_000_000_000'"),
        ("pps", ["1000000000", "+2_000_000_000"],
         "2: bad edge time '+2_000_000_000'"),
    ], ids=["arrival-underscores", "arrival-plus", "edge-underscores",
            "edge-plus-underscores"])
    def test_log_time_is_a_minus_and_ascii_digits(self, runner, tmp_path,
                                                   log, lines, message):
        # int() alone takes a '+' and '_' between digits.
        logs = {"nmea": ["1077527366 $GNRMC,000001.000,A,,,,,,,010121,,*24"],
                "pps": ["1000000000"], log: lines}
        for name, text in logs.items():
            (tmp_path / f"{name}.log").write_text("\n".join(text) + "\n")
        res = runner.invoke(main, [
            "replay", str(tmp_path / "nmea.log"),
            "--pps", str(tmp_path / "pps.log"), "--out", str(tmp_path / "rp")])
        assert res.exit_code == 1
        assert res.output == (
            f"replay error: {tmp_path / log}.log:{message}\n")
        assert not (tmp_path / "rp" / "loop_replay.csv").exists()

    def test_unknown_node_fails_cleanly(self, runner, tmp_path):
        _, path = short_lab(tmp_path, duration=30)
        out = tmp_path / "run"
        assert runner.invoke(main, ["run", path, "--out", str(out)]
                             ).exit_code == 0
        res = runner.invoke(main, [
            "replay", str(out / "nmea_bench.log"), "--scenario", path,
            "--node", "nobody", "--out", str(tmp_path / "rp")])
        assert res.exit_code == 1
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert res.output.strip() == "replay error: no node is named 'nobody'"

    @pytest.mark.parametrize("edit", ["edge-past-end", "edge-before-start",
                                      "sentence-past-end"])
    def test_capture_outside_scenario_seconds_fails_cleanly(
            self, runner, tmp_path, combined_run, edit):
        path, nmea_lines, pps_lines = combined_run
        nmea_lines, pps_lines = list(nmea_lines), list(pps_lines)
        if edit == "edge-past-end":
            pps_lines[-1] = str(10**15)
        elif edit == "edge-before-start":
            pps_lines[0] = "400000000"  # nearest second 0
        else:
            fix = nmea.GnssFix(21 * 10**9, nmea.SIM_EPOCH_DATE, True, 8, "GP")
            nmea_lines.append(f"{21_080_000_000} "
                              f"{nmea.generate(fix, nmea.SentenceKind.RMC)}")
        (tmp_path / "nmea.log").write_text("\n".join(nmea_lines) + "\n")
        (tmp_path / "pps.log").write_text("\n".join(pps_lines) + "\n")
        res = runner.invoke(main, [
            "replay", str(tmp_path / "nmea.log"),
            "--pps", str(tmp_path / "pps.log"), "--scenario", path,
            "--mode", "nmea+pps" if edit.startswith("sentence") else "pps",
            "--out", str(tmp_path / "rp")])
        assert res.exit_code == 1
        assert res.exception is None or isinstance(res.exception, SystemExit)
        [line] = res.output.strip().splitlines()
        assert line.startswith("replay error:")
        assert "20 s" in line
        assert not (tmp_path / "rp" / "loop_replay.csv").exists()

    def test_bare_replay_spans_the_logs(self, runner, tmp_path, combined_run):
        _, nmea_lines, pps_lines = combined_run
        (tmp_path / "nmea.log").write_text("\n".join(nmea_lines) + "\n")
        (tmp_path / "pps.log").write_text("\n".join(pps_lines) + "\n")
        res = runner.invoke(main, [
            "replay", str(tmp_path / "nmea.log"),
            "--pps", str(tmp_path / "pps.log"), "--out", str(tmp_path / "rp")])
        assert res.exit_code == 0, res.output
        rows = (tmp_path / "rp" / "loop_replay.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == \
            [f"{s}.000" for s in range(1, 21)]

    def test_pulse_steps_within_a_second_each_log_a_row(self, runner,
                                                         tmp_path):
        # Edges 0.2 s apart over a 3 s capture: a pulse-only node steps
        # its clock at each, labelling several within one second, so the
        # replay logs more rows than the capture has seconds.
        edges = [1_300_000_000 + k * 200_000_000 for k in range(11)]
        (tmp_path / "pps.log").write_text("".join(f"{e}\n" for e in edges))
        (tmp_path / "nmea.log").write_text("".join(nmea.format_log(
            [s * 10**9 + 80_000_000 for s in (1, 2, 3)], [1, 2, 3], [8] * 3,
            frozenset({"GPS"}))))
        res = runner.invoke(main, [
            "replay", str(tmp_path / "nmea.log"),
            "--pps", str(tmp_path / "pps.log"), "--mode", "pps",
            "--out", str(tmp_path / "rp")])
        assert res.exit_code == 0, res.output
        rows = (tmp_path / "rp" / "loop_replay.csv").read_text().splitlines()
        assert len(rows) == 1 + len(edges)
        assert {r.split(",")[3] for r in rows[1:]} == {"PPS"}
        assert len({r.split(",")[0] for r in rows[1:]}) < len(edges)

    def test_bare_replay_refuses_a_node_name(self, runner, tmp_path,
                                            combined_run):
        _, nmea_lines, pps_lines = combined_run
        (tmp_path / "nmea.log").write_text("\n".join(nmea_lines) + "\n")
        (tmp_path / "pps.log").write_text("\n".join(pps_lines) + "\n")
        res = runner.invoke(main, [
            "replay", str(tmp_path / "nmea.log"),
            "--pps", str(tmp_path / "pps.log"), "--node", "nosuchnode",
            "--out", str(tmp_path / "rp")])
        assert res.exit_code == 1
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert res.output.strip() == (
            "replay error: --node names a node of --preset or --scenario; "
            "bare logs replay one default node")
        assert not (tmp_path / "rp").exists()

    def test_scenario_without_nodes_fails_cleanly(self, runner, tmp_path,
                                                  combined_run):
        path, nmea_lines, _ = combined_run
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["nodes"] = []
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps(doc))
        assert runner.invoke(main, ["run", str(empty), "--out",
                                    str(tmp_path / "run")]).exit_code == 0
        (tmp_path / "nmea.log").write_text(nmea_lines[0] + "\n")
        res = runner.invoke(main, [
            "replay", str(tmp_path / "nmea.log"), "--scenario", str(empty),
            "--out", str(tmp_path / "rp")])
        assert res.exit_code == 1
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert res.output.strip() == \
            f"replay error: scenario {doc['name']!r} has no node to replay"

    @pytest.mark.parametrize("latency", ["nan", "inf", "-inf"])
    def test_non_finite_assumed_latency_exits_2(self, runner, tmp_path,
                                                latency):
        (tmp_path / "bare.log").write_text(
            "$GNRMC,000001.000,A,,,,,,,010121,,*24\n")
        res = runner.invoke(main, [
            "replay", str(tmp_path / "bare.log"),
            f"--assumed-latency-ms={latency}", "--out", str(tmp_path / "rp")])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert (f"Invalid value for '--assumed-latency-ms': {latency} is "
                f"not a finite number") in res.output
        assert not (tmp_path / "rp").exists()

    def test_unsorted_pps_rejected(self, runner, tmp_path):
        cfg, path = short_lab(tmp_path)
        out = tmp_path / "run"
        runner.invoke(main, ["run", str(path), "--out", str(out)])
        (tmp_path / "bad.log").write_text("2000000000\n1000000000\n")
        res = runner.invoke(main, ["replay", str(out / "nmea_bench.log"),
                                   "--pps", str(tmp_path / "bad.log"),
                                   "--out", str(tmp_path / "rp")])
        assert res.exit_code == 1
        assert "not time-sorted" in res.output


RMC_1 = "1077527366 $GNRMC,000001.000,A,,,,,,,010121,,*24"
RMC_2 = "2075149360 $GNRMC,000002.000,A,,,,,,,010121,,*27"


@pytest.mark.parametrize("command, files, extra, line", [
    ("replay", {"nmea.log": [RMC_1, RMC_2],
                "pps.log": ["2000000000", "1000000000"]}, [],
     "replay error: {dir}/pps.log: edges not time-sorted"),
    ("replay", {"nmea.log": [RMC_1, RMC_2], "pps.log": ["100", "1000000000"]},
     [], "replay error: the capture's second 0 lies outside the scenario's "
     "2 s"),
    ("replay", {"nmea.log": [
        RMC_1, RMC_2, "2500000000 $GNRMC,000001.000,A,,,,,,,010121,,*24"]},
     ["--mode", "nmea"],
     "replay error: sentence for second 1 not after history tail second 2"),
    ("replay", {"nmea.log": [RMC_1, RMC_2],
                "pps.log": ["1000000000", "1000000000"]}, [],
     "replay error: event at 1000000000 ns does not move time forward from "
     "1000000000 ns"),
    ("replay", {"nmea.log": [
        RMC_1, "2075149360 $GNRMC,000002.000,A,,,,,,,010121,,*28"]}, [],
     "replay error: {dir}/nmea.log:2: checksum 28 != computed 27"),
    ("replay", {"nmea.log": [RMC_1, RMC_2]},
     ["--preset", "suburban", "--scenario", BEACONS],
     "replay error: give either --preset or --scenario, not both"),
    ("analyze", {"loop.csv": [engine.LOOP_HEADER, "1.000,4.5,0.0,PPS,0"]}, [],
     "malformed log: {dir}/loop.csv:2: could not convert string '4.5' to "
     "int64, column 2."),
], ids=["unsorted-pulse-log", "edge-outside-scenario",
        "sentence-names-earlier-second", "repeated-edge", "bad-checksum",
        "preset-and-scenario", "fractional-analyze-offset"])
def test_data_error_is_one_line_exit_1(runner, tmp_path, command, files,
                                       extra, line):
    """Each data error a command catches exits 1 with one exact stderr
    line, and writes nothing."""
    for name, lines in files.items():
        (tmp_path / name).write_text("\n".join(lines) + "\n")
    args = [command, str(tmp_path / next(iter(files)))]
    if "pps.log" in files:
        args += ["--pps", str(tmp_path / "pps.log")]
    res = runner.invoke(main, args + extra + ["--out", str(tmp_path / "out")])
    assert res.exit_code == 1
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert res.stderr == line.format(dir=tmp_path) + "\n"
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def combined_run(tmp_path_factory):
    """Scenario file plus sentence and pulse log lines of a 20 s
    combined-mode drive."""
    tmp = tmp_path_factory.mktemp("combined")
    cfg = dataclasses.replace(
        scenario.preset("suburban"), duration_s=20,
        visibility=(scenario.VisibilitySeg(0.0, 20.0, 7, 5),))
    path = tmp / "drive.json"
    scenario.save(cfg, path)
    res = CliRunner().invoke(main, ["run", str(path), "--out", str(tmp)])
    assert res.exit_code == 0, res.output
    return (str(path), (tmp / "nmea_vehicle.log").read_text().splitlines(),
            (tmp / "pps_vehicle.log").read_text().splitlines())


_ASCII_FIELD = st.text(st.characters(codec="ascii",
                                     exclude_characters="$*\r\n"),
                       max_size=12)
_DELTAS = (st.integers(-(2**70), 2**70) | st.integers(-2 * 10**9, 2 * 10**9)
           | st.sampled_from([2**63, -(2**63)]))


def _shifted(line: str, delta: int) -> str:
    """The line with `delta` added to its leading time, if it has one."""
    head, sep, rest = line.partition(" ")
    try:
        return f"{int(head) + delta}{sep}{rest}"
    except ValueError:
        return line


def _rewritten(data, line: str) -> str:
    """One field of a sentence changed under a recomputed checksum, or
    free text."""
    prefix, _, sentence = line.partition(" ")
    body, star, _ = sentence[1:].partition("*")
    if star and "$" not in body and data.draw(st.booleans()):
        fields = body.split(",")
        fields[data.draw(st.integers(0, len(fields) - 1))] = \
            data.draw(_ASCII_FIELD)
        payload = ",".join(fields)
        return f"{prefix} ${payload}*{nmea.checksum(payload)}"
    return data.draw(st.text(max_size=40))


class TestReplayFuzz:
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture],
              deadline=None, max_examples=150)
    @given(st.data())
    def test_mutated_logs_replay_or_fail_cleanly(self, runner, tmp_path,
                                                 combined_run, data):
        path, nmea_lines, pps_lines = combined_run
        mode = data.draw(st.sampled_from(["nmea", "pps", "nmea+pps"]))
        logs = {"nmea": list(nmea_lines), "pps": list(pps_lines)}
        for _ in range(data.draw(st.integers(1, 3))):
            lines = logs[data.draw(st.sampled_from(["nmea", "pps"]))]
            i = data.draw(st.integers(0, len(lines) - 1))
            how = data.draw(st.sampled_from(
                ["rewrite", "shift", "delete", "duplicate", "swap"]))
            if how == "rewrite":
                lines[i] = _rewritten(data, lines[i])
            elif how == "shift":  # a jump in the capture's time base
                delta = data.draw(_DELTAS)
                lines[i:] = [_shifted(line, delta) for line in lines[i:]]
            elif how == "delete" and len(lines) > 1:
                del lines[i]
            else:
                j = data.draw(st.integers(0, len(lines) - 1))
                if how == "duplicate":
                    lines.insert(j, lines[i])
                else:
                    lines[i], lines[j] = lines[j], lines[i]
        for name, lines in logs.items():
            (tmp_path / f"{name}.log").write_text(
                "".join(f"{line}\n" for line in lines), encoding="utf-8")
        res = runner.invoke(main, [
            "replay", str(tmp_path / "nmea.log"),
            "--pps", str(tmp_path / "pps.log"), "--scenario", path,
            "--mode", mode, "--out", str(tmp_path / "rp")])
        assert res.exception is None or isinstance(res.exception,
                                                   SystemExit), res.exception
        if res.exit_code != 0:
            assert res.exit_code == 1
            [line] = res.output.strip().splitlines()
            assert line.startswith("replay error:")


# Each `analyze` input format: its header, a row's fields, the columns of
# its time and offset, and the starts and steps of its times.
_ANALYZE_FORMATS = {
    "loop": (engine.LOOP_HEADER, ["", "", "0.0", "PPS", "0"], 0, 1,
             [(1.0, 1.0), (0.0, 0.001), (0.0, 0.0), (5.0, -1.0),
              (-1.6e308, 7e306), (9223372036.0, 0.5), (0.0, 1e-300)]),
    "harness": (HARNESS_HEADER, ["0", "", "5", "7", ""], 1, 4,
                [(0, 10**8), (10**8, 1), (2**63 - 10**9, 10**8),
                 (-(2**63), 2**62), (0, -(10**9))]),
    "two-way": (NTP_HEADER, ["", "", "40000000", "0"], 0, 1,
                [(0.0, 1.0), (3.5, 0.25), (1e308, -1e308)]),
}
_HOSTILE_VALUES = st.sampled_from([
    "inf", "-inf", "nan", "1e308", "-1e308", "1e-300", "7e306", "4.5",
    "0.5", "1e8", "100000000.5", "9223372036.854775807", str(2**63 - 1),
    str(-(2**63)), str(2**63), str(-(2**63) - 1), "", "x"])
_NON_ASCII = st.sampled_from([b"\xc3\xa9", b"\xff", b"\xe2\x80\x8b",
                              b"\xef\xbb\xbf", b"\x00"])


class TestAnalyzeFuzz:
    @pytest.mark.parametrize("kind,start,step", [
        (kind, start, step) for kind, spec in _ANALYZE_FORMATS.items()
        for start, step in spec[4]])
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture],
              derandomize=True, deadline=None, max_examples=20)
    @given(st.data())
    def test_hostile_logs_analyze_or_fail_cleanly(self, runner, tmp_path,
                                                  kind, start, step, data):
        header, other, t_col, off_col, _ = _ANALYZE_FORMATS[kind]
        n = data.draw(st.integers(0, 24))
        bad = data.draw(st.sets(st.integers(0, n - 1), max_size=3)) if n else ()
        lines, offsets = [header.encode()], []
        for i in range(n):
            fields = list(other)
            fields[t_col] = repr(start + i * step)
            fields[off_col] = str(data.draw(st.integers(-10**6, 10**6)))
            how = "valid" if i not in bad else data.draw(st.sampled_from(
                ["time", "offset", "columns", "bytes"]))
            if how == "time" or how == "offset":
                col = t_col if how == "time" else off_col
                fields[col] = data.draw(_HOSTILE_VALUES)
            offsets.append(fields[off_col])
            if how == "columns":
                del fields[data.draw(st.integers(1, len(fields) - 1)):]
            line = ",".join(fields).encode()
            if how == "bytes":
                at = data.draw(st.integers(0, len(line)))
                line = line[:at] + data.draw(_NON_ASCII) + line[at:]
            lines.append(line)
        path = tmp_path / "log.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        res = runner.invoke(main, ["analyze", str(path)])
        assert res.exception is None or isinstance(res.exception,
                                                   SystemExit), res.exception
        if res.exit_code == 0:
            rep = json.loads(res.stdout)
            assert rep["n"] == len(lines) - 1 and res.stderr == ""
            # Every row parsed, so a changing series has a nonzero
            # deviation at tau0.
            x = np.array([int(v) for v in offsets], dtype=float)
            if np.any(x[2:] - 2.0 * x[1:-1] + x[:-2]):
                assert rep["adev"][0][1] > 0
        else:
            assert res.exit_code == 1
            [line] = res.stderr.splitlines()
            assert line.startswith(f"malformed log: {path}")
            assert res.stdout == ""


class TestPresets:
    def test_list(self, runner):
        res = runner.invoke(main, ["presets"])
        assert res.exit_code == 0
        assert set(res.output.split()) == set(scenario.PRESET_NAMES)

    def test_show_round_trips(self, runner):
        res = runner.invoke(main, ["presets", "--show", "tunnel_5km"])
        assert res.exit_code == 0
        assert scenario.loads(res.output) == scenario.preset("tunnel_5km")

    def test_show_unknown(self, runner):
        assert runner.invoke(main, ["presets", "--show", "nope"]).exit_code == 2


@pytest.mark.parametrize("command", [
    ["run", "--preset", "lte_ntp", "--jobs", "2"],
    ["analyze", "loop.csv", "--report", "json"],
], ids=["run-jobs", "analyze-report"])
def test_removed_option_exits_2(runner, tmp_path, command):
    """Scenarios run one after another, and analyze prints only JSON:
    neither option exists."""
    (tmp_path / "loop.csv").write_text(f"{engine.LOOP_HEADER}\n"
                                       "1.000,4,0.0,PPS,0\n")
    out = tmp_path / "out"
    args = [str(tmp_path / a) if a == "loop.csv" else a for a in command]
    res = runner.invoke(main, [*args, "--out", str(out)])
    assert res.exit_code == 2
    [line] = [ln for ln in res.stderr.splitlines() if ln.startswith("Error:")]
    assert "No such option" in line and command[-2] in line
    assert not out.exists()


# Runs the `tsync` command line given as arguments in a fresh interpreter.
# Its stderr ends with two JSON lines, after the import and after the
# command: the scipy modules loaded, OPENBLAS_NUM_THREADS and the number of
# the process's threads (null without /proc).
CLI_THEN_MODULES = """
import json, os, sys

def state():
    tasks = "/proc/self/task"
    print(json.dumps([sorted(m for m in sys.modules if m.startswith("scipy")),
                      os.environ.get("OPENBLAS_NUM_THREADS"),
                      len(os.listdir(tasks)) if os.path.isdir(tasks) else None]),
          file=sys.stderr)

from tsync.cli import main
state()
try:
    main(sys.argv[1:])
finally:
    state()
"""


def run_fresh(args, threads=None):
    """Exit code, stdout, and the state after the import and after the
    command of `tsync args` in a fresh interpreter, whose environment sets
    OPENBLAS_NUM_THREADS to `threads` (None: unset)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(tsync.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    res = subprocess.run([sys.executable, "-c", CLI_THEN_MODULES, *args],
                         env=env, capture_output=True, text=True, timeout=120)
    lines = res.stderr.splitlines()
    return res.returncode, res.stdout, json.loads(lines[-2]), \
        json.loads(lines[-1])


def test_import_loads_no_process_pool():
    src = os.path.dirname(os.path.dirname(os.path.abspath(tsync.__file__)))
    res = subprocess.run(
        [sys.executable, "-c", "import sys, tsync.cli; print(sorted(m for m "
         "in sys.modules if m.startswith('concurrent')))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


def test_plain_run_loads_no_traffic_or_analysis_code(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(tsync.__file__)))
    code = ("import sys\n"
            "from tsync.cli import main\n"
            "loaded = lambda: sorted({'tsync.net', 'tsync.metrics'}"
            " & set(sys.modules))\n"
            "print(loaded())\n"
            "try:\n"
            "    main(sys.argv[1:])\n"
            "finally:\n"
            "    print(loaded())\n")
    res = subprocess.run(
        [sys.executable, "-c", code, "run", "--preset", "suburban", "--out",
         str(tmp_path)], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    imported, _, ran = res.stdout.splitlines()
    assert imported == ran == "[]"


def test_import_and_run_load_no_scipy(tmp_path):
    code, _, imported, ran = run_fresh(
        ["run", "--preset", "lte_ntp", "--out", str(tmp_path)])
    assert code == 0
    assert imported[0] == [] and ran[0] == []


@pytest.mark.parametrize("threads", [None, "3"], ids=["unset", "user-set"])
def test_analyze_fits_without_scipy_optimize(runner, tmp_path, threads):
    assert runner.invoke(main, ["run", "--preset", "lte_ntp", "--out",
                                str(tmp_path)]).exit_code == 0
    code, out, _, ran = run_fresh(
        ["analyze", str(tmp_path / "loop_mobile.csv")], threads)
    assert code == 0
    assert json.loads(out)["noise_fit"] is not None
    assert "scipy.optimize" not in ran[0]
    assert ran[1] == threads


def test_noise_fit_starts_no_blas_threads(tmp_path):
    """Unless the user asks for threads, loading the solver starts none of
    scipy's OpenBLAS workers, whose spin-up would cost CPU time."""
    path = tmp_path / "loop.csv"
    path.write_text(engine.LOOP_HEADER + "\n" + "".join(
        f"{t}.000,{t * t % 7},0.0,PPS,0\n" for t in range(1, 41)))
    code, out, imported, ran = run_fresh(["analyze", str(path)])
    assert code == 0 and json.loads(out)["noise_fit"] is not None
    if imported[2] is None:
        pytest.skip("threads are counted in /proc")
    assert ran[2] == imported[2]
