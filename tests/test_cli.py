import concurrent.futures
import dataclasses
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

import tsync
from tsync import engine, metrics, nmea, scenario
from tsync.cli import CSV_BLOCK, HARNESS_HEADER, _csv, main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "tests", "data")
BEACONS = os.path.join(DATA, "beacons.json")


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


def short_lab(tmp_path, name="lab_short", duration=300.0, seed=7):
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
        scenario.preset(name), duration_s=20.0,
        visibility=(scenario.VisibilitySeg(0.0, 20.0, 8, 6),))
    doc = target = scenario.to_dict(cfg)
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    return {"bad.json": json.dumps(doc).encode()}


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

    @pytest.mark.parametrize("field, value", [
        ("duration_s", "NaN"), ("duration_s", "Infinity"),
        ("temperature", '{"kind": "constant", "c": NaN}'),
    ], ids=["duration-nan", "duration-inf", "temperature-nan"])
    def test_non_finite_number_exits_2(self, runner, tmp_path, field, value):
        short_lab(tmp_path, duration=30.0)
        data = json.loads((tmp_path / "lab_short.json").read_text())
        data[field] = "@@"
        (tmp_path / "bad.json").write_text(
            json.dumps(data).replace('"@@"', value))
        res = runner.invoke(main, ["run", str(tmp_path / "bad.json"),
                                   "--out", str(tmp_path / "out")])
        assert res.exit_code == 2
        assert res.output.startswith("scenario config error:")
        assert "finite" in res.output

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
         "nodes[0].receiver: serial_jitter_ms must be >= 0"),
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
         "traffic[0].params: clients must be distinct nodes"),
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
         "duration_s: expected a JSON number, got True"),
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
    ], ids=["receiver-key-typo", "unknown-top-level-key", "glonass-only",
            "no-constellations", "nodes-as-object", "servo-null",
            "trace-file-missing", "trace-file-is-directory",
            "trace-file-not-utf8", "scenario-not-utf8", "range-period-zero",
            "label-window-zero", "receiver-serial-jitter-negative",
            "receiver-pps-half-width-negative", "traffic-param-typo",
            "traffic-unknown-node", "broadcast-repeated-client",
            "tsf-no-nodes", "tsf-spread-past-100ppm",
            "tsf-negative-airtime-jitter", "ntp-entry-repeated",
            "broadcast-entry-repeated", "empty-scenario-name",
            "empty-node-name", "removed-holdover-window",
            "boolean-as-string", "seed-as-string", "seed-fractional",
            "seed-as-boolean", "name-as-number", "nsat-fractional",
            "duration-as-boolean", "mode-as-number", "seed-negative",
            "initial-offset-past-64-bit", "stamp-bias-past-c-long",
            "stamp-bias-int64-max", "stamp-bias-minus-200ms",
            "path-delta-past-c-long", "path-delta-int64-max",
            "path-delta-minus-200ms", "broadcast-sentence-only-client",
            "broadcast-sentence-only-server"])
    def test_malformed_config_exits_2(self, runner, tmp_path, keys, value,
                                      files, match):
        short_lab(tmp_path, duration=30.0)
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
        _, path = short_lab(tmp_path, "lte_ntp", 30.0)
        for args in (["--preset", "lte_ntp", "--preset", "lte_ntp"],
                     [path, "--preset", "lte_ntp"]):
            out = tmp_path / "out"
            res = runner.invoke(main, ["run", *args, "--out", str(out)])
            assert res.exit_code == 2
            assert res.output.splitlines() == [
                "scenario config error: scenario name 'lte_ntp' given twice"]
            assert not out.exists()

    def test_multi_scenario_out_dirs(self, runner, tmp_path):
        _, p1 = short_lab(tmp_path, "one", 120.0)
        _, p2 = short_lab(tmp_path, "two", 120.0)
        res = runner.invoke(main, ["run", p1, p2,
                                   "--out", str(tmp_path / "multi")])
        assert res.exit_code == 0, res.output
        assert (tmp_path / "multi" / "one" / "loop_bench.csv").exists()
        assert (tmp_path / "multi" / "two" / "loop_bench.csv").exists()

    def test_parallel_jobs_match_sequential(self, runner, tmp_path):
        _, p1 = short_lab(tmp_path, "one", 120.0)
        _, p2 = short_lab(tmp_path, "two", 120.0)
        res = runner.invoke(main, ["run", p1, p2, "--jobs", "2",
                                   "--out", str(tmp_path / "par")])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, ["run", p1, p2,
                                   "--out", str(tmp_path / "seq")])
        assert res.exit_code == 0, res.output
        for sub in ("one", "two"):
            a = (tmp_path / "par" / sub / "loop_bench.csv").read_bytes()
            b = (tmp_path / "seq" / sub / "loop_bench.csv").read_bytes()
            assert a == b

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2(self, runner, tmp_path, jobs):
        out = tmp_path / "out"
        res = runner.invoke(main, ["run", "--preset", "lte_ntp",
                                   "--jobs", jobs, "--out", str(out)])
        assert res.exit_code == 2
        assert "Invalid value for '--jobs'" in res.output
        assert not out.exists()

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

    def test_jobs_capped_at_scenario_count(self, runner, tmp_path,
                                           monkeypatch):
        pools = []

        class RecordingPool:
            """Records its worker count and maps in this process; starts
            no process."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        _, p1 = short_lab(tmp_path, "one", 30.0)
        _, p2 = short_lab(tmp_path, "two", 30.0)
        for args in ([p1, p2, "--jobs", "5000"], [p1, p2, "--jobs", "1"],
                     [p1, "--jobs", "8"]):
            res = runner.invoke(main, ["run", *args,
                                       "--out", str(tmp_path / "out")])
            assert res.exit_code == 0, res.output
        assert pools == [2]
        assert (tmp_path / "out" / "two" / "loop_bench.csv").exists()

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
            cfg, duration_s=300.0, nodes=(node,),
            visibility=(scenario.VisibilitySeg(0.0, 300.0, 8, 6),))
        path = tmp_path / "lossy.json"
        scenario.save(cfg, path)
        src = os.path.dirname(os.path.dirname(os.path.abspath(tsync.__file__)))
        res = subprocess.run(
            [sys.executable, "-m", "tsync.cli", "run", str(path),
             "--out", str(tmp_path / "out")],
            env=dict(os.environ, PYTHONPATH=src, TSYNC_LOG="WARNING"),
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
        offs = [r.offset_ns for r in engine.run_scenario(cfg)["bench"].loop_rows]
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
        assert res.stderr.startswith(f"malformed log: {path}: ")
        assert "Traceback" not in res.output

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
        assert res.stderr.startswith(f"malformed log: {path}: ")

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

    def test_csv_report_and_out_files(self, runner, tmp_path):
        cfg, path = short_lab(tmp_path)
        out = tmp_path / "run"
        runner.invoke(main, ["run", path, "--out", str(out)])
        res = runner.invoke(main, ["analyze", str(out / "loop_bench.csv"),
                                   "--report", "csv",
                                   "--out", str(tmp_path / "rep")])
        assert res.exit_code == 0
        assert "mean_ns" in res.output
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
    assert _csv(HARNESS_HEADER, "%d,%d,%d,%d,%d", *cols) == by_row
    by_row = "\n".join(["elapsed_s,offset_ns",
                        *(f"{t:.3f},{o}" for t, o in
                          zip(floats.tolist(), cols[4].tolist()))]) + "\n"
    assert _csv("elapsed_s,offset_ns", "%.3f,%d", floats, cols[4]) == by_row


class TestReplay:
    def test_combined_round_trip(self, runner, tmp_path):
        cfg = scenario.preset("tunnel_5km")
        cfg = dataclasses.replace(
            cfg, name="rt", duration_s=240.0,
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
        cfg, path = short_lab(tmp_path, "combined", 120.0)
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
            "--scenario", str(path), "--out", str(tmp_path / "rp")],
            env={"TSYNC_LOG": "WARNING"})
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
                                                         tmp_path, caplog):
        _, path = short_lab(tmp_path, duration=20.0)
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
        assert [r.getMessage() for r in caplog.records] == [
            "replay: sentence for second 20 arrived outside its window"]

    def test_capture_longer_than_scenario_fails_cleanly(self, runner, tmp_path):
        _, path = short_lab(tmp_path, duration=300.0)
        out = tmp_path / "run"
        assert runner.invoke(main, ["run", path, "--out", str(out)]
                             ).exit_code == 0
        _, short_path = short_lab(tmp_path, name="lab_cut", duration=100.0)
        res = runner.invoke(main, [
            "replay", str(out / "nmea_bench.log"),
            "--scenario", short_path, "--out", str(tmp_path / "rp")])
        assert res.exit_code == 1
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert res.output.startswith("replay error:")
        assert "100 s" in res.output
        assert len(res.output.strip().splitlines()) == 1
        assert not (tmp_path / "rp" / "loop_replay.csv").exists()

    def test_more_events_than_noise_draws_fails_cleanly(self, runner,
                                                         tmp_path):
        # 284 edges inside seconds 1-29, each one clock advance, against
        # the 2 x 30 + 16 draws of a 30 s scenario's noise stream.
        cfg = dataclasses.replace(
            scenario.preset("suburban"), duration_s=30.0,
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
        assert res.exit_code == 1
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert res.output == (
            "replay error: the capture has more measured events than the "
            "noise stream of a 30 s scenario holds (all 76 noise draws "
            "used)\n")
        assert not (tmp_path / "rp" / "loop_replay.csv").exists()

    def test_repeated_pps_edge_fails_cleanly(self, runner, tmp_path):
        cfg, path = short_lab(tmp_path, "combined", 30.0)
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

    def test_unknown_node_fails_cleanly(self, runner, tmp_path):
        _, path = short_lab(tmp_path, duration=30.0)
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
            fix = nmea.fix_for_second(21, 8, frozenset({"GPS"}))
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


@pytest.fixture(scope="module")
def combined_run(tmp_path_factory):
    """Scenario file plus sentence and pulse log lines of a 20 s
    combined-mode drive."""
    tmp = tmp_path_factory.mktemp("combined")
    cfg = dataclasses.replace(
        scenario.preset("suburban"), duration_s=20.0,
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


def test_import_leaves_scipy_signal_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(tsync.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys, tsync.cli; print(sorted(m for m in sys.modules"
         " if m.startswith('scipy.signal')))"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    assert res.stdout.strip() == "[]"
