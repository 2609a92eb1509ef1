"""Command-line front end: run scenarios, analyze logs, replay captures.

Every command is deterministic given its inputs and seed; output files
are written atomically (temp file + rename).
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import json
import logging
import math
import os
import sys
import tempfile
import time
import warnings
from itertools import chain

import click
import numpy as np

from . import __version__, engine, metrics, net, nmea, pps, scenario, servo
from .engine import LOOP_HEADER, LoopRow
from .timebase import NS_PER_S, NoiseExhausted, TimeReversalError

log = logging.getLogger("tsync")

HARNESS_HEADER = "packet_id,send_true_ns,recv_a_stamp_ns,recv_b_stamp_ns,offset_ns"
NTP_HEADER = "t_s,offset_est_ns,delay_est_ns,truth_offset_ns"
TSF_HEADER = "t_s,max_spread_us"
# Rows per `fmt % row` block of _csv: big enough to amortize the call,
# small enough that one block's tuple stays a few MiB.
CSV_BLOCK = 4096


class FormatError(ValueError):
    pass


def _write_atomic(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tsync-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(header: str, fmt: str, *columns) -> str:
    """The header, then one `fmt % row` line per row of the equal-length
    array columns, rendered CSV_BLOCK rows at a time."""
    line = fmt + "\n"
    parts = [header + "\n"]
    for i in range(0, len(columns[0]), CSV_BLOCK):
        block = [c[i:i + CSV_BLOCK].tolist() for c in columns]
        parts.append(line * len(block[0])
                     % tuple(chain.from_iterable(zip(*block))))
    return "".join(parts)


def _loop_csv(rows: list[LoopRow]) -> str:
    return "\n".join([LOOP_HEADER, *(r.csv() for r in rows)]) + "\n"


def _dump_json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


@click.group()
@click.version_option(__version__)
def main():
    """Simulate and analyze receiver-disciplined clock networks."""
    level = os.environ.get("TSYNC_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _run_one(cfg: scenario.ScenarioConfig, out_dir: str) -> dict:
    """Run one scenario and write all its artifacts; returns the manifest."""
    t0 = time.monotonic()
    files: list[str] = []

    def emit(name: str, text: str) -> None:
        _write_atomic(os.path.join(out_dir, name), text)
        files.append(name)

    kinds = {t.kind for t in cfg.traffic}
    bcast = None
    if "broadcast" in kinds:
        bcast, nodes = net.run_broadcast(cfg)
    else:
        nodes = engine.run_scenario(cfg)

    for name, sim in nodes.items():
        emit(f"loop_{name}.csv", _loop_csv(sim.loop_rows))
    for name, sim in nodes.items():
        if sim.nmea_log:
            emit(f"nmea_{name}.log", nmea.format_log(
                sim.nmea_log, sim.spec.constellations))
    for name, sim in nodes.items():
        if sim.pps_log:
            emit(f"pps_{name}.log", pps.format_log(sim.pps_log))

    summary = {"scenario": cfg.name, "seed": cfg.seed,
               "nodes": {name: sim.summary() for name, sim in nodes.items()}}
    if bcast:
        a, b = list(bcast.stamp_ns)[:2]  # the first two clients
        packets, offsets, skipped = net.pairwise_offsets(bcast, a, b)
        emit("harness.csv", _csv(
            HARNESS_HEADER, "%d,%d,%d,%d,%d", packets,
            bcast.send_ns[packets], bcast.stamp_ns[a][packets],
            bcast.stamp_ns[b][packets], offsets))
        box = metrics.boxplot(offsets)
        summary["broadcast"] = {
            "pairs": [a, b], "n": packets.size, "skipped": skipped,
            "median_ns": box.median, "iqr_ns": box.q3 - box.q1,
            "max_abs_ns": int(abs(offsets).max()),
        }

    if "ntp" in kinds:
        rows = net.run_ntp(cfg)
        lines = [NTP_HEADER]
        lines += [f"{t:.3f},{off},{dly},{tru}" for t, off, dly, tru in rows]
        emit("ntp.csv", "\n".join(lines) + "\n")
        ests = [abs(r[1]) for r in rows]
        summary["ntp"] = {"n": len(rows),
                          "mean_abs_offset_ns": sum(ests) / len(ests) if ests else 0.0}

    if "tsf" in kinds:
        rows = net.run_tsf(cfg)
        lines = [TSF_HEADER]
        lines += [f"{t:.4f},{s}" for t, s in rows]
        emit("tsf.csv", "\n".join(lines) + "\n")

    manifest = {
        "scenario": cfg.name,
        "seed": cfg.seed,
        "out_dir": os.path.abspath(out_dir),
        "files": files,
        "tool_version": __version__,
        "runtime_s": round(time.monotonic() - t0, 3),
        "summary": summary,
    }
    _write_atomic(os.path.join(out_dir, "manifest.json"), _dump_json(manifest))
    for name, sim in nodes.items():
        for w in sim.warnings:
            log.warning("%s: %s", name, w)
    return manifest


@main.command()
@click.argument("scenario_paths", nargs=-1,
                type=click.Path(exists=True, dir_okay=False))
@click.option("--preset", "presets", multiple=True,
              help="Run a named preset (repeatable).")
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="Override the scenario seed.")
@click.option("--out", "out_root", default="tsync-out", show_default=True,
              help="Output directory (one subdirectory per scenario).")
@click.option("--jobs", type=click.IntRange(min=1), default=1,
              show_default=True,
              help="Parallel worker slots for independent scenarios.")
def run(scenario_paths, presets, seed, out_root, jobs):
    """Run scenarios and write loop logs, event logs and a manifest."""
    configs: list[scenario.ScenarioConfig] = []
    try:
        for path in scenario_paths:
            configs.append(scenario.load(path))
        for name in presets:
            configs.append(scenario.preset(name))
        for i, cfg in enumerate(configs):
            if cfg.name in [c.name for c in configs[:i]]:
                raise scenario.SchemaError(f"scenario name {cfg.name!r} given twice")
    except scenario.UnknownPreset as exc:
        click.echo(f"unknown preset: {exc}", err=True)
        sys.exit(2)
    except scenario.SchemaError as exc:
        click.echo(f"scenario config error: {exc}", err=True)
        sys.exit(2)
    if not configs:
        click.echo("nothing to run: pass a scenario file or --preset", err=True)
        sys.exit(2)
    if seed is not None:
        configs = [dataclasses.replace(c, seed=seed) for c in configs]

    out_dirs = [os.path.join(out_root, c.name) if len(configs) > 1
                else out_root for c in configs]
    workers = min(jobs, len(configs))
    try:
        if workers > 1:
            with concurrent.futures.ProcessPoolExecutor(workers) as ex:
                manifests = list(ex.map(_run_one, configs, out_dirs))
        else:
            manifests = list(map(_run_one, configs, out_dirs))
    except Exception as exc:  # noqa: BLE001 - boundary to exit codes
        click.echo(f"run failed: {exc}", err=True)
        sys.exit(1)
    for m in manifests:
        click.echo(os.path.join(m["out_dir"], "manifest.json"))


# ---------------------------------------------------------------------------
# analyze


def _read_offsets(path: str):
    """Elapsed times (s, float) and offsets (ns, int64) from any of the
    run CSV formats, as arrays. A harness log's send times are integer ns."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header == HARNESS_HEADER:
                cols, t_type = (1, 4), np.int64
            elif header in (LOOP_HEADER, NTP_HEADER):
                cols, t_type = (0, 1), float
            else:
                raise FormatError(f"unrecognized header {header!r}")
            with warnings.catch_warnings():
                # A header-only log is an empty report, not a warning.
                warnings.filterwarnings(
                    "ignore", "loadtxt: input contained no data", UserWarning)
                # numpy releases that still read "4.5" into an int64 column
                # via a float warn first; as an error, loadtxt raises.
                warnings.filterwarnings(
                    "error", ".*integer via a float", DeprecationWarning)
                # Lines of only whitespace are skipped, like empty ones.
                data = np.loadtxt((line for line in fh if not line.isspace()),
                                  delimiter=",", usecols=cols,
                                  comments=None, ndmin=1,
                                  dtype=[("t", t_type), ("off", np.int64)])
    except ValueError as exc:  # UnicodeDecodeError included
        raise FormatError(f"{path}: {exc}") from exc
    elapsed = data["t"]
    if header == HARNESS_HEADER:
        elapsed = elapsed / NS_PER_S
    return elapsed, data["off"]


@main.command()
@click.argument("logs", nargs=-1, required=True,
                type=click.Path(exists=True, dir_okay=False))
@click.option("--report", "fmt", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
@click.option("--out", "out_dir", default=None,
              help="Also write report and plot-ready CSVs here.")
def analyze(logs, fmt, out_dir):
    """Compute offset statistics, stability curve and box summary."""
    reports = {}
    try:
        for path in logs:
            elapsed, offsets = _read_offsets(path)
            tau0 = 1.0
            if len(elapsed) > 1:
                gaps = np.sort(np.diff(elapsed))
                mid = gaps[len(gaps) // 2].item()
                if mid > 0:
                    tau0 = mid
            rep = metrics.report(offsets, tau0_s=tau0)
            reports[os.path.basename(path)] = (rep, elapsed, offsets)
    except FormatError as exc:
        click.echo(f"malformed log: {exc}", err=True)
        sys.exit(1)

    flat = {k: v[0] for k, v in reports.items()}
    payload = next(iter(flat.values())) if len(flat) == 1 else flat
    if fmt == "json":
        click.echo(_dump_json(payload), nl=False)
    else:
        lines = ["file,key,value"]
        for name, rep in flat.items():
            for key in ("n", "mean_ns", "std_ns", "max_ns", "min_ns",
                        "peak_to_peak_ns"):
                lines.append(f"{name},{key},{rep[key]}")
        click.echo("\n".join(lines))

    if out_dir:
        for name, (rep, elapsed, offsets) in reports.items():
            stem = os.path.splitext(name)[0]
            _write_atomic(os.path.join(out_dir, f"{stem}_report.json"),
                          _dump_json(rep))
            adev_rows = "\n".join(f"{t!r},{a!r}" for t, a in rep["adev"])
            _write_atomic(os.path.join(out_dir, f"{stem}_adev.csv"),
                          "tau_s,adev\n" + adev_rows + "\n")
            _write_atomic(os.path.join(out_dir, f"{stem}_offsets.csv"),
                          _csv("elapsed_s,offset_ns", "%.3f,%d",
                               elapsed, offsets))


# ---------------------------------------------------------------------------
# replay


def _finite(ctx, param, value: float) -> float:
    if not math.isfinite(value):
        raise click.BadParameter(f"{value} is not a finite number")
    return value


@main.command()
@click.argument("nmea_log", type=click.Path(exists=True, dir_okay=False))
@click.option("--pps", "pps_log", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="Edge capture log; omit for sentence-only replay.")
@click.option("--mode", type=click.Choice(["nmea", "pps", "nmea+pps"]),
              default=None, help="Servo mode (default: node spec, or log-driven).")
@click.option("--preset", "preset_name", default=None,
              help="Rebuild node physics from this preset.")
@click.option("--scenario", "scenario_path", default=None,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--node", "node_name", default=None,
              help="Node of the scenario to replay (default: first).")
@click.option("--seed", type=click.IntRange(min=0), default=None)
@click.option("--assumed-latency-ms", type=float, default=80.0,
              show_default=True, callback=_finite,
              help="Arrival model for unprefixed lines.")
@click.option("--out", "out_dir", default="tsync-replay", show_default=True)
def replay(nmea_log, pps_log, mode, preset_name, scenario_path, node_name,
           seed, assumed_latency_ms, out_dir):
    """Drive the discipline loop from recorded sentence/edge captures."""
    try:
        events = nmea.read_log(nmea_log, assumed_latency_ms)
        edges = pps.read_pps_log(pps_log) if pps_log else []
        _, last_s = engine.capture_seconds(events, edges)
        cfg, spec = _replay_target(preset_name, scenario_path, node_name,
                                   seed, mode, pps_log is not None, last_s)
        rows, warnings = engine.run_replay(cfg, spec, events, edges)
    except (FormatError, nmea.MalformedField, pps.MalformedEdge,
            TimeReversalError, OverflowError, scenario.SchemaError,
            scenario.UnknownPreset, engine.OutsideScenario,
            servo.NonMonotonicSample) as exc:  # Overflow: past 64 bits
        click.echo(f"replay error: {exc}", err=True)
        sys.exit(1)
    except NoiseExhausted as exc:
        click.echo(f"replay error: the capture has more measured events "
                   f"than the noise stream of a {cfg.duration_s:g} s "
                   f"scenario holds ({exc})", err=True)
        sys.exit(1)
    for w in warnings:
        log.warning("replay: %s", w)
    path = os.path.join(out_dir, "loop_replay.csv")
    _write_atomic(path, _loop_csv(rows))
    click.echo(path)


def _replay_target(preset_name, scenario_path, node_name, seed, mode,
                   have_pps, last_s):
    """Scenario and node to replay against. Bare logs get a default node
    with full visibility through the capture's last second."""
    if preset_name and scenario_path:
        raise FormatError("give either --preset or --scenario, not both")
    if preset_name:
        cfg = scenario.preset(preset_name)
    elif scenario_path:
        cfg = scenario.load(scenario_path)
    else:
        mode_val = mode or ("nmea+pps" if have_pps else "nmea")
        node = scenario.NodeSpec(name="replay", servo=scenario.ServoConfig(
            mode=scenario.ServoMode(mode_val)))
        duration = float(max(last_s, 1))
        cfg = scenario.ScenarioConfig(
            name="replay", duration_s=duration,
            visibility=(scenario.VisibilitySeg(0.0, duration, 8, 6),),
            nodes=(node,))
        return cfg, node
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    if node_name:
        spec = cfg.node(node_name)
    elif cfg.nodes:
        spec = cfg.nodes[0]
    else:
        raise FormatError(f"scenario {cfg.name!r} has no node to replay")
    if mode:
        spec = dataclasses.replace(spec, servo=dataclasses.replace(
            spec.servo, mode=scenario.ServoMode(mode)))
    return cfg, spec


@main.command()
@click.option("--show", "show_name", default=None,
              help="Print the full JSON of one preset.")
def presets(show_name):
    """List the built-in scenario presets."""
    if show_name:
        try:
            click.echo(scenario.dumps(scenario.preset(show_name)))
        except scenario.UnknownPreset as exc:
            click.echo(f"unknown preset: {exc}", err=True)
            sys.exit(2)
        return
    for name in scenario.PRESET_NAMES:
        click.echo(name)


if __name__ == "__main__":
    main()
