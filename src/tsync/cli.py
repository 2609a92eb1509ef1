"""Command-line front end: run scenarios, analyze logs, replay captures.

Every command is deterministic given its inputs and seed; output files
are written atomically (temp file + rename).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import sys
import tempfile
import time
import warnings
from itertools import chain

import click
import numpy as np

from . import __version__, engine, nmea, pps, scenario
from .engine import LOOP_FORMAT, LOOP_HEADER
from .timebase import CSV_BLOCK, NS_PER_S

HARNESS_HEADER = "packet_id,send_true_ns,recv_a_stamp_ns,recv_b_stamp_ns,offset_ns"
NTP_HEADER = "t_s,offset_est_ns,delay_est_ns,truth_offset_ns"
TSF_HEADER = "t_s,max_spread_us"


def _write_atomic(path: str, chunks) -> None:
    """Write the text blocks `chunks` to a temp file beside `path`, then
    rename it to `path`, with the mode a plain open() under the process
    umask gives; on any error the temp file is removed."""
    path = os.path.abspath(path)
    d = os.path.dirname(path)
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tsync-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)  # mkstemp made it 0o600
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(header: str, fmt: str, *columns):
    """Text blocks: the header, then one `fmt % row` line per row of the
    equal-length array columns, CSV_BLOCK rows to a block."""
    line = fmt + "\n"
    yield header + "\n"
    for i in range(0, len(columns[0]), CSV_BLOCK):
        block = [c[i:i + CSV_BLOCK].tolist() for c in columns]
        yield line * len(block[0]) % tuple(chain.from_iterable(zip(*block)))


def _rows_csv(header: str, fmt: str, rows):
    """Text blocks: the header, then one `fmt % row` line per row of the
    list of row tuples, CSV_BLOCK rows to a block."""
    line = fmt + "\n"
    yield header + "\n"
    for i in range(0, len(rows), CSV_BLOCK):
        block = rows[i:i + CSV_BLOCK]
        yield line * len(block) % tuple(chain.from_iterable(block))


def _loop_csv(loop):
    """Text blocks of the loop log `loop` (`engine.LOOP_COLUMNS`): the
    header, then `LOOP_FORMAT % row` per row, its source index written as
    the source's name, CSV_BLOCK rows to a block."""
    names = engine.SOURCES
    line = LOOP_FORMAT + "\n"
    yield LOOP_HEADER + "\n"
    for i in range(0, len(loop), CSV_BLOCK):
        j = min(i + CSV_BLOCK, len(loop))
        rows = zip(loop.elapsed_s[i:j].tolist(), loop.offset_ns[i:j].tolist(),
                   loop.freq_correction_ppm[i:j].tolist(),
                   [names[k] for k in loop.source[i:j]],
                   loop.holdover[i:j].tolist())
        yield line * (j - i) % tuple(chain.from_iterable(rows))


def _dump_json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


@click.group()
@click.version_option(__version__)
def main():
    """Simulate and analyze receiver-disciplined clock networks."""


def _run_one(cfg: scenario.ScenarioConfig, out_dir: str) -> dict:
    """Run one scenario and write all its artifacts; returns the manifest.
    Every step that can fail runs before the first write, so a run that
    fails leaves no file."""
    t0 = time.monotonic()
    kinds = {t.kind for t in cfg.traffic}
    if kinds:  # a run without traffic loads no traffic or analysis code
        from . import metrics, net
    bcast = None
    if "broadcast" in kinds:
        bcast, nodes = net.run_broadcast(cfg)
    else:
        nodes = engine.run_scenario(cfg)

    summary = {"scenario": cfg.name, "seed": cfg.seed,
               "nodes": {name: sim.summary() for name, sim in nodes.items()}}
    if bcast is not None:
        a, b = list(bcast.stamp_ns)[:2]  # the first two clients
        packets, offsets, skipped = net.pairwise_offsets(bcast, a, b)
    ntp_rows = tsf_rows = None
    if "ntp" in kinds:
        ntp_rows = net.run_ntp(cfg)
        ests = [abs(r[1]) for r in ntp_rows]
        summary["ntp"] = {"n": len(ntp_rows),
                          "mean_abs_offset_ns": sum(ests) / len(ests) if ests else 0.0}
    if "tsf" in kinds:
        tsf_rows = net.run_tsf(cfg)

    files: list[str] = []

    def emit(name: str, chunks) -> None:
        _write_atomic(os.path.join(out_dir, name), chunks)
        files.append(name)

    for name, sim in nodes.items():
        emit(f"loop_{name}.csv", _loop_csv(sim.loop))
    for name, sim in nodes.items():
        bursts = sim.bursts
        if bursts:
            emit(f"nmea_{name}.log", nmea.format_log(
                bursts.arrival_ns, bursts.second, bursts.nsat,
                sim.spec.constellations))
    for name, sim in nodes.items():
        if sim.pulses:
            emit(f"pps_{name}.log", pps.format_log(sim.pulses.edge_ns))
    if bcast is not None:
        emit("harness.csv", _csv(
            HARNESS_HEADER, "%d,%d,%d,%d,%d", packets,
            bcast.send_ns[packets], bcast.stamp_ns[a][packets],
            bcast.stamp_ns[b][packets], offsets))
        # The box of the non-empty offsets cannot fail, so it is taken
        # after the writes: taken before them, its freed temporaries raised
        # the peak RSS of a 180 000-packet run and its analyze by 4 MiB.
        box = metrics.boxplot(offsets)
        summary["broadcast"] = {
            "pairs": [a, b], "n": packets.size, "skipped": skipped,
            "median_ns": box.median, "iqr_ns": box.q3 - box.q1,
            "max_abs_ns": int(abs(offsets).max()),
        }
    if ntp_rows is not None:
        emit("ntp.csv", _rows_csv(NTP_HEADER, "%.3f,%s,%s,%s", ntp_rows))
    if tsf_rows is not None:
        emit("tsf.csv", _rows_csv(TSF_HEADER, "%.4f,%s", tsf_rows))

    manifest = {
        "scenario": cfg.name,
        "seed": cfg.seed,
        "out_dir": os.path.abspath(out_dir),
        "files": files,
        "tool_version": __version__,
        "runtime_s": round(time.monotonic() - t0, 3),
        "summary": summary,
    }
    _write_atomic(os.path.join(out_dir, "manifest.json"),
                  (_dump_json(manifest),))
    for name, sim in nodes.items():
        for w in sim.warnings:
            click.echo(f"WARNING tsync: {name}: {w}", err=True)
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
def run(scenario_paths, presets, seed, out_root):
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
    try:
        manifests = list(map(_run_one, configs, out_dirs))
    except Exception as exc:  # noqa: BLE001 - boundary to exit codes
        click.echo(f"run failed: {exc}", err=True)
        sys.exit(1)
    for m in manifests:
        click.echo(os.path.join(m["out_dir"], "manifest.json"))


# ---------------------------------------------------------------------------
# analyze


# The elapsed-time and offset columns of each run CSV, and the type of the
# elapsed time: a harness log's send times are integer ns.
_COLUMNS = {HARNESS_HEADER: ((1, 4), np.int64), LOOP_HEADER: ((0, 1), float),
            NTP_HEADER: ((0, 1), float)}
# The most seconds whole int64 ns hold. This double lies just above
# (2**63 - 1) ns, so `|t| < _MAX_TIME_S` holds exactly the times within.
_MAX_TIME_S = (2**63 - 1) / NS_PER_S


def _load_rows(lines, cols, t_type):
    """The elapsed-time and offset columns `cols` of CSV rows, as one
    structured array; a row that does not parse, whose time in seconds is
    not within (2**63 - 1) ns of 0 (NaN is not), or whose time is neither
    the time of the row before nor a step of at least 1 ns away from it
    raises ValueError.

    Times may repeat or step back, as in logs joined end to end. The
    median step is the stability curve's tau0."""
    with warnings.catch_warnings():
        # A header-only log is an empty report, not a warning.
        warnings.filterwarnings(
            "ignore", "loadtxt: input contained no data", UserWarning)
        # numpy releases that still read "4.5" into an int64 column via a
        # float warn first; as an error, loadtxt raises.
        warnings.filterwarnings(
            "error", ".*integer via a float", DeprecationWarning)
        rows = np.loadtxt(lines, delimiter=",", usecols=cols, comments=None,
                          ndmin=1, dtype=[("t", t_type), ("off", np.int64)])
    t = rows["t"]
    if t_type is float:  # seconds; integer ns never step by under 1 ns
        inside = np.abs(t) < _MAX_TIME_S
        if not inside.all():
            raise ValueError(f"time {t[inside.argmin()]} is not within "
                             f"9223372036.854775807 s of 0 (int64 ns)")
        steps = np.abs(np.diff(t))
        ok = (steps == 0) | (steps >= 1e-9)
        if not ok.all():
            i = ok.argmin()
            raise ValueError(f"time {t[i + 1]} is neither {t[i]} nor a "
                             f"finite step of at least 1 ns away from it")
    return rows


def _first_bad_line(path: str, cols, t_type) -> int:
    """The number of the file line holding the first row that `_load_rows`
    rejects. It stops at that row, so the row ends the shortest prefix of
    the data lines that fails: bisect for it."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        numbered = [(n, line) for n, line in enumerate(fh, 1)
                    if n > 1 and not line.isspace()]
    lines = [line for _, line in numbered]
    ok, bad = 0, len(lines)  # lines[:ok] load, lines[:bad] do not
    while bad - ok > 1:
        mid = (ok + bad) // 2
        try:
            _load_rows(lines[:mid], cols, t_type)
            ok = mid
        except ValueError:
            bad = mid
    return numbered[bad - 1][0]


def _read_offsets(path: str):
    """Elapsed times (s, float) and offsets (ns, int64) from any of the
    run CSV formats, as arrays. A row that does not parse is named by its
    line in the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            cols, t_type = _COLUMNS.get(header, (None, None))
            if cols is not None:
                # Lines of only whitespace are skipped, like empty ones.
                data = _load_rows((line for line in fh
                                   if not line.isspace()), cols, t_type)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    except ValueError as exc:
        # numpy counts rows its own way; name the line of the file.
        reason = re.sub(r" at row \d+", "", str(exc))
        raise ValueError(f"{path}:{_first_bad_line(path, cols, t_type)}: "
                         f"{reason}") from exc
    if cols is None:
        raise ValueError(f"{path}: unrecognized header {header!r}")
    elapsed = data["t"]
    if header == HARNESS_HEADER:
        elapsed = elapsed / NS_PER_S
    return elapsed, data["off"]


@main.command()
@click.argument("logs", nargs=-1, required=True,
                type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_dir", default=None,
              help="Also write report and plot-ready CSVs here.")
def analyze(logs, out_dir):
    """Compute offset statistics, stability curve and box summary."""
    from . import metrics
    names = [os.path.basename(path) for path in logs]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise click.UsageError(f"log name {name!r} given twice: reports "
                                   f"and --out files are named by it")
    reports = {}
    for path in logs:
        try:
            elapsed, offsets = _read_offsets(path)
        except ValueError as exc:
            click.echo(f"malformed log: {exc}", err=True)
            sys.exit(1)
        tau0 = 1.0
        if len(elapsed) > 1:
            gaps = np.sort(np.diff(elapsed))
            mid = gaps[len(gaps) // 2].item()
            # Send times 1 ns apart past about 100 days divide to equal
            # seconds, so the median gap can still be 0.
            if mid > 0:
                tau0 = mid
        rep = metrics.report(offsets, tau0_s=tau0)
        reports[os.path.basename(path)] = (rep, elapsed, offsets)

    flat = {k: v[0] for k, v in reports.items()}
    payload = next(iter(flat.values())) if len(flat) == 1 else flat
    click.echo(_dump_json(payload), nl=False)

    if out_dir:
        try:
            for name, (rep, elapsed, offsets) in reports.items():
                stem = os.path.splitext(name)[0]
                _write_atomic(os.path.join(out_dir, f"{stem}_report.json"),
                              (_dump_json(rep),))
                _write_atomic(os.path.join(out_dir, f"{stem}_adev.csv"),
                              _rows_csv("tau_s,adev", "%r,%r", rep["adev"]))
                _write_atomic(os.path.join(out_dir, f"{stem}_offsets.csv"),
                              _csv("elapsed_s,offset_ns", "%.3f,%d",
                                   elapsed, offsets))
        except OSError as exc:
            click.echo(f"analyze failed: {exc}", err=True)
            sys.exit(1)


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
              help="Node of --preset or --scenario to replay "
              "(default: first).")
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
        seconds = engine.capture_seconds(events, edges)
        cfg, spec = _replay_target(preset_name, scenario_path, node_name,
                                   seed, mode, pps_log is not None, seconds[1])
        loop, warnings = engine.run_replay(cfg, spec, events, edges, seconds)
    except (ValueError, OverflowError, scenario.UnknownPreset) as exc:
        # OverflowError: a time or phase past 64 bits
        click.echo(f"replay error: {exc}", err=True)
        sys.exit(1)
    for w in warnings:
        click.echo(f"WARNING tsync: replay: {w}", err=True)
    path = os.path.join(out_dir, "loop_replay.csv")
    try:
        _write_atomic(path, _loop_csv(loop))
    except OSError as exc:
        click.echo(f"replay error: {exc}", err=True)
        sys.exit(1)
    click.echo(path)


def _replay_target(preset_name, scenario_path, node_name, seed, mode,
                   have_pps, last_s):
    """Scenario and node to replay against. Bare logs get one default node
    with full visibility through the capture's last second."""
    if preset_name and scenario_path:
        raise ValueError("give either --preset or --scenario, not both")
    if preset_name:
        cfg = scenario.preset(preset_name)
    elif scenario_path:
        cfg = scenario.load(scenario_path)
    elif node_name:
        raise ValueError("--node names a node of --preset or --scenario; "
                         "bare logs replay one default node")
    else:
        node = scenario.NodeSpec(name="replay", servo=scenario.ServoConfig(
            mode=scenario.ServoMode("nmea+pps" if have_pps else "nmea")))
        duration = max(last_s, 1)
        cfg = scenario.ScenarioConfig(
            name="replay", duration_s=duration,
            visibility=(scenario.VisibilitySeg(0.0, duration, 8, 6),),
            nodes=(node,))
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    if node_name:
        spec = cfg.node(node_name)
    elif cfg.nodes:
        spec = cfg.nodes[0]
    else:
        raise ValueError(f"scenario {cfg.name!r} has no node to replay")
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
