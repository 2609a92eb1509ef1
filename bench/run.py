"""tsync benchmark: seeded workloads driven through the ``tsync`` command line.

Run from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --check-goldens     # every preset at seed 1787, untimed
    python3 bench/run.py --record-goldens    # rewrite bench/goldens.json
    python3 bench/run.py --self-check [--seconds S]

A run repeats the workload, closed loop and one repetition at a time, each
in a fresh ``python`` child (bench/child.py), until ``--seconds`` have
passed, then prints the medians. With ``--trace 1`` it also makes one
traced repetition and prints the per-layer metrics instead. The last line
of standard output is one JSON object; the metric names, units and bounds
are those of BENCHMARK.json at the checkout root. bench/NOTES.md says why
each workload and metric was chosen.

Every command's exit code and artifacts are checked: against the SHA-256
hashes in bench/goldens.json when the seed has them, otherwise against the
file formats and the row counts the seed's simulated duration implies, and
then every later repetition against the hashes of the first.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SCHEMA = os.path.join(ROOT, "docs", "scenario.schema.json")
WORK = os.path.join(BENCH, "_work")
GOLDENS = os.path.join(BENCH, "goldens.json")
CHILD = os.path.join(BENCH, "child.py")

DEFAULT_SEED = 1787
# Seeds whose workload artifacts are recorded besides the default seed.
HELD_OUT_SEEDS = (1, 2, 3)
# A run must end within 180 s; the last child is killed past this point.
RUN_DEADLINE_S = 165.0
# Runs per workload in each of the two sets of the steadiness self-check.
SELF_CHECK_RUNS = 10

# File formats as documented for users, kept here so the benchmark checks
# the format instead of trusting the package's own constants.
LOOP_HEADER = "elapsed_s,offset_ns,freq_correction_ppm,source,holdover"
HARNESS_HEADER = "packet_id,send_true_ns,recv_a_stamp_ns,recv_b_stamp_ns,offset_ns"


@dataclass
class Workload:
    """Commands of one repetition plus what their outputs must satisfy.

    ``commands`` are (output subdirectory, CLI arguments) pairs, run in
    order. ``files`` maps each artifact to its format and row count, used
    when the seed has no golden hashes. ``calls`` are exact call counts
    the traced repetition must reproduce.
    """

    name: str
    node_seconds: int
    commands: list[tuple[str, list[str]]]
    files: dict[str, tuple[str, int]]
    calls: dict[str, int]


def day_combined(seed: int, rep: str, work: str) -> Workload:
    day = 86_400
    run = ["run", "--preset", "room_24h", "--seed", str(seed),
           "--out", os.path.join(rep, "run")]
    files = {
        "run/loop_bench.csv": ("loop", day),
        "run/nmea_bench.log": ("nmea", 2 * day),
        "run/pps_bench.log": ("pps", day),
        "run/manifest.json": ("manifest", 3),
    }
    calls = {"nmea.generate": 2 * day, "servo.update": day, "engine.step": day}
    return Workload("day_combined", day, [("run", run)], files, calls)


def broadcast_100pps(seed: int, rep: str, work: str) -> Workload:
    secs, nodes, packets = 1800, ("c1", "c2", "c3"), 180_000
    run = ["run", "--preset", "harness_100pps", "--seed", str(seed),
           "--out", os.path.join(rep, "run")]
    analyze = ["analyze", os.path.join(rep, "run", "harness.csv"),
               "--out", os.path.join(rep, "analyze")]
    files = {"run/harness.csv": ("harness", packets),
             "run/manifest.json": ("manifest", 1 + 3 * len(nodes)),
             "analyze/harness_report.json": ("report", packets)}
    for n in nodes:
        files[f"run/loop_{n}.csv"] = ("loop", secs)
        files[f"run/nmea_{n}.log"] = ("nmea", 2 * secs)
        files[f"run/pps_{n}.log"] = ("pps", secs)
    # Each packet is stamped by the server and by both clients.
    calls = {"net.stamp": 3 * packets, "engine.step": secs * len(nodes),
             "metrics.report": 1}
    return Workload("broadcast_100pps", secs * len(nodes),
                    [("run", run), ("analyze", analyze)], files, calls)


def drive_replay(seed: int, rep: str, work: str) -> Workload:
    import drive

    info = drive.generate(seed, os.path.join(work, "input"), SCHEMA)
    scn, dur, vis = info["scenario"], info["duration_s"], info["visible_s"]
    run_dir = os.path.join(rep, "run")
    run = ["run", scn, "--out", run_dir]
    replay = ["replay", os.path.join(run_dir, "nmea_vehicle.log"),
              "--pps", os.path.join(run_dir, "pps_vehicle.log"),
              "--scenario", scn, "--out", os.path.join(rep, "replay")]
    analyze = ["analyze", os.path.join(run_dir, "loop_vehicle.csv"),
               "--out", os.path.join(rep, "analyze")]
    files = {
        "run/loop_vehicle.csv": ("loop", dur),
        "run/nmea_vehicle.log": ("nmea", 2 * vis),
        "run/pps_vehicle.log": ("pps", vis),
        "run/manifest.json": ("manifest", 3),
        "replay/loop_replay.csv": ("loop", vis),
        "analyze/loop_vehicle_report.json": ("report", dur),
    }
    # Live run: two sentences per visible second, one step per second and
    # one holdover entry for the long outage. Replay parses and extracts
    # every sentence once.
    calls = {"nmea.generate": 2 * vis, "nmea.parse": 4 * vis,
             "engine.step": dur, "servo.enter_holdover": 1}
    return Workload("drive_replay", 2 * dur,
                    [("run", run), ("replay", replay), ("analyze", analyze)],
                    files, calls)


WORKLOADS = {w.__name__: w for w in (day_combined, broadcast_100pps, drive_replay)}


# ---------------------------------------------------------------------------
# artifacts


def _sha256(path: str) -> str:
    if os.path.basename(path) == "manifest.json":
        # The manifest records where it was written and how long the run
        # took; everything else in it must repeat exactly.
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        data.pop("out_dir", None)
        data.pop("runtime_s", None)
        blob = json.dumps(data, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def hash_tree(top: str) -> dict[str, str]:
    out = {}
    for d, _, names in os.walk(top):
        for n in names:
            p = os.path.join(d, n)
            out[os.path.relpath(p, top).replace(os.sep, "/")] = _sha256(p)
    return dict(sorted(out.items()))


def tree_bytes(top: str) -> int:
    return sum(os.path.getsize(os.path.join(d, n))
               for d, _, names in os.walk(top) for n in names)


def _xor8(data: bytes) -> int:
    """XOR of all bytes, folded in halves over one big integer."""
    width = len(data)
    x = int.from_bytes(data, "little")
    while width > 1:
        half = (width + 1) // 2
        x = (x >> (8 * half)) ^ (x & ((1 << (8 * half)) - 1))
        width = half
    return x


def _lines(path: str) -> list[bytes]:
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.endswith(b"\n"):
        raise ValueError("no final newline")
    return data[:-1].split(b"\n")


def check_file(path: str, kind: str, n: int) -> str | None:
    """Format and row-count check of one artifact; None when it passes."""
    try:
        if kind in ("loop", "harness"):
            lines = _lines(path)
            header = LOOP_HEADER if kind == "loop" else HARNESS_HEADER
            if lines[0].decode() != header:
                return f"header {lines[0][:60]!r}"
            ncol = header.count(",") + 1
            if any(row.count(b",") + 1 != ncol for row in lines[1:]):
                return "row with wrong column count"
            rows = len(lines) - 1
        elif kind == "nmea":
            lines = _lines(path)
            for line in lines:
                rx, _, sentence = line.partition(b" ")
                int(rx)
                payload, star, given = sentence[1:].rpartition(b"*")
                if not sentence.startswith(b"$") or not star or \
                        int(given, 16) != _xor8(payload):
                    return f"bad sentence {line[:60]!r}"
            rows = len(lines)
        elif kind == "pps":
            lines = _lines(path)
            for line in lines:
                int(line)
            rows = len(lines)
        elif kind == "manifest":
            with open(path, "r", encoding="utf-8") as fh:
                rows = len(json.load(fh)["files"])
        elif kind == "report":
            with open(path, "r", encoding="utf-8") as fh:
                report = json.load(fh)
            if not report["adev"]:
                return "empty stability curve"
            rows = report["n"]
        else:
            raise ValueError(kind)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None if rows == n else f"{rows} rows, expected {n}"


def check_rep(wl: Workload, rep: str, golden: dict | None) -> dict[str, list[str]]:
    """Problems per output subdirectory (one subdirectory per command)."""
    problems: dict[str, list[str]] = {sub: [] for sub, _ in wl.commands}
    if golden is not None:
        got = hash_tree(rep)
        for name in sorted(set(got) | set(golden)):
            if got.get(name) != golden.get(name):
                sub = name.split("/")[0]
                problems.setdefault(sub, []).append(f"{name}: hash differs")
        return problems
    for name, (kind, n) in wl.files.items():
        err = check_file(os.path.join(rep, name), kind, n)
        if err:
            problems[name.split("/")[0]].append(f"{name}: {err}")
    return problems


def replay_divergence(rep: str) -> tuple[int, int]:
    """(replay rows, replay rows unlike the live row of the same second)."""
    live_path = os.path.join(rep, "run", "loop_vehicle.csv")
    replay_path = os.path.join(rep, "replay", "loop_replay.csv")
    if not os.path.exists(replay_path):
        return 0, 0
    live = {row.split(b",", 1)[0]: row for row in _lines(live_path)[1:]}
    rows = _lines(replay_path)[1:]
    return len(rows), sum(live.get(r.split(b",", 1)[0]) != r for r in rows)


def load_goldens() -> dict:
    with open(GOLDENS, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# repetitions


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("TSYNC_LOG", None)
    return env


def preset_names() -> list[str]:
    """The presets the package lists, so a new preset gets checked too."""
    out = subprocess.run([sys.executable, "-m", "tsync.cli", "presets"],
                         env=child_env(), cwd=ROOT, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return out.split()


def run_child(commands: list[list[str]], work: str, trace: bool,
              timeout_s: float) -> tuple[float, dict | None]:
    """Run one repetition; returns (monotonic clock at spawn, result)."""
    spec = {
        "src": SRC,
        "commands": commands,
        "trace": trace,
        "stdout": os.path.join(work, "stdout.txt"),
        "result": os.path.join(work, "result.json"),
    }
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    if os.path.exists(spec["result"]):
        os.unlink(spec["result"])
    with open(os.path.join(work, "stderr.txt"), "w", encoding="utf-8") as err:
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, CHILD, spec_path], env=child_env(),
                                  cwd=ROOT, stdin=subprocess.DEVNULL,
                                  stdout=err, stderr=err, timeout=timeout_s)
        except subprocess.TimeoutExpired:
            return t_spawn, None
    if proc.returncode != 0 or not os.path.exists(spec["result"]):
        return t_spawn, None
    with open(spec["result"], "r", encoding="utf-8") as fh:
        return t_spawn, json.load(fh)


def _stderr_tail(work: str) -> str:
    with open(os.path.join(work, "stderr.txt"), "r", encoding="utf-8",
              errors="replace") as fh:
        return fh.read()[-2000:]


class Run:
    """Repetitions of one workload at one seed."""

    def __init__(self, name: str, seed: int, deadline: float, goldens: dict):
        self.seed = seed
        self.deadline = deadline
        self.work = os.path.join(WORK, name)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.rep_dir = os.path.join(self.work, "rep")
        self.wl = WORKLOADS[name](seed, self.rep_dir, self.work)
        golden = goldens.get(name, {}).get(str(seed))
        if golden is not None:
            want = {k: v for k, v in golden.items() if k.startswith("input/")}
            if self.input_hashes() != want:
                raise SystemExit(f"{name}: generated inputs differ from goldens")
            golden = {k: v for k, v in golden.items() if k not in want}
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.samples: list[dict] = []

    def input_hashes(self) -> dict[str, str]:
        """Hashes of the generated inputs, keyed ``input/<file>``."""
        top = os.path.join(self.work, "input")
        return {f"input/{k}": v for k, v in hash_tree(top).items()}

    def rep(self, trace: bool = False) -> dict | None:
        """One repetition; returns its timings, or None when it failed."""
        shutil.rmtree(self.rep_dir, ignore_errors=True)
        timeout = max(1.0, self.deadline - time.monotonic())
        t_spawn, res = run_child([args for _, args in self.wl.commands],
                                 self.work, trace, timeout)
        self.attempted += len(self.wl.commands)
        if res is None or res["ready"] is None:
            self.failed += len(self.wl.commands)
            print(f"repetition failed:\n{_stderr_tail(self.work)}", file=sys.stderr)
            return None
        problems = check_rep(self.wl, self.rep_dir, self.golden)
        ok = True
        for (sub, _), code in zip(self.wl.commands, res["codes"]):
            if code != 0 or problems.get(sub):
                ok = False
                self.failed += 1
                print(f"{sub}: exit {code}; {problems.get(sub)}", file=sys.stderr)
        if ok and self.golden is None:
            # Later repetitions of this seed must repeat these bytes.
            self.golden = hash_tree(self.rep_dir)
        run_s = res["end"] - res["ready"]
        sample = {
            "setup_s": res["ready"] - t_spawn,
            "run_s": run_s,
            "run_cpu_s": res["cpu_end"] - res["cpu_ready"],
            "sim_rate": self.wl.node_seconds / run_s,
            "peak_rss_mb": res["maxrss_kb"] / 1024.0,
            "import_s": res["import_s"],
        }
        if trace:
            sample["trace"] = res["trace"]
            sample["bytes_written"] = tree_bytes(self.rep_dir)
            sample["replay"] = replay_divergence(self.rep_dir)
        return sample

    def measure(self, seconds: float) -> None:
        start = time.monotonic()
        while not self.samples or time.monotonic() - start < seconds:
            if time.monotonic() >= self.deadline:
                break
            sample = self.rep()
            if sample is None:
                break
            self.samples.append(sample)
            print(f"repetition {len(self.samples)}: " + " ".join(
                f"{k}={sample[k]:.4f}" for k in
                ("setup_s", "run_s", "run_cpu_s", "peak_rss_mb")), flush=True)

    def median(self, key: str) -> float:
        return statistics.median(s[key] for s in self.samples)


def end_to_end(run: Run) -> dict[str, float]:
    return {
        "setup_s": run.median("setup_s"),
        "run_s": run.median("run_s"),
        "run_cpu_s": run.median("run_cpu_s"),
        "sim_rate": run.median("sim_rate"),
        "peak_rss_mb": run.median("peak_rss_mb"),
        "ops_ok": 1.0 - run.failed / run.attempted,
    }


def per_layer(run: Run, traced: dict) -> dict[str, float]:
    t = traced["trace"]
    calls, self_ns, errors, counts = t["calls"], t["self_ns"], t["errors"], t["counts"]

    def secs(name: str) -> float:
        return self_ns.get(name, 0) / 1e9

    label_calls = calls["pps.label_pps"]
    replay_rows, diverged = traced["replay"]
    m = {
        "timebase.advance.calls": calls["timebase.advance"],
        "timebase.advance.self_s": secs("timebase.advance"),
        "timebase.read_clock.calls": calls["timebase.read_clock"],
        "timebase.read_clock.self_s": secs("timebase.read_clock"),
        "timebase.siminstant.count": counts["timebase.siminstant"],
        "timebase.noise_init_s": secs("timebase.noise_init"),
        "timebase.noise_draws_used_ratio":
            t["noise_draws_used"] / max(1, t["noise_steps_allocated"]),
        "nmea.generate.calls": calls["nmea.generate"],
        "nmea.generate.self_s": secs("nmea.generate"),
        "nmea.parse.calls": calls["nmea.parse"],
        "nmea.parse.self_s": secs("nmea.parse"),
        "pps.next_pps.self_s": secs("pps.next_pps"),
        "pps.label_pps.calls": label_calls,
        "pps.label_pps.self_s": secs("pps.label_pps"),
        "pps.label_ok_ratio":
            (label_calls - errors["pps.label_pps"]) / max(1, label_calls),
        "servo.update.calls": calls["servo.update"],
        "servo.update.self_s": secs("servo.update"),
        "servo.holdover_entries": calls["servo.enter_holdover"],
        "scenario.temperature_at.calls": calls["scenario.temperature_at"],
        "scenario.temperature_at.self_s": secs("scenario.temperature_at"),
        "scenario.effective_nsat.self_s": secs("scenario.effective_nsat"),
        "scenario.load_s": secs("scenario.load"),
        "engine.run.self_s": secs("engine.run"),
        "engine.step.calls": calls["engine.step"],
        "engine.step.self_s": secs("engine.step"),
        "engine.step_us.p50": t["step_ns_p50"] / 1e3,
        "engine.step_us.p99": t["step_ns_p99"] / 1e3,
        "engine.replay.self_s": secs("engine.replay"),
        "engine.replay_rows": replay_rows,
        "engine.replay_rows_diverged": diverged,
        "net.stamp.calls": calls["net.stamp"],
        "net.stamp.self_s": secs("net.stamp"),
        "net.broadcast.self_s": secs("net.broadcast"),
        "net.pairwise.self_s": secs("net.pairwise"),
        "metrics.report.calls": calls["metrics.report"],
        "metrics.report.self_s": secs("metrics.report"),
        "cli.import_s": run.median("import_s"),
        "cli.self_s": secs("cli"),
        "cli.bytes_written": traced["bytes_written"],
        "trace.run_s": traced["run_s"],
        "trace.overhead_s": traced["run_s"] - run.median("run_s"),
    }
    return m


def call_count_errors(wl: Workload, traced: dict) -> list[str]:
    """Exact call counts the traced repetition must reproduce."""
    calls = traced["trace"]["calls"]
    return [f"{name}.calls = {calls.get(name, 0)}, expected {want}"
            for name, want in wl.calls.items() if calls.get(name, 0) != want]


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def emit(metrics: dict[str, float], declared: list[dict]) -> dict:
    """Metrics in BENCHMARK.json order, each with its declared unit."""
    names = [m["name"] for m in declared]
    if set(names) != set(metrics):
        raise SystemExit(f"metric mismatch: {sorted(set(names) ^ set(metrics))}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared}


def bench(workload: str, seed: int, seconds: float, trace: bool) -> int:
    spec = load_benchmark()
    deadline = time.monotonic() + RUN_DEADLINE_S
    # Byte-compile first, so no repetition pays for compiling the package.
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC],
                   check=True, stdout=subprocess.DEVNULL)
    run = Run(workload, seed, deadline, load_goldens()["workloads"])
    run.measure(seconds)
    if not run.samples:
        print(f"{workload}: no repetition completed", file=sys.stderr)
        return 1
    correct = run.failed == 0
    declared = spec["end_to_end"]
    metrics = end_to_end(run)
    if trace:
        traced = run.rep(trace=True)
        if traced is None:
            print(f"{workload}: traced repetition failed", file=sys.stderr)
            return 1
        errs = call_count_errors(run.wl, traced)
        for e in errs:
            print(f"call count mismatch: {e}", file=sys.stderr)
        correct = run.failed == 0 and not errs
        print("asserted call counts: " + ", ".join(
            f"{k}.calls={v}" for k, v in run.wl.calls.items())
            + ("" if errs else " (all exact)"))
        declared = spec["per_layer"]
        metrics = per_layer(run, traced)
        print(f"tracing overhead: {metrics['trace.overhead_s']:.3f} s "
              f"(traced run_s {metrics['trace.run_s']:.3f} s, untraced median "
              f"{run.median('run_s'):.3f} s over {len(run.samples)} repetitions)")
    out = emit(metrics, declared)
    n = len(run.samples)
    for name, m in out.items():
        print(f"{workload} seed={seed} {name} = {m['value']:.6g} {m['unit']}"
              + ("" if trace else f" (median of {n})"))
    shutil.rmtree(run.rep_dir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": out}))
    return 0


# ---------------------------------------------------------------------------
# golden artifacts


def preset_hashes(name: str, work: str) -> tuple[int, dict]:
    rep = os.path.join(work, "rep")
    shutil.rmtree(rep, ignore_errors=True)
    _, res = run_child([["run", "--preset", name, "--seed", str(DEFAULT_SEED),
                         "--out", rep]], work, False, 600.0)
    code = 1 if res is None else res["codes"][0]
    return code, hash_tree(rep) if code == 0 else {}


def check_goldens() -> int:
    """Every preset's ``tsync run`` artifacts at seed 1787 against goldens."""
    goldens = load_goldens()["presets"]
    work = os.path.join(WORK, "presets")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    names = preset_names()
    bad = 0
    for name in names:
        code, got = preset_hashes(name, work)
        ok = code == 0 and got == goldens.get(name)
        bad += not ok
        print(f"{name}: {'ok' if ok else 'MISMATCH'} ({len(got)} files)")
    shutil.rmtree(work, ignore_errors=True)
    print(f"{len(names) - bad}/{len(names)} presets match bench/goldens.json")
    return 1 if bad else 0


def record_goldens() -> int:
    """Rewrite bench/goldens.json from the current code."""
    out = {"workloads": {}, "presets": {}}
    for name in WORKLOADS:
        for seed in (DEFAULT_SEED, *HELD_OUT_SEEDS):
            run = Run(name, seed, time.monotonic() + 600.0, {})
            if run.rep() is None or run.failed:
                print(f"{name} seed {seed}: checks failed, not recorded",
                      file=sys.stderr)
                return 1
            hashes = {**hash_tree(run.rep_dir), **run.input_hashes()}
            out["workloads"].setdefault(name, {})[str(seed)] = dict(sorted(hashes.items()))
            shutil.rmtree(run.work, ignore_errors=True)
            print(f"{name} seed {seed}: {len(hashes)} files")
    work = os.path.join(WORK, "presets")
    os.makedirs(work, exist_ok=True)
    for name in preset_names():
        code, got = preset_hashes(name, work)
        if code != 0:
            print(f"preset {name}: exit {code}", file=sys.stderr)
            return 1
        out["presets"][name] = got
        print(f"preset {name}: {len(got)} files")
    shutil.rmtree(work, ignore_errors=True)
    with open(GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


# ---------------------------------------------------------------------------
# steadiness self-check


def _one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def self_check(seconds: int) -> int:
    """Two sets of runs of the same code, on different seeds.

    Per workload and end-to-end metric: each set's median and its spread
    (quartile distance over the median), and whether the two medians differ,
    in either direction, by more than the metric's bound.
    """
    spec = load_benchmark()
    seconds = seconds or spec["run_seconds"]
    runs, names = SELF_CHECK_RUNS, list(WORKLOADS)
    values = {(s, w): {} for s in (0, 1) for w in names}
    for s in (0, 1):
        for i in range(runs):
            seed = 1000 * (s + 1) + i
            for w in names:
                out = _one_run(w, seed, seconds)
                if not out["correct"]:
                    raise SystemExit(f"{w} seed {seed}: incorrect output")
                for k, m in out["metrics"].items():
                    values[(s, w)].setdefault(k, []).append(m["value"])
                print(f"set {s + 1} run {i + 1}/{runs} {w} seed {seed} " +
                      " ".join(f"{k}={m['value']:.4g}" for k, m in out["metrics"].items()),
                      flush=True)
    report, ok = [], True
    for w in names:
        for m in spec["end_to_end"]:
            k, bound = m["name"], m["bound"]
            med, spread = [], []
            for s in (0, 1):
                v = values[(s, w)][k]
                q1, q2, q3 = statistics.quantiles(v, n=4)
                med.append(q2)
                spread.append((q3 - q1) / q2)
            gap = abs(med[1] - med[0]) / min(med)
            agree = gap <= bound
            steady = max(spread) <= bound
            ok = ok and agree and steady
            report.append({"workload": w, "metric": k, "bound": bound,
                           "median": med, "spread": spread,
                           "gap_share": gap, "agree": agree,
                           "steady": steady, "third_of_bound":
                           max(spread) < bound / 3})
            print(f"{w:17s} {k:12s} medians {med[0]:.4g} / {med[1]:.4g} "
                  f"spread {spread[0]:.3f} / {spread[1]:.3f} bound {bound} "
                  f"{'agree' if agree else 'DISAGREE'}"
                  f"{'' if steady else ' UNSTEADY'}", flush=True)
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, "self_check.json"), "w", encoding="utf-8") as fh:
        json.dump({"runs": runs, "seconds": seconds, "values":
                   {f"set{s + 1}/{w}": v for (s, w), v in values.items()},
                   "report": report}, fh, indent=1)
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--check-goldens", action="store_true")
    p.add_argument("--record-goldens", action="store_true")
    p.add_argument("--self-check", action="store_true")
    a = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tsync", "cli.py")):
        print(f"no tsync sources under {SRC}", file=sys.stderr)
        return 2
    if a.check_goldens:
        return check_goldens()
    if a.record_goldens:
        return record_goldens()
    if a.self_check:
        return self_check(a.seconds)
    if not a.workload:
        p.error("--workload is required")
    seconds = a.seconds or load_benchmark()["run_seconds"]
    return bench(a.workload, a.seed, seconds, bool(a.trace))


if __name__ == "__main__":
    sys.exit(main())
