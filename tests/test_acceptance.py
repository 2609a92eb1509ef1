"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -s` to see one printed
pass/fail line per criterion.
"""

import dataclasses
import datetime
import filecmp
import math
import time

import numpy as np
import pytest

from click.testing import CliRunner

from tsync import engine, metrics, net, nmea, pps, scenario
from tsync.cli import main as cli_main
from tsync.servo import ServoMode
from tsync.timebase import ClockState, NoiseStream, OscillatorParams

NS = 1_000_000_000


def _report(num: int, desc: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc} ({detail})")
    assert ok, f"criterion {num} failed: {desc} ({detail})"


def _loop_offsets(result, node):
    return np.array(result[node].loop.offset_ns)


@pytest.fixture(scope="module")
def room_run():
    t0 = time.monotonic()
    result = engine.run_scenario(scenario.preset("room_24h"))
    return result, time.monotonic() - t0


@pytest.fixture(scope="module")
def lab_runs():
    cfg = scenario.preset("lab_16c")
    nmea_run = engine.run_scenario(cfg)
    combined = dataclasses.replace(cfg.nodes[0], servo=dataclasses.replace(
        cfg.nodes[0].servo, mode=ServoMode.NMEA_PLUS_PPS))
    combined_run = engine.run_scenario(
        dataclasses.replace(cfg, nodes=(combined,)))
    return nmea_run, combined_run


@pytest.fixture(scope="module")
def tunnel_runs():
    cfg = scenario.preset("tunnel_5km")
    predicted = engine.run_scenario(cfg)
    raw_node = dataclasses.replace(cfg.nodes[0], servo=dataclasses.replace(
        cfg.nodes[0].servo, holdover_predict=False))
    raw = engine.run_scenario(dataclasses.replace(cfg, nodes=(raw_node,)))
    return raw, predicted


@pytest.fixture(scope="module")
def harness_runs():
    out = {}
    for name in ("harness_10pps", "harness_100pps", "harness_300ppm"):
        cfg = scenario.preset(name)
        log, _ = net.run_broadcast(cfg)
        _, out[name], _ = net.pairwise_offsets(log, "c1", "c2")
    return out


def test_criterion_1_combined_mode_24h(room_run):
    result, wall_s = room_run
    offs = _loop_offsets(result, "bench")
    pkpk_us = (offs.max() - offs.min()) / 1000.0
    mean_ns = abs(offs.mean())
    ok = (wall_s < 60.0 and 4.22 * 0.75 <= pkpk_us <= 5.0
          and mean_ns <= 200.0)
    _report(1, "combined discipline over 24 h",
            ok, f"pk-pk {pkpk_us:.2f} us, |mean| {mean_ns:.1f} ns, "
                f"wall {wall_s:.1f} s")


def test_criterion_2_sentence_only_bounds(lab_runs):
    nmea_run, combined_run = lab_runs
    offs = _loop_offsets(nmea_run, "bench")
    sigma = offs.std(ddof=1)
    sigma_combined = _loop_offsets(combined_run, "bench").std(ddof=1)
    ratio = sigma / sigma_combined
    ok = np.abs(offs).max() <= 10_000_000 and ratio >= 100.0
    _report(2, "sentence-only timing within 10 ms and ms-regime spread",
            ok, f"max |offset| {np.abs(offs).max()/1e6:.2f} ms, "
                f"sigma ratio {ratio:.0f}x")


def test_criterion_3_tunnel_holdover(tunnel_runs):
    raw, predicted = tunnel_runs
    raw_end = abs(raw["vehicle"].holdover_segments[0].end_offset_ns)
    fixed_end = abs(predicted["vehicle"].holdover_segments[0].end_offset_ns)
    ok = (5000.0 <= raw_end <= 8000.0 and fixed_end <= 0.2 * raw_end)
    _report(3, "tunnel outage drift and linear-predictor residual",
            ok, f"uncorrected {raw_end/1000:.2f} us, "
                f"residual {fixed_end/1000:.3f} us")


def test_criterion_4_broadcast_box_stats(harness_runs):
    targets = {"harness_10pps": (1000.0, 6000.0, 8000.0),
               "harness_100pps": (1500.0, 5000.0, 6500.0)}
    details = []
    ok = True
    for name, (med_t, iqr_t, max_t) in targets.items():
        box = metrics.boxplot(harness_runs[name])
        max_abs = float(np.abs(harness_runs[name]).max())
        iqr = box.q3 - box.q1
        ok &= 0.5 * med_t <= box.median <= 1.5 * med_t
        ok &= 0.5 * iqr_t <= iqr <= 1.5 * iqr_t
        ok &= 0.5 * max_t <= max_abs <= 1.5 * max_t
        details.append(f"{name.split('_')[1]}: median {box.median/1000:.2f} "
                       f"IQR {iqr/1000:.2f} max {max_abs/1000:.2f} us")
    med_300 = abs(metrics.boxplot(harness_runs["harness_300ppm"]).median)
    ok &= med_300 <= 1000.0
    details.append(f"300ppm: |median| {med_300/1000:.2f} us")
    _report(4, "broadcast harness box statistics", bool(ok),
            "; ".join(details))


def test_criterion_5_asymmetric_link_offsets():
    cfg = scenario.preset("lte_ntp")
    rows = net.run_ntp(cfg)
    est_ms = np.array([r[1] for r in rows]) / 1e6
    mean_abs = float(np.abs(est_ms).mean())
    lo, hi = 4.0 * 0.85, 8.9 * 1.15
    ok = (len(rows) == 1000
          and 6.6 * 0.85 <= mean_abs <= 6.6 * 1.15
          and est_ms.min() >= lo and est_ms.max() <= hi)
    _report(5, "two-way transfer over asymmetric link", ok,
            f"mean |offset| {mean_abs:.2f} ms, "
            f"range [{est_ms.min():.2f}, {est_ms.max():.2f}] ms")


def _adev_reference(phase_ns, tau0_s, m):
    x = [v * 1e-9 for v in phase_ns]
    n = len(x)
    acc = 0.0
    for i in range(n - 2 * m):
        d = x[i + 2 * m] - 2.0 * x[i + m] + x[i]
        acc += d * d
    return math.sqrt(acc / (2.0 * (n - 2 * m) * (m * tau0_s) ** 2))


def test_criterion_6_adev_oracle_equivalence():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(64, 10_001))
        kind = rng.integers(3)
        if kind == 0:
            phase = rng.normal(0, 100.0, n)
        elif kind == 1:
            phase = np.cumsum(rng.normal(0, 10.0, n))
        else:
            phase = rng.normal(0, 50.0, n) + np.arange(n) * rng.uniform(-5, 5)
        tau0 = float(rng.choice([0.1, 0.5, 1.0, 2.0]))
        m = int(rng.integers(1, max(2, n // 3)))
        (point,) = metrics.overlapping_adev(phase, tau0, [m * tau0])
        ref = _adev_reference(phase, tau0, m)
        if ref > 0:
            worst = max(worst, abs(point.adev - ref) / ref)
    ramp = np.arange(9000) * 37  # exact integer ramp
    ramp_points = metrics.overlapping_adev(ramp, 1.0, [1, 8, 64, 512])
    ramp_zero = all(p.adev == 0.0 for p in ramp_points)
    ok = worst <= 1e-12 and ramp_zero
    _report(6, "overlapping stability estimator vs brute force", ok,
            f"worst relative difference {worst:.2e}, ramp zero: {ramp_zero}")


def test_criterion_7_noise_identification():
    # Each process alone, drawn by the NoiseStream a run's clock uses at
    # 1 s steps.
    cases = [(-0.5, "noise_white_fm", 1e-9, "white"),
             (0.0, "noise_flicker_fm", 1e-9, "flicker"),
             (0.5, "noise_randomwalk_fm", 1e-10, "random-walk")]
    details = []
    ok = True
    n = 100_000
    for mu, key, amp, name in cases:
        stream = NoiseStream(OscillatorParams(**{key: amp}),
                             np.random.SeedSequence(777), n)
        phase = np.cumsum([0.0] + [stream.next_phase_ns(NS)
                                   for _ in range(n)])
        points = metrics.overlapping_adev(phase, 1.0, [4, 8, 16, 32, 64])
        slope = metrics.adev_slope(points)
        ok &= abs(slope - mu) <= 0.1
        details.append(f"{name} {slope:+.3f}")
    _report(7, "power-law noise slope identification", bool(ok),
            ", ".join(details))


def test_criterion_8_visibility_availability():
    cfg = scenario.preset("mixed_urban")
    both = scenario.visibility_stats(cfg, {"GPS", "BEIDOU"})
    gps = scenario.visibility_stats(cfg, {"GPS"})
    ok = (abs(both.frac_nsat_ge_4 - 0.496) <= 0.005
          and abs(gps.frac_nsat_ge_1 - 0.82) <= 0.005
          and abs(both.frac_nsat_ge_1 - 1.00) <= 0.005)
    _report(8, "urban-canyon availability fractions", ok,
            f"ge4 {both.frac_nsat_ge_4:.3f}, gps ge1 {gps.frac_nsat_ge_1:.3f}, "
            f"both ge1 {both.frac_nsat_ge_1:.3f}")


def test_criterion_9_property_suites(tmp_path):
    checks = {}

    # sentence round-trip and checksum rejection
    rng = np.random.default_rng(5)
    ok_rt = True
    for _ in range(200):
        tod = int(rng.integers(0, 86_400_000)) * 10**6
        date = datetime.date(2021, 1, 1) + datetime.timedelta(
            days=int(rng.integers(0, 3650)))
        fix = nmea.GnssFix(tod, date, bool(rng.integers(2)),
                           int(rng.integers(1, 33)), "GP")
        line = nmea.generate(fix, nmea.SentenceKind.GGA)
        back = nmea.extract_fix(nmea.parse_sentence(line), last_date=date)
        ok_rt &= back == fix
        idx = int(rng.integers(1, line.index("*")))
        mutated = line[:idx] + chr(ord(line[idx]) ^ 0x08) + line[idx + 1:]
        try:
            nmea.parse_sentence(mutated)
            ok_rt &= False
        except ValueError:
            pass
    checks["nmea"] = ok_rt

    # pulse labelling correctness under default jitter and delivery
    lab = engine.run_scenario(dataclasses.replace(
        scenario.preset("tunnel_5km"), name="label", duration_s=400,
        temperature=scenario.ConstantTemp(25.0),
        visibility=(scenario.VisibilitySeg(0.0, 400.0, 8, 6),)))
    checks["labeling"] = (len(lab["vehicle"].loop) == 400
                          and not lab["vehicle"].warnings)

    # beacon timer monotonicity and one-step convergence
    rngt = np.random.default_rng(6)
    timers = rngt.integers(0, 500, 10)
    ticks = np.rint(1e5 * (1 + rngt.uniform(-1e-4, 1e-4, 10))).astype(int)
    mono = True
    for _ in range(300):
        before = timers + ticks
        airtime = np.rint(rngt.uniform(0, 1.5, 10)).astype(np.int64)
        timers = net.tsf_adopt(before, int(rngt.integers(10)), airtime)
        mono &= bool((timers >= before).all())
    converged = net.tsf_adopt(timers, int(timers.argmax()), 0)
    conv = len(set(converged.tolist())) == 1
    checks["tsf"] = mono and conv

    # two-way transfer identities
    rngn = np.random.default_rng(7)
    sym = net.ntp_exchange(ClockState.from_offset_ns(5555),
                           ClockState.from_offset_ns(-777),
                           net.LinkModel(12.0, 12.0), 3 * NS, rngn)
    asym = net.ntp_exchange(ClockState(), ClockState(),
                            net.LinkModel(20.0, 6.8), 3 * NS, rngn)
    checks["ntp"] = (sym.offset_est_ns == sym.truth_offset_ns
                     and asym.offset_est_ns - asym.truth_offset_ns
                     == round((20.0 - 6.8) / 2 * 1e6))

    # pairwise antisymmetry on a harness run
    cfg = dataclasses.replace(
        scenario.preset("harness_300ppm"), duration_s=120,
        visibility=(scenario.VisibilitySeg(0.0, 120.0, 8, 6),))
    log, _ = net.run_broadcast(cfg)
    _, ab, _ = net.pairwise_offsets(log, "c1", "c2")
    _, ba, _ = net.pairwise_offsets(log, "c2", "c1")
    checks["antisymmetry"] = all(x == -y for x, y in zip(ab, ba))

    # full-pipeline determinism: two seeded runs, byte-identical files
    runner = CliRunner()
    for sub in ("d1", "d2"):
        res = runner.invoke(cli_main, ["run", "--preset", "tunnel_5km",
                                       "--seed", "42",
                                       "--out", str(tmp_path / sub)])
        assert res.exit_code == 0, res.output
    names = ["loop_vehicle.csv", "nmea_vehicle.log", "pps_vehicle.log"]
    same = all(filecmp.cmp(tmp_path / "d1" / n, tmp_path / "d2" / n,
                           shallow=False) for n in names)
    checks["determinism"] = same

    ok = all(checks.values())
    _report(9, "property suites", ok,
            ", ".join(f"{k}={'ok' if v else 'FAIL'}"
                      for k, v in checks.items()))
