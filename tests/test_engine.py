import dataclasses

import numpy as np
import pytest

from tsync import engine, net, nmea, scenario, servo
from tsync.pps import PpsJitter
from tsync.scenario import (ConstantTemp, NodeSpec, ReceiverSpec,
                            ScenarioConfig, VisibilitySeg)
from tsync.servo import ServoConfig, ServoMode
from tsync.timebase import OscillatorParams, SimInstant


def small_cfg(mode=ServoMode.NMEA_PLUS_PPS, duration=120.0, seed=5, osc=None,
              receiver=None, initial_offset_ns=0, predict=True):
    node = NodeSpec(
        name="n0",
        oscillator=osc or OscillatorParams(),
        servo=ServoConfig(mode=mode, holdover_predict=predict),
        receiver=receiver or ReceiverSpec(),
        initial_offset_ns=initial_offset_ns,
    )
    return ScenarioConfig(
        name="small", duration_s=duration, seed=seed,
        temperature=ConstantTemp(25.0),
        visibility=(VisibilitySeg(0.0, duration, 8, 6),),
        nodes=(node,),
    )


def offsets(result, node="n0"):
    return np.array([r.offset_ns for r in result.loop_rows[node]])


class TestDiscipline:
    def test_perfect_clock_perfect_receiver_zero_offsets(self):
        recv = ReceiverSpec(pps=PpsJitter(0))
        res = engine.run_scenario(small_cfg(receiver=recv))
        assert not offsets(res).any()

    def test_one_sample_per_second_combined(self):
        res = engine.run_scenario(small_cfg(duration=60.0))
        rows = res.loop_rows["n0"]
        assert len(rows) == 60
        assert [r.source for r in rows] == ["COMBINED"] * 60
        assert [r.elapsed_s for r in rows] == [float(b) for b in range(1, 61)]

    def test_labeling_always_correct_under_defaults(self):
        res = engine.run_scenario(small_cfg(duration=300.0))
        assert len(res.loop_rows["n0"]) == 300
        assert res.warnings["n0"] == []

    def test_large_initial_offset_is_stepped(self):
        res = engine.run_scenario(small_cfg(initial_offset_ns=500_000_000,
                                            duration=30.0))
        rows = res.loop_rows["n0"]
        assert abs(rows[0].offset_ns - 500_000_000) < 1000
        assert abs(rows[1].offset_ns) < 1000

    @pytest.mark.parametrize("mode", [ServoMode.PPS_ONLY,
                                      ServoMode.NMEA_PLUS_PPS],
                             ids=lambda m: m.value)
    @pytest.mark.parametrize("offset_ns", [0, 42])
    def test_pulse_offset_is_capture_minus_second(self, mode, offset_ns):
        # Perfect oscillator, zero pulse jitter: the clock captures the
        # edge of second 100 exactly `offset_ns` late.
        cfg = small_cfg(mode=mode, receiver=ReceiverSpec(pps=PpsJitter(0)),
                        initial_offset_ns=offset_ns)
        sim = engine.NodeSim(cfg, cfg.nodes[0], np.random.SeedSequence(0))
        sim.on_edge(100 * 10**9, 25.0)
        sim.on_sentence(100 * 10**9 + 80_000_000, 100 * 10**9, True, 25.0)
        (row,) = sim.loop_rows
        assert (row.elapsed_s, row.offset_ns) == (100.0, offset_ns)
        assert row.source == ("PPS" if mode is ServoMode.PPS_ONLY
                              else "COMBINED")

    def test_run_deterministic(self):
        osc = OscillatorParams(f0_ppm=0.1, noise_white_fm=2e-9,
                               noise_flicker_fm=1e-9)
        a = engine.run_scenario(small_cfg(osc=osc))
        b = engine.run_scenario(small_cfg(osc=osc))
        assert np.array_equal(offsets(a), offsets(b))
        assert a.nmea_logs["n0"] == b.nmea_logs["n0"]
        assert a.pps_logs["n0"] == b.pps_logs["n0"]

    def test_mode_noise_ordering(self):
        # steady-state spread: pulse-disciplined <= combined < sentence-only
        osc = OscillatorParams(f0_ppm=0.05, noise_white_fm=1e-9)
        sigmas = {}
        for mode in ServoMode:
            cfg = small_cfg(mode=mode, duration=900.0, osc=osc, seed=13)
            tail = offsets(engine.run_scenario(cfg))[300:]
            sigmas[mode] = tail.std(ddof=1)
        assert sigmas[ServoMode.PPS_ONLY] <= sigmas[ServoMode.NMEA_PLUS_PPS]
        assert sigmas[ServoMode.NMEA_PLUS_PPS] < sigmas[ServoMode.NMEA_ONLY]
        assert sigmas[ServoMode.NMEA_ONLY] > 100 * sigmas[ServoMode.NMEA_PLUS_PPS]

    def test_zero_serial_jitter_arrivals_exact(self):
        recv = ReceiverSpec(serial=dataclasses.replace(
            ReceiverSpec().serial, jitter_ms=0.0))
        cfg = small_cfg(duration=30.0, receiver=recv)
        res = engine.run_scenario(cfg)
        for rx, second, _ in res.nmea_logs["n0"]:
            assert rx == second * 10**9 + 80_000_000

    def test_one_pulse_per_second_while_fix_holds(self):
        cfg = scenario.preset("tunnel_5km")
        res = engine.run_scenario(cfg)
        edges = res.pps_logs["vehicle"]
        assert len(edges) == int(cfg.duration_s) - 315
        seconds = [round(e / 10**9) for e in edges]
        assert len(set(seconds)) == len(seconds)

    def test_default_pulse_jitter_stays_sub_2us(self):
        # receiver-grade pulse jitter: excursions stay far below 2 us
        osc = OscillatorParams(f0_ppm=0.05, noise_white_fm=2e-9)
        cfg = small_cfg(duration=7200.0, osc=osc, seed=21)
        offs = offsets(engine.run_scenario(cfg))
        assert np.abs(offs).max() <= 2000
        assert abs(offs[600:].mean()) <= 200

    def test_partial_visibility_keeps_discipline(self):
        # NSAT 1..3 still drives the pulse train; only NSAT=0 coasts
        cfg = scenario.preset("mixed_urban")
        res = engine.run_scenario(cfg)
        rows = res.loop_rows["vehicle"]
        assert not any(r.source == "HOLDOVER" for r in rows)
        assert res.warnings["vehicle"] == []
        gps_only = dataclasses.replace(
            cfg, nodes=(dataclasses.replace(
                cfg.nodes[0], constellations=frozenset({"GPS"})),))
        res2 = engine.run_scenario(gps_only)
        hold = [r for r in res2.loop_rows["vehicle"] if r.source == "HOLDOVER"]
        assert hold, "GPS-only receiver should coast through shadowed spans"

    def test_nmea_mode_measures_serial_spread(self):
        # default receiver: 80 ms transport with +/-10 ms jitter
        cfg = small_cfg(mode=ServoMode.NMEA_ONLY, duration=600.0)
        offs = offsets(engine.run_scenario(cfg))
        assert np.abs(offs).max() < 15_000_000
        assert offs.std(ddof=1) > 1_000_000


class TestBlockDraws:
    def test_hands_out_the_scalar_sequence(self):
        n = 2 * engine.DRAW_BLOCK + 5
        draws = engine.BlockDraws(np.random.default_rng(8))
        ref = np.random.default_rng(8)
        assert [draws.random() for _ in range(n)] == \
            [ref.random() for _ in range(n)]


class TestSentenceSample:
    """A sentence-only node measures the clock at a sentence's arrival,
    less the estimated path delay, against the time the sentence names."""

    @staticmethod
    def sentence_sim():
        cfg = small_cfg(mode=ServoMode.NMEA_ONLY)
        return engine.NodeSim(cfg, cfg.nodes[0], np.random.SeedSequence(0))

    def test_nmea_perfect_clock_exact_delay_estimate(self):
        sim = self.sentence_sim()
        sim.on_sentence(100 * 10**9 + 80_000_000, 100 * 10**9, True, 25.0)
        (row,) = sim.loop_rows
        assert (row.elapsed_s, row.offset_ns, row.source) == (100.0, 0, "NMEA")

    def test_nmea_unmodeled_bias_passes_through(self):
        sim = self.sentence_sim()
        sim.on_sentence(100 * 10**9 + 85_000_000, 100 * 10**9, True, 25.0)
        (row,) = sim.loop_rows
        assert row.offset_ns == 5_000_000

    def test_fractional_named_time_is_the_reference(self):
        sim = self.sentence_sim()
        named_ns = 100 * 10**9 + 250_000_000
        sim.on_sentence(named_ns + 80_000_000, named_ns, True, 25.0)
        # a second sentence naming the same second takes no sample
        sim.on_sentence(named_ns + 90_000_000, named_ns + 1, True, 25.0)
        (row,) = sim.loop_rows
        assert (row.elapsed_s, row.offset_ns) == (100.25, 0)

    def test_nmea_invalid_fix_takes_no_sample(self):
        # second 6 sees two satellites: its sentences flag the fix invalid
        cfg = dataclasses.replace(
            small_cfg(mode=ServoMode.NMEA_ONLY, duration=10.0),
            visibility=(VisibilitySeg(0.0, 5.0, 8, 6),
                        VisibilitySeg(5.0, 6.0, 2, 0),
                        VisibilitySeg(6.0, 10.0, 8, 6)))
        res = engine.run_scenario(cfg)
        assert [r.elapsed_s for r in res.loop_rows["n0"]] == \
            [float(s) for s in range(1, 11) if s != 6]
        assert [(s, n) for _, s, n in res.nmea_logs["n0"]] == \
            [(s, 2 if s == 6 else 14) for s in range(1, 11)]
        assert res.holdover_segments["n0"] == []


class TestOutage:
    @staticmethod
    def outage_cfg(predict, duration=800.0, pre=360.0, gap=160.0):
        node = NodeSpec(
            name="n0",
            oscillator=OscillatorParams(f0_ppm=0.2),
            servo=ServoConfig(mode=ServoMode.NMEA_PLUS_PPS,
                              holdover_predict=predict),
            # constant residual rate during the gap
            initial_offset_ns=0,
        )
        node = dataclasses.replace(node, oscillator=OscillatorParams(
            f0_ppm=0.1, temp_coeff_ppm_per_c=0.01, ref_temp_c=25.0))
        temp = scenario.TraceTemp(((0.0, 25.0), (pre, 25.0), (pre + 2, 23.0),
                                   (pre + gap, 23.0), (pre + gap + 2, 25.0),
                                   (duration, 25.0)))
        return ScenarioConfig(
            name="outage", duration_s=duration, seed=3,
            temperature=temp,
            visibility=(VisibilitySeg(0, pre, 8, 6),
                        VisibilitySeg(pre, pre + gap, 0, 0),
                        VisibilitySeg(pre + gap, duration, 8, 6)),
            nodes=(node,),
        )

    def test_holdover_rows_cover_gap(self):
        res = engine.run_scenario(self.outage_cfg(predict=False))
        hold = [r for r in res.loop_rows["n0"] if r.source == "HOLDOVER"]
        assert len(hold) == 160
        segs = res.holdover_segments["n0"]
        assert len(segs) == 1
        assert segs[0].end_s - segs[0].start_s == pytest.approx(160.0)

    def test_uncorrected_drift_accumulates_linearly(self):
        res = engine.run_scenario(self.outage_cfg(predict=False))
        seg = res.holdover_segments["n0"][0]
        # -0.02 ppm of residual rate over ~158 s of cooled operation
        assert seg.end_offset_ns == pytest.approx(-20.0 * 158, rel=0.08)
        assert not seg.predicted

    def test_prediction_shrinks_residual(self):
        raw = engine.run_scenario(self.outage_cfg(predict=False))
        fixed = engine.run_scenario(self.outage_cfg(predict=True))
        raw_end = abs(raw.holdover_segments["n0"][0].end_offset_ns)
        fixed_end = abs(fixed.holdover_segments["n0"][0].end_offset_ns)
        assert fixed.holdover_segments["n0"][0].predicted
        assert fixed_end <= 0.2 * raw_end

    def test_reacquisition_recovers(self):
        res = engine.run_scenario(self.outage_cfg(predict=False))
        rows = [r for r in res.loop_rows["n0"] if r.source == "COMBINED"]
        assert abs(rows[-1].offset_ns) < 500

    def test_holdover_flag_waits_for_each_segments_fit(self):
        # Two 80 s outages split by 10 s of two-satellite sky, which ends
        # the first outage but gives a sentence-only node no sample.
        cfg = dataclasses.replace(
            small_cfg(mode=ServoMode.NMEA_ONLY, duration=300.0,
                      osc=OscillatorParams(f0_ppm=0.1)),
            visibility=(VisibilitySeg(0.0, 60.0, 8, 6),
                        VisibilitySeg(60.0, 140.0, 0, 0),
                        VisibilitySeg(140.0, 150.0, 2, 0),
                        VisibilitySeg(150.0, 230.0, 0, 0),
                        VisibilitySeg(230.0, 300.0, 8, 6)))
        res = engine.run_scenario(cfg)
        segs = res.holdover_segments["n0"]
        assert [(s.start_s, s.end_s) for s in segs] == [(60.0, 140.0),
                                                        (150.0, 230.0)]
        rows = res.loop_rows["n0"]
        for seg in segs:
            # the slope is fitted once the observations span the minimum
            fit_s = seg.start_s + 1 + servo.MIN_HOLDOVER_SPAN_S
            flagged = [r.elapsed_s for r in rows
                       if r.holdover and seg.start_s < r.elapsed_s <= seg.end_s]
            assert flagged == [float(t) for t in
                               range(int(fit_s) + 1, int(seg.end_s) + 1)]
        assert all(r.source == "HOLDOVER" for r in rows if r.holdover)

    def test_slope_fits_only_the_outages_own_samples(self):
        # The fit comes once the monitored offsets span 60 s: at the 61st
        # HOLDOVER row, and from those rows alone.
        cfg = scenario.preset("tunnel_5km")
        res = engine.run_scenario(cfg)
        (seg,) = res.holdover_segments["vehicle"]
        hold = [(r.elapsed_s, r.offset_ns) for r in res.loop_rows["vehicle"]
                if r.source == "HOLDOVER"
                and seg.start_s < r.elapsed_s <= seg.end_s]
        assert seg.slope_ns_per_s == servo.enter_holdover(hold[:61])

    def test_holdover_flag_in_rows(self):
        res = engine.run_scenario(self.outage_cfg(predict=True))
        flagged = [r for r in res.loop_rows["n0"] if r.holdover]
        assert flagged, "holdover never became active"
        assert all(r.source == "HOLDOVER" for r in flagged)


class TestReplayParity:
    @staticmethod
    def logged_events(res, cfg, tmp_path, node="n0"):
        """A node's sentence log, written and read back."""
        path = tmp_path / f"nmea_{node}.log"
        path.write_text(nmea.format_log(res.nmea_logs[node],
                                        cfg.node(node).constellations))
        return nmea.read_log(path, 80.0)

    @pytest.mark.parametrize("mode", list(ServoMode), ids=lambda m: m.value)
    def test_combined_replay_reproduces_run(self, mode, tmp_path):
        osc = OscillatorParams(f0_ppm=0.1, noise_white_fm=2e-9,
                               noise_flicker_fm=1e-9)
        cfg = small_cfg(mode=mode, osc=osc, duration=180.0)
        res = engine.run_scenario(cfg)
        rows, warnings = engine.run_replay(
            cfg, cfg.nodes[0], self.logged_events(res, cfg, tmp_path),
            res.pps_logs["n0"])
        assert warnings == []
        assert len(rows) == 180
        assert [r.csv() for r in rows] == [r.csv() for r in res.loop_rows["n0"]]

    def test_second_node_replays_its_own_run(self, tmp_path):
        # Each node draws from its own seed; replay must pick node n1's.
        osc = OscillatorParams(f0_ppm=0.1, noise_white_fm=2e-9,
                               noise_flicker_fm=1e-9)
        base = small_cfg(osc=osc, duration=180.0)
        n1 = dataclasses.replace(base.nodes[0], name="n1",
                                 initial_offset_ns=3_000)
        cfg = dataclasses.replace(base, nodes=(base.nodes[0], n1))
        res = engine.run_scenario(cfg)
        live = [r.csv() for r in res.loop_rows["n1"]]
        assert live != [r.csv() for r in res.loop_rows["n0"]]
        rows, warnings = engine.run_replay(
            cfg, n1, self.logged_events(res, cfg, tmp_path, "n1"),
            res.pps_logs["n1"])
        assert warnings == []
        assert [r.csv() for r in rows] == live

    def test_missing_pulse_second_coasts_with_warning(self, tmp_path):
        cfg = small_cfg(duration=120.0)
        res = engine.run_scenario(cfg)
        events = self.logged_events(res, cfg, tmp_path)
        edges = [e for e in res.pps_logs["n0"]
                 if abs(e - 60 * 10**9) > 10**8]  # drop second 60's edge
        rows, warnings = engine.run_replay(cfg, cfg.nodes[0], events, edges)
        assert len(warnings) == 1
        assert "60" in warnings[0]
        assert len(rows) == len(res.loop_rows["n0"]) - 1


class TestIntegerTime:
    """Clock reads, edges and packet stamps stay plain integer ns; a
    `SimInstant` is built only to format a warning or an error."""

    @pytest.fixture()
    def instants(self, monkeypatch):
        built = []
        post_init = SimInstant.__post_init__

        def counted(inst):
            built.append(inst)
            post_init(inst)

        monkeypatch.setattr(SimInstant, "__post_init__", counted)
        return built

    @pytest.mark.parametrize("mode", list(ServoMode), ids=lambda m: m.value)
    def test_run_builds_no_instant(self, instants, mode):
        res = engine.run_scenario(small_cfg(mode=mode, duration=60.0))
        assert res.warnings["n0"] == []
        assert len(res.loop_rows["n0"]) == 60
        assert instants == []

    def test_broadcast_builds_no_instant(self, instants):
        cfg = dataclasses.replace(
            scenario.preset("harness_10pps"), duration_s=60.0,
            visibility=(VisibilitySeg(0.0, 60.0, 8, 6),))
        log, _ = net.run_broadcast(cfg)
        assert len(log) == 600
        assert instants == []

    def test_warning_still_formats_the_edge_time(self, instants):
        recv = ReceiverSpec(pps=PpsJitter(0), label_window_ns=10_000_000)
        res = engine.run_scenario(small_cfg(duration=3.0, receiver=recv))
        assert res.warnings["n0"] == [f"UnlabeledEdge at {k}.000000000s"
                                      for k in (1, 2, 3)]
        assert len(instants) == 3

