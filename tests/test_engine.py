import dataclasses
import gc
import tracemalloc
import weakref
from typing import NamedTuple

import numpy as np
import pytest

from tsync import engine, net, nmea, scenario, servo
from tsync.engine import LOOP_FORMAT
from tsync.pps import PpsJitter
from tsync.scenario import (ConstantTemp, NodeSpec, ReceiverSpec,
                            ScenarioConfig, VisibilitySeg)
from tsync.servo import ServoConfig, ServoMode
from tsync.timebase import OscillatorParams, SimInstant


def small_cfg(mode=ServoMode.NMEA_PLUS_PPS, duration=120, seed=5, osc=None,
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
    return np.array(result[node].loop.offset_ns)


class Row(NamedTuple):
    elapsed_s: float
    offset_ns: int
    freq_correction_ppm: float
    source: str
    holdover: int


def loop_rows(loop) -> list[Row]:
    """The rows written to a loop log's columns, each source as its name."""
    n = len(loop)
    return [Row(t, o, f, engine.SOURCES[s], h) for t, o, f, s, h in zip(
        loop.elapsed_s[:n], loop.offset_ns[:n],
        loop.freq_correction_ppm[:n], loop.source[:n], loop.holdover[:n])]


def bursts(sim) -> list[tuple[int, int, int]]:
    """A node's (arrival_ns, second, nsat) bursts, read from its columns."""
    b = sim.bursts
    return list(zip(b.arrival_ns, b.second, b.nsat))


class TestDiscipline:
    def test_perfect_clock_perfect_receiver_zero_offsets(self):
        recv = ReceiverSpec(pps=PpsJitter(0))
        res = engine.run_scenario(small_cfg(receiver=recv))
        assert not offsets(res).any()

    def test_one_sample_per_second_combined(self):
        res = engine.run_scenario(small_cfg(duration=60))
        rows = loop_rows(res["n0"].loop)
        assert len(rows) == 60
        assert [r.source for r in rows] == ["COMBINED"] * 60
        assert [r.elapsed_s for r in rows] == [float(b) for b in range(1, 61)]

    def test_labeling_always_correct_under_defaults(self):
        res = engine.run_scenario(small_cfg(duration=300))
        assert len(res["n0"].loop) == 300
        assert res["n0"].warnings == []

    def test_large_initial_offset_is_stepped(self):
        res = engine.run_scenario(small_cfg(initial_offset_ns=500_000_000,
                                            duration=30))
        rows = loop_rows(res["n0"].loop)
        assert abs(rows[0].offset_ns - 500_000_000) < 1000
        assert abs(rows[1].offset_ns) < 1000
        # A second's true offset is read after its servo update, so the
        # step shows in the first second's; only the edge's jitter is left.
        assert abs(res["n0"].true.offset_ns[0]) <= 30

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
        (row,) = loop_rows(sim.loop)
        assert (row.elapsed_s, row.offset_ns) == (100.0, offset_ns)
        assert row.source == ("PPS" if mode is ServoMode.PPS_ONLY
                              else "COMBINED")

    def test_run_steers_each_clock_in_place(self):
        cfg = small_cfg(duration=30)
        (sim,) = engine.build_node_sims(cfg)
        clock = sim.clock
        assert engine.run_loop(cfg, [sim]) == {"n0": sim}
        assert sim.clock is clock
        assert clock.last_update_ns > 29 * 10**9

    def test_run_deterministic(self):
        osc = OscillatorParams(f0_ppm=0.1, noise_white_fm=2e-9,
                               noise_flicker_fm=1e-9)
        a = engine.run_scenario(small_cfg(osc=osc))
        b = engine.run_scenario(small_cfg(osc=osc))
        assert np.array_equal(offsets(a), offsets(b))
        assert bursts(a["n0"]) == bursts(b["n0"])
        assert a["n0"].pulses.edge_ns == b["n0"].pulses.edge_ns

    def test_mode_noise_ordering(self):
        # steady-state spread: pulse-disciplined <= combined < sentence-only
        osc = OscillatorParams(f0_ppm=0.05, noise_white_fm=1e-9)
        sigmas = {}
        for mode in ServoMode:
            cfg = small_cfg(mode=mode, duration=900, osc=osc, seed=13)
            tail = offsets(engine.run_scenario(cfg))[300:]
            sigmas[mode] = tail.std(ddof=1)
        assert sigmas[ServoMode.PPS_ONLY] <= sigmas[ServoMode.NMEA_PLUS_PPS]
        assert sigmas[ServoMode.NMEA_PLUS_PPS] < sigmas[ServoMode.NMEA_ONLY]
        assert sigmas[ServoMode.NMEA_ONLY] > 100 * sigmas[ServoMode.NMEA_PLUS_PPS]

    def test_zero_serial_jitter_arrivals_exact(self):
        recv = ReceiverSpec(serial=dataclasses.replace(
            ReceiverSpec().serial, jitter_ms=0.0))
        cfg = small_cfg(duration=30, receiver=recv)
        res = engine.run_scenario(cfg)
        for rx, second, _ in bursts(res["n0"]):
            assert rx == second * 10**9 + 80_000_000

    def test_one_pulse_per_second_while_fix_holds(self):
        cfg = scenario.preset("tunnel_5km")
        res = engine.run_scenario(cfg)
        edges = res["vehicle"].pulses.edge_ns
        assert len(edges) == cfg.duration_s - 315
        seconds = [round(e / 10**9) for e in edges]
        assert len(set(seconds)) == len(seconds)

    def test_default_pulse_jitter_stays_sub_2us(self):
        # receiver-grade pulse jitter: excursions stay far below 2 us
        osc = OscillatorParams(f0_ppm=0.05, noise_white_fm=2e-9)
        cfg = small_cfg(duration=7200, osc=osc, seed=21)
        offs = offsets(engine.run_scenario(cfg))
        assert np.abs(offs).max() <= 2000
        assert abs(offs[600:].mean()) <= 200

    def test_partial_visibility_keeps_discipline(self):
        # NSAT 1..3 still drives the pulse train; only NSAT=0 coasts
        cfg = scenario.preset("mixed_urban")
        res = engine.run_scenario(cfg)
        rows = loop_rows(res["vehicle"].loop)
        assert not any(r.source == "HOLDOVER" for r in rows)
        assert res["vehicle"].warnings == []
        gps_only = dataclasses.replace(
            cfg, nodes=(dataclasses.replace(
                cfg.nodes[0], constellations=frozenset({"GPS"})),))
        res2 = engine.run_scenario(gps_only)
        hold = [r for r in loop_rows(res2["vehicle"].loop)
                if r.source == "HOLDOVER"]
        assert hold, "GPS-only receiver should coast through shadowed spans"

    def test_nmea_mode_measures_serial_spread(self):
        # default receiver: 80 ms transport with +/-10 ms jitter
        cfg = small_cfg(mode=ServoMode.NMEA_ONLY, duration=600)
        offs = offsets(engine.run_scenario(cfg))
        assert np.abs(offs).max() < 15_000_000
        assert offs.std(ddof=1) > 1_000_000


class TestRetainedMemory:
    def test_bytes_held_per_node_second(self):
        # A node's logs are typed columns allocated once. After a 3 600 s
        # run with noise, about 180 B per node-second stay held: the
        # columns, the noise series and two blocks of draws. Logs kept as
        # lists of Python objects held about 480 B.
        osc = OscillatorParams(f0_ppm=0.1, noise_white_fm=2e-9,
                               noise_flicker_fm=1e-9,
                               noise_randomwalk_fm=1e-11)
        engine.run_scenario(small_cfg(osc=osc, duration=60))  # fill caches
        cfg = small_cfg(osc=osc, duration=3600)
        gc.collect()
        tracemalloc.start()
        try:
            res = engine.run_scenario(cfg)
            gc.collect()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(res["n0"].loop) == 3600
        assert held / cfg.duration_s < 330

    def test_nodes_go_with_their_last_reference(self):
        # A node's logs and noise series are freed as soon as nothing
        # refers to the node, after a live run and after a replay, without
        # waiting for the cyclic collector.
        cfg = small_cfg(duration=30)
        gc.disable()
        try:
            res = engine.run_scenario(cfg)
            live = weakref.ref(res["n0"])
            replayed = weakref.ref(engine.NodeSim(
                cfg, cfg.nodes[0], np.random.SeedSequence(0)))
            del res
            assert live() is None and replayed() is None
        finally:
            gc.enable()


class TestBlockDraws:
    def test_hands_out_the_scalar_sequence(self):
        n = 2 * engine.DRAW_BLOCK + 5
        draws = engine.BlockDraws(np.random.default_rng(8))
        ref = np.random.default_rng(8)
        assert [draws.random() for _ in range(n)] == \
            [ref.random() for _ in range(n)]

    def test_draws_are_the_scalar_bits_as_builtin_floats(self):
        n = 10_000  # across two block boundaries
        draws = engine.BlockDraws(np.random.default_rng(21))
        got = [draws.random() for _ in range(n)]
        ref = np.random.default_rng(21)
        assert {type(x) for x in got} == {float}
        assert np.array(got).tobytes() == \
            np.array([ref.random() for _ in range(n)]).tobytes()


class TestNoiseDraws:
    """A live second advances the clock at most once, so a node's noise
    stream holds one draw per second; these runs read every one."""

    NOISY = OscillatorParams(f0_ppm=0.1, noise_white_fm=2e-9,
                             noise_flicker_fm=1e-9)

    @staticmethod
    def draws(cfg):
        """(draws held, draws read) of the one node of `cfg`, run live."""
        (sim,) = engine.build_node_sims(cfg)
        engine.run_loop(cfg, [sim])
        return sim.noise._n, sim.noise._i

    @pytest.mark.parametrize("mode", list(ServoMode), ids=lambda m: m.value)
    def test_live_run_reads_a_draw_per_second(self, mode):
        assert self.draws(small_cfg(mode=mode, osc=self.NOISY)) == (120, 120)

    def test_outage_with_holdover_reads_a_draw_per_second(self):
        cfg = TestOutage.outage_cfg(predict=True)
        node = dataclasses.replace(cfg.nodes[0], oscillator=dataclasses.replace(
            cfg.nodes[0].oscillator, noise_white_fm=2e-9))
        cfg = dataclasses.replace(cfg, nodes=(node,))
        assert self.draws(cfg) == (800, 800)
        (seg,) = engine.run_scenario(cfg)["n0"].holdover_segments
        assert seg.predicted

    def test_replay_of_a_runs_own_logs_holds_a_draw_per_second(
            self, monkeypatch, tmp_path):
        streams = []

        class Recorded(engine.NoiseStream):
            def __init__(self, *args):
                super().__init__(*args)
                streams.append(self)

        cfg = scenario.preset("suburban")
        res = engine.run_scenario(cfg)
        events = TestReplayParity.logged_events(res, cfg, tmp_path,
                                                cfg.nodes[0].name)
        monkeypatch.setattr(engine, "NoiseStream", Recorded)
        engine.run_replay(cfg, cfg.nodes[0], events,
                          res[cfg.nodes[0].name].pulses.edge_ns)
        (stream,) = streams
        assert stream._n == cfg.duration_s


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
        (row,) = loop_rows(sim.loop)
        assert (row.elapsed_s, row.offset_ns, row.source) == (100.0, 0, "NMEA")

    def test_nmea_unmodeled_bias_passes_through(self):
        sim = self.sentence_sim()
        sim.on_sentence(100 * 10**9 + 85_000_000, 100 * 10**9, True, 25.0)
        (row,) = loop_rows(sim.loop)
        assert row.offset_ns == 5_000_000

    def test_fractional_named_time_is_the_reference(self):
        sim = self.sentence_sim()
        named_ns = 100 * 10**9 + 250_000_000
        sim.on_sentence(named_ns + 80_000_000, named_ns, True, 25.0)
        # a second sentence naming the same second takes no sample
        sim.on_sentence(named_ns + 90_000_000, named_ns + 1, True, 25.0)
        (row,) = loop_rows(sim.loop)
        assert (row.elapsed_s, row.offset_ns) == (100.25, 0)

    def test_nmea_invalid_fix_takes_no_sample(self):
        # second 6 sees two satellites: its sentences flag the fix invalid
        cfg = dataclasses.replace(
            small_cfg(mode=ServoMode.NMEA_ONLY, duration=10),
            visibility=(VisibilitySeg(0.0, 5.0, 8, 6),
                        VisibilitySeg(5.0, 6.0, 2, 0),
                        VisibilitySeg(6.0, 10.0, 8, 6)))
        res = engine.run_scenario(cfg)
        assert [r.elapsed_s for r in loop_rows(res["n0"].loop)] == \
            [float(s) for s in range(1, 11) if s != 6]
        assert [(s, n) for _, s, n in bursts(res["n0"])] == \
            [(s, 2 if s == 6 else 14) for s in range(1, 11)]
        assert res["n0"].holdover_segments == []


class TestOutage:
    @staticmethod
    def outage_cfg(predict, duration=800, pre=360, gap=160):
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
        hold = [r for r in loop_rows(res["n0"].loop) if r.source == "HOLDOVER"]
        assert len(hold) == 160
        segs = res["n0"].holdover_segments
        assert len(segs) == 1
        assert segs[0].end_s - segs[0].start_s == pytest.approx(160.0)

    def test_uncorrected_drift_accumulates_linearly(self):
        res = engine.run_scenario(self.outage_cfg(predict=False))
        seg = res["n0"].holdover_segments[0]
        # -0.02 ppm of residual rate over ~158 s of cooled operation
        assert seg.end_offset_ns == pytest.approx(-20.0 * 158, rel=0.08)
        assert not seg.predicted

    def test_prediction_shrinks_residual(self):
        raw = engine.run_scenario(self.outage_cfg(predict=False))
        fixed = engine.run_scenario(self.outage_cfg(predict=True))
        raw_end = abs(raw["n0"].holdover_segments[0].end_offset_ns)
        fixed_end = abs(fixed["n0"].holdover_segments[0].end_offset_ns)
        assert fixed["n0"].holdover_segments[0].predicted
        assert fixed_end <= 0.2 * raw_end

    def test_reacquisition_recovers(self):
        res = engine.run_scenario(self.outage_cfg(predict=False))
        rows = [r for r in loop_rows(res["n0"].loop) if r.source == "COMBINED"]
        assert abs(rows[-1].offset_ns) < 500

    def test_holdover_flag_waits_for_each_segments_fit(self):
        # Two 80 s outages split by 10 s of two-satellite sky, which ends
        # the first outage but gives a sentence-only node no sample.
        cfg = dataclasses.replace(
            small_cfg(mode=ServoMode.NMEA_ONLY, duration=300,
                      osc=OscillatorParams(f0_ppm=0.1)),
            visibility=(VisibilitySeg(0.0, 60.0, 8, 6),
                        VisibilitySeg(60.0, 140.0, 0, 0),
                        VisibilitySeg(140.0, 150.0, 2, 0),
                        VisibilitySeg(150.0, 230.0, 0, 0),
                        VisibilitySeg(230.0, 300.0, 8, 6)))
        res = engine.run_scenario(cfg)
        segs = res["n0"].holdover_segments
        assert [(s.start_s, s.end_s) for s in segs] == [(60.0, 140.0),
                                                        (150.0, 230.0)]
        rows = loop_rows(res["n0"].loop)
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
        (seg,) = res["vehicle"].holdover_segments
        hold = [(r.elapsed_s, r.offset_ns)
                for r in loop_rows(res["vehicle"].loop)
                if r.source == "HOLDOVER"
                and seg.start_s < r.elapsed_s <= seg.end_s]
        assert seg.slope_ns_per_s == servo.enter_holdover(hold[:61])

    def test_holdover_flag_in_rows(self):
        res = engine.run_scenario(self.outage_cfg(predict=True))
        flagged = [r for r in loop_rows(res["n0"].loop) if r.holdover]
        assert flagged, "holdover never became active"
        assert all(r.source == "HOLDOVER" for r in flagged)


def record_calls(monkeypatch, module, name) -> list:
    """Patch `module.name` to record each call's arguments."""
    calls, real = [], getattr(module, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


class TestCallerGuarantees:
    """Run and replay keep the inputs that scenario.temperature_at and
    servo.enter_holdover take unchecked."""

    @staticmethod
    def short_tunnel():
        # tunnel_5km shortened to 100 s of sky, a 120 s outage on a cooler
        # trace temperature and 30 s of sky. Each pulse edge comes after
        # its second, so the last falls past the last second.
        cfg = scenario._tunnel_scenario("tunnel_short", 100, 120, 30,
                                        predict=True)
        node = dataclasses.replace(cfg.nodes[0], receiver=ReceiverSpec(
            pps=PpsJitter(100, 500)))
        return dataclasses.replace(cfg, nodes=(node,))

    def test_temperature_asked_only_inside_the_scenario(self, monkeypatch,
                                                        tmp_path):
        calls = record_calls(monkeypatch, scenario, "temperature_at")
        cfg = self.short_tunnel()
        sim = engine.run_scenario(cfg)["vehicle"]
        assert sim.holdover_segments
        path = tmp_path / "nmea.log"
        b = sim.bursts
        path.write_text("".join(nmea.format_log(
            b.arrival_ns, b.second, b.nsat, sim.spec.constellations)))
        events = nmea.read_log(path, 80.0)
        end_ns = cfg.duration_s * 10**9
        assert sim.pulses.edge_ns[-1] > end_ns and events[-1][0] > end_ns
        run_calls = len(calls)
        engine.run_replay(cfg, sim.spec, events, sim.pulses.edge_ns)
        assert 0 < run_calls < len(calls)
        assert all(0 <= t_s <= cfg.duration_s for _, t_s in calls)
        assert calls[-1][1] == cfg.duration_s

    def test_holdover_fit_gets_a_full_span(self, monkeypatch):
        calls = record_calls(monkeypatch, servo, "enter_holdover")
        engine.run_scenario(self.short_tunnel())
        assert calls
        for (samples,) in calls:
            assert len(samples) >= 2
            assert samples[-1][0] - samples[0][0] >= \
                servo.MIN_HOLDOVER_SPAN_S


class TestReplayParity:
    @staticmethod
    def logged_events(res, cfg, tmp_path, node="n0"):
        """A node's sentence log, written and read back."""
        path = tmp_path / f"nmea_{node}.log"
        b = res[node].bursts
        path.write_text("".join(nmea.format_log(
            b.arrival_ns, b.second, b.nsat, cfg.node(node).constellations)))
        return nmea.read_log(path, 80.0)

    @pytest.mark.parametrize("mode", list(ServoMode), ids=lambda m: m.value)
    def test_combined_replay_reproduces_run(self, mode, tmp_path):
        osc = OscillatorParams(f0_ppm=0.1, noise_white_fm=2e-9,
                               noise_flicker_fm=1e-9)
        cfg = small_cfg(mode=mode, osc=osc, duration=180)
        res = engine.run_scenario(cfg)
        rows, warnings = engine.run_replay(
            cfg, cfg.nodes[0], self.logged_events(res, cfg, tmp_path),
            res["n0"].pulses.edge_ns)
        assert warnings == []
        assert len(rows) == 180
        assert [LOOP_FORMAT % r for r in loop_rows(rows)] == \
            [LOOP_FORMAT % r for r in loop_rows(res["n0"].loop)]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("mode", list(ServoMode), ids=lambda m: m.value)
    def test_replay_with_dropped_sentences_reproduces_run(self, mode, seed,
                                                          tmp_path):
        # A fifth of the sentences lost and 1.55 us of pulse jitter: the
        # live run's edges left pending, the unlabeled-edge warnings and
        # the seconds after them go through the same handlers in replay.
        osc = OscillatorParams(f0_ppm=0.1, noise_white_fm=2e-9,
                               noise_flicker_fm=1e-9)
        recv = ReceiverSpec(pps=PpsJitter(1550),
                            serial=nmea.SerialDeliveryModel(drop_prob=0.2))
        cfg = small_cfg(mode=mode, osc=osc, duration=600, seed=seed,
                        receiver=recv)
        res = engine.run_scenario(cfg)
        rows, warnings = engine.run_replay(
            cfg, cfg.nodes[0], self.logged_events(res, cfg, tmp_path),
            res["n0"].pulses.edge_ns)
        assert len(res["n0"].bursts) < 600
        if mode is ServoMode.NMEA_PLUS_PPS:
            assert res["n0"].warnings
        assert warnings == res["n0"].warnings
        assert [LOOP_FORMAT % r for r in loop_rows(rows)] == \
            [LOOP_FORMAT % r for r in loop_rows(res["n0"].loop)]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_edge_pending_at_the_end_is_warned(self, seed, tmp_path):
        # Half the sentences lost: the last second's burst is lost, so its
        # edge is still pending when the events run out.
        recv = ReceiverSpec(serial=nmea.SerialDeliveryModel(drop_prob=0.5))
        cfg = small_cfg(duration=20, seed=seed, receiver=recv)
        res = engine.run_scenario(cfg)
        live = res["n0"].warnings
        assert live[-1].startswith("unlabeled edge at 19.99")
        rows, warnings = engine.run_replay(
            cfg, cfg.nodes[0], self.logged_events(res, cfg, tmp_path),
            res["n0"].pulses.edge_ns)
        assert warnings == live
        assert [LOOP_FORMAT % r for r in loop_rows(rows)] == \
            [LOOP_FORMAT % r for r in loop_rows(res["n0"].loop)]

    def test_second_node_replays_its_own_run(self, tmp_path):
        # Each node draws from its own seed; replay must pick node n1's.
        osc = OscillatorParams(f0_ppm=0.1, noise_white_fm=2e-9,
                               noise_flicker_fm=1e-9)
        base = small_cfg(osc=osc, duration=180)
        n1 = dataclasses.replace(base.nodes[0], name="n1",
                                 initial_offset_ns=3_000)
        cfg = dataclasses.replace(base, nodes=(base.nodes[0], n1))
        res = engine.run_scenario(cfg)
        live = [LOOP_FORMAT % r for r in loop_rows(res["n1"].loop)]
        assert live != [LOOP_FORMAT % r for r in loop_rows(res["n0"].loop)]
        rows, warnings = engine.run_replay(
            cfg, n1, self.logged_events(res, cfg, tmp_path, "n1"),
            res["n1"].pulses.edge_ns)
        assert warnings == []
        assert [LOOP_FORMAT % r for r in loop_rows(rows)] == live

    def test_missing_pulse_second_coasts_with_warning(self, tmp_path):
        cfg = small_cfg(duration=120)
        res = engine.run_scenario(cfg)
        events = self.logged_events(res, cfg, tmp_path)
        edges = [e for e in res["n0"].pulses.edge_ns
                 if abs(e - 60 * 10**9) > 10**8]  # drop second 60's edge
        rows, warnings = engine.run_replay(cfg, cfg.nodes[0], events, edges)
        assert len(warnings) == 1
        assert "60" in warnings[0]
        assert len(rows) == len(res["n0"].loop) - 1


def gap_cfg(mode=ServoMode.NMEA_PLUS_PPS, drop_prob=0.5, seed=1):
    """40 s with half the sentences lost and no satellite in [20, 30)."""
    recv = ReceiverSpec(serial=nmea.SerialDeliveryModel(drop_prob=drop_prob))
    cfg = small_cfg(mode=mode, duration=40, seed=seed, receiver=recv)
    return dataclasses.replace(cfg, visibility=(
        VisibilitySeg(0.0, 20.0, 8, 6), VisibilitySeg(20.0, 30.0, 0, 0),
        VisibilitySeg(30.0, 40.0, 8, 6)))


class TestEventPath:
    """A live second hands its edge and its burst to the handlers replay
    drives."""

    @pytest.mark.parametrize("mode", list(ServoMode), ids=lambda m: m.value)
    def test_live_run_calls_a_handler_per_event(self, monkeypatch, mode):
        edges = record_calls(monkeypatch, engine.NodeSim, "on_edge")
        sentences = record_calls(monkeypatch, engine.NodeSim, "on_sentence")
        sim = engine.run_scenario(gap_cfg(mode, drop_prob=0.2))["n0"]
        assert len(sim.bursts) > 0
        assert [e for _, e, _ in edges] == list(sim.pulses.edge_ns)
        assert [(a, named // 10**9) for _, a, named, _, _ in sentences] == \
            list(zip(sim.bursts.arrival_ns, sim.bursts.second))

    def test_edge_pending_at_an_outage_start_warns(self):
        # Every edge no burst labels warns once, the edge of second 20,
        # left pending when the outage starts at second 21, too.
        sim = engine.run_scenario(gap_cfg())["n0"]
        labeled = set(sim.bursts.second)
        unlabeled = [e for e in sim.pulses.edge_ns
                     if round(e / 10**9) not in labeled]
        assert 20 not in labeled
        assert sim.warnings == [f"unlabeled edge at {SimInstant.from_ns(e)}"
                                for e in unlabeled]


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
        res = engine.run_scenario(small_cfg(mode=mode, duration=60))
        assert res["n0"].warnings == []
        assert len(res["n0"].loop) == 60
        assert instants == []

    def test_broadcast_builds_no_instant(self, instants):
        cfg = dataclasses.replace(
            scenario.preset("harness_10pps"), duration_s=60,
            visibility=(VisibilitySeg(0.0, 60.0, 8, 6),))
        log, _ = net.run_broadcast(cfg)
        assert len(log) == 600
        assert instants == []

    def test_warning_still_formats_the_edge_time(self, instants):
        recv = ReceiverSpec(pps=PpsJitter(0), label_window_ns=10_000_000)
        res = engine.run_scenario(small_cfg(duration=3, receiver=recv))
        assert res["n0"].warnings == [f"UnlabeledEdge at {k}.000000000s"
                                      for k in (1, 2, 3)]
        assert len(instants) == 3

