import dataclasses

import numpy as np
import pytest

from tsync import engine, net, scenario
from tsync.net import (LinkModel, NoCommonPackets, PacketDropped,
                       ntp_exchange, pairwise_offsets, run_broadcast, run_tsf,
                       tsf_adopt)
from tsync.pps import PpsJitter
from tsync.scenario import (ConstantTemp, NodeSpec, ReceiverSpec,
                            ScenarioConfig, TrafficSpec, TsfParams,
                            VisibilitySeg)
from tsync.servo import ServoConfig, ServoMode
from tsync.timebase import ClockState

NS = 1_000_000_000


def harness_cfg(duration=60.0, recv_a=None, recv_b=None, deltas=None,
                drop=0.0):
    mk = lambda name, rc: NodeSpec(
        name=name, servo=ServoConfig(mode=ServoMode.NMEA_PLUS_PPS),
        receiver=rc or ReceiverSpec(pps=PpsJitter(0)))
    params = {"server": "c3", "clients": ["c1", "c2"], "drop_prob": drop}
    if deltas:
        params["path_delta_ns"] = deltas
    return ScenarioConfig(
        name="bench", duration_s=duration, seed=9,
        temperature=ConstantTemp(25.0),
        visibility=(VisibilitySeg(0.0, duration, 8, 6),),
        nodes=(mk("c1", recv_a), mk("c2", recv_b), mk("c3", None)),
        traffic=(TrafficSpec("broadcast", 10.0, params),),
    )


class TestBroadcast:
    def test_perfectly_synchronized_clients_zero_offsets(self):
        log, _ = run_broadcast(harness_cfg())
        _, offsets, skipped = pairwise_offsets(log, "c1", "c2")
        assert skipped == 0
        assert all(offsets == 0)

    def test_path_delta_shifts_offsets_exactly(self):
        cfg = harness_cfg(deltas={"c1": 2000})
        log, _ = run_broadcast(cfg)
        _, offsets, _ = pairwise_offsets(log, "c1", "c2")
        assert all(offsets == 2000)

    def test_antisymmetry(self):
        cfg = harness_cfg(recv_a=ReceiverSpec(stamp_bias_ns=500,
                                              stamp_latency_ns=3000),
                          recv_b=ReceiverSpec(stamp_latency_ns=3000))
        log, _ = run_broadcast(cfg)
        _, ab, _ = pairwise_offsets(log, "c1", "c2")
        _, ba, _ = pairwise_offsets(log, "c2", "c1")
        assert ab.tolist() == (-ba).tolist()

    def test_drops_are_skipped_and_counted(self):
        log, _ = run_broadcast(harness_cfg(drop=0.2))
        packets, offsets, skipped = pairwise_offsets(log, "c1", "c2")
        assert skipped > 0
        assert len(offsets) == len(packets)
        assert len(offsets) + skipped == len(log)

    def test_no_common_packets(self):
        log, _ = run_broadcast(harness_cfg())
        with pytest.raises(NoCommonPackets):
            pairwise_offsets(log, "c1", "nope")

    def test_arrivals_not_before_send(self):
        log, _ = run_broadcast(harness_cfg(30.0, deltas={"c1": 1500}))
        for name, arrival in log.arrival_ns.items():
            seen = log.seen[name]
            assert seen.any()
            assert all(arrival[seen] >= log.send_ns[seen])

    def test_clock_and_servo_state_hold_builtin_numbers(self):
        cfg = scenario.preset("harness_10pps")
        cfg = dataclasses.replace(
            cfg, duration_s=60.0,
            visibility=(VisibilitySeg(0.0, 60.0, 8, 6),))
        assert any(n.oscillator.noise_white_fm for n in cfg.nodes)
        _, nodes = run_broadcast(cfg)
        for sim in nodes.values():
            assert type(sim.clock.freq_error_ppm) is float
            assert type(sim.servo.freq_correction_ppm) is float
            assert type(sim.clock.phase_fs) is int
            assert type(sim.clock.last_update_ns) is int

    def test_uniform_block_equals_scalar_draws(self):
        block = np.random.default_rng(5).uniform(0, 7000, size=500)
        rng = np.random.default_rng(5)
        assert block.tolist() == [rng.uniform(0, 7000) for _ in range(500)]

    def test_random_block_is_row_major_scalar_draws(self):
        block = np.random.default_rng(5).random((250, 3))
        rng = np.random.default_rng(5)
        assert block.tolist() == [[rng.random() for _ in range(3)]
                                  for _ in range(250)]

    def test_rint_equals_round(self):
        draws = np.random.default_rng(5).uniform(0, 9000, size=2000)
        halves = np.arange(-10, 10) + 0.5
        for x in (draws, halves):
            assert np.rint(x).astype(np.int64).tolist() == [
                round(v) for v in x.tolist()]


def tsf_cfg(duration, rate_hz, **params):
    return ScenarioConfig(
        name="beacons", duration_s=duration, seed=2,
        visibility=(VisibilitySeg(0.0, duration, 8, 6),),
        traffic=(TrafficSpec("tsf", rate_hz, params),))


class TestTsf:
    def test_equal_timers_unchanged_without_jitter(self):
        after = tsf_adopt(np.full(5, 1000, dtype=np.int64), 2, 0)
        assert after.tolist() == [1000] * 5

    def test_fastest_winner_converges_all_in_one_step(self):
        timers = np.array([100, 250, 900, 400], dtype=np.int64)
        assert tsf_adopt(timers, 2, 0).tolist() == [900] * 4

    def test_monotonicity_over_random_sequence(self):
        rng = np.random.default_rng(4)
        timers = rng.integers(0, 1000, 8)
        ticks = np.rint(1e5 * (1 + rng.uniform(-1e-4, 1e-4, 8))).astype(int)
        for _ in range(200):
            before = timers + ticks
            airtime = np.rint(rng.uniform(0, 2.0, 8)).astype(np.int64)
            timers = tsf_adopt(before, int(rng.integers(8)), airtime)
            assert (timers >= before).all()

    def test_winner_index_validated(self):
        with pytest.raises(IndexError):
            tsf_adopt(np.zeros(1, dtype=np.int64), 3, 0)

    def test_rate_error_bounded(self):
        with pytest.raises(ValueError, match="spread_ppm must be in"):
            TsfParams(spread_ppm=150.0)

    def test_20_node_drift_order_of_magnitude(self):
        # average max spread comparable to the reported ~1e2 us scale
        rows = run_tsf(tsf_cfg(300.0, 1 / 0.1024, n_nodes=20,
                               spread_ppm=100.0, airtime_jitter_us=2.0))
        assert len(rows) == 2930
        mean_spread = np.mean([s for _, s in rows[100:]])
        assert 12.45 <= mean_spread <= 1245.0

    def test_timer_rate_follows_frequency_error(self):
        # One 10 s interval: each timer counts 10 s at its rate error,
        # drawn first from the traffic seed, before any beacon.
        cfg = tsf_cfg(10.0, 0.1, n_nodes=2, spread_ppm=100.0)
        rates = np.random.default_rng(engine.seed_sequences(cfg)[1]).uniform(
            -100.0, 100.0, 2)
        counts = [int(10.0 * 1_000_000 * (1.0 + r * 1e-6)) for r in rates]
        assert 10_000_000 - 1000 <= min(counts) <= max(counts) <= 10_001_000
        assert run_tsf(cfg) == [(10.0, float(max(counts) - min(counts)))]


class TestNtpExchange:
    def test_symmetric_link_exact_offset_any_clocks(self):
        rng = np.random.default_rng(0)
        link = LinkModel(delay_up_ms=15.0, delay_down_ms=15.0)
        client = ClockState.from_offset_ns(123_456)
        server = ClockState.from_offset_ns(-654_321)
        res = ntp_exchange(client, server, link, 10 * NS, rng)
        assert res.offset_est_ns == res.truth_offset_ns
        assert res.delay_est_ns == 30_000_000

    def test_asymmetry_bias_identity(self):
        rng = np.random.default_rng(0)
        link = LinkModel(delay_up_ms=20.0, delay_down_ms=6.8)
        res = ntp_exchange(ClockState(), ClockState(), link, 5 * NS, rng)
        assert res.truth_offset_ns == 0
        assert res.offset_est_ns - res.truth_offset_ns == pytest.approx(
            (20.0 - 6.8) / 2 * 1e6, abs=1)

    def test_drop_raises(self):
        rng = np.random.default_rng(1)
        link = LinkModel(drop_prob=0.9)
        with pytest.raises(PacketDropped):
            for _ in range(50):
                ntp_exchange(ClockState(), ClockState(), link, NS, rng)

    def test_lte_preset_statistics(self):
        cfg = scenario.preset("lte_ntp")
        rows = net.run_ntp(cfg)
        est_ms = np.array([r[1] for r in rows]) / 1e6
        assert len(rows) == 1000
        assert np.abs(est_ms).mean() == pytest.approx(6.6, rel=0.15)
        assert est_ms.min() >= 4.0 * 0.85
        assert est_ms.max() <= 8.9 * 1.15
