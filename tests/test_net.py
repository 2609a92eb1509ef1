import dataclasses
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest

from tsync import engine, net, scenario
from tsync.net import (LinkModel, PacketDropped, ntp_exchange,
                       pairwise_offsets, run_broadcast, run_tsf, tsf_adopt)
from tsync.pps import PpsJitter
from tsync.scenario import (ConstantTemp, NodeSpec, ReceiverSpec,
                            ScenarioConfig, TrafficSpec, TsfParams,
                            VisibilitySeg)
from tsync.servo import ServoConfig, ServoMode
from tsync.timebase import ClockState

NS = 1_000_000_000


def harness_cfg(duration=60, recv_a=None, recv_b=None, deltas=None,
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


def per_second_broadcast(cfg):
    """`run_broadcast` as it once drew and stamped, second by second: each
    second's drop decisions as one block, each client's latencies as one
    block over that second's kept packets, and the stamps in lists."""
    traffic = cfg.traffic[0]
    params = scenario.traffic_params(cfg, traffic)
    sims = engine.build_node_sims(cfg)
    by_name = {s.spec.name: s for s in sims}
    server = by_name[params.server]
    clients = [by_name[name] for name in params.clients]
    drop_rng = np.random.default_rng(engine.seed_sequences(cfg)[1])
    n_packets = int(round(traffic.rate_hz * cfg.duration_s))
    send_col = np.rint(np.arange(1, n_packets + 1, dtype=np.int64) * NS
                       / traffic.rate_hz).astype(np.int64)
    send_col = send_col[send_col <= cfg.duration_s * NS]
    send_ns = send_col.tolist()
    arrival = [send_col + params.path_delta_ns.get(sim.spec.name, 0)
               for sim in clients]
    seen = [np.zeros(len(send_ns), dtype=bool) for _ in clients]
    send_stamps, stamps = [], [[] for _ in clients]
    next_pkt = 0

    def stamp_packets(boundary):
        nonlocal next_pkt
        first = next_pkt
        next_pkt = bisect_right(send_ns, boundary * NS, first)
        send_stamps.extend(map(server.read_disciplined,
                               send_ns[first:next_pkt]))
        shape = (next_pkt - first, len(clients))
        if params.drop_prob:
            kept = drop_rng.random(shape) >= params.drop_prob
        else:
            kept = np.ones(shape, dtype=bool)
        for j, sim in enumerate(clients):
            rc = sim.spec.receiver
            idx = first + np.flatnonzero(kept[:, j])
            seen[j][idx] = True
            t = arrival[j][idx] + rc.stamp_bias_ns
            if rc.stamp_latency_ns:
                t += np.rint(sim.rng_stamp.uniform(
                    0, rc.stamp_latency_ns, idx.size)).astype(np.int64)
            stamps[j].extend(map(sim.read_disciplined, t.tolist()))

    engine.run_loop(cfg, sims, stamp_packets)
    log = net.BroadcastLog(send_col, np.array(send_stamps, dtype=np.int64),
                           {}, {})
    for j, sim in enumerate(clients):
        name = sim.spec.name
        log.seen[name] = seen[j]
        log.stamp_ns[name] = np.zeros(len(send_ns), dtype=np.int64)
        log.stamp_ns[name][seen[j]] = stamps[j]
    return log


def varied_cfg(drop, clients=("c1", "c2"), outage=False):
    """160 s of a 10 Hz broadcast from c3 between noisy clocks: c1 stamps
    with no latency and 1.5 us of extra path, c2 with 7 us of latency and
    0.7 us less path, c4 with 3 us. With `outage`, c2 tracks BeiDou alone
    and loses it for 30 s from t = 90 s, after the servo's holdover span."""
    duration = 160
    osc = scenario.preset("harness_10pps").nodes[0].oscillator
    mk = lambda name, latency, constellations=scenario.CONSTELLATIONS: \
        NodeSpec(name=name, oscillator=osc,
                 constellations=frozenset(constellations),
                 receiver=ReceiverSpec(stamp_bias_ns=300,
                                       stamp_latency_ns=latency))
    nodes = (mk("c1", 0), mk("c2", 7000, ["BEIDOU"] if outage else
                             scenario.CONSTELLATIONS),
             mk("c3", 0), mk("c4", 3000))
    sky = (VisibilitySeg(0.0, 90.0, 8, 6), VisibilitySeg(90.0, 120.0, 8, 0),
           VisibilitySeg(120.0, duration, 8, 6))
    params = {"server": "c3", "clients": list(clients), "drop_prob": drop,
              "path_delta_ns": {"c1": 1500, "c2": -700}}
    return ScenarioConfig(
        name="varied", duration_s=duration, seed=4,
        temperature=ConstantTemp(25.0), visibility=sky, nodes=nodes,
        traffic=(TrafficSpec("broadcast", 10.0, params),))


class TestBroadcast:
    @pytest.mark.parametrize("cfg", [
        varied_cfg(0.0), varied_cfg(0.3),
        varied_cfg(0.3, clients=("c1", "c2", "c4")),
        varied_cfg(0.3, outage=True)],
        ids=["no-drops", "drops", "three-clients", "outage"])
    def test_whole_run_draws_equal_per_second_draws(self, cfg):
        want = per_second_broadcast(cfg)
        got, nodes = run_broadcast(cfg)
        for field in dataclasses.fields(net.BroadcastLog):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if isinstance(b, dict):
                assert list(a) == list(b)
                a, b = list(a.values()), list(b.values())
            else:
                a, b = [a], [b]
            for x, y in zip(a, b, strict=True):
                assert x.dtype == y.dtype
                assert x.tolist() == y.tolist()
        lost = sum(int((~seen).sum()) for seen in got.seen.values())
        assert bool(lost) == bool(cfg.traffic[0].params["drop_prob"])
        if cfg.nodes[1].constellations == {"BEIDOU"}:
            assert nodes["c2"].holdover_segments

    @pytest.mark.parametrize("rate_hz, packets", [
        (0.05, 1), (0.1, 2), (0.04, 0), (1e-320, 0)])
    def test_a_broadcast_must_send_a_packet(self, rate_hz, packets):
        """At 20 s, 0.04 Hz rounds to one packet, due at 25 s: none is sent."""
        make = lambda: ScenarioConfig(
            name="sparse", duration_s=20,
            visibility=(VisibilitySeg(0.0, 20.0, 8, 6),),
            nodes=tuple(NodeSpec(name=n) for n in ("c1", "c2", "c3")),
            traffic=(TrafficSpec("broadcast", rate_hz),))
        if packets:
            assert len(run_broadcast(make())[0]) == packets
        else:
            with pytest.raises(ValueError, match=r"^traffic\[0\]: a "
                               r"broadcast at .* Hz sends no packet in 20 s$"):
                make()

    def test_memory_per_packet(self):
        """The packets live in int64 columns: per-packet lists of Python
        ints peaked at 382 B a packet here."""
        cfg = scenario.preset("harness_100pps")
        cfg = dataclasses.replace(
            cfg, duration_s=120,
            visibility=(VisibilitySeg(0.0, 120.0, 8, 6),))
        tracemalloc.start()
        try:
            log, _ = run_broadcast(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(log) == 12_000
        assert peak / len(log) < 300

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
        with pytest.raises(ValueError,
                           match="^no packets seen by both c1 and nope$"):
            pairwise_offsets(log, "c1", "nope")

    def test_clock_and_servo_state_hold_builtin_numbers(self):
        cfg = scenario.preset("harness_10pps")
        cfg = dataclasses.replace(
            cfg, duration_s=60,
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
        rows = run_tsf(tsf_cfg(300, 1 / 0.1024, n_nodes=20,
                               spread_ppm=100.0, airtime_jitter_us=2.0))
        assert len(rows) == 2930
        mean_spread = np.mean([s for _, s in rows[100:]])
        assert 12.45 <= mean_spread <= 1245.0

    def test_timer_rate_follows_frequency_error(self):
        # One 10 s interval: each timer counts 10 s at its rate error,
        # drawn first from the traffic seed, before any beacon.
        cfg = tsf_cfg(10, 0.1, n_nodes=2, spread_ppm=100.0)
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
