"""Multi-node experiments: broadcast offset harness, beacon-timer
synchronization and two-way time transfer over an asymmetric link.

The broadcast harness replays the bench setup of one server flooding UDP
packets at two receiver-disciplined clients whose capture stamps are
compared pairwise. The beacon timer models the adopt-the-fastest
1-microsecond counter of 802.11 ad-hoc networks. The two-way exchange
implements the classic four-timestamp offset/delay estimator.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import engine
from .scenario import (LinkModel, PacketDropped, ScenarioConfig, TrafficSpec,
                       traffic_params)
from .servo import OffsetSample, SampleSource
from .timebase import ClockState, NS_PER_S, read_clock

US_PER_S = 1_000_000


class NoCommonPackets(ValueError):
    pass


@dataclass
class PacketRecord:
    """One broadcast packet and its per-client capture stamps."""

    packet_id: int
    send_true_ns: int
    send_stamp_ns: int
    arrivals: dict = field(default_factory=dict)


def run_broadcast(cfg: ScenarioConfig, rate_hz: float, duration_s: float,
                  traffic: TrafficSpec | None = None):
    """Flood packets from the server node to all clients.

    Every client sees each packet at the same true instant (plus its
    configured per-client path delta); the recorded stamp is the client's
    disciplined clock read at capture time, which adds the node's stamp
    bias and latency spread. The packets of each second are stamped ahead
    of that second's node steps. Returns (records, result) where the
    result carries the clients' discipline logs.
    """
    if traffic is None:
        traffic = next(t for t in cfg.traffic if t.kind == "broadcast")
    params = traffic_params(cfg, traffic)

    sims, root = engine.build_node_sims(cfg)
    by_name = {s.spec.name: s for s in sims}
    server = by_name[params.server]
    drop_rng = np.random.default_rng(root.spawn(1)[0])

    duration = int(round(duration_s))
    n_packets = int(round(rate_hz * duration))
    send_ns = [round((i + 1) * NS_PER_S / rate_hz) for i in range(n_packets)]
    records: list[PacketRecord] = []
    next_pkt = 0

    def stamp_packets(boundary: int) -> None:
        nonlocal next_pkt
        limit = boundary * NS_PER_S
        while next_pkt < n_packets and send_ns[next_pkt] <= limit:
            t = send_ns[next_pkt]
            rec = PacketRecord(next_pkt, t, server.read_disciplined(t))
            for name in params.clients:
                if params.drop_prob and drop_rng.random() < params.drop_prob:
                    continue
                sim = by_name[name]
                rc = sim.spec.receiver
                arrival = t + params.path_delta_ns.get(name, 0)
                latency = rc.stamp_bias_ns
                if rc.stamp_latency_ns:
                    latency += round(sim.rng_stamp.uniform(0, rc.stamp_latency_ns))
                stamp = sim.read_disciplined(arrival + latency)
                rec.arrivals[name] = (arrival, stamp)
            records.append(rec)
            next_pkt += 1

    result = engine.run_loop(cfg, sims, duration, stamp_packets)
    return records, result


def pairwise_offsets(records, node_a: str, node_b: str):
    """Per-packet stamp differences a - b; packets missing a side are
    skipped and counted. Returns (samples, skipped)."""
    samples: list[OffsetSample] = []
    skipped = 0
    for rec in records:
        a = rec.arrivals.get(node_a)
        b = rec.arrivals.get(node_b)
        if a is None or b is None:
            skipped += 1
            continue
        samples.append(OffsetSample(rec.send_true_ns / NS_PER_S,
                                    a[1] - b[1], SampleSource.COMBINED))
    if not samples:
        raise NoCommonPackets(f"no packets seen by both {node_a} and {node_b}")
    return samples, skipped


# ---------------------------------------------------------------------------
# Beacon-timer synchronization (adopt the fastest neighbour)


@dataclass(frozen=True)
class TsfNode:
    """64-bit 1 us beacon timer plus its oscillator's rate error."""

    timer_us: int = 0
    freq_error_ppm: float = 0.0
    frac_us: float = 0.0

    def __post_init__(self):
        if abs(self.freq_error_ppm) > 100.0:
            raise ValueError("timer rate error beyond +/-100 ppm")


def tsf_advance(nodes, dt_s: float) -> list[TsfNode]:
    """Free-run all timers for dt_s seconds at their own rates."""
    out = []
    for n in nodes:
        ticks = dt_s * US_PER_S * (1.0 + n.freq_error_ppm * 1e-6) + n.frac_us
        whole = int(ticks)
        out.append(replace(n, timer_us=n.timer_us + whole, frac_us=ticks - whole))
    return out


def tsf_step(nodes, beacon_winner: int, airtime_jitter_us: float,
             rng) -> list[TsfNode]:
    """Apply one beacon from the winning node.

    Receivers adopt max(own timer, received timer + airtime), so timers
    move forward but never backward; the winner keeps its own timer.
    """
    if not 0 <= beacon_winner < len(nodes):
        raise IndexError(f"winner index {beacon_winner} out of range")
    sent = nodes[beacon_winner].timer_us
    out = []
    for i, n in enumerate(nodes):
        if i == beacon_winner:
            out.append(n)
            continue
        rx = sent + (round(rng.uniform(0, airtime_jitter_us))
                     if airtime_jitter_us else 0)
        out.append(replace(n, timer_us=max(n.timer_us, rx)))
    return out


def run_tsf(n_nodes: int = 20, spread_ppm: float = 100.0,
            beacon_interval_s: float = 0.1024, n_beacons: int = 2000,
            airtime_jitter_us: float = 2.0, seed: int = 7):
    """Contention experiment: random winner per interval, spread recorded.

    Returns per-beacon maximum pairwise timer spread (us, before the
    beacon applies) and the node list at the end.
    """
    rng = np.random.default_rng(seed)
    rates = rng.uniform(-spread_ppm, spread_ppm, n_nodes)
    nodes = [TsfNode(0, float(r)) for r in rates]
    spreads = []
    for _ in range(n_beacons):
        nodes = tsf_advance(nodes, beacon_interval_s)
        timers = [n.timer_us for n in nodes]
        spreads.append(max(timers) - min(timers))
        winner = int(rng.integers(n_nodes))
        nodes = tsf_step(nodes, winner, airtime_jitter_us, rng)
    return np.array(spreads, dtype=float), nodes


# ---------------------------------------------------------------------------
# Two-way time transfer


@dataclass(frozen=True)
class NtpResult:
    offset_est_ns: int
    delay_est_ns: int
    truth_offset_ns: int


def ntp_exchange(client: ClockState, server: ClockState, link: LinkModel,
                 t_ns: int, rng) -> NtpResult:
    """One four-timestamp exchange through the link.

    offset_est = ((t2 - t1) + (t3 - t4)) / 2 estimates the server clock
    minus the client clock; with symmetric delays and no jitter it equals
    the true offset exactly, and an asymmetry biases it by
    (delay_up - delay_down) / 2.
    """
    up = link.one_way_ns(link.delay_up_ms, rng)
    down = link.one_way_ns(link.delay_down_ms, rng)
    t1 = read_clock(client, t_ns)
    t2_true = t_ns + up
    t2 = read_clock(server, t2_true)
    t3 = t2
    t4 = read_clock(client, t2_true + down)
    offset_est = ((t2 - t1) + (t3 - t4)) // 2
    delay_est = (t4 - t1) - (t3 - t2)
    truth = read_clock(server, t_ns) - t1
    return NtpResult(offset_est, delay_est, truth)


def run_ntp(cfg: ScenarioConfig, traffic: TrafficSpec | None = None):
    """Periodic exchanges between two scenario nodes' free clocks.

    Returns rows (t_s, offset_est_ns, delay_est_ns, truth_offset_ns).
    """
    if traffic is None:
        traffic = next(t for t in cfg.traffic if t.kind == "ntp")
    p = traffic_params(cfg, traffic)
    client_spec = cfg.node(p.client)
    server_spec = cfg.node(p.server)
    root = np.random.SeedSequence(cfg.seed)
    rng = np.random.default_rng(root.spawn(len(cfg.nodes) + 1)[-1])
    client = ClockState.from_offset_ns(client_spec.initial_offset_ns,
                                       client_spec.oscillator.f0_ppm)
    server = ClockState.from_offset_ns(server_spec.initial_offset_ns,
                                       server_spec.oscillator.f0_ppm)
    interval_ns = round(NS_PER_S / traffic.rate_hz)
    n = int(round(cfg.duration_s * traffic.rate_hz))
    rows = []
    for i in range(n):
        t_ns = (i + 1) * interval_ns
        try:
            res = ntp_exchange(client, server, p.link, t_ns, rng)
        except PacketDropped:
            continue
        rows.append((t_ns / NS_PER_S, res.offset_est_ns,
                     res.delay_est_ns, res.truth_offset_ns))
    return rows


def run_tsf_traffic(cfg: ScenarioConfig, traffic: TrafficSpec):
    """Scenario-driven beacon experiment; one row per beacon interval."""
    interval = 1.0 / traffic.rate_hz
    n_beacons = int(round(cfg.duration_s * traffic.rate_hz))
    # The params are run_tsf's n_nodes, spread_ppm and airtime_jitter_us.
    spreads, _ = run_tsf(beacon_interval_s=interval, n_beacons=n_beacons,
                         seed=cfg.seed, **asdict(traffic_params(cfg, traffic)))
    return [((i + 1) * interval, s) for i, s in enumerate(spreads)]
