"""Multi-node experiments: broadcast offset harness, beacon-timer
synchronization and two-way time transfer over an asymmetric link.

The broadcast harness replays the bench setup of one server flooding UDP
packets at two receiver-disciplined clients whose capture stamps are
compared pairwise. The beacon timer models the adopt-the-fastest
1-microsecond counter of 802.11 ad-hoc networks. The two-way exchange
implements the classic four-timestamp offset/delay estimator.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace

import numpy as np

from . import engine
from .scenario import (LinkModel, PacketDropped, ScenarioConfig, TsfParams,
                       traffic_params)
from .timebase import ClockState, NS_PER_S, read_clock

US_PER_S = 1_000_000


class NoCommonPackets(ValueError):
    pass


@dataclass(frozen=True)
class BroadcastLog:
    """Every packet of one broadcast run, one int64 column per field.

    `send_ns` is each packet's true send time and `send_stamp_ns` the
    server's stamp of it. Per client, `arrival_ns` is the true arrival
    time, `seen` marks the packets it kept and `stamp_ns` holds their
    capture stamps (0 for the dropped ones).
    """

    send_ns: np.ndarray
    send_stamp_ns: np.ndarray
    arrival_ns: dict[str, np.ndarray]
    stamp_ns: dict[str, np.ndarray]
    seen: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.send_ns)


def _entry(cfg: ScenarioConfig, kind: str):
    """The scenario's one traffic entry of `kind` and its typed params."""
    traffic = next(t for t in cfg.traffic if t.kind == kind)
    return traffic, traffic_params(cfg, traffic)


def run_broadcast(cfg: ScenarioConfig):
    """Flood packets from the server node to all clients at the scenario's
    broadcast rate for its whole duration.

    Every client sees each packet at the same true instant (plus its
    configured per-client path delta); the recorded stamp is the client's
    disciplined clock read at capture time, which adds the node's stamp
    bias and latency spread. The packets of each second are stamped ahead
    of that second's node steps, one clock read per stamp; that second's
    drop decisions are drawn as one (packet, client) block and each
    client's latencies as one block over the packets it keeps. Returns
    (log, result): a `BroadcastLog` and the clients' discipline logs.
    """
    traffic, params = _entry(cfg, "broadcast")
    sims = engine.build_node_sims(cfg)
    by_name = {s.spec.name: s for s in sims}
    server = by_name[params.server]
    clients = [by_name[name] for name in params.clients]
    drop_rng = np.random.default_rng(engine.seed_sequences(cfg)[1])

    duration = int(round(cfg.duration_s))
    n_packets = int(round(traffic.rate_hz * duration))
    send_col = np.rint(np.arange(1, n_packets + 1, dtype=np.int64) * NS_PER_S
                       / traffic.rate_hz).astype(np.int64)
    # Packets due after the last second are never sent.
    send_col = send_col[send_col <= duration * NS_PER_S]
    send_ns = send_col.tolist()
    arrival = [send_col + params.path_delta_ns.get(sim.spec.name, 0)
               for sim in clients]
    seen = [np.zeros(len(send_ns), dtype=bool) for _ in clients]
    send_stamps: list[int] = []
    stamps: list[list[int]] = [[] for _ in clients]
    next_pkt = 0

    def stamp_packets(boundary: int) -> None:
        nonlocal next_pkt
        first = next_pkt
        next_pkt = bisect_right(send_ns, boundary * NS_PER_S, first)
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

    result = engine.run_loop(cfg, sims, stamp_packets)
    log = BroadcastLog(send_col, np.array(send_stamps, dtype=np.int64),
                       {}, {}, {})
    for j, sim in enumerate(clients):
        name = sim.spec.name
        log.arrival_ns[name] = arrival[j]
        log.seen[name] = seen[j]
        log.stamp_ns[name] = np.zeros(len(send_ns), dtype=np.int64)
        log.stamp_ns[name][seen[j]] = stamps[j]
    return log, result


def pairwise_offsets(log: BroadcastLog, node_a: str, node_b: str):
    """Stamp differences a - b of the packets both clients saw; the rest
    are skipped and counted. Returns (packets, offsets_ns, skipped):
    int64 arrays of packet indices and offsets, and the skipped count."""
    unseen = np.zeros(len(log), dtype=bool)
    packets = np.flatnonzero(log.seen.get(node_a, unseen)
                             & log.seen.get(node_b, unseen))
    if not packets.size:
        raise NoCommonPackets(f"no packets seen by both {node_a} and {node_b}")
    offsets = log.stamp_ns[node_a][packets] - log.stamp_ns[node_b][packets]
    return packets, offsets, len(log) - packets.size


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


def run_tsf(params: TsfParams, beacon_interval_s: float, n_beacons: int,
            seed: int):
    """Contention experiment: random winner per interval, spread recorded.

    Returns per-beacon maximum pairwise timer spread (us, before the
    beacon applies) and the node list at the end.
    """
    rng = np.random.default_rng(seed)
    rates = rng.uniform(-params.spread_ppm, params.spread_ppm, params.n_nodes)
    nodes = [TsfNode(0, float(r)) for r in rates]
    spreads = []
    for _ in range(n_beacons):
        nodes = tsf_advance(nodes, beacon_interval_s)
        timers = [n.timer_us for n in nodes]
        spreads.append(max(timers) - min(timers))
        winner = int(rng.integers(params.n_nodes))
        nodes = tsf_step(nodes, winner, params.airtime_jitter_us, rng)
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


def run_ntp(cfg: ScenarioConfig):
    """Periodic exchanges between two scenario nodes' free clocks, as the
    scenario's ntp entry sets them.

    Returns rows (t_s, offset_est_ns, delay_est_ns, truth_offset_ns).
    """
    traffic, p = _entry(cfg, "ntp")
    client_spec = cfg.node(p.client)
    server_spec = cfg.node(p.server)
    rng = np.random.default_rng(engine.seed_sequences(cfg)[1])
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


def run_tsf_traffic(cfg: ScenarioConfig):
    """The scenario's tsf beacon experiment; one row per beacon interval."""
    traffic, params = _entry(cfg, "tsf")
    interval = 1.0 / traffic.rate_hz
    n_beacons = int(round(cfg.duration_s * traffic.rate_hz))
    spreads, _ = run_tsf(params, interval, n_beacons, cfg.seed)
    return [((i + 1) * interval, s) for i, s in enumerate(spreads)]
