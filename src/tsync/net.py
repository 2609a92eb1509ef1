"""Multi-node experiments: broadcast offset harness, beacon-timer
synchronization and two-way time transfer over an asymmetric link.

The broadcast harness replays the bench setup of one server flooding UDP
packets at two receiver-disciplined clients whose capture stamps are
compared pairwise. The beacon timer models the adopt-the-fastest
1-microsecond counter of 802.11 ad-hoc networks. The two-way exchange
implements the classic four-timestamp offset/delay estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .scenario import LinkModel, PacketDropped, ScenarioConfig, traffic_params
from .timebase import ClockState, NS_PER_S, read_clock

US_PER_S = 1_000_000


@dataclass(frozen=True)
class BroadcastLog:
    """Every packet of one broadcast run, one int64 column per field.

    `send_ns` is each packet's true send time and `send_stamp_ns` the
    server's stamp of it. Per client, `seen` marks the packets it kept
    and `stamp_ns` holds their capture stamps (0 for the dropped ones).
    """

    send_ns: np.ndarray
    send_stamp_ns: np.ndarray
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
    bias and latency spread. The drop decisions are drawn once per run as
    one (packet, client) block, and each client's latencies as one block
    over the packets it keeps. The packets of each second are stamped ahead
    of that second's node steps, one clock read per stamp, into int64
    columns. Returns (log, nodes): a `BroadcastLog` and `engine.run_loop`'s
    nodes by name.
    """
    traffic, params = _entry(cfg, "broadcast")
    sims = engine.build_node_sims(cfg)
    by_name = {s.spec.name: s for s in sims}
    server = by_name[params.server]
    clients = [by_name[name] for name in params.clients]
    drop_rng = np.random.default_rng(engine.seed_sequences(cfg)[1])

    n_packets = int(round(traffic.rate_hz * cfg.duration_s))
    send_col = np.rint(np.arange(1, n_packets + 1, dtype=np.int64) * NS_PER_S
                       / traffic.rate_hz).astype(np.int64)
    # Packets due after the last second are never sent.
    send_col = send_col[send_col <= cfg.duration_s * NS_PER_S]
    shape = (send_col.size, len(clients))
    if params.drop_prob:
        kept = drop_rng.random(shape) >= params.drop_prob
    else:
        kept = np.ones(shape, dtype=bool)
    # Second s stamps the packets ends[s - 1] <= k < ends[s].
    ends = np.searchsorted(send_col, np.arange(cfg.duration_s + 1) * NS_PER_S,
                           "right")
    log = BroadcastLog(send_col, send_col.copy(), {}, {})
    # Each reader's column holds its capture times until they are stamped.
    readers = [(server.read_disciplined, log.send_stamp_ns, ends.tolist())]
    for j, sim in enumerate(clients):
        name, rc = sim.spec.name, sim.spec.receiver
        log.seen[name] = kept[:, j]
        idx = np.flatnonzero(kept[:, j])
        # The true arrival, plus the stamp bias.
        t = send_col[idx] + (params.path_delta_ns.get(name, 0)
                             + rc.stamp_bias_ns)
        if rc.stamp_latency_ns:
            t += np.rint(sim.rng_stamp.uniform(
                0, rc.stamp_latency_ns, idx.size)).astype(np.int64)
        readers.append((sim.read_disciplined, t,
                        np.searchsorted(idx, ends).tolist()))

    def stamp_packets(boundary: int) -> None:
        for read, col, col_ends in readers:
            first, last = col_ends[boundary - 1], col_ends[boundary]
            col[first:last] = list(map(read, col[first:last].tolist()))

    nodes = engine.run_loop(cfg, sims, stamp_packets)
    for sim, (_, stamps, _) in zip(clients, readers[1:]):
        name = sim.spec.name
        log.stamp_ns[name] = np.zeros(send_col.size, dtype=np.int64)
        log.stamp_ns[name][log.seen[name]] = stamps
    return log, nodes


def pairwise_offsets(log: BroadcastLog, node_a: str, node_b: str):
    """Stamp differences a - b of the packets both clients saw; the rest
    are skipped and counted. Returns (packets, offsets_ns, skipped):
    int64 arrays of packet indices and offsets, and the skipped count."""
    unseen = np.zeros(len(log), dtype=bool)
    packets = np.flatnonzero(log.seen.get(node_a, unseen)
                             & log.seen.get(node_b, unseen))
    if not packets.size:
        raise ValueError(f"no packets seen by both {node_a} and {node_b}")
    offsets = log.stamp_ns[node_a][packets] - log.stamp_ns[node_b][packets]
    return packets, offsets, len(log) - packets.size


# ---------------------------------------------------------------------------
# Beacon-timer synchronization (adopt the fastest neighbour)


def tsf_adopt(timers: np.ndarray, winner: int,
              airtime_us: np.ndarray) -> np.ndarray:
    """One beacon from `winner`: each timer becomes the later of its own
    and the winner's timer plus its airtime, so no timer moves back. The
    winner keeps its own timer when its airtime is 0."""
    return np.maximum(timers, timers[winner] + airtime_us)


def run_tsf(cfg: ScenarioConfig):
    """The scenario's tsf contention experiment: each beacon interval every
    1 us timer free-runs at its own drawn rate error, then a random node's
    beacon is adopted. Returns one (t_s, spread_us) row per interval, the
    spread (max - min timer) taken before that interval's beacon.
    """
    traffic, params = _entry(cfg, "tsf")
    rng = np.random.default_rng(engine.seed_sequences(cfg)[1])
    n = params.n_nodes
    interval_s = 1.0 / traffic.rate_hz
    rate_ppm = rng.uniform(-params.spread_ppm, params.spread_ppm, n)
    ticks_us = interval_s * US_PER_S * (1.0 + rate_ppm * 1e-6)
    timers = np.zeros(n, dtype=np.int64)
    frac_us = np.zeros(n)
    rows = []
    for i in range(int(round(cfg.duration_s * traffic.rate_hz))):
        frac_us += ticks_us
        whole = frac_us.astype(np.int64)
        timers += whole
        frac_us -= whole
        rows.append(((i + 1) * interval_s, float(timers.max() - timers.min())))
        winner = int(rng.integers(n))
        airtime_us = np.rint(rng.uniform(0, params.airtime_jitter_us, n)
                             ).astype(np.int64)
        airtime_us[winner] = 0
        timers = tsf_adopt(timers, winner, airtime_us)
    return rows


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

