"""A run cut to its first T seconds is the first T seconds of the longer
run: every log column of every node, the warnings, the broadcast stamps
and the NTP rows. Randomness drawn in blocks sized to the run, or in
another order, would break this."""

import dataclasses

import pytest

from tsync import engine, net, scenario

SEEDS = [1787, 1, 2, 3]


def cut(cfg, duration_s: int):
    """`cfg` ending at `duration_s`: the visibility timeline is cut there,
    and a trace temperature is left as it is."""
    segs = [seg for seg in cfg.visibility if seg.t_start < duration_s]
    segs[-1] = dataclasses.replace(segs[-1], t_end=float(duration_s))
    return dataclasses.replace(cfg, duration_s=duration_s,
                               visibility=tuple(segs))


def assert_prefix(short, long, what):
    assert len(short) <= len(long), what
    assert list(short) == list(long[:len(short)]), what


def assert_nodes_prefix(short, long):
    """Every log column and the warnings of each node in `short` are a
    prefix of the same node's in `long`."""
    assert short.keys() == long.keys()
    for name, sim in short.items():
        for log in ("loop", "bursts", "pulses", "true"):
            short_log, long_log = getattr(sim, log), getattr(long[name], log)
            for column in short_log._names:
                assert_prefix(getattr(short_log, column),
                              getattr(long_log, column),
                              f"{name}.{log}.{column}")
        assert len(sim.true) == sim.cfg.duration_s
        assert_prefix(sim.warnings, long[name].warnings, f"{name} warnings")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name, full, short", [
    ("suburban", None, 700),
    ("tunnel_5km", None, 600),
    ("tunnel_5km", None, 700),  # mid-outage
    ("lab_16c", 1800, 700),
])
def test_single_node_run_is_a_prefix(name, full, short, seed):
    cfg = dataclasses.replace(scenario.preset(name), seed=seed)
    if full is not None:
        cfg = cut(cfg, full)
    assert_nodes_prefix(engine.run_scenario(cut(cfg, short)),
                        engine.run_scenario(cfg))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("drop_prob", [0.0, 0.2])
def test_broadcast_is_a_prefix(drop_prob, seed):
    cfg = scenario.preset("harness_10pps")
    (traffic,) = cfg.traffic
    traffic = dataclasses.replace(
        traffic, params={**traffic.params, "drop_prob": drop_prob})
    cfg = dataclasses.replace(cfg, seed=seed, traffic=(traffic,))
    short_log, short_nodes = net.run_broadcast(cut(cfg, 900))
    long_log, long_nodes = net.run_broadcast(cfg)
    assert_nodes_prefix(short_nodes, long_nodes)
    assert len(short_log) == 9000
    assert_prefix(short_log.send_ns, long_log.send_ns, "send_ns")
    assert_prefix(short_log.send_stamp_ns, long_log.send_stamp_ns,
                  "send_stamp_ns")
    for client in ("c1", "c2"):
        assert_prefix(short_log.stamp_ns[client], long_log.stamp_ns[client],
                      f"{client} stamps")
        assert_prefix(short_log.seen[client], long_log.seen[client],
                      f"{client} seen")
    short_pairs = net.pairwise_offsets(short_log, "c1", "c2")
    long_pairs = net.pairwise_offsets(long_log, "c1", "c2")
    for short_col, long_col in zip(short_pairs[:2], long_pairs[:2]):
        assert_prefix(short_col, long_col, "pairwise offsets")


@pytest.mark.parametrize("seed", SEEDS)
def test_ntp_is_a_prefix(seed):
    cfg = dataclasses.replace(scenario.preset("lte_ntp"), seed=seed)
    short = cut(cfg, 500)
    assert_nodes_prefix(engine.run_scenario(short), engine.run_scenario(cfg))
    short_rows = net.run_ntp(short)
    assert short_rows
    assert_prefix(short_rows, net.run_ntp(cfg), "ntp rows")
