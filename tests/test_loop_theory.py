"""The discipline loop against its own theory, not against tuned bounds.

With the oscillator noise off, the pulse jitter at zero, a constant
temperature and a full sky, the loop is the velocity-form PI recurrence
of a second-order type-2 loop (Gardner, *Phaselock Techniques*, ch. 2):

    e[k+1] = e[k] + 1000 * (f + c[k])
    c[k]   = c[k-1] - (kp * (e[k] - e[k-1]) + ki * e[k]) / 1000

`e[k]` is the offset in ns at second k, `f` the oscillator's frequency
error in ppm and `c[k]` the servo's frequency correction in ppm. The
first sample sees `e[1] = offset + 1000 * f`, with the previous offset
taken as 0. The loop rows follow this transient to within the rounding
of integer-ns offsets and femtosecond phase.
"""

import dataclasses

import pytest

from tsync import engine, scenario
from tsync.pps import PpsJitter
from tsync.servo import ServoMode

DURATION_S = 3000
TOLERANCE_NS = 1.5


def quiet_room(mode: ServoMode, initial_offset_ns: int):
    """`room_24h`'s node with noise and jitter off, at 25 C under a full
    sky, for 3 000 s."""
    room = scenario.preset("room_24h")
    node = room.nodes[0]
    spec = dataclasses.replace(
        node, initial_offset_ns=initial_offset_ns,
        oscillator=dataclasses.replace(node.oscillator, noise_white_fm=0.0,
                                       noise_flicker_fm=0.0,
                                       noise_randomwalk_fm=0.0),
        servo=dataclasses.replace(node.servo, mode=mode),
        receiver=dataclasses.replace(node.receiver, pps=PpsJitter(0)))
    return dataclasses.replace(
        room, duration_s=DURATION_S, temperature=scenario.ConstantTemp(25.0),
        visibility=(scenario.VisibilitySeg(0.0, DURATION_S, 8, 6),),
        nodes=(spec,))


def predicted_offsets(initial_offset_ns: int, f_ppm: float, kp: float,
                      ki: float, n: int) -> list[float]:
    """The recurrence's e[1..n]."""
    e, e_prev, c = initial_offset_ns + 1000.0 * f_ppm, 0.0, 0.0
    out = []
    for _ in range(n):
        out.append(e)
        c -= (kp * (e - e_prev) + ki * e) / 1000.0
        e_prev, e = e, e + 1000.0 * (f_ppm + c)
    return out


@pytest.mark.parametrize("initial_offset_ns", [0, 5_000, -20_000])
@pytest.mark.parametrize("mode", [ServoMode.NMEA_PLUS_PPS,
                                  ServoMode.PPS_ONLY], ids=lambda m: m.value)
def test_transient_follows_the_pi_recurrence(mode, initial_offset_ns):
    cfg = quiet_room(mode, initial_offset_ns)
    spec = cfg.nodes[0]
    loop = engine.run_scenario(cfg)[spec.name].loop
    assert list(loop.elapsed_s) == [float(k) for k in range(1, DURATION_S + 1)]
    want = predicted_offsets(initial_offset_ns, spec.oscillator.f0_ppm,
                             spec.servo.kp, spec.servo.ki, len(loop))
    worst = max(abs(o - e) for o, e in zip(loop.offset_ns, want))
    assert worst <= TOLERANCE_NS
