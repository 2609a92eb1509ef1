"""Clock discipline: the PI law and the holdover slope fit.

The servo consumes offset samples from one of three sources (sentence
stream only, pulse train only, or pulses labelled by sentences) and
produces phase steps or frequency corrections. During a total signal
outage the offsets monitored since it began can be fitted with a linear
drift model; the caller owns the outage, its samples and what the slope
steers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .timebase import check_bounds, config_field

# ppm expressed as ns of phase per second of elapsed time.
NS_PER_S_PER_PPM = 1000.0

# Minimum sample span before a drift slope is considered trustworthy.
MIN_HOLDOVER_SPAN_S = 60.0


class NonMonotonicSample(ValueError):
    pass


class InsufficientHistory(ValueError):
    pass


class ServoMode(str, Enum):
    NMEA_ONLY = "nmea"
    PPS_ONLY = "pps"
    NMEA_PLUS_PPS = "nmea+pps"


class SampleSource(str, Enum):
    NMEA = "NMEA"
    PPS = "PPS"
    COMBINED = "COMBINED"
    HOLDOVER = "HOLDOVER"


@dataclass(frozen=True)
class ServoConfig:
    """Gains and thresholds of the discipline loop.

    kp and ki are dimensionless gains of a PI law applied in velocity form
    once per second; offsets beyond step_threshold_ns are stepped out
    instead of slewed.
    """

    mode: ServoMode = ServoMode.NMEA_PLUS_PPS
    kp: float = config_field(2.0**-5, exclusiveMinimum=0)
    ki: float = config_field(2.0**-10, exclusiveMinimum=0)
    step_threshold_ns: int = config_field(128_000_000, exclusiveMinimum=0)
    holdover_predict: bool = True

    def __post_init__(self):
        check_bounds(self)


@dataclass
class ServoState:
    """Evolving loop state; one logical owner advances it at a time."""

    config: ServoConfig
    freq_correction_ppm: float = 0.0
    last_offset_ns: int = 0
    # Time of the last sample the loop took; None after a step.
    last_elapsed_s: float | None = None

    @property
    def mode(self) -> ServoMode:
        return self.config.mode


def update(servo: ServoState, elapsed_s: float, offset_ns: int) -> int:
    """Fold one offset (node minus reference, ns) measured at `elapsed_s`
    into the loop; returns the phase step in ns.

    Large offsets are stepped out (step -offset, and the next sample is
    checked against none); otherwise the step is 0 and the frequency
    correction is moved by the PI increment

        d_freq = -(kp * (e - e_prev) + ki * e) / NS_PER_S_PER_PPM

    which telescopes to the classic proportional-plus-integral law on the
    offsets since the last step.
    """
    cfg = servo.config
    last = servo.last_elapsed_s
    if last is not None and elapsed_s <= last:
        raise NonMonotonicSample(
            f"sample at {elapsed_s}s not after the last at {last}s")
    e = offset_ns
    if abs(e) > cfg.step_threshold_ns:
        servo.last_offset_ns = 0
        servo.last_elapsed_s = None
        return -e
    de = e - servo.last_offset_ns
    servo.freq_correction_ppm -= (cfg.kp * de + cfg.ki * e) / NS_PER_S_PER_PPM
    servo.last_offset_ns = e
    servo.last_elapsed_s = elapsed_s
    return 0


def enter_holdover(samples) -> float:
    """Fit the drift slope (ns/s) from an outage's (elapsed_s, offset_ns)
    samples, in time order.

    The slope is an ordinary least-squares fit over the samples smoothed
    by a moving average a quarter of their count wide.
    """
    if len(samples) < 2 or samples[-1][0] - samples[0][0] < MIN_HOLDOVER_SPAN_S:
        raise InsufficientHistory(
            f"need >= 2 samples spanning >= {MIN_HOLDOVER_SPAN_S:.0f} s")
    w = max(1, len(samples) // 4)
    kernel = np.full(w, 1.0 / w)
    ts = np.convolve([t for t, _ in samples], kernel, mode="valid")
    vs = np.convolve([float(v) for _, v in samples], kernel, mode="valid")
    return float(np.polyfit(ts, vs, 1)[0])
