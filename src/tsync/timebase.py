"""Integer-nanosecond simulation time and free-running oscillator models.

All clocks are kept as integer nanoseconds on top of a femtosecond phase
accumulator, so deterministic drift audits are exact and independent of
step partitioning. Oscillator noise is generated as power-law fractional
frequency: white FM, flicker FM and random-walk FM, with amplitudes
expressed as the Allan-deviation level at tau = 1 s.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

NS_PER_S = 1_000_000_000
FS_PER_NS = 1_000_000

# Checked-arithmetic bound: instants and phase stay inside a 64-bit ns range.
_MAX_INSTANT_NS = 2**63 - 1
_MAX_PHASE_FS = (2**63 - 1) * FS_PER_NS

WHITE_FM = -0.5
FLICKER_FM = 0.0
RANDOM_WALK_FM = 0.5

# Unit-variance fractional-differencing flicker input settles at a flat
# ADEV level of sqrt(2 ln2 / pi) (verified numerically; small-tau points
# sit a few percent above). Dividing by it makes the amplitude parameter
# the ADEV level directly.
_FLICKER_UNIT_ADEV = math.sqrt(2.0 * math.log(2.0) / math.pi)


class TimeReversalError(ValueError):
    """A clock was asked to produce a reading earlier than its state."""


class PhaseOverflowError(OverflowError):
    """Phase accumulator left the representable 64-bit ns range."""


class NoiseExhausted(RuntimeError):
    """A clock took more steps than its noise stream was sized for."""


@dataclass(frozen=True, order=True)
class SimInstant:
    """A point in time: whole seconds plus nanoseconds in [0, 1e9).

    The simulation itself passes plain integer nanoseconds; this type
    validates and formats an instant where one is shown, in warnings and
    errors. Ordering is lexicographic on (seconds, frac_ns), which matches
    chronological order because frac_ns is always non-negative.
    """

    seconds: int = 0
    frac_ns: int = 0

    def __post_init__(self):
        if not 0 <= self.frac_ns < NS_PER_S:
            raise ValueError(f"frac_ns out of range: {self.frac_ns}")
        if abs(self.total_ns) > _MAX_INSTANT_NS:
            raise OverflowError("instant outside 64-bit nanosecond range")

    @classmethod
    def from_ns(cls, total_ns: int) -> "SimInstant":
        seconds, frac = divmod(int(total_ns), NS_PER_S)
        return cls(seconds, frac)

    @property
    def total_ns(self) -> int:
        return self.seconds * NS_PER_S + self.frac_ns

    def __str__(self) -> str:
        return f"{self.seconds}.{self.frac_ns:09d}s"


def nearest_second(t_ns: int) -> int:
    """Nearest whole second to t_ns (half-up)."""
    return (t_ns + NS_PER_S // 2) // NS_PER_S


# ---------------------------------------------------------------------------
# Config bounds: each is declared once, as field metadata in JSON Schema's
# words. check_bounds enforces them; scenario.json_schema publishes them.

_BOUND_TESTS = {
    "minimum": operator.ge, "exclusiveMinimum": operator.gt,
    "maximum": operator.le, "exclusiveMaximum": operator.lt,
    "minLength": lambda value, n: len(value) >= n,
    "minItems": lambda value, n: len(value) >= n,
}


def config_field(default=MISSING, **schema):
    """A config dataclass field whose metadata holds JSON Schema keywords,
    such as `config_field(0.0, minimum=0, exclusiveMaximum=1)`."""
    return field(default=default, metadata=schema)


@functools.cache
def _bounds(cls) -> tuple:
    """(field, ((test, bound), ...)) for each bounded field of cls."""
    out = []
    for f in fields(cls):
        tests = tuple((_BOUND_TESTS[key], bound)
                      for key, bound in f.metadata.items()
                      if key in _BOUND_TESTS)
        if tests:
            out.append((f, tests))
    return tuple(out)


class OutOfBounds(ValueError):
    """A config field lies outside a bound its metadata declares; the
    args are the field's name and its metadata."""

    def __str__(self) -> str:
        return _bound_message(*self.args)


def check_bounds(config) -> None:
    """Raise OutOfBounds naming the first field of a config dataclass that
    lies outside a bound its metadata declares. NaN passes no bound."""
    for f, tests in _bounds(type(config)):
        value = getattr(config, f.name)
        for test, bound in tests:
            if not test(value, bound):
                raise OutOfBounds(f.name, dict(f.metadata))


def _bound_message(name: str, meta) -> str:
    size = meta.get("minLength", meta.get("minItems"))
    if size is not None:
        if size == 1:
            return f"{name} must not be empty"
        return f"at least {size} {name} required"
    lo = meta.get("minimum", meta.get("exclusiveMinimum"))
    hi = meta.get("maximum", meta.get("exclusiveMaximum"))
    if lo is not None and hi is not None:
        return (f"{name} must be in {'[' if 'minimum' in meta else '('}{lo}, "
                f"{hi}{']' if 'maximum' in meta else ')'}")
    if hi is not None:
        return f"{name} must be {'<=' if 'maximum' in meta else '<'} {hi}"
    if "minimum" in meta:
        return f"{name} must be >= {lo}"
    return f"{name} must be positive" if lo == 0 else f"{name} must be > {lo}"


@dataclass(frozen=True)
class OscillatorParams:
    """Static description of a free-running oscillator.

    Noise amplitudes are the per-process ADEV levels at tau = 1 s; each
    process alone produces ADEV amplitude * tau**mu with mu = -0.5
    (white FM), 0 (flicker FM) and +0.5 (random-walk FM).
    """

    f0_ppm: float = config_field(0.0, minimum=-1000, maximum=1000)
    temp_coeff_ppm_per_c: float = 0.0
    ref_temp_c: float = 25.0
    aging_ppm_per_day: float = 0.0
    noise_white_fm: float = config_field(0.0, minimum=0)
    noise_flicker_fm: float = config_field(0.0, minimum=0)
    noise_randomwalk_fm: float = config_field(0.0, minimum=0)

    def __post_init__(self):
        check_bounds(self)

    def freq_ppm_at(self, temp_c: float, elapsed_days: float) -> float:
        """Deterministic fractional frequency error in ppm."""
        return (
            self.f0_ppm
            + self.temp_coeff_ppm_per_c * (temp_c - self.ref_temp_c)
            + self.aging_ppm_per_day * elapsed_days
        )


@dataclass(slots=True)
class ClockState:
    """Evolving state of one node clock against true time.

    The phase offset (node clock minus true time) is accumulated in
    integer femtoseconds so sub-nanosecond ppm increments never erode.
    `advance` and `slew_phase` change it in place.
    """

    phase_fs: int = 0
    freq_error_ppm: float = 0.0
    last_update_ns: int = 0

    @classmethod
    def from_offset_ns(cls, offset_ns: int,
                       freq_error_ppm: float = 0.0) -> "ClockState":
        return cls(int(offset_ns) * FS_PER_NS, freq_error_ppm)

    @property
    def phase_offset_ns(self) -> int:
        return _round_div(self.phase_fs, FS_PER_NS)


def _round_div(value: int, div: int) -> int:
    """Integer division rounded half away from zero."""
    if value >= 0:
        return (value + div // 2) // div
    return -((-value + div // 2) // div)


def advance(state: ClockState, params: OscillatorParams, dt_ns: int,
            temp_c: float, noise: "NoiseStream | None" = None) -> None:
    """Propagate a clock forward by dt_ns of true time, in place.

    Frequency is held piecewise constant over the step (evaluated at the
    step start), so deterministic drift is exact and independent of how
    an interval is partitioned. One noise-stream draw is consumed per
    call when a stream is supplied. A dt_ns that is not positive raises
    TimeReversalError, and a phase or instant past the 64-bit ns range
    PhaseOverflowError or OverflowError, leaving `state` unchanged.
    """
    dt_ns = int(dt_ns)
    t_ns = state.last_update_ns + dt_ns
    if dt_ns <= 0:
        raise TimeReversalError(
            f"event at {t_ns} ns does not move time "
            f"forward from {state.last_update_ns} ns")
    elapsed_days = state.last_update_ns / (86400.0 * NS_PER_S)
    det_ppm = params.freq_ppm_at(temp_c, elapsed_days)

    noise_phase_ns = 0.0
    if noise is not None:
        noise_phase_ns = noise.next_phase_ns(dt_ns)

    # 1 ppm * 1 ns == 1 fs, so the ppm product is already in femtoseconds.
    # round() also rejects a NaN or infinite frequency.
    inc_fs = round(det_ppm * dt_ns) + round(noise_phase_ns * FS_PER_NS)
    new_fs = state.phase_fs + inc_fs
    if abs(new_fs) > _MAX_PHASE_FS:
        raise PhaseOverflowError("phase accumulator overflow")
    if t_ns > _MAX_INSTANT_NS:
        raise OverflowError("instant outside 64-bit nanosecond range")

    state.phase_fs = new_fs
    state.freq_error_ppm = det_ppm + noise_phase_ns / dt_ns * 1e6
    state.last_update_ns = t_ns


def slew_phase(state: ClockState, delta_fs: int) -> None:
    """Apply an externally commanded phase change (servo slew or step) in
    place; a phase past the 64-bit ns range raises PhaseOverflowError."""
    new_fs = state.phase_fs + int(delta_fs)
    if abs(new_fs) > _MAX_PHASE_FS:
        raise PhaseOverflowError("phase accumulator overflow")
    state.phase_fs = new_fs


def read_clock(state: ClockState, t_ns: int,
               extra_freq_ppm: float = 0.0) -> int:
    """Node-local time in ns at true time t_ns.

    Extrapolates with the current frequency error (plus any externally
    applied steering rate) from the last update; pure.
    """
    delta_ns = t_ns - state.last_update_ns
    if delta_ns < 0:
        raise TimeReversalError(
            f"read at {SimInstant.from_ns(t_ns)} precedes clock state at "
            f"{SimInstant.from_ns(state.last_update_ns)}")
    drift_fs = round((state.freq_error_ppm + extra_freq_ppm) * delta_ns)
    return t_ns + _round_div(state.phase_fs + drift_fs, FS_PER_NS)


def _fft_len(target: int) -> int:
    """Smallest 2**a * 3**b * 5**c >= target.

    The real-FFT length scipy.fft.next_fast_len(target, real=True) picks.
    """
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < target:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def gen_power_law_noise(mu: float, amplitude: float, n: int, tau0_s: float,
                        seed) -> np.ndarray:
    """Fractional-frequency series with ADEV amplitude * tau**mu.

    mu selects the process: -0.5 white FM, 0 flicker FM, +0.5 random-walk
    FM. The flicker branch shapes white noise with the fractional
    differencing kernel h[i] = h[i-1] * (alpha/2 + i - 1) / i (alpha = 1),
    which realises a 1/f frequency spectrum; white and random-walk scale
    factors follow from the standard two-sample variance of iid and
    Wiener frequency processes.

    Deterministic per seed. Only the ADEV slope is contractual for the
    flicker branch; the level is calibrated to the amplitude.
    """
    n = int(n)
    if n < 2:
        raise ValueError("n must be >= 2")
    if amplitude < 0:
        raise ValueError("amplitude must be >= 0")
    if tau0_s <= 0:
        raise ValueError("tau0_s must be > 0")
    if amplitude == 0.0:
        return np.zeros(n)
    rng = np.random.default_rng(seed)
    if mu == WHITE_FM:
        # iid frequency: avar(tau) = sigma^2 * tau0 / tau
        return rng.standard_normal(n) * (amplitude / math.sqrt(tau0_s))
    if mu == RANDOM_WALK_FM:
        # Wiener frequency with rate q: avar(tau) = q * tau / 3
        step = amplitude * math.sqrt(3.0 * tau0_s)
        return np.cumsum(rng.standard_normal(n)) * step
    if mu == FLICKER_FM:
        h = [1.0] * n
        for i in range(1, n):
            h[i] = h[i - 1] * (0.5 + i - 1) / i
        w = rng.standard_normal(n)
        # Linear convolution through a zero-padded real FFT. The padded
        # length sets the rounding of every output sample. Recorded seeded
        # artifacts use the 5-smooth length; a power of two or exactly
        # 2n - 1 changes their last bits.
        size = _fft_len(2 * n - 1)
        y = np.fft.irfft(np.fft.rfft(h, size) * np.fft.rfft(w, size), size)[:n]
        return y * (amplitude / _FLICKER_UNIT_ADEV)
    raise ValueError(f"unsupported power-law exponent mu={mu}")


class NoiseStream:
    """Sequential per-step oscillator noise for one clock trajectory.

    Pre-generates the three component series at a nominal 1 s step and
    hands out one composite phase increment per advance() call. White FM
    is drawn per step and scaled by sqrt(dt) so off-nominal step sizes
    (for example edge-aligned sub-steps) stay physically consistent.
    """

    def __init__(self, params: OscillatorParams, seed, n_steps: int):
        self._i = 0
        kw, kf, kr = (params.noise_white_fm, params.noise_flicker_fm,
                      params.noise_randomwalk_fm)
        self._silent = kw == kf == kr == 0.0
        if self._silent:
            return
        seq = np.random.SeedSequence(seed) if not isinstance(
            seed, np.random.SeedSequence) else seed
        s_w, s_f, s_r = seq.spawn(3)
        n = max(2, int(n_steps))
        self._white_sigma = kw
        self._white = np.random.default_rng(s_w).standard_normal(n) if kw else None
        self._flicker = gen_power_law_noise(FLICKER_FM, kf, n, 1.0, s_f) if kf else None
        self._rw = gen_power_law_noise(RANDOM_WALK_FM, kr, n, 1.0, s_r) if kr else None
        self._n = n

    def next_phase_ns(self, dt_ns: int) -> float:
        """Integrated noise phase over one step, in nanoseconds, as a
        builtin float."""
        if self._silent:
            return 0.0
        if self._i >= self._n:
            raise NoiseExhausted(f"all {self._n} noise draws used")
        i = self._i
        self._i = i + 1
        dt_s = dt_ns / NS_PER_S
        phase = 0.0
        if self._white is not None:
            phase += self._white_sigma * math.sqrt(dt_s) * self._white[i] * NS_PER_S
        if self._flicker is not None:
            phase += self._flicker[i] * dt_ns
        if self._rw is not None:
            phase += self._rw[i] * dt_ns
        # A numpy scalar would reach ClockState and slow every clock read.
        return float(phase)
