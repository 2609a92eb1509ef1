"""Integer-nanosecond simulation time and free-running oscillator models.

All clocks are kept as integer nanoseconds on top of a femtosecond phase
accumulator, so deterministic drift audits are exact and independent of
step partitioning. Oscillator noise is generated as power-law fractional
frequency: white FM, flicker FM and random-walk FM, with amplitudes
expressed as the Allan-deviation level at tau = 1 s.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

NS_PER_S = 1_000_000_000
FS_PER_NS = 1_000_000

# Rows per text block of a written log or CSV: big enough to amortize the
# per-block call, small enough that one block's tuple stays a few MiB.
CSV_BLOCK = 4096

# Checked-arithmetic bound: instants and phase stay inside a 64-bit ns range.
_MAX_INSTANT_NS = 2**63 - 1
_MAX_PHASE_FS = (2**63 - 1) * FS_PER_NS

# Unit-variance fractional-differencing flicker input settles at a flat
# ADEV level of sqrt(2 ln2 / pi) (verified numerically; small-tau points
# sit a few percent above). Dividing by it makes the amplitude parameter
# the ADEV level directly.
_FLICKER_UNIT_ADEV = math.sqrt(2.0 * math.log(2.0) / math.pi)


@dataclass(frozen=True)
class SimInstant:
    """A point in time: whole seconds plus nanoseconds in [0, 1e9).

    The simulation itself passes plain integer nanoseconds; this type
    validates and formats an instant where one is shown, in warnings and
    errors.
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
# Config rules: each is declared once, as field metadata in JSON Schema's
# words. check_bounds enforces every keyword but `flatten` (the codec's
# prefix for a field written inline); scenario.json_schema publishes them.
# A keyword's test takes a sequence of values and the keyword's bound, and
# holds when every value passes: the rules on items check a column of all
# the items at once, so a trace's thousands of points cost no Python call
# each.


def _each(test):
    """The test that `test(value, bound)` holds for every value."""
    return lambda values, bound: all(map(test, values, itertools.repeat(bound)))


_BOUND_TESTS = {
    "minimum": _each(operator.ge), "exclusiveMinimum": _each(operator.gt),
    "maximum": _each(operator.le), "exclusiveMaximum": _each(operator.lt),
    "minLength": _each(lambda value, n: len(value) >= n),
    "minItems": _each(lambda value, n: len(value) >= n),
    "pattern": _each(lambda value, pattern: re.search(pattern, value)
                     is not None),
    "enum": _each(lambda value, allowed: value in allowed),
    "items": lambda values, schema: _obeys(
        list(itertools.chain.from_iterable(values)), schema),
    "prefixItems": lambda values, schemas: all(
        _obeys([value[i] for value in values if len(value) > i], schema)
        for i, schema in enumerate(schemas) if schema),
    "uniqueItems": _each(lambda value, on: not on
                         or len(set(value)) == len(value)),
}


def _obeys(values, schema: dict) -> bool:
    """Every one of `values` obeys `schema`."""
    return all(_BOUND_TESTS[key](values, bound) for key, bound in schema.items())


def is_digits(text: str) -> bool:
    """Whether text is a plain string of ASCII digits; int() alone would
    also take signs, spaces and underscores."""
    return text.isdigit() and text.isascii()


def is_sorted(values) -> bool:
    """Whether a sequence never decreases, in one pass."""
    return all(map(operator.le, values, itertools.islice(values, 1, None)))


# The `pattern` of a name that a run turns into a file or directory name:
# one path component, so no '/' or '\', and not '.' or '..'.
PATH_COMPONENT = r"^(?!\.\.?$)[^/\\]*$"


# Every temperature a config gives, in degrees C: from absolute zero to far
# past any oscillator's rating. Unbounded, a temperature of 1e300 passed
# the load and overflowed the phase accumulator inside the run.
TEMPERATURE_BOUNDS_C = {"minimum": -273.15, "maximum": 1000}


def config_field(default=MISSING, **schema):
    """A config dataclass field whose metadata holds JSON Schema keywords,
    such as `config_field(0.0, minimum=0, exclusiveMaximum=1)`."""
    return field(default=default, metadata=schema)


@functools.cache
def _bounds(cls) -> tuple:
    """(field, ((keyword, test, bound), ...)) for each field of cls that
    declares a rule; a keyword with no test raises KeyError."""
    out = []
    for f in fields(cls):
        tests = tuple((key, _BOUND_TESTS[key], bound)
                      for key, bound in f.metadata.items() if key != "flatten")
        if tests:
            out.append((f, tests))
    return tuple(out)


class OutOfBounds(ValueError):
    """A config field breaks a rule its metadata declares; the args are
    the field's name, its metadata and the failed keyword."""

    def __str__(self) -> str:
        return _bound_message(*self.args)


def check_bounds(config) -> None:
    """Raise OutOfBounds naming the first field of a config dataclass that
    breaks a rule its metadata declares. NaN passes no bound."""
    for f, tests in _bounds(type(config)):
        value = getattr(config, f.name)
        for key, test, bound in tests:
            if not test((value,), bound):
                raise OutOfBounds(f.name, dict(f.metadata), key)


class Bounded:
    """The base of every config dataclass: constructing one checks the
    rules its field metadata declares. A class with a rule across fields
    extends __post_init__ and raises ValueError."""

    def __post_init__(self):
        check_bounds(self)


def _bound_message(name: str, meta, key: str) -> str:
    if key == "pattern":  # PATH_COMPONENT, the one pattern in use
        return (f"{name} must be one path component: no '/' or '\\', "
                f"and not '.' or '..'")
    if key == "enum":
        return f"{name} must be one of {', '.join(meta['enum'])}"
    if key == "items":
        items = meta["items"]
        if "enum" in items:
            return f"{name} must each be one of {', '.join(items['enum'])}"
        return _bound_message(f"{name}[*]", items, "prefixItems")
    if key == "prefixItems":  # one bounded position, the one in use
        i, rule = next((i, rule) for i, rule in enumerate(meta[key]) if rule)
        return _bound_message(f"{name}[{i}]", rule, next(iter(rule)))
    if key == "uniqueItems":
        return f"{name} must be distinct"
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
class OscillatorParams(Bounded):
    """Static description of a free-running oscillator.

    Noise amplitudes are the per-process ADEV levels at tau = 1 s; each
    process alone produces ADEV amplitude * tau**mu with mu = -0.5
    (white FM), 0 (flicker FM) and +0.5 (random-walk FM).
    """

    f0_ppm: float = config_field(0.0, minimum=-1000, maximum=1000)
    temp_coeff_ppm_per_c: float = config_field(0.0, minimum=-1000,
                                               maximum=1000)
    ref_temp_c: float = config_field(25.0, **TEMPERATURE_BOUNDS_C)
    aging_ppm_per_day: float = config_field(0.0, minimum=-1000, maximum=1000)
    noise_white_fm: float = config_field(0.0, minimum=0, maximum=1e-3)
    noise_flicker_fm: float = config_field(0.0, minimum=0, maximum=1e-3)
    noise_randomwalk_fm: float = config_field(0.0, minimum=0, maximum=1e-3)

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
            temp_c: float, noise: NoiseStream) -> None:
    """Propagate a clock forward by dt_ns of true time, in place.

    Frequency is held piecewise constant over the step (evaluated at the
    step start), so deterministic drift is exact and independent of how
    an interval is partitioned. One draw of the `noise` stream is
    consumed per call; a silent stream adds none. A dt_ns that is not
    positive raises ValueError, and a phase or instant past the 64-bit ns
    range OverflowError, leaving `state` unchanged.
    """
    dt_ns = int(dt_ns)
    t_ns = state.last_update_ns + dt_ns
    if dt_ns <= 0:
        raise ValueError(
            f"event at {t_ns} ns does not move time "
            f"forward from {state.last_update_ns} ns")
    elapsed_days = state.last_update_ns / (86400.0 * NS_PER_S)
    det_ppm = params.freq_ppm_at(temp_c, elapsed_days)
    noise_phase_ns = noise.next_phase_ns(dt_ns)

    # 1 ppm * 1 ns == 1 fs, so the ppm product is already in femtoseconds.
    # round() also rejects a NaN or infinite frequency.
    inc_fs = round(det_ppm * dt_ns) + round(noise_phase_ns * FS_PER_NS)
    new_fs = state.phase_fs + inc_fs
    if abs(new_fs) > _MAX_PHASE_FS:
        raise OverflowError("phase accumulator overflow")
    if t_ns > _MAX_INSTANT_NS:
        raise OverflowError("instant outside 64-bit nanosecond range")

    state.phase_fs = new_fs
    state.freq_error_ppm = det_ppm + noise_phase_ns / dt_ns * 1e6
    state.last_update_ns = t_ns


def slew_phase(state: ClockState, delta_fs: int) -> None:
    """Apply an externally commanded phase change (servo slew or step) in
    place; a phase past the 64-bit ns range raises OverflowError."""
    new_fs = state.phase_fs + int(delta_fs)
    if abs(new_fs) > _MAX_PHASE_FS:
        raise OverflowError("phase accumulator overflow")
    state.phase_fs = new_fs


def read_clock(state: ClockState, t_ns: int,
               extra_freq_ppm: float = 0.0) -> int:
    """Node-local time in ns at true time t_ns.

    Extrapolates with the current frequency error (plus any externally
    applied steering rate) from the last update; pure.
    """
    delta_ns = t_ns - state.last_update_ns
    if delta_ns < 0:
        raise ValueError(
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


def _flicker_kernel(n: int) -> np.ndarray:
    """The first n taps of the fractional differencing kernel (Kasdin
    1995), h[i] = h[i-1] * ((i - 0.5) / i): one product of the rounded
    ratios, in C, within 1e-12 of the recurrence that divides last."""
    k = np.arange(1.0, n)
    return np.cumprod(np.concatenate(([1.0], (k - 0.5) / k)))


def flicker_fm_noise(amplitude: float, n: int, seed) -> np.ndarray:
    """Flicker FM fractional-frequency series at a 1 s step, with a flat
    ADEV of `amplitude`.

    Shapes white noise with the fractional differencing kernel, which
    realises a 1/f frequency spectrum. Deterministic per seed. Only the
    flat ADEV slope is contractual; the level is calibrated to the
    amplitude.
    """
    rng = np.random.default_rng(seed)
    h = _flicker_kernel(n)
    w = rng.standard_normal(n)
    # Linear convolution through a zero-padded real FFT. The padded
    # length sets the rounding of every output sample. Recorded seeded
    # artifacts use the 5-smooth length; a power of two or exactly
    # 2n - 1 changes their last bits.
    size = _fft_len(2 * n - 1)
    y = np.fft.irfft(np.fft.rfft(h, size) * np.fft.rfft(w, size), size)[:n]
    return y * (amplitude / _FLICKER_UNIT_ADEV)


def random_walk_fm_noise(amplitude: float, n: int, seed) -> np.ndarray:
    """Random-walk FM fractional-frequency series at a 1 s step, with ADEV
    amplitude * sqrt(tau). Deterministic per seed.

    The step follows from the two-sample variance of a Wiener frequency
    process with rate q: avar(tau) = q * tau / 3.
    """
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.standard_normal(n)) * (amplitude * math.sqrt(3.0))


class NoiseStream:
    """Sequential per-step oscillator noise for one clock trajectory.

    Pre-generates the three component series at a nominal 1 s step and
    hands out one composite phase increment per advance() call. White FM
    is drawn per step and scaled by sqrt(dt) so off-nominal step sizes
    (for example edge-aligned sub-steps) stay physically consistent.
    """

    def __init__(self, params: OscillatorParams,
                 seed: np.random.SeedSequence, n_steps: int):
        self._i = 0
        kw, kf, kr = (params.noise_white_fm, params.noise_flicker_fm,
                      params.noise_randomwalk_fm)
        self._silent = kw == kf == kr == 0.0
        if self._silent:
            return
        s_w, s_f, s_r = seed.spawn(3)
        n = max(2, int(n_steps))
        self._white_sigma = kw
        # Each series is read through a memoryview, whose items are
        # builtin floats; numpy scalars would slow every step's sum.
        self._white = memoryview(
            np.random.default_rng(s_w).standard_normal(n)) if kw else None
        self._flicker = memoryview(flicker_fm_noise(kf, n, s_f)) if kf else None
        self._rw = memoryview(random_walk_fm_noise(kr, n, s_r)) if kr else None
        self._n = n

    def next_phase_ns(self, dt_ns: int) -> float:
        """Integrated noise phase over one step, in nanoseconds, as a
        builtin float."""
        if self._silent:
            return 0.0
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
        return phase
