import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsync import metrics
from tsync.timebase import (_FLICKER_UNIT_ADEV, ClockState, NoiseStream,
                            OscillatorParams, SimInstant, _fft_len,
                            _flicker_kernel, advance,
                            flicker_fm_noise, is_sorted, nearest_second,
                            random_walk_fm_noise, read_clock, slew_phase)

NS = 1_000_000_000
PHASE_OVERFLOW = "^phase accumulator overflow$"


def noise_phase_ns(params, seed, n, dt_ns=NS):
    """Phase samples (ns) of a clock's oscillator noise alone: n steps of
    dt_ns drawn from the NoiseStream a run uses."""
    stream = NoiseStream(params, np.random.SeedSequence(seed), n)
    return np.cumsum([0.0] + [stream.next_phase_ns(dt_ns) for _ in range(n)])


class TestSimInstant:
    def test_normalization(self):
        t = SimInstant.from_ns(3 * NS + 250)
        assert (t.seconds, t.frac_ns) == (3, 250)
        t = SimInstant.from_ns(-1)
        assert (t.seconds, t.frac_ns) == (-1, NS - 1)

    def test_frac_range_enforced(self):
        with pytest.raises(ValueError):
            SimInstant(0, NS)
        with pytest.raises(ValueError):
            SimInstant(0, -1)

    def test_overflow_checked(self):
        with pytest.raises(OverflowError):
            SimInstant.from_ns(2**63)
        with pytest.raises(OverflowError):
            SimInstant.from_ns(2**63 - 1 + 10)

    def test_round_s(self):
        assert nearest_second(int(1.4999e9)) == 1
        assert nearest_second(int(2.5001e9)) == 3
        assert nearest_second(NS // 2) == 1
        assert nearest_second(-NS // 2 - 1) == -1


@given(st.lists(st.integers(-3, 3), max_size=8))
def test_is_sorted_is_equality_with_the_sorted_copy(values):
    assert is_sorted(values) == (values == sorted(values))
    assert is_sorted(tuple(values)) == (values == sorted(values))


class TestAdvance:
    def test_all_zero_params_identity(self):
        state = ClockState()
        for _ in range(5):
            assert advance(state, OscillatorParams(), NS, 25.0) is None
        assert state.phase_offset_ns == 0
        assert state.last_update_ns == 5 * NS

    def test_100ppm_one_second(self):
        state = ClockState()
        advance(state, OscillatorParams(f0_ppm=100.0), NS, 25.0)
        assert state.phase_offset_ns == 100_000

    def test_free_run_drift_80us_per_hour(self):
        f0 = 80_000 / 3600 / 1000  # 80 us over an hour, in ppm
        state = ClockState()
        advance(state, OscillatorParams(f0_ppm=f0), 3600 * NS, 25.0)
        assert abs(state.phase_offset_ns - 80_000) <= 1

    def test_temperature_coefficient(self):
        params = OscillatorParams(temp_coeff_ppm_per_c=0.5, ref_temp_c=20.0)
        state = ClockState()
        advance(state, params, NS, 24.0)
        assert state.phase_offset_ns == 2000
        assert state.freq_error_ppm == pytest.approx(2.0)

    def test_step_partition_invariance(self):
        params = OscillatorParams(f0_ppm=3.7)
        whole, split = ClockState(), ClockState()
        advance(whole, params, NS, 25.0)
        for _ in range(10):
            advance(split, params, NS // 10, 25.0)
        assert abs(whole.phase_offset_ns - split.phase_offset_ns) <= 1

    @given(st.floats(-100.0, 100.0, allow_nan=False),
           st.lists(st.integers(1, 10**9), min_size=2, max_size=12))
    @settings(max_examples=60)
    def test_partition_invariance_any_split(self, f0, cuts):
        params = OscillatorParams(f0_ppm=f0)
        total = sum(cuts)
        whole, split = ClockState(), ClockState()
        advance(whole, params, total, 25.0)
        for dt in cuts:
            advance(split, params, dt, 25.0)
        assert abs(whole.phase_offset_ns - split.phase_offset_ns) <= 1

    def test_aging_enters_frequency(self):
        params = OscillatorParams(aging_ppm_per_day=0.5)
        state = ClockState(0, 0.0, 86_400 * NS)
        advance(state, params, NS, 25.0)
        assert state.freq_error_ppm == pytest.approx(0.5)
        assert state.phase_offset_ns == 500

    @given(st.lists(st.integers(1, 10 * NS), min_size=1, max_size=20))
    @settings(max_examples=50)
    def test_zero_input_invariance_any_schedule(self, steps):
        state = ClockState.from_offset_ns(42)
        for dt in steps:
            advance(state, OscillatorParams(), dt, 31.0)
        assert state.phase_offset_ns == 42

    def test_dt_must_be_positive(self):
        with pytest.raises(ValueError, match="^event at 0 ns does not "
                           "move time forward from 0 ns$"):
            advance(ClockState(), OscillatorParams(), 0, 25.0)
        with pytest.raises(ValueError, match="^event at 3 ns does not "
                           "move time forward from 5 ns$"):
            advance(ClockState(0, 0.0, 5), OscillatorParams(), -2, 25.0)

    def test_phase_overflow_raises(self):
        state = ClockState.from_offset_ns(2**63 - 10**9)
        with pytest.raises(OverflowError, match=PHASE_OVERFLOW):
            advance(state, OscillatorParams(f0_ppm=1000.0), 10**15 * NS // 1000,
                    25.0)
        assert state == ClockState.from_offset_ns(2**63 - 10**9)

    def test_instant_overflow_raises(self):
        state = ClockState(0, 0.0, 2**63 - 10)
        with pytest.raises(OverflowError, match="^instant outside"):
            advance(state, OscillatorParams(), 10, 25.0)
        assert state == ClockState(0, 0.0, 2**63 - 10)
        advance(state, OscillatorParams(), 9, 25.0)
        assert state.last_update_ns == 2**63 - 1

    def test_slew_phase_overflow_raises(self):
        limit_fs = (2**63 - 1) * 1_000_000
        state = ClockState(limit_fs - 5)
        assert slew_phase(state, 5) is None
        assert state.phase_fs == limit_fs
        with pytest.raises(OverflowError, match=PHASE_OVERFLOW):
            slew_phase(state, 1)
        with pytest.raises(OverflowError, match=PHASE_OVERFLOW):
            slew_phase(ClockState(-limit_fs), -1)
        assert state.phase_fs == limit_fs

    def test_deterministic_trajectories(self):
        params = OscillatorParams(noise_white_fm=1e-9, noise_flicker_fm=1e-9,
                                  noise_randomwalk_fm=1e-10)

        def run():
            stream = NoiseStream(params, np.random.SeedSequence(99), 64)
            state = ClockState()
            out = []
            for _ in range(50):
                advance(state, params, NS, 25.0, stream)
                out.append(state.phase_fs)
            return out

        assert run() == run()

    @pytest.mark.parametrize("noise", [
        {"noise_white_fm": 1e-9}, {"noise_flicker_fm": 1e-9},
        {"noise_randomwalk_fm": 1e-10},
        {"noise_white_fm": 1e-9, "noise_flicker_fm": 1e-9,
         "noise_randomwalk_fm": 1e-10}])
    def test_noise_phase_is_a_builtin_float(self, noise):
        # A numpy scalar here would be stored in ClockState.freq_error_ppm
        # and make every later clock read compute on numpy scalars.
        params = OscillatorParams(**noise)
        stream = NoiseStream(params, np.random.SeedSequence(99), 64)
        assert type(stream.next_phase_ns(NS)) is float
        state = ClockState()
        advance(state, params, NS, 25.0, stream)
        assert type(state.freq_error_ppm) is float


class TestReadClock:
    def test_perfect_clock(self):
        assert read_clock(ClockState(), 123456789) == 123456789

    def test_fixed_offset(self):
        state = ClockState.from_offset_ns(42)
        assert read_clock(state, 5 * NS) == 5 * NS + 42

    def test_frequency_extrapolation(self):
        state = ClockState.from_offset_ns(0, freq_error_ppm=1.0)
        assert read_clock(state, NS) == NS + 1000

    def test_time_reversal_rejected(self):
        state = ClockState(0, 0.0, NS)
        with pytest.raises(ValueError, match=r"^read at 0\.999999999s "
                           r"precedes clock state at 1\.000000000s$"):
            read_clock(state, NS - 1)


# The OscillatorParams amplitude of each power-law process, by exponent.
NOISE_FIELD = {-0.5: "noise_white_fm", 0.0: "noise_flicker_fm",
               0.5: "noise_randomwalk_fm"}


class TestPowerLawNoise:
    def test_zero_amplitude_is_silent(self):
        assert not noise_phase_ns(OscillatorParams(), 1, 1000).any()

    def test_deterministic_per_seed(self):
        for noise in (flicker_fm_noise, random_walk_fm_noise):
            a = noise(1e-9, 4096, 7)
            assert np.array_equal(a, noise(1e-9, 4096, 7))
            assert not np.array_equal(a, noise(1e-9, 4096, 8))

    @pytest.mark.parametrize("mu,amp", [(-0.5, 1e-9), (0.0, 1e-9),
                                        (0.5, 1e-10)])
    def test_adev_slope_matches_exponent(self, mu, amp):
        params = OscillatorParams(**{NOISE_FIELD[mu]: amp})
        phase = noise_phase_ns(params, 20_21, 100_000)
        points = metrics.overlapping_adev(phase, 1.0, [4, 8, 16, 32, 64])
        assert metrics.adev_slope(points) == pytest.approx(mu, abs=0.1)

    @pytest.mark.parametrize("mu,amp", [(-0.5, 1e-9), (0.0, 1e-9),
                                        (0.5, 1e-10)])
    def test_adev_level_matches_amplitude(self, mu, amp):
        params = OscillatorParams(**{NOISE_FIELD[mu]: amp})
        phase = noise_phase_ns(params, 5, 100_000)
        (point,) = metrics.overlapping_adev(phase, 1.0, [8.0])
        assert point.adev == pytest.approx(amp * 8.0**mu, rel=0.15)

    def test_white_scaling_with_tau0(self):
        # White FM phase grows with sqrt(dt): at 0.25 s steps the
        # per-step frequency deviation doubles.
        dt_ns = NS // 4
        phase = noise_phase_ns(OscillatorParams(noise_white_fm=1e-9), 11,
                               50_000, dt_ns)
        freq = np.diff(phase) / dt_ns
        assert float(np.std(freq)) == pytest.approx(1e-9 / math.sqrt(0.25),
                                                    rel=0.05)

    @pytest.mark.parametrize("n", [2, 3, 1801, 4096, 172_816])
    def test_flicker_bits_match_fftconvolve(self, n):
        signal = pytest.importorskip("scipy.signal")
        h = np.empty(n)
        h[0] = 1.0
        for i in range(1, n):
            h[i] = h[i - 1] * ((i - 0.5) / i)
        w = np.random.default_rng(19).standard_normal(n)
        ref = signal.fftconvolve(h, w)[:n] * (1e-9 / _FLICKER_UNIT_ADEV)
        y = flicker_fm_noise(1e-9, n, 19)
        assert y.tobytes() == ref.tobytes()

    def test_flicker_kernel_stays_near_the_divide_last_recurrence(self):
        # h[i] = h[i-1] * (i - 0.5) / i, rounded after the product and
        # again after the division, at the length of a 24 h run's old
        # stream.
        n = 172_816
        ref = np.empty(n)
        ref[0] = 1.0
        for i in range(1, n):
            ref[i] = ref[i - 1] * (i - 0.5) / i
        h = _flicker_kernel(n)
        assert np.max(np.abs(h - ref) / ref) <= 1e-12

    def test_fft_len_matches_next_fast_len(self):
        sp_fft = pytest.importorskip("scipy.fft")
        for t in [*range(1, 10_001), 2 * 172_816 - 1, 2**20 + 1, 10**9 + 7]:
            assert _fft_len(t) == sp_fft.next_fast_len(t, real=True), t
