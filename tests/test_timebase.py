import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsync import metrics
from tsync.timebase import (_FLICKER_UNIT_ADEV, FLICKER_FM, ClockState,
                            NoiseStream, OscillatorParams, PhaseOverflowError,
                            SimInstant, TimeReversalError, _fft_len, advance,
                            gen_power_law_noise, nearest_second, read_clock,
                            slew_phase)

NS = 1_000_000_000


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

    @given(st.integers(-10**15, 10**15), st.integers(-10**15, 10**15))
    def test_ordering_matches_total_ns(self, a, b):
        assert (SimInstant.from_ns(a) < SimInstant.from_ns(b)) == (a < b)

    def test_round_s(self):
        assert nearest_second(int(1.4999e9)) == 1
        assert nearest_second(int(2.5001e9)) == 3
        assert nearest_second(NS // 2) == 1
        assert nearest_second(-NS // 2 - 1) == -1


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
        with pytest.raises(TimeReversalError, match="^event at 0 ns does not "
                           "move time forward from 0 ns$"):
            advance(ClockState(), OscillatorParams(), 0, 25.0)
        with pytest.raises(TimeReversalError, match="^event at 3 ns does not "
                           "move time forward from 5 ns$"):
            advance(ClockState(0, 0.0, 5), OscillatorParams(), -2, 25.0)

    def test_phase_overflow_raises(self):
        state = ClockState.from_offset_ns(2**63 - 10**9)
        with pytest.raises(PhaseOverflowError):
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
        with pytest.raises(PhaseOverflowError):
            slew_phase(state, 1)
        with pytest.raises(PhaseOverflowError):
            slew_phase(ClockState(-limit_fs), -1)
        assert state.phase_fs == limit_fs

    def test_deterministic_trajectories(self):
        params = OscillatorParams(noise_white_fm=1e-9, noise_flicker_fm=1e-9,
                                  noise_randomwalk_fm=1e-10)

        def run():
            stream = NoiseStream(params, 99, 64)
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
        stream = NoiseStream(params, 99, 64)
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
        with pytest.raises(TimeReversalError):
            read_clock(state, NS - 1)


class TestPowerLawNoise:
    def test_zero_amplitude_is_silent(self):
        y = gen_power_law_noise(-0.5, 0.0, 1000, 1.0, 1)
        assert not y.any()

    def test_unsupported_exponent(self):
        with pytest.raises(ValueError):
            gen_power_law_noise(1.0, 1e-9, 100, 1.0, 1)

    def test_deterministic_per_seed(self):
        a = gen_power_law_noise(0.0, 1e-9, 4096, 1.0, 7)
        b = gen_power_law_noise(0.0, 1e-9, 4096, 1.0, 7)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("mu,amp", [(-0.5, 1e-9), (0.0, 1e-9),
                                        (0.5, 1e-10)])
    def test_adev_slope_matches_exponent(self, mu, amp):
        y = gen_power_law_noise(mu, amp, 100_000, 1.0, 20_21)
        phase = metrics.frequency_to_phase_ns(y, 1.0)
        points = metrics.overlapping_adev(phase, 1.0, [4, 8, 16, 32, 64])
        assert metrics.adev_slope(points) == pytest.approx(mu, abs=0.1)

    @pytest.mark.parametrize("mu,amp", [(-0.5, 1e-9), (0.5, 1e-10)])
    def test_adev_level_matches_amplitude(self, mu, amp):
        y = gen_power_law_noise(mu, amp, 100_000, 1.0, 5)
        phase = metrics.frequency_to_phase_ns(y, 1.0)
        (point,) = metrics.overlapping_adev(phase, 1.0, [8.0])
        assert point.adev == pytest.approx(amp * 8.0**mu, rel=0.15)

    def test_white_scaling_with_tau0(self):
        y = gen_power_law_noise(-0.5, 1e-9, 50_000, 0.25, 11)
        assert float(np.std(y)) == pytest.approx(1e-9 / math.sqrt(0.25),
                                                 rel=0.05)

    @pytest.mark.parametrize("n", [2, 3, 1801, 4096, 172_816])
    def test_flicker_bits_match_fftconvolve(self, n):
        signal = pytest.importorskip("scipy.signal")
        h = np.empty(n)
        h[0] = 1.0
        for i in range(1, n):
            h[i] = h[i - 1] * (0.5 + i - 1) / i
        w = np.random.default_rng(19).standard_normal(n)
        ref = signal.fftconvolve(h, w)[:n] * (1e-9 / _FLICKER_UNIT_ADEV)
        y = gen_power_law_noise(FLICKER_FM, 1e-9, n, 1.0, 19)
        assert y.tobytes() == ref.tobytes()

    def test_fft_len_matches_next_fast_len(self):
        sp_fft = pytest.importorskip("scipy.fft")
        for t in [*range(1, 10_001), 2 * 172_816 - 1, 2**20 + 1, 10**9 + 7]:
            assert _fft_len(t) == sp_fft.next_fast_len(t, real=True), t
