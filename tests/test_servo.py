import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from tsync.servo import (ServoConfig, ServoMode, ServoState, enter_holdover,
                         update)


def closed_loop(f_osc_ppm, n_updates, noise=None, cfg=None, start_phase=0.0):
    """Tiny fixed-point loop: constant oscillator error, 1 Hz samples."""
    servo = ServoState(cfg or ServoConfig(mode=ServoMode.PPS_ONLY))
    phase = start_phase
    offsets = []
    for k in range(1, n_updates + 1):
        phase += (f_osc_ppm + servo.freq_correction_ppm) * 1000.0
        e = int(round(phase + (noise[k - 1] if noise is not None else 0.0)))
        phase += update(servo, float(k), e)
        offsets.append(e)
    return servo, phase, offsets


class TestUpdate:
    def test_zero_offset_is_noop(self):
        servo = ServoState(ServoConfig())
        assert update(servo, 1.0, 0) == 0
        assert servo.freq_correction_ppm == 0.0

    def test_step_beyond_threshold(self):
        servo = ServoState(ServoConfig())
        assert update(servo, 1.0, 500_000_000) == -500_000_000
        assert servo.freq_correction_ppm == 0.0

    def test_step_idempotence(self):
        servo, phase, _ = closed_loop(0.0, 1, start_phase=5e8)
        assert phase == 0.0
        assert update(servo, 2.0, int(phase)) == 0
        assert servo.freq_correction_ppm == 0.0

    def test_convergence_to_constant_frequency_error(self):
        servo, _, _ = closed_loop(0.022, 300)
        assert servo.freq_correction_ppm == pytest.approx(-0.022, rel=0.05)

    def test_loop_pulls_offset_to_zero(self):
        _, phase, offsets = closed_loop(0.5, 2000)
        assert abs(offsets[-1]) <= 2
        assert abs(phase) <= 2

    def test_bounded_noise_keeps_correction_bounded(self):
        rng = np.random.default_rng(11)
        noise = rng.uniform(-1e6, 1e6, 5000)
        servo, _, offsets = closed_loop(0.3, 5000, noise=noise)
        assert abs(servo.freq_correction_ppm) < 100.0
        assert max(abs(o) for o in offsets) < 10_000_000

    def test_non_monotonic_rejected(self):
        servo = ServoState(ServoConfig())
        update(servo, 5.0, 10)
        with pytest.raises(ValueError, match=r"^sample at 5\.0s not after "
                           r"the last at 5\.0s$"):
            update(servo, 5.0, 12)

    def test_step_resets_the_monotonicity_check(self):
        servo = ServoState(ServoConfig())
        update(servo, 5.0, 10)
        assert update(servo, 6.0, 500_000_000) == -500_000_000
        assert update(servo, 6.0, 3) == 0
        with pytest.raises(ValueError, match=r"^sample at 6\.0s not after "
                           r"the last at 6\.0s$"):
            update(servo, 6.0, 3)

    def test_fit_leaves_the_loop_as_it_was(self):
        servo = ServoState(ServoConfig())
        update(servo, 1.0, 40)
        before = (servo.freq_correction_ppm, servo.last_offset_ns,
                  servo.last_elapsed_s)
        samples = [(float(t), 100) for t in range(2, 70)]
        assert enter_holdover(samples) == \
            pytest.approx(0.0, abs=1e-9)
        assert (servo.freq_correction_ppm, servo.last_offset_ns,
                servo.last_elapsed_s) == before
        assert update(servo, 100.0, 3) == 0
        assert servo.freq_correction_ppm != before[0]


class TestHoldover:
    @staticmethod
    def ramp(slope_ns_per_s, n_s, noise_sigma=0.0, seed=0):
        rng = np.random.default_rng(seed)
        samples = []
        for t in range(1, n_s + 1):
            off = slope_ns_per_s * t + (rng.normal(0, noise_sigma)
                                        if noise_sigma else 0.0)
            samples.append((float(t), int(round(off))))
        return samples

    def test_zero_drift_gives_zero_slope(self):
        assert enter_holdover(self.ramp(0.0, 90)) == \
            pytest.approx(0.0, abs=1e-9)

    def test_free_run_drift_slope_recovered(self):
        # 80 us/h uncorrected drift with some measurement noise
        samples = self.ramp(80_000 / 3600, 120, noise_sigma=30.0, seed=4)
        assert enter_holdover(samples) == \
            pytest.approx(22.22, rel=0.10)

    def test_linear_history_is_exact(self):
        slope = enter_holdover(self.ramp(17.0, 90))
        assert abs(slope - 17.0) < 1.0
        assert slope * 50.0 == pytest.approx(17.0 * 50.0, abs=50.0)

    def test_tunnel_scale_prediction(self):
        slope = enter_holdover(self.ramp(22.2, 120))
        # five minutes of outage at the fitted slope
        assert slope * 300.0 == pytest.approx(6660.0, rel=0.05)


class TestConfig:
    def test_gain_validation(self):
        with pytest.raises(ValueError):
            ServoConfig(kp=0.0)
        with pytest.raises(ValueError):
            ServoConfig(ki=-1.0)
        with pytest.raises(ValueError):
            ServoConfig(step_threshold_ns=0)

    @given(st.floats(0.01, 3.0), st.floats(0.01, 5.0))
    @example(0.5, 2.9)
    @example(1.9, 0.15)
    @example(0.5, 3.1)
    @example(1.9, 0.25)
    def test_gains_accepted_exactly_inside_the_stability_triangle(self, kp,
                                                                  ki):
        # Stability from the roots of the loop's characteristic polynomial
        # z^2 + (kp + ki - 2) z + (1 - kp), not from the rule under test.
        radius = max(abs(np.roots([1.0, kp + ki - 2.0, 1.0 - kp])))
        assume(abs(radius - 1.0) > 1e-6)
        if radius < 1.0:
            ServoConfig(kp=kp, ki=ki)
        else:
            with pytest.raises(ValueError, match="must be"):
                ServoConfig(kp=kp, ki=ki)
