import numpy as np
import pytest

from tsync.servo import (InsufficientHistory, NonMonotonicSample, OffsetSample,
                         SampleSource, ServoConfig, ServoMode, ServoState,
                         enter_holdover, observe, update)


def pps_sample(t: float, offset: int) -> OffsetSample:
    return OffsetSample(t, offset, SampleSource.PPS)


def closed_loop(f_osc_ppm, n_updates, noise=None, cfg=None, start_phase=0.0):
    """Tiny fixed-point loop: constant oscillator error, 1 Hz samples."""
    servo = ServoState(cfg or ServoConfig(mode=ServoMode.PPS_ONLY))
    phase = start_phase
    offsets = []
    for k in range(1, n_updates + 1):
        phase += (f_osc_ppm + servo.freq_correction_ppm) * 1000.0
        e = int(round(phase + (noise[k - 1] if noise is not None else 0.0)))
        phase += update(servo, pps_sample(float(k), e))
        offsets.append(e)
    return servo, phase, offsets


class TestUpdate:
    def test_zero_offset_is_noop(self):
        servo = ServoState(ServoConfig())
        assert update(servo, pps_sample(1.0, 0)) == 0
        assert servo.freq_correction_ppm == 0.0

    def test_step_beyond_threshold(self):
        servo = ServoState(ServoConfig())
        assert update(servo, pps_sample(1.0, 500_000_000)) == -500_000_000
        assert not servo.offset_history
        assert servo.freq_correction_ppm == 0.0

    def test_step_idempotence(self):
        servo, phase, _ = closed_loop(0.0, 1, start_phase=5e8)
        assert phase == 0.0
        assert update(servo, pps_sample(2.0, int(phase))) == 0
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
        update(servo, pps_sample(5.0, 10))
        with pytest.raises(NonMonotonicSample):
            update(servo, pps_sample(5.0, 12))

    def test_history_appended_and_holdover_cleared(self):
        # The fit leaves the loop as it was: the next sample steers it.
        servo = ServoState(ServoConfig())
        for t in range(1, 70):
            observe(servo, pps_sample(float(t), 100))
        assert list(servo.offset_history)[:2] == [(1.0, 100), (2.0, 100)]
        assert enter_holdover(servo) == pytest.approx(0.0, abs=1e-9)
        assert update(servo, pps_sample(100.0, 3)) == 0
        assert servo.offset_history[-1] == (100.0, 3)
        assert servo.freq_correction_ppm != 0.0


class TestHoldover:
    @staticmethod
    def ramp_history(slope_ns_per_s, n_s, noise_sigma=0.0, seed=0):
        rng = np.random.default_rng(seed)
        servo = ServoState(ServoConfig(holdover_window_s=120.0))
        for t in range(1, n_s + 1):
            off = slope_ns_per_s * t + (rng.normal(0, noise_sigma)
                                        if noise_sigma else 0.0)
            observe(servo, OffsetSample(float(t), int(round(off)),
                                        SampleSource.HOLDOVER))
        return servo

    def test_zero_drift_gives_zero_slope(self):
        servo = self.ramp_history(0.0, 90)
        assert enter_holdover(servo) == pytest.approx(0.0, abs=1e-9)

    def test_free_run_drift_slope_recovered(self):
        # 80 us/h uncorrected drift with some measurement noise
        servo = self.ramp_history(80_000 / 3600, 120, noise_sigma=30.0, seed=4)
        assert enter_holdover(servo) == pytest.approx(22.22, rel=0.10)

    def test_linear_history_is_exact(self):
        slope = enter_holdover(self.ramp_history(17.0, 90))
        assert abs(slope - 17.0) < 1.0
        assert slope * 50.0 == pytest.approx(17.0 * 50.0, abs=50.0)

    def test_insufficient_history(self):
        servo = ServoState(ServoConfig())
        observe(servo, pps_sample(1.0, 0))
        with pytest.raises(InsufficientHistory):
            enter_holdover(servo)
        servo2 = self.ramp_history(1.0, 30)  # spans < 60 s
        with pytest.raises(InsufficientHistory):
            enter_holdover(servo2)

    def test_tunnel_scale_prediction(self):
        slope = enter_holdover(self.ramp_history(22.2, 120))
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

    def test_mode_exposed(self):
        servo = ServoState(ServoConfig(mode=ServoMode.NMEA_ONLY))
        assert servo.mode is ServoMode.NMEA_ONLY
