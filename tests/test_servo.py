import datetime

import numpy as np
import pytest

from tsync.nmea import GnssFix
from tsync.servo import (ClockAdjustment, HoldoverInactive, InsufficientHistory,
                         InvalidFix, NonMonotonicSample, OffsetSample,
                         SampleSource, ServoConfig, ServoMode, ServoState,
                         enter_holdover, measure_offset_nmea, observe,
                         predict_offset, update)

EPOCH = datetime.date(2021, 1, 1)


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
        servo, adj = update(servo, pps_sample(float(k), e))
        if adj.stepped:
            phase += adj.step_ns
        offsets.append(e)
    return servo, phase, offsets


class TestMeasurement:
    def test_nmea_perfect_clock_exact_delay_estimate(self):
        fix = GnssFix(0, EPOCH, True, 8)
        s = measure_offset_nmea(fix, 80_000_000, 80_000_000, EPOCH)
        assert s.offset_ns == 0
        assert s.source is SampleSource.NMEA

    def test_nmea_unmodeled_bias_passes_through(self):
        fix = GnssFix(0, EPOCH, True, 8)
        s = measure_offset_nmea(fix, 85_000_000, 80_000_000, EPOCH)
        assert s.offset_ns == 5_000_000

    def test_nmea_invalid_fix_rejected(self):
        fix = GnssFix(0, EPOCH, False, 2)
        with pytest.raises(InvalidFix):
            measure_offset_nmea(fix, 0, 0, EPOCH)


class TestUpdate:
    def test_zero_offset_is_noop(self):
        servo = ServoState(ServoConfig())
        servo, adj = update(servo, pps_sample(1.0, 0))
        assert adj == ClockAdjustment(0, 0.0, False)
        assert servo.freq_correction_ppm == 0.0

    def test_step_beyond_threshold(self):
        servo = ServoState(ServoConfig())
        servo, adj = update(servo, pps_sample(1.0, 500_000_000))
        assert adj.stepped and adj.step_ns == -500_000_000
        assert not servo.offset_history

    def test_step_idempotence(self):
        servo, phase, _ = closed_loop(0.0, 1, start_phase=5e8)
        assert phase == 0.0
        servo, adj = update(servo, pps_sample(2.0, int(phase)))
        assert not adj.stepped and adj.step_ns == 0
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
        servo, _ = update(servo, pps_sample(5.0, 10))
        with pytest.raises(NonMonotonicSample):
            update(servo, pps_sample(5.0, 12))

    def test_history_appended_and_holdover_cleared(self):
        servo = ServoState(ServoConfig())
        observe(servo, pps_sample(1.0, 5))
        enter_able = ServoState(ServoConfig())
        for t in range(1, 70):
            observe(enter_able, pps_sample(float(t), 100))
        enter_holdover(enter_able)
        assert enter_able.holdover.active
        enter_able, _ = update(enter_able, pps_sample(100.0, 3))
        assert not enter_able.holdover.active


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
        enter_holdover(servo)
        assert servo.holdover.slope_ns_per_s == pytest.approx(0.0, abs=1e-9)

    def test_free_run_drift_slope_recovered(self):
        # 80 us/h uncorrected drift with some measurement noise
        servo = self.ramp_history(80_000 / 3600, 120, noise_sigma=30.0, seed=4)
        enter_holdover(servo)
        assert servo.holdover.slope_ns_per_s == pytest.approx(22.22, rel=0.10)

    def test_linear_history_is_exact(self):
        servo = self.ramp_history(17.0, 90)
        enter_holdover(servo)
        assert abs(servo.holdover.slope_ns_per_s - 17.0) < 1.0
        predicted = predict_offset(servo, 50.0)
        assert predicted == pytest.approx(17.0 * 50.0, abs=50.0)

    def test_insufficient_history(self):
        servo = ServoState(ServoConfig())
        observe(servo, pps_sample(1.0, 0))
        with pytest.raises(InsufficientHistory):
            enter_holdover(servo)
        servo2 = self.ramp_history(1.0, 30)  # spans < 60 s
        with pytest.raises(InsufficientHistory):
            enter_holdover(servo2)

    def test_prediction_requires_active_holdover(self):
        servo = ServoState(ServoConfig())
        with pytest.raises(HoldoverInactive):
            predict_offset(servo, 10.0)

    def test_tunnel_scale_prediction(self):
        servo = self.ramp_history(22.2, 120)
        enter_holdover(servo)
        # five minutes of outage at the fitted slope
        assert predict_offset(servo, 300.0) == pytest.approx(6660.0, rel=0.05)


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
