import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsync import metrics
from tsync.metrics import AllanPoint, boxplot, fit_noise, overlapping_adev

DATA = os.path.join(os.path.dirname(__file__), "data")

finite_floats = st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False)


def adev_reference(phase_ns, tau0_s, m):
    """Direct double-loop transcription of the overlapping estimator."""
    x = [v * 1e-9 for v in phase_ns]
    n = len(x)
    acc = 0.0
    for i in range(n - 2 * m):
        d = x[i + 2 * m] - 2.0 * x[i + m] + x[i]
        acc += d * d
    return math.sqrt(acc / (2.0 * (n - 2 * m) * (m * tau0_s) ** 2))


class TestMeanStd:
    """A report's `mean_ns` and `std_ns`: the exact two-pass mean and the
    sample standard deviation (N-1 divisor)."""

    @staticmethod
    def mean_std(samples):
        rep = metrics.report(samples)
        return rep["mean_ns"], rep["std_ns"]

    def test_constant_series(self):
        assert self.mean_std([1, 1, 1]) == (1.0, 0.0)

    @given(st.lists(finite_floats, min_size=2, max_size=200))
    @settings(max_examples=100)
    def test_matches_naive_oracle(self, xs):
        mean, std = self.mean_std(xs)
        naive_mean = math.fsum(xs) / len(xs)
        naive_std = math.sqrt(
            math.fsum((v - naive_mean) ** 2 for v in xs) / (len(xs) - 1))
        scale = max(1.0, abs(naive_mean))
        assert abs(mean - naive_mean) <= 1e-12 * scale
        assert abs(std - naive_std) <= 1e-12 * max(1.0, naive_std)

    def test_shipped_suburban_sample(self):
        path = os.path.join(DATA, "suburban_sample.csv")
        with open(path) as fh:
            offsets = [int(line.split(",")[1])
                       for line in fh.read().splitlines()[1:]]
        mean, _ = self.mean_std(offsets)
        assert mean == pytest.approx(533.0, abs=5.0)


class TestOverlappingAdev:
    def test_linear_ramp_is_exactly_zero(self):
        phase = np.arange(0, 5000) * 17  # integer ns ramp
        for p in overlapping_adev(phase, 1.0, [1, 2, 4, 8]):
            assert p.adev == 0.0

    def test_matches_reference_formula(self):
        rng = np.random.default_rng(3)
        phase = rng.normal(0, 40.0, 3000)
        for m in (1, 3, 10, 64):
            (point,) = overlapping_adev(phase, 0.5, [m * 0.5])
            ref = adev_reference(phase, 0.5, m)
            assert point.adev == pytest.approx(ref, rel=1e-12)
            assert point.n_pairs == 3000 - 2 * m

    @given(st.integers(0, 2**31))
    @settings(max_examples=20)
    def test_shift_invariance(self, shift):
        rng = np.random.default_rng(8)
        phase = np.round(rng.normal(0, 1000.0, 600))
        base = overlapping_adev(phase, 1.0, [1, 4, 16])
        moved = overlapping_adev(phase + shift, 1.0, [1, 4, 16])
        assert [p.adev for p in base] == [p.adev for p in moved]

    def test_drift_invariance(self):
        rng = np.random.default_rng(9)
        phase = np.round(rng.normal(0, 1000.0, 600))
        ramp = np.arange(600) * 25
        base = overlapping_adev(phase, 1.0, [1, 4, 16])
        drifted = overlapping_adev(phase + ramp, 1.0, [1, 4, 16])
        for a, b in zip(base, drifted):
            assert a.adev == pytest.approx(b.adev, rel=1e-9)


class TestFitNoise:
    @staticmethod
    def template_points(kw, kf, kr, taus):
        return [AllanPoint(t, kw * t**-0.5 + kf + kr * t**0.5, 10)
                for t in taus]

    def test_exact_white_recovery(self):
        pts = self.template_points(3e-9, 0.0, 0.0, [1, 2, 4, 8, 16])
        fit = fit_noise(pts)
        assert fit["kappa_white"] == pytest.approx(3e-9, rel=1e-9)
        assert fit["kappa_flicker"] == pytest.approx(0.0, abs=1e-15)
        assert fit["kappa_randomwalk"] == pytest.approx(0.0, abs=1e-15)
        assert fit["residual"] < 1e-9

    def test_mixed_template_recovery_within_20pct(self):
        taus = [1, 2, 4, 8, 16, 32, 64, 128]
        rng = np.random.default_rng(5)
        pts = [AllanPoint(p.tau_s, p.adev * (1 + rng.uniform(-0.02, 0.02)), 10)
               for p in self.template_points(2e-9, 1e-9, 3e-10, taus)]
        fit = fit_noise(pts)
        assert fit["kappa_white"] == pytest.approx(2e-9, rel=0.2)
        assert fit["kappa_flicker"] == pytest.approx(1e-9, rel=0.2)
        assert fit["kappa_randomwalk"] == pytest.approx(3e-10, rel=0.2)

    def test_all_zero_curve_is_degenerate(self):
        pts = [AllanPoint(t, 0.0, 5) for t in (1, 4, 16)]
        with pytest.raises(ValueError, match="^all ADEV points are zero$"):
            fit_noise(pts)

    def test_needs_a_decade(self):
        pts = self.template_points(1e-9, 0, 0, [1, 2, 4])
        with pytest.raises(ValueError):
            fit_noise(pts)


# Solves random problems with `metrics.nnls` and with the public
# `scipy.optimize.nnls`, loading one of the two first, and prints how many
# answers differ in any bit (a problem on which both raise counts as equal).
NNLS_COMPARISON = """
import sys
import numpy as np
from tsync import metrics

if sys.argv[1] == "loader-first":
    metrics.nnls(np.ones((1, 1)), np.ones(1))
    assert "scipy.optimize" not in sys.modules
from scipy.optimize import nnls as reference

def solve(f, a, b):
    try:
        x, rnorm = f(a.copy(), b.copy())
    except RuntimeError as exc:
        return str(exc)
    return x.tobytes(), np.float64(rnorm).tobytes()

rng = np.random.default_rng(int(sys.argv[2]))
problems = int(sys.argv[3])
mismatches = 0
for k in range(problems):
    m, n = int(rng.integers(3, 41)), int(rng.integers(1, 7))
    a = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-8, 8, n)
    b = rng.standard_normal(m) * 10.0 ** rng.uniform(-8, 8)
    kind = k % 5
    if kind == 1:  # the noise fit's case: positive columns, unit targets
        a, b = np.abs(a), np.ones(m)
    elif kind == 2 and n > 1:  # a repeated column: rank-deficient
        a[:, -1] = a[:, 0]
    elif kind == 3:
        b = -np.abs(b)
    elif kind == 4:
        a[:, rng.integers(n)] = 0.0
    mismatches += solve(metrics.nnls, a, b) != solve(reference, a, b)
print(mismatches, problems)
"""


@pytest.mark.parametrize("order,seed", [("loader-first", 1),
                                        ("scipy-first", 2)])
def test_nnls_bits_match_scipy_optimize(order, seed):
    """`metrics.nnls` loads scipy's private compiled solver; a scipy release
    that renames or changes it fails here."""
    pytest.importorskip("scipy.optimize")
    src = os.path.dirname(os.path.dirname(os.path.abspath(metrics.__file__)))
    res = subprocess.run(
        [sys.executable, "-c", NNLS_COMPARISON, order, str(seed), "10000"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=300, check=True)
    assert res.stdout.split() == ["0", "10000"]


class TestBoxplot:
    def test_linear_interpolation_quartiles(self):
        box = boxplot([1, 2, 3, 4])
        assert (box.median, box.q1, box.q3) == (2.5, 1.75, 3.25)

    def test_single_sample(self):
        box = boxplot([7.0])
        assert (box.median, box.q1, box.q3, box.lower_whisker,
                box.upper_whisker) == (7.0,) * 5
        assert box.outliers == ()

    def test_outliers_beyond_fences(self):
        box = boxplot([1, 2, 3, 4, 100])
        assert box.outliers == (100.0,)
        assert box.upper_whisker == 4.0

    @given(st.lists(finite_floats, min_size=2, max_size=60), st.randoms())
    @settings(max_examples=60)
    def test_permutation_invariant(self, xs, rnd):
        shuffled = list(xs)
        rnd.shuffle(shuffled)
        assert boxplot(xs) == boxplot(shuffled)

    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=2,
                    max_size=40),
           st.floats(0.001, 1000.0))
    @settings(max_examples=60)
    def test_affine_positive_scaling(self, xs, scale):
        base = boxplot(xs)
        scaled = boxplot([x * scale for x in xs])
        for name in ("median", "q1", "q3", "lower_whisker", "upper_whisker"):
            assert getattr(scaled, name) == pytest.approx(
                getattr(base, name) * scale, rel=1e-9, abs=1e-6)


class TestReport:
    def test_composite_report_fields(self):
        y = np.sin(np.linspace(0, 20, 300)) * 1000
        rep = metrics.report(y, tau0_s=1.0)
        assert rep["n"] == 300
        assert rep["peak_to_peak_ns"] == rep["max_ns"] - rep["min_ns"]
        assert rep["adev"] and rep["box"]
