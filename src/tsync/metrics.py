"""Statistics for clock offset series.

Covers the overlapping Allan deviation with a power-law noise-template
fit, five-number box summaries, and the report that adds the exact mean
and sample standard deviation to them.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
from typing import NamedTuple

import numpy as np

# Template exponents fitted against ADEV curves: white, flicker and
# random-walk frequency modulation.
TEMPLATE_MUS = (-0.5, 0.0, 0.5)


class AllanPoint(NamedTuple):
    """Overlapping Allan deviation at one averaging time."""

    tau_s: float
    adev: float
    n_pairs: int


class BoxStats(NamedTuple):
    """Box-plot summary: quartiles, Tukey whiskers and outliers."""

    median: float
    q1: float
    q3: float
    lower_whisker: float
    upper_whisker: float
    outliers: tuple


def overlapping_adev(phase_ns, tau0_s: float, taus_s) -> list[AllanPoint]:
    """Overlapping Allan deviation from phase samples (ns) at spacing tau0.

    For each tau = m * tau0:

        avar(tau) = sum_i (x[i+2m] - 2 x[i+m] + x[i])^2 / (2 (N-2m) tau^2)

    with x in seconds and i running over all N-2m overlapping triples.
    Second differences are taken on the raw nanosecond values so integer
    ramps cancel exactly. Each tau must be a whole multiple m of tau0 with
    N >= 2m + 1, as `default_taus` gives.
    """
    x = np.asarray(phase_ns, dtype=float)
    n = x.size
    points = []
    for tau in taus_s:
        m = round(tau / tau0_s)
        d = x[2 * m:] - 2.0 * x[m:n - m] + x[:n - 2 * m]
        avar = float(np.sum((d * 1e-9) ** 2)) / (2.0 * (n - 2 * m) * tau * tau)
        points.append(AllanPoint(float(tau), math.sqrt(avar), n - 2 * m))
    return points


def default_taus(n: int, tau0_s: float) -> list[float]:
    """Octave-spaced averaging times usable for a series of length n."""
    taus = []
    m = 1
    while n >= 2 * m + 1:
        taus.append(m * tau0_s)
        m *= 2
    return taus


@functools.cache
def _nnls_kernel():
    """scipy's compiled Lawson-Hanson solver, `nnls(A, b, maxiter) ->
    (x, rnorm, info)`, loaded straight from its extension file: the
    `scipy.optimize` package, which imports some 300 scipy modules the
    fit never uses, is not run."""
    scipy_spec = importlib.util.find_spec("scipy")
    spec = scipy_spec and importlib.machinery.FileFinder(
        os.path.join(scipy_spec.submodule_search_locations[0], "optimize"),
        (importlib.machinery.ExtensionFileLoader,
         importlib.machinery.EXTENSION_SUFFIXES)).find_spec("_slsqplib")
    if spec is None:
        raise ImportError("scipy.optimize._slsqplib not found; "
                          "the noise fit needs scipy 1.17.x")
    # The extension starts scipy's OpenBLAS, which reads its thread count
    # once, at start; by default it starts worker threads that spin for
    # a while before they sleep. A three-column solve never uses them.
    unset = "OPENBLAS_NUM_THREADS" not in os.environ
    if unset:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        if unset:
            del os.environ["OPENBLAS_NUM_THREADS"]
    return module.nnls


def nnls(a, b) -> tuple[np.ndarray, float]:
    """`scipy.optimize.nnls(a, b)`: the same input checks, iteration cap
    and compiled routine, so the same bits."""
    a = np.asarray_chkfinite(a, dtype=np.float64, order="C")
    b = np.asarray_chkfinite(b, dtype=np.float64)
    x, rnorm, info = _nnls_kernel()(a, b, 3 * a.shape[1])
    if info == 3:
        raise RuntimeError("Maximum number of iterations reached.")
    return x, rnorm


def fit_noise(points: list[AllanPoint]) -> dict:
    """Nonnegative least-squares fit of the three-slope noise template
    adev(tau) ~ sum of kappa * tau**mu, as the mapping a report holds:
    `kappa_white`, `kappa_flicker`, `kappa_randomwalk` and `residual`.

    The rows are weighted by 1/adev so the fit minimises relative error,
    which approximates a log-domain fit; the reported residual is the RMS
    of ln(model/adev) over the fitted points.
    """
    if len(points) < 3:
        raise ValueError("need at least 3 ADEV points")
    taus = np.array([p.tau_s for p in points])
    if taus.max() / taus.min() < 10.0 - 1e-9:
        raise ValueError("ADEV points must span at least one decade of tau")
    adevs = np.array([p.adev for p in points])
    mask = adevs > 0
    if not mask.any():
        raise ValueError("all ADEV points are zero")
    t, a = taus[mask], adevs[mask]
    basis = np.stack([t**mu for mu in TEMPLATE_MUS], axis=1)
    coef, _ = nnls(basis / a[:, None], np.ones(a.size))
    model = basis @ coef
    ok = model > 0
    residual = float(np.sqrt(np.mean(np.log(model[ok] / a[ok]) ** 2))) if ok.any() else math.inf
    return {"kappa_white": float(coef[0]), "kappa_flicker": float(coef[1]),
            "kappa_randomwalk": float(coef[2]), "residual": residual}


def boxplot(samples) -> BoxStats:
    """Five-number box summary with linear-interpolation quartiles.

    Whiskers extend to the most extreme samples within 1.5 IQR of the
    quartiles; anything beyond is reported as an outlier. The samples
    must not be empty.
    """
    x = np.asarray(samples, dtype=float)
    q1, med, q3 = (float(v) for v in np.percentile(x, [25.0, 50.0, 75.0]))
    iqr = q3 - q1
    lo_fence, hi_fence = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    inside = x[(x >= lo_fence) & (x <= hi_fence)]
    # Whiskers never retreat inside the box (interpolated quartiles may
    # exceed every non-outlier sample).
    lower = min(float(inside.min()), q1) if inside.size else q1
    upper = max(float(inside.max()), q3) if inside.size else q3
    outliers = tuple(float(v) for v in np.sort(x[(x < lo_fence) | (x > hi_fence)]))
    return BoxStats(med, q1, q3, lower, upper, outliers)


def report(offsets_ns, tau0_s: float = 1.0) -> dict:
    """Composite JSON-ready report: moments, ADEV curve, noise fit, box."""
    x = np.asarray(offsets_ns, dtype=float)
    mean = float(np.mean(x)) if x.size else 0.0
    out: dict = {
        "n": int(x.size),
        "mean_ns": mean,
        # Two-pass sample standard deviation (N-1 divisor).
        "std_ns": (math.sqrt(float(np.sum((x - mean) ** 2)) / (x.size - 1))
                   if x.size >= 2 else 0.0),
        "max_ns": float(np.max(x)) if x.size else 0.0,
        "min_ns": float(np.min(x)) if x.size else 0.0,
    }
    out["peak_to_peak_ns"] = out["max_ns"] - out["min_ns"]
    taus = default_taus(x.size, tau0_s)
    if taus:
        points = overlapping_adev(x, tau0_s, taus)
        out["adev"] = [[p.tau_s, p.adev] for p in points]
        try:
            out["noise_fit"] = fit_noise(points)
        except ValueError:
            out["noise_fit"] = None
    else:
        out["adev"] = []
        out["noise_fit"] = None
    out["box"] = boxplot(x)._asdict() if x.size else None
    return out
