"""Statistical machinery for comparing simulation runs.

Summaries, goodness-of-fit and two-sample tests, and clock-drift
measurement.  Everything here is a pure function over immutable inputs.

p-values are asymptotic and guarded by minimum-n checks: one-sample KS
computes its statistic for any nonempty sample but refuses to attach a
p-value below n = 8, and the two-sample test requires both sides to have at
least 8 points.  All intended uses run at n >= 10**4, far inside the
asymptotic regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy.special import bdtrc, gammaincc, stdtr

__all__ = [
    "SampleSummary",
    "KsResult",
    "ChiSquareResult",
    "DriftReport",
    "summarize",
    "ks_one_sample",
    "ks_two_sample",
    "chi_square_uniform",
    "welch_t",
    "clock_drift",
    "kolmogorov_sf",
    "uniform_cdf",
    "exponential_cdf",
    "binomial_upper_band",
    "MIN_KS_N",
]

ArrayLike = Union[Sequence[float], np.ndarray]

#: below this sample size KS p-values are refused (statistic still computed)
MIN_KS_N = 8


@dataclass(frozen=True)
class SampleSummary:
    """Single-pass moments of a sample; ``variance`` is unbiased, None for n < 2."""

    n: int
    mean: float
    variance: Optional[float]


@dataclass(frozen=True)
class KsResult:
    statistic: float
    p_value: Optional[float]
    n: int
    m: Optional[int] = None


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    degrees_of_freedom: int
    p_value: float


@dataclass(frozen=True)
class DriftReport:
    """How far a simulated clock lags where a rate-``nominal_rate`` clock should be."""

    reported_time: float
    expected_time: float
    lag: float
    ticks: int

    @property
    def per_tick_lag(self) -> float:
        return self.lag / self.ticks


def summarize(samples: ArrayLike) -> SampleSummary:
    """Welford mean/variance: one pass, compensated update, exact on constants."""
    xs = np.asarray(samples, dtype=np.float64).ravel().tolist()
    n = len(xs)
    if n == 0:
        raise ValueError("summarize requires at least one sample")
    mean = 0.0
    m2 = 0.0
    for k, x in enumerate(xs, 1):
        delta = x - mean
        mean += delta / k
        m2 += delta * (x - mean)
    variance = m2 / (n - 1) if n >= 2 else None
    return SampleSummary(n=n, mean=mean, variance=variance)


def kolmogorov_sf(x: float) -> float:
    """Upper tail of the Kolmogorov distribution, 2*sum (-1)**(j-1) exp(-2 j**2 x**2).

    The alternating series converges for every x > 0; 101 terms leave a
    truncation error below 1e-9 for x >= 0.04, and the tail is
    indistinguishable from 1 below that.
    """
    if x <= 0.04:
        return 1.0
    j = np.arange(1, 102, dtype=np.float64)
    terms = np.exp(-2.0 * j * j * x * x)
    s = 2.0 * float((terms * np.where(j % 2 == 1, 1.0, -1.0)).sum())
    return min(1.0, max(0.0, s))


def _ks_p(d: float, effective_n: float) -> float:
    root = math.sqrt(effective_n)
    return kolmogorov_sf((root + 0.12 + 0.11 / root) * d)


def ks_one_sample(samples: ArrayLike, cdf: Callable[[np.ndarray], np.ndarray]) -> KsResult:
    """Kolmogorov–Smirnov distance of ``samples`` from the law given by ``cdf``.

    ``D = max_i max(i/n - F(x_(i)), F(x_(i)) - (i-1)/n)`` over the sorted
    sample.  The cdf is probed at the sample points and must be monotone
    nondecreasing with values in [0, 1] there, else ValueError.  The
    statistic is computed for any n >= 1; the p-value is None for n < 8.
    """
    xs = np.sort(np.asarray(samples, dtype=np.float64).ravel())
    n = xs.size
    if n == 0:
        raise ValueError("ks_one_sample requires at least one sample")
    f = np.asarray(cdf(xs), dtype=np.float64)
    if f.shape != xs.shape:
        f = np.array([float(cdf(v)) for v in xs], dtype=np.float64)
    if f.size and (np.any(np.diff(f) < 0.0) or f.min() < 0.0 or f.max() > 1.0):
        raise ValueError("cdf probe failed: values at sample points must be "
                         "monotone nondecreasing within [0, 1]")
    i = np.arange(1, n + 1, dtype=np.float64)
    d = float(np.maximum(i / n - f, f - (i - 1) / n).max())
    p = _ks_p(d, n) if n >= MIN_KS_N else None
    return KsResult(statistic=d, p_value=p, n=n)


def ks_two_sample(a: ArrayLike, b: ArrayLike) -> KsResult:
    """Two-sample KS: sup |F_a - F_b| over the pooled points.

    Both sides need >= 8 points; the p-value uses the one-sample asymptotic
    with effective n = n*m/(n+m).
    """
    xa = np.sort(np.asarray(a, dtype=np.float64).ravel())
    xb = np.sort(np.asarray(b, dtype=np.float64).ravel())
    n, m = xa.size, xb.size
    if n < MIN_KS_N or m < MIN_KS_N:
        raise ValueError(f"ks_two_sample requires both samples >= {MIN_KS_N}, got {n} and {m}")
    pooled = np.concatenate([xa, xb])
    fa = np.searchsorted(xa, pooled, side="right") / n
    fb = np.searchsorted(xb, pooled, side="right") / m
    d = float(np.abs(fa - fb).max())
    effective = n * m / (n + m)
    return KsResult(statistic=d, p_value=_ks_p(d, effective), n=n, m=m)


def chi_square_uniform(counts: ArrayLike) -> ChiSquareResult:
    """Pearson chi-square of ``counts`` against the uniform expectation.

    Needs >= 2 categories and an expected count of >= 5 per category; the
    p-value is the chi-square upper tail at k-1 degrees of freedom
    (regularized incomplete gamma).
    """
    obs = np.asarray(counts, dtype=np.float64).ravel()
    k = obs.size
    if k < 2:
        raise ValueError("chi_square_uniform requires at least 2 categories")
    if np.any(obs < 0):
        raise ValueError("counts must be nonnegative")
    expected = obs.sum() / k
    if expected < 5.0:
        raise ValueError(f"expected count per category is {expected:g}; need >= 5")
    stat = float(((obs - expected) ** 2 / expected).sum())
    p = float(gammaincc((k - 1) / 2.0, stat / 2.0))
    return ChiSquareResult(statistic=stat, degrees_of_freedom=k - 1, p_value=p)


def welch_t(a: SampleSummary, b: SampleSummary) -> float:
    """Two-sided Welch test p-value for a mean difference between two summaries.

    Welch–Satterthwaite degrees of freedom; tail from the t-distribution at
    any df (no normal switch-over needed).  Conventions for degenerate
    inputs: both variances zero with equal means -> p = 1, with unequal
    means -> p = 0.
    """
    if a.n < 2 or b.n < 2 or a.variance is None or b.variance is None:
        raise ValueError("welch_t requires n >= 2 on both sides (variance defined)")
    va, vb = a.variance / a.n, b.variance / b.n
    se2 = va + vb
    if se2 == 0.0:
        return 1.0 if a.mean == b.mean else 0.0
    t = (a.mean - b.mean) / math.sqrt(se2)
    df = se2 * se2 / (va * va / (a.n - 1) + vb * vb / (b.n - 1))
    p = 2.0 * float(stdtr(df, -abs(t)))
    return min(1.0, max(0.0, p))


def clock_drift(traj, nominal_rate: float) -> DriftReport:
    """Lag of a trajectory's final reported time behind ``ticks/nominal_rate``.

    ``nominal_rate`` is the merged event rate the trajectory claims to
    realise (N for a serial run over N clocks, 1 for a single clock).
    """
    if nominal_rate <= 0:
        raise ValueError("nominal_rate must be positive")
    times = np.asarray(traj.times, dtype=np.float64)
    ticks = times.size
    if ticks == 0:
        raise ValueError("clock_drift requires a nonempty trajectory")
    reported = float(times[-1])
    expected = ticks / nominal_rate
    return DriftReport(reported_time=reported, expected_time=expected,
                       lag=expected - reported, ticks=ticks)


def uniform_cdf(x: ArrayLike) -> np.ndarray:
    """CDF of the uniform law on (0, 1)."""
    return np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0)


def exponential_cdf(x: ArrayLike, rate: float) -> np.ndarray:
    """CDF of the exponential law with the given rate."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    xs = np.asarray(x, dtype=np.float64)
    return np.where(xs > 0.0, -np.expm1(-rate * xs), 0.0)


def binomial_upper_band(n: int, p: float, tail: float = 1e-6) -> int:
    """Smallest B with P(Binomial(n, p) > B) < tail.

    Used to turn "false-alarm rate ~= p over n independent seeds" into a
    hard ceiling on flag counts: e.g. B = 8 at (n=100, p=0.01).  The tail
    comes from the regularized incomplete beta function, so any n works.
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must lie in [0, 1]")
    if n < 1:
        raise ValueError("n must be >= 1")
    survival = bdtrc(np.arange(n + 1), n, p)  # P(Binomial(n, p) > B) for each B
    below = np.flatnonzero(survival < tail)
    return int(below[0]) if below.size else n
