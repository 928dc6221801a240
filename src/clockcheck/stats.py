"""Statistical machinery for comparing simulation runs.

Summaries, goodness-of-fit and two-sample tests, and clock-drift
measurement.  Everything here is a pure function over immutable inputs,
but for the two-sample KS, which sorts the pooled buffer it is given in
place.

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
    "binomial_upper_band",
    "BAND_TAIL",
    "MIN_KS_N",
]

ArrayLike = Union[Sequence[float], np.ndarray]

#: below this sample size KS p-values are refused (statistic still computed)
MIN_KS_N = 8
#: the chance, under the null, that a test's flag count passes its band
BAND_TAIL = 1e-6

_KS_CHUNK = 1 << 13  # sorted values or pooled keys a KS pass reads at a time


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


def summarize(samples: ArrayLike) -> SampleSummary:
    """Welford mean/variance: one pass, compensated update, exact on constants.

    The loop reads the values as Python floats through a ``memoryview`` of
    the contiguous float64 array, so no list of them is ever built.  The
    count ``k`` is a float, exact below 2**53, so ``delta / k`` divides by
    the same double an int count would give, and the result has the bits of
    the per-value loop.
    """
    x = np.asarray(samples, dtype=np.float64).ravel()
    n = x.size
    if n == 0:
        raise ValueError("summarize requires at least one sample")
    mean = 0.0
    m2 = 0.0
    k = 0.0
    for v in memoryview(x):
        k += 1.0
        mean += (delta := v - mean) / k
        m2 += delta * (v - mean)
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
    sample.  The cdf is called on each ``_KS_CHUNK`` of the sorted sample
    and must return one value per point, monotone nondecreasing within [0,
    1] (no NaN) within a chunk and across chunk edges, else ValueError.  The
    statistic is computed for any n >= 1; the p-value is None for n < 8.
    Beside the sorted copy, the pass holds only ``_KS_CHUNK``-sized
    temporaries.
    """
    xs = np.sort(np.asarray(samples, dtype=np.float64).ravel())
    n = xs.size
    if n == 0:
        raise ValueError("ks_one_sample requires at least one sample")
    d = 0.0  # D >= 1/(2n) > 0: the two terms at any i sum to 1/n
    last = 0.0  # the cdf at the point before the chunk
    for lo in range(0, n, _KS_CHUNK):
        xc = xs[lo:lo + _KS_CHUNK]
        fc = np.asarray(cdf(xc), dtype=np.float64)
        if (fc.shape != xc.shape or not (fc.min() >= last and fc.max() <= 1.0)
                or np.any(fc[1:] < fc[:-1])):
            raise ValueError("cdf probe failed: it must give one value per sample point, "
                             "monotone nondecreasing within [0, 1]")
        last = fc[-1]
        i = np.arange(lo + 1, lo + 1 + fc.size, dtype=np.float64)
        above = i / n
        above -= fc  # i/n - F
        i -= 1.0
        i /= n
        np.subtract(fc, i, out=i)  # F - (i-1)/n
        d = max(d, float(above.max()), float(i.max()))
    p = _ks_p(d, n) if n >= MIN_KS_N else None
    return KsResult(statistic=d, p_value=p, n=n)


def ks_two_sample(keys: np.ndarray, n: int) -> KsResult:
    """Two-sample KS of the samples a ``uint64`` buffer holds as float64
    bits, the first ``n`` values sample a and the rest sample b: sup |F_a -
    F_b| over the pooled points.

    A caller writes both samples straight into the buffer (through its
    float64 view), so the pooled bytes are held once.  The samples come in
    any order; every value must be >= 0 (``-0.0`` counts as 0), else
    ValueError, as is a NaN.  Both sides need >= 8 points; the p-value uses
    the one-sample asymptotic with effective n = n*m/(n+m).  The buffer is
    used up: each value becomes, in place, the key ``bits << 1 | side``
    (side 1 for a), because a non-negative double's bit pattern orders as
    the double does, and the shift folds ``-0.0`` onto ``+0.0``; one
    in-place sort then orders both samples.  See :func:`_pooled_statistic`
    for the pass over the sorted keys.
    """
    m = keys.size - n
    if n < MIN_KS_N or m < MIN_KS_N:
        raise ValueError(f"ks_two_sample requires both samples >= {MIN_KS_N}, got {n} and {m}")
    if not keys.view(np.float64).min() >= 0.0:
        raise ValueError("ks_two_sample requires values >= 0 (and no NaN)")
    keys <<= 1
    keys[:n] |= 1
    keys.sort()
    d = _pooled_statistic(keys, n)
    effective = n * m / (n + m)
    return KsResult(statistic=d, p_value=_ks_p(d, effective), n=n, m=m)


def _pooled_statistic(keys: np.ndarray, n: int) -> float:
    """max |fl(i/n) - fl(j/m)| over the distinct values of sorted pooled ``keys``.

    At the last key of a run of equal values v, the running count of side
    bits is i = #a <= v, and j = position + 1 - i = #b <= v: both empirical
    cdfs are right-continuous steps, so these are the only points that
    matter.  The keys are read ``_KS_CHUNK`` at a time, so the temporaries
    stay a small fixed size whatever the sample sizes.
    """
    total = keys.size
    m = total - n
    d = 0.0
    below = 0  # side-a keys before the chunk
    for lo in range(0, total, _KS_CHUNK):
        hi = min(lo + _KS_CHUNK, total)
        chunk = keys[lo:hi]
        after = keys[lo + 1:hi + 1]
        # a run ends where the next key holds a larger value: v's keys are 2v, 2v + 1
        run_end = np.ones(chunk.size, dtype=bool)
        np.less(chunk[:after.size] | 1, after, out=run_end[:after.size])
        i = chunk & 1
        np.cumsum(i, out=i)
        i += below
        below = int(i[-1])
        j = np.arange(lo + 1, hi + 1, dtype=np.uint64)
        j -= i
        diff = i / n
        diff -= j / m
        np.abs(diff, out=diff)
        d = max(d, float(diff.max(where=run_end, initial=0.0)))
    return d


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


def binomial_upper_band(n: int, p: float) -> int:
    """Smallest B with P(Binomial(n, p) > B) < :data:`BAND_TAIL`.

    Used to turn "false-alarm rate ~= p over n independent seeds" into a
    hard ceiling on flag counts: e.g. B = 8 at (n=100, p=0.01).  The tail
    comes from the regularized incomplete beta function, so any n works.
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must lie in [0, 1]")
    if n < 1:
        raise ValueError("n must be >= 1")
    survival = bdtrc(np.arange(n + 1), n, p)  # P(Binomial(n, p) > B) for each B
    below = np.flatnonzero(survival < BAND_TAIL)
    return int(below[0]) if below.size else n
