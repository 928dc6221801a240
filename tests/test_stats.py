"""Statistics kernel tests, cross-checked against scipy where it offers the
same quantity (scipy is the oracle here, never the implementation)."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from clockcheck import rng, stats
from clockcheck.rng import LowThinning, substream
from clockcheck.stats import (
    DriftReport,
    SampleSummary,
    exponential_cdf,
    kolmogorov_sf,
    uniform_cdf,
)


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


def test_summarize_constant_run():
    s = stats.summarize([1.0, 1.0, 1.0])
    assert (s.n, s.mean, s.variance) == (3, 1.0, 0.0)


def test_summarize_two_points():
    s = stats.summarize([0.0, 1.0])
    assert s.mean == 0.5
    assert s.variance == 0.5  # sample variance, n-1 in the denominator


def test_summarize_single_point_has_no_variance():
    s = stats.summarize([3.5])
    assert s.n == 1
    assert s.mean == 3.5
    assert s.variance is None


def test_summarize_empty_is_an_error():
    with pytest.raises(ValueError):
        stats.summarize([])


def test_summarize_agrees_with_numpy():
    xs, _ = rng.unit_block(substream(1, 0), 10_000)
    logs = -np.log(xs)
    s = stats.summarize(logs)
    assert s.mean == pytest.approx(float(logs.mean()), rel=1e-12)
    assert s.variance == pytest.approx(float(logs.var(ddof=1)), rel=1e-9)
    assert abs(s.mean - 1.0) < 0.02


@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50), st.floats(-10, 10))
def test_summarize_shift_moves_mean_only(xs, shift):
    base = stats.summarize(xs)
    moved = stats.summarize([x + shift for x in xs])
    assert moved.mean == pytest.approx(base.mean + shift, abs=1e-6)
    assert moved.variance == pytest.approx(base.variance, rel=1e-6, abs=1e-6)


# ---------------------------------------------------------------------------
# Kolmogorov machinery
# ---------------------------------------------------------------------------


def test_kolmogorov_sf_matches_scipy_on_a_grid():
    for x in np.arange(0.05, 3.0, 0.05):
        mine = kolmogorov_sf(float(x))
        ref = float(scipy.special.kolmogorov(x))
        assert mine == pytest.approx(ref, abs=1e-12)


def test_kolmogorov_sf_saturates_small_and_large():
    assert kolmogorov_sf(0.0) == 1.0
    assert kolmogorov_sf(0.03) == 1.0
    assert kolmogorov_sf(5.0) < 1e-20


def test_kolmogorov_sf_is_monotone_nonincreasing():
    # Monotone up to float noise in the flat shoulder near 1.
    grid = [kolmogorov_sf(x) for x in np.linspace(0.05, 4.0, 200)]
    assert all(a >= b - 1e-12 for a, b in zip(grid, grid[1:]))


def test_ks_one_sample_hand_worked_statistic():
    # ECDF {0.1, 0.2, 0.3} vs uniform: the largest gap is 1 - 0.3 = 0.7.
    res = stats.ks_one_sample([0.1, 0.2, 0.3], uniform_cdf)
    assert res.statistic == pytest.approx(0.7)
    assert res.p_value is None  # too few points for a trustworthy p
    assert res.n == 3


def test_ks_one_sample_quantile_grid():
    n = 16
    grid = [(i - 0.5) / n for i in range(1, n + 1)]
    res = stats.ks_one_sample(grid, uniform_cdf)
    assert res.statistic == pytest.approx(0.5 / n)
    assert res.p_value is not None and res.p_value > 0.999


def test_ks_one_sample_statistic_matches_scipy():
    xs, _ = rng.unit_block(substream(6, 0), 1000)
    res = stats.ks_one_sample(xs, uniform_cdf)
    ref = scipy.stats.kstest(np.asarray(xs), "uniform")
    assert res.statistic == pytest.approx(float(ref.statistic), abs=1e-14)
    # p uses the effective-n refinement; at n=1000 it sits within a hair of
    # the plain asymptotic value.
    asymp = scipy.stats.kstest(np.asarray(xs), "uniform", method="asymp")
    assert res.p_value == pytest.approx(float(asymp.pvalue), abs=0.02)


def test_ks_one_sample_rejects_broken_cdf():
    with pytest.raises(ValueError):
        stats.ks_one_sample([0.1, 0.4, 0.8], lambda x: 1.0 - np.asarray(x))  # decreasing
    with pytest.raises(ValueError):
        stats.ks_one_sample([0.1, 0.4, 0.8], lambda x: 2.0 * np.asarray(x))  # leaves [0,1]


def test_ks_one_sample_flags_thinned_stream():
    samples, _, _, _ = rng.fault_block(LowThinning(0.5, 1.0), substream(2, 0), 10_000)
    res = stats.ks_one_sample(samples, uniform_cdf)
    assert res.p_value < 1e-6


def test_ks_two_sample_extremes():
    a = np.linspace(0.1, 0.4, 20)
    b = np.linspace(0.6, 0.9, 20)
    assert stats.ks_two_sample(a, a).statistic == 0.0
    res = stats.ks_two_sample(a, b)
    assert res.statistic == 1.0
    assert res.p_value < 1e-6


def test_ks_two_sample_needs_eight_per_side():
    with pytest.raises(ValueError):
        stats.ks_two_sample([0.1] * 7, [0.2] * 100)


def test_ks_two_sample_statistic_matches_scipy():
    a, _ = rng.unit_block(substream(8, 0), 400)
    b, _ = rng.unit_block(substream(8, 1), 300)
    res = stats.ks_two_sample(a, b)
    ref = scipy.stats.ks_2samp(np.asarray(a), np.asarray(b))
    assert res.statistic == pytest.approx(float(ref.statistic), abs=1e-14)


@given(st.integers(0, 2**31))
@settings(max_examples=20, deadline=None)
def test_ks_two_sample_invariant_under_monotone_maps(seed):
    a, _ = rng.unit_block(substream(seed, 0), 64)
    b, _ = rng.unit_block(substream(seed, 1), 64)
    d_raw = stats.ks_two_sample(a, b).statistic
    d_log = stats.ks_two_sample(-np.log(a), -np.log(b)).statistic
    assert d_raw == pytest.approx(d_log, abs=1e-15)


# ---------------------------------------------------------------------------
# chi-square on category counts
# ---------------------------------------------------------------------------


def test_chi_square_uniform_flat_counts():
    res = stats.chi_square_uniform([25, 25, 25, 25])
    assert res.statistic == 0.0
    assert res.degrees_of_freedom == 3
    assert res.p_value == 1.0


def test_chi_square_uniform_hand_worked():
    res = stats.chi_square_uniform([70, 30])
    assert res.statistic == pytest.approx(16.0)
    assert res.p_value == pytest.approx(float(scipy.stats.chi2.sf(16.0, 1)), abs=1e-12)


def test_chi_square_uniform_matches_scipy_broadly():
    counts = [52, 61, 47, 55, 49, 36]
    res = stats.chi_square_uniform(counts)
    ref = scipy.stats.chisquare(counts)
    assert res.statistic == pytest.approx(float(ref.statistic), rel=1e-12)
    assert res.p_value == pytest.approx(float(ref.pvalue), rel=1e-10)


def test_chi_square_uniform_input_validation():
    with pytest.raises(ValueError):
        stats.chi_square_uniform([10])  # one category
    with pytest.raises(ValueError):
        stats.chi_square_uniform([10, -1])  # negative count
    with pytest.raises(ValueError):
        stats.chi_square_uniform([2, 3])  # expected count below 5


# ---------------------------------------------------------------------------
# Welch test
# ---------------------------------------------------------------------------


def test_welch_degenerate_conventions():
    flat = stats.summarize([2.0, 2.0, 2.0])
    assert stats.welch_t(flat, flat) == 1.0
    other = stats.summarize([3.0, 3.0, 3.0])
    assert stats.welch_t(flat, other) == 0.0


def test_welch_requires_two_points_per_side():
    with pytest.raises(ValueError):
        stats.welch_t(stats.summarize([1.0]), stats.summarize([1.0, 2.0]))


def test_welch_matches_scipy():
    a, _ = rng.unit_block(substream(3, 0), 500)
    b, _ = rng.unit_block(substream(3, 1), 700)
    a, b = -np.log(a), -np.log(np.asarray(b)) * 1.02
    p = stats.welch_t(stats.summarize(a), stats.summarize(b))
    ref = scipy.stats.ttest_ind(np.asarray(a), np.asarray(b), equal_var=False)
    assert p == pytest.approx(float(ref.pvalue), rel=1e-9)


def test_welch_detects_strong_shift():
    a, _ = rng.unit_block(substream(4, 0), 20_000)
    b, _ = rng.unit_block(substream(4, 1), 20_000)
    p = stats.welch_t(stats.summarize(-np.log(a)), stats.summarize(-0.5 * np.log(b)))
    assert p < 1e-12


def test_welch_is_symmetric():
    a = stats.summarize([0.1, 0.9, 0.4, 0.6])
    b = stats.summarize([0.2, 0.5, 0.8])
    assert stats.welch_t(a, b) == stats.welch_t(b, a)


# ---------------------------------------------------------------------------
# clock drift
# ---------------------------------------------------------------------------


def test_clock_drift_on_time_trajectory():
    traj = SimpleNamespace(times=np.array([0.5, 1.0, 1.5]))
    report = stats.clock_drift(traj, 2.0)
    assert report == DriftReport(
        reported_time=1.5, expected_time=1.5, lag=0.0, ticks=3
    )
    assert report.per_tick_lag == 0.0


def test_clock_drift_fast_clock_has_positive_lag():
    # Ticks arriving early leave the reported time short of schedule.
    traj = SimpleNamespace(times=np.array([0.25, 0.5, 0.75, 1.0]))
    report = stats.clock_drift(traj, 2.0)
    assert report.expected_time == 2.0
    assert report.lag == 1.0
    assert report.per_tick_lag == 0.25


def test_clock_drift_validation():
    with pytest.raises(ValueError):
        stats.clock_drift(SimpleNamespace(times=np.array([])), 1.0)
    with pytest.raises(ValueError):
        stats.clock_drift(SimpleNamespace(times=np.array([1.0])), 0.0)


# ---------------------------------------------------------------------------
# reference cdfs and the flag band
# ---------------------------------------------------------------------------


def test_uniform_cdf_clips():
    out = uniform_cdf(np.array([-1.0, 0.3, 2.0]))
    assert out.tolist() == [0.0, 0.3, 1.0]


def test_exponential_cdf_values():
    assert exponential_cdf(np.array([0.0]), rate=1.0)[0] == 0.0
    assert exponential_cdf(np.array([-3.0]), rate=1.0)[0] == 0.0
    x = math.log(2.0) / 2.0
    assert exponential_cdf(np.array([x]), rate=2.0)[0] == pytest.approx(0.5)


def test_binomial_upper_band_frozen_values():
    # ceil-style quantile of Binomial(n, p) with a 1e-6 residual tail.
    assert stats.binomial_upper_band(100, 0.01) == 8
    assert stats.binomial_upper_band(20, 0.01) == 5
    assert stats.binomial_upper_band(4, 0.01) == 3


def test_binomial_upper_band_tracks_tail_mass():
    n, p, band = 100, 0.01, stats.binomial_upper_band(100, 0.01)
    tail = sum(
        math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(band + 1, n + 1)
    )
    assert tail <= 1e-6
    tail_below = sum(
        math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(band, n + 1)
    )
    assert tail_below > 1e-6  # band is the smallest cutoff with that guarantee


@given(st.integers(1, 200))
def test_binomial_upper_band_monotone_in_n(n):
    assert stats.binomial_upper_band(n + 1, 0.01) >= stats.binomial_upper_band(n, 0.01)


def test_binomial_upper_band_at_large_seed_counts():
    # Frozen small-n bands, and seed counts past where math.comb * float
    # overflowed (n >= 1050) give a finite band.
    assert stats.binomial_upper_band(100, 0.01) == 8
    assert stats.binomial_upper_band(20, 0.01) == 5
    assert stats.binomial_upper_band(4, 0.01) == 3
    assert stats.binomial_upper_band(1050, 0.01) == 29
    assert stats.binomial_upper_band(5000, 0.01) == 87
    assert stats.binomial_upper_band(5000, 0.0) == 0
    assert stats.binomial_upper_band(5000, 1.0) == 5000
