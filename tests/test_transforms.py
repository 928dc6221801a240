"""Measure-preserving unit-interval maps and the rejection-rescale window.

Exactness claims for the involutions are made on the grid of multiples of
2**-53, where the defining arithmetic (1 - x and x +/- 1/2) is exact in
binary64.  Off that grid the identities can slip by one ulp, which is why
the property tests sample grid points rather than arbitrary floats.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
from clockcheck import process, rng, stats, transforms
from clockcheck.rng import IDEAL, LowThinning, substream_rows
from clockcheck.stats import uniform_cdf
from clockcheck.transforms import (
    Compose,
    Reflect,
    RescaleWindow,
    RotateHalf,
    transform_label,
)

_GRID = 2.0**-53


# ---------------------------------------------------------------------------
# pointwise formula checks
# ---------------------------------------------------------------------------


def test_reflect_quarter():
    assert oracle.transform_scalar(Reflect(), 0.25) == 0.75


def test_reflect_fixed_point_at_half():
    assert oracle.transform_scalar(Reflect(), 0.5) == 0.5


def test_rotate_low_branch():
    # 0.3 + 0.5 is exact in binary64
    assert oracle.transform_scalar(RotateHalf(), 0.3) == 0.8


def test_rotate_high_branch():
    assert oracle.transform_scalar(RotateHalf(), 0.7) == 0.7 - 0.5


def test_rotate_rejects_exact_half():
    with pytest.raises(ValueError, match="0.5"):
        oracle.transform_scalar(RotateHalf(), 0.5)


def test_compose_applies_left_to_right():
    combo = Compose([RotateHalf(), Reflect()])
    assert oracle.transform_scalar(combo, 0.3) == 1.0 - (0.3 + 0.5)


def test_empty_compose_is_identity():
    assert oracle.transform_scalar(Compose([]), 0.37) == 0.37


def test_double_reflect_returns_input():
    assert oracle.transform_scalar(Compose([Reflect(), Reflect()]), 0.9) == 0.9


def test_transforms_reject_out_of_range_input():
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            oracle.transform_scalar(Reflect(), bad)
        with pytest.raises(ValueError):
            oracle.transform_scalar(RotateHalf(), bad)


def test_outputs_stay_strictly_inside_unit_interval():
    # The reflect image of a subnormal-adjacent input rounds to 1.0 in raw
    # arithmetic; the map must pull it back below 1 instead.
    tiny = 2.0**-60
    assert oracle.transform_scalar(Reflect(), tiny) == 1.0 - _GRID
    assert 0.0 < oracle.transform_scalar(RotateHalf(), tiny) < 1.0
    # the block path snaps the same edges to the same values
    edges = np.array([tiny, 2.0**-54, _GRID, 0.5 - _GRID, 0.5 + _GRID, 1.0 - _GRID])
    for transform in (Reflect(), RotateHalf(), Compose([RotateHalf(), Reflect()])):
        block = transforms.transform_block(transform, edges)
        assert block.tolist() == [oracle.transform_scalar(transform, x) for x in edges.tolist()]


def test_labels():
    assert transform_label(Reflect()) == "reflect"
    assert transform_label(RotateHalf()) == "rotate_half"
    assert (
        transform_label(Compose([Reflect(), RotateHalf()]))
        == "(reflect then rotate_half)"
    )


# ---------------------------------------------------------------------------
# involution and block/element agreement properties
# ---------------------------------------------------------------------------


@given(st.integers(min_value=1, max_value=2**53 - 1))
def test_reflect_is_involution_on_grid(j):
    x = j * _GRID
    reflect = Reflect()
    assert oracle.transform_scalar(reflect, oracle.transform_scalar(reflect, x)) == x


@given(st.integers(min_value=1, max_value=2**53 - 1))
def test_rotate_is_involution_on_grid(j):
    assume(j != 2**52)  # exactly 0.5 is outside the domain
    x = j * _GRID
    rotate = RotateHalf()
    assert oracle.transform_scalar(rotate, oracle.transform_scalar(rotate, x)) == x


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=400))
def test_block_path_matches_scalar_path(seed, n):
    (xs,), _ = rng.unit_block(substream_rows(seed, [0]), n)
    for transform in (Reflect(), RotateHalf(), Compose([RotateHalf(), Reflect()])):
        block = transforms.transform_block(transform, xs)
        scalars = [oracle.transform_scalar(transform, float(x)) for x in xs]
        assert block.tolist() == scalars


def test_block_path_rejects_half_and_out_of_range():
    with pytest.raises(ValueError):
        transforms.transform_block(RotateHalf(), np.array([0.25, 0.5, 0.75]))
    with pytest.raises(ValueError):
        transforms.transform_block(Reflect(), np.array([0.25, 1.0]))


# ---------------------------------------------------------------------------
# distribution preservation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "transform",
    [Reflect(), RotateHalf(), Compose([Reflect(), RotateHalf()])],
    ids=transform_label,
)
def test_uniform_law_is_preserved_across_seeds(transform):
    passes = 0
    for seed in substream_rows(0, 500 + np.arange(100)).state.tolist():
        (xs,), _ = rng.unit_block(substream_rows(seed, [0]), 20_000)
        ys = transforms.transform_block(transform, xs)
        passes += stats.ks_one_sample(ys, uniform_cdf).p_value > 0.05
    assert passes >= 90


# ---------------------------------------------------------------------------
# rejection rescale
# ---------------------------------------------------------------------------


def test_window_validation():
    with pytest.raises(ValueError):
        RescaleWindow(-0.1, 0.5)
    with pytest.raises(ValueError):
        RescaleWindow(0.2, 1.5)
    with pytest.raises(ValueError):
        RescaleWindow(0.6, 0.6)
    with pytest.raises(ValueError):
        RescaleWindow(0.7, 0.2)
    assert RescaleWindow(0.25, 0.75).width == 0.5


def test_full_window_passes_value_through():
    y, discards = oracle.rejection_rescale(RescaleWindow(0.0, 1.0), iter([0.3]).__next__)
    assert (y, discards) == (0.3, 0)


def test_centered_window_rescales_midpoint():
    y, discards = oracle.rejection_rescale(RescaleWindow(0.25, 0.75), iter([0.5]).__next__)
    assert y == (0.5 - 0.25) / 0.5
    assert discards == 0


def test_out_of_window_draw_is_discarded():
    feed = iter([0.2, 0.6]).__next__
    y, discards = oracle.rejection_rescale(RescaleWindow(0.25, 0.75), feed)
    assert discards == 1
    assert y == (0.6 - 0.25) / 0.5


def test_endpoint_draws_are_rejected_not_rescaled():
    feed = iter([0.25, 0.75, 0.5]).__next__
    y, discards = oracle.rejection_rescale(RescaleWindow(0.25, 0.75), feed)
    assert discards == 2
    assert y == 0.5


def test_rescaled_stream_counts_discards_and_stays_uniform():
    window = RescaleWindow(0.2, 0.7)
    n = 20_000
    (ys,), _, (fault_discards,), (window_discards,) = process.pipeline_block(
        IDEAL, None, window, substream_rows(99, [0]), n
    )
    assert fault_discards == 0
    assert stats.ks_one_sample(ys, uniform_cdf).p_value > 0.01
    total = window_discards + n
    rate = window_discards / total
    expected = 1.0 - window.width
    se = (expected * (1.0 - expected) / total) ** 0.5
    assert abs(rate - expected) < 3.0 * se


def test_unreachable_window_raises_instead_of_spinning():
    with pytest.raises(RuntimeError, match="never lands inside"):
        oracle.rejection_rescale(RescaleWindow(0.5, 1.0), lambda: 0.1)


def test_window_exactly_undoes_matching_thinning_fault():
    # low_thinning leaves the law flat above the cutoff, so a window at the
    # cutoff restores an exactly uniform output stream.
    (ys,), _, _, _ = process.pipeline_block(
        LowThinning(0.5, 0.7), None, RescaleWindow(0.5, 1.0), substream_rows(4, [0]), 20_000
    )
    res = stats.ks_one_sample(ys, uniform_cdf)
    assert res.p_value > 0.01
