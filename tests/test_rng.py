"""Bit-level tests for the counter generator, unit mapping, and fault models.

The three sequence vectors and the two substream states below were frozen
from an independent big-integer evaluation of the mixing recurrence; they
are the ground truth the implementation must hit, not values copied out of
the module under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from clockcheck import rng, stats
from clockcheck.rng import (
    GOLDEN,
    IDEAL,
    MASK64,
    MAPPING_STREAM,
    GeneratorState,
    Ideal,
    LowThinning,
    PowerBias,
    _unit_from_word,
    clock_stream,
    derived_seeds,
    fault_label,
    mix64,
    next_unit,
    raw_block,
    substream,
    worker_stream,
)
from clockcheck.stats import uniform_cdf

# Independently computed: outputs of the recurrence stepped from state 0.
_FROZEN_SEQUENCE = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
)
_FROZEN_SUBSTREAM_0_0 = 0xA706DD2F4D197E6F
_FROZEN_SUBSTREAM_0_1 = 0x5E41AB087439611E


# ---------------------------------------------------------------------------
# mix64 and state stepping
# ---------------------------------------------------------------------------


def test_mix64_frozen_first_output():
    assert mix64(0) == _FROZEN_SEQUENCE[0]


def test_sequence_from_state_zero_matches_frozen_vectors():
    gs = GeneratorState(0)
    words = []
    for _ in range(3):
        words.append(mix64(gs.state))
        gs = gs.advanced(1)
    assert tuple(words) == _FROZEN_SEQUENCE


def test_raw_block_matches_frozen_vectors():
    words = raw_block(GeneratorState(0), 3)
    assert tuple(int(w) for w in words) == _FROZEN_SEQUENCE
    # raw_block peeks ahead without consuming; stepping the state by hand
    # must land on the same third word.
    assert mix64(GeneratorState(0).advanced(2).state) == _FROZEN_SEQUENCE[2]


def test_mix64_is_pure():
    assert mix64(12345) == mix64(12345)


def test_mix64_rejects_out_of_range():
    with pytest.raises(ValueError):
        mix64(-1)
    with pytest.raises(ValueError):
        mix64(1 << 64)


def test_advanced_jump_equals_sequential_draws():
    gs = GeneratorState(991)
    stepped = gs
    for _ in range(17):
        _, stepped = next_unit(stepped)
    assert gs.advanced(17) == stepped


# ---------------------------------------------------------------------------
# substream derivation
# ---------------------------------------------------------------------------


def test_substream_frozen_states():
    assert substream(0, 0).state == _FROZEN_SUBSTREAM_0_0
    assert substream(0, 1).state == _FROZEN_SUBSTREAM_0_1


def test_substream_definition():
    seed, sid = 77, 31337
    assert substream(seed, sid).state == mix64(seed ^ mix64(sid))
    assert substream(seed, sid).draw_count == 0


def test_substream_is_pure_and_ids_are_distinct():
    assert substream(5, 9) == substream(5, 9)
    ids = [0, 1, 2, 999, MAPPING_STREAM]
    states = {substream(42, i).state for i in ids}
    assert len(states) == len(ids)


def test_stream_id_layout_keeps_roles_apart():
    # serial stream, clock streams, worker streams, and the mapping stream
    # must never collide for sane sizes.
    seed = 2024
    ids = [0]
    ids += [clock_stream(i) for i in range(64)]
    ids += [worker_stream(w) for w in range(8)]
    ids.append(MAPPING_STREAM)
    assert len(set(ids)) == len(ids)
    states = {substream(seed, i).state for i in ids}
    assert len(states) == len(ids)


def test_derived_seeds_are_mix_of_counter():
    seeds = derived_seeds(5)
    assert seeds == tuple(mix64(i) for i in range(5))
    with pytest.raises(ValueError):
        derived_seeds(0)


# ---------------------------------------------------------------------------
# unit-interval mapping
# ---------------------------------------------------------------------------


def test_unit_mapping_bottom_cell():
    assert _unit_from_word(0) == 2.0**-54


def test_unit_mapping_midpoint_cell_is_nudged_off_half():
    # (2**52 + 0.5) * 2**-53 would round to exactly 0.5; the mapping must
    # land strictly above it instead.
    u = _unit_from_word(2**52 << 11)
    assert u == 0.5 + 2.0**-53
    assert u != 0.5


def test_unit_mapping_top_cell_stays_below_one():
    u = _unit_from_word((2**53 - 1) << 11)
    assert u == 1.0 - 2.0**-53
    assert u < 1.0


def test_unit_mapping_ignores_low_eleven_bits():
    base = 123456789 << 11
    assert _unit_from_word(base) == _unit_from_word(base | 0x7FF)


@given(st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_unit_mapping_is_interior_and_never_half(word):
    u = _unit_from_word(word)
    assert 0.0 < u < 1.0
    assert u != 0.5
    assert math.isfinite(-math.log(u))


def test_unit_block_matches_scalar_path():
    gs0 = GeneratorState(substream(9, 3).state)
    block, gs_b = rng.unit_block(gs0, 257)
    gs_s = gs0
    scalars = []
    for _ in range(257):
        u, gs_s = next_unit(gs_s)
        scalars.append(u)
    assert block.tolist() == scalars
    assert gs_b == gs_s


def test_seed_42_sample_mean_is_centered():
    block, _ = rng.unit_block(substream(42, 0), 1_000_000)
    assert abs(float(block.mean()) - 0.5) < 2e-3


def test_ideal_uniformity_across_preregistered_seeds():
    # At alpha = 0.05 the KS test should pass on at least 95 of 100
    # independent seeds; allow binomial slack down to 90.
    passes = 0
    for seed in derived_seeds(100):
        block, _ = rng.unit_block(substream(seed, 0), 20_000)
        res = stats.ks_one_sample(block, uniform_cdf)
        passes += res.p_value > 0.05
    assert passes >= 90


# ---------------------------------------------------------------------------
# fault models
# ---------------------------------------------------------------------------


def test_fault_constructors_validate():
    with pytest.raises(ValueError):
        PowerBias(0.0)
    with pytest.raises(ValueError):
        PowerBias(-2.0)
    with pytest.raises(ValueError):
        PowerBias(math.inf)
    with pytest.raises(ValueError):
        LowThinning(0.0, 0.5)
    with pytest.raises(ValueError):
        LowThinning(1.0, 0.5)
    with pytest.raises(ValueError):
        LowThinning(0.5, -0.1)
    with pytest.raises(ValueError):
        LowThinning(0.5, 1.1)


def test_fault_labels():
    assert fault_label(IDEAL) == "ideal"
    assert fault_label(PowerBias(2.0)) == "power_bias(gamma=2)"
    assert fault_label(LowThinning(0.5, 1.0)) == "low_thinning(c=0.5, q=1)"


def test_power_bias_exact_quarter_root():
    assert oracle.power_scalar(0.0625, 0.25) == 0.5


def test_power_bias_gamma_one_is_identity_on_draws():
    gs = substream(7, 0)
    ideal, _ = rng.unit_block(gs, 4096)
    biased, at_draw, _, _ = rng.fault_block(PowerBias(1.0), gs, 4096)
    assert np.array_equal(ideal, biased)
    assert at_draw.tolist() == list(range(1, 4097))


def test_power_bias_never_rejects():
    samples, at_draw, gs, rejected = rng.fault_block(PowerBias(3.0), substream(11, 2), 50)
    assert rejected == 0
    assert at_draw.tolist() == list(range(1, 51))
    assert ((samples > 0.0) & (samples < 1.0)).all()


@given(
    st.integers(min_value=1, max_value=2**53 - 1),
    st.integers(min_value=1, max_value=2**53 - 1),
)
def test_power_bias_is_monotone_and_interior(j, k):
    # Monotone map of (0,1) into (0,1); adjacent floats may collapse to the
    # same rounded power, so the float-level claim is non-strict.
    lo, hi = sorted((j * 2.0**-53, k * 2.0**-53))
    inv_gamma = 0.5
    a, b = oracle.power_scalar(lo, inv_gamma), oracle.power_scalar(hi, inv_gamma)
    assert 0.0 < a < 1.0 and 0.0 < b < 1.0
    assert a <= b


def test_power_bias_two_stretches_exponential_mean():
    # -log(U ** 0.5) has mean 0.5 instead of 1.
    samples, _, _, _ = rng.fault_block(PowerBias(2.0), substream(5, 0), 100_000)
    mean = float(np.mean(-np.log(samples)))
    assert abs(mean - 0.5) < 0.01


def test_low_thinning_zero_probability_keeps_uniform_law():
    # q = 0 never rejects, so the accepted stream stays uniform even though
    # the auxiliary draw below the cutoff consumes extra raw words.
    samples, at_draw, _, _ = rng.fault_block(LowThinning(0.5, 0.0), substream(3, 0), 50_000)
    assert stats.ks_one_sample(samples, uniform_cdf).p_value > 0.01
    assert int(at_draw[-1]) > 50_000  # auxiliary draws were consumed


def test_low_thinning_full_rejection_matches_truncated_uniform():
    fault = LowThinning(0.5, 1.0)
    samples, _, _, _ = rng.fault_block(fault, substream(13, 0), 100_000)
    assert float(samples.min()) >= 0.5
    res = stats.ks_one_sample(samples, lambda x: np.clip((x - 0.5) / 0.5, 0.0, 1.0))
    assert res.statistic < 0.01


def test_low_thinning_partial_matches_piecewise_cdf():
    c, q = 0.3, 0.4

    def cdf(x):
        x = np.asarray(x, dtype=np.float64)
        lo = (1.0 - q) * x / (1.0 - c * q)
        hi = (x - c * q) / (1.0 - c * q)
        return np.clip(np.where(x < c, lo, hi), 0.0, 1.0)

    samples, _, _, _ = rng.fault_block(LowThinning(c, q), substream(17, 0), 100_000)
    assert stats.ks_one_sample(samples, cdf).p_value > 0.001


def test_low_thinning_counts_raw_and_rejected_draws():
    # With c=0.5, q=1 each rejection burns a candidate plus its auxiliary
    # draw, so raw usage is about 3 words per accepted sample.
    n = 20_000
    samples, at_draw, gs, rejected = rng.fault_block(
        LowThinning(0.5, 1.0), substream(21, 0), n
    )
    assert (samples >= 0.5).all()
    assert gs.draw_count == at_draw[-1]
    per_accept = gs.draw_count / n
    assert abs(per_accept - 3.0) < 0.1
    assert abs(rejected / n - 1.0) < 0.05


def _oracle_walk(model, gs, n):
    values, counts, rejected = [], [], 0
    for _ in range(n):
        u, gs, r = oracle.draw_with_fault(model, gs)
        values.append(u)
        counts.append(gs.draw_count)
        rejected += r
    return values, counts, gs, rejected


def _assert_matches_oracle(model, gs0, n):
    block, at_draw, gs_b, rejected = rng.fault_block(model, gs0, n)
    values, counts, gs_s, rejected_s = _oracle_walk(model, gs0, n)
    assert block.tolist() == values, fault_label(model)
    assert at_draw.tolist() == counts, fault_label(model)
    assert gs_b == gs_s, fault_label(model)
    assert rejected == rejected_s, fault_label(model)


def test_fault_block_matches_scalar_walk():
    models = [
        IDEAL,
        PowerBias(2.0),
        PowerBias(0.5),
        LowThinning(0.25, 0.9),
        LowThinning(0.7, 1.0),
    ]
    for model in models:
        _assert_matches_oracle(model, substream(31, 4), 400)


@pytest.mark.parametrize("c,q,n", [
    (0.5, 0.0, 20_000),   # q = 0: auxiliary draws are taken, nothing is rejected
    (0.5, 1.0, 10_000),   # q = 1: everything below c is rejected
    (0.99, 0.5, 5_000),   # long runs below c: candidates alternate inside them
    (0.99, 1.0, 120),     # ~200 raw draws per sample
    (0.3, 0.8, 0),
])
def test_low_thinning_block_matches_oracle_across_chunks(c, q, n):
    # Every case spans several 8192-draw chunks, or is empty; the state
    # starts mid-stream so absolute draw counts are checked too.
    _assert_matches_oracle(LowThinning(c, q), substream(77, 2).advanced(5), n)


@pytest.mark.parametrize("chunk", [2, 3, 17])
def test_low_thinning_block_matches_oracle_on_tiny_chunks(monkeypatch, chunk):
    # Tiny chunks put a chunk boundary between almost every candidate and its
    # auxiliary draw.
    monkeypatch.setattr(rng, "_CHUNK", chunk)
    for c, q in [(0.5, 0.5), (0.99, 0.5), (0.5, 1.0), (0.5, 0.0)]:
        _assert_matches_oracle(LowThinning(c, q), substream(8, chunk), 300)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=MASK64),
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=1, max_value=300),
)
def test_block_and_scalar_paths_agree_for_any_stream(seed, sid, n):
    gs0 = substream(seed, sid)
    block, gs_b = rng.unit_block(gs0, n)
    gs_s = gs0
    for i in range(n):
        u, gs_s = next_unit(gs_s)
        assert u == block[i]
    assert gs_b == gs_s


def test_source_stream_is_reproducible():
    a = oracle.SourceStream(seed=8, stream_id=1, model=PowerBias(2.0))
    b = oracle.SourceStream(seed=8, stream_id=1, model=PowerBias(2.0))
    assert [a.next() for _ in range(100)] == [b.next() for _ in range(100)]
