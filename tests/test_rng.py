"""Bit-level tests for the counter generator, unit mapping, and fault models.

The three sequence vectors and the two substream states below were frozen
from an independent big-integer evaluation of the mixing recurrence; they
are the ground truth the implementation must hit, not values copied out of
the module under test.
"""

import math
import tracemalloc

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
    clock_stream,
    derived_seeds,
    fault_label,
    substream,
    worker_stream,
)
from clockcheck.stats import uniform_cdf
from oracle import mix64

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


def test_unit_block_matches_frozen_vectors():
    units, after = rng.unit_block(GeneratorState(0), 3)
    assert units.tolist() == [oracle.unit_from_word(w) for w in _FROZEN_SEQUENCE]
    # unit_block consumes its draws; stepping the state by hand must land on
    # the same third word.
    assert after == GeneratorState(0).advanced(3)
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
        _, stepped = oracle.next_unit(stepped)
    assert gs.advanced(17) == stepped


# ---------------------------------------------------------------------------
# substream derivation
# ---------------------------------------------------------------------------


def test_substream_frozen_states():
    assert substream(0, 0).state == _FROZEN_SUBSTREAM_0_0
    assert substream(0, 1).state == _FROZEN_SUBSTREAM_0_1


def test_substream_definition():
    random_pairs = np.random.default_rng(7).integers(0, MASK64, size=(8, 2), dtype=np.uint64,
                                                     endpoint=True).tolist()
    pairs = [(0, 0), (MASK64, MASK64), (1 << 63, MAPPING_STREAM), (77, 31337)] + random_pairs
    for seed, sid in pairs:
        assert substream(seed, sid).state == mix64(seed ^ mix64(sid)), (seed, sid)
        assert substream(seed, sid).draw_count == 0


@pytest.mark.parametrize("seed, sid, error", [
    (-1, 0, ValueError), (1 << 64, 0, ValueError), (0, -1, ValueError), (0, 1 << 64, ValueError),
    (0.5, 0, TypeError), (0, 1.5, TypeError), ("1", 0, TypeError), (0, None, TypeError),
])
def test_substream_rejects_bad_input(seed, sid, error):
    with pytest.raises(error):
        substream(seed, sid)


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
    for count in (1, 5, 20, 1000):
        seeds = derived_seeds(count)
        assert seeds == tuple(mix64(i) for i in range(count))
        assert all(type(s) is int for s in seeds)
    with pytest.raises(ValueError):
        derived_seeds(0)


# ---------------------------------------------------------------------------
# unit-interval mapping
# ---------------------------------------------------------------------------


def _unshift(y, shift):
    # the x with x ^ (x >> shift) == y
    x = y
    for _ in range(64 // shift):
        x = y ^ (x >> shift)
    return x


def _state_before_word(word):
    # the state whose next output word is `word`: mix64's scrambler undone
    # step by step, then one Weyl increment back
    z = _unshift(word, 31)
    z = _unshift(z * pow(rng._MULT2, -1, 1 << 64) & MASK64, 27)
    z = _unshift(z * pow(rng._MULT1, -1, 1 << 64) & MASK64, 30)
    state = (z - GOLDEN) & MASK64
    assert mix64(state) == word
    return state


def _block_unit(word):
    # the sample rng.unit_block makes from `word`
    block, _ = rng.unit_block(GeneratorState(_state_before_word(word)), 1)
    return float(block[0])


def test_unit_mapping_bottom_cell():
    assert oracle.unit_from_word(0) == 2.0**-54
    assert _block_unit(0) == 2.0**-54


def test_unit_mapping_midpoint_cell_is_nudged_off_half():
    # (2**52 + 0.5) * 2**-53 would round to exactly 0.5; the mapping must
    # land strictly above it instead.
    u = oracle.unit_from_word(2**52 << 11)
    assert u == 0.5 + 2.0**-53
    assert u != 0.5
    assert _block_unit(2**52 << 11) == u


def test_unit_mapping_top_cell_stays_below_one():
    u = oracle.unit_from_word((2**53 - 1) << 11)
    assert u == 1.0 - 2.0**-53
    assert u < 1.0
    assert _block_unit((2**53 - 1) << 11) == u


def test_unit_mapping_ignores_low_eleven_bits():
    base = 123456789 << 11
    assert oracle.unit_from_word(base) == oracle.unit_from_word(base | 0x7FF)
    assert _block_unit(base) == _block_unit(base | 0x7FF)


@given(st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_unit_mapping_is_interior_and_never_half(word):
    u = oracle.unit_from_word(word)
    assert 0.0 < u < 1.0
    assert u != 0.5
    assert math.isfinite(-math.log(u))
    assert _block_unit(word) == u


def test_unit_block_matches_scalar_path():
    gs0 = GeneratorState(substream(9, 3).state)
    block, gs_b = rng.unit_block(gs0, 257)
    gs_s = gs0
    scalars = []
    for _ in range(257):
        u, gs_s = oracle.next_unit(gs_s)
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
    return gs_b


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
def test_low_thinning_block_matches_oracle_across_chunks(monkeypatch, c, q, n):
    # n samples cross at least two 8192-draw chunk boundaries (no pass draws
    # more than a chunk), and n grown with the chunk cross two at the
    # production width too; the state starts mid-stream so absolute draw
    # counts are checked too.
    gs0 = substream(77, 2).advanced(5)
    for chunk in sorted({8192, rng._CHUNK}):
        monkeypatch.setattr(rng, "_CHUNK", chunk)
        gs = _assert_matches_oracle(LowThinning(c, q), gs0, n * chunk // 8192)
        assert n == 0 or gs.draw_count - gs0.draw_count > 2 * chunk


@pytest.mark.parametrize("chunk", [2, 3, 17, 8190, 8191])
def test_low_thinning_block_matches_oracle_on_tiny_chunks(monkeypatch, chunk):
    # Tiny chunks put a chunk boundary between almost every candidate and its
    # auxiliary draw.  Full passes of 8190 draws leave a pad bit after the
    # row and its 0 bit; at 8191 they fill whole bytes, so the last draw's
    # shifted bit is the packed int's top bit.
    monkeypatch.setattr(rng, "_CHUNK", chunk)
    for c, q in [(0.5, 0.5), (0.99, 0.5), (0.5, 1.0), (0.5, 0.0)]:
        _assert_matches_oracle(LowThinning(c, q), substream(8, chunk), max(300, chunk))


def _count_unit_blocks(monkeypatch):
    # the rows of each unit_block call: one call a LowThinning pass
    rows = []
    real = rng.unit_block

    def counted(gs, n):
        rows.append(len(gs))
        return real(gs, n)

    monkeypatch.setattr(rng, "unit_block", counted)
    return rows


@pytest.mark.parametrize("chunk", [2, 3, 17, None])
@pytest.mark.parametrize("c,q", [(0.5, 0.5), (0.5, 0.0), (0.5, 1.0), (0.99, 0.5)])
def test_thinning_slice_paths_equal_the_oracle(monkeypatch, chunk, c, q):
    # One row writes its kept draws by slice.  Four rows from different
    # mid-stream starts finish in one pass at the production chunk, from the
    # same fill, and go in one copy; a tiny chunk leaves them at different
    # fills, written through a mask.  Every row equals the one-draw oracle
    # (samples, draw counts, end state, rejections), and a call without the
    # grid gives the same samples, end states and rejections.
    if chunk is not None:
        monkeypatch.setattr(rng, "_CHUNK", chunk)
    model = LowThinning(c, q)
    starts = [substream(41, i).advanced(3 * i + 1) for i in range(4)]
    n = 150
    _assert_matches_oracle(model, starts[0], n)
    passes = _count_unit_blocks(monkeypatch)
    samples, at_draw, new, rejected = rng.fault_block(model, rng.RowStates.of(starts), n)
    if chunk is None:
        assert passes == [4]
    else:  # rows leave the passes at different times
        assert passes[0] == 4 and 1 <= passes[-1] < 4
    for r, gs in enumerate(starts):
        values, counts, end, rejected_s = _oracle_walk(model, gs, n)
        assert samples[r].tolist() == values
        assert at_draw[r].tolist() == counts
        assert new.row(r) == end
        assert rejected[r] == rejected_s
    bare = rng.fault_block(model, rng.RowStates.of(starts), n, grid=False)
    assert np.array_equal(bare[0], samples)
    assert np.array_equal(bare[1], new.draw_count)
    assert np.array_equal(bare[2].state, new.state)
    assert np.array_equal(bare[2].draw_count, new.draw_count)
    assert np.array_equal(bare[3], rejected)
    one = rng.fault_block(model, starts[1], n, grid=False)
    assert one[0].tolist() == samples[1].tolist()
    assert one[1:] == (new.row(1).draw_count, new.row(1), rejected[1])


@pytest.mark.parametrize("rows,n,bound", [
    (1, 200_000, 5_000_000),  # wide passes, 2**15 draws each: 4,221,240 measured
    (16, 2_000, 2_400_000),   # one narrow pass over 16 rows: 1,994,427 measured
])
def test_low_thinning_transients_stay_near_the_output(rows, n, bound):
    # numpy reports its buffers to tracemalloc, and Python ints count too.
    # The bound is in bytes, above the output (3,200,000 and 512,000 bytes
    # of samples and draw counts).  A pass holds about 30-50 bytes per draw
    # of its chunk, so at 200k samples a 2**17-draw chunk alone would pass
    # the bound; the 16-row pass, narrower than any chunk, bounds the bytes
    # per draw (four int32 temporaries per draw read 3.4 MB).
    starts = rng.substream_rows(5, np.arange(1, rows + 1))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        samples, at_draw, _, _ = rng.fault_block(LowThinning(0.5, 0.5), starts, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert samples.shape == (rows, n)
    assert peak - before <= bound


def _gap_rejections(at_draw, start, upto):
    """Rejections counted gap by gap: each gap between consecutive draw
    counts is 1 or 2 plus twice the rejections in it."""
    gaps = np.diff(at_draw, axis=-1, prepend=np.asarray(start)[:, None])
    rejected = (gaps - 1) >> 1
    rejected[np.arange(at_draw.shape[-1]) >= upto[:, None]] = 0
    return rejected.sum(axis=-1).tolist()


@pytest.mark.parametrize("c,q", [(0.5, 0.5), (0.25, 0.9), (0.99, 0.5), (0.5, 0.0), (0.7, 1.0)])
def test_fault_rejections_equal_the_gap_count_and_the_scalar_walk(c, q):
    model = LowThinning(c, q)
    starts = [substream(9, i).advanced(i) for i in range(6)]
    n = 300
    samples, at_draw, _, rejected = rng.fault_block(model, rng.RowStates.of(starts), n)
    start = np.array([gs.draw_count for gs in starts])
    upto = np.array([0, 1, 7, 150, n - 1, n])
    counted = rng.fault_rejections(at_draw, samples < c, start, upto=upto)
    assert counted.tolist() == _gap_rejections(at_draw, start, upto)
    assert rejected.tolist() == _gap_rejections(at_draw, start, np.full(len(starts), n))
    for r, gs in enumerate(starts):
        assert counted[r] == _oracle_walk(model, gs, upto[r])[3]


def _scalar_candidates(below):
    cand = np.zeros_like(below)
    for r, row in enumerate(below):
        is_cand = True  # each row starts on a candidate
        for p, is_below in enumerate(row):
            cand[r, p] = is_cand
            is_cand = not (is_cand and is_below)
    return cand


@st.composite
def _below_masks(draw):
    rows, width = draw(st.integers(1, 5)), draw(st.integers(1, 200))
    row = st.one_of(
        st.just([True] * width),
        st.just([False] * width),
        st.lists(st.booleans(), min_size=width, max_size=width),
        # a run below c that ends at the row's last draw
        st.integers(1, width).map(lambda k: [False] * (width - k) + [True] * k),
    )
    return np.array(draw(st.lists(row, min_size=rows, max_size=rows)), dtype=bool)


@settings(max_examples=300, deadline=None)
@given(_below_masks())
def test_candidates_equal_scalar_walk(below):
    # Rows of 1-200 draws cross the byte boundaries of the packing and the
    # 30-bit digits of the packed int, in every row but the first too.
    assert rng._candidates(below).tolist() == _scalar_candidates(below).tolist()


def test_substream_rows_equal_substreams():
    ids = np.array([0, 1, 7, worker_stream(3), MAPPING_STREAM], dtype=np.int64)
    for seed in (0, 42, MASK64):
        rows = rng.substream_rows(seed, ids)
        assert [rows.row(r) for r in range(len(rows))] == [substream(seed, int(i)) for i in ids]
    top = rng.substream_rows(3, np.array([MASK64], dtype=np.uint64))
    assert top.row(0) == substream(3, MASK64)


@pytest.mark.parametrize("ids", [[-1], [0.5], [2**64], [4, -1], np.array([2, -7])],
                         ids=["negative", "fraction", "2**64", "list-tail", "int64-array"])
def test_substream_rows_rejects_bad_ids(ids):
    # substream(0, -1) and substream(0, 0.5) raise; the row form must not
    # wrap -1 to 2**64 - 1 or truncate 0.5 to stream 0.
    with pytest.raises(ValueError, match="stream ids"):
        rng.substream_rows(0, ids)


_ROW_MODELS = [IDEAL, PowerBias(2.0), LowThinning(0.5, 0.5), LowThinning(0.99, 1.0)]


@pytest.mark.parametrize("chunk", sorted({3, 17, 8192, rng._CHUNK}))
@pytest.mark.parametrize("model", _ROW_MODELS, ids=fault_label)
def test_fault_block_rows_equal_one_call_per_row(monkeypatch, model, chunk):
    # Rows start at different stream positions; with small chunks they need
    # different numbers of passes, and a pass covers only the rows still short.
    monkeypatch.setattr(rng, "_CHUNK", chunk)
    starts = [substream(9, i).advanced(i) for i in range(5)]
    n = 40 if model == LowThinning(0.99, 1.0) else 300
    samples, at_draw, new, rejected = rng.fault_block(model, rng.RowStates.of(starts), n)
    assert samples.shape == at_draw.shape == (5, n)
    for r, gs in enumerate(starts):
        one = rng.fault_block(model, gs, n)
        assert samples[r].tolist() == one[0].tolist()
        assert at_draw[r].tolist() == one[1].tolist()
        assert new.row(r) == one[2]
        assert rejected[r] == one[3]


@pytest.mark.parametrize("model", _ROW_MODELS, ids=fault_label)
def test_no_grid_call_equals_the_grid_call(model):
    # Without the grid, the second item is each row's draw count after its
    # last sample, which is its end state's; n = 0 leaves every row where it
    # started.
    starts = rng.RowStates.of([substream(3, i).advanced(i) for i in range(3)])
    for n in (0, 1, 257):
        samples, at_draw, new, rejected = rng.fault_block(model, starts, n)
        bare = rng.fault_block(model, starts, n, grid=False)
        assert np.array_equal(bare[0], samples)
        assert np.array_equal(bare[1], new.draw_count)
        if n:
            assert np.array_equal(at_draw[:, -1], new.draw_count)
        else:
            assert np.array_equal(new.draw_count, starts.draw_count)
        assert np.array_equal(bare[2].state, new.state)
        assert np.array_equal(bare[3], rejected)


def test_unit_block_rows_equal_one_call_per_row():
    starts = [substream(4, i).advanced(2 * i) for i in range(3)]
    grid, new = rng.unit_block(rng.RowStates.of(starts), 50)
    for r, gs in enumerate(starts):
        u, gs_after = rng.unit_block(gs, 50)
        assert grid[r].tolist() == u.tolist()
        assert new.row(r) == gs_after
    empty, same = rng.fault_block(IDEAL, rng.RowStates.of(starts), 0)[::2]
    assert empty.shape == (3, 0)
    assert [same.row(r) for r in range(3)] == starts


# The kernels make a grid in tiles of rng.TILE_CELLS cells: a run of whole
# rows, or an even stretch of one longer row.  These tests set the tile to
# _T cells (every tile size gives the same bits), and these shapes put rows
# of 1, T - 1, T and T + 1 cells, rows split over two or three tiles, and
# grids whose rows fill some tiles and leave a short last one.
_T = 1 << 13
_TILE_SHAPES = [(1, 1), (3, 1), (1, _T - 1), (1, _T), (1, _T + 1), (2, _T + 1),
                (1, 2 * _T + 3), (3, 3000), (5, 1639), (4, _T // 4 + 1)]


def _oracle_words(rows, n):
    # word k of each row: the one-draw generator step from the row's state
    # advanced k steps
    return [[mix64((int(s) + k * GOLDEN) & MASK64) for k in range(n)] for s in rows.state]


def _unit_block_in_t_tiles(gs, n):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rng, "TILE_CELLS", _T)
        return rng.unit_block(gs, n)


def _check_grid_against_oracle(rows, n):
    words = _oracle_words(rows, n)
    units, new = _unit_block_in_t_tiles(rows, n)
    assert units.tolist() == [[oracle.unit_from_word(w) for w in row] for row in words]
    assert new.state.tolist() == [(int(s) + n * GOLDEN) & MASK64 for s in rows.state]
    assert new.draw_count.tolist() == (rows.draw_count + n).tolist()
    return units, words


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(_TILE_SHAPES),
    st.lists(st.integers(min_value=0, max_value=MASK64), min_size=5, max_size=5),
    st.lists(st.integers(min_value=0, max_value=10**12), min_size=5, max_size=5),
)
def test_tiled_kernels_match_the_one_draw_oracle_across_tile_edges(shape, states, counts):
    # rows stand at unequal states after unequal draw counts
    n_rows, n = shape
    rows = rng.RowStates(np.array(states[:n_rows], dtype=np.uint64),
                         np.array(counts[:n_rows], dtype=np.int64))
    units, _ = _check_grid_against_oracle(rows, n)
    one = rows.row(0)  # a single stream is the one-row case of the same tiles
    u, after = _unit_block_in_t_tiles(one, n)
    assert u.tolist() == units[0].tolist()
    assert after == one.advanced(n)


@pytest.mark.parametrize("word", [2**52 << 11, (2**53 - 1) << 11], ids=["half", "one"])
@pytest.mark.parametrize("n_rows, n, row, col", [
    (1, _T, 0, _T - 1),           # the last cell of a row's only tile
    (1, 2 * _T, 0, _T - 1),       # the last cell of a row's first tile
    (1, 2 * _T, 0, _T),           # the first cell of its second tile
    (2, _T // 2, 1, _T // 2 - 1),  # the last cell of a two-row tile
])
def test_snap_words_on_tile_edges(word, n_rows, n, row, col):
    # the cells that binary64 folds onto 0.5 and 1.0 are snapped inside,
    # wherever a tile puts them
    states = [substream(6, i).state for i in range(n_rows)]
    states[row] = (_state_before_word(word) - col * GOLDEN) & MASK64
    rows = rng.RowStates(np.array(states, dtype=np.uint64), np.arange(n_rows, dtype=np.int64))
    units, words = _check_grid_against_oracle(rows, n)
    assert words[row][col] == word
    assert units[row, col] == oracle.unit_from_word(word)
    assert units[row, col] not in (0.5, 1.0)


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
        u, gs_s = oracle.next_unit(gs_s)
        assert u == block[i]
    assert gs_b == gs_s


def test_source_stream_is_reproducible():
    a = oracle.SourceStream(seed=8, stream_id=1, model=PowerBias(2.0))
    b = oracle.SourceStream(seed=8, stream_id=1, model=PowerBias(2.0))
    assert [a.next() for _ in range(100)] == [b.next() for _ in range(100)]
