"""Event-generation tests: serial merged clock, parallel clocks, merging,
clock-to-worker mappings, and block-versus-oracle agreement.

The hand-checkable constant-stream cases run on the one-draw-at-a-time
simulators in ``oracle``, which accept a fed source; the block simulators
must then match the oracle bit for bit."""

import math
import tracemalloc

import numpy as np
import pytest

import oracle
from clockcheck import process, rng
from clockcheck.process import (
    MAPPING_KINDS,
    ParallelConfig,
    SerialConfig,
    StreamMode,
    Trajectory,
    make_mapping,
)
from clockcheck.rng import (
    IDEAL,
    LowThinning,
    PowerBias,
    clock_stream,
    substream_rows,
    worker_stream,
)
from clockcheck.transforms import Compose, Reflect, RescaleWindow, RotateHalf

_INV_E = math.exp(-1.0)


class _FeedSource:
    """Draw source that replays a fixed list (cycling), counting draws."""

    def __init__(self, values):
        self._values = list(values)
        self.raw_draws = 0
        self.fault_discards = 0
        self.window_discards = 0

    def next(self) -> float:
        u = self._values[self.raw_draws % len(self._values)]
        self.raw_draws += 1
        return u


# ---------------------------------------------------------------------------
# exponential increments
# ---------------------------------------------------------------------------


def test_exp_increment_unit_example():
    assert oracle.exp_increment(_INV_E, 1.0) == 1.0


def test_exp_increment_halving_by_rate():
    assert oracle.exp_increment(0.5, 2.0) == float(-np.log(np.float64(0.5)) / np.float64(2.0))


def test_exp_increment_domain_errors():
    for bad_u in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            oracle.exp_increment(bad_u, 1.0)
    for bad_rate in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            oracle.exp_increment(0.5, bad_rate)


# ---------------------------------------------------------------------------
# degenerate constant streams (hand-checkable trajectories)
# ---------------------------------------------------------------------------


def test_serial_constant_stream_single_clock():
    # Every increment is exactly 1; the event at t=4 overruns the horizon
    # and is suppressed after its time draw, hence 2K+1 draws for K events.
    cfg = SerialConfig(n_clocks=1, horizon=3.5, seed=0)
    traj = oracle.simulate_serial(cfg, source=_FeedSource([_INV_E]))
    assert traj.times.tolist() == [1.0, 2.0, 3.0]
    assert traj.marks.tolist() == [0, 0, 0]
    assert traj.draw_indices.tolist() == [2, 4, 6]
    assert traj.total_draws == 7
    assert len(traj) == 3
    assert traj.final_time == 3.0


def test_serial_constant_stream_marks_scale_with_clock_count():
    cfg = SerialConfig(n_clocks=4, horizon=0.6, seed=0)
    traj = oracle.simulate_serial(cfg, source=_FeedSource([_INV_E, 0.9]))
    # rate N=4 quarters every gap; mark = min(floor(0.9 * 4), 3) = 3
    assert traj.times.tolist() == [0.25, 0.5]
    assert traj.marks.tolist() == [3, 3]
    assert traj.total_draws == 5


def test_parallel_constant_stream_interleaves_clocks():
    cfg = ParallelConfig(n_clocks=2, horizon=2.5, seed=0)
    traj = oracle.simulate_parallel(cfg, source_factory=lambda clock: _FeedSource([_INV_E]))
    assert traj.times.tolist() == [1.0, 1.0, 2.0, 2.0]
    assert traj.marks.tolist() == [0, 1, 0, 1]  # ties break by ascending mark
    assert traj.total_draws == 6  # each clock: 2 events + 1 suppressed draw


def test_per_worker_round_robin_hand_check():
    cfg = ParallelConfig(
        n_clocks=2,
        horizon=1.5,
        seed=0,
        workers=1,
        stream_mode=StreamMode.PER_WORKER,
    )
    feeds = []

    def factory(worker):
        feeds.append(_FeedSource([_INV_E]))
        return feeds[-1]

    traj = oracle.simulate_parallel(cfg, source_factory=factory)
    assert len(feeds) == 1  # single worker hosts both clocks
    assert traj.times.tolist() == [1.0, 1.0]
    assert traj.marks.tolist() == [0, 1]
    # round-robin order: c0 tick, c1 tick, then one overrun draw per clock
    assert traj.draw_indices.tolist() == [1, 2]
    assert traj.total_draws == 4


def test_per_worker_unequal_feeds_follow_rotation_order():
    # Distinct gaps per draw expose the strict c0, c1, c0, c1 rotation.
    cfg = ParallelConfig(
        n_clocks=2, horizon=1.0, seed=0, workers=1, stream_mode=StreamMode.PER_WORKER
    )
    feed = _FeedSource([math.exp(-0.3), math.exp(-0.7)])

    traj = oracle.simulate_parallel(cfg, source_factory=lambda worker: feed)
    # draws: c0 +0.3 -> 0.3, c1 +0.7 -> 0.7, c0 -> 0.6, c1 -> 1.4 (out),
    # c0 -> 0.9, c0 -> 1.2 (out); merged order interleaves c1 at 0.7
    assert traj.marks.tolist() == [0, 0, 1, 0]
    assert traj.draw_indices.tolist() == [1, 3, 2, 5]
    assert traj.times == pytest.approx([0.3, 0.6, 0.7, 0.9], abs=1e-12)
    assert traj.total_draws == 6


# ---------------------------------------------------------------------------
# block paths against the oracle
# ---------------------------------------------------------------------------


_PIPELINES = [
    (IDEAL, None, None),
    (PowerBias(2.0), Reflect(), None),
    (LowThinning(0.3, 0.8), None, RescaleWindow(0.1, 0.9)),
    (PowerBias(0.7), Compose([RotateHalf(), Reflect()]), RescaleWindow(0.2, 1.0)),
]


def _assert_same(fast, slow):
    assert fast.marks.dtype == np.int32  # 20 bytes an event
    assert np.array_equal(fast.times, slow.times)
    assert np.array_equal(fast.marks, slow.marks)
    assert np.array_equal(fast.draw_indices, slow.draw_indices)
    assert fast.total_draws == slow.total_draws


@pytest.mark.parametrize("fault,transform,window", _PIPELINES)
def test_serial_block_path_equals_scalar_path(fault, transform, window):
    cfg = SerialConfig(
        n_clocks=6, horizon=40.0, seed=1234, fault=fault, transform=transform,
        fix_window=window,
    )
    _assert_same(process.simulate_serial(cfg), oracle.simulate_serial(cfg))


def _count_pipeline_calls(monkeypatch):
    # the sample count each process.pipeline_block call asks for
    calls = []
    real = process.pipeline_block

    def counted(fault, transform, window, gs, n, **kw):
        calls.append(n)
        return real(fault, transform, window, gs, n, **kw)

    monkeypatch.setattr(process, "pipeline_block", counted)
    return calls


def _count_passes(monkeypatch):
    # the (rows, samples per row) of each serial or per-clock pass: each
    # process._pass_tiles call is one pass, drawn tile by tile
    passes = []
    real = process._pass_tiles

    def counted(fault, transform, window, rows, n, *rest, **kw):
        passes.append((len(rows), n))
        return real(fault, transform, window, rows, n, *rest, **kw)

    monkeypatch.setattr(process, "_pass_tiles", counted)
    return passes


@pytest.mark.parametrize("cells", [64, 1000])
@pytest.mark.parametrize("fault,transform,window", _PIPELINES)
def test_serial_passes_equal_one_pass(monkeypatch, fault, transform, window, cells):
    # 800 to 2400 events at N=6, H=200, by pipeline: a cap of 64 takes
    # dozens of passes and a cap of 1000 two or more, each going on from the
    # last one's stream state and time.
    cfg = SerialConfig(
        n_clocks=6, horizon=200.0, seed=4321, fault=fault, transform=transform,
        fix_window=window,
    )
    uncapped = process.simulate_serial(cfg)
    monkeypatch.setattr(process, "MAX_PASS_CELLS", cells)
    passes = _count_passes(monkeypatch)
    capped = process.simulate_serial(cfg)
    assert len(passes) >= 2 and all(n <= cells and n % 2 == 0 for _, n in passes)
    _assert_same(capped, uncapped)
    _assert_same(capped, oracle.simulate_serial(cfg))


def test_serial_run_outrunning_its_estimate_takes_another_pass(monkeypatch):
    # power_bias(4) makes about 4·N·H events, more than the N·H + 5·sqrt(N·H)
    # + 32 the first pass is sized for at one event per clock per unit time;
    # the second pass, sized at the pace the first one showed, goes on where
    # the first stopped and reaches the horizon.
    cfg = SerialConfig(n_clocks=4, horizon=100.0, seed=9, fault=PowerBias(4.0))
    passes = _count_passes(monkeypatch)
    fast = process.simulate_serial(cfg)
    first = int(4 * 100.0 + 5 * math.sqrt(4 * 100.0)) + 32
    calls = [n for _, n in passes]
    assert calls[0] == 2 * first and len(calls) == 2 and calls[1] > calls[0]
    assert len(fast) > first
    _assert_same(fast, oracle.simulate_serial(cfg))


def test_first_passes_draw_what_the_horizon_needs(monkeypatch):
    # On an ideal source at N=256, H=250, sized for one tick per clock per
    # unit time, the serial run asks for two samples per expected event plus
    # a 5-sigma + 32 margin and a per-clock grid is H + 5·sqrt(H) + 32 wide;
    # each ends in one pass.  Sizing for 2.5 times the expected ticks would
    # ask for 320,064 samples and a width of 657.  A worker's row of 64
    # lanes is a merged clock of rate 64: its first pass asks for 64·H +
    # 5·sqrt(64·H) + 32 samples, rounded up to whole rounds, in one tile,
    # and one more pass at most.
    n, h = 256, 250.0
    passes = _count_passes(monkeypatch)
    process.simulate_serial(SerialConfig(n, h, seed=3))
    assert passes == [(1, passes[0][1])]
    assert passes[0][1] <= 2 * (n * h + 5 * math.sqrt(n * h) + 32)
    del passes[:]
    process.simulate_parallel(ParallelConfig(n, h, seed=3), {}, pace=1.0)
    assert passes == [(n, passes[0][1])] and passes[0][1] <= h + 5 * math.sqrt(h) + 32
    calls = _count_pipeline_calls(monkeypatch)  # the serial and per-clock tiles call it too
    process.simulate_parallel(
        ParallelConfig(n, h, seed=3, workers=4, stream_mode=StreamMode.PER_WORKER), {}, pace=1.0)
    lanes = n // 4
    assert 4 <= len(calls) <= 8
    assert max(calls) <= lanes * h + 5 * math.sqrt(lanes * h) + 32 + lanes - 1


@pytest.mark.parametrize("fault,transform,window", _PIPELINES)
def test_pass_sizes_change_no_bit(monkeypatch, fault, transform, window):
    # 800 to 2400 events at N=6, H=200, by pipeline.  The parallel runs take
    # pace hints from 0.05 to 50; every run is also run with every pass
    # sized for a pace off by those factors.  At 0.05 a run takes three or
    # more passes (a per-worker run, whose later passes follow its own pace,
    # two or more), at 50 its first pass asks for over ten times the
    # samples it uses.  Every run equals the scalar oracle.
    common = dict(n_clocks=6, horizon=200.0, seed=31, fault=fault, transform=transform,
                  fix_window=window)
    cells = {f"P{p}": ParallelConfig(**common, workers=p,
                                     mapping=make_mapping("round_robin", 6, p, seed=0))
             for p in (1, 3)}
    cells["per_worker"] = ParallelConfig(**common, stream_mode=StreamMode.PER_WORKER)
    serial_cfg = SerialConfig(**common)
    slow = {"serial": oracle.simulate_serial(serial_cfg)}
    slow.update({name: oracle.simulate_parallel(cfg) for name, cfg in cells.items()})
    most = 1 + slow["P1"].per_clock_ticks.max()  # samples of the longest clock
    used = {"serial": 2 * len(slow["serial"]) + 1, "P1": most, "per_worker": 6 * most}
    ticks = process._ticks_to_pass
    passes = _count_passes(monkeypatch)
    calls = _count_pipeline_calls(monkeypatch)  # a per-worker run's passes

    def asked(name):
        return list(calls) if name == "per_worker" else [n for _, n in passes]

    for factor in (0.05, 0.5, 1, 4, 50):
        hinted, scaled = {}, {}
        for name, cfg in cells.items():
            del passes[:], calls[:]
            _assert_same(process.simulate_parallel(cfg, {}, pace=factor), slow[name])
            hinted[name] = asked(name)
        with monkeypatch.context() as patch:
            # each pass sized as if the pace were `factor` times what the
            # run assumes or has shown
            patch.setattr(process, "_ticks_to_pass",
                          lambda left, pace, cap: ticks(left, factor * pace, cap))
            for name in ("serial", "P1", "P3", "per_worker"):
                del passes[:], calls[:]
                run = (process.simulate_serial(serial_cfg) if name == "serial"
                       else process.simulate_parallel(cells[name], {}, pace=1.0))
                _assert_same(run, slow[name])
                scaled[name] = asked(name)
        if factor == 0.05:
            for name in ("serial", "P1", "per_worker"):
                assert len(scaled[name]) >= 3
            assert len(hinted["per_worker"]) >= 2
        if factor == 50:
            assert scaled["serial"][0] >= 10 * used["serial"]
            for name in ("P1", "per_worker"):
                assert hinted[name][0] >= 10 * used[name]


@pytest.mark.parametrize("fault,transform,window", _PIPELINES)
def test_parallel_block_path_equals_scalar_path(fault, transform, window):
    # Per-clock runs draw each worker's clocks as one grid, so every worker
    # count and mapping splits the clocks differently; 6 clocks on 8 workers
    # leaves some workers empty.
    slow = oracle.simulate_parallel(ParallelConfig(
        n_clocks=6, horizon=40.0, seed=77, fault=fault, transform=transform,
        fix_window=window,
    ))
    for workers in (1, 3, 8):
        for kind in MAPPING_KINDS:
            cfg = ParallelConfig(
                n_clocks=6, horizon=40.0, seed=77, fault=fault, transform=transform,
                fix_window=window, workers=workers,
                mapping=make_mapping(kind, 6, workers, seed=77),
            )
            _assert_same(process.simulate_parallel(cfg, {}, pace=1.0), slow)


@pytest.mark.parametrize("cells", [5, 200])
def test_per_clock_grid_cap_splits_rows_and_passes(monkeypatch, cells):
    # At horizon 20 a row holds 82 samples a pass.  A cap of 5 cells takes
    # one row at a time in 5-sample passes; a cap of 200 takes two rows a
    # pass, and at four ticks per unit time some rows outrun 82 samples and
    # need a second pass.
    cfg = ParallelConfig(
        n_clocks=5, horizon=20.0, seed=12, fault=PowerBias(4.0), workers=2,
        mapping=(0, 0, 0, 0, 1),
    )
    uncapped = process.simulate_parallel(cfg, {}, pace=1.0)
    monkeypatch.setattr(process, "MAX_PASS_CELLS", cells)
    passes = _count_passes(monkeypatch)
    _assert_same(process.simulate_parallel(cfg, {}, pace=1.0), uncapped)
    calls = [rows for rows, _ in passes]
    batch = max(1, cells // 82)
    assert max(calls) <= batch
    assert len(calls) > -(-4 // batch) + 1  # more passes than batches: a row went on


@pytest.mark.parametrize("fault,transform,window", _PIPELINES)
def test_pipeline_block_rows_equal_one_call_per_row(fault, transform, window):
    # Rows start at different stream positions and finish their fault and
    # window passes at different points.
    starts = [oracle.substream(5, i).advanced(3 * i) for i in range(7)]
    samples, at_draw, fault_rejected, window_rejected = process.pipeline_block(
        fault, transform, window, oracle.rows(starts), 700
    )
    assert samples.shape == at_draw.shape == (7, 700)
    for r, gs in enumerate(starts):
        one = process.pipeline_block(fault, transform, window, oracle.rows([gs]), 700)
        assert samples[r].tolist() == one[0][0].tolist()
        assert at_draw[r].tolist() == one[1][0].tolist()
        assert (fault_rejected[r], window_rejected[r]) == (one[2][0], one[3][0])


def _counting_unit_blocks(monkeypatch, shapes):
    # the (rows, raw draws a row) of each rng.unit_block call: one a draw-on pass
    real = rng.unit_block

    def counted(gs, n):
        shapes.append((len(gs), n))
        return real(gs, n)

    monkeypatch.setattr(rng, "unit_block", counted)


def test_window_draws_rows_in_capped_passes(monkeypatch):
    # A 0.05-wide window first assumes 1.5 / 0.05 = 30 draws per kept
    # sample, 2400 for 80, plus five negative-binomial sigmas and 32: 3751,
    # and a cap of 8000 cells takes two rows a pass.  Under PowerBias(2) the
    # window (0.1, 0.15) holds 1.25% of the mass, so the rows fall short;
    # each draws on from where it stopped, at the acceptance it has shown,
    # in passes of at most 8000 draws.
    window = RescaleWindow(0.1, 0.15)
    starts = substream_rows(6, np.arange(30))
    uncapped = process.pipeline_block(PowerBias(2.0), None, window, starts, 80)
    shapes = []
    monkeypatch.setattr(rng, "MAX_PASS_CELLS", 8000)
    _counting_unit_blocks(monkeypatch, shapes)
    capped = process.pipeline_block(PowerBias(2.0), None, window, starts, 80)
    for got, want in zip(capped, uncapped):
        assert np.array_equal(got, want)
    assert rng._pass_draws(np.array([80]), np.array([0]), np.array([0]), 30.0) == 3751
    # two rows of 3751 draws first; 30 rows at two a pass would take 15
    assert shapes[0] == (2, 3751)
    assert len(shapes) > 15 and any(m > 3751 for _, m in shapes)
    assert all(rows * m <= 8000 for rows, m in shapes)


# (fault, window, n, passes of the single row): under Reflect, PowerBias(2)
# has the density 2(1 - y) and LowThinning(0.5, 0.5) 4/3 on (0, 0.5) and 2/3
# on (0.5, 1), against a first pass sized for an acceptance of width / 1.5
# of the fault samples, each one raw draw, or two under the thinning.
_DRAW_ON = [
    (PowerBias(2.0), RescaleWindow(0.0, 0.5), 200, 1),  # 0.75 against 1/3
    (PowerBias(2.0), RescaleWindow(0.6, 0.8), 200, 1),  # 0.12 against 0.133
    (PowerBias(2.0), RescaleWindow(0.9, 0.95), 60, 2),  # 0.0075 against 0.033
    (PowerBias(2.0), RescaleWindow(0.99, 0.995), 1, 3),  # 0.000075 against 0.0033: doubling
    (LowThinning(0.5, 0.5), RescaleWindow(0.1, 0.4), 200, 1),  # 0.4 against 0.2
    (LowThinning(0.5, 0.5), RescaleWindow(0.6, 0.62), 60, 3),  # 9000 draws, 4000 a pass
    (LowThinning(0.5, 0.5), RescaleWindow(0.6, 0.62), 120, 5),  # 18000 draws
    (LowThinning(0.5, 0.5), RescaleWindow(0.6, 0.62), 170, 7),  # 25500 draws
    (LowThinning(0.5, 0.5), RescaleWindow(0.6, 0.62), 90, 4),  # 13500 draws
]


@pytest.mark.parametrize("fault,window,n,passes", _DRAW_ON)
def test_window_rows_draw_on_in_capped_passes(monkeypatch, fault, window, n, passes):
    # A cap of 4000 draws bounds every pass, a single row's too.  A row the
    # window leaves short draws on from the state its last pass ended at, so
    # a single row and a grid of six give the one-draw twin's samples, draw
    # counts and rejections, and those of the uncapped call, in any number
    # of passes.
    single, grid = substream_rows(1, [0]), substream_rows(1, np.arange(6))
    uncapped = process.pipeline_block(fault, Reflect(), window, grid, n)
    shapes = []
    monkeypatch.setattr(rng, "MAX_PASS_CELLS", 4000)
    _counting_unit_blocks(monkeypatch, shapes)
    one = process.pipeline_block(fault, Reflect(), window, single, n)
    assert len(shapes) == passes
    rows = process.pipeline_block(fault, Reflect(), window, grid, n)
    assert all(r * m <= 4000 for r, m in shapes)
    for got, want in zip(rows, uncapped):
        assert np.array_equal(got, want)
    for got, want in zip(one, rows):
        assert np.array_equal(got, want[:1])
    for r in range(6):
        pipe = oracle.PipelineSource(1, r, fault, Reflect(), window)
        expected, counts = [], []
        for _ in range(n):
            expected.append(pipe.next())
            counts.append(pipe.raw_draws)
        assert rows[0][r].tolist() == expected
        assert rows[1][r].tolist() == counts
        assert (rows[2][r], rows[3][r]) == (pipe.fault_discards, pipe.window_discards)


def test_short_window_row_draws_on_for_its_negative_binomial_spread(monkeypatch):
    # LowThinning(0.5, 0.5) under Reflect lands in (0.6, 0.62) with odds of
    # about 1/75 a fault sample, 1/150 a raw draw.  The first pass of 8000
    # draws leaves the row a few samples short; the draws those take spread
    # as a negative binomial, sqrt(k (1 - p)) / p, about sqrt(1/p) times the
    # Poisson sqrt(k / p), so the next pass is sized with that spread, not
    # the Poisson one, and ends the row.
    window = RescaleWindow(0.6, 0.62)
    shapes = []
    monkeypatch.setattr(rng, "MAX_PASS_CELLS", 8000)
    _counting_unit_blocks(monkeypatch, shapes)
    (samples,), (at_draw,), (fault_rejected,), (window_rejected,) = process.pipeline_block(
        LowThinning(0.5, 0.5), Reflect(), window, substream_rows(0, [0]), 60)
    assert shapes == [(1, 8000), (1, 843)]
    pipe = oracle.PipelineSource(0, 0, LowThinning(0.5, 0.5), Reflect(), window)
    expected, counts = [], []
    for _ in range(60):
        expected.append(pipe.next())
        counts.append(pipe.raw_draws)
    assert samples.tolist() == expected
    assert at_draw.tolist() == counts
    assert (fault_rejected, window_rejected) == (pipe.fault_discards, pipe.window_discards)


def test_a_row_that_keeps_nothing_doubles_its_draws(monkeypatch):
    # PowerBias(2) under Reflect lands in (0.99, 0.995) with odds of
    # 7.5e-5.  The first pass, sized for an acceptance of width / 1.5, keeps
    # nothing; a row that has kept nothing draws as many again as it has
    # drawn, so its passes are 1829, 1829 and 3658 draws, not 1829 each.
    window = RescaleWindow(0.99, 0.995)
    shapes = []
    _counting_unit_blocks(monkeypatch, shapes)
    (samples,), (at_draw,), (fault_rejected,), (window_rejected,) = process.pipeline_block(
        PowerBias(2.0), Reflect(), window, substream_rows(1, [0]), 1)
    assert shapes == [(1, 1829), (1, 1829), (1, 3658)]
    pipe = oracle.PipelineSource(1, 0, PowerBias(2.0), Reflect(), window)
    assert samples.tolist() == [pipe.next()] and at_draw.tolist() == [pipe.raw_draws]
    assert (fault_rejected, window_rejected) == (pipe.fault_discards, pipe.window_discards)


@pytest.mark.parametrize("fault", [IDEAL, PowerBias(2.0), LowThinning(0.5, 0.5)])
@pytest.mark.parametrize("window", [None, RescaleWindow(0.6, 0.62), RescaleWindow(0.3, 0.9)])
def test_pipeline_without_the_grid_equals_the_grid_call(monkeypatch, fault, window):
    # Without the grid, the second item is each row's draw count after its
    # n-th sample; samples and rejections stay those of the grid call, on a
    # one-row grid (the slice path) and on six rows, in capped passes too.
    monkeypatch.setattr(rng, "MAX_PASS_CELLS", 4000)
    single, grid = substream_rows(2, [0]).advanced(7), substream_rows(2, np.arange(6))
    for n in (0, 1, 60):
        for gs in (single, grid):
            samples, at_draw, fault_rejected, window_rejected = process.pipeline_block(
                fault, Reflect(), window, gs, n)
            bare = process.pipeline_block(fault, Reflect(), window, gs, n, grid=False)
            assert np.array_equal(bare[0], samples)
            assert np.array_equal(bare[1], at_draw[:, -1] if n else gs.draw_count)
            assert np.array_equal(bare[2], fault_rejected)
            assert np.array_equal(bare[3], window_rejected)


def _tiny_tile_runs(monkeypatch, fault):
    # serial, per-clock and per-worker configs of five clocks, their
    # simulators in tiny passes and tiles, and the one-draw oracle's runs
    common = dict(n_clocks=5, horizon=30.0, seed=19, fault=fault, transform=Reflect())
    cfgs = [SerialConfig(**common),
            ParallelConfig(**common, workers=2, mapping=make_mapping("round_robin", 5, 2, seed=0)),
            ParallelConfig(**common, workers=2, mapping=make_mapping("blocks", 5, 2, seed=0),
                           stream_mode=StreamMode.PER_WORKER)]
    run = [process.simulate_serial] + [lambda cfg: process.simulate_parallel(cfg, {}, 1.0)] * 2
    slow = [oracle.simulate_serial(cfgs[0])] + [oracle.simulate_parallel(c) for c in cfgs[1:]]
    monkeypatch.setattr(process, "MAX_PASS_CELLS", 60)
    monkeypatch.setattr(process, "TILE_CELLS", 8)
    monkeypatch.setattr(rng, "TILE_CELLS", 8)
    return cfgs, run, slow


@pytest.mark.parametrize("fault", [IDEAL, PowerBias(2.0)])
def test_per_draw_runs_equal_the_oracle_in_tiny_tiles(monkeypatch, fault):
    # With one raw draw a sample, the serial, per-clock and per-worker runs
    # draw in tiles of a few columns; in tiny passes and tiles they read
    # each event's draw count from the tile's grid and equal the one-draw
    # oracle.
    cfgs, run, slow = _tiny_tile_runs(monkeypatch, fault)
    for f, cfg, want in zip(run, cfgs, slow):
        _assert_same(f(cfg), want)


@pytest.mark.parametrize("fault", [IDEAL, PowerBias(2.0), LowThinning(0.5, 0.5)])
def test_every_tile_carries_a_draw_count_grid(monkeypatch, fault):
    # The run loop reads draw counts in one form: every tile _pass_tiles
    # yields holds the (rows x columns) grid of its samples' draw counts,
    # whether a sample is one raw draw (many tiles a pass) or not (one).
    cfgs, run, slow = _tiny_tile_runs(monkeypatch, fault)
    shapes = []
    real = process._pass_tiles

    def recorded(*args):
        for live, samples, at_draw in real(*args):
            shapes.append((live.size, samples.shape, at_draw.shape, at_draw.dtype))
            yield live, samples, at_draw

    monkeypatch.setattr(process, "_pass_tiles", recorded)
    for f, cfg, want in zip(run, cfgs, slow):
        del shapes[:]
        _assert_same(f(cfg), want)
        assert shapes
        for rows, (height, width), grid, dtype in shapes:
            assert height == rows and grid == (rows, width) and dtype == np.int64


def _record_tiles(monkeypatch, tile):
    # (pass samples, first column, columns, live rows) of each tile a serial
    # or per-clock pass makes, with the tile size set to `tile` cells
    monkeypatch.setattr(process, "TILE_CELLS", tile)
    monkeypatch.setattr(rng, "TILE_CELLS", tile)
    tiles = []
    real = process._pass_tiles

    def recorded(fault, transform, window, rows, n, alive, align=1):
        c = 0
        for live, samples, at_draw in real(fault, transform, window, rows, n, alive, align):
            tiles.append((n, c, samples.shape[1], live))
            c += samples.shape[1]
            yield live, samples, at_draw

    monkeypatch.setattr(process, "_pass_tiles", recorded)
    return tiles


def _short_last_tile(tiles):
    # a pass's last tile, narrower than the tile before it over as many rows
    return any(n == n0 and c == c0 + w0 and c + w == n and w < w0 and live.size == live0.size
               for (n0, c0, w0, live0), (n, c, w, live) in zip(tiles, tiles[1:]))


_TILED_PIPELINES = [
    (IDEAL, None),
    (PowerBias(2.0), Reflect()),
    (PowerBias(0.7), Compose([RotateHalf(), Reflect()])),
]


@pytest.mark.parametrize("fault,transform", _TILED_PIPELINES)
def test_tile_edges_change_no_bit(monkeypatch, fault, transform):
    # A tile holds a stretch of columns of a pass's live rows: at 6 clocks a
    # tile of 1 or 7 cells is one column, 12 cells two, 64 cells ten, and
    # the serial run takes 2, 6, 12 or 64 samples (whole pairs) a tile.
    # Passes sized for a pace 0.05 times the right one end on their last
    # tile, often a short one; at 8 times it a per-clock run ends in one pass
    # and its rows end at every place in a tile.  A per-worker run of six
    # one-clock workers draws each row in tiles, and a worker's row of three
    # or six lanes takes whole rounds a tile (six lanes: 6, 6, 12 or 60
    # samples at 1, 7, 12 or 64 cells); some row's lanes drop to one inside
    # a tile, and the last one reads on in the pass's next tiles.  Every run equals the scalar oracle, and the
    # edge cases the runs are meant to cover occur.
    common = dict(n_clocks=6, horizon=40.0, seed=77, fault=fault, transform=transform)
    serial_cfg = SerialConfig(**common)
    cells = [ParallelConfig(**common, workers=p, mapping=make_mapping("round_robin", 6, p, seed=0))
             for p in (1, 3)]
    workers = {p: ParallelConfig(**common, workers=p, mapping=make_mapping("blocks", 6, p, seed=0),
                                 stream_mode=StreamMode.PER_WORKER) for p in (1, 2, 6)}
    slow_serial = oracle.simulate_serial(serial_cfg)
    slow = oracle.simulate_parallel(cells[0])
    slow_workers = {p: oracle.simulate_parallel(cfg) for p, cfg in workers.items()}
    ticks = slow.per_clock_ticks
    ticks_to_pass = process._ticks_to_pass
    epochs = process._epochs
    seen = set()
    for tile in (1, 7, 12, 64, 1 << 15):
        with monkeypatch.context() as patch:
            tiles = _record_tiles(patch, tile)
            drops = []  # the tile of each _epochs call whose lanes fell from several to one

            def recorded(gaps, at_draw, now, lanes, horizon, events):
                out = epochs(gaps, at_draw, now, lanes, horizon, events)
                if lanes.size > 1 and out[3].size == 1:
                    drops.append(len(tiles) - 1)
                return out

            patch.setattr(process, "_epochs", recorded)
            for factor in (0.05, 1, 8):
                patch.setattr(process, "_ticks_to_pass",
                              lambda left, pace, cap, f=factor: ticks_to_pass(left, f * pace, cap))
                del tiles[:]
                _assert_same(process.simulate_serial(serial_cfg), slow_serial)
                if any(c for _, c, _, _ in tiles):
                    seen.add("serial pass over several tiles")
                if _short_last_tile(tiles):
                    seen.add("short last tile")
                for cfg in cells:
                    del tiles[:]
                    _assert_same(process.simulate_parallel(cfg, {}, pace=1.0), slow)
                    if any(c for _, c, _, _ in tiles):
                        seen.add("edge inside a row")
                    if _short_last_tile(tiles):
                        seen.add("short last tile")
                    if cfg.workers == 1 and all(n == tiles[0][0] for n, _, _, _ in tiles):
                        # one pass over one grid, whose row r is clock r: a
                        # row's first suppressed tick is its tick count
                        for _, c, w, live in tiles:
                            ends = ticks[live]
                            if (ends == c + w).any():
                                seen.add("row's last tick on a tile's last cell")
                            if ((c < ends) & (ends < c + w)).any():
                                seen.add("horizon inside a tile")
                for p, cfg in workers.items():
                    del tiles[:], drops[:]
                    _assert_same(process.simulate_parallel(cfg, {}, pace=1.0), slow_workers[p])
                    if p == 6 and any(c for _, c, _, _ in tiles):
                        seen.add("one-clock worker row over several tiles")
                    if p < 6 and any(i + 1 < len(tiles) and tiles[i + 1][1] for i in drops):
                        seen.add("one lane left in the middle of a pass")
    assert seen == {"serial pass over several tiles", "short last tile", "edge inside a row",
                    "row's last tick on a tile's last cell", "horizon inside a tile",
                    "one-clock worker row over several tiles",
                    "one lane left in the middle of a pass"}


@pytest.mark.parametrize("fault,transform,window", _PIPELINES[2:])
def test_thinning_and_window_passes_ignore_the_tile_size(monkeypatch, fault, transform, window):
    # These pipelines give a pass as one tile, pipeline_block's result.
    common = dict(n_clocks=6, horizon=40.0, seed=77, fault=fault, transform=transform,
                  fix_window=window)
    tiles = _record_tiles(monkeypatch, 7)
    _assert_same(process.simulate_serial(SerialConfig(**common)),
                 oracle.simulate_serial(SerialConfig(**common)))
    cfg = ParallelConfig(**common, workers=3)
    _assert_same(process.simulate_parallel(cfg, {}, pace=1.0), oracle.simulate_parallel(cfg))
    assert tiles and all(c == 0 and w == n for n, c, w, _ in tiles)


def test_per_clock_pass_memory_stays_near_its_output():
    # One pass of 1024 clocks to H=250 writes about 256k events (24 bytes
    # each) into columns sized for the bank.  Tile by tile it holds about
    # six tile-sized arrays on top of them; one full grid of samples (1024 x
    # 361 floats) would pass the allowance of eight.
    cfg = ParallelConfig(1024, 250.0, seed=5)
    clocks = np.arange(cfg.n_clocks)
    width = process._ticks_to_pass(cfg.horizon, 1.0, process.MAX_PASS_CELLS)
    allowance = 8 * 8 * process.TILE_CELLS
    assert 8 * cfg.n_clocks * width > allowance
    tracemalloc.start()
    try:
        events = process._Events()
        events.reserve(process._ticks_to_pass(cfg.horizon, cfg.n_clocks, cfg.n_clocks * width))
        process._run_to_horizon(cfg, substream_rows(cfg.seed, clock_stream(clocks)),
                                clocks[:, None], 1.0, events)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert events.size > 250_000
    assert peak <= sum(column.nbytes for column in events.columns) + allowance


def test_serial_run_memory_stays_near_its_output():
    # The serial sweep at N=1024, H=250 writes about 256k events into
    # columns reserved for its one pass, and stays within the per-clock
    # pass's allowance of eight float64 tiles above them; the pass's
    # samples as one block (2 x 258,562 floats) would pass it.
    cfg = SerialConfig(1024, 250.0, seed=5)
    reserved = process._ticks_to_pass(cfg.horizon, cfg.n_clocks, process.MAX_PASS_CELLS // 2)
    allowance = 8 * 8 * process.TILE_CELLS
    assert 8 * 2 * reserved > allowance
    tracemalloc.start()
    try:
        traj = process.simulate_serial(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj) > 250_000
    assert peak <= 24 * reserved + allowance


def _count_column_allocations(monkeypatch):
    # the size of each new set of event columns an _Events makes
    made = []
    real = process._Events.reserve

    def counted(self, events):
        before = self.columns[0]
        real(self, events)
        if self.columns[0] is not before:
            made.append(self.columns[0].size)

    monkeypatch.setattr(process._Events, "reserve", counted)
    return made


@pytest.mark.parametrize("workers", [1, 2])
def test_per_clock_cell_at_the_serial_pace_makes_its_columns_once(monkeypatch, workers):
    # A bank of 1024 power_bias(2) clocks at the serial run's pace: the cell
    # reserves its columns once for the whole bank, and neither a second
    # worker nor a later pass for a few slow rows makes them again.
    serial = process.simulate_serial(SerialConfig(1024, 250.0, seed=1, fault=PowerBias(2.0)))
    pace = len(serial) / (1024 * 250.0)
    cfg = ParallelConfig(1024, 250.0, seed=1, fault=PowerBias(2.0), workers=workers,
                         mapping=make_mapping("shuffle", 1024, workers, seed=1))
    made = _count_column_allocations(monkeypatch)
    traj = process.simulate_parallel(cfg, {}, pace=pace)
    assert len(made) == 1 and made[0] >= len(traj)


@pytest.mark.parametrize("n_clocks, workers, fault", [
    (16, 1, LowThinning(0.5, 0.5)), (16, 4, LowThinning(0.5, 0.5)),
    (1024, 2, LowThinning(0.5, 0.5)), (256, 2, PowerBias(2.0)),
])
def test_per_worker_cell_at_the_serial_pace_makes_its_columns_once(monkeypatch, n_clocks,
                                                                   workers, fault):
    # A per-worker cell at the serial run's pace reserves its columns once
    # for the whole bank, as a per-clock cell does, instead of growing them
    # as its epochs overflow them, each time a copy of all events so far.
    pipeline = dict(fault=fault, transform=Reflect())
    serial = process.simulate_serial(SerialConfig(n_clocks, 250.0, seed=1, **pipeline))
    pace = len(serial) / (n_clocks * 250.0)
    cfg = ParallelConfig(n_clocks, 250.0, seed=1, **pipeline, workers=workers,
                         mapping=make_mapping("round_robin", n_clocks, workers, seed=1),
                         stream_mode=StreamMode.PER_WORKER)
    made = _count_column_allocations(monkeypatch)
    traj = process.simulate_parallel(cfg, {}, pace=pace)
    assert len(made) == 1 and made[0] >= len(traj)


def test_serial_run_makes_its_columns_at_most_once_a_pass(monkeypatch):
    # power_bias(2) runs the merged clock at about twice the pace its first
    # pass is sized for: a later pass reserves what it can write at the
    # pace shown, so the columns are not grown a quarter at a time.
    cfg = SerialConfig(256, 250.0, seed=4, fault=PowerBias(2.0))
    passes = _count_passes(monkeypatch)
    made = _count_column_allocations(monkeypatch)
    traj = process.simulate_serial(cfg)
    assert len(traj) > 1.5 * 256 * 250.0
    assert len(passes) >= 2 and len(made) <= len(passes)


def test_per_clock_window_grid_holds_at_most_the_cell_cap(monkeypatch):
    # 40 clocks with a 0.02-wide window: every pass, delivered samples and
    # window draws alike, stays under the cap, and the run equals the oracle.
    cfg = ParallelConfig(
        n_clocks=40, horizon=10.0, seed=21, fault=LowThinning(0.5, 0.5),
        fix_window=RescaleWindow(0.6, 0.62), workers=3,
        mapping=make_mapping("shuffle", 40, 3, seed=21),
    )
    shapes = []
    monkeypatch.setattr(process, "MAX_PASS_CELLS", 30_000)
    monkeypatch.setattr(rng, "MAX_PASS_CELLS", 30_000)
    _counting_unit_blocks(monkeypatch, shapes)
    _assert_same(process.simulate_parallel(cfg, {}, pace=1.0), oracle.simulate_parallel(cfg))
    assert max(rows for rows, _ in shapes) > 1
    assert all(rows * m <= 30_000 for rows, m in shapes)


@pytest.mark.parametrize("kind", MAPPING_KINDS)
@pytest.mark.parametrize("workers", [1, 3, 8])
@pytest.mark.parametrize("fault,transform,window", _PIPELINES)
def test_per_worker_block_path_equals_scalar_path(fault, transform, window, workers, kind):
    # 10 clocks on 8 workers leaves some workers empty and others with two.
    cfg = ParallelConfig(
        n_clocks=10, horizon=30.0, seed=4242, fault=fault, transform=transform,
        fix_window=window, workers=workers,
        mapping=make_mapping(kind, 10, workers, seed=4242),
        stream_mode=StreamMode.PER_WORKER,
    )
    _assert_same(process.simulate_parallel(cfg, {}, pace=1.0), oracle.simulate_parallel(cfg))


def test_per_worker_epochs_cap_their_draws(monkeypatch):
    # One round a pass: every epoch ends early and the next pass resumes it.
    monkeypatch.setattr(process, "MAX_PASS_CELLS", 1)
    cfg = ParallelConfig(
        n_clocks=5, horizon=20.0, seed=3, fault=LowThinning(0.5, 0.5), workers=2,
        stream_mode=StreamMode.PER_WORKER,
    )
    _assert_same(process.simulate_parallel(cfg, {}, pace=1.0), oracle.simulate_parallel(cfg))


def test_per_worker_epochs_count_their_window_draws(monkeypatch):
    # A 0.1-wide window first assumes 15 pipeline samples per kept one, so
    # a cap of 3000 cells gives passes of at most 200 samples (40 rounds of
    # 5 clocks), and every draw-on pass, a single row's too, holds at most
    # 3000 draws.
    cfg = ParallelConfig(
        n_clocks=5, horizon=60.0, seed=8, fault=PowerBias(2.0),
        fix_window=RescaleWindow(0.5, 0.6), stream_mode=StreamMode.PER_WORKER,
    )
    shapes = []
    monkeypatch.setattr(process, "MAX_PASS_CELLS", 3000)
    monkeypatch.setattr(rng, "MAX_PASS_CELLS", 3000)
    _counting_unit_blocks(monkeypatch, shapes)
    _assert_same(process.simulate_parallel(cfg, {}, pace=1.0), oracle.simulate_parallel(cfg))
    assert max(rows * m for rows, m in shapes) <= 3000
    assert len(shapes) > 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_per_worker_run_draws_its_stream_once_or_twice(monkeypatch, seed):
    # One worker's 16 clocks need about 16 x 251 samples.  The first pass
    # asks for 4000 ticks plus five sigmas and 32 in whole rounds, 16 x 272,
    # and a second covers the clocks that outrun it.  Drawing after every
    # epoch cut took about 14 calls.
    cfg = ParallelConfig(
        n_clocks=16, horizon=250.0, seed=seed, fault=LowThinning(0.5, 0.5),
        transform=Reflect(), fix_window=RescaleWindow(0.5, 1.0),
        stream_mode=StreamMode.PER_WORKER,
    )
    calls = _count_pipeline_calls(monkeypatch)
    fast = process.simulate_parallel(cfg, {}, pace=1.0)
    assert calls[0] == 16 * 272 and 1 <= len(calls) <= 2
    _assert_same(fast, oracle.simulate_parallel(cfg))


@pytest.mark.parametrize("cells", [300, 1200])
def test_per_worker_passes_go_on_mid_run(monkeypatch, cells):
    # The window draws 3 pipeline samples per kept one, so a pass holds at
    # most 100 or 400 samples: 6 clocks over horizon 60 need about 366 per
    # worker, so passes end mid-epoch, each next one going on from the
    # sample after the last one read.
    cfg = ParallelConfig(
        n_clocks=12, horizon=60.0, seed=17, fault=LowThinning(0.5, 0.5),
        fix_window=RescaleWindow(0.5, 1.0), workers=2,
        mapping=make_mapping("round_robin", 12, 2, seed=0), stream_mode=StreamMode.PER_WORKER,
    )
    uncapped = process.simulate_parallel(cfg, {}, pace=1.0)
    monkeypatch.setattr(process, "MAX_PASS_CELLS", cells)
    calls = _count_pipeline_calls(monkeypatch)
    capped = process.simulate_parallel(cfg, {}, pace=1.0)
    assert len(calls) > 2 * 366 // (cells // 3) and max(calls) <= cells // 3
    _assert_same(capped, uncapped)
    _assert_same(capped, oracle.simulate_parallel(cfg))


@pytest.mark.parametrize("fault,transform,window", _PIPELINES)
def test_pipeline_block_reports_oracle_discards(fault, transform, window):
    n = 3000
    (samples,), (at_draw,), (fault_rejections,), (window_rejections,) = process.pipeline_block(
        fault, transform, window, substream_rows(5, [0]), n
    )
    pipe = oracle.PipelineSource(5, 0, fault, transform, window)
    expected, counts = [], []
    for _ in range(n):
        expected.append(pipe.next())
        counts.append(pipe.raw_draws)
    assert samples.tolist() == expected
    assert at_draw.tolist() == counts
    assert fault_rejections == pipe.fault_discards
    assert window_rejections == pipe.window_discards


@pytest.mark.parametrize("window", [None, RescaleWindow(0.2, 0.9)])
@pytest.mark.parametrize("c,q", [(0.5, 0.5), (0.25, 0.9), (0.99, 0.5), (0.5, 0.0), (0.7, 1.0)])
def test_rejection_counts_equal_the_oracle(c, q, window):
    # Both rejection counts come from each row's end: the draws it spanned,
    # less its fault samples and those below c, are two a rejected
    # candidate, and its fault samples less n are the window's rejections.
    # Six rows from different mid-stream starts, and each of them alone,
    # give the one-draw twin's samples, draw counts and both counts.
    fault = LowThinning(c, q)
    starts = [oracle.substream(9, i).advanced(i) for i in range(6)]
    n = 300
    grid = process.pipeline_block(fault, Reflect(), window, oracle.rows(starts), n)
    for r, gs in enumerate(starts):
        pipe = oracle.PipelineSource(9, r, fault, Reflect(), window)
        pipe.gs = gs
        expected, counts = [], []
        for _ in range(n):
            expected.append(pipe.next())
            counts.append(pipe.raw_draws)
        assert grid[0][r].tolist() == expected
        assert grid[1][r].tolist() == counts
        assert (grid[2][r], grid[3][r]) == (pipe.fault_discards, pipe.window_discards)
        one = process.pipeline_block(fault, Reflect(), window, oracle.rows([gs]), n)
        assert one[0].tolist() == [expected] and one[1].tolist() == [counts]
        assert (one[2].tolist(), one[3].tolist()) == ([pipe.fault_discards],
                                                      [pipe.window_discards])


def test_starved_window_raises_instead_of_spinning():
    # The thinning fault leaves only (0.5, 1); reflecting moves that mass to
    # (0, 0.5); a window still aimed at (0.5, 1) can then never accept.
    cfg = SerialConfig(
        n_clocks=4,
        horizon=10.0,
        seed=0,
        fault=LowThinning(0.5, 1.0),
        transform=Reflect(),
        fix_window=RescaleWindow(0.5, 1.0),
    )
    with pytest.raises(RuntimeError, match="never lands inside"):
        process.simulate_serial(cfg)


def test_narrow_window_raises_instead_of_allocating():
    # A window 1e-5 wide accepts about 5 of the 524288 draws at which the
    # guard looks; doubling on would need ~1e10 draws for 16 samples.
    window = RescaleWindow(0.5, 0.5 + 1e-5)
    with pytest.raises(RuntimeError, match="odds below 0.0001"):
        process.pipeline_block(IDEAL, None, window, substream_rows(1, [0]), 16)


def test_per_worker_default_equals_explicit_factory():
    cfg = ParallelConfig(
        n_clocks=5, horizon=30.0, seed=9, workers=2,
        stream_mode=StreamMode.PER_WORKER,
    )
    fast = process.simulate_parallel(cfg, {}, pace=1.0)
    slow = oracle.simulate_parallel(
        cfg, source_factory=lambda w: oracle.PipelineSource(cfg.seed, worker_stream(w))
    )
    _assert_same(fast, slow)


# ---------------------------------------------------------------------------
# mapping invariance and worker counts
# ---------------------------------------------------------------------------


def test_per_clock_result_ignores_worker_count_and_mapping():
    base = None
    for workers in (1, 3, 4, 12):
        for kind in MAPPING_KINDS:
            cfg = ParallelConfig(
                n_clocks=12,
                horizon=50.0,
                seed=31,
                workers=workers,
                mapping=make_mapping(kind, 12, workers, seed=31),
            )
            traj = process.simulate_parallel(cfg, {}, pace=1.0)
            if base is None:
                base = traj
            else:
                assert np.array_equal(traj.times, base.times), (workers, kind)
                assert np.array_equal(traj.marks, base.marks), (workers, kind)
                assert np.array_equal(traj.draw_indices, base.draw_indices)
                assert traj.total_draws == base.total_draws


def test_per_worker_labels_move_with_mapping_but_law_holds():
    # blocks and round_robin host the same number of clocks per worker, so
    # each worker realises the same tick times — but on differently labelled
    # clocks.  The merged law stays Poisson(N*T) either way.
    cfgs = [
        ParallelConfig(
            n_clocks=8, horizon=100.0, seed=5, workers=4,
            mapping=make_mapping(kind, 8, 4, seed=5),
            stream_mode=StreamMode.PER_WORKER,
        )
        for kind in ("blocks", "round_robin")
    ]
    a, b = (process.simulate_parallel(c, {}, pace=1.0) for c in cfgs)
    assert not np.array_equal(a.marks, b.marks)
    mean, sd = 800.0, math.sqrt(800.0)
    for traj in (a, b):
        assert abs(len(traj) - mean) < 4.0 * sd


def test_event_volume_matches_poisson_band():
    # N*T = 1600 expected events, checked at 4 sigma on both paths.
    serial = process.simulate_serial(SerialConfig(n_clocks=16, horizon=100.0, seed=11))
    parallel = process.simulate_parallel(ParallelConfig(n_clocks=16, horizon=100.0, seed=11), {},
                                         pace=1.0)
    mean, sd = 1600.0, math.sqrt(1600.0)
    assert abs(len(serial) - mean) < 4.0 * sd
    assert abs(len(parallel) - mean) < 4.0 * sd
    assert abs(serial.times.mean() / parallel.times.mean() - 1.0) < 0.1
    # every parallel clock ticks about horizon times
    ticks = parallel.per_clock_ticks
    assert ticks.sum() == len(parallel)
    assert all(abs(t - 100.0) < 4.0 * 10.0 for t in ticks)


# ---------------------------------------------------------------------------
# merge
# ---------------------------------------------------------------------------


def test_merge_orders_by_time():
    traj = oracle.merge([[oracle.Event(1.0, 0, 1)], [oracle.Event(2.0, 1, 1)]])
    assert traj.times.tolist() == [1.0, 2.0]
    assert traj.marks.tolist() == [0, 1]
    assert traj.n_clocks == 2


def test_merge_breaks_ties_by_mark():
    traj = oracle.merge([[oracle.Event(1.0, 1, 1)], [oracle.Event(1.0, 0, 1)]])
    assert traj.marks.tolist() == [0, 1]


def test_merge_of_empty_parts():
    traj = oracle.merge([[], []])
    assert len(traj) == 0
    assert traj.final_time == 0.0
    assert traj.inter_event_times().size == 0


def test_merge_rejects_unsorted_part():
    with pytest.raises(RuntimeError):
        oracle.merge([[oracle.Event(2.0, 0, 1), oracle.Event(1.0, 0, 2)]])


def test_merge_respects_explicit_totals():
    traj = oracle.merge([[oracle.Event(0.5, 0, 3)]], n_clocks=4, total_draws=11)
    assert traj.n_clocks == 4
    assert traj.total_draws == 11
    assert traj.per_clock_ticks.tolist() == [1, 0, 0, 0]


def test_trajectory_gaps_and_tick_counts():
    traj = process.simulate_serial(SerialConfig(n_clocks=3, horizon=5.0, seed=2))
    assert np.array_equal(traj.inter_event_times(), np.diff(traj.times, prepend=0.0))
    ticks = traj.per_clock_ticks
    assert ticks is traj.per_clock_ticks  # counted once per trajectory object
    assert ticks.tolist() == np.bincount(traj.marks, minlength=3).tolist()
    with pytest.raises(ValueError):
        ticks[0] = 0
    empty = Trajectory(times=np.empty(0), marks=np.empty(0, dtype=np.int64),
                       draw_indices=np.empty(0, dtype=np.int64), total_draws=1, n_clocks=2)
    assert empty.inter_event_times().size == 0
    assert empty.per_clock_ticks.tolist() == [0, 0]


def _events(parts):
    # the (times, marks, draws) parts written end to end into one _Events
    events = process._Events()
    for part in parts:
        events.put(*part)
    return events


def test_worker_row_events_let_the_merge_see_a_clock_out_of_order():
    # A worker's row writes each epoch's events clock by clock, so the first
    # epoch, in which both clocks tick until one passes the horizon, starts
    # with clock 0's ticks side by side, and the merge's order check, which
    # compares neighbours only, sees two of them swapped.  Written round by
    # round, the epoch's events would alternate between the clocks.
    cfg = ParallelConfig(n_clocks=2, horizon=30.0, seed=5, stream_mode=StreamMode.PER_WORKER)
    events = process._Events()
    total = process._run_to_horizon(cfg, substream_rows(cfg.seed, [worker_stream(0)]),
                                    np.array([[0, 1]]), 1.0, events)
    times, marks, draws = (column[:events.size].copy() for column in events.columns)
    _assert_same(process._merge_arrays(events, n_clocks=2, total_draws=total),
                 oracle.simulate_parallel(cfg))
    assert marks[0] == marks[1] == 0 and times[0] < times[1]
    times[[0, 1]] = times[[1, 0]]
    with pytest.raises(RuntimeError, match="unsorted per-clock event list"):
        process._merge_arrays(_events([(times, marks, draws)]), n_clocks=2, total_draws=total)


def test_merge_arrays_orders_like_lexsort():
    # Parts hold several clocks each, as the per-worker grids do, and come in
    # no mark order.  Clock 3 ticks twice at 1.0 (a tie inside one clock);
    # 1.0 and 1.5 are shared across clocks.
    clocks = {
        3: ([0.5, 1.0, 1.0, 2.5], [1, 2, 3, 4]),
        1: ([1.0, 1.5], [1, 2]),
        2: ([0.25, 1.5, 4.0], [2, 5, 9]),
        0: ([1.0], [3]),
    }

    def part(*ids, spread=0.0):  # spread > 0 moves every tick off the ties
        return (np.concatenate([clocks[i][0] + spread * (i + 4 * np.arange(len(clocks[i][0])))
                                for i in ids]),
                np.concatenate([np.full(len(clocks[i][0]), i) for i in ids]),
                np.concatenate([clocks[i][1] for i in ids]))

    for spread in (0.0, 1e-3):
        parts = [part(2, 0, spread=spread), part(3, 1, spread=spread)]
        t, m, d = (np.concatenate(x) for x in zip(*parts))
        order = np.lexsort((m, t))
        merged = process._merge_arrays(_events(parts), n_clocks=4, total_draws=0)
        assert merged.times.tolist() == t[order].tolist()
        assert merged.marks.tolist() == m[order].tolist()
        assert merged.draw_indices.tolist() == d[order].tolist()
        if not spread:  # the tied ticks of clock 3 keep their emission order
            assert merged.marks.tolist()[2:6] == [0, 1, 3, 3]
            assert merged.draw_indices.tolist()[4:6] == [2, 3]


@pytest.mark.parametrize("n", [255, 256, 257, 1023, 1024, 1025])
def test_merge_arrays_orders_collisions_like_lexsort(n):
    # The merge sorts keys that keep a time's high bits and hold the event's
    # position in the low ceil(log2 n) bits, which widen by one bit just
    # above a power of two.  Times one ulp apart, within one clock and across
    # clocks, and exact ties share their high bits, so their order comes
    # from the exact (time, mark, position) repair; some clusters sit on a
    # boundary of the low bits, so ulp neighbours fall on either side of it.
    r = np.random.default_rng(n)
    bases = r.uniform(0.0, 250.0, size=n // 4).view(np.uint64)
    bases[::3] |= np.uint64(0x3FF)  # all ones in the low 10 bits
    cluster = [np.nextafter(b, np.inf, dtype=np.float64) if k % 2 else b
               for b in bases.view(np.float64) for k in range(int(r.integers(1, 5)))]
    times = np.sort(np.array(cluster + [np.nextafter(c, np.inf) for c in cluster])[:n])
    marks = r.integers(0, 6, size=n)  # a clock's events come in time order
    draws = r.permutation(n)
    parts = []
    for clocks in ([4, 1], [0, 5, 2], [3]):  # parts hold several clocks, in no mark order
        rows = np.concatenate([np.flatnonzero(marks == c) for c in clocks])
        parts.append((times[rows], marks[rows], draws[rows]))
    t, m, d = (np.concatenate(x) for x in zip(*parts))
    assert t.size == n
    assert (t[1:] == t[:-1]).any() and (np.nextafter(t[:-1], np.inf) == t[1:]).any()
    order = np.lexsort((np.arange(n), m, t))
    merged = process._merge_arrays(_events(parts), n_clocks=6, total_draws=0)
    assert merged.times.tobytes() == t[order].tobytes()
    assert merged.marks.tolist() == m[order].tolist()
    assert merged.draw_indices.tolist() == d[order].tolist()


def test_merge_arrays_rejects_a_clock_out_of_order():
    with pytest.raises(RuntimeError):
        process._merge_arrays(_events([(np.array([1.0, 3.0, 2.0]), [0, 1, 1], [1, 1, 2])]),
                              n_clocks=2, total_draws=0)


# ---------------------------------------------------------------------------
# trajectory object
# ---------------------------------------------------------------------------


def test_trajectory_rejects_unsorted_times():
    with pytest.raises(RuntimeError):
        Trajectory(
            times=np.array([2.0, 1.0]),
            marks=np.array([0, 0]),
            draw_indices=np.array([1, 2]),
            total_draws=4,
            n_clocks=1,
        )


def test_trajectory_event_iteration_round_trips():
    traj = process.simulate_serial(SerialConfig(n_clocks=3, horizon=5.0, seed=2))
    gaps = traj.inter_event_times()
    assert gaps[0] == traj.times[0]
    assert np.allclose(np.cumsum(gaps), traj.times)


# ---------------------------------------------------------------------------
# mappings
# ---------------------------------------------------------------------------


def _worker_counts(n_clocks):
    # one worker, a few, one a clock, and more workers than clocks
    return (1, 2, 3, n_clocks, n_clocks + 1, 3 * n_clocks)


def _assert_mapping(mapping, want):
    assert mapping.dtype == np.int32 and not mapping.flags.writeable
    assert mapping.tolist() == list(want)


def test_block_mapping_layout():
    _assert_mapping(make_mapping("blocks", 8, 2, seed=0), (0, 0, 0, 0, 1, 1, 1, 1))
    _assert_mapping(make_mapping("blocks", 3, 3, seed=0), (0, 1, 2))
    for n in (1, 2, 17, 1024):
        for p in _worker_counts(n):
            _assert_mapping(make_mapping("blocks", n, p, seed=0), [i * p // n for i in range(n)])


def test_round_robin_layout():
    _assert_mapping(make_mapping("round_robin", 5, 2, seed=0), (0, 1, 0, 1, 0))
    for n in (1, 2, 17, 1024):
        for p in _worker_counts(n):
            _assert_mapping(make_mapping("round_robin", n, p, seed=0), [i % p for i in range(n)])


def test_shuffle_mapping_is_seeded_and_balanced():
    a = make_mapping("shuffle", 16, 4, seed=1)
    b = make_mapping("shuffle", 16, 4, seed=1)
    c = make_mapping("shuffle", 16, 4, seed=2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)  # overwhelmingly likely; same-law, different layout
    assert sorted(np.bincount(a, minlength=4)) == \
        sorted(np.bincount(make_mapping("blocks", 16, 4, seed=1), minlength=4))


@pytest.mark.parametrize("n_clocks", [1, 2, 17, 1024])
def test_shuffle_mapping_equals_oracle_fisher_yates(n_clocks):
    for workers in _worker_counts(n_clocks) + (8,):
        for seed in (0, 5, 2**64 - 1):
            _assert_mapping(make_mapping("shuffle", n_clocks, workers, seed),
                            oracle.shuffle_mapping(n_clocks, workers, seed))


def test_make_mapping_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown mapping"):
        make_mapping("striped", 8, 2, seed=0)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        SerialConfig(n_clocks=0, horizon=10.0, seed=0)
    with pytest.raises(ValueError, match=r"n_clocks must be <= 2147483647 \(2\^31 - 1"):
        SerialConfig(n_clocks=2 ** 31, horizon=1e-9, seed=0)  # marks are int32
    SerialConfig(n_clocks=2 ** 31 - 1, horizon=1e-9, seed=0)
    with pytest.raises(ValueError):
        SerialConfig(n_clocks=4, horizon=0.0, seed=0)
    with pytest.raises(ValueError):
        SerialConfig(n_clocks=4, horizon=10.0, seed=-1)
    with pytest.raises(ValueError):
        ParallelConfig(n_clocks=4, horizon=10.0, seed=0, workers=0)
    with pytest.raises(ValueError, match=r"^mapping must assign every clock a worker$"):
        ParallelConfig(n_clocks=4, horizon=10.0, seed=0, workers=2, mapping=(0, 1))
    with pytest.raises(ValueError, match=r"^mapping must assign every clock a worker$"):
        ParallelConfig(n_clocks=2, horizon=10.0, seed=0, workers=2, mapping=[[0, 1]])
    for bad in ((0, 5), (0, 2), (-1, 0)):
        with pytest.raises(ValueError, match=r"^mapping worker ids must lie in \[0, 2\)$"):
            ParallelConfig(n_clocks=2, horizon=10.0, seed=0, workers=2, mapping=bad)
    with pytest.raises(ValueError, match=r"workers must lie in \[1, 2147483647\]"):
        ParallelConfig(n_clocks=2, horizon=10.0, seed=0, workers=2 ** 31)
    # a float or bool mapping is not truncated to worker ids
    for bad in (np.array([0.5, 1.9, 0.0, 1.2]), np.array([False, True, False, True])):
        with pytest.raises(ValueError, match=r"^mapping worker ids must be integers, got dtype"):
            ParallelConfig(n_clocks=4, horizon=10.0, seed=0, workers=2, mapping=bad)
    assert StreamMode("per_worker") is StreamMode.PER_WORKER


def test_configs_compare_and_hash_by_mapping_content():
    # blocks and round_robin at P = N are one mapping, whatever form it is
    # given in: one memo key.  The config holds it as a read-only int32 copy.
    common = dict(n_clocks=6, horizon=10.0, seed=3, workers=6)
    blocks = ParallelConfig(**common, mapping=make_mapping("blocks", 6, 6, seed=3))
    same = [ParallelConfig(**common, mapping=m)
            for m in (make_mapping("round_robin", 6, 6, seed=3), tuple(range(6)),
                      np.arange(6, dtype=np.int64))]
    for cfg in same:
        assert cfg == blocks and hash(cfg) == hash(blocks)
        assert cfg.mapping.dtype == np.int32 and not cfg.mapping.flags.writeable
    assert len({blocks, *same}) == 1
    assert ParallelConfig(**common, mapping=make_mapping("shuffle", 6, 6, seed=3)) != blocks
    assert ParallelConfig(**dict(common, workers=7), mapping=tuple(range(6))) != blocks


@pytest.mark.parametrize("mode", list(StreamMode))
@pytest.mark.parametrize("kind", MAPPING_KINDS)
def test_idle_workers_change_no_bit(kind, mode):
    # 3N workers host N clocks: at least two of every three workers are idle
    cfg = ParallelConfig(n_clocks=7, horizon=30.0, seed=8, fault=PowerBias(2.0), workers=21,
                         mapping=make_mapping(kind, 7, 21, seed=8), stream_mode=mode)
    assert np.unique(cfg.mapping).size == 7
    _assert_same(process.simulate_parallel(cfg, {}, pace=1.0), oracle.simulate_parallel(cfg))


@pytest.mark.parametrize("kind", MAPPING_KINDS)
def test_a_cell_allocates_nothing_the_size_of_its_worker_count(kind):
    # 10**6 workers host 16 clocks: the mapping, the clocks' grouping by
    # worker and the worker streams are sized by the clocks, so the cell,
    # its config and its mapping included, peaks below a byte a worker.
    workers = 10 ** 6
    tracemalloc.start()
    try:
        cfg = ParallelConfig(n_clocks=16, horizon=10.0, seed=2, workers=workers,
                             mapping=make_mapping(kind, 16, workers, seed=2),
                             stream_mode=StreamMode.PER_WORKER)
        traj = process.simulate_parallel(cfg, {}, pace=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj) > 100
    assert peak < workers


def test_cell_configs_hold_four_bytes_a_clock():
    # A seed's six cells of 2^16 clocks (every kind at P = 1 and 2) hold
    # their mappings as int32 bytes, and the seed's shuffle order is one
    # more int32 array: 4 bytes a clock each, plus 64 KiB for the objects.
    n = 1 << 16
    process._clock_order.cache_clear()
    tracemalloc.start()
    try:
        cells = [ParallelConfig(n_clocks=n, horizon=1.0, seed=1, workers=p,
                                mapping=make_mapping(kind, n, p, seed=1))
                 for kind in MAPPING_KINDS for p in (1, 2)]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= (len(cells) + 1) * 4 * n + 65536
