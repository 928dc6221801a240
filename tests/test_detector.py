"""Detection-layer tests.

Mean targets for the A/B arms were computed by quadrature over the faulted
draw density (density of u = x**(1/gamma) is gamma*u**(gamma-1)):

  ideal, any measure-preserving transform      -> 1.0
  power_bias(2), raw arm                       -> 0.5
  power_bias(2), reflect arm                   -> 1.5
  power_bias(2), (rotate_half then reflect)    -> 0.8068528194400542
"""

import dataclasses
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import oracle
from clockcheck import config, detector, process, report, stats, transforms
from clockcheck.detector import (
    CONSISTENT,
    DIVERGENCE,
    ComparisonReport,
    Evidence,
    ExperimentPlan,
    GapMemo,
    PairingRecord,
    SeedReport,
    Verdict,
    _corrupted,
)
from clockcheck.process import (
    ParallelConfig,
    SerialConfig,
    StreamMode,
    make_mapping,
)
from clockcheck.rng import IDEAL, TILE_CELLS, LowThinning, PowerBias, substream
from clockcheck.transforms import Compose, Reflect, RescaleWindow, RotateHalf, transform_label

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
_PB2 = PowerBias(2.0)
_COMPOSED_TARGET = 0.8068528194400542  # quadrature, see module docstring


def _by_name(verdict: Verdict) -> dict:
    return {e.test: e for e in verdict.evidence}


# ---------------------------------------------------------------------------
# transform A/B
# ---------------------------------------------------------------------------


def test_ab_ideal_reflect_is_consistent():
    verdict = detector.transform_ab_test(IDEAL, Reflect(), 20_000, alpha=0.01, seed=0)
    assert verdict.outcome == CONSISTENT
    rows = _by_name(verdict)
    assert rows["raw_mean"].statistic == pytest.approx(1.0, abs=0.05)
    assert rows["transformed_mean"].statistic == pytest.approx(1.0, abs=0.05)
    assert rows["raw_mean"].p_value is None  # informational rows never flag


def test_ab_power_bias_reflect_diverges_with_predicted_means():
    verdict = detector.transform_ab_test(_PB2, Reflect(), 20_000, alpha=0.01, seed=0)
    assert verdict.diverged
    rows = _by_name(verdict)
    assert rows["raw_mean"].statistic == pytest.approx(0.5, abs=0.05)
    assert rows["transformed_mean"].statistic == pytest.approx(1.5, abs=0.05)
    assert rows["ab_mean_welch"].p_value < 1e-12
    assert rows["ab_ks"].p_value < 1e-12


def test_ab_composed_transform_hits_quadrature_target():
    combo = Compose([RotateHalf(), Reflect()])
    verdict = detector.transform_ab_test(_PB2, combo, 20_000, alpha=0.01, seed=3)
    rows = _by_name(verdict)
    assert rows["transformed_mean"].statistic == pytest.approx(
        _COMPOSED_TARGET, abs=0.02
    )
    assert verdict.diverged  # 0.5 vs 0.807 is far outside noise


def test_ab_requires_enough_samples():
    with pytest.raises(ValueError):
        detector.transform_ab_test(IDEAL, Reflect(), 999, alpha=0.01, seed=0)


def _asked_samples(monkeypatch):
    # the samples each pipeline_block call of a detector stage asks for
    asked = []
    real = detector.pipeline_block

    def counted(fault, transform, window, gs, n, **kw):
        asked.append(n)
        return real(fault, transform, window, gs, n, **kw)

    monkeypatch.setattr(detector, "pipeline_block", counted)
    return asked


def test_ab_and_fix_stages_ask_for_at_most_a_tile_a_call(monkeypatch):
    n = 2 * TILE_CELLS + 5  # each part: two whole tiles and a short one
    asked = _asked_samples(monkeypatch)
    detector.transform_ab_test(_PB2, Reflect(), n, alpha=0.01, seed=0)
    assert max(asked) <= TILE_CELLS and sum(asked) == 2 * n
    del asked[:]
    detector.fix_evaluation(LowThinning(0.5, 1.0), RescaleWindow(0.5, 1.0), n, alpha=0.01, seed=0)
    assert max(asked) <= TILE_CELLS and sum(asked) == 2 * 3 * n


@pytest.mark.parametrize("fault", [IDEAL, _PB2, LowThinning(0.5, 0.5)])
@pytest.mark.parametrize("transform", [Reflect(), Compose([RotateHalf(), Reflect()])])
def test_ab_in_tiles_equals_the_ab_of_one_block(monkeypatch, fault, transform):
    # Tiles of 777 samples cut each arm into 7 tiles and a short one; the
    # verdict must be the one of a single pipeline_block call for both arms.
    n, seed = 6000, 9
    samples, _, _, _ = process.pipeline_block(fault, None, None, substream(seed, 0), 2 * n)
    arms = -np.log(samples[:n]), -np.log(transforms.transform_block(transform, samples[n:]))
    expected = detector._ab_verdict(*oracle.pooled(*arms), 0.01)
    monkeypatch.setattr(detector, "TILE_CELLS", 777)
    assert detector.transform_ab_test(fault, transform, n, alpha=0.01, seed=seed) == expected


@pytest.mark.parametrize("stage, held", [("fix", 18), ("ab", 16)])
def test_ab_and_fix_stages_hold_their_buffers_and_a_few_tiles(stage, held):
    # numpy reports its buffers to tracemalloc.  At n = 2^20 the A/B holds
    # its pooled keys (16 bytes a sample pair).  A fix phase holds its
    # uniform part and, while its one-sample KS runs, the sorted copy (16
    # bytes a sample; the cdf comes a chunk at a time), then its keys and
    # the window tile drawn into them: 19.02 MiB at the peak, 17.0 bytes a
    # sample beyond the 2 MiB tiles term, so 18 bytes a sample bounds them
    # all.  Beside those, each stage may hold eight tiles (2 MiB).  Drawn in
    # one block, the stages peaked at 48 and 363 MiB on these calls.
    n = 1 << 20
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        if stage == "ab":
            detector.transform_ab_test(_PB2, Reflect(), n, alpha=0.01, seed=5)
        else:
            detector.fix_evaluation(LowThinning(0.5, 1.0), RescaleWindow(0.5, 1.0), n,
                                    alpha=0.01, seed=5)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= held * n + 8 * 8 * TILE_CELLS


# ---------------------------------------------------------------------------
# serial vs parallel
# ---------------------------------------------------------------------------


def _pair(fault, seed=0, n_clocks=8, horizon=250.0):
    serial = process.simulate_serial(SerialConfig(n_clocks, horizon, seed, fault))
    parallel = process.simulate_parallel(ParallelConfig(n_clocks, horizon, seed, fault), {},
                                         pace=1.0)
    return serial, parallel


def test_serial_parallel_ideal_is_consistent():
    verdict = detector.serial_parallel_compare(*_pair(IDEAL), alpha=0.01, gap_stats=GapMemo())
    assert verdict.outcome == CONSISTENT
    names = set(_by_name(verdict))
    assert names == {
        "inter_event_ks",
        "inter_event_mean_welch",
        "serial_marks_chi2",
        "parallel_marks_chi2",
    }


def test_serial_parallel_power_bias_flags_marks_not_gaps():
    # power_bias(2) turns every clock into a rate-2 Poisson clock, so the
    # merged gaps still look exponential on both sides; what betrays it is
    # the serial mark draw, which is biased toward high clock indices.
    verdict = detector.serial_parallel_compare(*_pair(_PB2), alpha=0.01, gap_stats=GapMemo())
    assert verdict.diverged
    rows = _by_name(verdict)
    assert rows["serial_marks_chi2"].p_value < 1e-3
    assert rows["inter_event_ks"].p_value > 0.01
    assert rows["parallel_marks_chi2"].p_value > 0.01


def test_serial_parallel_rejects_thin_trajectories():
    serial, parallel = _pair(IDEAL, horizon=20.0)
    with pytest.raises(ValueError, match="events per side"):
        detector.serial_parallel_compare(serial, parallel, alpha=0.01, gap_stats=GapMemo())


def test_self_comparison_is_clean():
    serial, _ = _pair(IDEAL)
    verdict = detector.serial_parallel_compare(serial, serial, alpha=0.01, gap_stats=GapMemo())
    assert verdict.outcome == CONSISTENT
    rows = _by_name(verdict)
    assert rows["inter_event_ks"].statistic == 0.0
    assert rows["inter_event_mean_welch"].statistic == 0.0


def test_gap_memo_ks_equals_ks_of_the_gap_arrays():
    # The memo writes both runs' gaps straight into the pooled key buffer;
    # the result must be the bits of KS on the two gap arrays.
    for fault in (IDEAL, _PB2):
        serial, parallel = _pair(fault)
        memo = detector.GapMemo()
        ks, _ = memo.pair(memo(serial), memo(parallel))
        assert ks == stats.ks_two_sample(*oracle.pooled(serial.inter_event_times(),
                                                        parallel.inter_event_times()))


def test_gap_memo_ks_holds_the_pooled_bytes_once():
    # numpy reports its buffers to tracemalloc.  Gap arrays built first and
    # then copied into the keys would hold the pooled bytes twice (about
    # 2.0 times the keys); written straight into the keys, the pair's rise
    # is the keys plus the KS pass's fixed-size chunks.
    gen = np.random.default_rng(31)
    n, m = 2**18, 2**18 + 5
    summary = stats.SampleSummary(n=n, mean=1.0, variance=1.0)
    a = detector.GapStats(summary, np.cumsum(gen.exponential(1.0, n)))
    b = detector.GapStats(summary, np.cumsum(gen.exponential(1.0, m)))
    memo = detector.GapMemo()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ks, _ = memo.pair(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ks.n == n and ks.m == m
    assert peak - before <= 1.2 * 8 * (n + m)


def test_the_same_object_is_equal_without_a_compare(monkeypatch):
    # A cell served twice is one object: it is bit-equal to itself, and the
    # gap memo finds it, without an elementwise compare.
    _, parallel = _pair(IDEAL)
    memo = detector.GapMemo()
    first = memo(parallel)
    compares = []
    real = np.array_equal
    monkeypatch.setattr(np, "array_equal", lambda *a, **k: compares.append(1) or real(*a, **k))
    assert detector._bit_equal(parallel, parallel)
    assert memo(parallel) is first
    assert compares == []


# ---------------------------------------------------------------------------
# cross-parallel
# ---------------------------------------------------------------------------


def _cell(workers, mapping, mode, seed=0, n_clocks=8, horizon=250.0):
    cfg = ParallelConfig(
        n_clocks=n_clocks,
        horizon=horizon,
        seed=seed,
        workers=workers,
        mapping=make_mapping(mapping, n_clocks, workers, seed),
        stream_mode=mode,
    )
    return cfg, process.simulate_parallel(cfg, {}, pace=1.0)


def test_cross_parallel_per_clock_runs_are_bit_identical():
    runs = [
        _cell(1, "blocks", StreamMode.PER_CLOCK),
        _cell(2, "round_robin", StreamMode.PER_CLOCK),
        _cell(4, "shuffle", StreamMode.PER_CLOCK),
    ]
    verdict = detector.cross_parallel_compare(runs, alpha=0.01, gap_stats=GapMemo())
    assert verdict.outcome == CONSISTENT
    assert not verdict.determinism_breach
    rows = _by_name(verdict)
    assert rows["per_clock_bit_equality_1_vs_0"].statistic == 1.0
    assert rows["per_clock_bit_equality_2_vs_0"].statistic == 1.0


def test_cross_parallel_reports_breach_on_corruption():
    runs = [
        _cell(1, "blocks", StreamMode.PER_CLOCK),
        _cell(2, "blocks", StreamMode.PER_CLOCK),
    ]
    cfg, traj = runs[1]
    runs[1] = (cfg, _corrupted(traj))
    verdict = detector.cross_parallel_compare(runs, alpha=0.01, gap_stats=GapMemo())
    assert verdict.determinism_breach
    assert verdict.diverged
    assert _by_name(verdict)["per_clock_bit_equality_1_vs_0"].statistic == 0.0


@pytest.mark.parametrize("field", ["total_draws", "n_clocks"])
def test_cross_parallel_breaches_on_draw_or_clock_count(field):
    # report.json prints both counts for every run, so a per-clock cell that
    # differs in either is not bit-identical even with equal event arrays.
    runs = [
        _cell(1, "blocks", StreamMode.PER_CLOCK),
        _cell(2, "round_robin", StreamMode.PER_CLOCK),
    ]
    cfg, traj = runs[1]
    runs[1] = (cfg, dataclasses.replace(traj, **{field: getattr(traj, field) + 1}))
    verdict = detector.cross_parallel_compare(runs, alpha=0.01, gap_stats=GapMemo())
    assert verdict.determinism_breach
    assert _by_name(verdict)["per_clock_bit_equality_1_vs_0"].statistic == 0.0


def test_cross_parallel_per_worker_uses_statistics():
    runs = [
        _cell(2, "blocks", StreamMode.PER_WORKER),
        _cell(2, "round_robin", StreamMode.PER_WORKER),
    ]
    verdict = detector.cross_parallel_compare(runs, alpha=0.01, gap_stats=GapMemo())
    assert verdict.outcome == CONSISTENT
    names = set(_by_name(verdict))
    assert "per_worker_0_vs_1_inter_event_ks" in names
    assert "per_worker_0_marks_chi2" in names
    assert "per_worker_1_marks_chi2" in names


def test_cross_parallel_validates_basis_and_arity():
    with pytest.raises(ValueError, match="at least 2"):
        detector.cross_parallel_compare([_cell(1, "blocks", StreamMode.PER_CLOCK)], alpha=0.01,
                                        gap_stats=GapMemo())
    mixed = [
        _cell(1, "blocks", StreamMode.PER_CLOCK, seed=0),
        _cell(1, "blocks", StreamMode.PER_CLOCK, seed=1),
    ]
    with pytest.raises(ValueError, match="share"):
        detector.cross_parallel_compare(mixed, alpha=0.01, gap_stats=GapMemo())


# ---------------------------------------------------------------------------
# the single-run blind spot
# ---------------------------------------------------------------------------


def test_fitted_exponential_passes_ideal_run():
    serial, _ = _pair(IDEAL)
    verdict = oracle.fitted_exponential_check(serial, alpha=0.01)
    assert verdict.outcome == CONSISTENT


def test_fitted_exponential_misses_pure_time_rescaling():
    # The blind spot by construction: a power bias only rescales the clock,
    # the refitted exponential absorbs the rescaling, and the check passes
    # even though the source is badly broken.
    serial, _ = _pair(_PB2)
    verdict = oracle.fitted_exponential_check(serial, alpha=0.01)
    assert verdict.outcome == CONSISTENT
    assert _by_name(verdict)["fitted_exponential_ks"].p_value > 0.01


def test_fitted_exponential_catches_shape_distortion():
    # Thinning with full rejection bounds the gaps away from large values,
    # which no exponential fit can imitate.
    serial, _ = _pair(LowThinning(0.5, 1.0))
    verdict = oracle.fitted_exponential_check(serial, alpha=0.01)
    assert verdict.diverged


def test_fitted_exponential_needs_events():
    import types

    empty = types.SimpleNamespace(inter_event_times=lambda: np.array([]))
    with pytest.raises(ValueError):
        oracle.fitted_exponential_check(empty, alpha=0.01)


# ---------------------------------------------------------------------------
# fix evaluation
# ---------------------------------------------------------------------------


def test_fix_repairs_full_thinning():
    report = detector.fix_evaluation(
        LowThinning(0.5, 1.0), RescaleWindow(0.5, 1.0), 10_000, alpha=0.01, seed=0
    )
    assert report.before.diverged
    assert _by_name(report.before)["uniform_ks"].p_value < 1e-6
    assert report.after.outcome == CONSISTENT
    assert _by_name(report.after)["uniform_ks"].p_value > 0.01
    # every raw candidate below the cutoff dies (in the fault); accepted
    # mass is half, so the discard rate sits at 1/2
    assert report.discard_rate == pytest.approx(0.5, abs=0.02)


def test_fix_window_on_ideal_source_only_costs_draws():
    report = detector.fix_evaluation(
        IDEAL, RescaleWindow(0.25, 0.75), 10_000, alpha=0.01, seed=1
    )
    assert report.before.outcome == CONSISTENT
    assert report.after.outcome == CONSISTENT
    assert report.discard_rate == pytest.approx(0.5, abs=0.02)


@pytest.mark.parametrize("fault,window", [
    (LowThinning(0.5, 0.5), RescaleWindow(0.5, 1.0)),
    (LowThinning(0.3, 1.0), RescaleWindow(0.1, 0.8)),
    (IDEAL, RescaleWindow(0.25, 0.75)),
    (PowerBias(2.0), RescaleWindow(0.2, 0.9)),
])
def test_fix_evaluation_matches_oracle(fault, window):
    # Verdicts, p-values and the discard rate all compare exactly.
    fast = detector.fix_evaluation(fault, window, 10_000, alpha=0.01, seed=123)
    slow = oracle.fix_evaluation(fault, window, 10_000, alpha=0.01, seed=123)
    assert fast.before == slow.before
    assert fast.after == slow.after
    assert fast.discard_rate == slow.discard_rate


@pytest.mark.parametrize("fault,window", [
    (LowThinning(0.5, 0.5), RescaleWindow(0.5, 1.0)),
    (LowThinning(0.3, 1.0), RescaleWindow(0.1, 0.8)),
    (PowerBias(2.0), RescaleWindow(0.2, 0.9)),
])
def test_fix_evaluation_in_small_tiles_matches_oracle(monkeypatch, fault, window):
    # Tiles of 777 samples cut each part into 12 tiles and a short one: each
    # tile goes on from the state after the last, and the rejections add up.
    monkeypatch.setattr(detector, "TILE_CELLS", 777)
    fast = detector.fix_evaluation(fault, window, 10_000, alpha=0.01, seed=321)
    slow = oracle.fix_evaluation(fault, window, 10_000, alpha=0.01, seed=321)
    assert fast.before == slow.before
    assert fast.after == slow.after
    assert fast.discard_rate == slow.discard_rate


def test_fix_requires_window_and_samples():
    with pytest.raises(ValueError):
        detector.fix_evaluation(IDEAL, None, 10_000, alpha=0.01, seed=0)
    with pytest.raises(ValueError):
        detector.fix_evaluation(IDEAL, RescaleWindow(0.25, 0.75), 9_999, alpha=0.01, seed=0)


# ---------------------------------------------------------------------------
# verdict mechanics
# ---------------------------------------------------------------------------


def test_verdict_from_evidence_rules():
    ok = Evidence("a", 0.1, 0.5)
    bad = Evidence("b", 0.9, 0.001)
    info = Evidence("c", 1.0, None)
    assert Verdict.from_evidence([ok, info], 0.01).outcome == CONSISTENT
    assert Verdict.from_evidence([ok, bad], 0.01).outcome == DIVERGENCE
    breach = Verdict.from_evidence([ok], 0.01, breach=True)
    assert breach.outcome == DIVERGENCE and breach.determinism_breach
    # alpha is a strict threshold
    edge = Evidence("d", 0.5, 0.01)
    assert Verdict.from_evidence([edge], 0.01).outcome == CONSISTENT


# ---------------------------------------------------------------------------
# the composed experiment
# ---------------------------------------------------------------------------


def _small_plan(**overrides):
    base = dict(
        seeds=(0, 1),
        n_clocks=8,
        horizon=150.0,
        worker_counts=(1, 2),
        mappings=("blocks",),
        stream_modes=(StreamMode.PER_CLOCK,),
        ab_samples=2000,
        fix_samples=10_000,
    )
    base.update(overrides)
    return ExperimentPlan(**base)


def test_run_experiment_is_deterministic():
    plan = _small_plan()
    a = detector.run_experiment(plan)
    b = detector.run_experiment(plan)
    assert a.as_dict() == b.as_dict()


def test_run_experiment_shape_and_labels():
    report = detector.run_experiment(_small_plan())
    assert len(report.seed_reports) == 2
    sr = report.seed_reports[0]
    assert [r.label for r in sr.runs] == [
        "serial",
        "P1-blocks-per_clock",
        "P2-blocks-per_clock",
    ]
    assert [p.label for p in sr.pairings] == [
        "serial_vs_P1-blocks-per_clock",
        "serial_vs_P2-blocks-per_clock",
        "cross_parallel",
    ]
    assert sr.drift is not None
    assert sr.fix is None
    assert report.as_dict()["schema_version"] == 1


def test_run_experiment_transform_and_fix_sections():
    # reflect-then-rotate maps (0.5, 1) onto itself (x -> 1.5 - x), so the
    # same window serves the transformed simulation and the raw fix check.
    plan = _small_plan(
        seeds=(0,),
        fault=LowThinning(0.5, 1.0),
        transform=Compose([Reflect(), RotateHalf()]),
        fix_window=RescaleWindow(0.5, 1.0),
    )
    report = detector.run_experiment(plan)
    sr = report.seed_reports[0]
    assert sr.pairings[-1].label == "ab_(reflect then rotate_half)"
    assert sr.fix is not None
    assert sr.fix.after.outcome == CONSISTENT


def test_run_experiment_flags_power_bias_every_seed():
    report = detector.run_experiment(_small_plan(fault=_PB2, seeds=(0, 1, 2)))
    key = "serial_vs_P1-blocks-per_clock:serial_marks_chi2"
    assert report.flag_counts.get(key) == 3
    assert report.any_divergence


def test_run_experiment_debug_corruption_breaches():
    report = detector.run_experiment(_small_plan(debug_corrupt_per_clock=True))
    assert report.any_breach
    assert report.as_dict()["any_determinism_breach"] is True


def test_wrong_cross_worker_merge_breaches_without_debug(monkeypatch):
    # A per-clock loop that labels each worker's events with the clock's
    # position in that worker's grid (worker-local ids) is right for one
    # worker and wrong for two; the bit-equality check must see it with
    # [debug] off.  The serial run goes through the loop untouched.
    real = process._run_to_horizon

    def local_ids(cfg, rows, lanes, pace, events):
        if lanes is None:
            return real(cfg, rows, lanes, pace, events)
        own = process._Events()
        consumed = real(cfg, rows, lanes, pace, own)
        times, marks, draws = own.take()
        events.put(times, np.searchsorted(lanes[:, 0], marks), draws)
        return consumed

    plan = _small_plan(seeds=(0,))
    assert not detector.run_experiment(plan).any_breach
    monkeypatch.setattr(process, "_run_to_horizon", local_ids)
    report = detector.run_experiment(plan)
    cross = report.seed_reports[0].pairings[-1]
    assert cross.label == "cross_parallel"
    assert cross.verdict.determinism_breach
    assert report.any_breach


def _record_calls(monkeypatch, name):
    # each call's first argument, copied, in call order
    seen = []
    real = getattr(detector, name)

    def counted(first, *rest):
        seen.append(np.array(first))
        return real(first, *rest)

    monkeypatch.setattr(detector, name, counted)
    return seen


def _run_keeping_trajectories(plan):
    # the report, and each seed's (label, trajectory) list from on_seed
    seeds = []
    report = detector.run_experiment(plan, on_seed=lambda seed, runs: seeds.append(runs))
    for sr, runs in zip(report.seed_reports, seeds, strict=True):
        assert [(r.label, r.n_events, r.final_time, r.total_draws) for r in sr.runs] == \
            [(label, len(t), t.final_time, t.total_draws) for label, t in runs]
    return report, seeds


def test_run_experiment_summarizes_each_trajectory_once(monkeypatch):
    # Four parallel cells: the serial run enters four pairings and each
    # per-worker run enters two, yet each distinct gap sample is summarised
    # once: the two per-clock cells are bit-equal, so they share one summary.
    seen = _record_calls(monkeypatch, "summarize")
    plan = _small_plan(seeds=(0,), stream_modes=(StreamMode.PER_CLOCK, StreamMode.PER_WORKER))
    _, (runs,) = _run_keeping_trajectories(plan)
    assert [label for label, _ in runs] == [
        "serial", "P1-blocks-per_clock", "P2-blocks-per_clock",
        "P1-blocks-per_worker", "P2-blocks-per_worker",
    ]
    distinct = [runs[0][1], runs[1][1], runs[3][1], runs[4][1]]
    assert [x.size for x in seen] == [len(t) for t in distinct]
    for x, t in zip(seen, distinct):
        assert np.array_equal(x, t.inter_event_times())


def test_per_clock_ticks_are_counted_once_per_trajectory(monkeypatch):
    # Four per-clock cells enter four serial pairings, so the chi-square of
    # each side runs four times; the bit-equal cells share one trajectory,
    # and each trajectory's marks are counted once.
    counted = []
    real = np.bincount

    def bincount(marks, *args, **kwargs):
        counted.append(marks.size)
        return real(marks, *args, **kwargs)

    monkeypatch.setattr(np, "bincount", bincount)
    plan = _small_plan(seeds=(0,), mappings=("blocks", "round_robin"))
    report, (runs,) = _run_keeping_trajectories(plan)
    serial, per_clock = runs[0][1], runs[1][1]
    assert all(t is per_clock for _, t in runs[1:])
    assert counted == [len(serial), len(per_clock)]
    chi2 = [e for p in report.seed_reports[0].pairings for e in p.verdict.evidence
            if e.test.endswith("marks_chi2")]
    assert len(chi2) == 8


def _cells(plan, seed):
    # the configs run_experiment builds, in its order
    return [
        ParallelConfig(n_clocks=plan.n_clocks, horizon=plan.horizon, seed=seed,
                       fault=plan.fault, workers=workers,
                       mapping=make_mapping(mapping, plan.n_clocks, workers, seed),
                       stream_mode=mode)
        for mode in plan.stream_modes
        for workers in plan.worker_counts
        for mapping in plan.mappings
    ]


def test_shared_gap_memo_equals_a_fresh_memo_per_pairing(monkeypatch):
    # Three bit-equal per-clock cells, one corrupted per-clock cell and four
    # per-worker cells: every pairing's evidence must be what each call
    # computes with a memo of its own.
    seen = _record_calls(monkeypatch, "summarize")
    ks_calls = _record_calls(monkeypatch, "ks_two_sample")
    plan = _small_plan(seeds=(0,), mappings=("blocks", "round_robin"),
                       stream_modes=(StreamMode.PER_CLOCK, StreamMode.PER_WORKER),
                       debug_corrupt_per_clock=True)
    report, (runs,) = _run_keeping_trajectories(plan)
    sr = report.seed_reports[0]
    serial, cells = runs[0][1], [t for _, t in runs[1:]]
    assert report.any_breach
    summarised, ks_tested = len(seen), len(ks_calls)

    for pairing, traj in zip(sr.pairings, cells):
        assert pairing.label.startswith("serial_vs_")
        assert pairing.verdict == detector.serial_parallel_compare(serial, traj, plan.alpha,
                                                                   gap_stats=GapMemo())
    cross = sr.pairings[len(cells)]
    assert cross.label == "cross_parallel"
    assert cross.verdict == detector.cross_parallel_compare(
        list(zip(_cells(plan, 0), cells)), plan.alpha, gap_stats=GapMemo())

    corrupted, sound = cells[0], cells[1]
    assert not np.array_equal(corrupted.times, sound.times)
    assert len(corrupted) == len(sound)
    # One worker ignores the mapping, and at P=2 both mappings give each
    # worker 4 clocks, so each pair of per-worker cells shares its times
    # (their marks differ, and only the gaps are memoised).
    assert np.array_equal(cells[4].times, cells[5].times)
    assert np.array_equal(cells[6].times, cells[7].times)
    assert not np.array_equal(cells[6].marks, cells[7].marks)
    gaps = [serial, corrupted, sound, cells[4], cells[6]]
    assert [x.size for x in seen[:summarised]] == [len(t) for t in gaps]
    for x, t in zip(seen, gaps):
        assert np.array_equal(x, t.inter_event_times())
    # One KS per distinct (gaps, gaps) pair: serial against the 4 distinct
    # cell samples, then P1 vs P1, P1 vs P2 and P2 vs P2 among the per-worker
    # cells (14 pairings in all).
    assert ks_tested == 7


def test_equal_per_clock_records_share_one_trajectory():
    plan = _small_plan(seeds=(0,), worker_counts=(1, 2, 4),
                       stream_modes=(StreamMode.PER_CLOCK, StreamMode.PER_WORKER))
    _, (runs,) = _run_keeping_trajectories(plan)
    per_clock = [t for label, t in runs if label.endswith("per_clock")]
    per_worker = [t for label, t in runs if label.endswith("per_worker")]
    assert len(per_clock) == 3 and all(t is per_clock[0] for t in per_clock)
    assert len({id(t) for t in per_worker}) == 3

    # after a [debug] breach the corrupted first cell shares with no one,
    # while the two sound cells, bit-equal to each other, are one object
    report, (runs,) = _run_keeping_trajectories(
        dataclasses.replace(plan, debug_corrupt_per_clock=True))
    assert report.any_breach
    per_clock = [t for label, t in runs if label.endswith("per_clock")]
    assert len({id(t) for t in per_clock}) == 2
    corrupted, sound, twin = per_clock
    assert twin is sound and not detector._bit_equal(corrupted, sound)


def test_any_parallel_cell_bit_equal_to_an_earlier_run_is_held_as_it(monkeypatch):
    # The driver's one identity rule holds for per-worker cells too.  Here
    # every per-worker simulation returns a fresh object with the P1 cell's
    # bits, so the P2 and P4 cells become the P1 run, and in the memo too:
    # by the seed's cross-parallel check, while the memo still lives, only
    # the first simulation is alive.
    plan = _small_plan(seeds=(0,), worker_counts=(1, 2, 4),
                       stream_modes=(StreamMode.PER_WORKER,))
    first_cell = _cells(plan, 0)[0]
    real = process._simulate_bank
    simulated = []

    def copy_of_first(cfg, pace):
        traj = real(first_cell, pace)
        simulated.append(weakref.ref(traj))
        return traj

    monkeypatch.setattr(process, "_simulate_bank", copy_of_first)
    alive = _alive_at_cross_check(monkeypatch, simulated)
    report, (runs,) = _run_keeping_trajectories(plan)
    assert [label for label, _ in runs] == [
        "serial", "P1-blocks-per_worker", "P2-blocks-per_worker", "P4-blocks-per_worker"]
    assert runs[3][1] is runs[2][1] is runs[1][1]
    assert alive == [[True, False, False]]
    assert not report.any_breach


def test_equal_config_cells_are_simulated_once(monkeypatch):
    # At P=1 both mappings put every clock on worker 0, so in each stream
    # mode the two P=1 cells are one config: 8 cells, 6 simulations, each
    # sized by the pace of the seed's serial run.  The records and verdicts
    # are those of a fresh simulation per cell, run at the default pace.
    plan = _small_plan(seeds=(0,), mappings=("blocks", "round_robin"),
                       stream_modes=(StreamMode.PER_CLOCK, StreamMode.PER_WORKER))
    cells = _cells(plan, 0)
    fresh = [process.simulate_parallel(cfg, {}, pace=1.0) for cfg in cells]
    simulated = []
    real = process._simulate_bank
    monkeypatch.setattr(process, "_simulate_bank",
                        lambda cfg, pace: simulated.append((cfg, pace)) or real(cfg, pace))
    report = detector.run_experiment(plan)
    assert len(simulated) == len(set(simulated)) == 6

    sr = report.seed_reports[0]
    labels = [f"P{workers}-{mapping}-{mode.value}" for mode in plan.stream_modes
              for workers in plan.worker_counts for mapping in plan.mappings]
    assert sr.runs[1:] == tuple(detector.RunRecord.of(label, "parallel", traj)
                                for label, traj in zip(labels, fresh))
    serial = process.simulate_serial(SerialConfig(plan.n_clocks, plan.horizon, 0))
    assert {pace for _, pace in simulated} == {len(serial) / (plan.n_clocks * plan.horizon)}
    assert len(serial) != plan.n_clocks * plan.horizon  # the pace is measured, not 1
    expected = [detector.serial_parallel_compare(serial, traj, plan.alpha, gap_stats=GapMemo())
                for traj in fresh]
    expected.append(detector.cross_parallel_compare(list(zip(cells, fresh)), plan.alpha,
                                                    gap_stats=GapMemo()))
    assert [p.verdict for p in sr.pairings] == expected


def _alive_at_cross_check(monkeypatch, simulated):
    # which weakly held simulations are alive when the seed's cross-parallel
    # check runs: the compare stage's memo is alive then too
    alive = []
    real = detector.cross_parallel_compare
    monkeypatch.setattr(detector, "cross_parallel_compare", lambda *args, **kwargs: alive.append(
        [ref() is not None for ref in simulated]) or real(*args, **kwargs))
    return alive


def test_the_memo_lets_replaced_cells_go(monkeypatch):
    # Cells bit-equal to the first per-clock run are replaced by it, in the
    # memo too: by the seed's cross-parallel check, while the memo still
    # lives, and while the seed's sink runs, only the first of the three
    # per-clock simulations is still alive.
    simulated = []
    real = process._simulate_bank

    def kept_weakly(cfg, pace):
        traj = real(cfg, pace)
        simulated.append(weakref.ref(traj))
        return traj

    monkeypatch.setattr(process, "_simulate_bank", kept_weakly)
    alive = _alive_at_cross_check(monkeypatch, simulated)
    detector.run_experiment(
        _small_plan(seeds=(0,), worker_counts=(1, 2, 4)),
        on_seed=lambda seed, runs: alive.append([ref() is not None for ref in simulated]))
    assert alive == [[True, False, False]] * 2


def test_equal_config_twin_of_a_corrupted_cell_still_breaches():
    # The memo keeps the first per-clock run as simulated, so its P=1 twin
    # is compared, uncorrupted, with the corrupted copy.
    plan = _small_plan(seeds=(0,), worker_counts=(1,), mappings=("blocks", "round_robin"),
                       debug_corrupt_per_clock=True)
    report, (runs,) = _run_keeping_trajectories(plan)
    cross = report.seed_reports[0].pairings[-1]
    assert cross.label == "cross_parallel"
    assert cross.verdict.determinism_breach and report.any_breach
    corrupted, twin = runs[1][1], runs[2][1]
    rerun = process.simulate_parallel(_cells(plan, 0)[1], {}, pace=1.0)
    assert np.array_equal(twin.times, rerun.times)
    assert not np.array_equal(corrupted.times, twin.times)


def test_peak_memory_stays_flat_over_seeds(tmp_path):
    # numpy reports its buffers to tracemalloc.  A seed's serial and
    # per-clock runs hold about 0.51 MB of arrays between them (20 bytes an
    # event); were they kept once the seed is done, the peak through 8
    # seeds would pass the peak through 2 by six times that.  (Sizes stay small because
    # tracemalloc slows the Python loops of summarize and the CSV writer.)
    plan = _small_plan(seeds=tuple(range(8)), n_clocks=32, horizon=400.0,
                       worker_counts=(1,))
    writer = report.EventWriter(tmp_path)
    peaks, held = [], []

    def on_seed(seed, runs):
        writer(seed, runs)
        peaks.append(tracemalloc.get_traced_memory()[1])
        held.append(sum(t.times.nbytes + t.marks.nbytes + t.draw_indices.nbytes
                        for _, t in runs))

    tracemalloc.start()
    try:
        detector.run_experiment(plan, on_seed=on_seed)
    finally:
        tracemalloc.stop()
    assert len(writer.paths) == 16 and min(held) > 458_000
    assert peaks[-1] - peaks[1] < min(held) / 2


def test_one_seed_peak_memory_stays_near_the_trajectories_it_holds():
    # A seed holds its serial run and one per-clock run (equal cells share
    # it), about 2.06 MB of arrays here (20 bytes an event).  The traced
    # peak reads about 2.04 times that; a merge that held a cell's parts,
    # their concatenation and the merged result at once read about 3.19,
    # with 24-byte events.
    plan = _small_plan(seeds=(0,), n_clocks=64, horizon=400.0, fault=PowerBias(2.0),
                       mappings=("round_robin", "shuffle"))
    held = []

    def on_seed(seed, runs):
        kept = {id(t): t for _, t in runs}.values()
        held.append(sum(t.times.nbytes + t.marks.nbytes + t.draw_indices.nbytes
                        for t in kept))

    tracemalloc.start()
    try:
        detector.run_experiment(plan, on_seed=on_seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held[0] > 2_000_000
    assert peak < 2.75 * held[0]


def test_plan_validation():
    with pytest.raises(ValueError):
        _small_plan(seeds=())
    with pytest.raises(ValueError, match="alpha"):
        _small_plan(alpha=1.5)
    with pytest.raises(ValueError):
        _small_plan(ab_samples=10)
    with pytest.raises(ValueError):
        _small_plan(fix_samples=10)
    with pytest.raises(ValueError):
        _small_plan(worker_counts=())


def test_plan_rejects_duplicate_entries():
    for field, value in (("seeds", (3, 3)),
                         ("worker_counts", (1, 2, 1)),
                         ("mappings", ("blocks", "blocks")),
                         ("stream_modes", (StreamMode.PER_CLOCK, StreamMode.PER_CLOCK))):
        with pytest.raises(ValueError, match=f"{field} must not repeat"):
            _small_plan(**{field: value})


def test_plan_rejects_unknown_mappings_and_stream_modes_when_built():
    # before, these failed only once a seed had run its serial simulation
    with pytest.raises(ValueError, match="mappings must be drawn from .*, got 'striped'"):
        _small_plan(mappings=("blocks", "striped"))
    with pytest.raises(ValueError, match="stream_modes must be drawn from .*, got 'bogus'"):
        _small_plan(stream_modes=("bogus",))


def test_str_stream_modes_run_as_the_enum():
    # a str equals its StreamMode but is not it; the plan and the config
    # coerce it, so a str mode never runs the other simulator
    plan = _small_plan(seeds=(0,), stream_modes=("per_clock", "per_worker"))
    assert plan.stream_modes == (StreamMode.PER_CLOCK, StreamMode.PER_WORKER)
    assert all(type(m) is StreamMode for m in plan.stream_modes)
    enum_plan = _small_plan(seeds=(0,), stream_modes=(StreamMode.PER_CLOCK, StreamMode.PER_WORKER))
    assert detector.run_experiment(plan) == detector.run_experiment(enum_plan)
    for mode in StreamMode:
        by_str = ParallelConfig(8, 150.0, 0, workers=2, stream_mode=mode.value)
        assert by_str.stream_mode is mode
        assert detector._bit_equal(process.simulate_parallel(by_str, {}, pace=1.0),
                                   process.simulate_parallel(ParallelConfig(
                                       8, 150.0, 0, workers=2, stream_mode=mode), {}, pace=1.0))
    with pytest.raises(ValueError):
        ParallelConfig(8, 150.0, 0, stream_mode="bogus")


def test_plan_accepts_sample_counts_up_to_the_cap():
    # one above the cap is a config error (test_config)
    cap = 1 << 22
    plan = _small_plan(ab_samples=cap, fix_samples=cap)
    assert (plan.ab_samples, plan.fix_samples) == (cap, cap)


def test_plan_stages():
    assert _small_plan().stages == ("compare", "ab", "fix")
    assert "stages" not in _small_plan(stages=("ab",)).as_dict()
    with pytest.raises(ValueError, match="stages must be drawn from"):
        _small_plan(stages=("compare", "serial"))
    with pytest.raises(ValueError, match="stages must be nonempty"):
        _small_plan(stages=())


def _hand_built_flag_counts(seed_reports, alpha):
    # the flag counter the ab-test and fix-demo commands kept for the
    # reports they built by hand, before they became stage presets
    counts = Counter()
    for sr in seed_reports:
        for pairing in sr.pairings:
            for e in pairing.verdict.evidence:
                if e.p_value is not None and e.p_value < alpha:
                    counts[f"{pairing.label}:{e.test}"] += 1
        if sr.fix is not None:
            for phase, verdict in (("fix_before", sr.fix.before), ("fix_after", sr.fix.after)):
                for e in verdict.evidence:
                    if e.p_value is not None and e.p_value < alpha:
                        counts[f"{phase}:{e.test}"] += 1
    return dict(counts)


@pytest.mark.parametrize("config_name, stages", [
    ("ab_reflect.ini", ("ab",)),
    ("fix_thinning.ini", ("fix",)),
])
def test_stage_presets_equal_the_hand_built_reports(monkeypatch, config_name, stages):
    plan = dataclasses.replace(config.load_config(CONFIGS / config_name)[0], stages=stages)
    if stages == ("ab",):
        label = f"ab_{transform_label(plan.transform)}"
        seed_reports = tuple(
            SeedReport(seed, (), (PairingRecord(label, detector.transform_ab_test(
                plan.fault, plan.transform, plan.ab_samples, plan.alpha, seed)),), None, None)
            for seed in plan.seeds)
    else:
        seed_reports = tuple(
            SeedReport(seed, (), (), None, detector.fix_evaluation(
                plan.fault, plan.fix_window, plan.fix_samples, plan.alpha, seed))
            for seed in plan.seeds)
    expected = ComparisonReport(plan, seed_reports).as_dict()
    expected["flag_counts"] = dict(sorted(
        _hand_built_flag_counts(seed_reports, plan.alpha).items()))
    assert expected["flag_counts"]  # both configs flag: the counts are compared

    def never(*args, **kwargs):
        raise AssertionError("the compare stage ran")

    monkeypatch.setattr(detector, "simulate_serial", never)
    seeds = []
    got = detector.run_experiment(plan, on_seed=lambda seed, runs: seeds.append((seed, runs)))
    assert got.as_dict() == expected
    assert seeds == [(seed, []) for seed in plan.seeds]


def test_compare_plans_report_fix_phases_without_counting_them():
    # detect and calibrate report [fix]'s phases but do not gate on them yet
    plan, _ = config.load_config(CONFIGS / "fix_thinning.ini", seed_override=1)
    assert plan.stages == detector.STAGES
    result = detector.run_experiment(plan)
    assert result.seed_reports[0].fix.before.diverged  # a counted phase would show
    assert not [key for key in result.flag_counts if key.startswith("fix_")]
    fix_only = detector.run_experiment(dataclasses.replace(plan, stages=("fix",)))
    assert "fix_before:uniform_ks" in fix_only.flag_counts
