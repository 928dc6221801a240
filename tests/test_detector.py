"""Detection-layer tests.

Mean targets for the A/B arms were computed by quadrature over the faulted
draw density (density of u = x**(1/gamma) is gamma*u**(gamma-1)):

  ideal, any measure-preserving transform      -> 1.0
  power_bias(2), raw arm                       -> 0.5
  power_bias(2), reflect arm                   -> 1.5
  power_bias(2), (rotate_half then reflect)    -> 0.8068528194400542
"""

import numpy as np
import pytest

import oracle
from clockcheck import detector, process
from clockcheck.detector import (
    CONSISTENT,
    DIVERGENCE,
    Evidence,
    ExperimentPlan,
    Verdict,
    _corrupted,
    fitted_exponential_check,
)
from clockcheck.process import (
    ParallelConfig,
    SerialConfig,
    StreamMode,
    make_mapping,
)
from clockcheck.rng import IDEAL, LowThinning, PowerBias
from clockcheck.transforms import Compose, Reflect, RescaleWindow, RotateHalf

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


# ---------------------------------------------------------------------------
# serial vs parallel
# ---------------------------------------------------------------------------


def _pair(fault, seed=0, n_clocks=8, horizon=250.0):
    serial = process.simulate_serial(SerialConfig(n_clocks, horizon, seed, fault))
    parallel = process.simulate_parallel(ParallelConfig(n_clocks, horizon, seed, fault))
    return serial, parallel


def test_serial_parallel_ideal_is_consistent():
    verdict = detector.serial_parallel_compare(*_pair(IDEAL), alpha=0.01)
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
    verdict = detector.serial_parallel_compare(*_pair(_PB2), alpha=0.01)
    assert verdict.diverged
    rows = _by_name(verdict)
    assert rows["serial_marks_chi2"].p_value < 1e-3
    assert rows["inter_event_ks"].p_value > 0.01
    assert rows["parallel_marks_chi2"].p_value > 0.01


def test_serial_parallel_rejects_thin_trajectories():
    serial, parallel = _pair(IDEAL, horizon=20.0)
    with pytest.raises(ValueError, match="events per side"):
        detector.serial_parallel_compare(serial, parallel, alpha=0.01)


def test_self_comparison_is_clean():
    serial, _ = _pair(IDEAL)
    verdict = detector.serial_parallel_compare(serial, serial, alpha=0.01)
    assert verdict.outcome == CONSISTENT
    rows = _by_name(verdict)
    assert rows["inter_event_ks"].statistic == 0.0
    assert rows["inter_event_mean_welch"].statistic == 0.0


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
    return cfg, process.simulate_parallel(cfg)


def test_cross_parallel_per_clock_runs_are_bit_identical():
    runs = [
        _cell(1, "blocks", StreamMode.PER_CLOCK),
        _cell(2, "round_robin", StreamMode.PER_CLOCK),
        _cell(4, "shuffle", StreamMode.PER_CLOCK),
    ]
    verdict = detector.cross_parallel_compare(runs, alpha=0.01)
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
    verdict = detector.cross_parallel_compare(runs, alpha=0.01)
    assert verdict.determinism_breach
    assert verdict.diverged
    assert _by_name(verdict)["per_clock_bit_equality_1_vs_0"].statistic == 0.0


def test_cross_parallel_per_worker_uses_statistics():
    runs = [
        _cell(2, "blocks", StreamMode.PER_WORKER),
        _cell(2, "round_robin", StreamMode.PER_WORKER),
    ]
    verdict = detector.cross_parallel_compare(runs, alpha=0.01)
    assert verdict.outcome == CONSISTENT
    names = set(_by_name(verdict))
    assert "per_worker_0_vs_1_inter_event_ks" in names
    assert "per_worker_0_marks_chi2" in names
    assert "per_worker_1_marks_chi2" in names


def test_cross_parallel_validates_basis_and_arity():
    with pytest.raises(ValueError, match="at least 2"):
        detector.cross_parallel_compare([_cell(1, "blocks", StreamMode.PER_CLOCK)], alpha=0.01)
    mixed = [
        _cell(1, "blocks", StreamMode.PER_CLOCK, seed=0),
        _cell(1, "blocks", StreamMode.PER_CLOCK, seed=1),
    ]
    with pytest.raises(ValueError, match="share"):
        detector.cross_parallel_compare(mixed, alpha=0.01)


# ---------------------------------------------------------------------------
# the single-run blind spot
# ---------------------------------------------------------------------------


def test_fitted_exponential_passes_ideal_run():
    serial, _ = _pair(IDEAL)
    verdict = fitted_exponential_check(serial, alpha=0.01)
    assert verdict.outcome == CONSISTENT


def test_fitted_exponential_misses_pure_time_rescaling():
    # The blind spot by construction: a power bias only rescales the clock,
    # the refitted exponential absorbs the rescaling, and the check passes
    # even though the source is badly broken.
    serial, _ = _pair(_PB2)
    verdict = fitted_exponential_check(serial, alpha=0.01)
    assert verdict.outcome == CONSISTENT
    assert _by_name(verdict)["fitted_exponential_ks"].p_value > 0.01


def test_fitted_exponential_catches_shape_distortion():
    # Thinning with full rejection bounds the gaps away from large values,
    # which no exponential fit can imitate.
    serial, _ = _pair(LowThinning(0.5, 1.0))
    verdict = fitted_exponential_check(serial, alpha=0.01)
    assert verdict.diverged


def test_fitted_exponential_needs_events():
    import types

    empty = types.SimpleNamespace(inter_event_times=lambda: np.array([]))
    with pytest.raises(ValueError):
        fitted_exponential_check(empty, alpha=0.01)


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
    assert not report.any_fix_failure


def test_run_experiment_flags_power_bias_every_seed():
    report = detector.run_experiment(_small_plan(fault=_PB2, seeds=(0, 1, 2)))
    key = "serial_vs_P1-blocks-per_clock:serial_marks_chi2"
    assert report.flag_counts.get(key) == 3
    assert report.any_divergence


def test_run_experiment_debug_corruption_breaches():
    report = detector.run_experiment(_small_plan(debug_corrupt_per_clock=True))
    assert report.any_breach
    assert report.as_dict()["any_determinism_breach"] is True


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
