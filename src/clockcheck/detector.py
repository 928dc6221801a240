"""Fault detection by comparing runs that must agree when the source is sound.

Four comparisons, each with a closed-form reason to agree under a uniform
source:

* ``transform_ab_test`` — the mean and distribution of the clock functional
  ``-log(y)`` must be unchanged when the samples are passed through a
  measure-preserving transform first;
* ``serial_parallel_compare`` — the merged serial clock and the merged
  per-clock parallel run realise the same marked Poisson process;
* ``cross_parallel_compare`` — per-clock-stream runs must be bit-identical
  under any worker count or mapping (a mismatch is an implementation defect,
  flagged as a determinism breach, not a statistical divergence), and
  per-worker-stream runs under different mappings must agree in law;
* ``fix_evaluation`` — a window rejection-rescale repair must turn a stream
  that fails uniformity into one that passes, at a predictable discard rate.

A ``Verdict`` is divergence iff some evidence p-value falls below alpha or a
bit-equality breach occurred; evidence rows without a p-value (reported
means, bit-match indicators) never trip a verdict by themselves.

``run_experiment`` composes all of the above over seed x workers x mapping
x stream-mode and returns a report that is a pure function of its plan.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .process import (
    ParallelConfig,
    SerialConfig,
    StreamMode,
    Trajectory,
    make_mapping,
    pipeline_block,
    simulate_parallel,
    simulate_serial,
)
from .rng import IDEAL, SERIAL_STREAM, FaultModel, fault_label, substream
from .stats import (
    DriftReport,
    MIN_KS_N,
    clock_drift,
    chi_square_uniform,
    exponential_cdf,
    ks_one_sample,
    ks_two_sample,
    summarize,
    uniform_cdf,
    welch_t,
)
from .transforms import (
    Reflect,
    RescaleWindow,
    Transform,
    transform_block,
    transform_label,
)

__all__ = [
    "CONSISTENT",
    "DIVERGENCE",
    "Evidence",
    "Verdict",
    "FixReport",
    "ExperimentPlan",
    "RunRecord",
    "PairingRecord",
    "SeedReport",
    "ComparisonReport",
    "transform_ab_test",
    "serial_parallel_compare",
    "cross_parallel_compare",
    "fitted_exponential_check",
    "fix_evaluation",
    "run_experiment",
]

CONSISTENT = "consistent"
DIVERGENCE = "divergence_detected"

_MIN_COMPARE_EVENTS = 1000
_MIN_AB_SAMPLES = 1000
_MIN_FIX_SAMPLES = 10_000


@dataclass(frozen=True)
class Evidence:
    """One test outcome; rows with ``p_value=None`` are informational only."""

    test: str
    statistic: float
    p_value: Optional[float]

    def as_dict(self) -> dict:
        return {"test": self.test, "statistic": self.statistic, "p_value": self.p_value}


@dataclass(frozen=True)
class Verdict:
    outcome: str
    evidence: tuple[Evidence, ...]
    alpha: float
    determinism_breach: bool = False

    @property
    def diverged(self) -> bool:
        return self.outcome == DIVERGENCE

    @staticmethod
    def from_evidence(
        evidence: Sequence[Evidence], alpha: float, breach: bool = False
    ) -> "Verdict":
        flagged = breach or any(
            e.p_value is not None and e.p_value < alpha for e in evidence
        )
        return Verdict(
            outcome=DIVERGENCE if flagged else CONSISTENT,
            evidence=tuple(evidence),
            alpha=alpha,
            determinism_breach=breach,
        )

    def as_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "alpha": self.alpha,
            "determinism_breach": self.determinism_breach,
            "evidence": [e.as_dict() for e in self.evidence],
        }


@dataclass(frozen=True)
class FixReport:
    """Uniformity + A/B verdicts before and after the window repair."""

    before: Verdict
    after: Verdict
    discard_rate: float

    def as_dict(self) -> dict:
        return {
            "before": self.before.as_dict(),
            "after": self.after.as_dict(),
            "discard_rate": self.discard_rate,
        }


# --------------------------------------------------------------------------
# the four comparisons


def transform_ab_test(
    fault: FaultModel, transform: Transform, n: int, alpha: float, seed: int
) -> Verdict:
    """Compare ``-log(y)`` against ``-log(f(y'))`` over two independent arms.

    Each arm uses ``n`` fresh draws through the fault pipeline (stream id 0):
    a within-stream A/B rather than a paired evaluation, because the strong
    negative coupling between ``-log(u)`` and ``-log(f(u))`` on the *same*
    draw would make independence-assuming tests anticonservative.  Under a
    uniform source both arms are Exp(1) whatever the transform.
    """
    if n < _MIN_AB_SAMPLES:
        raise ValueError(f"transform_ab_test requires n >= {_MIN_AB_SAMPLES}, got {n}")
    gs = substream(seed, SERIAL_STREAM)
    samples, _, _, _ = pipeline_block(fault, None, None, gs, 2 * n)
    arm_raw = -np.log(samples[:n])
    arm_transformed = -np.log(transform_block(transform, samples[n:]))
    return _ab_verdict(arm_raw, arm_transformed, alpha)


def _ab_verdict(arm_raw: np.ndarray, arm_transformed: np.ndarray, alpha: float) -> Verdict:
    s_raw = summarize(arm_raw)
    s_tr = summarize(arm_transformed)
    ks = ks_two_sample(arm_raw, arm_transformed)
    evidence = [
        Evidence("ab_mean_welch", abs(s_raw.mean - s_tr.mean), welch_t(s_raw, s_tr)),
        Evidence("ab_ks", ks.statistic, ks.p_value),
        Evidence("raw_mean", s_raw.mean, None),
        Evidence("transformed_mean", s_tr.mean, None),
    ]
    return Verdict.from_evidence(evidence, alpha)


def serial_parallel_compare(
    serial: Trajectory, parallel: Trajectory, alpha: float
) -> Verdict:
    """Test that two trajectories realise the same marked point process.

    Inter-event times are compared by two-sample KS and by a Welch test on
    their means; each side's marks are tested against the uniform clock
    distribution by chi-square (skipped when there are fewer than 2 clocks
    or under 5 expected events per clock).
    """
    if len(serial) < _MIN_COMPARE_EVENTS or len(parallel) < _MIN_COMPARE_EVENTS:
        raise ValueError(
            f"serial_parallel_compare requires >= {_MIN_COMPARE_EVENTS} events per side, "
            f"got {len(serial)} and {len(parallel)}"
        )
    evidence = _pair_evidence(serial, parallel, prefix="")
    evidence += _marks_evidence(serial, "serial_marks_chi2")
    evidence += _marks_evidence(parallel, "parallel_marks_chi2")
    return Verdict.from_evidence(evidence, alpha)


def _pair_evidence(a: Trajectory, b: Trajectory, prefix: str) -> list[Evidence]:
    gaps_a = a.inter_event_times()
    gaps_b = b.inter_event_times()
    ks = ks_two_sample(gaps_a, gaps_b)
    s_a, s_b = summarize(gaps_a), summarize(gaps_b)
    return [
        Evidence(prefix + "inter_event_ks", ks.statistic, ks.p_value),
        Evidence(prefix + "inter_event_mean_welch", abs(s_a.mean - s_b.mean),
                 welch_t(s_a, s_b)),
    ]


def _marks_evidence(traj: Trajectory, name: str) -> list[Evidence]:
    if traj.n_clocks < 2 or len(traj) / traj.n_clocks < 5.0:
        return []
    res = chi_square_uniform(traj.per_clock_ticks)
    return [Evidence(name, res.statistic, res.p_value)]


def cross_parallel_compare(
    runs: Sequence[tuple[ParallelConfig, Trajectory]], alpha: float
) -> Verdict:
    """Compare parallel runs of one experiment cell against each other.

    Per-clock-stream runs must be bit-identical to the first such run
    (mismatch = determinism breach, a distinct flag: it indicts the
    parallelization, not the sample source).  Per-worker-stream runs are
    mapping-dependent in their draws, so they are compared pairwise with the
    same statistical battery as the serial/parallel comparison.
    """
    if len(runs) < 2:
        raise ValueError("cross_parallel_compare requires at least 2 runs")
    basis = None
    for cfg, _ in runs:
        key = (cfg.n_clocks, cfg.horizon, cfg.seed, cfg.fault, cfg.transform,
               cfg.fix_window)
        if basis is None:
            basis = key
        elif key != basis:
            raise ValueError("cross_parallel_compare runs must share "
                             "(n_clocks, horizon, seed, fault, transform, fix_window)")
    evidence: list[Evidence] = []
    breach = False

    per_clock = [(i, t) for i, (c, t) in enumerate(runs)
                 if c.stream_mode is StreamMode.PER_CLOCK]
    if len(per_clock) >= 2:
        ref_index, ref = per_clock[0]
        for i, traj in per_clock[1:]:
            equal = (
                np.array_equal(ref.times, traj.times)
                and np.array_equal(ref.marks, traj.marks)
                and np.array_equal(ref.draw_indices, traj.draw_indices)
            )
            if not equal:
                breach = True
            evidence.append(
                Evidence(f"per_clock_bit_equality_{i}_vs_{ref_index}",
                         1.0 if equal else 0.0, None)
            )

    per_worker = [(i, t) for i, (c, t) in enumerate(runs)
                  if c.stream_mode is StreamMode.PER_WORKER]
    for a_pos in range(len(per_worker)):
        for b_pos in range(a_pos + 1, len(per_worker)):
            i, ta = per_worker[a_pos]
            j, tb = per_worker[b_pos]
            evidence += _pair_evidence(ta, tb, prefix=f"per_worker_{i}_vs_{j}_")
    for i, traj in per_worker:
        evidence += _marks_evidence(traj, f"per_worker_{i}_marks_chi2")

    return Verdict.from_evidence(evidence, alpha, breach=breach)


def fitted_exponential_check(traj: Trajectory, alpha: float) -> Verdict:
    """The serial blind spot: KS of inter-event times vs their own fitted law.

    The reference exponential takes its rate from the sample mean, which is
    all a run without a comparison partner can do — and a source bias that
    only rescales time (e.g. a power bias) survives this check untouched.
    """
    gaps = traj.inter_event_times()
    if gaps.size < MIN_KS_N:
        raise ValueError("fitted_exponential_check requires a nonempty trajectory "
                         f"with >= {MIN_KS_N} events")
    rate = 1.0 / float(np.mean(gaps))
    res = ks_one_sample(gaps, lambda x: exponential_cdf(x, rate))
    return Verdict.from_evidence(
        [Evidence("fitted_exponential_ks", res.statistic, res.p_value)], alpha
    )


def fix_evaluation(
    fault: FaultModel, window: RescaleWindow, n: int, alpha: float, seed: int
) -> FixReport:
    """Evaluate the window repair: uniformity KS + A/B, before vs after.

    Each phase takes 3n pipeline draws from stream id 0: n for the
    uniformity check and n per A/B arm (the A/B transform is fixed to the
    reflection, the canonical involution).  The discard rate is measured on
    the repaired pipeline: rejected candidates (fault retries plus window
    rejections) over all attempts.
    """
    if window is None:
        raise ValueError("fix_evaluation requires a window")
    if n < _MIN_FIX_SAMPLES:
        raise ValueError(f"fix_evaluation requires n >= {_MIN_FIX_SAMPLES}, got {n}")
    before, _ = _fix_phase(fault, None, n, alpha, seed)
    after, discard_rate = _fix_phase(fault, window, n, alpha, seed)
    return FixReport(before=before, after=after, discard_rate=discard_rate)


def _fix_phase(
    fault: FaultModel,
    window: Optional[RescaleWindow],
    n: int,
    alpha: float,
    seed: int,
) -> tuple[Verdict, float]:
    gs = substream(seed, SERIAL_STREAM)
    samples, _, fault_discards, window_discards = pipeline_block(fault, None, window, gs, 3 * n)
    arm_raw = -np.log(samples[n:2 * n])
    arm_reflected = -np.log(transform_block(Reflect(), samples[2 * n:]))
    ks = ks_one_sample(samples[:n], uniform_cdf)
    ab = _ab_verdict(arm_raw, arm_reflected, alpha)
    evidence = (Evidence("uniform_ks", ks.statistic, ks.p_value),) + ab.evidence
    discards = fault_discards + window_discards
    rate = discards / (discards + 3 * n)
    return Verdict.from_evidence(evidence, alpha), rate


# --------------------------------------------------------------------------
# the composed experiment


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything ``run_experiment`` varies: the full cross product is run.

    ``debug_corrupt_per_clock`` deliberately damages the first per-clock
    trajectory of each seed before comparison; it exists so that the
    determinism-breach reporting path can be exercised end to end (a correct
    build never breaches on its own).
    """

    seeds: tuple[int, ...]
    n_clocks: int
    horizon: float
    fault: FaultModel = IDEAL
    transform: Optional[Transform] = None
    fix_window: Optional[RescaleWindow] = None
    worker_counts: tuple[int, ...] = (1,)
    mappings: tuple[str, ...] = ("blocks",)
    stream_modes: tuple[StreamMode, ...] = (StreamMode.PER_CLOCK,)
    alpha: float = 0.01
    ab_samples: int = 100_000
    fix_samples: int = 10_000
    debug_corrupt_per_clock: bool = False

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ValueError("plan requires a nonempty seed list")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not self.worker_counts or any(p < 1 for p in self.worker_counts):
            raise ValueError("worker_counts must be a nonempty list of P >= 1")
        if not self.mappings or not self.stream_modes:
            raise ValueError("mappings and stream_modes must be nonempty")
        if self.ab_samples < _MIN_AB_SAMPLES:
            raise ValueError(f"ab_samples must be >= {_MIN_AB_SAMPLES}")
        if self.fix_samples < _MIN_FIX_SAMPLES:
            raise ValueError(f"fix_samples must be >= {_MIN_FIX_SAMPLES}")

    def as_dict(self) -> dict:
        return {
            "seeds": list(self.seeds),
            "n_clocks": self.n_clocks,
            "horizon": self.horizon,
            "fault": fault_label(self.fault),
            "transform": transform_label(self.transform) if self.transform else None,
            "fix_window": [self.fix_window.a, self.fix_window.b] if self.fix_window else None,
            "worker_counts": list(self.worker_counts),
            "mappings": list(self.mappings),
            "stream_modes": [m.value for m in self.stream_modes],
            "alpha": self.alpha,
            "ab_samples": self.ab_samples,
            "fix_samples": self.fix_samples,
            "debug_corrupt_per_clock": self.debug_corrupt_per_clock,
        }


@dataclass(frozen=True)
class RunRecord:
    """One simulated trajectory plus its summary numbers (trajectory itself
    is kept for CSV export and never serialised into the JSON report)."""

    label: str
    kind: str
    trajectory: Trajectory

    def as_dict(self) -> dict:
        t = self.trajectory
        n = len(t)
        return {
            "label": self.label,
            "kind": self.kind,
            "n_events": n,
            "final_time": t.final_time,
            "total_draws": t.total_draws,
            "mean_inter_event": t.final_time / n if n else None,
        }


@dataclass(frozen=True)
class PairingRecord:
    label: str
    verdict: Verdict

    def as_dict(self) -> dict:
        return {"label": self.label, "verdict": self.verdict.as_dict()}


@dataclass(frozen=True)
class SeedReport:
    seed: int
    runs: tuple[RunRecord, ...]
    pairings: tuple[PairingRecord, ...]
    drift: Optional[DriftReport]
    fix: Optional[FixReport]

    def as_dict(self) -> dict:
        drift = None
        if self.drift is not None:
            drift = {
                "reported_time": self.drift.reported_time,
                "expected_time": self.drift.expected_time,
                "lag": self.drift.lag,
                "ticks": self.drift.ticks,
            }
        return {
            "seed": self.seed,
            "runs": [r.as_dict() for r in self.runs],
            "pairings": [p.as_dict() for p in self.pairings],
            "drift": drift,
            "fix": self.fix.as_dict() if self.fix else None,
        }


@dataclass(frozen=True)
class ComparisonReport:
    plan: ExperimentPlan
    seed_reports: tuple[SeedReport, ...]
    flag_counts: dict

    @property
    def any_breach(self) -> bool:
        return any(p.verdict.determinism_breach
                   for s in self.seed_reports for p in s.pairings)

    @property
    def any_divergence(self) -> bool:
        return any(p.verdict.diverged
                   for s in self.seed_reports for p in s.pairings)

    @property
    def any_fix_failure(self) -> bool:
        return any(s.fix is not None and s.fix.after.diverged
                   for s in self.seed_reports)

    def as_dict(self) -> dict:
        return {
            "schema_version": 1,
            "plan": self.plan.as_dict(),
            "seed_reports": [s.as_dict() for s in self.seed_reports],
            "flag_counts": dict(sorted(self.flag_counts.items())),
            "any_divergence": self.any_divergence,
            "any_determinism_breach": self.any_breach,
        }


def _corrupted(traj: Trajectory) -> Trajectory:
    if not len(traj):
        return traj
    times = traj.times.copy()
    times[0] *= 0.5
    return Trajectory(times=times, marks=traj.marks, draw_indices=traj.draw_indices,
                      total_draws=traj.total_draws, n_clocks=traj.n_clocks)


def run_experiment(plan: ExperimentPlan) -> ComparisonReport:
    """Execute the whole plan; a divergence is a result, never an abort.

    Deterministic: the report is a pure function of the plan.  Cells are run
    sequentially in a fixed order (seed, then stream mode, then worker
    count, then mapping), which also fixes all labels.
    """
    flag_counts: Counter = Counter()
    seed_reports = []
    for seed in plan.seeds:
        serial = simulate_serial(
            SerialConfig(plan.n_clocks, plan.horizon, seed, plan.fault,
                         plan.transform, plan.fix_window)
        )
        runs = [RunRecord("serial", "serial", serial)]
        pairings: list[PairingRecord] = []
        parallel_cells: list[tuple[ParallelConfig, Trajectory]] = []
        corrupted_one = False
        for mode in plan.stream_modes:
            for workers in plan.worker_counts:
                for mapping_name in plan.mappings:
                    cfg = ParallelConfig(
                        n_clocks=plan.n_clocks,
                        horizon=plan.horizon,
                        seed=seed,
                        fault=plan.fault,
                        transform=plan.transform,
                        fix_window=plan.fix_window,
                        workers=workers,
                        mapping=make_mapping(mapping_name, plan.n_clocks, workers, seed),
                        stream_mode=mode,
                    )
                    traj = simulate_parallel(cfg)
                    if (plan.debug_corrupt_per_clock and not corrupted_one
                            and mode is StreamMode.PER_CLOCK):
                        traj = _corrupted(traj)
                        corrupted_one = True
                    label = f"P{workers}-{mapping_name}-{mode.value}"
                    runs.append(RunRecord(label, "parallel", traj))
                    parallel_cells.append((cfg, traj))
                    pairings.append(PairingRecord(
                        f"serial_vs_{label}",
                        serial_parallel_compare(serial, traj, plan.alpha),
                    ))
        if len(parallel_cells) >= 2:
            pairings.append(PairingRecord(
                "cross_parallel",
                cross_parallel_compare(parallel_cells, plan.alpha),
            ))
        if plan.transform is not None:
            pairings.append(PairingRecord(
                f"ab_{transform_label(plan.transform)}",
                transform_ab_test(plan.fault, plan.transform, plan.ab_samples,
                                  plan.alpha, seed),
            ))
        fix = None
        if plan.fix_window is not None:
            fix = fix_evaluation(plan.fault, plan.fix_window, plan.fix_samples,
                                 plan.alpha, seed)
        for pairing in pairings:
            for e in pairing.verdict.evidence:
                if e.p_value is not None and e.p_value < plan.alpha:
                    flag_counts[f"{pairing.label}:{e.test}"] += 1
        seed_reports.append(SeedReport(
            seed=seed,
            runs=tuple(runs),
            pairings=tuple(pairings),
            drift=clock_drift(serial, float(plan.n_clocks)),
            fix=fix,
        ))
    return ComparisonReport(plan=plan, seed_reports=tuple(seed_reports),
                            flag_counts=dict(flag_counts))
