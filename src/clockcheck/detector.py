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
from typing import Callable, Optional, Sequence

import numpy as np

from .process import (
    ParallelConfig,
    SerialConfig,
    StreamMode,
    Trajectory,
    _gaps,
    _validate_common,
    make_mapping,
    pipeline_block,
    simulate_parallel,
    simulate_serial,
)
from .rng import IDEAL, SERIAL_STREAM, FaultModel, fault_label, substream
from .stats import (
    DriftReport,
    KsResult,
    SampleSummary,
    clock_drift,
    chi_square_uniform,
    ks_one_sample,
    ks_pooled,
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
    "TooFewEvents",
    "cross_parallel_compare",
    "GapStats",
    "GapMemo",
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


class TooFewEvents(ValueError):
    """A trajectory below :func:`serial_parallel_compare`'s event floor: the
    plan's bank (``n_clocks`` over ``horizon``) is too small to compare."""


def serial_parallel_compare(
    serial: Trajectory, parallel: Trajectory, alpha: float,
    *, gap_stats: Optional[GapMemo] = None,
) -> Verdict:
    """Test that two trajectories realise the same marked point process.

    Inter-event times are compared by two-sample KS and by a Welch test on
    their means; each side's marks are tested against the uniform clock
    distribution by chi-square (skipped when there are fewer than 2 clocks
    or under 5 expected events per clock).  A caller making several
    pairings passes the same ``gap_stats`` memo to each call: it is keyed on
    the trajectories' times (confirmed by exact equality), so each distinct
    gap sample is summarised once, and each distinct pair of them is KS- and
    Welch-tested once.
    """
    if len(serial) < _MIN_COMPARE_EVENTS or len(parallel) < _MIN_COMPARE_EVENTS:
        raise TooFewEvents(
            f"serial_parallel_compare requires >= {_MIN_COMPARE_EVENTS} events per side, "
            f"got {len(serial)} and {len(parallel)}"
        )
    evidence = _pair_evidence(serial, parallel, "", gap_stats or GapMemo())
    evidence += _marks_evidence(serial, "serial_marks_chi2")
    evidence += _marks_evidence(parallel, "parallel_marks_chi2")
    return Verdict.from_evidence(evidence, alpha)


@dataclass(frozen=True, eq=False)
class GapStats:
    """A trajectory's inter-event gaps as the pairings read them: their
    Welford summary (in event order) and the event times they come from.

    Compared and hashed by identity: a :class:`GapMemo` hands out one
    object per distinct gap content and keys its pair results on it.
    """

    summary: SampleSummary
    times: np.ndarray


class GapMemo:
    """One seed's gap statistics, computed once per distinct gap content.

    A trajectory whose ``times`` equal those of a trajectory seen before
    (same length, then ``np.array_equal``; never a hash, never the run's
    config) gets that trajectory's :class:`GapStats`, so equal per-clock
    cells are summarised once, and a corrupted or wrongly merged cell,
    whose times differ, gets its own.  The KS and Welch results of each
    ordered pair of ``GapStats`` are kept too.  Meant to live for one
    seed's pairings: it holds the summaries and the times it has seen, and
    no gaps; a pair's KS writes both runs' gaps, from their times, straight
    into one pooled key buffer (:func:`~clockcheck.stats.ks_pooled`), so a
    KS holds the pooled bytes once.
    """

    def __init__(self) -> None:
        self._seen: list[GapStats] = []
        self._pairs: dict[tuple[GapStats, GapStats], tuple[KsResult, float]] = {}

    def __call__(self, traj: Trajectory) -> GapStats:
        times = traj.times
        for stats in self._seen:
            if stats.times is times or (stats.times.size == times.size
                                        and np.array_equal(stats.times, times)):
                return stats
        stats = GapStats(summarize(traj.inter_event_times()), times)
        self._seen.append(stats)
        return stats

    def pair(self, a: GapStats, b: GapStats) -> tuple[KsResult, float]:
        """The two-sample KS and ``welch_t`` of ``a`` against ``b``, once per pair."""
        hit = self._pairs.get((a, b))
        if hit is None:
            n = a.times.size
            keys = np.empty(n + b.times.size, dtype=np.uint64)
            values = keys.view(np.float64)  # each side's gaps go straight into the keys
            _gaps(a.times, out=values[:n])
            _gaps(b.times, out=values[n:])
            hit = self._pairs[a, b] = (ks_pooled(keys, n), welch_t(a.summary, b.summary))
        return hit


def _pair_evidence(a: Trajectory, b: Trajectory, prefix: str,
                   gap_stats: GapMemo) -> list[Evidence]:
    ga, gb = gap_stats(a), gap_stats(b)
    ks, welch_p = gap_stats.pair(ga, gb)
    return [
        Evidence(prefix + "inter_event_ks", ks.statistic, ks.p_value),
        Evidence(prefix + "inter_event_mean_welch",
                 abs(ga.summary.mean - gb.summary.mean), welch_p),
    ]


def _marks_evidence(traj: Trajectory, name: str) -> list[Evidence]:
    if traj.n_clocks < 2 or len(traj) / traj.n_clocks < 5.0:
        return []
    res = chi_square_uniform(traj.per_clock_ticks)
    return [Evidence(name, res.statistic, res.p_value)]


def _bit_equal(a: Trajectory, b: Trajectory) -> bool:
    """Whether two runs are the same bits: times, marks, draw indices,
    ``total_draws`` and ``n_clocks`` (the per-clock determinism predicate)."""
    return a is b or (
        a.total_draws == b.total_draws
        and a.n_clocks == b.n_clocks
        and np.array_equal(a.times, b.times)
        and np.array_equal(a.marks, b.marks)
        and np.array_equal(a.draw_indices, b.draw_indices)
    )


def cross_parallel_compare(
    runs: Sequence[tuple[ParallelConfig, Trajectory]], alpha: float,
    *, gap_stats: Optional[GapMemo] = None,
) -> Verdict:
    """Compare parallel runs of one experiment cell against each other.

    Per-clock-stream runs must be bit-identical to the first such run: the
    same times, marks and draw indices, the same ``total_draws`` and
    ``n_clocks`` (mismatch = determinism breach, a distinct flag: it indicts
    the parallelization, not the sample source).  Per-worker-stream runs are
    mapping-dependent in their draws, so they are compared pairwise with the
    same statistical battery as the serial/parallel comparison;
    ``gap_stats`` is as in :func:`serial_parallel_compare` (keyed on content,
    confirmed by exact equality, so per-worker runs with equal times share
    their gap statistics and nothing else).
    """
    gap_stats = gap_stats or GapMemo()
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
            equal = _bit_equal(ref, traj)
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
            evidence += _pair_evidence(ta, tb, f"per_worker_{i}_vs_{j}_", gap_stats)
    for i, traj in per_worker:
        evidence += _marks_evidence(traj, f"per_worker_{i}_marks_chi2")

    return Verdict.from_evidence(evidence, alpha, breach=breach)


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
        # Each message starts with the field it is about; config maps that
        # field back to the key it was read from.
        for name in ("seeds", "worker_counts", "mappings", "stream_modes"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must be nonempty")
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not repeat an entry, got {list(values)}")
        for seed in self.seeds:
            _validate_common(self.n_clocks, self.horizon, seed)
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if any(p < 1 for p in self.worker_counts):
            raise ValueError(f"worker_counts must be >= 1, got {list(self.worker_counts)}")
        if self.ab_samples < _MIN_AB_SAMPLES:
            raise ValueError(f"ab_samples must be >= {_MIN_AB_SAMPLES}, got {self.ab_samples}")
        if self.fix_samples < _MIN_FIX_SAMPLES:
            raise ValueError(f"fix_samples must be >= {_MIN_FIX_SAMPLES}, got {self.fix_samples}")

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
    """The numbers the report gives for one simulated trajectory.

    The trajectory itself is not kept: ``run_experiment`` hands each seed's
    trajectories to its ``on_seed`` sink, then lets them go.
    """

    label: str
    kind: str
    n_events: int
    final_time: float
    total_draws: int

    @staticmethod
    def of(label: str, kind: str, traj: Trajectory) -> "RunRecord":
        return RunRecord(label, kind, len(traj), traj.final_time, traj.total_draws)

    def as_dict(self) -> dict:
        n = self.n_events
        return {
            "label": self.label,
            "kind": self.kind,
            "n_events": n,
            "final_time": self.final_time,
            "total_draws": self.total_draws,
            "mean_inter_event": self.final_time / n if n else None,
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


def run_experiment(
    plan: ExperimentPlan,
    on_seed: Optional[Callable[[int, list[tuple[str, Trajectory]]], None]] = None,
) -> ComparisonReport:
    """Execute the whole plan; a divergence is a result, never an abort.

    Deterministic: the report is a pure function of the plan.  Cells are run
    sequentially in a fixed order (seed, then stream mode, then worker
    count, then mapping), which also fixes all labels.  Once a seed's
    comparisons are done, ``on_seed(seed, runs)`` gets its ``(label,
    trajectory)`` list in that order (serial first); then the seed's
    trajectories are let go, so memory does not grow with the seed count.
    """
    flag_counts: Counter = Counter()
    seed_reports = []
    for seed in plan.seeds:
        report = _run_seed(plan, seed, on_seed)
        for pairing in report.pairings:
            for e in pairing.verdict.evidence:
                if e.p_value is not None and e.p_value < plan.alpha:
                    flag_counts[f"{pairing.label}:{e.test}"] += 1
        seed_reports.append(report)
    return ComparisonReport(plan=plan, seed_reports=tuple(seed_reports),
                            flag_counts=dict(flag_counts))


def _run_seed(plan: ExperimentPlan, seed: int, on_seed) -> SeedReport:
    """One seed of :func:`run_experiment`; its trajectories die with the call.

    Each distinct cell is simulated once: cells with equal configs (every
    mapping at P = 1; ``blocks`` and ``round_robin`` at P = N) share one
    trajectory through the seed's memo.  A per-clock cell bit-equal to the
    seed's first per-clock run is replaced by that run, in the memo too, as
    soon as it is simulated, so equal cells are held once; an unequal cell
    is kept, and the cross-parallel check flags it.  The memo keeps the
    first per-clock run as simulated, so under ``debug_corrupt_per_clock``
    an equal-config twin is compared with the uncorrupted run and breaches.
    """
    serial = simulate_serial(
        SerialConfig(plan.n_clocks, plan.horizon, seed, plan.fault,
                     plan.transform, plan.fix_window)
    )
    runs = [("serial", serial)]
    pairings: list[PairingRecord] = []
    parallel_cells: list[tuple[ParallelConfig, Trajectory]] = []
    gap_stats = GapMemo()  # this seed's pairings share each distinct gap sample
    first_per_clock = None
    memo: dict[ParallelConfig, Trajectory] = {}
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
                traj = simulate_parallel(cfg, memo)
                if mode is StreamMode.PER_CLOCK:
                    if first_per_clock is None:
                        if plan.debug_corrupt_per_clock:
                            traj = _corrupted(traj)
                        first_per_clock = traj
                    elif _bit_equal(first_per_clock, traj):
                        traj = memo[cfg] = first_per_clock
                label = f"P{workers}-{mapping_name}-{mode.value}"
                runs.append((label, traj))
                parallel_cells.append((cfg, traj))
                pairings.append(PairingRecord(
                    f"serial_vs_{label}",
                    serial_parallel_compare(serial, traj, plan.alpha, gap_stats=gap_stats),
                ))
    if len(parallel_cells) >= 2:
        pairings.append(PairingRecord(
            "cross_parallel",
            cross_parallel_compare(parallel_cells, plan.alpha, gap_stats=gap_stats),
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
    if on_seed is not None:
        on_seed(seed, runs)
    return SeedReport(
        seed=seed,
        runs=(RunRecord.of("serial", "serial", serial),)
        + tuple(RunRecord.of(label, "parallel", traj) for label, traj in runs[1:]),
        pairings=tuple(pairings),
        drift=clock_drift(serial, float(plan.n_clocks)),
        fix=fix,
    )
