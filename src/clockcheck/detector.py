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
Every subcommand is one such call; the plan's ``stages`` pick what runs
(``"compare"``: the serial/parallel runs and their pairings; ``"ab"``;
``"fix"``), and ``ComparisonReport.flag_counts`` alone counts the flags.
``ExperimentPlan`` checks every field when it is built (a stream mode given
as a str becomes its ``StreamMode``), so a bad plan fails before any seed.

The records (``SeedReport``, ``RunRecord``, ``PairingRecord``, ``Verdict``,
``Evidence``, ``FixReport``, and ``stats.DriftReport``) are the report's
schema: ``report.sanitize`` writes each one as the dict of its fields.  Only
``ExperimentPlan.as_dict`` (labels; ``stages`` left out) and
``ComparisonReport.as_dict`` (``schema_version`` and the derived flag
counts) are written by hand.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .process import (
    MAPPING_KINDS,
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
from .rng import (
    IDEAL,
    SERIAL_STREAM,
    TILE_CELLS,
    FaultModel,
    GeneratorState,
    fault_label,
    substream,
)
from .stats import (
    DriftReport,
    KsResult,
    SampleSummary,
    clock_drift,
    chi_square_uniform,
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
    "TooFewEvents",
    "cross_parallel_compare",
    "GapStats",
    "GapMemo",
    "fix_evaluation",
    "STAGES",
    "run_experiment",
]

CONSISTENT = "consistent"
DIVERGENCE = "divergence_detected"

_MIN_COMPARE_EVENTS = 1000
_MIN_AB_SAMPLES = 1000
_MIN_FIX_SAMPLES = 10_000
_MAX_SAMPLES = 1 << 22  # per A/B arm or fix-phase part: bounds their memory

#: the stages a plan can run, in the order each seed runs them
STAGES = ("compare", "ab", "fix")


@dataclass(frozen=True)
class Evidence:
    """One test outcome; rows with ``p_value=None`` are informational only."""

    test: str
    statistic: float
    p_value: Optional[float]


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


@dataclass(frozen=True)
class FixReport:
    """Uniformity + A/B verdicts before and after the window repair."""

    before: Verdict
    after: Verdict
    discard_rate: float


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
    uniform source both arms are Exp(1) whatever the transform.  The arms
    are drawn in tiles straight into one pooled key buffer
    (:func:`_ab_keys`), so the stage holds its keys and a few tiles.
    """
    if n < _MIN_AB_SAMPLES:
        raise ValueError(f"transform_ab_test requires n >= {_MIN_AB_SAMPLES}, got {n}")
    keys, _ = _ab_keys(fault, None, transform, substream(seed, SERIAL_STREAM), n)
    return _ab_verdict(keys, n, alpha)


def _draw_into(out: np.ndarray, fault: FaultModel, window: Optional[RescaleWindow],
               gs: GeneratorState, transform: Optional[Transform] = None,
               log: bool = True) -> tuple[GeneratorState, int]:
    """Write the next ``out.size`` pipeline samples of ``gs`` into ``out``,
    each mapped by ``transform`` and then, with ``log``, to ``-log(x)``;
    return the state after the last one and the candidates the fault model
    and the window threw away on the way.

    The samples come in tiles of at most ``TILE_CELLS``, one
    :func:`pipeline_block` call each, from the state after the last tile's
    last sample.  A stream's samples do not depend on how many are asked
    for, and the rejections of consecutive tiles add up, so the tiles
    change no bit and no count.
    """
    discards = 0
    for lo in range(0, out.size, TILE_CELLS):
        samples, last, fault_rejected, window_rejected = pipeline_block(
            fault, None, window, gs, min(TILE_CELLS, out.size - lo), grid=False)
        gs = gs.advanced(last - gs.draw_count)
        discards += fault_rejected + window_rejected
        tile = out[lo:lo + samples.size]
        tile[...] = samples if transform is None else transform_block(transform, samples)
        if log:
            np.negative(np.log(tile, out=tile), out=tile)
    return gs, discards


def _ab_keys(fault: FaultModel, window: Optional[RescaleWindow], transform: Transform,
             gs: GeneratorState, n: int) -> tuple[np.ndarray, int]:
    """The pooled key buffer of an A/B on the next ``2n`` pipeline samples
    of ``gs``, and the candidates thrown away on the way: through its
    float64 view, ``-log(y)`` of the first ``n`` samples, then
    ``-log(transform(y))`` of the next ``n``."""
    keys = np.empty(2 * n, dtype=np.uint64)
    values = keys.view(np.float64)
    gs, raw_discards = _draw_into(values[:n], fault, window, gs)
    _, transformed_discards = _draw_into(values[n:], fault, window, gs, transform)
    return keys, raw_discards + transformed_discards


def _ab_verdict(keys: np.ndarray, n: int, alpha: float) -> Verdict:
    """The A/B evidence of the two arms a pooled key buffer holds as float64
    bits, the raw arm first (``n`` values): each arm's summary, then the
    two-sample KS, which uses the buffer up."""
    values = keys.view(np.float64)
    s_raw = summarize(values[:n])
    s_tr = summarize(values[n:])
    ks = ks_two_sample(keys, n)
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
    serial: Trajectory, parallel: Trajectory, alpha: float, *, gap_stats: GapMemo,
) -> Verdict:
    """Test that two trajectories realise the same marked point process.

    Inter-event times are compared by two-sample KS and by a Welch test on
    their means; each side's marks are tested against the uniform clock
    distribution by chi-square (skipped when there are fewer than 2 clocks
    or under 5 expected events per clock).  A caller making several
    pairings passes the same ``gap_stats`` memo to each call, and one
    making a single pairing a fresh :class:`GapMemo`.  The memo is keyed on
    the trajectories' times (confirmed by exact equality), so each distinct
    gap sample is summarised once, and each distinct pair of them is KS- and
    Welch-tested once.
    """
    if len(serial) < _MIN_COMPARE_EVENTS or len(parallel) < _MIN_COMPARE_EVENTS:
        raise TooFewEvents(
            f"serial_parallel_compare requires >= {_MIN_COMPARE_EVENTS} events per side, "
            f"got {len(serial)} and {len(parallel)}"
        )
    evidence = _pair_evidence(serial, parallel, "", gap_stats)
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
    into one pooled key buffer (:func:`~clockcheck.stats.ks_two_sample`), so
    a KS holds the pooled bytes once.
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
            hit = self._pairs[a, b] = (ks_two_sample(keys, n), welch_t(a.summary, b.summary))
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
    ``total_draws`` and ``n_clocks``; the one test of trajectory identity."""
    return a is b or (
        a.total_draws == b.total_draws
        and a.n_clocks == b.n_clocks
        and np.array_equal(a.times, b.times)
        and np.array_equal(a.marks, b.marks)
        and np.array_equal(a.draw_indices, b.draw_indices)
    )


def cross_parallel_compare(
    runs: Sequence[tuple[ParallelConfig, Trajectory]], alpha: float, *, gap_stats: GapMemo,
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
    rejections) over all attempts.  A phase draws in tiles: its uniformity
    part into one float64 buffer, which is let go after its KS, then its
    arms straight into one pooled key buffer (:func:`_ab_keys`).
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
    uniform = np.empty(n)
    gs, discards = _draw_into(uniform, fault, window, substream(seed, SERIAL_STREAM), log=False)
    ks = ks_one_sample(uniform, uniform_cdf)
    del uniform
    keys, ab_discards = _ab_keys(fault, window, Reflect(), gs, n)
    ab = _ab_verdict(keys, n, alpha)
    evidence = (Evidence("uniform_ks", ks.statistic, ks.p_value),) + ab.evidence
    discards += ab_discards
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

    ``stages`` picks what each seed runs, from :data:`STAGES`; ``"ab"`` and
    ``"fix"`` run only when configured.  It is left out of :meth:`as_dict`.
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
    stages: tuple[str, ...] = STAGES

    def __post_init__(self) -> None:
        # Each message starts with the field it is about; config maps that
        # field back to the key it was read from.
        for name in ("seeds", "worker_counts", "mappings", "stream_modes", "stages"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must be nonempty")
            if len(set(values)) != len(values):
                value = next(v for v, count in Counter(values).items() if count > 1)
                raise ValueError(f"{name} must not repeat an entry, got {value!r} more than once")
        for name, allowed in (("mappings", MAPPING_KINDS),
                              ("stream_modes", tuple(m.value for m in StreamMode)),
                              ("stages", STAGES)):
            unknown = [v for v in getattr(self, name) if v not in allowed]
            if unknown:
                raise ValueError(f"{name} must be drawn from {list(allowed)}, got {unknown[0]!r}")
        # a str equals its mode but is not it, and the simulators test identity
        object.__setattr__(self, "stream_modes", tuple(map(StreamMode, self.stream_modes)))
        for seed in self.seeds:
            _validate_common(self.n_clocks, self.horizon, seed)
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if min(self.worker_counts) < 1:
            raise ValueError(f"worker_counts must be >= 1, got {min(self.worker_counts)}")
        for name, low in (("ab_samples", _MIN_AB_SAMPLES), ("fix_samples", _MIN_FIX_SAMPLES)):
            value = getattr(self, name)
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
            if value > _MAX_SAMPLES:
                raise ValueError(f"{name} must be <= {_MAX_SAMPLES} (2^22), got {value}")

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
    mean_inter_event: Optional[float]  # None for a run without events

    @staticmethod
    def of(label: str, kind: str, traj: Trajectory) -> "RunRecord":
        n, final_time = len(traj), traj.final_time
        return RunRecord(label, kind, n, final_time, traj.total_draws,
                         final_time / n if n else None)


@dataclass(frozen=True)
class PairingRecord:
    label: str
    verdict: Verdict


@dataclass(frozen=True)
class SeedReport:
    seed: int
    runs: tuple[RunRecord, ...]
    pairings: tuple[PairingRecord, ...]
    drift: Optional[DriftReport]
    fix: Optional[FixReport]


@dataclass(frozen=True)
class ComparisonReport:
    plan: ExperimentPlan
    seed_reports: tuple[SeedReport, ...]

    @property
    def flag_counts(self) -> dict:
        """How many seeds flag each test (p < alpha), keyed ``"label:test"``.

        Every pairing counts; the fix phases (``fix_before:``, ``fix_after:``)
        count only without the compare stage (``fix-demo``), so ``detect`` and
        ``calibrate`` report their fix phases without gating on them.
        """
        counts: Counter = Counter()
        for sr in self.seed_reports:
            verdicts = [(p.label, p.verdict) for p in sr.pairings]
            if sr.fix is not None and "compare" not in self.plan.stages:
                verdicts += [("fix_before", sr.fix.before), ("fix_after", sr.fix.after)]
            for label, verdict in verdicts:
                for e in verdict.evidence:
                    if e.p_value is not None and e.p_value < self.plan.alpha:
                        counts[f"{label}:{e.test}"] += 1
        return dict(counts)

    @property
    def any_breach(self) -> bool:
        return any(p.verdict.determinism_breach
                   for s in self.seed_reports for p in s.pairings)

    @property
    def any_divergence(self) -> bool:
        return any(p.verdict.diverged
                   for s in self.seed_reports for p in s.pairings)

    def as_dict(self) -> dict:
        """The report's top level.  The seed reports stay records: the
        report writer turns each record into a dict of its fields."""
        return {
            "schema_version": 1,
            "plan": self.plan.as_dict(),
            "seed_reports": list(self.seed_reports),
            "flag_counts": dict(sorted(self.flag_counts.items())),
            "any_divergence": self.any_divergence,
            "any_determinism_breach": self.any_breach,
        }


def _corrupted(traj: Trajectory) -> Trajectory:
    if not len(traj):
        return traj
    times = traj.times.copy()
    times[0] *= 0.5
    return replace(traj, times=times)


def run_experiment(
    plan: ExperimentPlan,
    on_seed: Optional[Callable[[int, list[tuple[str, Trajectory]]], None]] = None,
) -> ComparisonReport:
    """Execute the whole plan; a divergence is a result, never an abort.

    Deterministic: the report is a pure function of the plan.  Each seed
    runs the plan's stages in :data:`STAGES` order, its compare cells in a
    fixed order (stream mode, then worker count, then mapping), which also
    fixes all labels.  Once a seed is done, ``on_seed(seed, runs)`` gets its
    ``(label, trajectory)`` list in that order (serial first; empty without
    the compare stage); then the seed's trajectories are let go, so memory
    does not grow with the seed count.
    """
    return ComparisonReport(plan, tuple(_run_seed(plan, seed, on_seed) for seed in plan.seeds))


def _run_seed(plan: ExperimentPlan, seed: int, on_seed) -> SeedReport:
    """One seed of :func:`run_experiment`; its trajectories die with the call."""
    runs: list[tuple[str, Trajectory]] = []
    pairings: list[PairingRecord] = []
    drift = fix = None
    if "compare" in plan.stages:
        runs, pairings = _compare(plan, seed)
        drift = clock_drift(runs[0][1], float(plan.n_clocks))
    if "ab" in plan.stages and plan.transform is not None:
        pairings.append(PairingRecord(
            f"ab_{transform_label(plan.transform)}",
            transform_ab_test(plan.fault, plan.transform, plan.ab_samples,
                              plan.alpha, seed),
        ))
    if "fix" in plan.stages and plan.fix_window is not None:
        fix = fix_evaluation(plan.fault, plan.fix_window, plan.fix_samples,
                             plan.alpha, seed)
    if on_seed is not None:
        on_seed(seed, runs)
    return SeedReport(
        seed=seed,
        runs=tuple(RunRecord.of(label, "parallel" if i else "serial", traj)
                   for i, (label, traj) in enumerate(runs)),
        pairings=tuple(pairings),
        drift=drift,
        fix=fix,
    )


def _compare(plan: ExperimentPlan, seed: int) -> tuple[list, list[PairingRecord]]:
    """The compare stage of one seed: its ``(label, trajectory)`` runs,
    serial first, and the pairings that compare them.

    Each distinct cell is simulated once: cells with equal configs (every
    mapping at P = 1; ``blocks`` and ``round_robin`` at P = N) share one
    trajectory through the seed's memo.  Here alone is it decided which runs
    are one trajectory: a cell ``_bit_equal`` to an earlier run of the seed
    is replaced by that run, in the memo too, so equal cells are held once.
    Under ``debug_corrupt_per_clock`` the corrupted first per-clock cell is
    shared with no one and never enters the memo, so an equal-config twin
    is compared with the uncorrupted run and breaches.

    The serial run's pace, its events per clock per unit time, sizes the
    first pass of every parallel run of the seed, so a per-clock cell
    usually draws in one pass.  The pace only sizes passes: it changes no
    bit of any run and is no part of the memo key.
    """
    serial = simulate_serial(
        SerialConfig(plan.n_clocks, plan.horizon, seed, plan.fault,
                     plan.transform, plan.fix_window)
    )
    pace = len(serial) / (plan.n_clocks * plan.horizon)
    runs = [("serial", serial)]
    pairings: list[PairingRecord] = []
    parallel_cells: list[tuple[ParallelConfig, Trajectory]] = []
    gap_stats = GapMemo()  # this seed's pairings share each distinct gap sample
    corrupt = plan.debug_corrupt_per_clock
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
                traj = simulate_parallel(cfg, memo, pace=pace)
                if corrupt and mode is StreamMode.PER_CLOCK:
                    traj, corrupt = _corrupted(traj), False
                else:  # the memo holds traj, after any earlier twin of it
                    traj = memo[cfg] = next(t for t in (serial, *memo.values())
                                            if _bit_equal(t, traj))
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
    return runs, pairings
