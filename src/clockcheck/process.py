"""Marked Poisson-clock simulation, run two distributionally identical ways.

The *serial* run drives one merged clock of rate N from a single sample
stream: each event costs two pipeline draws (one exponential time increment
at rate N, one uniform mark pick).  The *parallel* run gives each of the N
clocks its own rate-1 stream (or gives each worker a stream shared
round-robin by its clocks) and merges the per-clock event lists afterwards.
Superposition makes the two processes the same in law whenever the sample
source is actually uniform — so any statistical daylight between them is
evidence against the source, and that asymmetry (two draws per serial event
versus one per parallel tick) is exactly what makes a biased source damage
the two sides differently.

Draws pass through a three-stage pipeline: fault model (the injected
defect), optional measure-preserving transform, optional window
rejection-rescale repair.  ``pipeline_block`` is the one implementation of
that pipeline; every simulator and every detector stage draws through it in
numpy blocks.  The tests keep a one-draw-at-a-time twin of the pipeline and
the simulators as an oracle and require bit-identical results.

Horizon rule: an event whose time would exceed the horizon is suppressed
(its time draw is still consumed), and the trajectory ends at the last
emitted event.  Stream ids are fixed: serial = 0, clock i = 1 + i, worker w
= 10**6 + w, so any run can be replayed stream-by-stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .rng import (
    MASK64,
    MAPPING_STREAM,
    SERIAL_STREAM,
    FaultModel,
    GeneratorState,
    IDEAL,
    clock_stream,
    fault_block,
    fault_rejections,
    next_unit,
    substream,
    worker_stream,
)
from .transforms import RescaleWindow, Transform, transform_block

__all__ = [
    "Event",
    "Trajectory",
    "StreamMode",
    "SerialConfig",
    "ParallelConfig",
    "simulate_serial",
    "simulate_parallel",
    "pipeline_block",
    "block_mapping",
    "round_robin_mapping",
    "shuffle_mapping",
    "make_mapping",
    "MAPPING_KINDS",
]

_TOP = 1.0 - 2.0**-53
_STARVATION_DRAWS = 524_288  # window draws after which a starved window is an error
_MIN_ACCEPTANCE = 1e-4  # window acceptance odds below this are not supported
_MAX_EPOCH_SAMPLES = 1 << 20  # per-worker draws per pipeline_block call, at most


class Event(NamedTuple):
    """One clock tick: when, which clock, and the stream's draw count at emission."""

    time: float
    mark: int
    draw_index: int


@dataclass(frozen=True)
class Trajectory:
    """A time-sorted event record plus draw accounting.

    ``times``/``marks``/``draw_indices`` are parallel arrays.  ``total_draws``
    counts every raw draw the run consumed, including draws behind suppressed
    events and rejection retries, so it generally exceeds the draws visible
    in ``draw_indices``.
    """

    times: np.ndarray
    marks: np.ndarray
    draw_indices: np.ndarray
    total_draws: int
    n_clocks: int

    def __post_init__(self) -> None:
        if self.times.size and np.any(np.diff(self.times) < 0.0):
            raise RuntimeError("internal error: trajectory times are not sorted")

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def final_time(self) -> float:
        """Time of the last emitted event (0.0 for an empty trajectory)."""
        return float(self.times[-1]) if self.times.size else 0.0

    @property
    def per_clock_ticks(self) -> np.ndarray:
        return np.bincount(self.marks, minlength=self.n_clocks)

    def events(self) -> Iterator[Event]:
        for t, m, d in zip(self.times.tolist(), self.marks.tolist(), self.draw_indices.tolist()):
            yield Event(t, int(m), int(d))

    def inter_event_times(self) -> np.ndarray:
        """Gaps between consecutive events, the first measured from time 0."""
        return np.diff(self.times, prepend=0.0)


class StreamMode(str, Enum):
    PER_CLOCK = "per_clock"
    PER_WORKER = "per_worker"


def _validate_common(n_clocks: int, horizon: float, seed: int) -> None:
    if n_clocks < 1:
        raise ValueError(f"n_clocks must be >= 1, got {n_clocks}")
    if not (np.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    if not 0 <= seed <= MASK64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")


@dataclass(frozen=True)
class SerialConfig:
    """Merged-clock run: N clocks folded into one rate-N stream (id 0)."""

    n_clocks: int
    horizon: float
    seed: int
    fault: FaultModel = IDEAL
    transform: Optional[Transform] = None
    fix_window: Optional[RescaleWindow] = None

    def __post_init__(self) -> None:
        _validate_common(self.n_clocks, self.horizon, self.seed)


@dataclass(frozen=True)
class ParallelConfig:
    """Per-clock run: N independent rate-1 clocks hosted by ``workers`` workers.

    ``mapping[i]`` is the worker hosting clock ``i``.  In per-clock stream
    mode the mapping cannot influence the result (each clock owns stream
    ``1 + i``); in per-worker mode clocks draw round-robin from their
    worker's stream (id ``10**6 + w``), so the mapping changes the numbers
    but not the law.
    """

    n_clocks: int
    horizon: float
    seed: int
    fault: FaultModel = IDEAL
    transform: Optional[Transform] = None
    fix_window: Optional[RescaleWindow] = None
    workers: int = 1
    mapping: Optional[tuple[int, ...]] = None
    stream_mode: StreamMode = StreamMode.PER_CLOCK

    def __post_init__(self) -> None:
        _validate_common(self.n_clocks, self.horizon, self.seed)
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.mapping is None:
            object.__setattr__(self, "mapping", block_mapping(self.n_clocks, self.workers))
        if len(self.mapping) != self.n_clocks:
            raise ValueError("mapping must assign every clock a worker")
        if any(not 0 <= w < self.workers for w in self.mapping):
            raise ValueError(f"mapping worker ids must lie in [0, {self.workers})")


# --------------------------------------------------------------------------
# the draw pipeline: fault -> transform -> window rescale


def pipeline_block(
    fault: FaultModel,
    transform: Optional[Transform],
    window: Optional[RescaleWindow],
    gs: GeneratorState,
    n: int,
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """First ``n`` pipeline samples from ``gs`` with their draw accounting.

    Returns ``(samples, at_draw, fault_rejections, window_rejections)``:
    ``at_draw[i]`` is the absolute raw-draw count right after sample ``i``,
    and the two counts are the candidates the fault model and the window
    threw away on the way to the ``n``-th sample.  The window keeps samples
    strictly inside ``(a, b)`` and maps them to ``(x - a) / (b - a)``.

    A window the pipeline lands in with odds below 1e-4 (one aimed where a
    transform moved the mass away, or one only 1e-7 wide) is not supported:
    it raises once ``_STARVATION_DRAWS`` pipeline draws have been made,
    instead of doubling its draw count until memory runs out.
    """
    if window is None:
        samples, at_draw, _, rejected = fault_block(fault, gs, n)
        if transform is not None:
            samples = transform_block(transform, samples)
        return samples, at_draw, rejected, 0
    keep_rate = max(window.width, 1e-3)
    m = max(64, int(1.5 * n / keep_rate) + 16)
    while True:
        samples, at_draw, _, _ = fault_block(fault, gs, m)
        if transform is not None:
            samples = transform_block(transform, samples)
        inside = (samples > window.a) & (samples < window.b)
        accepted = int(np.count_nonzero(inside))
        if accepted >= n:
            break
        if m >= _STARVATION_DRAWS and accepted < _MIN_ACCEPTANCE * m:
            raise RuntimeError(
                f"window ({window.a}, {window.b}) accepted {accepted} of {m} pipeline "
                "draws: the pipeline never lands inside it, or with odds below "
                f"{_MIN_ACCEPTANCE:g}, which is not supported"
            )
        m *= 2
    used = np.flatnonzero(inside)[:n]
    y = (samples[used] - window.a) / window.width
    y[y >= 1.0] = _TOP
    y[y <= 0.0] = 5e-324
    drawn = int(used[-1]) + 1 if n else 0  # pipeline draws up to the n-th kept
    return y, at_draw[used], fault_rejections(at_draw[:drawn], gs.draw_count), drawn - n


# --------------------------------------------------------------------------
# simulators


def simulate_serial(cfg: SerialConfig) -> Trajectory:
    """Run the merged clock to the horizon.

    Each event consumes two pipeline draws: u1 sets the time increment
    ``-log(u1) / N``, u2 sets the mark ``min(floor(u2*N), N-1)``.  The loop
    stops at the first event whose time would exceed the horizon (that
    event's u1 is consumed, its u2 is not).
    """
    n = cfg.n_clocks
    gs = substream(cfg.seed, SERIAL_STREAM)
    m = 2 * (int(2.5 * n * cfg.horizon) + 32)
    while True:
        samples, at_draw, _, _ = pipeline_block(cfg.fault, cfg.transform, cfg.fix_window, gs, m)
        u1 = samples[0::2]
        u2 = samples[1::2]
        times = np.cumsum(-np.log(u1) / n)
        k = int(np.searchsorted(times, cfg.horizon, side="right"))
        if k >= u1.size:  # never saw the suppressed event; widen and redo
            m *= 2
            continue
        marks = np.minimum((u2[:k] * n).astype(np.int64), n - 1)
        return Trajectory(
            times=times[:k],
            marks=marks,
            draw_indices=at_draw[1::2][:k].astype(np.int64),
            total_draws=int(at_draw[2 * k]),
            n_clocks=n,
        )


def simulate_parallel(cfg: ParallelConfig) -> Trajectory:
    """Run N independent rate-1 clocks and merge their event lists."""
    if cfg.stream_mode is StreamMode.PER_CLOCK:
        return _simulate_per_clock(cfg)
    return _simulate_per_worker(cfg)


def _clock_events_block(cfg: ParallelConfig, clock: int) -> tuple[np.ndarray, np.ndarray, int]:
    gs = substream(cfg.seed, clock_stream(clock))
    m = int(2.5 * cfg.horizon) + 32
    while True:
        samples, at_draw, _, _ = pipeline_block(cfg.fault, cfg.transform, cfg.fix_window, gs, m)
        times = np.cumsum(-np.log(samples) / 1.0)
        k = int(np.searchsorted(times, cfg.horizon, side="right"))
        if k >= samples.size:
            m *= 2
            continue
        return times[:k], at_draw[:k].astype(np.int64), int(at_draw[k])


def _simulate_per_clock(cfg: ParallelConfig) -> Trajectory:
    parts_t, parts_m, parts_d = [], [], []
    total = 0
    for clock in range(cfg.n_clocks):
        t, d, consumed = _clock_events_block(cfg, clock)
        parts_t.append(t)
        parts_m.append(np.full(t.size, clock, dtype=np.int64))
        parts_d.append(d)
        total += consumed
    return _merge_arrays(parts_t, parts_m, parts_d, n_clocks=cfg.n_clocks, total_draws=total)


def _simulate_per_worker(cfg: ParallelConfig) -> Trajectory:
    """Each worker's live clocks take one tick each per round, ascending id.

    While the set of live clocks stays the same, a worker's draws form a
    (rounds x live clocks) matrix: each column, summed from that clock's
    current time, gives its tick times.  An epoch is cut at the first round
    in which some clock passes the horizon (every live clock still draws in
    that round); the next epoch repeats with the clocks still alive.
    """
    parts_t = [[] for _ in range(cfg.n_clocks)]
    parts_d = [[] for _ in range(cfg.n_clocks)]
    mapping = np.asarray(cfg.mapping)
    total = 0
    for w in range(cfg.workers):
        clocks = np.flatnonzero(mapping == w)
        gs = substream(cfg.seed, worker_stream(w))
        now = np.zeros(clocks.size)
        while clocks.size:
            k = clocks.size
            rounds = min(int(cfg.horizon - now.max()) + 8, max(1, _MAX_EPOCH_SAMPLES // k))
            samples, at_draw, _, _ = pipeline_block(
                cfg.fault, cfg.transform, cfg.fix_window, gs, rounds * k
            )
            gaps = -np.log(samples).reshape(rounds, k)
            times = np.cumsum(np.vstack([now, gaps]), axis=0)[1:]
            passed = (times > cfg.horizon).any(axis=1)
            cut = int(passed.argmax()) + 1 if passed.any() else rounds
            times, draws = times[:cut], at_draw[: cut * k].reshape(cut, k)
            alive = times[-1] <= cfg.horizon
            kept = cut - 1 + alive  # ticks per clock in this epoch
            for j, clock in enumerate(clocks):
                parts_t[clock].append(times[: kept[j], j])
                parts_d[clock].append(draws[: kept[j], j])
            gs = gs.advanced(int(draws[-1, -1]) - gs.draw_count)
            clocks, now = clocks[alive], times[-1, alive]
        total += gs.draw_count
    times = [np.concatenate(t) for t in parts_t]  # every clock saw at least one epoch
    return _merge_arrays(
        times,
        [np.full(t.size, i, dtype=np.int64) for i, t in enumerate(times)],
        [np.concatenate(d) for d in parts_d],
        n_clocks=cfg.n_clocks,
        total_draws=total,
    )


# --------------------------------------------------------------------------
# merging


def _merge_arrays(
    parts_t: Sequence[np.ndarray],
    parts_m: Sequence[np.ndarray],
    parts_d: Sequence[np.ndarray],
    *,
    n_clocks: int,
    total_draws: int,
) -> Trajectory:
    for t in parts_t:
        if t.size and np.any(np.diff(t) < 0.0):
            raise RuntimeError("internal error: unsorted per-clock event list")
    times = np.concatenate(parts_t) if parts_t else np.empty(0, dtype=np.float64)
    marks = np.concatenate(parts_m) if parts_m else np.empty(0, dtype=np.int64)
    draws = np.concatenate(parts_d) if parts_d else np.empty(0, dtype=np.int64)
    order = np.lexsort((marks, times))  # time first, ties by ascending mark
    return Trajectory(
        times=times[order],
        marks=marks[order],
        draw_indices=draws[order],
        total_draws=total_draws,
        n_clocks=n_clocks,
    )


# --------------------------------------------------------------------------
# clock -> worker mapping generators


def block_mapping(n_clocks: int, workers: int) -> tuple[int, ...]:
    """Contiguous blocks: clock i -> worker i*P//N."""
    return tuple(i * workers // n_clocks for i in range(n_clocks))


def round_robin_mapping(n_clocks: int, workers: int) -> tuple[int, ...]:
    """Cyclic: clock i -> worker i mod P."""
    return tuple(i % workers for i in range(n_clocks))


def shuffle_mapping(n_clocks: int, workers: int, seed: int) -> tuple[int, ...]:
    """Blocks over a seed-determined permutation of the clocks.

    The permutation is a Fisher–Yates shuffle driven by the reserved mapping
    substream, so the mapping is a pure function of (seed, N, P).
    """
    perm = list(range(n_clocks))
    gs = substream(seed, MAPPING_STREAM)
    for i in range(n_clocks - 1, 0, -1):
        u, gs = next_unit(gs)
        j = min(int(u * (i + 1)), i)
        perm[i], perm[j] = perm[j], perm[i]
    mapping = [0] * n_clocks
    for position, clock in enumerate(perm):
        mapping[clock] = position * workers // n_clocks
    return tuple(mapping)


MAPPING_KINDS = ("blocks", "round_robin", "shuffle")


def make_mapping(kind: str, n_clocks: int, workers: int, seed: int = 0) -> tuple[int, ...]:
    if kind == "blocks":
        return block_mapping(n_clocks, workers)
    if kind == "round_robin":
        return round_robin_mapping(n_clocks, workers)
    if kind == "shuffle":
        return shuffle_mapping(n_clocks, workers, seed)
    raise ValueError(f"unknown mapping name: {kind!r} (expected one of {MAPPING_KINDS})")
