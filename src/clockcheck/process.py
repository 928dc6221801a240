"""Marked Poisson-clock simulation, run two distributionally identical ways.

The *serial* run drives one merged clock of rate N from a single sample
stream: each event costs two pipeline draws (one exponential time increment
at rate N, one uniform mark pick).  The *parallel* run hosts the N rate-1
clocks on workers and merges the workers' event lists afterwards.  In
per-clock stream mode each clock owns a stream, and a worker draws all of
its clocks at once as the rows of one (clocks x steps) grid: the mapping
decides which grid a clock is drawn in, not its numbers, so every worker
count and mapping must give the same bits.  In per-worker mode each worker
owns a stream that its clocks share round-robin.
Superposition makes the two processes the same in law whenever the sample
source is actually uniform — so any statistical daylight between them is
evidence against the source, and that asymmetry (two draws per serial event
versus one per parallel tick) is exactly what makes a biased source damage
the two sides differently.

Draws pass through a three-stage pipeline: fault model (the injected
defect), optional measure-preserving transform, optional window
rejection-rescale repair.  ``pipeline_block`` is the one implementation of
that pipeline; every simulator and every detector stage draws through it in
numpy blocks, of one stream or of a grid of streams, one per row.  The tests keep a one-draw-at-a-time twin of the pipeline and
the simulators as an oracle and require bit-identical results.

Horizon rule: an event whose time would exceed the horizon is suppressed
(its time draw is still consumed), and the trajectory ends at the last
emitted event.  Stream ids are fixed: serial = 0, clock i = 1 + i, worker w
= 10**6 + w, so any run can be replayed stream-by-stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional

import numpy as np

from .rng import (
    MASK64,
    MAPPING_STREAM,
    MAX_PASS_CELLS,
    SERIAL_STREAM,
    _SNAP_BELOW_ONE,
    _TINY,
    FaultModel,
    GeneratorState,
    IDEAL,
    LowThinning,
    RowStates,
    as_rows,
    clock_stream,
    fault_block,
    fault_rejections,
    one_row,
    substream,
    substream_rows,
    unit_block,
    worker_stream,
)
from .transforms import RescaleWindow, Transform, transform_block

__all__ = [
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

_STARVATION_DRAWS = 524_288  # window draws after which a starved window is an error
_MIN_ACCEPTANCE = 1e-4  # window acceptance odds below this are not supported


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
        if np.any(self.times[1:] < self.times[:-1]):
            raise RuntimeError("internal error: trajectory times are not sorted")

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def final_time(self) -> float:
        """Time of the last emitted event (0.0 for an empty trajectory)."""
        return float(self.times[-1]) if self.times.size else 0.0

    @cached_property
    def per_clock_ticks(self) -> np.ndarray:
        """Events per clock, counted once per trajectory object (read-only)."""
        ticks = np.bincount(self.marks, minlength=self.n_clocks)
        ticks.flags.writeable = False
        return ticks

    def inter_event_times(self) -> np.ndarray:
        """Gaps between consecutive events, the first measured from time 0."""
        return _gaps(self.times)


def _gaps(t: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Gaps between consecutive ``t``, the first measured from time 0,
    written to ``out`` (a float64 array of ``t``'s size) if given."""
    gaps = np.empty(t.shape, dtype=np.float64) if out is None else out
    gaps[:1] = t[:1]
    np.subtract(t[1:], t[:-1], out=gaps[1:])
    return gaps


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
    mode each clock owns stream ``1 + i`` and the mapping only decides in
    which worker's grid the clock is drawn, so it must not change the
    result; in per-worker mode clocks draw round-robin from their worker's
    stream (id ``10**6 + w``), so the mapping changes the numbers but not
    the law.
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
        # a str equals its mode but is not it, and simulate_parallel tests identity
        object.__setattr__(self, "stream_mode", StreamMode(self.stream_mode))
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
    gs: "GeneratorState | RowStates",
    n: int,
):
    """First ``n`` pipeline samples from ``gs`` with their draw accounting.

    Returns ``(samples, at_draw, fault_rejections, window_rejections)``:
    ``at_draw[i]`` is the absolute raw-draw count right after sample ``i``,
    and the two counts are the candidates the fault model and the window
    threw away on the way to the ``n``-th sample.  The window keeps samples
    strictly inside ``(a, b)`` and maps them to ``(x - a) / (b - a)``.
    Given :class:`RowStates`, each row runs the pipeline on its own stream:
    the samples and draw counts are (rows x n) grids and the rejections are
    counted per row.  A single stream is the one-row case.

    A window the pipeline lands in with odds below 1e-4 (one aimed where a
    transform moved the mass away, or one only 1e-7 wide) is not supported:
    it raises once ``_STARVATION_DRAWS`` pipeline draws have been made,
    instead of doubling its draw count until memory runs out.
    """
    rows, single = as_rows(gs)
    out = _pipeline_rows(fault, transform, window, rows, n)
    return one_row(out) if single else out


def _pipeline_rows(fault, transform, window, rows: RowStates, n: int):
    if window is None:
        samples, at_draw, _, rejected = fault_block(fault, rows, n)
        if transform is not None:
            samples = transform_block(transform, samples)
        return samples, at_draw, rejected, np.zeros(len(rows), dtype=np.int64)
    # Each row draws m pipeline samples and keeps its first n inside the
    # window; a row with fewer inside draws again from its start with 2m.
    # The rows go in batches of at most MAX_PASS_CELLS draws (one row when m
    # alone is more).
    y = np.empty((len(rows), n), dtype=np.float64)
    kept_at = np.empty((len(rows), n), dtype=np.int64)
    fault_rejected = np.zeros(len(rows), dtype=np.int64)
    drawn = np.zeros(len(rows), dtype=np.int64)  # pipeline draws up to the n-th kept
    todo = np.arange(len(rows))
    m = max(64, int(n * _draws_per_sample(window)) + 16)
    while todo.size:
        batch = max(1, MAX_PASS_CELLS // m)
        short = []
        for lo in range(0, todo.size, batch):
            part = todo[lo:lo + batch]
            samples, at_draw, _, _ = fault_block(fault, rows.take(part), m)
            below = samples < fault.c if isinstance(fault, LowThinning) else None
            if transform is not None:
                samples = transform_block(transform, samples)
            inside = (samples > window.a) & (samples < window.b)
            accepted = np.count_nonzero(inside, axis=1)
            ok = accepted >= n
            if m >= _STARVATION_DRAWS and (accepted[~ok] < _MIN_ACCEPTANCE * m).any():
                raise RuntimeError(
                    f"window ({window.a}, {window.b}) accepted {accepted.min()} of {m} "
                    "pipeline draws: the pipeline never lands inside it, or with odds "
                    f"below {_MIN_ACCEPTANCE:g}, which is not supported"
                )
            short.append(part[~ok])
            done = part[ok]
            samples, at_draw, inside = samples[ok], at_draw[ok], inside[ok]
            used = inside & (np.cumsum(inside, axis=1) <= n)  # each row's first n inside
            y[done] = ((samples[used] - window.a) / window.width).reshape(done.size, n)
            kept_at[done] = at_draw[used].reshape(done.size, n)
            if n:
                drawn[done] = m - np.argmax(used[:, ::-1], axis=1)
            if below is not None:
                fault_rejected[done] = fault_rejections(at_draw, below[ok], rows.draw_count[done],
                                                        upto=drawn[done])
        todo, m = np.concatenate(short), 2 * m
    y[y >= 1.0] = _SNAP_BELOW_ONE
    y[y <= 0.0] = _TINY
    return y, kept_at, fault_rejected, drawn - n


def _draws_per_sample(window: Optional[RescaleWindow]) -> float:
    """Pipeline draws a stream first takes per sample its window keeps."""
    return 1.0 if window is None else 1.5 / max(window.width, 1e-3)


def _ticks_to_pass(left: float, pace: float, cap: int) -> int:
    """Ticks that carry a clock ``left`` more time at ``pace`` ticks per unit
    time, plus five Poisson standard deviations and 32: the size of a pass
    that takes the clock past the horizon in all but rare cases.  At least
    1, at most ``cap`` (or 1 when ``cap`` is below 1)."""
    mean = left * pace
    return max(1, int(min(mean + 5.0 * math.sqrt(mean) + 32.0, cap)))


# --------------------------------------------------------------------------
# simulators


def simulate_serial(cfg: SerialConfig) -> Trajectory:
    """Run the merged clock to the horizon.

    Each event consumes two pipeline draws: u1 sets the time increment
    ``-log(u1) / N``, u2 sets the mark ``min(floor(u2*N), N-1)``.  The loop
    stops at the first event whose time would exceed the horizon (that
    event's u1 is consumed, its u2 is not).  The draws come in passes of an
    even number of samples, ``MAX_PASS_CELLS`` at most, each sized to the
    events the merged clock still needs to pass the horizon, plus a margin
    (:func:`_ticks_to_pass`): the first pass assumes one event per clock per
    unit time, and each later one the pace the run has shown so far.  Each
    pass goes on from the stream state and the time the last one reached, so
    the pass size changes no bit of the result.
    """
    n = cfg.n_clocks
    gs = substream(cfg.seed, SERIAL_STREAM)
    now, pace, events = 0.0, 1.0, 0  # pace: events per clock per unit time
    parts_t, parts_m, parts_d = [], [], []
    while True:
        m = 2 * _ticks_to_pass(n * (cfg.horizon - now), pace, MAX_PASS_CELLS // 2)
        samples, at_draw, _, _ = pipeline_block(cfg.fault, cfg.transform, cfg.fix_window, gs, m)
        times = np.log(samples[0::2])  # the gaps, -log(u1) / N, summed in place
        np.negative(times, out=times)
        times /= n
        times[0] += now
        np.cumsum(times, out=times)
        k = int(np.searchsorted(times, cfg.horizon, side="right"))
        # a view of the pass's times, copied when over half the pass is slack
        parts_t.append(times[:k] if 2 * k >= times.size else times[:k].copy())
        parts_m.append(np.minimum((samples[1::2][:k] * n).astype(np.int64), n - 1))
        parts_d.append(at_draw[1:2 * k:2])
        if k < times.size:  # saw the suppressed event
            return Trajectory(
                times=_join(parts_t, np.float64),
                marks=_join(parts_m, np.int64),
                draw_indices=_join(parts_d, np.int64),
                total_draws=int(at_draw[2 * k]),
                n_clocks=n,
            )
        gs = gs.advanced(int(at_draw[-1]) - gs.draw_count)
        now, events = float(times[-1]), events + k
        pace = events / (n * now)


def simulate_parallel(cfg: ParallelConfig, memo: Optional[dict] = None,
                      pace: float = 1.0) -> Trajectory:
    """Run N independent rate-1 clocks and merge their event lists.

    ``memo``, if given, is a dict from configs to the trajectories returned
    for them, kept by the caller: a config equal to one in it is not run
    again, and a new one is run and stored.  ``pace``, the ticks per clock
    per unit time the run is expected to show, only sizes the first pass of
    draws; later passes use the pace the run has shown.  It changes no bit
    of the result and is no part of the memo key.
    """
    traj = None if memo is None else memo.get(cfg)
    if traj is None:
        if cfg.stream_mode is StreamMode.PER_CLOCK:
            traj = _simulate_per_clock(cfg, pace)
        else:
            traj = _simulate_per_worker(cfg, pace)
        if memo is not None:
            memo[cfg] = traj
    return traj


def _simulate_per_clock(cfg: ParallelConfig, pace: float) -> Trajectory:
    """Each worker's clocks run as the rows of one grid, merged across workers.

    Row ``r`` of a worker's grid is the stream of its ``r``-th clock
    (``mapping == w``, ascending id); a pass draws the same number of
    pipeline samples for every row, cumulative-sums each row from the
    clock's current time and cuts it at the horizon.  The first pass is
    sized to the ticks a clock needs to pass the horizon at ``pace``, plus a
    margin (:func:`_ticks_to_pass`), so at the expected pace a row almost
    always ends in it.  A row that has not passed the horizon by the end of
    a pass goes on in the next pass from its advanced state; that pass is
    sized to what the earliest live row still needs at its pace so far.  A
    worker's rows are taken in batches of at most ``MAX_PASS_CELLS``
    samples a pass; the window, if any, draws its own multiple of that in
    batches of the same bound.  A stream's samples do not depend on how
    many are asked for, so the pass sizes change no bit of the result.
    """
    mapping = np.asarray(cfg.mapping)
    width = _ticks_to_pass(cfg.horizon, pace, MAX_PASS_CELLS)
    batch = max(1, MAX_PASS_CELLS // width)
    parts = ([], [], [])  # times, marks, draw counts
    total = 0
    for w in range(cfg.workers):
        clocks = np.flatnonzero(mapping == w)
        for lo in range(0, clocks.size, batch):
            total += _clock_grid(cfg, clocks[lo:lo + batch], width, *parts)
    return _merge_arrays(*parts, n_clocks=cfg.n_clocks, total_draws=total)


def _clock_grid(cfg: ParallelConfig, clocks: np.ndarray, width: int,
                parts_t: list, parts_m: list, parts_d: list) -> int:
    """Draw ``clocks`` as grid rows, ``width`` samples a row in the first
    pass, append each pass's (times, marks, draw counts), flattened row by
    row, to the three lists, and return the raw draws the rows consumed."""
    rows = substream_rows(cfg.seed, clock_stream(clocks))
    now = np.zeros(clocks.size)
    consumed = 0
    done = 0  # ticks each live row has taken
    while True:
        samples, at_draw, _, _ = pipeline_block(
            cfg.fault, cfg.transform, cfg.fix_window, rows, width
        )
        times = np.negative(np.log(samples, out=samples), out=samples)  # the gaps
        times[:, 0] += now
        np.cumsum(times, axis=1, out=times)
        ticks = np.count_nonzero(times <= cfg.horizon, axis=1)
        kept = np.arange(width) < ticks[:, None]
        parts_t.append(times[kept])
        parts_m.append(np.repeat(clocks, ticks))
        parts_d.append(at_draw[kept])
        alive = ticks == width  # no tick of these rows passed the horizon yet
        consumed += int(at_draw[~alive, ticks[~alive]].sum())
        if not alive.any():
            return consumed
        rows = rows.take(alive).advanced(at_draw[alive, -1] - rows.draw_count[alive])
        clocks, now, done = clocks[alive], times[alive, -1], done + width
        lo = now.min()  # the earliest live row needs the most ticks at its pace
        width = _ticks_to_pass(cfg.horizon - lo, done / lo, MAX_PASS_CELLS // clocks.size)


def _simulate_per_worker(cfg: ParallelConfig, pace: float) -> Trajectory:
    """Each worker's live clocks take one tick each per round, ascending id.

    While the set of live clocks stays the same, a worker's draws form a
    (rounds x live clocks) matrix: each column, summed from that clock's
    current time, gives its tick times.  An epoch is cut at the first round
    in which some clock passes the horizon (every live clock still draws in
    that round); the next epoch repeats with the clocks still alive, from
    the sample after the cut.

    A worker's pipeline samples sit in one buffer that the epochs read in
    order; an epoch reads the rounds the buffer holds, up to ``horizon -
    latest clock time + 8``.  When not one round is left, the unread rest
    is kept and one ``pipeline_block`` call goes on from the stream state
    after the last buffered sample, sized to the rounds the earliest live
    clock still needs at its pace so far, plus 8 (at ``pace`` for the first
    fill), so a worker usually draws once or twice.  A refill costs little,
    so this margin is smaller than the five-sigma one of the serial and
    per-clock passes (:func:`_ticks_to_pass`).  A stream's samples do not
    depend on how many are asked for, and a round-by-round sum does not
    depend on where the epochs split it, so the buffer changes no bit of
    the result.  The buffer holds about ``MAX_PASS_CELLS`` pipeline
    samples, window draws included, at most (one round when a round alone
    is more).
    """
    parts_t, parts_m, parts_d = [], [], []
    mapping = np.asarray(cfg.mapping)
    budget = int(MAX_PASS_CELLS / _draws_per_sample(cfg.fix_window))
    total = 0
    for w in range(cfg.workers):
        clocks = np.flatnonzero(mapping == w)
        gs = substream(cfg.seed, worker_stream(w))  # the state after the buffer's end
        gaps, at = np.empty(0), np.empty(0, dtype=np.int64)  # -log(sample), draw count
        pos = 0  # the first unread sample
        now = np.zeros(clocks.size)
        used = 0  # raw draws up to the last sample an epoch used
        done = 0  # rounds taken so far, the ticks of each live clock
        while clocks.size:
            k = clocks.size
            if gaps.size - pos < k:  # not one round left
                # the rounds the earliest live clock needs at its pace so far
                lo = now.min()
                left = (cfg.horizon - lo) * (done / lo if done else pace)
                want = max(k, min((int(left) + 8) * k, budget))
                samples, at_draw, _, _ = pipeline_block(
                    cfg.fault, cfg.transform, cfg.fix_window, gs, want - (gaps.size - pos)
                )
                np.negative(np.log(samples, out=samples), out=samples)
                if pos < gaps.size:
                    samples = np.concatenate((gaps[pos:], samples))
                    at_draw = np.concatenate((at[pos:], at_draw))
                gaps, at, pos = samples, at_draw, 0
                gs = gs.advanced(int(at[-1]) - gs.draw_count)
            rounds = min(int(cfg.horizon - now.max()) + 8, (gaps.size - pos) // k)
            epoch = gaps[pos:pos + rounds * k].reshape(rounds, k)
            times = np.cumsum(np.vstack([now, epoch]), axis=0)[1:]
            passed = (times > cfg.horizon).any(axis=1)
            cut = int(passed.argmax()) + 1 if passed.any() else rounds
            times, draws = times[:cut], at[pos:pos + cut * k].reshape(cut, k)
            alive = times[-1] <= cfg.horizon
            kept = cut - 1 + alive  # ticks per clock in this epoch
            ticked = (np.arange(cut)[:, None] < kept).T  # clock by clock
            parts_t.append(times.T[ticked])
            parts_m.append(np.repeat(clocks, kept))
            parts_d.append(draws.T[ticked])
            used = int(draws[-1, -1])
            pos += cut * k
            done += cut
            clocks, now = clocks[alive], times[-1, alive]
        total += used
    return _merge_arrays(parts_t, parts_m, parts_d, n_clocks=cfg.n_clocks, total_draws=total)


# --------------------------------------------------------------------------
# merging


def _merge_arrays(
    parts_t: list[np.ndarray],
    parts_m: list[np.ndarray],
    parts_d: list[np.ndarray],
    *,
    n_clocks: int,
    total_draws: int,
) -> Trajectory:
    """Time-sorted merge, ties broken by ascending mark.

    A part may hold several clocks; each clock's events must come in the
    order they were emitted, in one part or across parts in order.  The
    result is in the order of ``np.lexsort((position, marks, times))`` over
    the joined parts.  The three lists are emptied as their columns are
    built, and the columns are put in time order one at a time, so the
    parts, their concatenation and the merged result are never all held at
    once.

    The order comes from one in-place sort of packed ``uint64`` keys: a
    time's float64 bits with the low ``ceil(log2 n)`` bits replaced by the
    event's position among the ``n`` joined events.  Times are >= 0: the
    bits of non-negative floats sort as the floats do (a negative time's
    sign bit would sort it after every positive one), so the keys sort by
    time up to those low bits, then by position.  Masking the high bits
    off the sorted keys leaves the positions in the same buffer.  Events
    whose times share their high bits (equal times, or times a few ulps
    apart) form runs of adjacent keys, and each run is then reordered by
    exact (time, mark, position).
    """
    if not all(map(_clocks_in_order, parts_t, parts_m)):
        raise RuntimeError("internal error: unsorted per-clock event list")
    times = _join(parts_t, np.float64)
    marks = _join(parts_m, np.int64)
    low = max(times.size - 1, 0).bit_length()  # bits that hold a position
    mask = (1 << low) - 1
    keys = times.view(np.uint64) & np.uint64(MASK64 ^ mask)
    keys |= np.arange(times.size, dtype=np.uint64)
    keys.sort()
    high = keys >> np.uint64(low)
    shared = np.flatnonzero(high[1:] == high[:-1])  # key i shares its high bits with key i + 1
    del high
    keys &= np.uint64(mask)
    order = keys.view(np.int64)
    if shared.size:
        # every key of a run of shared high bits, in order; a run is
        # contiguous and times rise from one run to the next, so sorting the
        # gathered keys by exact (time, mark, position) reorders each run
        run = np.unique(np.concatenate((shared, shared + 1)))
        at = order[run]
        order[run] = at[np.lexsort((at, marks[at], times[at]))]
    ordered = times[order]
    del times
    marks = marks[order]
    draws = _join(parts_d, np.int64)[order]
    return Trajectory(
        times=ordered,
        marks=marks,
        draw_indices=draws,
        total_draws=total_draws,
        n_clocks=n_clocks,
    )


def _clocks_in_order(t: np.ndarray, m: np.ndarray) -> bool:
    """Whether time goes back in part ``t`` only where the part passes from
    one clock to the next."""
    down = np.flatnonzero(t[1:] < t[:-1])
    return not np.any(m[down] == m[down + 1])


def _join(parts: list[np.ndarray], dtype) -> np.ndarray:
    """The parts end to end (an empty ``dtype`` array for none), and
    ``parts`` emptied: a lone contiguous part is returned without a copy."""
    if len(parts) == 1:
        joined = np.ascontiguousarray(parts[0])
    else:
        joined = np.concatenate(parts) if parts else np.empty(0, dtype=dtype)
    parts.clear()
    return joined


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
    u, _ = unit_block(substream(seed, MAPPING_STREAM), n_clocks - 1)
    bound = np.arange(n_clocks, 1, -1)  # i + 1 for i = N-1 down to 1, one uniform each
    swaps = np.minimum((u * bound).astype(np.int64), bound - 1)
    perm = list(range(n_clocks))
    for i, j in zip(range(n_clocks - 1, 0, -1), swaps.tolist()):
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
