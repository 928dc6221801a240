"""Marked Poisson-clock simulation, run two distributionally identical ways.

The *serial* run drives one merged clock of rate N from a single sample
stream: each event costs two pipeline draws (one exponential time increment
at rate N, one uniform mark pick).  The *parallel* run hosts the N rate-1
clocks on workers and merges the workers' event lists afterwards.  In
per-clock stream mode each clock owns a stream, and a worker draws all of
its clocks at once as the rows of one grid: the mapping decides which grid
a clock is drawn in, not its numbers, so every worker count and mapping
must give the same bits.  In per-worker mode each worker owns a stream that
its clocks share round-robin.
Superposition makes the two processes the same in law whenever the sample
source is actually uniform — so any statistical daylight between them is
evidence against the source, and that asymmetry (two draws per serial event
versus one per parallel tick) is exactly what makes a biased source damage
the two sides differently.

Draws pass through a three-stage pipeline: fault model (the injected
defect), optional measure-preserving transform, optional window
rejection-rescale repair.  ``pipeline_block`` is the one implementation of
that pipeline, in numpy blocks of one stream or of a grid of streams, one
per row; every simulator and detector stage draws through it.  A window
keeps only the draws that land inside it, so each row draws in passes, each
from the state the last one ended at, and appends what every pass keeps: the
first sized for 1.5 / width draws a sample, later ones for the acceptance the
row has shown, each with a five-sigma margin (Poisson for the first, the
negative-binomial spread of the draws a short row still needs for later
ones), and no pass holds more than ``MAX_PASS_CELLS`` draws in all, a
single row's included.  The grid of each sample's draw count is built only
for the callers that read it: the simulators' thinning and window passes.
The A/B and fix tiles read only each row's count after its last sample,
and the simulators' passes of one raw draw a sample count each kept event's
draws from its row's start and its column.

The serial, per-clock and per-worker runs are one loop, ``_run_to_horizon``,
over stream rows, each a row of clock lanes that tick one sample each per
round, marked with the clock's id: a per-clock grid is a row per clock with
one lane, a worker's stream one row with a lane per clock, and the serial
sweep one rate-N row whose tick is two samples, the second picking the
mark.  The loop draws its rows in passes sized to the ticks left to the
horizon, a pass in tiles (``_pass_tiles``): when every sample is one raw
draw (no thinning, no window), a tile is about ``TILE_CELLS`` cells, a
stretch of columns of the rows that have not yet passed the horizon, taken
from generator words to kept events while it is in cache.  Any other pass
is one tile.  Every simulator writes its kept events into one set of
columns (``_Events``), which the parallel merge then sorts.  The tests keep
a one-draw-at-a-time twin of the pipeline and the simulators as an oracle
and require bit-identical results.

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
    TILE_CELLS,
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
_MAX_CLOCKS = (1 << 31) - 1  # a mark is an int32 clock id
_MIN_ACCEPTANCE = 1e-4  # window acceptance odds below this are not supported


@dataclass(frozen=True)
class Trajectory:
    """A time-sorted event record plus draw accounting.

    ``times``/``marks``/``draw_indices`` are parallel arrays: float64, int32
    and int64, 20 bytes an event.  ``total_draws`` counts every raw draw the
    run consumed, including draws behind suppressed events and rejection
    retries, so it generally exceeds the draws visible in ``draw_indices``.
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
    if n_clocks > _MAX_CLOCKS:
        raise ValueError(f"n_clocks must be <= {_MAX_CLOCKS} (2^31 - 1, marks are int32), "
                         f"got {n_clocks}")
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
    gs: GeneratorState | RowStates,
    n: int,
    grid: bool = True,
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

    As with :func:`~clockcheck.rng.fault_block`, only a caller that reads a
    draw count per sample asks for that grid: with ``grid=False``,
    ``at_draw`` is each row's draw count after its ``n``-th sample (for a
    single stream an ``int``), and neither this function nor the fault
    model builds a grid it does not need.  The simulators' thinning and
    window passes read the grid; the A/B and fix tiles and the simulators'
    passes of one raw draw a sample do not.

    With a window, each row draws on in passes from the state its last pass
    ended at and appends the samples each pass keeps.  The first pass asks
    for ``n`` samples at 1.5 / width draws each, plus five Poisson standard
    deviations and 32 (:func:`_ticks_to_pass`); a row still short asks for
    what it lacks at the acceptance it has shown, plus five of the
    negative-binomial standard deviations of the draws that takes and 32
    (:func:`_window_pass`); a row that has kept nothing doubles its draws.
    A pass holds at most ``MAX_PASS_CELLS`` draws in all, a single row's
    too, so the memory is bounded whatever the window's width.  A stream's
    samples do not depend on how many are asked for, and the rejections of
    the passes add up, so the passes change no bit and no count.

    A window the pipeline lands in with odds below 1e-4 (one aimed where a
    transform moved the mass away, or one only 1e-7 wide) is not supported:
    it raises once a row still short has made ``_STARVATION_DRAWS`` pipeline
    draws, instead of drawing on until its stream runs out.
    """
    rows, single = as_rows(gs)
    out = _pipeline_rows(fault, transform, window, rows, n, grid)
    return one_row(out) if single else out


def _pipeline_rows(fault, transform, window, rows: RowStates, n: int, grid: bool = True):
    """:func:`pipeline_block` on a grid of rows.  Its window passes ask the
    fault model for a draw-count grid only under thinning, whose counts
    they read (each kept sample's, and the one at a row's ``n``-th sample
    for its rejections); under any other fault, draw ``j`` of a pass is the
    row's count before the pass plus ``j + 1``.  The kept samples' grid is
    built only with ``grid``; without it, each row's count after its
    ``n``-th sample is returned instead."""
    if window is None:
        samples, at_draw, _, rejected = fault_block(fault, rows, n, grid=grid)
        if transform is not None:
            samples = transform_block(transform, samples)
        return samples, at_draw, rejected, np.zeros(len(rows), dtype=np.int64)
    # The window's passes (see pipeline_block): a pass asks each of its rows
    # for the same m pipeline draws, in batches of at most MAX_PASS_CELLS
    # draws in all, and a row goes on from its state and its counts.
    thinning = isinstance(fault, LowThinning)
    y = np.empty((len(rows), n), dtype=np.float64)
    kept_at = np.empty((len(rows), n), dtype=np.int64) if grid else None
    last = rows.draw_count.copy()  # the draw count after a row's n-th sample
    got = np.zeros(len(rows), dtype=np.int64)  # samples kept so far
    drawn = np.zeros(len(rows), dtype=np.int64)  # pipeline draws, up to the n-th kept at the end
    fault_rejected = np.zeros(len(rows), dtype=np.int64)
    state, count = rows.state.copy(), rows.draw_count.copy()
    todo = np.arange(len(rows)) if n else np.empty(0, dtype=np.int64)
    m = _ticks_to_pass(n, _draws_per_sample(window), MAX_PASS_CELLS)
    while todo.size:
        batch = max(1, MAX_PASS_CELLS // m)
        short = []
        for lo in range(0, todo.size, batch):
            part = todo[lo:lo + batch]
            samples, at_draw, new, _ = fault_block(fault, RowStates(state[part], count[part]), m,
                                                   grid=thinning)
            below = samples < fault.c if thinning else None
            if transform is not None:
                samples = transform_block(transform, samples)
            inside = (samples > window.a) & (samples < window.b)
            need = n - got[part]
            if part.size == 1:  # one row: its kept draws, cut at its need, by slice
                r = part[0]
                flat = np.flatnonzero(inside[0])[:need[0]]
                del inside
                kept = ends = np.array([flat.size])
                lo, hi = got[r], got[r] + flat.size
                # mode "clip" clips nothing here and, unlike "raise", writes unbuffered
                values = np.take(samples[0], flat, out=y[r, lo:hi], mode="clip")
                values -= window.a
                values /= window.width
                if grid:
                    kept_at[r, lo:hi] = at_draw[0, flat] if thinning else flat + (count[r] + 1)
            else:
                rank = np.cumsum(inside, axis=1, dtype=np.int32)
                kept = np.minimum(rank[:, -1], need)
                inside &= rank <= need[:, None]  # each row's first `need` inside
                del rank
                # the kept draws in row-major order, and each one's cell in y
                flat = np.flatnonzero(inside)
                del inside
                ends = np.cumsum(kept)
                at = np.repeat(part * n + got[part] - ends + kept, kept)
                at += np.arange(flat.size)
                values = samples.ravel()[flat]
                values -= window.a
                values /= window.width
                y.ravel()[at] = values
                if grid:
                    kept_at.ravel()[at] = (at_draw.ravel()[flat] if thinning else flat + np.repeat(
                        count[part] + 1 - np.arange(part.size) * m, kept))
            ok = kept == need
            taken = np.full(part.size, m, dtype=np.int64)  # a finished row's draws to its n-th
            taken[ok] = flat[ends[ok] - 1] - np.flatnonzero(ok) * m + 1
            if thinning:  # one row counts by slice, to its n-th sample or its pass's end
                fault_rejected[part] += (
                    fault_rejections(at_draw[:, :taken[0]], below[:, :taken[0]], count[part])
                    if part.size == 1 else
                    fault_rejections(at_draw, below, count[part], upto=taken))
                last[part[ok]] = at_draw[ok, taken[ok] - 1]
            else:
                last[part[ok]] = count[part[ok]] + taken[ok]
            got[part] += kept
            drawn[part] += taken
            state[part], count[part] = new.state, new.draw_count
            left = part[~ok]
            starved = left[(drawn[left] >= _STARVATION_DRAWS)
                           & (got[left] < _MIN_ACCEPTANCE * drawn[left])]
            if starved.size:
                r = starved[0]
                raise RuntimeError(
                    f"window ({window.a}, {window.b}) accepted {got[r]} of {drawn[r]} "
                    "pipeline draws: the pipeline never lands inside it, or with odds "
                    f"below {_MIN_ACCEPTANCE:g}, which is not supported"
                )
            short.append(left)
        todo = np.concatenate(short)
        if todo.size:
            m = _window_pass(n - got[todo], got[todo], drawn[todo])
    y[y >= 1.0] = _SNAP_BELOW_ONE
    y[y <= 0.0] = _TINY
    return y, last if kept_at is None else kept_at, fault_rejected, drawn - n


def _window_pass(need: np.ndarray, got: np.ndarray, drawn: np.ndarray) -> int:
    """Pipeline draws the next window pass asks of each short row: the most
    that a row needs for the ``need`` samples it lacks at the acceptance
    ``p`` it has shown (``got`` kept of ``drawn``), ``need / p``, plus five
    standard deviations of that negative-binomial count, ``sqrt(need (1 -
    p)) / p``, and 32; a row that has kept nothing doubles its draws.  At
    least 1, at most ``MAX_PASS_CELLS``."""
    shown = got > 0
    m = 1 if shown.all() else min(int(drawn[~shown].max()), MAX_PASS_CELLS)
    if shown.any():
        k, p = need[shown], got[shown] / drawn[shown]
        draws = float(((k + 5.0 * np.sqrt(k * (1.0 - p))) / p).max()) + 32.0
        m = max(m, int(min(draws, MAX_PASS_CELLS)))
    return m


def _draws_per_sample(window: Optional[RescaleWindow]) -> float:
    """Pipeline draws a stream first takes per sample its window keeps: its
    first window pass asks for this many per sample, plus a margin."""
    return 1.0 if window is None else 1.5 / max(window.width, 1e-3)


def _pass_cap(window: Optional[RescaleWindow]) -> int:
    """Pipeline samples one pass of rows may ask for in all: ``MAX_PASS_CELLS``
    draws, with a window's first draws per kept sample counted."""
    return int(MAX_PASS_CELLS / _draws_per_sample(window))


def _ticks_to_pass(left: float, pace: float, cap: int) -> int:
    """Ticks that carry a clock ``left`` more time at ``pace`` ticks per unit
    time, plus five Poisson standard deviations and 32: the size of a pass
    that takes the clock past the horizon in all but rare cases.  At least
    1, at most ``cap`` (or 1 when ``cap`` is below 1)."""
    mean = left * pace
    return max(1, int(min(mean + 5.0 * math.sqrt(mean) + 32.0, cap)))


def _per_draw(fault: FaultModel, window: Optional[RescaleWindow]) -> bool:
    """Whether every pipeline sample is one raw draw (no thinning, no window)."""
    return window is None and not isinstance(fault, LowThinning)


def _pass_tiles(fault, transform, window, rows: RowStates, n: int, alive: np.ndarray,
                align: int = 1):
    """A pass of ``n`` pipeline samples per row, as tiles that each hold a
    stretch of columns of the live rows: yields ``(live, samples,
    at_draw)``, :func:`pipeline_block`'s samples and draw counts for the
    rows ``live`` lists.  Those are the rows still set in ``alive``, which
    the caller clears as its rows finish; the pass ends when no row is left.

    When every sample is one raw draw (:func:`_per_draw`), a tile is a block
    of about ``TILE_CELLS`` cells (columns a multiple of ``align``, but the
    last), and its column ``j`` is sample ``c + j`` of a row: the pipeline
    from the row's state ``c`` draws on.  Such a tile comes without a grid:
    ``at_draw`` holds each row's draw count after the tile, and sample ``j``
    of a tile of ``w`` columns is draw ``at_draw - w + j + 1``.  Any other
    pass is one tile, with the grid.  The caller may overwrite a tile.
    """
    per_draw = _per_draw(fault, window)
    c = 0
    while c < n:
        live = np.flatnonzero(alive)
        if not live.size:
            return
        w = min(n - c, max(align, TILE_CELLS // live.size // align * align)) if per_draw else n
        samples, at_draw, _, _ = pipeline_block(fault, transform, window,
                                                rows.take(live).advanced(c), w,
                                                grid=not per_draw)
        yield live, samples, at_draw
        c += w


class _Events:
    """The time, mark and draw-count columns (float64, int32, int64) that a
    simulator writes its kept events into, end to end.  Room is made ahead
    for the events a run expects; a write that overflows it grows the
    columns by a quarter more.  :meth:`take` cuts the columns to the events
    written, in place."""

    def __init__(self) -> None:
        self.size = 0
        self.columns = (np.empty(0), np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int64))

    def reserve(self, events: int) -> None:
        """Room for ``events`` more, in new columns that the events written
        so far are copied into.  numpy hints huge pages only for an array of
        4 MiB or more: a 512,738-event time column is 3.91 MiB, so only the
        columns of larger banks get them."""
        if self.size + events > self.columns[0].size:
            columns = tuple(np.empty(self.size + events, dtype=c.dtype) for c in self.columns)
            for new, old in zip(columns, self.columns):
                new[:self.size] = old[:self.size]
            self.columns = columns

    def put(self, times: np.ndarray, marks, draws) -> None:
        if self.size + times.size > self.columns[0].size:
            self.reserve(times.size + self.size // 4)
        lo, self.size = self.size, self.size + times.size
        for column, values in zip(self.columns, (times, marks, draws)):
            column[lo:self.size] = values

    def take(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The three columns, cut to the events written; the buffer lets go of them."""
        columns, self.columns = self.columns, ()
        for column in columns:
            column.resize(self.size, refcheck=False)
        return columns


# --------------------------------------------------------------------------
# simulators


def simulate_serial(cfg: SerialConfig) -> Trajectory:
    """Run the merged clock to the horizon: the one-row, rate-N case of
    :func:`_run_to_horizon`.

    Each event consumes two pipeline draws: u1 sets the time increment
    ``-log(u1) / N``, u2 sets the mark ``min(floor(u2*N), N-1)``.  The run
    stops at the first event whose time would exceed the horizon (that
    event's u1 is consumed, its u2 is not).  Its first pass is sized for one
    event per clock per unit time, and the event columns are reserved for
    it.
    """
    n = cfg.n_clocks
    events = _Events()
    events.reserve(_ticks_to_pass(cfg.horizon, n, _pass_cap(cfg.fix_window) // 2))
    total = _run_to_horizon(cfg, substream_rows(cfg.seed, [SERIAL_STREAM]), None, n, events)
    return Trajectory(*events.take(), total_draws=total, n_clocks=n)


def simulate_parallel(cfg: ParallelConfig, memo: dict, pace: float) -> Trajectory:
    """Run N independent rate-1 clocks and merge their event lists.

    ``memo`` is a dict from configs to the trajectories returned for them,
    kept by the caller: a config equal to one in it is not run again, and a
    new one is run and stored.  ``pace``, the ticks per clock per unit time
    the run is expected to show, sizes the first pass of draws and the event
    columns; later passes use the pace the run has shown.  It changes no bit
    of the result and is no part of the memo key.
    """
    traj = memo.get(cfg)
    if traj is None:
        traj = memo[cfg] = _simulate_bank(cfg, pace)
    return traj


def _simulate_bank(cfg: ParallelConfig, pace: float) -> Trajectory:
    """Each worker's clocks (``mapping == w``, ascending id) run through
    :func:`_run_to_horizon`, merged across workers: in per-clock mode as
    rows of one lane, in batches of at most :func:`_pass_cap` samples a pass
    at ``pace``, in per-worker mode as the lanes of the worker's row.  The
    event columns are reserved once for the whole bank.
    """
    mapping = np.asarray(cfg.mapping)
    per_worker = cfg.stream_mode is StreamMode.PER_WORKER
    streams = substream_rows(cfg.seed, worker_stream(np.arange(cfg.workers)) if per_worker
                             else clock_stream(np.arange(cfg.n_clocks)))
    cap = _pass_cap(cfg.fix_window)
    width = _ticks_to_pass(cfg.horizon, pace, cap)
    batch = max(1, cap // width)
    events = _Events()  # room for the bank's events at pace, plus a margin
    events.reserve(_ticks_to_pass(cfg.horizon, cfg.n_clocks * pace, cfg.n_clocks * width))
    total = 0
    for w in range(cfg.workers):
        clocks = np.flatnonzero(mapping == w).astype(np.int32)  # the marks of its events
        per_grid = clocks.size if per_worker else batch
        for lo in range(0, clocks.size, per_grid or 1):
            part = clocks[lo:lo + per_grid]
            rows, lanes = ((streams.take([w]), part[None]) if per_worker
                           else (streams.take(part), part[:, None]))
            total += _run_to_horizon(cfg, rows, lanes, pace, events)
    return _merge_arrays(events, n_clocks=cfg.n_clocks, total_draws=total)


def _run_to_horizon(cfg, rows: RowStates, lanes: Optional[np.ndarray], pace: float,
                    events: _Events) -> int:
    """Run each of ``rows`` to the horizon, write its kept events into
    ``events`` and return the raw draws the rows consumed.

    ``lanes`` is a grid of clock ids, a row of it per stream row: one lane a
    row (a per-clock grid), or one row (a worker's stream).  A row's lanes
    take a tick each per round, ascending id: one pipeline sample ``u``, its
    gap ``-log(u)`` and its mark the lane's clock id; a lane leaves its row
    in the round that takes it past the horizon (:func:`_epochs`).  Without
    ``lanes``, the one row is the serial sweep's merged clock of rate N =
    ``cfg.n_clocks``: a tick is a pair ``(u1, u2)``, its gap ``-log(u1) /
    N`` and its mark ``min(floor(u2*N), N-1)``.  A kept event's draw count
    is the draw after its tick's last sample; a row's consumed draws end
    after the time sample of its last tick past the horizon, whose mark
    sample, if any, is not drawn.

    The rounds come in passes, the same number for every live row, sized to
    the lane ticks the earliest live row still needs, plus a margin
    (:func:`_ticks_to_pass`), in whole rounds: at ``pace`` ticks a lane per
    unit time for the first pass, at the pace shown so far for later ones,
    of at most :func:`_pass_cap` samples in all.  A pass comes in
    tiles of whole rounds (:func:`_pass_tiles`); each tile's times are
    summed on from the last tile's, its kept events go clock by clock into
    ``events``, and a row leaves the tiles once it has passed the horizon.
    A row left at the end of a pass (for a row of lanes, at the first tile
    with no whole round left for them) goes on in the next from the sample
    after its last one read, and ``events`` is first given room for all
    that pass can write; the caller reserves for the first.  A stream's
    samples do not depend on how many are asked for, so the pass sizes
    change no bit of the result.
    """
    n, horizon = cfg.n_clocks, cfg.horizon
    step = 2 if lanes is None else 1  # samples a lane's tick
    now = np.zeros((len(rows), 1 if lanes is None else lanes.shape[1]))  # each lane's time
    consumed = done = 0  # done: the ticks each live lane has taken
    lo, rate = 0.0, pace  # the earliest row's mean lane time, the ticks a lane took per unit of it
    while True:
        k = now.shape[1]
        cap = _pass_cap(cfg.fix_window) // (step * k * len(rows))
        width = -(-_ticks_to_pass(horizon - lo, k * rate, k * cap) // k)
        if done:
            events.reserve(len(rows) * k * width)
        alive = np.ones(len(rows), dtype=bool)  # rows that have not passed the horizon
        for live, samples, at_draw in _pass_tiles(cfg.fault, cfg.transform, cfg.fix_window,
                                                  rows, step * k * width, alive, step * k):
            w = samples.shape[1]
            grid = at_draw.ndim == 2  # else each row's count after the tile (_pass_tiles)
            if now.shape[1] > 1:  # one row of lanes
                row = at_draw[0] if grid else np.arange(at_draw[0] - w + 1, at_draw[0] + 1)
                read, ticks, times, lanes = _epochs(samples[0], row, now[0], lanes[0],
                                                    horizon, events)
                now, lanes, done = times[None], lanes[None], done + ticks
                if not lanes.size:
                    consumed += int(row[read - 1])
                    alive[0] = False
                elif read < w:  # no whole round left: the row goes on next pass
                    at_draw = row[None, :read]
                    break
                continue
            if lanes is not None:
                gaps = np.negative(np.log(samples, out=samples), out=samples)
            else:  # into a new array: log in place over a stride-2 view is twice as slow
                gaps = np.log(samples[:, 0::2])
                gaps /= -n
            gaps[:, 0] += now[live, 0]
            times = np.cumsum(gaps, axis=1, out=gaps)
            now[live, 0] = times[:, -1]
            done += times.shape[1]
            # the draw count after each tick's last sample
            marked = (at_draw[:, step - 1::step] if grid
                      else (at_draw - w)[:, None] + np.arange(step, w + 1, step))
            out = np.flatnonzero(times[:, -1] > horizon)  # rows past the horizon
            ticks, kept = times.shape[1], slice(None)  # all, but for rows past the horizon
            if out.size:
                kept = times <= horizon
                ticks = np.count_nonzero(kept, axis=1)
                # to its time sample
                consumed += int(at_draw[out, step * ticks[out]].sum() if grid
                                else (at_draw[out] - w + step * ticks[out] + 1).sum())
                alive[live[out]] = False
                kept = kept.ravel()
            # made in column order: a tile's marks made before its times left
            # the heap without a hole for the merge's arrays in some runs
            events.put(times.ravel()[kept],
                       np.repeat(lanes[live, 0], ticks) if lanes is not None
                       else np.minimum((samples[:, 1::2] * n).astype(np.int32), n - 1).ravel()[kept],
                       marked.ravel()[kept])
        if not alive.any():
            return consumed
        # the last tile holds every row still alive, at the end of its pass
        end = at_draw[alive[live], -1] if at_draw.ndim == 2 else at_draw[alive[live]]
        rows = rows.take(alive).advanced(end - rows.draw_count[alive])
        now = now[alive]
        if lanes is not None:
            lanes = lanes[alive]
        lo = now.mean(axis=1).min()  # the earliest live row needs the most ticks at its pace
        rate = done / lo


def _epochs(gaps: np.ndarray, at_draw: np.ndarray, now: np.ndarray, lanes: np.ndarray,
            horizon: float, events: _Events):
    """Read a tile of a row of lanes in epochs of whole rounds, each a (rounds
    x lanes) block whose columns, made ``-log(u)`` in place and summed from
    the lanes' times ``now``, give their tick times.  An epoch ends at the
    first round in which some lane passes the horizon, after at most
    ``horizon - latest lane time + 8`` rounds, or at the tile's last whole
    round; the lanes left go on from the next sample.  Its kept events go
    into ``events`` lane by lane, side by side for the merge's order check.
    Returns the samples read, the rounds the live lanes took, and their
    times and clock ids.
    """
    np.negative(np.log(gaps, out=gaps), out=gaps)
    read = ticks = 0
    while lanes.size:
        k = lanes.size
        rounds = min(int(horizon - now.max()) + 8, (gaps.size - read) // k)
        if not rounds:
            break
        times = gaps[read:read + rounds * k].reshape(rounds, k).copy()
        times[0] += now
        np.cumsum(times, axis=0, out=times)
        # the first round whose latest lane is past the horizon: a lane's times only rise
        cut = min(int(np.searchsorted(times.max(axis=1), horizon, side="right")) + 1, rounds)
        times, draws = times[:cut], at_draw[read:read + cut * k].reshape(cut, k)
        alive = times[-1] <= horizon
        kept = cut - 1 + alive  # ticks per lane in this epoch
        ticked = np.arange(cut) < kept[:, None]  # lane by lane
        events.put(times.T[ticked], np.repeat(lanes, kept), draws.T[ticked])
        read += cut * k
        ticks += cut
        lanes, now = lanes[alive], times[-1, alive]
    return read, ticks, now, lanes


# --------------------------------------------------------------------------
# merging


def _merge_arrays(events: _Events, *, n_clocks: int, total_draws: int) -> Trajectory:
    """The events' time-sorted merge, ties broken by ascending mark.

    The columns hold the events of many clocks; each clock's events must
    come in the order they were emitted.  The result is in the order of
    ``np.lexsort((position, marks, times))`` over the columns.  ``events``
    lets go of its columns, and they are put in time order one at a time:
    the times into a new column, the draw counts into the times' old
    buffer, then the marks into a new int32 column, so the merge allocates
    one new 8-byte column where it would otherwise need three.

    The order comes from one in-place sort of packed ``uint64`` keys: a
    time's float64 bits with the low ``ceil(log2 n)`` bits replaced by the
    event's position among the ``n`` events.  Times are >= 0: the
    bits of non-negative floats sort as the floats do (a negative time's
    sign bit would sort it after every positive one), so the keys sort by
    time up to those low bits, then by position.  Masking the high bits
    off the sorted keys leaves the positions in the same buffer.  Events
    whose times share their high bits (equal times, or times a few ulps
    apart) form runs of adjacent keys, and each run is then reordered by
    exact (time, mark, position).
    """
    times, marks, draws = events.take()
    down = np.flatnonzero(times[1:] < times[:-1])  # time may go back only between clocks
    if np.any(marks[down] == marks[down + 1]):
        raise RuntimeError("internal error: unsorted per-clock event list")
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
    # order holds exactly the positions 0..n-1, so mode "clip" clips none;
    # unlike "raise", it does not buffer the output
    ordered = np.take(times, order, mode="clip")
    draws = np.take(draws, order, out=times.view(np.int64), mode="clip")
    del times
    marks = np.take(marks, order, mode="clip")
    return Trajectory(
        times=ordered,
        marks=marks,
        draw_indices=draws,
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


def make_mapping(kind: str, n_clocks: int, workers: int, seed: int) -> tuple[int, ...]:
    if kind == "blocks":
        return block_mapping(n_clocks, workers)
    if kind == "round_robin":
        return round_robin_mapping(n_clocks, workers)
    if kind == "shuffle":
        return shuffle_mapping(n_clocks, workers, seed)
    raise ValueError(f"unknown mapping name: {kind!r} (expected one of {MAPPING_KINDS})")
