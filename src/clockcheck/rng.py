"""Deterministic unit-interval sample source with injectable defects.

The generator is a 64-bit Weyl-sequence scrambler: the state advances by a
fixed odd increment and each output word is produced by a xor/multiply
cascade over the advanced state.  Because the state after ``k`` draws is
``state0 + k * GOLDEN (mod 2**64)``, any stretch of a stream can be
generated from its starting state alone: ``unit_block`` makes it in one
vectorised call, bit-identical to stepping one word at a time (the tests
keep that one-draw form as an oracle), and a block consumer can stop
anywhere and resume from the advanced state.  A stream's starting state is
likewise a pure function of ``(seed, stream_id)``.  The block functions take
one :class:`GeneratorState` or :class:`RowStates`, a grid with one stream
per row; the single stream is the one-row case of the same kernel, and each
row equals the single-stream call from its own state.

The kernel makes a block in tiles of about ``TILE_CELLS`` = 2**15 cells
(counter-based generation, as in Salmon et al., "Parallel Random Numbers: As
Easy as 1, 2, 3", SC 2011: word ``k`` of a row depends on the row's state
and ``k`` alone).  A tile is a run of whole rows, or an even stretch of one
longer row; its Weyl add, scrambler, lattice map and the two lattice snaps
run in one scratch buffer and the output tile, which stay in cache.  A
block that fits in one tile runs the loop once; the tiles change no bit.

Streams are keyed by ``(seed, stream_id)``.  The id layout is fixed:

* id ``0``                 -- the serial (merged-clock) stream,
* ids ``1 .. N``           -- one stream per clock in per-clock mode,
* ids ``10**6 + w``        -- one stream per worker in per-worker mode,
* id ``2 * 10**6``         -- reserved for the shuffle mapping generator.

Unit samples are drawn on the half-offset 53-bit lattice
``u = ((word >> 11) + 0.5) * 2**-53`` so that 0, 0.5 and 1 are never hit.
binary64 cannot represent every lattice point: ties-to-even folds the cell
``k = 2**52`` onto 0.5 and the cell ``k = 2**53 - 1`` onto 1.0.  Those two
cells (and only those) are snapped to the adjacent representable float so
the open-interval guarantee survives verbatim; every other cell maps to the
correctly rounded value of the formula above.

Three sample defects ("fault models") can be wired in front of a consumer:

* ``Ideal``        -- pass the lattice samples through unchanged;
* ``PowerBias``    -- return ``x ** (1/gamma)``; for ``gamma > 1`` the output
  density ``gamma * y**(gamma-1)`` under-weights small values;
* ``LowThinning``  -- candidates below ``c`` are discarded with probability
  ``q`` (one auxiliary raw draw decides), so the output density on ``(0, c)``
  is suppressed by the factor ``(1-q)`` and renormalised.

``draw_count`` on :class:`GeneratorState` counts *raw* draws, including
candidates a fault model rejected, so consumers can account for every word
pulled off a stream; :func:`fault_block` reports the rejections as well.
The grid of each sample's draw count is built only for callers that read
it (the simulators' and the window's thinning passes); the others get each
row's count after its last sample.

``LowThinning`` runs in passes over a chunk of raw draws per row, with no
per-sample loop.  A draw is a candidate unless it is the auxiliary draw of a
candidate below ``c``, so the candidates follow from the mask of draws below
``c`` alone: each pass packs that mask into one Python int and finds them
with a few whole-int bit operations, one carry-add among them.  The kept
draws are found once a pass and written by slice for a single row, in one
copy for rows that finish from the same fill.  Every pass ends each row on a
candidate boundary, so the chunk width sets how many words a pass
generates, never a sample, a draw count or an end state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

__all__ = [
    "GOLDEN",
    "MASK64",
    "SERIAL_STREAM",
    "MAPPING_STREAM",
    "GeneratorState",
    "RowStates",
    "Ideal",
    "PowerBias",
    "LowThinning",
    "FaultModel",
    "IDEAL",
    "substream",
    "substream_rows",
    "unit_block",
    "as_rows",
    "one_row",
    "fault_block",
    "fault_rejections",
    "derived_seeds",
    "clock_stream",
    "worker_stream",
    "fault_label",
]

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB

SERIAL_STREAM = 0
MAPPING_STREAM = 2_000_000

_SCALE = 2.0**-53
# Images of the two lattice cells that binary64 folds onto excluded points;
# the transforms and the window snap what rounds onto them to the same floats.
_SNAP_ABOVE_HALF = 0.5 + 2.0**-53
_SNAP_BELOW_ONE = 1.0 - 2.0**-53
# Positive floor for a sample that underflows to 0 (smallest subnormal).
_TINY = 5e-324
# Cells one vectorised pass over a grid of rows may hold, at most: the
# LowThinning chunks here and the simulators' passes over stream rows.
MAX_PASS_CELLS = 1 << 20
# Raw draws per row and LowThinning pass in fault_block, at most: a pass over
# many rows takes narrower chunks (>= 256 draws, MAX_PASS_CELLS in all), and
# one that needs few samples takes only about as many as it needs.  A pass
# costs about 40 numpy calls whatever its width, so a wide one pays them
# over more draws; the width changes no output bit (see _thinning_rows).
_CHUNK = 1 << 15

_U64 = np.uint64
_V_GOLDEN = _U64(GOLDEN)
_V_MULT1 = _U64(_MULT1)
_V_MULT2 = _U64(_MULT2)
_SH30, _SH27, _SH31, _SH11 = _U64(30), _U64(27), _U64(31), _U64(11)
# Cells a block is made in at a time: unit_block's tiles, whose uint64
# scratch buffer (256 KiB) and output tile stay in cache, the tiles of the
# serial and per-clock passes, each a block of this size at most, and the
# samples of one pipeline call of the A/B and fix stages.
# _STEPS holds the Weyl offsets of a tile's columns, j * GOLDEN for
# j = 1 .. TILE_CELLS.
TILE_CELLS = 1 << 15
_STEPS = np.arange(1, TILE_CELLS + 1, dtype=np.uint64) * _V_GOLDEN
_STEPS.flags.writeable = False


def _check_u64(value: int, name: str) -> None:
    if not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if not 0 <= int(value) <= MASK64:
        raise ValueError(f"{name} must fit in 64 bits, got {value}")


@dataclass(frozen=True)
class GeneratorState:
    """Immutable stream position plus the number of raw draws taken so far."""

    state: int
    draw_count: int = 0

    def advanced(self, draws: int) -> "GeneratorState":
        """State after ``draws`` further raw draws (counter-based advance)."""
        return GeneratorState((self.state + draws * GOLDEN) & MASK64, self.draw_count + draws)


@dataclass(frozen=True, eq=False)
class RowStates:
    """The generator states of a grid's rows, one stream per row.

    Row ``r`` stands at ``state[r]`` after ``draw_count[r]`` raw draws, just
    as a :class:`GeneratorState` does for a single stream.  The block
    functions take either; rows advance independently.
    """

    state: np.ndarray  # uint64, one per row
    draw_count: np.ndarray  # int64, one per row

    @staticmethod
    def of(states: Sequence[GeneratorState]) -> "RowStates":
        return RowStates(
            np.array([gs.state for gs in states], dtype=np.uint64),
            np.array([gs.draw_count for gs in states], dtype=np.int64),
        )

    def __len__(self) -> int:
        return int(self.state.size)

    def row(self, r: int) -> GeneratorState:
        return GeneratorState(int(self.state[r]), int(self.draw_count[r]))

    def take(self, rows) -> "RowStates":
        """The states of the selected rows (an index array or a mask)."""
        return RowStates(self.state[rows], self.draw_count[rows])

    def advanced(self, draws) -> "RowStates":
        """States after ``draws`` further raw draws: one count for all rows or one per row."""
        draws = np.asarray(draws, dtype=np.int64)
        return RowStates(self.state + draws.astype(np.uint64) * _V_GOLDEN,
                         self.draw_count + draws)


def _mix_words(z: np.ndarray, shifted: np.ndarray | None = None) -> np.ndarray:
    """The output scrambler on advanced ``uint64`` words.

    A generator step adds ``GOLDEN`` (the stream position), then this
    xor/multiply cascade whitens the output.  Scrambles ``z`` in place
    (callers pass a fresh array), using ``shifted`` (an array of ``z``'s
    shape) as scratch if given, and returns it.
    """
    if shifted is None:
        shifted = np.empty_like(z)
    np.right_shift(z, _SH30, out=shifted)
    z ^= shifted
    z *= _V_MULT1
    np.right_shift(z, _SH27, out=shifted)
    z ^= shifted
    z *= _V_MULT2
    np.right_shift(z, _SH31, out=shifted)
    z ^= shifted
    return z


def substream(seed: int, stream_id: int) -> GeneratorState:
    """Starting state for stream ``stream_id`` of ``seed``: the one-row case
    of :func:`substream_rows`."""
    _check_u64(stream_id, "stream_id")
    return substream_rows(seed, [stream_id]).row(0)


def substream_rows(seed: int, stream_ids: np.ndarray) -> RowStates:
    """Starting states for many streams of ``seed``, one row per id.

    A row's state is one generator step from ``seed ^ w``, where ``w`` is one
    step from the stream id.  Distinct ids decorrelate streams of one seed;
    equal ``(seed, id)`` pairs always produce the identical stream.  Every id
    must be an integer in ``[0, 2**64)``, as :func:`substream` demands.
    """
    _check_u64(seed, "seed")
    ids = np.asarray(stream_ids)
    if ids.size and (ids.dtype.kind not in "biu" or ids.min() < 0):
        raise ValueError(f"stream ids must be integers in [0, 2**64), got {ids!r}")
    ids = ids.astype(np.uint64, copy=False)
    return RowStates(_mix_words((_U64(seed) ^ _mix_words(ids + _V_GOLDEN)) + _V_GOLDEN),
                     np.zeros(ids.size, dtype=np.int64))


def clock_stream(clock: int) -> int:
    """Stream id of clock ``clock`` (0-based) in per-clock mode."""
    return 1 + clock


def worker_stream(worker: int) -> int:
    """Stream id of worker ``worker`` (0-based) in per-worker mode."""
    return 1_000_000 + worker


def derived_seeds(count: int) -> tuple[int, ...]:
    """The canonical pre-registered seed list: the first output word from
    each of the states ``0 .. count-1``."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return tuple(_mix_words(np.arange(count, dtype=np.uint64) + _V_GOLDEN).tolist())


def as_rows(gs: "GeneratorState | RowStates") -> tuple["RowStates", bool]:
    """``gs`` as a grid of rows, and whether it was a single stream."""
    if isinstance(gs, GeneratorState):
        return RowStates.of([gs]), True
    return gs, False


def one_row(result: tuple) -> tuple:
    """A row-form result as the single stream's: row 0 of every grid, the
    state of row 0, and the count of row 0 as an ``int``."""
    return tuple(
        v.row(0) if isinstance(v, RowStates) else v[0].item() if v.ndim == 1 else v[0]
        for v in result
    )


def unit_block(gs: "GeneratorState | RowStates", n: int):
    """``n`` unit samples per row plus the advanced state.

    Each sample lies strictly inside (0, 1) and is never exactly 0.5, so
    ``-log(u)`` is always finite and positive.  Bit-identical to ``n``
    one-at-a-time draws (a generator step, then the lattice map) from the
    same state, row by row.  A single stream is the one-row case: it
    gives a vector and a :class:`GeneratorState`.
    """
    rows, single = as_rows(gs)
    out = (_tiled(rows, n), rows.advanced(n))
    return one_row(out) if single else out


def _tiled(rows: RowStates, n: int) -> np.ndarray:
    """The (rows x n) grid of the output words' unit samples, made tile by tile.

    A tile is a run of whole rows, or a stretch of one row when a row is
    longer than ``TILE_CELLS`` cells (its stretches then split it evenly).
    The Weyl add, the scrambler, the lattice map and the two snaps of a tile
    run in one scratch buffer of one tile and in the output tile itself,
    which stay in cache.  Word ``k`` of a row is a pure function of the
    row's state and ``k``, so the tiles change no bit.
    """
    out = np.empty((len(rows), n), dtype=np.float64)
    if not out.size:
        return out
    width = -(-n // -(-n // TILE_CELLS))  # cells of a row per tile
    height = min(len(rows), max(1, TILE_CELLS // width))  # rows per tile
    z = np.empty((height, width), dtype=np.uint64)
    for r in range(0, len(rows), height):
        state = rows.state[r:r + height, None]
        for c in range(0, n, width):
            tile = out[r:r + height, c:c + width]
            h, w = tile.shape
            words = z[:h, :w]
            # word c + j of a row: the row's state advanced c + j + 1 steps
            np.add(state, _STEPS[:w], out=words)
            if c:
                words += _U64((c * GOLDEN) & MASK64)
            _mix_words(words, tile.view(np.uint64))  # the tile, not yet written, is scratch
            # ((word >> 11) + 0.5) * 2**-53: below 2**53, int64 converts exactly
            words >>= _SH11
            np.add(words.view(np.int64), 0.5, out=tile)
            tile *= _SCALE
            tile[tile == 0.5] = _SNAP_ABOVE_HALF
            tile[tile == 1.0] = _SNAP_BELOW_ONE
    return out


# --------------------------------------------------------------------------
# fault models


@dataclass(frozen=True)
class Ideal:
    """Pass-through: the lattice samples themselves."""


@dataclass(frozen=True)
class PowerBias:
    """Return ``x ** (1/gamma)``: the output density is ``gamma * y**(gamma-1)``.

    ``gamma > 1`` starves small values (the density vanishes toward 0);
    ``gamma = 1`` is observationally the ideal source.
    """

    gamma: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")


@dataclass(frozen=True)
class LowThinning:
    """Discard candidates below ``c`` with probability ``q`` (one auxiliary draw each).

    Output density: ``(1-q)/(1-c*q)`` on ``(0, c)`` and ``1/(1-c*q)`` on
    ``(c, 1)``.  ``q = 0`` is observationally the ideal source; ``q = 1``
    yields the uniform law on ``(c, 1)``.  There is no retry cap.
    """

    c: float
    q: float

    def __post_init__(self) -> None:
        if not (0.0 < self.c < 1.0):
            raise ValueError(f"c must lie in (0, 1), got {self.c}")
        if not (0.0 <= self.q <= 1.0):
            raise ValueError(f"q must lie in [0, 1], got {self.q}")


FaultModel = Union[Ideal, PowerBias, LowThinning]
IDEAL = Ideal()


def fault_label(model: FaultModel) -> str:
    """Short human/machine-readable tag for reports."""
    if isinstance(model, Ideal):
        return "ideal"
    if isinstance(model, PowerBias):
        return f"power_bias(gamma={model.gamma:g})"
    return f"low_thinning(c={model.c:g}, q={model.q:g})"


def fault_block(model: FaultModel, gs: "GeneratorState | RowStates", n: int, grid: bool = True):
    """``n`` samples through ``model`` plus raw-draw and rejection accounting.

    Returns ``(samples, at_draw, new_state, rejected)`` where ``at_draw[i]``
    is the stream's absolute ``draw_count`` immediately after sample ``i``
    was produced and ``rejected`` counts the candidates the model threw away
    on the way to sample ``n``.  Given :class:`RowStates`, every row delivers
    ``n`` samples from its own stream: ``samples`` and ``at_draw`` are
    (rows x n) grids and ``rejected`` holds one count per row.  A single
    stream is the one-row case.

    Only a caller that reads a draw count per sample asks for that grid.
    With ``grid=False`` none is built, and ``at_draw`` is each row's draw
    count after its last sample instead, which is ``new_state``'s (for a
    single stream an ``int``).  The thinning passes of the simulators and of
    the window read the grid; the A/B and fix tiles do not, and neither do
    the passes over ``Ideal`` and ``PowerBias`` draws, where each sample is
    one raw draw and its count follows from its row's start and column.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    rows, single = as_rows(gs)
    if isinstance(model, (Ideal, PowerBias)):
        u, new = unit_block(rows, n)
        if isinstance(model, PowerBias):
            np.power(u, 1.0 / model.gamma, out=u)
            u[u >= 1.0] = _SNAP_BELOW_ONE
            u[u <= 0.0] = _TINY
        at_draw = rows.draw_count[:, None] + np.arange(1, n + 1, dtype=np.int64) if grid else None
        rejected = np.zeros(len(rows), dtype=np.int64)
    elif isinstance(model, LowThinning):
        u, at_draw, new = _thinning_rows(model, rows, n, grid)
        # a row ends right after its last sample: fault_rejections' count over all of them
        spent = new.draw_count - rows.draw_count - n - np.count_nonzero(u < model.c, axis=1)
        rejected = spent >> 1
    else:
        raise TypeError(f"unknown fault model: {model!r}")
    out = (u, new.draw_count if at_draw is None else at_draw, new, rejected)
    return one_row(out) if single else out


def _thinning_rows(
    model: LowThinning, rows: RowStates, n: int, grid: bool = True
) -> tuple[np.ndarray, "np.ndarray | None", RowStates]:
    """``n`` LowThinning samples per row, the grid of their draw counts
    (``None`` unless ``grid``: :func:`fault_block` asks for it only for a
    caller that reads it) and the rows' states right after their last
    samples."""
    # A raw draw is a candidate unless it is the auxiliary draw of a
    # candidate below c.  So a draw right after one at or above c is always a
    # candidate, and inside a run of draws below c the candidates alternate
    # from the start of the run; _candidates finds them on the packed mask.
    # Each pass draws a chunk for every row that still needs samples and
    # ends each row on a candidate boundary (past a pending auxiliary draw),
    # so the next chunk starts on a candidate, as every row of the mask
    # does, and the result does not depend on the chunk width.  The kept
    # draws are found once a pass (flatnonzero) and cut at each row's need:
    # a single row writes them by slice from its fill; several rows gather
    # them as a (rows x k) grid, written in one copy when every row takes k
    # from the same fill, through a mask otherwise.  A kept draw's count is
    # the row's count before the chunk, plus its column and one, plus one
    # for its auxiliary draw when it lies below c.
    c, q = model.c, model.q
    out = np.empty((len(rows), n), dtype=np.float64)
    at_draw = np.empty((len(rows), n), dtype=np.int64) if grid else None
    filled = np.zeros(len(rows), dtype=np.int64)
    state, count = rows.state.copy(), rows.draw_count.copy()
    live = np.arange(len(rows)) if n else np.empty(0, dtype=np.int64)
    spend = 1.25 * (1.0 + c) / (1.0 - c * q)  # raw draws per sample, with a margin
    while live.size:
        need = n - filled[live]
        width = min(_CHUNK, max(256, MAX_PASS_CELLS // live.size), int(need.max() * spend) + 32)
        u, _ = unit_block(RowStates(state[live], count[live]), width)
        below = u < c
        candidate = _candidates(below)
        kept = candidate & ~below
        kept[:, :-1] |= candidate[:, :-1] & below[:, :-1] & (u[:, 1:] >= q)
        step = width - (candidate[:, -1] & below[:, -1])  # a short row keeps a pending aux draw
        del candidate, below
        if live.size == 1:  # one row: its kept draws by slice
            r = live[0]
            cols = np.flatnonzero(kept[0])[:need[0]]
            lo, hi = filled[r], filled[r] + cols.size
            # mode "clip" clips nothing here and, unlike "raise", writes unbuffered
            values = np.take(u[0], cols, out=out[r, lo:hi], mode="clip")
            if grid:
                draws = np.add(cols, values < c, out=at_draw[r, lo:hi])
                draws += count[r] + 1
            if hi == n:
                step[0] = cols[-1] + 1 + (values[-1] < c)
            filled[r] = hi
        else:
            # the flat positions of each row's first kept draws, up to its
            # need, as a (rows x k) grid: a row that keeps fewer than k has
            # its tail masked off
            counts = np.count_nonzero(kept, axis=1)
            got = np.minimum(counts, need)
            k = int(got.max())
            flat = np.flatnonzero(kept)
            del kept
            at = flat[np.minimum((np.cumsum(counts) - counts)[:, None] + np.arange(k), flat.size - 1)]
            del flat
            values = np.take(u, at)
            at -= (np.arange(live.size) * width)[:, None]  # their columns
            done = np.flatnonzero(got == need)
            ends = got[done] - 1
            step[done] = at[done, ends] + 1 + (values[done, ends] < c)
            at += values < c  # now their draw counts
            at += count[live, None] + 1
            fill = filled[live[0]]
            if (got == k).all() and (filled[live] == fill).all():  # one copy
                out[live, fill:fill + k] = values
                if grid:
                    at_draw[live, fill:fill + k] = at
            else:
                ok = np.arange(k) < got[:, None]
                cells = ((live * n + filled[live])[:, None] + np.arange(k))[ok]
                out.ravel()[cells] = values[ok]
                if grid:
                    at_draw.ravel()[cells] = at[ok]
            filled[live] += got
        state[live] += step.astype(np.uint64) * _V_GOLDEN
        count[live] += step
        live = live[filled[live] < n]
    return out, at_draw, RowStates(state, count)


def _candidates(below: np.ndarray) -> np.ndarray:
    """Which draws of each row are candidates: ``cand[r, 0]`` is, and
    ``cand[r, p]`` is unless draw ``p - 1`` is a candidate below ``c``.

    The rows are packed into one Python int with a 0 bit after each row, so
    no run crosses a row.  ``x`` holds the mask shifted one draw on, so
    ``x[p]`` says that draw ``p - 1`` was below ``c``.  A draw outside the
    runs of ``x`` is a candidate, and in each run the bits at an even offset
    from the run's start are the non-candidates.  Adding the run starts that
    sit on an even bit carries through exactly those runs and clears them
    (Warren, *Hacker's Delight*, 2nd ed., ch. 2): ``me`` keeps the runs that
    start on an even bit, where the candidates are the odd bits, and in the
    other runs they are the even bits.
    """
    rows, width = below.shape
    bits = np.zeros((rows, width + 1), dtype=bool)
    bits[:, :width] = below
    packed = np.packbits(bits, bitorder="little")
    full = (1 << (8 * packed.size)) - 1
    even = full // 3  # 0b...0101
    x = int.from_bytes(packed, "little") << 1
    me = x & ~(x + (x & ~(x << 1) & even))
    cand = (~x | (me ^ even)) & full
    flat = np.unpackbits(np.frombuffer(cand.to_bytes(packed.size, "little"), dtype=np.uint8),
                         count=bits.size, bitorder="little")
    return flat.view(bool).reshape(rows, width + 1)[:, :width]


def fault_rejections(at_draw: np.ndarray, below: np.ndarray, start, upto=None):
    """Candidates rejected on the way to samples whose draw counts are ``at_draw``.

    A delivered sample takes one raw draw, or two when it lies below ``c``
    (``below``) and an auxiliary draw kept it, and each rejection burns a
    candidate plus its auxiliary draw: so the draws a row spans from
    ``start``, less its samples and those below ``c``, are twice its
    rejections.  A (rows x n) ``at_draw`` with one ``start`` per row gives
    one count per row; ``upto`` then counts only each row's first
    ``upto[r]`` samples.
    """
    start = np.asarray(start, dtype=np.int64)
    n = at_draw.shape[-1]
    if upto is None:
        taken = np.full(start.shape, n, dtype=np.int64)
    else:
        taken = np.asarray(upto, dtype=np.int64)
        below = below & (np.arange(n) < taken[..., None])
    span = np.zeros_like(start)
    if n:  # to each row's last counted sample
        last = np.take_along_axis(at_draw, np.maximum(taken - 1, 0)[..., None], axis=-1)[..., 0]
        span = np.where(taken > 0, last - start, span)
    per_row = (span - taken - np.count_nonzero(below, axis=-1)) >> 1
    return int(per_row) if per_row.ndim == 0 else per_row
