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
and return rows only: a :class:`RowStates` holds one stream per row, a
single stream is a one-row grid (``substream_rows(seed, [id])``), and each
row's output depends on its own state alone.

The kernel makes a block in tiles of about ``TILE_CELLS`` = 2**15 cells
(counter-based generation, as in Salmon et al., "Parallel Random Numbers: As
Easy as 1, 2, 3", SC 2011: word ``k`` of a row depends on the row's state
and ``k`` alone).  A tile is a run of whole rows, or an even stretch of one
longer row; its Weyl add, scrambler, lattice map and the two lattice snaps
run in one scratch buffer and the output tile, which stay in cache.  A
block that fits in one tile runs the loop once; the tiles change no bit.

Streams are keyed by ``(seed, stream_id)``.  The id layout is fixed, and its
roles share no id while N < 10**6 and P <= 10**6 (P workers):

* id ``0``                 -- the serial (merged-clock) stream,
* ids ``1 .. N``           -- one stream per clock in per-clock mode,
* ids ``10**6 + w``        -- one stream per worker in per-worker mode, worker
  0's shared by clock ``10**6 - 1`` once N >= 10**6,
* id ``2 * 10**6``         -- the shuffle mapping generator, shared by clock
  ``2 * 10**6 - 1`` once N >= 2 * 10**6 and by worker ``10**6`` once P > 10**6.

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

``draw_count`` on :class:`RowStates` counts each row's *raw* draws,
including candidates a fault model rejected, so consumers can account for
every word pulled off a stream; :func:`fault_block` reports the rejections
as well.  The grid of each sample's draw count is built for every caller
but the A/B and fix tiles, which get each row's count after its last sample.

Drawing on is one kernel, with no per-sample loop: ``LowThinning`` and a
keep map (the draw pipeline's window, in ``clockcheck.process``) run in
passes over a chunk of raw draws per row, one pass rule sizing them all.  A
draw is a candidate unless it is the auxiliary draw of a candidate below
``c``, so the candidates follow from the mask of draws below ``c`` alone:
each pass packs that mask into one Python int and finds them with a few
whole-int bit operations, one carry-add among them.  The kept draws are
found once a pass and written by slice for a single row, in one copy for
rows that finish from the same fill.  Every pass ends each row on a
candidate boundary, so the chunk width sets how many words a pass
generates, never a sample, a draw count or an end state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "GOLDEN",
    "MASK64",
    "SERIAL_STREAM",
    "MAPPING_STREAM",
    "RowStates",
    "Ideal",
    "PowerBias",
    "LowThinning",
    "FaultModel",
    "IDEAL",
    "substream_rows",
    "unit_block",
    "fault_block",
    "StarvedWindow",
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
# draw-on passes here and the simulators' passes over stream rows.
MAX_PASS_CELLS = 1 << 20
# Raw draws per row and draw-on pass in fault_block, at most (_pass_draws).
# A pass costs about 40 numpy calls whatever its width, so a wide one pays
# them over more draws; the width changes no output bit (see _draw_on).
_CHUNK = 1 << 15
# A row a keep map leaves short after this many fault samples, with odds of
# keeping one below _MIN_ACCEPTANCE, is starved (StarvedWindow).
_STARVATION_DRAWS = 524_288
_MIN_ACCEPTANCE = 1e-4

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


@dataclass(frozen=True, eq=False)
class RowStates:
    """The generator states of a grid's rows, one stream per row: the one
    state type of the block functions.

    Row ``r`` stands at ``state[r]`` after ``draw_count[r]`` raw draws; rows
    advance independently, and a single stream is a one-row grid.
    """

    state: np.ndarray  # uint64, one per row
    draw_count: np.ndarray  # int64, one per row

    def __len__(self) -> int:
        return int(self.state.size)

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


def substream_rows(seed: int, stream_ids: np.ndarray) -> RowStates:
    """Starting states for many streams of ``seed``, one row per id.

    A row's state is one generator step from ``seed ^ w``, where ``w`` is one
    step from the stream id.  Distinct ids decorrelate streams of one seed;
    equal ``(seed, id)`` pairs always produce the identical stream.  Every id
    must be an integer in ``[0, 2**64)``; a single stream is the one-id case.
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


def unit_block(rows: RowStates, n: int) -> tuple[np.ndarray, RowStates]:
    """The (rows x n) grid of unit samples plus the advanced states.

    Each sample lies strictly inside (0, 1) and is never exactly 0.5, so
    ``-log(u)`` is always finite and positive.  Bit-identical to ``n``
    one-at-a-time draws (a generator step, then the lattice map) from the
    same state, row by row.
    """
    return _tiled(rows, n), rows.advanced(n)


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


class StarvedWindow(RuntimeError):
    """Raised when a keep map (the window) has kept fewer than
    ``_MIN_ACCEPTANCE`` of a short row's ``_STARVATION_DRAWS`` or more fault samples."""


def fault_block(model: FaultModel, rows: RowStates, n: int, grid: bool = True, keep=None):
    """``n`` samples per row through ``model`` plus raw-draw and rejection accounting.

    Returns ``(samples, at_draw, new_state, rejected)``: every row delivers
    ``n`` samples from its own stream, ``samples`` and ``at_draw`` are
    (rows x n) grids, ``at_draw[r, i]`` is row ``r``'s absolute
    ``draw_count`` immediately after sample ``i`` was produced, and
    ``rejected`` counts per row the candidates the model threw away on the
    way to sample ``n``.

    With ``grid=False`` (the A/B and fix tiles, which read no per-sample
    count) no grid is built, and ``at_draw`` is each row's draw count after
    its last sample, ``new_state``'s.

    ``keep`` is a keep map (the draw pipeline's transform and window):
    called on a pass's (rows x width) grid of fault samples, it returns
    their values and a mask of those to keep.  The samples are then each
    row's first ``n`` kept values, the counts and state those after the
    ``n``-th, and a fifth item counts per row the fault samples the map
    dropped on the way.  Its ``cost``, fault samples per kept one, sizes a
    row's first pass, and its ``str`` names it in :class:`StarvedWindow`.
    ``Ideal`` and ``PowerBias`` without one take a raw draw a sample, in one
    block; all else runs in :func:`_draw_on`'s passes.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not isinstance(model, (Ideal, PowerBias, LowThinning)):
        raise TypeError(f"unknown fault model: {model!r}")
    if keep is None and not isinstance(model, LowThinning):
        u, new = unit_block(rows, n)
        if isinstance(model, PowerBias):
            _power_bias(u, model.gamma)
        at_draw = rows.draw_count[:, None] + np.arange(1, n + 1, dtype=np.int64) if grid else None
        out = (u, at_draw, new, np.zeros(len(rows), dtype=np.int64))
    else:
        out = _draw_on(model, rows, n, grid, keep)[:4 if keep is None else 5]
    return out if grid else (out[0], out[2].draw_count) + out[2:]


def _power_bias(u: np.ndarray, gamma: float) -> None:
    np.power(u, 1.0 / gamma, out=u)
    u[u >= 1.0] = _SNAP_BELOW_ONE
    u[u <= 0.0] = _TINY


def _draw_on(model: FaultModel, rows: RowStates, n: int, grid: bool, keep):
    """:func:`fault_block`'s draw-on kernel, the rejection method (draw on,
    keep some draws, count the rest): ``n`` kept samples per row, their
    draw counts (``None`` unless ``grid``), the rows' states right after
    their ``n``-th, and per row the candidates the fault model rejected and
    the fault samples ``keep`` dropped.

    A pass draws raw words for the rows still short, finds the fault
    samples by the thinning masks (``Ideal`` and ``PowerBias`` run as
    thinning at ``c = 0``, where every draw is one), ANDs them with the keep
    mask, compacts the kept draws once, and moves each row to just past its
    ``n``-th kept sample or to the pass end, short of a pending auxiliary
    draw.  A row's rejections follow from its end: the draws it spanned,
    less its fault samples and those below ``c`` (each took an auxiliary
    draw), are two a rejected candidate, and its fault samples less ``n``
    were dropped.  The pass sizes (:func:`_pass_draws`) change no bit.
    """
    # A raw draw is a candidate unless it is the auxiliary draw of a
    # candidate below c; _candidates finds them on the packed mask.  Every
    # pass ends each row on a candidate boundary, as every row of the mask
    # starts.  The kept draws are cut at each row's need: a single row
    # writes them by slice from its fill; several rows gather them as a
    # (rows x k) grid, written in one copy when every row takes k from the
    # same fill, through a mask otherwise.  A kept draw's count is the
    # row's count before the pass, plus its column and one, plus one for
    # the auxiliary draw of a candidate below c.
    c, q = (model.c, model.q) if isinstance(model, LowThinning) else (0.0, 1.0)
    out = np.empty((len(rows), n), dtype=np.float64)
    at_draw = np.empty((len(rows), n), dtype=np.int64) if grid else None
    filled = np.zeros(len(rows), dtype=np.int64)  # kept samples
    faults = np.zeros(len(rows), dtype=np.int64)  # fault samples spanned
    lows = np.zeros(len(rows), dtype=np.int64)  # those below c
    state, count = rows.state.copy(), rows.draw_count.copy()
    prior = (1.0 + c) / (1.0 - c * q) * (1.0 if keep is None else keep.cost)
    live = np.arange(len(rows)) if n else np.empty(0, dtype=np.int64)
    while live.size:
        width = _pass_draws(n - filled[live], filled[live], count[live] - rows.draw_count[live],
                            prior)
        part = live[:max(1, MAX_PASS_CELLS // width)]
        need = n - filled[part]
        u, _ = unit_block(RowStates(state[part], count[part]), width)
        if isinstance(model, PowerBias):
            _power_bias(u, model.gamma)
        below = u < c
        candidate = _candidates(below)
        fault = candidate & ~below
        fault[:, :-1] |= candidate[:, :-1] & below[:, :-1] & (u[:, 1:] >= q)
        step = width - (candidate[:, -1] & below[:, -1])  # a short row keeps a pending aux draw
        del candidate
        values, kept = (u, fault) if keep is None else keep(u)
        if keep is not None:
            kept &= fault
        if part.size == 1:  # one row: its kept draws by slice
            r = part[0]
            cols = np.flatnonzero(kept[0])[:need[0]]
            lo, hi = filled[r], filled[r] + cols.size
            # mode "clip" clips nothing here and, unlike "raise", writes unbuffered
            np.take(values[0], cols, out=out[r, lo:hi], mode="clip")
            aux = np.take(below[0], cols)
            if grid:
                draws = np.add(cols, aux, out=at_draw[r, lo:hi])
                draws += count[r] + 1
            if hi == n:
                step[0] = cols[-1] + 1 + aux[-1]
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
            taken, aux = np.take(values, at), np.take(below, at)
            at -= (np.arange(part.size) * width)[:, None]  # their columns
            done = np.flatnonzero(got == need)
            ends = got[done] - 1
            step[done] = at[done, ends] + 1 + aux[done, ends]
            at += aux  # now their draw counts
            at += count[part, None] + 1
            fill = filled[part[0]]
            if (got == k).all() and (filled[part] == fill).all():  # one copy
                out[part, fill:fill + k] = taken
                if grid:
                    at_draw[part, fill:fill + k] = at
            else:
                ok = np.arange(k) < got[:, None]
                cells = ((part * n + filled[part])[:, None] + np.arange(k))[ok]
                out.ravel()[cells] = taken[ok]
                if grid:
                    at_draw.ravel()[cells] = at[ok]
            filled[part] += got
        fault &= np.arange(width) < step[:, None]  # the fault samples each row spanned
        faults[part] += np.count_nonzero(fault, axis=1)
        lows[part] += np.count_nonzero(fault & below, axis=1)
        state[part] += step.astype(np.uint64) * _V_GOLDEN
        count[part] += step
        short = part[filled[part] < n]  # only a keep map keeps fewer than its fault samples
        starved = short[(faults[short] >= _STARVATION_DRAWS)
                        & (filled[short] < _MIN_ACCEPTANCE * faults[short])]
        if starved.size:
            r = starved[0]
            raise StarvedWindow(
                f"{keep} accepted {filled[r]} of {faults[r]} pipeline draws: the pipeline "
                f"never lands inside it, or with odds below {_MIN_ACCEPTANCE:g}, which is "
                "not supported")
        live = live[filled[live] < n]
    rejected = (count - rows.draw_count - faults - lows) >> 1
    return out, at_draw, RowStates(state, count), rejected, faults - n


def _pass_draws(need: np.ndarray, got: np.ndarray, drawn: np.ndarray, prior: float) -> int:
    """Raw draws the next pass asks of each of its rows: the most that a row
    needs for the ``need`` kept samples it lacks at the raw draws per kept
    sample it has shown (``drawn`` for ``got``), or ``prior`` before its
    first pass, plus five standard deviations of that negative-binomial
    count, ``sqrt(need cost (cost - 1))``, and 32; a row that has drawn but
    kept nothing doubles its draws.  At least 1, at most ``_CHUNK`` and
    ``MAX_PASS_CELLS``."""
    cost = np.where(got > 0, drawn / np.maximum(got, 1), prior)
    want = need * cost + 5.0 * np.sqrt(need * cost * (cost - 1.0)) + 32.0
    want = np.where((got == 0) & (drawn > 0), drawn, want)
    return max(1, int(min(want.max(), _CHUNK, MAX_PASS_CELLS)))


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
