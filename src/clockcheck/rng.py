"""Deterministic unit-interval sample source with injectable defects.

The generator is a 64-bit Weyl-sequence scrambler: the state advances by a
fixed odd increment and each output word is produced by a xor/multiply
cascade over the advanced state.  Because the state after ``k`` draws is
``state0 + k * GOLDEN (mod 2**64)``, any stretch of a stream can be
generated from its starting state alone: ``unit_block`` makes it in one
vectorised call, bit-identical to repeated ``next_unit`` draws, and a block
consumer can stop anywhere and resume from the advanced state.

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
    "GeneratorState",
    "Ideal",
    "PowerBias",
    "LowThinning",
    "FaultModel",
    "IDEAL",
    "mix64",
    "substream",
    "next_unit",
    "unit_block",
    "raw_block",
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
# Images of the two lattice cells that binary64 folds onto excluded points.
_SNAP_ABOVE_HALF = 0.5 + 2.0**-53
_SNAP_BELOW_ONE = 1.0 - 2.0**-53
# Positive floor for extreme PowerBias underflow (smallest subnormal).
_TINY = 5e-324
# Raw draws per LowThinning pass in fault_block.
_CHUNK = 8192

_U64 = np.uint64
_V_GOLDEN = _U64(GOLDEN)
_V_MULT1 = _U64(_MULT1)
_V_MULT2 = _U64(_MULT2)
_SH30, _SH27, _SH31, _SH11 = _U64(30), _U64(27), _U64(31), _U64(11)


def _check_u64(value: int, name: str) -> None:
    if not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if not 0 <= int(value) <= MASK64:
        raise ValueError(f"{name} must fit in 64 bits, got {value}")


def mix64(z: int) -> int:
    """One generator step on a 64-bit word.

    Advances by the Weyl increment, then applies the output scrambler.  The
    increment is what defines stream position; the xor/multiply cascade only
    whitens the output.  Pure function: equal inputs give equal outputs.
    """
    _check_u64(z, "z")
    z = (int(z) + GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * _MULT1) & MASK64
    z = ((z ^ (z >> 27)) * _MULT2) & MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class GeneratorState:
    """Immutable stream position plus the number of raw draws taken so far."""

    state: int
    draw_count: int = 0

    def advanced(self, draws: int) -> "GeneratorState":
        """State after ``draws`` further raw draws (counter-based advance)."""
        return GeneratorState((self.state + draws * GOLDEN) & MASK64, self.draw_count + draws)


def substream(seed: int, stream_id: int) -> GeneratorState:
    """Starting state for stream ``stream_id`` of ``seed``: ``mix64(seed ^ mix64(id))``.

    Distinct ids decorrelate streams of one seed; equal ``(seed, id)`` pairs
    always produce the identical stream.
    """
    _check_u64(seed, "seed")
    _check_u64(stream_id, "stream_id")
    return GeneratorState(mix64(int(seed) ^ mix64(stream_id)), 0)


def clock_stream(clock: int) -> int:
    """Stream id of clock ``clock`` (0-based) in per-clock mode."""
    return 1 + clock


def worker_stream(worker: int) -> int:
    """Stream id of worker ``worker`` (0-based) in per-worker mode."""
    return 1_000_000 + worker


def derived_seeds(count: int) -> tuple[int, ...]:
    """The canonical pre-registered seed list: ``mix64(0) .. mix64(count-1)``."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return tuple(mix64(i) for i in range(count))


def _unit_from_word(word: int) -> float:
    u = ((word >> 11) + 0.5) * _SCALE
    if u == 0.5:  # lattice cell k = 2**52, folded by ties-to-even
        return _SNAP_ABOVE_HALF
    if u == 1.0:  # lattice cell k = 2**53 - 1, folded by ties-to-even
        return _SNAP_BELOW_ONE
    return u


def next_unit(gs: GeneratorState) -> tuple[float, GeneratorState]:
    """Draw one unit sample; return ``(u, advanced_state)``.

    ``u`` lies strictly inside (0, 1) and is never exactly 0.5, so
    ``-log(u)`` is always finite and positive.
    """
    word = mix64(gs.state)
    return _unit_from_word(word), gs.advanced(1)


def raw_block(gs: GeneratorState, n: int) -> np.ndarray:
    """The next ``n`` output words of the stream as ``uint64`` (state not consumed)."""
    steps = np.arange(1, n + 1, dtype=np.uint64)
    z = _U64(gs.state) + steps * _V_GOLDEN
    z = (z ^ (z >> _SH30)) * _V_MULT1
    z = (z ^ (z >> _SH27)) * _V_MULT2
    return z ^ (z >> _SH31)


def unit_block(gs: GeneratorState, n: int) -> tuple[np.ndarray, GeneratorState]:
    """Vectorised :func:`next_unit`: ``n`` samples plus the advanced state.

    Bit-identical to ``n`` sequential :func:`next_unit` draws from the same state.
    """
    w = raw_block(gs, n) >> _SH11
    u = (w.astype(np.float64) + 0.5) * _SCALE
    u[u == 0.5] = _SNAP_ABOVE_HALF
    u[u == 1.0] = _SNAP_BELOW_ONE
    return u, gs.advanced(n)


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


def fault_block(
    model: FaultModel, gs: GeneratorState, n: int
) -> tuple[np.ndarray, np.ndarray, GeneratorState, int]:
    """``n`` samples through ``model`` plus raw-draw and rejection accounting.

    Returns ``(samples, at_draw, new_state, rejected)`` where ``at_draw[i]``
    is the stream's absolute ``draw_count`` immediately after sample ``i``
    was produced and ``rejected`` counts the candidates the model threw away
    on the way to sample ``n``.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if isinstance(model, (Ideal, PowerBias)):
        u, new = unit_block(gs, n)
        if isinstance(model, PowerBias):
            u = np.power(u, 1.0 / model.gamma)
            u[u >= 1.0] = _SNAP_BELOW_ONE
            u[u <= 0.0] = _TINY
        at_draw = gs.draw_count + np.arange(1, n + 1, dtype=np.int64)
        return u, at_draw, new, 0
    if not isinstance(model, LowThinning):
        raise TypeError(f"unknown fault model: {model!r}")

    # A raw draw is a candidate unless it is the auxiliary draw of a
    # candidate below c.  So a draw right after one at or above c is always a
    # candidate, and inside a run of draws below c the candidates alternate
    # from the start of the run.  Chunks end on a candidate boundary, so each
    # one starts on a candidate, and the temporaries stay chunk-sized.
    c, q = model.c, model.q
    start = gs.draw_count
    out = np.empty(n, dtype=np.float64)
    at_draw = np.empty(n, dtype=np.int64)
    pos = np.arange(_CHUNK)
    filled = 0
    while filled < n:
        u, _ = unit_block(gs, _CHUNK)
        below = u < c
        # run_start[p]: where the run of draws below c through p starts
        # (p + 1 when draw p is not below c)
        run_start = np.maximum.accumulate(np.where(below, 0, pos + 1))
        candidate = ((pos - np.concatenate(([0], run_start[:-1]))) & 1) == 0
        usable = _CHUNK - int(candidate[-1] and below[-1])  # keep a pending aux draw
        kept = candidate & ~below
        kept[:-1] |= candidate[:-1] & below[:-1] & (u[1:] >= q)
        taken = np.flatnonzero(kept[:usable])[: n - filled]
        ends = taken + 1 + below[taken]  # draws used through each kept sample
        out[filled:filled + taken.size] = u[taken]
        at_draw[filled:filled + taken.size] = gs.draw_count + ends
        filled += taken.size
        gs = gs.advanced(int(ends[-1]) if filled == n else usable)
    return out, at_draw, gs, fault_rejections(at_draw, start)


def fault_rejections(at_draw: np.ndarray, start: int) -> int:
    """Candidates rejected on the way to samples whose draw counts are ``at_draw``.

    A delivered sample takes one raw draw, or two when an auxiliary draw
    decided it, and each rejection burns a candidate plus its auxiliary
    draw: so every gap between consecutive draw counts (the first measured
    from ``start``) is 1 or 2 plus twice the rejections in between.
    """
    gaps = np.diff(at_draw, prepend=start)
    return int(((gaps - 1) >> 1).sum())
