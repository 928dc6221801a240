"""Measure-preserving rearrangements of (0, 1) and the window-rescale repair.

A transform here is a bijection of the open unit interval that leaves the
uniform law invariant, used to re-examine one fixed sample stream under a
different ordering of the interval: a defect that hides in one region moves
somewhere else under the transform, while an ideal source looks the same
under all of them.

Two primitives and free composition are provided:

* ``Reflect``      -- ``x -> 1 - x``
* ``RotateHalf``   -- ``x -> x + 1/2 (mod 1)``, undefined at exactly 1/2
* ``Compose``      -- apply a sequence left to right

Both primitives are exact involutions on the grid of multiples of 2**-53
(where 1 - x and x ± 1/2 are representable, so IEEE arithmetic is exact).
Off that grid binary64 rounding can slip the identity by one ulp at the
extremes — reflecting a value just below 2**-53 even rounds to 1.0 — so
outputs are snapped back inside (0, 1) \\ {1/2}, and the exact identities
are promised on the grid only.

``RescaleWindow`` describes the repair step: keep only samples falling in
a window ``(a, b)`` and stretch the window affinely back onto (0, 1).  For a
uniform source the output is again uniform; for a source whose defect lives
outside the window, the defect is cut away at the price of discarding a
``1 - (b - a)`` fraction of ideal input.  The draw pipeline in
``clockcheck.process`` applies it.

The primitives are plain tags; ``transform_block`` is the one
implementation of their maps, and the draw pipeline runs it on numpy
blocks.  The tests keep a one-float-at-a-time twin as an oracle and require
bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .rng import _SNAP_ABOVE_HALF, _SNAP_BELOW_ONE

__all__ = [
    "Reflect",
    "RotateHalf",
    "Compose",
    "Transform",
    "transform_block",
    "transform_label",
    "RescaleWindow",
]


@dataclass(frozen=True)
class Reflect:
    """``x -> 1 - x``."""


@dataclass(frozen=True)
class RotateHalf:
    """``x -> x + 1/2 (mod 1)``; rejects exactly 1/2 (no well-defined image)."""


@dataclass(frozen=True)
class Compose:
    """Apply ``parts`` left to right: ``Compose([f, g])`` maps ``x`` to ``g(f(x))``."""

    parts: tuple["Transform", ...]

    def __init__(self, parts: Sequence["Transform"]):
        object.__setattr__(self, "parts", tuple(parts))


Transform = Union[Reflect, RotateHalf, Compose]


def transform_block(transform: Transform, xs: np.ndarray) -> np.ndarray:
    """``transform`` applied to every element of ``xs``, each strictly inside (0, 1).

    Both primitives are pure float arithmetic (no transcendentals), so the
    per-element map is reproducible bit for bit.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size and not ((xs > 0.0).all() and (xs < 1.0).all()):
        raise ValueError("samples must lie strictly inside (0, 1)")
    return _block(transform, xs)


def _block(transform: Transform, xs: np.ndarray) -> np.ndarray:
    if isinstance(transform, Reflect):
        y = 1.0 - xs
        y[y >= 1.0] = _SNAP_BELOW_ONE
        return y
    if isinstance(transform, RotateHalf):
        if (xs == 0.5).any():
            raise ValueError("rotate_half is undefined at exactly 0.5")
        y = np.where(xs > 0.5, xs - 0.5, xs + 0.5)
        y[y == 0.5] = _SNAP_ABOVE_HALF
        y[y >= 1.0] = _SNAP_BELOW_ONE
        return y
    if isinstance(transform, Compose):
        for part in transform.parts:
            xs = _block(part, xs)
        return xs
    raise TypeError(f"unknown transform: {transform!r}")


def transform_label(transform: Transform) -> str:
    """Short tag for reports: ``reflect``, ``rotate_half``, ``(f then g)``."""
    if isinstance(transform, Reflect):
        return "reflect"
    if isinstance(transform, RotateHalf):
        return "rotate_half"
    return "(" + " then ".join(transform_label(p) for p in transform.parts) + ")"


@dataclass(frozen=True)
class RescaleWindow:
    """An open window ``(a, b)`` inside (0, 1) to keep and stretch back out."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.a < self.b <= 1.0):
            raise ValueError(f"window must satisfy 0 <= a < b <= 1, got ({self.a}, {self.b})")

    @property
    def width(self) -> float:
        return self.b - self.a
