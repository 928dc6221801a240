"""Report serialization: one JSON document plus CSV views of the same numbers.

Output contract, relied on by regression tests:

* ``report.json`` — the full comparison report, ``schema_version`` 1, keys
  sorted alphabetically, two-space indent, UTF-8, trailing newline.  The
  only non-deterministic field is ``generated_at`` (ISO-8601 UTC); byte
  comparison after dropping that line is stable for identical inputs.
* ``events_seed<seed>_<label>.csv`` — one file per simulated run, header
  ``time,mark,draw_index``, CRLF line ends, written by :class:`EventWriter`
  as soon as the seed's runs are done (the report keeps no trajectories).
  The rows are formatted straight from the trajectory's arrays, one
  ``_CSV_ROWS``-row chunk at a time, in the same bytes ``csv.writer``
  gives for rows of (``repr(time)``, mark, draw index): no field ever
  needs quoting, since each is a float ``repr`` or an int.  ``repr``
  defines a time's cell; :func:`_shortest_decimal` finds the same digits
  for a whole chunk in numpy (Dekker's error-free product, then Ryu's
  shortest-digit search), and :func:`_csv_rows` lays each row out in
  4-byte digit cells padded with NULs, which one ``bytes.translate``
  drops.  Times outside [1e-4, 1e16), exact powers of two and exact ties
  go to ``repr`` one at a time: none of the 1.8 million times of the
  benchmark's trajectories.  0.24-0.33 µs of CPU a row on a 2-vCPU host,
  against 1.0-1.7 µs with one ``%``-format call per chunk.  A
  seed's runs are often the same trajectory (per-clock runs agree bit for
  bit under any worker count or mapping), so each distinct trajectory is
  formatted once per seed and its twins' files are copies of that file.
* ``summary.csv`` — header ``seed,pairing,test,statistic,p_value,verdict``;
  one row per evidence item per pairing (plus the fix before/after blocks
  and discard rate when a fix is configured).

Every number in the CSVs is formatted with ``repr`` of the parsed value,
which is exactly how ``json.dump`` writes it — so each CSV cell reappears
byte-identically in ``report.json``.  Non-finite floats (which no healthy
run produces) are serialised as strings to keep the JSON standard-valid.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .detector import ComparisonReport
from .process import Trajectory

__all__ = [
    "sanitize",
    "report_json_text",
    "summary_rows",
    "write_report_bundle",
    "EventWriter",
    "SUMMARY_HEADER",
    "EVENTS_HEADER",
]

SUMMARY_HEADER = ("seed", "pairing", "test", "statistic", "p_value", "verdict")
EVENTS_HEADER = ("time", "mark", "draw_index")
_CSV_ROWS = 1 << 14  # event rows formatted and written per chunk


def sanitize(obj):
    """Recursively coerce to plain JSON types; non-finite floats become strings."""
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        return value if math.isfinite(value) else repr(value)
    return obj


def report_json_text(report: ComparisonReport, generated_at: Optional[str] = None) -> str:
    body = sanitize(report.as_dict())
    body["generated_at"] = generated_at or datetime.now(timezone.utc).isoformat()
    return json.dumps(body, sort_keys=True, indent=2) + "\n"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def summary_rows(report: ComparisonReport) -> list[tuple]:
    """Flatten the report into summary-CSV rows, from the sanitized dict the
    JSON writer uses, so the two outputs agree to the byte."""
    clean = sanitize(report.as_dict())
    rows = []
    for sr in clean["seed_reports"]:
        seed = sr["seed"]
        for pairing in sr["pairings"]:
            verdict = pairing["verdict"]
            for e in verdict["evidence"]:
                rows.append((seed, pairing["label"], e["test"],
                             e["statistic"], e["p_value"], verdict["outcome"]))
        fix = sr.get("fix")
        if fix:
            for phase in ("before", "after"):
                verdict = fix[phase]
                for e in verdict["evidence"]:
                    rows.append((seed, f"fix_{phase}", e["test"],
                                 e["statistic"], e["p_value"], verdict["outcome"]))
            rows.append((seed, "fix", "discard_rate", fix["discard_rate"], None, None))
    return rows


# ---------------------------------------------------------------------------
# Event rows: the float repr and the int digits, on whole arrays.

_POW10 = 10.0 ** np.arange(23)  # exact: 10**s = 5**s * 2**s, and 5**22 < 2**53
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for Dekker's product
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_P10 = 10 ** np.arange(19, dtype=np.int64)


def _digit_cells():
    """4-byte cells of digits, one uint32 each, in one table.

    From offset 0, ``v``'s four digits; from ``_LEAD``, with its leading zeros
    as NUL bytes (0 keeps its units digit); from ``_TRAIL``, with its trailing
    zeros as NULs (0 keeps its first digit); from ``_COMMA``, ``_LEAD`` with a
    comma before the first digit where there is room (v < 1000).  From
    ``_POINT3`` and ``_LEAD3``, v < 1000 as three digits (plain or ``_LEAD``)
    and a point.  ``_BLANK`` is four NULs and ``_SEP`` ends in a comma.
    """
    # int16 and uint8 keep every temporary small, so none outlives the import
    v = np.arange(10000, dtype=np.int16)[:, None]
    place = np.array([1000, 100, 10, 1], dtype=np.int16)
    plain = (v // place % 10).astype(np.uint8) + np.uint8(48)
    lead = np.where((v >= place) | (place == 1), plain, np.uint8(0))
    trail = np.where((v % (10 * place) != 0) | ((v == 0) & (place == 1000)), plain, np.uint8(0))
    comma = lead.copy()
    small = np.arange(1000)
    comma[small, (small < 100) * 1 + (small < 10)] = ord(",")  # before the first digit
    dot = np.full((1000, 1), ord("."), dtype=np.uint8)
    parts = [plain, lead, trail, comma,
             np.hstack([plain[:1000, 1:], dot]), np.hstack([lead[:1000, 1:], dot]),
             np.zeros((1, 4), dtype=np.uint8), np.array([[0, 0, 0, ord(",")]], dtype=np.uint8)]
    offsets = np.cumsum([0] + [len(p) for p in parts])
    return np.concatenate(parts).view(np.uint32).ravel(), offsets[1:-1].tolist()


_CELLS, (_LEAD, _TRAIL, _COMMA, _POINT3, _LEAD3, _BLANK, _SEP) = _digit_cells()
_CRLF = np.frombuffer(b"\r\n\0\0", dtype=np.uint32)[0]


def _nearest(H2, low, high, zero, k):
    """The multiple of ``10**k`` nearest to each ``H + lo`` (given as ``H2``),
    whether it lies in ``low .. high``, and whether it ties with the next
    one (``None`` when no ``lo`` is 0, so nothing can tie)."""
    step = 10 ** k
    quot = H2 // (2 * step)
    rem = H2 - quot * (2 * step)
    cand = (quot + (rem > step)) * step
    inside = (cand >= low) & (cand <= high)
    return cand, inside, None if zero is None else inside & (rem == step) & zero


def _shortest_decimal(x: np.ndarray):
    """The digits ``repr`` prints for each float64 in ``x``, on whole arrays.

    Returns ``(C, s, q, to_repr)``: the shortest decimal that reads back as
    ``x[i]`` is ``C[i] * 10**-s[i]``, and ``C[i]`` is a multiple of
    ``10**q[i]``.  ``to_repr`` marks the values left to ``repr``: those
    outside [1e-4, 1e16), where ``repr`` uses fixed notation (so zeros,
    negatives and non-finite values too); exact powers of two, whose
    rounding interval is lopsided; and a value whose shortest candidates
    tie: two decimals with its fewest digits, equally near.

    ``s`` makes ``x * 10**s`` a 17-digit number, ``H + lo`` in Dekker's
    error-free product (no FMA needed; ``10**s`` is exact), with ``H`` an
    int64 and ``|lo| <= 1/2``.  The reals that round to ``x`` lie within
    ``hu = ulp(x)/2 * 10**s`` of it, exactly, in those units, so the
    integers strictly inside are ``low .. high``.  For q = 1, 2, ... the
    multiple of ``10**q`` nearest to ``H + lo`` is kept while it lies in
    ``low .. high``; the last one kept has the fewest digits and is the
    nearest of those (Adams, "Ryu", PLDI 2018).  A coarser grid is never
    nearer, so the first miss ends a value's search.  A tie at one level
    does not end it: a shorter candidate may still be inside.

    The shortest decimal of a time in [1e-4, 1e16) lies in that range too,
    so ``repr`` prints it in fixed notation.  No candidate lands on a bound
    of the interval: a bound is an integer only where
    ``s = 1`` and ``x >= 2**52``, so ``hu`` is 5 or 10 and ``10 x`` a
    multiple of 10 or 20, and the multiple of ``10**q`` nearest to it is a
    multiple of 10 or 20 away, never ``hu``.
    """
    ok = (x >= 1e-4) & (x < 1e16)
    x = np.where(ok, x, 1.0)
    mant, exp2 = np.frexp(x)
    # 10**d <= x < 2 * 10**(d + 1) for d = floor((exp2 - 1) * log10(2))
    # (Ryu's log10Pow2), so x * 10**(16 - d) lies in [1e16, 2e17): one step
    # down brings it under 1e17.
    s = 16 - ((exp2 - 1).astype(np.int64) * 78913 >> 18)
    s -= x * _POW10[s] >= 1e17
    # Dekker's product x * 10**s = hi + lo, normalised to H + lo
    hi = x * _POW10[s]
    xh = x * _SPLIT - (x * _SPLIT - x)
    xl = x - xh
    ph, pl = _POW10_HI[s], _POW10_LO[s]
    lo = ((xh * ph - hi) + xh * pl + xl * ph) + xl * pl
    carry = np.rint(lo)
    H = hi.astype(np.int64) + carry.astype(np.int64)
    lo -= carry
    hu = np.ldexp(_POW10[s], exp2 - 54)
    # lo and hu are multiples of 2**(exp2 - 54 + s), at least 2**-47 here,
    # and below 12: lo -+ hu are exact, and so are the integers strictly
    # inside (H + lo - hu, H + lo + hu).
    low = H + (np.floor(lo - hu) + 1).astype(np.int64)
    high = H + (np.ceil(lo + hu) - 1).astype(np.int64)
    to_repr = ~ok | (mant == 0.5)
    H2 = 2 * H + (lo > 0)  # H2 // (2 step) and H2 % (2 step) round H + lo exactly
    zero = lo == 0  # only then can two multiples of 10**k tie
    if not zero.any():
        zero = None
    # The level of a tie between two nearest candidates: it sends a value to
    # repr only if no shorter candidate is inside.
    tied = np.where(np.abs(lo) == 0.5, 0, -1)
    C, q = H, np.zeros(x.shape, dtype=np.int64)
    # While most values are still searching, test them all in place ...
    search, k = ~to_repr, 1
    while k < 18 and 4 * np.count_nonzero(search) > search.size:
        cand, inside, tie = _nearest(H2, low, high, zero, k)
        if tie is not None:
            tied[tie] = k
        search &= inside
        np.copyto(C, cand, where=search)
        q += search
        k += 1
    # ... then only those left.
    live = np.flatnonzero(search)
    H2, low, high = H2[live], low[live], high[live]
    zero = None if zero is None else zero[live]
    for k in range(k, 18):
        if not live.size:
            break
        cand, inside, tie = _nearest(H2, low, high, zero, k)
        if tie is not None:
            tied[live[tie]] = k
        live, H2, low, high = live[inside], H2[inside], low[inside], high[inside]
        zero = None if zero is None else zero[inside]
        C[live] = cand[inside]
        q[live] = k
    to_repr |= tied == q
    return C, s, q, to_repr


def _group(x: np.ndarray, b: int, hi: int) -> np.ndarray:
    """The four digits of ``x`` from ``10**b`` up, as ints; ``hi`` bounds ``x``."""
    if b:
        x = x // 10 ** b
    return x % 10000 if hi >= 10 ** (b + 4) else x


def _cells(v, off, x, lo, hi, *steps):
    """``_CELLS[v + off]``, with ``jump`` added to ``off`` where ``x < bound``
    for each ``(bound, jump)`` of ``steps``.  ``lo`` and ``hi`` bound ``x``,
    so a test that holds for all of it or for none costs nothing."""
    for bound, jump in steps:
        if bound > hi:
            off = off + jump
        elif bound > lo:
            off = off + jump * (x < bound)
    return _CELLS[v + off]


def _int_cells(x: np.ndarray) -> list:
    """The cells of ``,x`` for non-negative ``x``: right-aligned digits and a
    comma before the first (the ``_SEP`` cell when the group above is full)."""
    lo, hi = int(x.min()), int(x.max())
    return [_cells(_group(x, b, hi), 0, x, lo, hi, (10 ** (b + 3), _COMMA),
                   *([(10 ** b, _SEP - _COMMA), (10 ** (b - 1), _BLANK - _SEP)] if b else []))
            for b in reversed(range(0, len(str(hi)) + 1, 4))]  # room for the comma


def _csv_rows(times: np.ndarray, marks: np.ndarray, draws: np.ndarray) -> bytes:
    """The event-CSV rows ``repr(time),mark,draw\r\n`` of the given arrays.

    Each row is a line of 4-byte cells from ``_CELLS`` with NUL bytes for
    padding, and the NULs of all rows go in one ``bytes.translate``.  A time
    ``C * 10**-s`` splits into its integer part (leading zeros blank, the
    last three digits and the point in one cell) and a 20-digit fraction
    (trailing zeros blank past the first digit); an int gets a comma before
    its first digit.  Rows with a time left to ``repr``, or a negative int,
    are formatted by ``%`` and spliced in.
    """
    n = times.size
    if not n:
        return b""
    C, s, q, to_repr = _shortest_decimal(times)
    to_repr |= (marks < 0) | (draws < 0)
    odd = np.flatnonzero(to_repr)
    ints = marks, draws
    if odd.size:  # formatted as 1.0,0,0 and blanked
        C[odd], s[odd], q[odd] = 10 ** 16, 16, 16
        ints = tuple(np.where(to_repr, 0, v) for v in ints)
    scale = _P10[np.minimum(s, 18)]  # C < 10**18, so whole is 0 past that
    whole = C // scale
    frac = C - whole * scale
    # the fraction as 20 digits: a 4-digit head and a 16-digit tail
    shift = np.maximum(s - 4, 0)
    head = frac // _P10[shift]
    tail = (frac - head * _P10[shift]) * _P10[16 - shift]
    if s.min() < 4:
        head *= _P10[np.maximum(4 - s, 0)]
    cells = []
    lo, hi = int(whole.min()), int(whole.max())
    for b in reversed(range(3, len(str(hi)), 4)):  # above the last 3 digits
        cells.append(_cells(_group(whole, b, hi), 0, whole, lo, hi,
                            (10 ** (b + 4), _LEAD), (10 ** b, _BLANK - _LEAD)))
    cells.append(_cells(whole % 1000 if hi >= 1000 else whole, _POINT3, whole, lo, hi, (1000, _LEAD3 - _POINT3)))
    width = np.where(frac == 0, 1, s - q)  # the fraction digits printed
    lo, hi = int(width.min()), int(width.max())
    for b in range(16, 16 - hi, -4):
        cells.append(_cells(head if b == 16 else _group(tail, b, 10 ** 16 - 1), 0, width, lo, hi,
                            (21 - b, _TRAIL), (17 - b, _BLANK - _TRAIL)))
    for v in ints:
        cells += _int_cells(v)
    grid = np.empty((n, len(cells) + 1), dtype=np.uint32)
    for col, cell in enumerate(cells):
        grid[:, col] = cell
    grid[:, -1] = _CRLF
    grid[odd] = 0
    body = grid.tobytes().translate(None, b"\0")
    if not odd.size:
        return body
    ends = np.cumsum(np.count_nonzero(grid.view(np.uint8), axis=1))
    parts, at = [], 0
    for i in odd.tolist():
        parts.append(body[at:ends[i]])
        parts.append(b"%r,%d,%d\r\n" % (float(times[i]), int(marks[i]), int(draws[i])))
        at = ends[i]
    parts.append(body[at:])
    return b"".join(parts)


def _write_events_csv(path: Path, traj: Trajectory) -> None:
    with open(path, "wb") as fh:
        fh.write(",".join(EVENTS_HEADER).encode() + b"\r\n")
        for lo in range(0, len(traj), _CSV_ROWS):
            fh.write(_csv_rows(traj.times[lo:lo + _CSV_ROWS],
                               traj.marks[lo:lo + _CSV_ROWS],
                               traj.draw_indices[lo:lo + _CSV_ROWS]))


def _time_bits(traj: Trajectory) -> np.ndarray:
    return np.asarray(traj.times, dtype=np.float64).view(np.uint64)


def _same_rows(a: Trajectory, b: Trajectory) -> bool:
    """Whether ``a`` and ``b`` give the same event-CSV bytes: the same object,
    or bit-equal times (``0.0`` and ``-0.0`` print apart) and equal marks
    and draw indices."""
    return a is b or (
        len(a) == len(b)
        and np.array_equal(_time_bits(a), _time_bits(b))
        and np.array_equal(a.marks, b.marks)
        and np.array_equal(a.draw_indices, b.draw_indices)
    )


class EventWriter:
    """Writes each seed's event CSVs under ``out_dir`` as the seed finishes.

    Pass it as ``run_experiment``'s ``on_seed``; ``paths`` lists the files
    written so far, in order, for :func:`write_report_bundle`.  The
    directory is made at once, before any seed runs.  A run whose rows equal
    an earlier run's of the same seed gets a copy of that run's file, so
    each distinct trajectory is formatted once per seed.
    """

    def __init__(self, out_dir: Union[str, Path]) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.paths: list[Path] = []

    def __call__(self, seed: int, runs: Sequence[tuple[str, Trajectory]]) -> None:
        formatted: list[tuple[Trajectory, Path]] = []
        for label, traj in runs:
            path = self.out_dir / f"events_seed{seed}_{label}.csv"
            twin = next((p for t, p in formatted if _same_rows(t, traj)), None)
            if twin is None:
                _write_events_csv(path, traj)
                formatted.append((traj, path))
            else:
                shutil.copyfile(twin, path)
            self.paths.append(path)


def write_report_bundle(
    report: ComparisonReport,
    out_dir: Union[str, Path],
    formats: Sequence[str] = ("json", "csv"),
    generated_at: Optional[str] = None,
    events: Sequence[Path] = (),
) -> dict:
    """Write ``report.json`` and ``summary.csv`` under ``out_dir``, as
    ``formats`` asks; returns their paths, with the event CSVs an
    :class:`EventWriter` already wrote there passed in as ``events``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: dict = {"events": list(events)}
    if "json" in formats:
        path = out / "report.json"
        path.write_text(report_json_text(report, generated_at), encoding="utf-8")
        written["report"] = path
    if "csv" in formats:
        path = out / "summary.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(SUMMARY_HEADER)
            for row in summary_rows(report):
                writer.writerow([_cell(v) for v in row])
        written["summary"] = path
    return written
