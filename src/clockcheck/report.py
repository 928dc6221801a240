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
  ``%``-format call per ``_CSV_ROWS``-row chunk, in the same bytes
  ``csv.writer`` gives for rows of (``repr(time)``, mark, draw index): no
  field ever needs quoting, since each is a float ``repr`` or an int.  A
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
_CSV_ROWS = 1 << 16  # event rows formatted and written per chunk


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


def _write_events_csv(path: Path, traj: Trajectory) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(EVENTS_HEADER) + "\r\n")
        for lo in range(0, len(traj), _CSV_ROWS):
            times = traj.times[lo:lo + _CSV_ROWS].tolist()
            cells = [None] * (3 * len(times))
            cells[0::3] = times
            cells[1::3] = traj.marks[lo:lo + _CSV_ROWS].tolist()
            cells[2::3] = traj.draw_indices[lo:lo + _CSV_ROWS].tolist()
            fh.write(("%r,%d,%d\r\n" * len(times)) % tuple(cells))


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
