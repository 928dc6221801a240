"""Serialization tests: JSON sanitizing, summary CSV, and the output bundle."""

import csv
import json
import math

import numpy as np
import pytest

import oracle
from clockcheck import detector, report
from clockcheck.detector import ExperimentPlan
from clockcheck.process import StreamMode, Trajectory
from clockcheck.report import (
    EVENTS_HEADER,
    SUMMARY_HEADER,
    report_json_text,
    sanitize,
    summary_rows,
)
from clockcheck.rng import LowThinning
from clockcheck.transforms import RescaleWindow


@pytest.fixture(scope="module")
def small_run():
    """The small plan's report, and the ``(seed, [(label, trajectory)])``
    lists ``run_experiment`` handed to its ``on_seed`` sink."""
    plan = ExperimentPlan(
        seeds=(0,),
        n_clocks=8,
        horizon=150.0,
        fault=LowThinning(0.5, 1.0),
        fix_window=RescaleWindow(0.5, 1.0),
        worker_counts=(1,),
        mappings=("blocks",),
        stream_modes=(StreamMode.PER_CLOCK,),
        ab_samples=2000,
        fix_samples=10_000,
    )
    seeds = []
    result = detector.run_experiment(plan, on_seed=lambda seed, runs: seeds.append((seed, runs)))
    return result, seeds


@pytest.fixture(scope="module")
def small_report(small_run):
    return small_run[0]


def _write_seeds(out, seeds):
    """Each seed's event CSVs through the per-seed writer; returns the writer."""
    writer = report.EventWriter(out)
    for seed, runs in seeds:
        writer(seed, runs)
    return writer


def test_sanitize_coerces_numpy_and_nonfinite():
    raw = {
        "i": np.int64(3),
        "f": np.float64(0.25),
        "b": np.bool_(True),
        "nan": float("nan"),
        "inf": math.inf,
        "seq": (np.float64(1.5), [np.int32(2)]),
    }
    clean = sanitize(raw)
    assert clean["i"] == 3 and type(clean["i"]) is int
    assert clean["f"] == 0.25 and type(clean["f"]) is float
    assert clean["b"] is True
    assert clean["nan"] == "nan"
    assert clean["inf"] == "inf"
    assert clean["seq"] == [1.5, [2]]
    assert json.dumps(clean)  # round-trips through the JSON encoder


def test_report_json_text_is_deterministic_given_timestamp(small_report):
    a = report_json_text(small_report, generated_at="T")
    b = report_json_text(small_report, generated_at="T")
    assert a == b
    assert a.endswith("\n")
    body = json.loads(a)
    assert body["generated_at"] == "T"
    assert body["schema_version"] == 1


def test_summary_rows_cover_pairings_and_fix(small_report):
    rows = summary_rows(small_report)
    assert all(len(r) == len(SUMMARY_HEADER) for r in rows)
    pairing_labels = {r[1] for r in rows}
    assert "serial_vs_P1-blocks-per_clock" in pairing_labels
    assert "fix_before" in pairing_labels and "fix_after" in pairing_labels
    rate_rows = [r for r in rows if r[2] == "discard_rate"]
    assert len(rate_rows) == 1
    assert rate_rows[0][3] == pytest.approx(0.5, abs=0.02)


def test_write_report_bundle_respects_formats(tmp_path, small_run):
    small_report, seeds = small_run
    written = report.write_report_bundle(small_report, tmp_path / "j", formats=("json",))
    assert (tmp_path / "j" / "report.json").is_file()
    assert not (tmp_path / "j" / "summary.csv").exists()
    assert written["events"] == []

    writer = _write_seeds(tmp_path / "c", seeds)
    written = report.write_report_bundle(small_report, tmp_path / "c", formats=("csv",),
                                         events=writer.paths)
    assert not (tmp_path / "c" / "report.json").exists()
    with open(tmp_path / "c" / "summary.csv", newline="") as fh:
        reader = csv.reader(fh)
        assert tuple(next(reader)) == SUMMARY_HEADER
    events = list((tmp_path / "c").glob("events_seed0_*.csv"))
    assert len(events) == 2  # serial + one parallel cell
    with open(events[0], newline="") as fh:
        assert tuple(next(csv.reader(fh))) == EVENTS_HEADER


def _trajectory(times, marks, draw_indices, n_clocks=4):
    return Trajectory(
        times=np.asarray(times, dtype=np.float64),
        marks=np.asarray(marks, dtype=np.int64),
        draw_indices=np.asarray(draw_indices, dtype=np.int64),
        total_draws=int(max(draw_indices, default=0)) + 1,
        n_clocks=n_clocks,
    )


def _random_trajectory(n, seed=0):
    gen = np.random.default_rng(seed)
    return _trajectory(np.cumsum(gen.exponential(size=n)),
                       gen.integers(0, 4, size=n),
                       np.arange(1, n + 1) * 3)


def _write_events(out, trajectories):
    """Write ``trajectories`` as the runs of one seed; return the event files."""
    return _write_seeds(out, [(0, [(f"t{i}", t) for i, t in enumerate(trajectories)])]).paths


def _assert_match_oracle(paths, trajectories):
    assert len(paths) == len(trajectories)
    for path, traj in zip(paths, trajectories):
        assert path.read_bytes() == oracle.events_csv_text(traj).encode("utf-8")


def test_event_csvs_equal_csv_writer_bytes(tmp_path, small_run):
    small_report, seeds = small_run
    writer = _write_seeds(tmp_path, seeds)
    written = report.write_report_bundle(small_report, tmp_path, formats=("csv",),
                                         events=writer.paths)
    runs = [traj for _, seed_runs in seeds for _, traj in seed_runs]
    assert min(len(t) for t in runs) > 0
    _assert_match_oracle(written["events"], runs)


def test_empty_event_csv_is_header_only(tmp_path):
    empty = _trajectory([], [], [])
    (path,) = _write_events(tmp_path, [empty])
    assert path.read_bytes() == b"time,mark,draw_index\r\n"
    _assert_match_oracle([path], [empty])


def test_event_csv_scientific_times_and_wide_draw_indices(tmp_path):
    traj = _trajectory([5e-324, 1.5e-07, 1e-05, 0.1, 12345.678901234567],
                       [3, 0, 2, 1, 3],
                       [1, 2**31 + 7, 2**40, 2**62, 2**63 - 1])
    (path,) = _write_events(tmp_path, [traj])
    _assert_match_oracle([path], [traj])
    lines = path.read_bytes().split(b"\r\n")
    assert lines[1] == b"5e-324,3,1"
    assert lines[2] == f"1.5e-07,0,{2**31 + 7}".encode()


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7])
def test_event_csv_chunk_edges(tmp_path, monkeypatch, n):
    monkeypatch.setattr(report, "_CSV_ROWS", 3)
    traj = _random_trajectory(n, seed=n)
    (path,) = _write_events(tmp_path, [traj])
    _assert_match_oracle([path], [traj])


def test_event_csv_parses_back_to_the_trajectory(tmp_path, small_run, monkeypatch):
    monkeypatch.setattr(report, "_CSV_ROWS", 3)
    (label, serial), _ = small_run[1][0][1]
    assert label == "serial"
    for traj in (serial, _random_trajectory(10)):
        (path,) = _write_events(tmp_path / str(len(traj)), [traj])
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            assert tuple(next(reader)) == EVENTS_HEADER
            rows = list(reader)
        times = np.array([float(r[0]) for r in rows], dtype=np.float64)
        assert np.array_equal(times, traj.times)  # repr round-trips exactly
        assert [int(r[1]) for r in rows] == traj.marks.tolist()
        assert [int(r[2]) for r in rows] == traj.draw_indices.tolist()
