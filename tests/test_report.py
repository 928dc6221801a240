"""Serialization tests: JSON sanitizing, summary CSV, and the output bundle."""

import csv
import json
import math

import numpy as np
import pytest

from clockcheck import detector, report
from clockcheck.detector import ExperimentPlan
from clockcheck.process import StreamMode
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
def small_report():
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
    return detector.run_experiment(plan)


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


def test_write_report_bundle_respects_formats(tmp_path, small_report):
    written = report.write_report_bundle(small_report, tmp_path / "j", formats=("json",))
    assert (tmp_path / "j" / "report.json").is_file()
    assert not (tmp_path / "j" / "summary.csv").exists()
    assert written["events"] == []

    written = report.write_report_bundle(small_report, tmp_path / "c", formats=("csv",))
    assert not (tmp_path / "c" / "report.json").exists()
    with open(tmp_path / "c" / "summary.csv", newline="") as fh:
        reader = csv.reader(fh)
        assert tuple(next(reader)) == SUMMARY_HEADER
    events = list((tmp_path / "c").glob("events_seed0_*.csv"))
    assert len(events) == 2  # serial + one parallel cell
    with open(events[0], newline="") as fh:
        assert tuple(next(csv.reader(fh))) == EVENTS_HEADER
