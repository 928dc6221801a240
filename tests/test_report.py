"""Serialization tests: JSON sanitizing, summary CSV, the output bundle, and
the event rows' vectorised float ``repr``."""

import csv
import hashlib
import json
import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from clockcheck import cli, detector, process, report
from clockcheck.detector import Evidence, ExperimentPlan, RunRecord
from clockcheck.process import StreamMode, Trajectory
from clockcheck.report import EVENTS_HEADER, SUMMARY_HEADER, sanitize
from clockcheck.rng import IDEAL, LowThinning
from clockcheck.transforms import Compose, Reflect, RescaleWindow, RotateHalf


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


def test_sanitize_writes_a_record_as_the_dict_of_its_fields():
    assert sanitize(Evidence("ks", np.float64(0.5), None)) == {
        "test": "ks", "statistic": 0.5, "p_value": None}
    empty = RunRecord.of("serial", "serial", _trajectory([], [], []))
    assert sanitize([empty]) == [{"label": "serial", "kind": "serial", "n_events": 0,
                                  "final_time": 0.0, "total_draws": 1,
                                  "mean_inter_event": None}]
    run = RunRecord.of("P1", "parallel", _trajectory([1.0, 3.0], [0, 1], [1, 2]))
    assert sanitize(run)["mean_inter_event"] == 1.5


def test_bundle_serialises_the_report_once(tmp_path, small_report, monkeypatch):
    # report.json and summary.csv are written from one sanitized dict
    calls = []
    real = detector.ComparisonReport.as_dict

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(detector.ComparisonReport, "as_dict", counted)
    report.write_report_bundle(small_report, tmp_path, formats=("json", "csv"))
    assert calls == [small_report]


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _report_digest(out: Path) -> str:
    """sha256 of ``report.json`` without its ``generated_at`` line."""
    text = (out / "report.json").read_bytes()
    return hashlib.sha256(re.sub(rb'^\s*"generated_at": .*\n', b"", text, flags=re.M)).hexdigest()


# Two report shapes the benchmark's workloads do not produce, recorded with
# numpy 2.4.6 and scipy 1.17.1 (the versions CI installs).  A change that
# moves a reported number re-records them, as it re-records the benchmark's
# digests: the numpy summarize, gating each distinct test once, and letting
# few-seed runs gate (ROADMAP.md items 2, 3 and 8) all must.
@pytest.mark.parametrize("command, config, code, digest", [
    ("detect", "breach_demo.ini", 3,
     "a7fb809d017c3936c6e2c3051ec5a0dbb921b66d03351ffaad463498b0395475"),
    ("fix-demo", "fix_thinning.ini", 0,
     "010705b655d09b26d69ea54908644af3c14248fccfd3f43b2d1d05620152819a"),
])
def test_report_shapes_outside_the_benchmark_are_pinned(
        capsys, tmp_path, command, config, code, digest):
    assert cli.main([command, "--config", str(CONFIGS / config), "--out", str(tmp_path)]) == code
    capsys.readouterr()
    body = json.loads((tmp_path / "report.json").read_text())
    for sr in body["seed_reports"]:
        if command == "detect":  # a breach: bit-equality rows carry no p-value
            cross = sr["pairings"][-1]
            assert cross["label"] == "cross_parallel"
            assert cross["verdict"]["determinism_breach"] is True
            assert cross["verdict"]["evidence"] == [
                {"test": "per_clock_bit_equality_1_vs_0", "statistic": 0.0, "p_value": None}]
        else:  # fix only: no runs, pairings or drift
            assert (sr["runs"], sr["pairings"], sr["drift"]) == ([], [], None)
            assert set(sr["fix"]) == {"before", "after", "discard_rate"}
    assert _report_digest(tmp_path) == digest


def test_report_json_text_is_deterministic_given_timestamp(tmp_path, small_report):
    a, b = (report.write_report_bundle(small_report, tmp_path / name, formats=("json",),
                                       generated_at="T")["report"].read_bytes()
            for name in ("a", "b"))
    assert a == b
    assert a.endswith(b"\n")
    body = json.loads(a)
    assert body["generated_at"] == "T"
    assert body["schema_version"] == 1


def test_summary_rows_cover_pairings_and_fix(tmp_path, small_report):
    path = report.write_report_bundle(small_report, tmp_path, formats=("csv",))["summary"]
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert tuple(header) == SUMMARY_HEADER
    assert all(len(r) == len(SUMMARY_HEADER) for r in rows)
    for r in rows:  # statistic and p-value: a float's repr, or "" for None
        assert all(cell == "" or repr(float(cell)) == cell for cell in r[3:5])
    assert any(r[4] == "" for r in rows)
    pairing_labels = {r[1] for r in rows}
    assert "serial_vs_P1-blocks-per_clock" in pairing_labels
    assert "fix_before" in pairing_labels and "fix_after" in pairing_labels
    rate_rows = [r for r in rows if r[2] == "discard_rate"]
    assert len(rate_rows) == 1
    assert float(rate_rows[0][3]) == pytest.approx(0.5, abs=0.02)


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


# ---------------------------------------------------------------------------
# One format per distinct trajectory of a seed; its twins' files are copies.

def _count_formats(monkeypatch):
    """Record the file name of every ``_write_events_csv`` call."""
    names = []
    real = report._write_events_csv

    def counting(path, traj):
        names.append(path.name)
        real(path, traj)

    monkeypatch.setattr(report, "_write_events_csv", counting)
    return names


def _export(out, plan):
    """Run ``plan`` with an :class:`EventWriter` sink; return the writer and
    every trajectory handed to it, in file order."""
    writer = report.EventWriter(out)
    trajectories = []

    def sink(seed, runs):
        trajectories.extend(traj for _, traj in runs)
        writer(seed, runs)

    detector.run_experiment(plan, on_seed=sink)
    return writer, trajectories


# The benchmark's thinning_repair and calibrate_export shapes, on two seeds.
_THINNING_PLAN = dict(
    n_clocks=16, horizon=250.0, fault=LowThinning(0.5, 0.5), transform=Reflect(),
    fix_window=RescaleWindow(0.5, 1.0), worker_counts=(1, 4),
    mappings=("blocks", "round_robin"),
    stream_modes=(StreamMode.PER_CLOCK, StreamMode.PER_WORKER),
    ab_samples=1000,
)
_CALIBRATE_PLAN = dict(
    n_clocks=256, horizon=250.0, transform=Compose((Reflect(), RotateHalf())),
    worker_counts=(1, 2), mappings=("round_robin",), ab_samples=1000,
)


@pytest.mark.parametrize("shape, formatted", [
    # serial, the per-clock runs (all one trajectory), P1 per-worker (blocks
    # and round_robin are one worker's stream) and both P4 per-worker runs
    (_THINNING_PLAN, ["serial", "P1-blocks-per_clock", "P1-blocks-per_worker",
                      "P4-blocks-per_worker", "P4-round_robin-per_worker"]),
    (_CALIBRATE_PLAN, ["serial", "P1-round_robin-per_clock"]),
], ids=["thinning_repair", "calibrate_export"])
def test_each_distinct_trajectory_is_formatted_once_per_seed(
        tmp_path, monkeypatch, shape, formatted):
    # many chunks a file, the last one ragged (3-row chunks would make ~85k
    # calls of the formatting kernel, each with its fixed numpy cost)
    monkeypatch.setattr(report, "_CSV_ROWS", 1000)
    names = _count_formats(monkeypatch)
    plan = ExperimentPlan(seeds=(4, 9), **shape)
    writer, trajectories = _export(tmp_path, plan)
    n_runs = 1 + len(plan.worker_counts) * len(plan.mappings) * len(plan.stream_modes)
    assert len(writer.paths) == 2 * n_runs
    assert names == [f"events_seed{seed}_{label}.csv" for seed in (4, 9) for label in formatted]
    _assert_match_oracle(writer.paths, trajectories)


@pytest.mark.parametrize("change", ["time", "negative_zero", "mark", "draw_index", "length"])
def test_a_trajectory_differing_anywhere_is_formatted_from_its_own_arrays(
        tmp_path, monkeypatch, change):
    monkeypatch.setattr(report, "_CSV_ROWS", 3)
    names = _count_formats(monkeypatch)
    a = _trajectory([0.0, 0.5, 1.25, 2.0, 3.5], [0, 1, 2, 3, 0], [1, 2, 4, 5, 9])
    times, marks, draws = a.times.copy(), a.marks.copy(), a.draw_indices.copy()
    if change == "time":
        times[-1] = np.nextafter(times[-1], np.inf)
    elif change == "negative_zero":
        times[0] = -0.0  # equal to 0.0, but its repr differs
    elif change == "mark":
        marks[2] = 1
    elif change == "draw_index":
        draws[3] = 6
    else:
        times, marks, draws = times[:-1], marks[:-1], draws[:-1]
    b = _trajectory(times, marks, draws)
    paths = _write_events(tmp_path, [a, b])
    assert names == ["events_seed0_t0.csv", "events_seed0_t1.csv"]
    _assert_match_oracle(paths, [a, b])
    assert paths[0].read_bytes() != paths[1].read_bytes()


@pytest.mark.parametrize("corrupt", [False, True])
def test_corrupted_per_clock_cell_gets_its_own_file(tmp_path, monkeypatch, corrupt):
    names = _count_formats(monkeypatch)
    plan = ExperimentPlan(seeds=(2,), n_clocks=8, horizon=200.0, worker_counts=(1, 2),
                          debug_corrupt_per_clock=corrupt)
    writer, trajectories = _export(tmp_path, plan)
    _assert_match_oracle(writer.paths, trajectories)
    serial, first, second = (p.read_bytes() for p in writer.paths)
    if corrupt:
        assert names == ["events_seed2_serial.csv", "events_seed2_P1-blocks-per_clock.csv",
                         "events_seed2_P2-blocks-per_clock.csv"]
        assert first != second
        assert first.split(b"\r\n")[2:] == second.split(b"\r\n")[2:]  # only row 1 moved
    else:
        assert names == ["events_seed2_serial.csv", "events_seed2_P1-blocks-per_clock.csv"]
        assert first == second


# ---------------------------------------------------------------------------
# The vectorised float repr: every row equals the one `%r` formatting gives.

def _assert_rows_equal_repr(times, marks=None, draws=None):
    times = np.asarray(times, dtype=np.float64)
    marks = np.zeros(times.size, dtype=np.int32) if marks is None else np.asarray(marks)
    draws = np.arange(times.size, dtype=np.int64) if draws is None else np.asarray(draws, np.int64)
    for lo in range(0, max(times.size, 1), report._CSV_ROWS):
        part = slice(lo, lo + report._CSV_ROWS)
        got = report._csv_rows(times[part], marks[part], draws[part]).split(b"\r\n")
        want = oracle.event_rows(times[part], marks[part], draws[part]).split(b"\r\n")
        assert len(got) == len(want)
        wrong = [(w, g) for w, g in zip(want, got) if w != g]
        assert not wrong, wrong[:5]


def _from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


_ANY_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # subnormals and negatives too
    st.integers(0, 2**64 - 1).map(_from_bits).filter(math.isfinite),  # uniform over the bits
    st.floats(min_value=1e-4, max_value=1e16, exclude_max=True),  # the kernel's range
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ANY_FINITE, min_size=1, max_size=40))
def test_every_time_cell_is_repr(times):
    _assert_rows_equal_repr(times)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-2**63, 2**63 - 1), st.integers(-2**63, 2**63 - 1)),
                min_size=1, max_size=40))
def test_every_int_cell_is_str(ints):
    marks, draws = zip(*ints)
    _assert_rows_equal_repr(np.linspace(0.5, 250.0, len(ints)), marks, draws)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-2**31, 2**31 - 1), min_size=1, max_size=40))
def test_every_int32_mark_cell_is_str(marks):
    # a trajectory's marks are int32: its cells, the dtype's extremes included
    _assert_rows_equal_repr(np.linspace(0.5, 250.0, len(marks)), np.array(marks, dtype=np.int32))


def _sweep():
    """About 1.1 million doubles: every binade from 2**-17 (below 1e-5) to
    2**57 (above 1e17), and the cases the kernel must get right or leave
    to ``repr``."""
    gen = np.random.default_rng(20261018)
    exponents = np.arange(-17, 57)
    mantissas = gen.integers(0, 2**52, size=(exponents.size, 13_600))
    bits = (exponents[:, None] + 1023) << 52 | mantissas
    near = np.arange(-300, 301, dtype=np.int64)
    switch = np.array([1e-4, 1e16]).view(np.int64)[:, None] + near  # repr changes notation
    powers = np.ldexp(1.0, np.arange(-17, 58)).view(np.int64)[:, None] + np.arange(-3, 4)
    digits = gen.integers(10**15, 10**16, size=20_000)
    scales = gen.integers(-20, 1, size=20_000)
    fives = np.array([float(f"{d}5e{e}") for d, e in zip(digits.tolist(), scales.tolist())])
    fives = fives[[("%.16e" % v)[17] == "5" for v in fives.tolist()]]  # 17th digit 5
    # odd quarters in [2**49, 1e15): 100 x ends in 25 or 75, and the two
    # 16-digit decimals 5 away are both inside the half-gap of 6.25
    ties = (2.0 * gen.integers(2**50, 2 * 10**15, size=2_000) + 1.0) / 4
    return np.concatenate([
        bits.view(np.float64).ravel(),
        switch.view(np.float64).ravel(),
        powers.view(np.float64).ravel(),
        np.arange(1, 200_001) / 1000,  # short decimals
        fives,
        ties,
    ])


def test_sweep_of_a_million_doubles_is_repr():
    times = _sweep()
    assert times.size >= 10**6
    _assert_rows_equal_repr(times)
    in_range = times[(times >= 1e-4) & (times < 1e16)]
    to_repr = report._shortest_decimal(in_range)[3]
    assert to_repr.mean() < 0.05  # ties, powers of two and the binade above 2**52


@pytest.mark.parametrize("value, to_repr", [
    (123.456, False), (0.1, False), (1e-4, False), (9999999999999998.0, False),
    (np.nextafter(1e-4, 0), True), (1e16, True), (0.0, True), (-1.5, True), (5e-324, True),
    (math.inf, True), (math.nan, True),
    (0.5, True), (2.0**40, True),  # powers of two: a lopsided rounding interval
    (1e15 + 0.25, True),  # two 17-digit decimals tie, and no 16-digit one reads back
    (600000000000000.25, True),  # two 16-digit decimals tie inside the interval
    (600000000000000.75, True),  # the same; repr takes the upper one
])
def test_values_left_to_repr(value, to_repr):
    # alone, the search tests it in place; among values left to repr, in a
    # compacted array from the start
    for times in ([value], [value] + [-1.0] * 7):
        assert report._shortest_decimal(np.array(times))[3].tolist()[0] == to_repr
        _assert_rows_equal_repr(times, [3] * len(times), [2**63 - 1] * len(times))


@pytest.mark.parametrize("mode", [StreamMode.PER_CLOCK, None], ids=["per_clock", "serial"])
def test_kernel_formats_nearly_every_simulated_time(mode):
    # Without this bound, a kernel that left every value to repr would pass.
    if mode is None:
        traj = process.simulate_serial(process.SerialConfig(256, 250.0, 3, IDEAL))
    else:
        traj = process.simulate_parallel(
            process.ParallelConfig(256, 250.0, 3, IDEAL, workers=2, stream_mode=mode), {},
            pace=1.0)
    assert len(traj) > 60_000
    assert report._shortest_decimal(traj.times)[3].mean() < 0.01
    _assert_rows_equal_repr(traj.times, traj.marks, traj.draw_indices)
