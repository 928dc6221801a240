"""End-to-end CLI tests over the fixture configs in configs/."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from clockcheck import cli, detector

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = Path(__file__).resolve().parent.parent / "src"


def _run(*args):
    return cli.main([str(a) for a in args])


def _strip_generated(text: str) -> str:
    return re.sub(r'^\s*"generated_at": "[^"]*",?\n', "", text, flags=re.M)


def test_calibrate_ideal_passes(capsys, tmp_path):
    code = _run("calibrate", "--config", CONFIGS / "calibrate_ideal.ini", "--out", tmp_path)
    out = capsys.readouterr().out
    assert code == 0
    assert "calibrate: PASS" in out
    assert "max flags per test:" in out


@pytest.mark.parametrize("module", ["clockcheck", "clockcheck.cli"])
def test_python_dash_m_runs_the_cli(tmp_path, module):
    # Without an install, `PYTHONPATH=src python -m clockcheck` (or
    # `-m clockcheck.cli`) runs the command line and keeps its exit codes.
    def run(config, out):
        return subprocess.run(
            [sys.executable, "-m", module, "calibrate", "--config", str(CONFIGS / config),
             "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
            timeout=120)

    ok = run("calibrate_ideal.ini", tmp_path / "ok")
    assert ok.returncode == 0, ok.stderr
    assert "calibrate: PASS" in ok.stdout
    assert (tmp_path / "ok" / "report.json").is_file()
    bad = run("bad_alpha.ini", tmp_path / "bad")
    assert bad.returncode == 1
    assert bad.stderr == "config error: [experiment] alpha: must lie in (0, 1), got 1.5\n"


def test_detect_flags_power_bias(capsys, tmp_path):
    code = _run("detect", "--config", CONFIGS / "detect_power_bias.ini", "--out", tmp_path)
    assert code == 2
    assert "detect: divergence detected" in capsys.readouterr().out


def test_config_error_exits_one(capsys, tmp_path):
    code = _run("detect", "--config", CONFIGS / "bad_alpha.ini", "--out", tmp_path)
    err = capsys.readouterr().err
    assert code == 1
    assert err == "config error: [experiment] alpha: must lie in (0, 1), got 1.5\n"


def test_determinism_breach_exits_three(capsys, tmp_path):
    code = _run("detect", "--config", CONFIGS / "breach_demo.ini", "--out", tmp_path)
    assert code == 3
    assert "detect: determinism breach" in capsys.readouterr().out


def test_ab_test_flags_power_bias(capsys, tmp_path):
    code = _run("ab-test", "--config", CONFIGS / "ab_reflect.ini", "--out", tmp_path)
    assert code == 2
    assert "ab-test: divergence detected" in capsys.readouterr().out


def test_fix_demo_repairs_thinning(capsys, tmp_path):
    code = _run("fix-demo", "--config", CONFIGS / "fix_thinning.ini", "--out", tmp_path)
    out = capsys.readouterr().out
    assert code == 0
    assert "fix-demo: repaired stream consistent" in out
    rate = float(re.search(r"mean discard rate: ([0-9.]+)", out).group(1))
    assert rate == pytest.approx(0.5, abs=0.02)


def test_calibrate_warns_and_ignores_configured_fault(capsys, tmp_path):
    code = _run(
        "calibrate", "--config", CONFIGS / "detect_power_bias.ini", "--out", tmp_path
    )
    captured = capsys.readouterr()
    assert "calibrate forces the ideal source" in captured.err
    assert "power_bias(gamma=2)" in captured.err
    assert code == 0  # with the fault ignored the plan runs clean
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["plan"]["fault"] == "ideal"


def test_seed_override_reaches_report(capsys, tmp_path):
    code = _run(
        "fix-demo", "--config", CONFIGS / "fix_thinning.ini",
        "--out", tmp_path, "--seed-override", 7,
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["plan"]["seeds"] == [7]
    assert len(report["seed_reports"]) == 1


def test_output_bundle_layout(capsys, tmp_path):
    _run("detect", "--config", CONFIGS / "breach_demo.ini", "--out", tmp_path)
    assert (tmp_path / "report.json").is_file()
    assert (tmp_path / "summary.csv").is_file()
    events = sorted(p.name for p in tmp_path.glob("events_seed*.csv"))
    # 2 seeds x (serial + P1 + P4) = 6 event files
    assert len(events) == 6
    assert any("serial" in name for name in events)
    out = capsys.readouterr().out
    assert "wrote" in out


def test_bundle_lists_every_event_file_it_leaves(capsys, tmp_path, monkeypatch):
    # Each seed's event CSVs are written as the seed finishes, yet the
    # bundle's returned paths must still name every file in the directory.
    returned = []
    real = cli.write_report_bundle

    def spy(*args, **kwargs):
        returned.append(real(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(cli, "write_report_bundle", spy)
    _run("detect", "--config", CONFIGS / "breach_demo.ini", "--out", tmp_path)
    capsys.readouterr()
    (written,) = returned
    assert len(written["events"]) == 6
    assert sorted(written["events"]) == sorted(tmp_path.glob("events_*.csv"))
    listed = [written["report"], written["summary"], *written["events"]]
    assert sorted(listed) == sorted(tmp_path.iterdir())


def _forbid_seeds(monkeypatch, never):
    # every subcommand reaches a seed through cli.run_experiment, and each
    # stage through the name detector binds it under
    monkeypatch.setattr(cli, "run_experiment", never)
    for name in ("simulate_serial", "transform_ab_test", "fix_evaluation"):
        monkeypatch.setattr(detector, name, never)


@pytest.mark.parametrize("command,config", [
    ("calibrate", "calibrate_ideal.ini"),
    ("detect", "detect_power_bias.ini"),
    ("ab-test", "ab_reflect.ini"),
    ("fix-demo", "fix_thinning.ini"),
])
def test_unusable_out_dir_is_a_config_error_before_any_seed_runs(
        capsys, tmp_path, monkeypatch, command, config):
    def never(*args, **kwargs):
        raise AssertionError("a seed ran before the output directory was made")

    _forbid_seeds(monkeypatch, never)
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    code = _run(command, "--config", CONFIGS / config, "--out", blocker / "out")
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: cannot create output directory")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["detect", "calibrate"])
@pytest.mark.parametrize("key, value", [
    ("n_clocks", "0"), ("n_clocks", "2147483648"),
    ("horizon", "-5"), ("horizon", "inf"), ("horizon", "nan"),
])
def test_bad_clock_count_or_horizon_is_a_config_error(
        capsys, tmp_path, monkeypatch, command, key, value):
    def never(*args, **kwargs):
        raise AssertionError("a seed ran on an invalid plan")

    for module in (cli, detector):
        monkeypatch.setattr(module, "run_experiment", never)
    config = tmp_path / "bad.ini"
    config.write_text(f"[experiment]\nseed = 1\n{key} = {value}\n", encoding="utf-8")
    out = tmp_path / "out"
    code = _run(command, "--config", config, "--out", out)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"config error: [experiment] {key}: must ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command, config", [
    ("calibrate", "calibrate_ideal.ini"),
    ("detect", "detect_power_bias.ini"),
    ("ab-test", "ab_reflect.ini"),
    ("fix-demo", "fix_thinning.ini"),
])
def test_empty_output_formats_is_a_config_error(
        capsys, tmp_path, monkeypatch, command, config):
    # "formats = ," splits into no format at all: nothing would be written
    def never(*args, **kwargs):
        raise AssertionError("a seed ran with no output format")

    _forbid_seeds(monkeypatch, never)
    text = (CONFIGS / config).read_text(encoding="utf-8")
    assert "[output]" not in text
    bad = tmp_path / "bad.ini"
    bad.write_text(text + "\n[output]\nformats = ,\n", encoding="utf-8")
    out = tmp_path / "out"
    code = _run(command, "--config", bad, "--out", out)
    err = capsys.readouterr().err
    assert code == 1
    assert err == "config error: [output] formats: must be nonempty\n"
    assert not out.exists()


@pytest.mark.parametrize("command, key, section", [
    ("ab-test", "ab_samples", "[transform]\nnames = reflect\n"),
    ("detect", "ab_samples", "[transform]\nnames = reflect\n"),
    ("fix-demo", "fix_samples", "[fix]\na = 0.5\nb = 1\n"),
])
def test_sample_count_above_the_cap_is_a_config_error(
        capsys, tmp_path, monkeypatch, command, key, section):
    # 10^13 samples would ask for a 146 TiB block; the plan refuses them
    # before the output directory is made, so nothing is drawn
    def never(*args, **kwargs):
        raise AssertionError("a seed ran with an uncapped sample count")

    _forbid_seeds(monkeypatch, never)
    bad = tmp_path / "bad.ini"
    bad.write_text(f"[experiment]\nseed = 1\n{key} = 10000000000000\n{section}",
                   encoding="utf-8")
    out = tmp_path / "out"
    code = _run(command, "--config", bad, "--out", out)
    assert code == 1
    assert capsys.readouterr().err == (f"config error: [experiment] {key}: must be <= 4194304 "
                                       f"(2^22), got 10000000000000\n")
    assert not out.exists()


@pytest.mark.parametrize("count", [(1 << 20) + 1, 10**15])
def test_seed_count_above_the_cap_is_a_config_error(capsys, tmp_path, monkeypatch, count):
    # 10^15 derived seeds would ask for petabytes before the first check;
    # the count is refused before the seed list is built, so nothing is
    # allocated and no seed runs
    def never(*args, **kwargs):
        raise AssertionError("the seed list was built for an uncapped count")

    monkeypatch.setattr("clockcheck.config.derived_seeds", never)
    _forbid_seeds(monkeypatch, never)
    bad = tmp_path / "bad.ini"
    bad.write_text(f"[experiment]\nseed_count = {count}\n", encoding="utf-8")
    out = tmp_path / "out"
    code = _run("detect", "--config", bad, "--out", out)
    assert code == 1
    assert capsys.readouterr().err == (f"config error: [experiment] seed_count: must be "
                                       f"<= 1048576 (2^20), got {count}\n")
    assert not out.exists()


_BAND_WARNING_ONE_SEED = ("warning: the flag band over 1 seed(s) at alpha 0.01 is 1, every "
                          "seed: no test can exceed it, so this run cannot exit 2\n")


def test_a_run_that_cannot_exit_two_says_so_before_the_first_seed(capsys, tmp_path, monkeypatch):
    # binomial_upper_band(1, 0.01) is 1: the one seed flags both A/B tests,
    # yet stays inside the band; the exit code and stdout stay as they were
    seen = []
    real = cli.run_experiment

    def spy(*args, **kwargs):
        seen.append(capsys.readouterr().err)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "run_experiment", spy)
    code = _run("ab-test", "--config", CONFIGS / "ab_reflect.ini", "--out", tmp_path,
                "--seed-override", 7)
    captured = capsys.readouterr()
    assert code == 0
    assert seen == [_BAND_WARNING_ONE_SEED]
    assert captured.err == ""
    assert captured.out.endswith("max flags per test: 1 (band: 1 over 1 seed(s))\n"
                                 "ab-test: consistent\n")


def test_a_run_that_can_exit_two_prints_no_band_warning(capsys, tmp_path):
    code = _run("ab-test", "--config", CONFIGS / "ab_reflect.ini", "--out", tmp_path)
    captured = capsys.readouterr()
    assert code == 2  # 4 seeds: band 3
    assert captured.err == ""
    assert "band: 3 over 4 seed(s)" in captured.out


@pytest.mark.parametrize("command", ["detect", "calibrate"])
def test_bank_below_the_comparison_floor_is_a_config_error(capsys, tmp_path, command):
    # 4 clocks over horizon 200 draw about 800 events a run, short of the
    # 1000 a serial/parallel comparison needs; this is known only once the
    # first seed has been simulated.
    config = tmp_path / "small.ini"
    config.write_text("[experiment]\nseed = 1\nn_clocks = 4\nhorizon = 200\n",
                      encoding="utf-8")
    out = tmp_path / "out"
    code = _run(command, "--config", config, "--out", out)
    err = capsys.readouterr().err
    assert code == 1
    assert err == (_BAND_WARNING_ONE_SEED +
                   "config error: [experiment] n_clocks, horizon: 4 clocks over horizon "
                   "200 give too few events: serial_parallel_compare requires >= 1000 "
                   "events per side, got 780 and 804\n")
    assert not (out / "report.json").exists()


_STARVED = {
    # the thinning leaves only (0.5, 1), which the reflection moves out of the window
    "thinning": "[fault]\nkind = low_thinning\nc = 0.5\nq = 1\n[transform]\nnames = reflect\n"
                "[fix]\na = 0.5\nb = 1\n",
    "narrow": "[fix]\na = 0.5\nb = 0.50001\n",  # odds of 1e-5 on the ideal source
}


@pytest.mark.parametrize("command, case", [("detect", "thinning"), ("detect", "narrow"),
                                           ("fix-demo", "narrow")])
def test_starved_window_is_a_config_error(tmp_path, command, case):
    # Known only once the window is drawn; one line on stderr, no traceback
    # and no report.
    config = tmp_path / "starved.ini"
    config.write_text("[experiment]\nn_clocks = 4\nhorizon = 10\n" + _STARVED[case],
                      encoding="utf-8")
    out = tmp_path / "out"
    run = subprocess.run(
        [sys.executable, "-m", "clockcheck", command, "--config", str(config), "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=120)
    assert run.returncode == 1
    assert "Traceback" not in run.stderr
    assert len(run.stderr.splitlines()) == 1
    assert re.fullmatch(r"config error: \[fix\] a/b: window \(0\.5, (1\.0|0\.50001)\) accepted "
                        r"\d+ of \d+ pipeline draws: the pipeline never lands inside it, or "
                        r"with odds below 0\.0001, which is not supported\n", run.stderr)
    assert not (out / "report.json").exists()


def test_only_the_event_shortfall_becomes_a_config_error(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("some other defect")

    monkeypatch.setattr(cli, "run_experiment", broken)
    with pytest.raises(ValueError, match="some other defect"):
        _run("detect", "--config", CONFIGS / "detect_power_bias.ini", "--out", tmp_path)


def test_reports_are_byte_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _run("detect", "--config", CONFIGS / "breach_demo.ini", "--out", a)
    _run("detect", "--config", CONFIGS / "breach_demo.ini", "--out", b)
    capsys.readouterr()
    assert _strip_generated((a / "report.json").read_text()) == _strip_generated(
        (b / "report.json").read_text()
    )
    assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()


def test_summary_csv_numbers_appear_verbatim_in_json(capsys, tmp_path):
    _run("detect", "--config", CONFIGS / "breach_demo.ini", "--out", tmp_path)
    capsys.readouterr()
    json_text = (tmp_path / "report.json").read_text()
    rows = (tmp_path / "summary.csv").read_text().splitlines()[1:]
    floats = [
        cell
        for row in rows
        for cell in row.split(",")
        if re.fullmatch(r"-?\d+\.\d+(e-?\d+)?", cell)
    ]
    assert floats  # the summary is not empty
    for cell in floats:
        assert cell in json_text, cell


def test_missing_config_file_exits_one(capsys):
    code = _run("detect", "--config", CONFIGS / "does_not_exist.ini")
    assert code == 1
    assert "does_not_exist" in capsys.readouterr().err


def test_ab_test_requires_transform_section(capsys, tmp_path):
    code = _run("ab-test", "--config", CONFIGS / "fix_thinning.ini", "--out", tmp_path)
    assert code == 1
    assert "required for ab-test" in capsys.readouterr().err


def test_fix_demo_requires_fix_section(capsys, tmp_path):
    code = _run("fix-demo", "--config", CONFIGS / "calibrate_ideal.ini", "--out", tmp_path)
    assert code == 1
    assert "required for fix-demo" in capsys.readouterr().err


def test_help_and_unknown_subcommand(capsys):
    assert _run("--help") == 0
    assert "calibrate" in capsys.readouterr().out
    assert _run("frobnicate") == 1
