"""End-to-end CLI tests over the fixture configs in configs/."""

import json
import re
from pathlib import Path

import pytest

from clockcheck import cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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


def test_detect_flags_power_bias(capsys, tmp_path):
    code = _run("detect", "--config", CONFIGS / "detect_power_bias.ini", "--out", tmp_path)
    assert code == 2
    assert "detect: divergence detected" in capsys.readouterr().out


def test_config_error_exits_one(capsys, tmp_path):
    code = _run("detect", "--config", CONFIGS / "bad_alpha.ini", "--out", tmp_path)
    err = capsys.readouterr().err
    assert code == 1
    assert "config error:" in err
    assert "alpha" in err


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
