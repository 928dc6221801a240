"""Acceptance gate: ten end-to-end criteria with analytic targets.

Run with ``pytest -v tests/test_acceptance.py`` — each criterion is one test,
so the verbose report shows one PASS/FAIL line per criterion.  Criteria with
a runtime budget measure and assert it.  Analytic targets:

  * E[-log x] = 1 for uniform x; E[-log x**(1/2)] = 1/2 (slow clock).
  * A/B arm means under power_bias(2): raw 1/2, reflected 3/2 (quadrature).
  * Serial mark law under power_bias(2), N=4: P(mark=k) = (2k+1)/16.
  * low_thinning(0.5, 1) twice-rescaled by window (0.5, 1) is exactly uniform.
"""

import json
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

import oracle
from clockcheck import cli, detector, process, stats
from clockcheck.detector import CONSISTENT
from clockcheck.process import (
    MAPPING_KINDS,
    ParallelConfig,
    SerialConfig,
    Trajectory,
    make_mapping,
)
from clockcheck.rng import IDEAL, LowThinning, PowerBias, derived_seeds
from clockcheck.stats import uniform_cdf
from clockcheck.transforms import Reflect, RescaleWindow

_PB2 = PowerBias(2.0)
_SEEDS_100 = derived_seeds(100)
_CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _evidence(verdict):
    return {e.test: e for e in verdict.evidence}


def test_criterion_01_bit_identical_under_remapping():
    """P in {1,2,4,8} x 3 mappings: 12 per-clock runs, exact equality, <5s."""
    start = time.perf_counter()
    base = None
    runs = 0
    for workers in (1, 2, 4, 8):
        for kind in MAPPING_KINDS:
            cfg = ParallelConfig(
                n_clocks=64,
                horizon=100.0,
                seed=_SEEDS_100[0],
                workers=workers,
                mapping=make_mapping(kind, 64, workers, seed=_SEEDS_100[0]),
            )
            traj = process.simulate_parallel(cfg)
            runs += 1
            if base is None:
                base = traj
            else:
                assert np.array_equal(traj.times, base.times), (workers, kind)
                assert np.array_equal(traj.marks, base.marks), (workers, kind)
                assert np.array_equal(traj.draw_indices, base.draw_indices)
                assert traj.total_draws == base.total_draws
    elapsed = time.perf_counter() - start
    assert runs == 12
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"criterion 1: PASS — 12 remapped runs bit-identical in {elapsed:.2f}s")


def test_criterion_02_type_one_calibration():
    """Ideal source, 100 seeds: <=8/100 flags per test, A/B <=8/100, <60s."""
    start = time.perf_counter()
    flags = {}
    ab_flags = 0
    for seed in _SEEDS_100:
        serial = process.simulate_serial(SerialConfig(16, 100.0, seed))
        parallel = process.simulate_parallel(ParallelConfig(16, 100.0, seed))
        verdict = detector.serial_parallel_compare(serial, parallel, alpha=0.01)
        for e in verdict.evidence:
            if e.p_value is not None and e.p_value < 0.01:
                flags[e.test] = flags.get(e.test, 0) + 1
        ab = detector.transform_ab_test(IDEAL, Reflect(), 100_000, alpha=0.01, seed=seed)
        ab_flags += ab.diverged
    elapsed = time.perf_counter() - start
    worst = max(flags.values(), default=0)
    assert worst <= 8, f"flag counts {flags}"
    assert ab_flags <= 8, f"A/B flagged {ab_flags}/100"
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    print(
        f"criterion 2: PASS — worst per-test flags {worst}/100, A/B {ab_flags}/100 "
        f"in {elapsed:.1f}s"
    )


def test_criterion_03_detection_power():
    """power_bias(2), N=16, >=1e5 events/side: p<1e-3 in >=95/100, <120s."""
    start = time.perf_counter()
    detected = 0
    for seed in _SEEDS_100:
        serial = process.simulate_serial(SerialConfig(16, 3200.0, seed, _PB2))
        parallel = process.simulate_parallel(ParallelConfig(16, 3200.0, seed, _PB2))
        assert len(serial) >= 100_000 and len(parallel) >= 100_000
        verdict = detector.serial_parallel_compare(serial, parallel, alpha=0.01)
        p_values = [e.p_value for e in verdict.evidence if e.p_value is not None]
        if verdict.diverged and min(p_values) < 1e-3:
            detected += 1
    elapsed = time.perf_counter() - start
    assert detected >= 95, f"detected {detected}/100"
    assert elapsed < 120.0, f"took {elapsed:.2f}s"
    print(f"criterion 3: PASS — divergence in {detected}/100 seeds in {elapsed:.1f}s")


def test_criterion_04_slow_clock_law():
    """power_bias(2) serial N=1: mean increment 0.5±1%, lag grows, >=99/100."""
    k = 100_000
    passes = 0
    for seed in _SEEDS_100:
        traj = process.simulate_serial(SerialConfig(1, 51_000.0, seed, _PB2))
        if len(traj) < k:
            continue

        def head(n: int) -> Trajectory:
            return Trajectory(
                times=traj.times[:n],
                marks=traj.marks[:n],
                draw_indices=traj.draw_indices[:n],
                total_draws=traj.total_draws,
                n_clocks=1,
            )

        mean_inc = float(traj.times[k - 1]) / k
        lag_full = stats.clock_drift(head(k), 1.0).lag
        lag_half = stats.clock_drift(head(k // 2), 1.0).lag
        if abs(mean_inc - 0.5) <= 0.005 and lag_full > lag_half:
            passes += 1
    assert passes >= 99, f"passed {passes}/100"
    print(f"criterion 4: PASS — slow-clock law held in {passes}/100 seeds")


def test_criterion_05_ab_oracle_means():
    """A/B means: biased 0.5/1.5 within 2%; ideal 1.0 within 2%, consistent."""
    biased = _evidence(
        detector.transform_ab_test(_PB2, Reflect(), 100_000, alpha=0.01, seed=_SEEDS_100[0])
    )
    assert biased["raw_mean"].statistic == pytest.approx(0.5, rel=0.02)
    assert biased["transformed_mean"].statistic == pytest.approx(1.5, rel=0.02)
    ideal = detector.transform_ab_test(IDEAL, Reflect(), 100_000, alpha=0.01, seed=_SEEDS_100[0])
    rows = _evidence(ideal)
    assert rows["raw_mean"].statistic == pytest.approx(1.0, rel=0.02)
    assert rows["transformed_mean"].statistic == pytest.approx(1.0, rel=0.02)
    assert ideal.outcome == CONSISTENT
    print(
        "criterion 5: PASS — A/B means "
        f"{biased['raw_mean'].statistic:.4f}/{biased['transformed_mean'].statistic:.4f} "
        f"(biased), {rows['raw_mean'].statistic:.4f}/{rows['transformed_mean'].statistic:.4f} (ideal)"
    )


def test_criterion_06_exact_fix():
    """low_thinning(0.5,1) + window (0.5,1): broken before, uniform after."""
    n = 10_000
    report = detector.fix_evaluation(
        LowThinning(0.5, 1.0), RescaleWindow(0.5, 1.0), n, alpha=0.01,
        seed=_SEEDS_100[0],
    )
    before = _evidence(report.before)["uniform_ks"]
    after = _evidence(report.after)["uniform_ks"]
    assert before.p_value < 1e-6
    assert after.p_value > 0.01
    assert report.after.outcome == CONSISTENT  # includes both A/B rows
    attempts = report.discard_rate * 3 * n / (1 - report.discard_rate) + 3 * n
    se = math.sqrt(0.25 / attempts)
    assert abs(report.discard_rate - 0.5) <= 3 * se
    print(
        f"criterion 6: PASS — before p={before.p_value:.2e}, after p={after.p_value:.3f}, "
        f"discard rate {report.discard_rate:.4f}"
    )


def test_criterion_07_serial_mark_skew():
    """power_bias(2), N=4: mark law {1,3,5,7}/16 at 3 SE; parallel marks clean."""
    n = 100_000
    serial = process.simulate_serial(SerialConfig(4, 13_000.0, _SEEDS_100[0], _PB2))
    assert len(serial) >= n
    marks = serial.marks[:n]
    counts = np.bincount(marks, minlength=4)
    for k in range(4):
        p = (2 * k + 1) / 16.0
        se = math.sqrt(n * p * (1.0 - p))
        assert abs(counts[k] - n * p) <= 3.0 * se, (k, counts[k], n * p)
    parallel = process.simulate_parallel(ParallelConfig(4, 13_000.0, _SEEDS_100[0], _PB2))
    chi = stats.chi_square_uniform(parallel.per_clock_ticks)
    assert chi.p_value > 0.01
    freqs = ", ".join(f"{c / n:.4f}" for c in counts)
    print(f"criterion 7: PASS — serial mark freqs [{freqs}], parallel chi2 p={chi.p_value:.3f}")


def test_criterion_08_serial_blind_spot():
    """power_bias(2) serial alone passes its own fitted-exponential KS >=90/100."""
    passes = 0
    for seed in _SEEDS_100:
        traj = process.simulate_serial(SerialConfig(16, 100.0, seed, _PB2))
        verdict = oracle.fitted_exponential_check(traj, alpha=0.01)
        passes += verdict.outcome == CONSISTENT
    assert passes >= 90, f"passed {passes}/100"
    print(f"criterion 8: PASS — biased serial runs self-certified in {passes}/100 seeds")


def test_criterion_09_stats_unit_oracles():
    """Hand-worked exact values for the three statistics kernels."""
    res = stats.ks_one_sample([0.1, 0.2, 0.3], uniform_cdf)
    assert res.statistic == pytest.approx(0.7, abs=1e-15)
    chi = stats.chi_square_uniform([25, 25, 25, 25])
    assert chi.statistic == 0.0 and chi.p_value == 1.0
    s = stats.summarize([1.0, 2.0, 3.0])
    assert stats.welch_t(s, s) == 1.0
    print("criterion 9: PASS — KS D=0.7, chi2=0 balanced, Welch p=1 identical")


def test_criterion_10_cli_contract(tmp_path, capsys):
    """Byte-identical report.json per config; exit codes 0/1/2/3 exercised."""
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["detect", "--config", str(_CONFIGS / "breach_demo.ini"), "--out", str(a)]) == 3
    assert cli.main(["detect", "--config", str(_CONFIGS / "breach_demo.ini"), "--out", str(b)]) == 3

    def stripped(path: Path) -> str:
        return re.sub(r'^\s*"generated_at": "[^"]*",?\n', "",
                      (path / "report.json").read_text(), flags=re.M)

    assert stripped(a) == stripped(b)
    json.loads((a / "report.json").read_text())  # well-formed

    codes = {
        "calibrate_ideal.ini": ("calibrate", 0),
        "bad_alpha.ini": ("detect", 1),
        "detect_power_bias.ini": ("detect", 2),
        "breach_demo.ini": ("detect", 3),
    }
    seen = set()
    for name, (command, expected) in codes.items():
        out = tmp_path / name.replace(".ini", "")
        code = cli.main([command, "--config", str(_CONFIGS / name), "--out", str(out)])
        assert code == expected, f"{name}: expected {expected}, got {code}"
        seen.add(code)
    capsys.readouterr()
    assert seen == {0, 1, 2, 3}
    print("criterion 10: PASS — byte-stable reports; exit codes 0/1/2/3 exercised")
