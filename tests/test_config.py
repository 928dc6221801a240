"""INI config parsing: defaults, typed errors, and plan construction."""

import pytest

from clockcheck import config
from clockcheck.config import ConfigError
from clockcheck.process import StreamMode
from clockcheck.rng import Ideal, LowThinning, PowerBias, derived_seeds
from clockcheck.transforms import Compose, Reflect, RotateHalf


def _write(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_empty_config_gets_full_defaults(tmp_path):
    plan, out = config.load_config(_write(tmp_path, ""))
    assert plan.seeds == derived_seeds(20)
    assert plan.n_clocks == 16
    assert plan.horizon == 250.0
    assert plan.alpha == 0.01
    assert isinstance(plan.fault, Ideal)
    assert plan.transform is None
    assert plan.fix_window is None
    assert plan.worker_counts == (1,)
    assert plan.mappings == ("blocks",)
    assert plan.stream_modes == (StreamMode.PER_CLOCK,)
    assert out.directory == "reports"
    assert out.formats == ("json", "csv")


def test_full_config_round_trip(tmp_path):
    text = """
[experiment]
seed_count = 3
n_clocks = 8
horizon = 125.5
alpha = 0.02
ab_samples = 5000
fix_samples = 20000

[fault]
kind = low_thinning
c = 0.5
q = 0.75

[transform]
names = reflect rotate_half

[fix]
a = 0.25
b = 0.75

[parallel]
workers = 2 4
mappings = blocks shuffle
stream_modes = per_clock per_worker

[output]
directory = out/reports
formats = json

[debug]
corrupt_per_clock_run = true
"""
    plan, out = config.load_config(_write(tmp_path, text))
    assert plan.seeds == derived_seeds(3)
    assert plan.n_clocks == 8
    assert plan.horizon == 125.5
    assert plan.alpha == 0.02
    assert plan.ab_samples == 5000
    assert plan.fix_samples == 20000
    assert plan.fault == LowThinning(0.5, 0.75)
    assert plan.transform == Compose([Reflect(), RotateHalf()])
    assert (plan.fix_window.a, plan.fix_window.b) == (0.25, 0.75)
    assert plan.worker_counts == (2, 4)
    assert plan.mappings == ("blocks", "shuffle")
    assert plan.stream_modes == (StreamMode.PER_CLOCK, StreamMode.PER_WORKER)
    assert plan.debug_corrupt_per_clock is True
    assert out.directory == "out/reports"
    assert out.formats == ("json",)


def test_explicit_seed_list(tmp_path):
    plan, _ = config.load_config(_write(tmp_path, "[experiment]\nseed = 5 6, 7\n"))
    assert plan.seeds == (5, 6, 7)


def test_seed_and_seed_count_conflict(tmp_path):
    with pytest.raises(ConfigError, match="mutually exclusive"):
        config.load_config(_write(tmp_path, "[experiment]\nseed = 1\nseed_count = 2\n"))


def test_seed_override_wins(tmp_path):
    path = _write(tmp_path, "[experiment]\nseed = 5 6 7\n")
    plan, _ = config.load_config(path, seed_override=42)
    assert plan.seeds == (42,)


def test_seed_override_validated(tmp_path):
    path = _write(tmp_path, "")
    with pytest.raises(ConfigError, match="64 bits"):
        config.load_config(path, seed_override=-1)
    with pytest.raises(ConfigError, match="64 bits"):
        config.load_config(path, seed_override=1 << 64)


def test_unknown_section_is_named(tmp_path):
    with pytest.raises(ConfigError, match=r"unknown section \[faults\]"):
        config.load_config(_write(tmp_path, "[faults]\nkind = ideal\n"))


def test_unknown_key_is_named(tmp_path):
    with pytest.raises(ConfigError, match="'horizons'"):
        config.load_config(_write(tmp_path, "[experiment]\nhorizons = 10\n"))


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        config.load_config(tmp_path / "nope.ini")


def test_malformed_file(tmp_path):
    with pytest.raises(ConfigError, match="malformed"):
        config.load_config(_write(tmp_path, "n_clocks = 4\n"))  # key before any section


def test_alpha_out_of_range_carries_name(tmp_path):
    with pytest.raises(ConfigError) as info:
        config.load_config(_write(tmp_path, "[experiment]\nalpha = 1.5\n"))
    assert str(info.value) == "[experiment] alpha: must lie in (0, 1), got 1.5"


@pytest.mark.parametrize("text, message", [
    ("[experiment]\nalpha = 2\n", "[experiment] alpha: must lie in (0, 1), got 2.0"),
    ("[experiment]\nn_clocks = 0\n", "[experiment] n_clocks: must be >= 1, got 0"),
    ("[experiment]\nhorizon = -5\n",
     "[experiment] horizon: must be positive and finite, got -5.0"),
    ("[experiment]\nab_samples = 10\n", "[experiment] ab_samples: must be >= 1000, got 10"),
    ("[experiment]\nfix_samples = 10\n",
     "[experiment] fix_samples: must be >= 10000, got 10"),
    ("[experiment]\nab_samples = 10000000000000\n",
     "[experiment] ab_samples: must be <= 4194304 (2^22), got 10000000000000"),
    ("[experiment]\nfix_samples = 4194305\n",
     "[experiment] fix_samples: must be <= 4194304 (2^22), got 4194305"),
    ("[experiment]\nseed = ,\n", "[experiment] seed: must be nonempty"),
    ("[experiment]\nseed = 18446744073709551616\n",
     "[experiment] seed: must fit in 64 bits, got 18446744073709551616"),
    ("[experiment]\nseed = -1\n", "[experiment] seed: must fit in 64 bits, got -1"),
    ("[parallel]\nworkers = 2 0\n", "[parallel] workers: must be >= 1, got 0"),
    ("[parallel]\nworkers = ,\n", "[parallel] workers: must be nonempty"),
    ("[parallel]\nworkers = 1 2147483648\n",
     "[parallel] workers: must be <= 2^31 - 1, got 2147483648"),
    ("[parallel]\nmappings = ,\n", "[parallel] mappings: must be nonempty"),
    ("[parallel]\nstream_modes = ,\n", "[parallel] stream_modes: must be nonempty"),
])
def test_plan_level_errors_name_section_and_key(tmp_path, text, message):
    # ExperimentPlan checks these; the error still reads "[section] key: ..."
    # like every error the parser raises itself.
    with pytest.raises(ConfigError) as info:
        config.load_config(_write(tmp_path, text))
    assert str(info.value) == message


def test_non_numeric_value_is_typed_error(tmp_path):
    with pytest.raises(ConfigError, match=r"\[experiment\] n_clocks"):
        config.load_config(_write(tmp_path, "[experiment]\nn_clocks = many\n"))


# ---------------------------------------------------------------------------
# fault section
# ---------------------------------------------------------------------------


def test_fault_kinds(tmp_path):
    plan, _ = config.load_config(_write(tmp_path, "[fault]\nkind = ideal\n"))
    assert isinstance(plan.fault, Ideal)
    plan, _ = config.load_config(_write(tmp_path, "[fault]\nkind = power_bias\ngamma = 2\n"))
    assert plan.fault == PowerBias(2.0)


def test_fault_unknown_kind(tmp_path):
    with pytest.raises(ConfigError, match="unknown kind 'melt'"):
        config.load_config(_write(tmp_path, "[fault]\nkind = melt\n"))


def test_fault_key_consistency(tmp_path):
    with pytest.raises(ConfigError, match="not valid for kind=ideal"):
        config.load_config(_write(tmp_path, "[fault]\nkind = ideal\ngamma = 2\n"))
    with pytest.raises(ConfigError, match="gamma: required"):
        config.load_config(_write(tmp_path, "[fault]\nkind = power_bias\n"))
    with pytest.raises(ConfigError, match="not valid for kind=power_bias"):
        config.load_config(_write(tmp_path, "[fault]\nkind = power_bias\ngamma = 2\nc = 0.5\n"))
    with pytest.raises(ConfigError, match="required for kind=low_thinning"):
        config.load_config(_write(tmp_path, "[fault]\nkind = low_thinning\nc = 0.5\n"))


def test_fault_bad_parameter_value(tmp_path):
    with pytest.raises(ConfigError, match=r"\[fault\] gamma"):
        config.load_config(_write(tmp_path, "[fault]\nkind = power_bias\ngamma = 0\n"))
    with pytest.raises(ConfigError, match=r"\[fault\] c/q"):
        config.load_config(_write(tmp_path, "[fault]\nkind = low_thinning\nc = 2\nq = 0.5\n"))


# ---------------------------------------------------------------------------
# transform / fix sections
# ---------------------------------------------------------------------------


def test_single_transform_name(tmp_path):
    plan, _ = config.load_config(_write(tmp_path, "[transform]\nnames = rotate_half\n"))
    assert plan.transform == RotateHalf()


def test_transform_unknown_name(tmp_path):
    with pytest.raises(ConfigError, match="unknown transform 'mirror'"):
        config.load_config(_write(tmp_path, "[transform]\nnames = mirror\n"))


def test_fix_requires_both_endpoints(tmp_path):
    with pytest.raises(ConfigError, match="both a and b"):
        config.load_config(_write(tmp_path, "[fix]\na = 0.25\n"))


def test_fix_invalid_window(tmp_path):
    with pytest.raises(ConfigError, match=r"\[fix\] a/b"):
        config.load_config(_write(tmp_path, "[fix]\na = 0.75\nb = 0.25\n"))


# ---------------------------------------------------------------------------
# parallel / output / debug sections
# ---------------------------------------------------------------------------


def test_parallel_validation(tmp_path):
    with pytest.raises(ConfigError, match=r"workers: must be >= 1"):
        config.load_config(_write(tmp_path, "[parallel]\nworkers = 0\n"))
    with pytest.raises(ConfigError,
                       match=r"\[parallel\] mappings: must be drawn from .*, got 'striped'$"):
        config.load_config(_write(tmp_path, "[parallel]\nmappings = striped\n"))
    with pytest.raises(ConfigError, match=r"\[parallel\] stream_modes: must be drawn from .*, "
                                          r"got 'per_thread'$"):
        config.load_config(_write(tmp_path, "[parallel]\nstream_modes = per_thread\n"))


def test_duplicate_seed_is_rejected(tmp_path):
    with pytest.raises(ConfigError, match=r"\[experiment\] seed: must not repeat an entry, "
                                          r"got 3 more than once"):
        config.load_config(_write(tmp_path, "[experiment]\nseed = 3 4, 3\n"))


def test_duplicate_worker_count_is_rejected(tmp_path):
    with pytest.raises(ConfigError, match=r"\[parallel\] workers: must not repeat an entry, "
                                          r"got 1 more than once"):
        config.load_config(_write(tmp_path, "[parallel]\nworkers = 1 1\n"))


def test_duplicate_mapping_is_rejected(tmp_path):
    with pytest.raises(ConfigError, match=r"\[parallel\] mappings: must not repeat an entry, "
                                          r"got 'shuffle' more than once"):
        config.load_config(_write(tmp_path, "[parallel]\nmappings = shuffle blocks shuffle\n"))


def test_duplicate_stream_mode_is_rejected(tmp_path):
    # modes are case-insensitive, so these two spellings name one mode
    with pytest.raises(ConfigError, match=r"\[parallel\] stream_modes: must not repeat an entry, "
                                          r"got 'per_worker' more than once"):
        config.load_config(_write(tmp_path, "[parallel]\nstream_modes = per_worker PER_WORKER\n"))


def test_output_format_validation(tmp_path):
    with pytest.raises(ConfigError, match="unknown format 'xml'"):
        config.load_config(_write(tmp_path, "[output]\nformats = xml\n"))


def test_debug_boolean_parsing(tmp_path):
    plan, _ = config.load_config(_write(tmp_path, "[debug]\ncorrupt_per_clock_run = no\n"))
    assert plan.debug_corrupt_per_clock is False
    with pytest.raises(ConfigError, match="corrupt_per_clock_run"):
        config.load_config(_write(tmp_path, "[debug]\ncorrupt_per_clock_run = maybe\n"))
