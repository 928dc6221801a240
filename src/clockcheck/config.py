"""Experiment configuration: a strict INI schema mapped onto an ExperimentPlan.

Sections and keys (all optional unless stated; unknown sections or keys are
rejected, and every diagnostic names the offending key):

* ``[experiment]`` — ``seed`` (one or more distinct 64-bit values,
  whitespace- or comma-separated) OR ``seed_count`` (expands to the
  pre-registered list ``derived_seeds(count)``; default count 20, at most
  ``MAX_SEED_COUNT`` = 2^20),
  ``n_clocks`` (>= 1, default 16), ``horizon`` (positive and finite,
  default 250), ``alpha`` (default 0.01), ``ab_samples`` (default 100000),
  ``fix_samples`` (default 10000).
* ``[fault]`` — ``kind`` in {ideal, power_bias, low_thinning}; ``gamma``
  (power_bias only); ``c`` and ``q`` (low_thinning only).
* ``[transform]`` — ``names``: ordered list from {reflect, rotate_half},
  applied left to right (two or more names compose).
* ``[fix]`` — ``a`` and ``b``: the trusted window, 0 <= a < b <= 1.
* ``[parallel]`` — ``workers``: list of worker counts, each at most 2^31 - 1
  (default "1"); ``mappings``: list from {blocks, round_robin, shuffle}
  (default "blocks"); ``stream_modes``: list from {per_clock, per_worker}
  (default "per_clock").  No list may repeat an entry: a repeated cell would
  write over its twin's event file and count its tests twice.
* ``[output]`` — ``directory`` (default "reports"); ``formats``: nonempty
  list from {json, csv} (default both).
* ``[debug]`` — ``corrupt_per_clock_run``: bool (default false); damages
  one per-clock trajectory per seed so the determinism-breach exit path can
  be demonstrated against a correct build.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from .detector import ExperimentPlan
from .rng import IDEAL, MASK64, FaultModel, LowThinning, PowerBias, derived_seeds
from .transforms import Compose, RescaleWindow, Reflect, RotateHalf, Transform

__all__ = ["ConfigError", "OutputConfig", "load_config", "DEFAULT_SEED_COUNT"]

DEFAULT_SEED_COUNT = 20
# seed_count's cap: the derived list is built before any check or seed runs,
# so a count with no bound would ask for its memory up front
MAX_SEED_COUNT = 1 << 20

_SCHEMA = {
    "experiment": {"seed", "seed_count", "n_clocks", "horizon", "alpha",
                   "ab_samples", "fix_samples"},
    "fault": {"kind", "gamma", "c", "q"},
    "transform": {"names"},
    "fix": {"a", "b"},
    "parallel": {"workers", "mappings", "stream_modes"},
    "output": {"directory", "formats"},
    "debug": {"corrupt_per_clock_run"},
}

#: the key behind each ExperimentPlan field (and ``seed``, one of its seeds); the
#: plan checks every value, and each of its errors starts with the field
_PLAN_KEYS = {
    "seeds": "[experiment] seed",
    "seed": "[experiment] seed",
    "n_clocks": "[experiment] n_clocks",
    "horizon": "[experiment] horizon",
    "alpha": "[experiment] alpha",
    "ab_samples": "[experiment] ab_samples",
    "fix_samples": "[experiment] fix_samples",
    "worker_counts": "[parallel] workers",
    "mappings": "[parallel] mappings",
    "stream_modes": "[parallel] stream_modes",
}

_TRANSFORM_NAMES = {"reflect": Reflect, "rotate_half": RotateHalf}
#: each fault kind's model and its ``[fault]`` keys, in the model's argument order
_FAULT_KINDS = {
    "ideal": (lambda: IDEAL, ()),
    "power_bias": (PowerBias, ("gamma",)),
    "low_thinning": (LowThinning, ("c", "q")),
}


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "reports"
    formats: tuple[str, ...] = ("json", "csv")


def _split_list(raw: str) -> list[str]:
    return [tok for tok in re.split(r"[,\s]+", raw.strip()) if tok]


def _parse_ints(key: str, raw: str) -> tuple[int, ...]:
    values = []
    for tok in _split_list(raw):
        try:
            values.append(int(tok))
        except ValueError:
            raise ConfigError(f"{key}: expected integers, got {tok!r}") from None
    return tuple(values)


class _Section:
    """One validated section with typed, key-naming accessors."""

    def __init__(self, name: str, items: dict):
        self.name = name
        self.items = items

    def _fail(self, key: str, detail: str) -> "ConfigError":
        return ConfigError(f"[{self.name}] {key}: {detail}")

    def raw(self, key: str) -> Optional[str]:
        return self.items.get(key)

    def typed(self, key: str, kind, default):
        raw = self.items.get(key)
        if raw is None:
            return default
        try:
            return kind(raw)
        except ValueError:
            raise self._fail(key, f"expected {kind.__name__}, got {raw!r}") from None

    def boolean(self, key: str, default: bool) -> bool:
        raw = self.items.get(key)
        if raw is None:
            return default
        lowered = raw.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise self._fail(key, f"expected a boolean, got {raw!r}")


def _read_sections(path: Union[str, Path]) -> dict[str, _Section]:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    sections: dict[str, _Section] = {}
    for name in parser.sections():
        if name not in _SCHEMA:
            raise ConfigError(f"unknown section [{name}]")
        for key in parser[name]:
            if key not in _SCHEMA[name]:
                raise ConfigError(f"unknown key {key!r} in section [{name}]")
        sections[name] = _Section(name, dict(parser[name]))
    for name in _SCHEMA:
        sections.setdefault(name, _Section(name, {}))
    return sections


def _parse_seeds(section: _Section, seed_override: Optional[int]) -> tuple[int, ...]:
    if seed_override is not None:
        if not 0 <= seed_override <= MASK64:
            raise ConfigError(f"seed override must fit in 64 bits, got {seed_override}")
        return (seed_override,)
    raw_seed = section.raw("seed")
    raw_count = section.raw("seed_count")
    if raw_seed is not None and raw_count is not None:
        raise ConfigError("[experiment] seed and seed_count are mutually exclusive")
    if raw_seed is not None:
        return _parse_ints("[experiment] seed", raw_seed)
    count = section.typed("seed_count", int, DEFAULT_SEED_COUNT)
    if count < 1:
        raise ConfigError(f"[experiment] seed_count: must be >= 1, got {count}")
    if count > MAX_SEED_COUNT:
        raise ConfigError(f"[experiment] seed_count: must be <= {MAX_SEED_COUNT} (2^20), "
                          f"got {count}")
    return derived_seeds(count)


def _parse_fault(section: _Section) -> FaultModel:
    kind = (section.raw("kind") or "ideal").strip().lower()
    if kind not in _FAULT_KINDS:
        raise ConfigError(f"[fault] kind: unknown kind {kind!r} "
                          f"(expected one of {tuple(_FAULT_KINDS)})")
    model, keys = _FAULT_KINDS[kind]
    present = set(section.items) - {"kind"}
    for problem, names in (("not valid", present - set(keys)), ("required", set(keys) - present)):
        if names:
            raise ConfigError(f"[fault] {sorted(names)[0]}: {problem} for kind={kind}")
    args = [section.typed(key, float, None) for key in keys]
    try:
        return model(*args)
    except ValueError as exc:
        raise ConfigError(f"[fault] {'/'.join(keys)}: {exc}") from None


def _parse_transform(section: _Section) -> Optional[Transform]:
    raw = section.raw("names")
    if raw is None:
        return None
    names = _split_list(raw)
    if not names:
        raise ConfigError("[transform] names: empty list")
    parts = []
    for name in names:
        cls = _TRANSFORM_NAMES.get(name.lower())
        if cls is None:
            raise ConfigError(f"[transform] names: unknown transform {name!r} "
                              f"(expected {sorted(_TRANSFORM_NAMES)})")
        parts.append(cls())
    return parts[0] if len(parts) == 1 else Compose(parts)


def _parse_fix(section: _Section) -> Optional[RescaleWindow]:
    raw_a, raw_b = section.raw("a"), section.raw("b")
    if raw_a is None and raw_b is None:
        return None
    if raw_a is None or raw_b is None:
        missing = "a" if raw_a is None else "b"
        raise ConfigError(f"[fix] {missing}: both a and b are required")
    a, b = section.typed("a", float, None), section.typed("b", float, None)
    try:
        return RescaleWindow(a, b)
    except ValueError as exc:
        raise ConfigError(f"[fix] a/b: {exc}") from None


def _parse_output(section: _Section) -> OutputConfig:
    directory = section.raw("directory") or "reports"
    formats = tuple(_split_list(section.raw("formats") or "json csv"))
    if not formats:
        raise ConfigError("[output] formats: must be nonempty")
    for fmt in formats:
        if fmt not in ("json", "csv"):
            raise ConfigError(f"[output] formats: unknown format {fmt!r} "
                              "(expected json and/or csv)")
    return OutputConfig(directory=directory, formats=formats)


def load_config(
    path: Union[str, Path], seed_override: Optional[int] = None
) -> tuple[ExperimentPlan, OutputConfig]:
    """Parse and validate ``path``; raise :class:`ConfigError` on any defect."""
    sections = _read_sections(path)
    experiment, parallel = sections["experiment"], sections["parallel"]
    try:
        plan = ExperimentPlan(
            seeds=_parse_seeds(experiment, seed_override),
            n_clocks=experiment.typed("n_clocks", int, 16),
            horizon=experiment.typed("horizon", float, 250.0),
            fault=_parse_fault(sections["fault"]),
            transform=_parse_transform(sections["transform"]),
            fix_window=_parse_fix(sections["fix"]),
            worker_counts=_parse_ints("[parallel] workers", parallel.raw("workers") or "1"),
            mappings=tuple(_split_list(parallel.raw("mappings") or "blocks")),
            stream_modes=tuple(tok.lower() for tok in
                               _split_list(parallel.raw("stream_modes") or "per_clock")),
            alpha=experiment.typed("alpha", float, 0.01),
            ab_samples=experiment.typed("ab_samples", int, 100_000),
            fix_samples=experiment.typed("fix_samples", int, 10_000),
            debug_corrupt_per_clock=sections["debug"].boolean("corrupt_per_clock_run", False),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        field, _, detail = str(exc).partition(" ")
        key = _PLAN_KEYS.get(field)
        raise ConfigError(f"{key}: {detail}" if key else str(exc)) from None
    return plan, _parse_output(sections["output"])
