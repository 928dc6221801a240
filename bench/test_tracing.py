"""Checks of the benchmark's tracer.

Run from the root of a checkout::

    PYTHONPATH=src python -m pytest -q bench/test_tracing.py
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import clockcheck.cli  # noqa: E402  (loads every module that binds a layer)
import clockcheck.stats  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

CONFIG = """\
[experiment]
seed = 7
n_clocks = 16
horizon = 100
[fault]
kind = low_thinning
c = 0.5
q = 0.5
[transform]
names = reflect
[fix]
a = 0.5
b = 1
[parallel]
workers = 1 2
mappings = blocks
stream_modes = per_clock per_worker
"""


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install()
    yield t
    t.uninstall()


def test_no_layer_is_reachable_unwrapped(tracer):
    assert tracing.unwrapped_bindings(tracer.originals) == []


def test_wrapping_only_the_defining_module_is_caught(monkeypatch):
    original = clockcheck.stats.summarize

    def naive(*args, **kwargs):
        return original(*args, **kwargs)

    naive.__wrapped_layer__ = "stats.summarize"
    monkeypatch.setattr(clockcheck.stats, "summarize", naive)
    leaks = tracing.unwrapped_bindings({"stats.summarize": original})
    assert "clockcheck.detector.summarize -> stats.summarize" in leaks
    assert "clockcheck.stats.summarize -> stats.summarize" not in leaks


def test_traced_run_covers_every_layer_and_self_times_add_up(tracer, tmp_path):
    config = tmp_path / "config.ini"
    config.write_text(CONFIG, encoding="utf-8")
    out = tmp_path / "out"
    code = clockcheck.cli.main(["detect", "--config", str(config), "--out", str(out)])
    assert code in (0, 2)

    summary = tracer.summary()
    for module, names in tracing.LAYERS.items():
        for name in names:
            key = f"{module}.{name}"
            calls = sum(v for k, v in summary.items()
                        if k.startswith(key + ".") and k.endswith(".calls"))
            assert calls > 0, f"{key} was never traced"

    roots = [span for span in tracer.spans if span[3] < 0]
    assert [span[0] for span in roots] == ["cli.main"]
    self_total = sum(v for k, v in summary.items() if k.endswith(".self_s"))
    assert math.isclose(self_total, summary["cli.main.s"], rel_tol=1e-9)

    for key, value in run.output_counts(out).items():
        assert summary.get(key, 0) == value, key
