"""The benchmark's tracer against the simulators it wraps.

``bench/tracing.py`` counts each simulator's events and draws per call, and
``bench/run.py`` requires those counts to equal the report's.  That holds
only while ``simulate_parallel`` is called once per cell, memo hits
included; this plan has cells with equal configs (every mapping at P = 1),
so a memo consulted outside the traced call would show here.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import clockcheck.cli  # noqa: E402  (loads every module that binds a layer)
import run  # noqa: E402
import tracing  # noqa: E402

CONFIG = """\
[experiment]
seed = 7
n_clocks = 16
horizon = 100
[parallel]
workers = 1 2
mappings = blocks round_robin
stream_modes = per_clock per_worker
[output]
formats = json
"""


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install()
    yield t
    t.uninstall()


def test_traced_simulator_counts_equal_the_report_with_equal_cells(tracer, tmp_path):
    config = tmp_path / "config.ini"
    config.write_text(CONFIG, encoding="utf-8")
    out = tmp_path / "out"
    assert clockcheck.cli.main(["detect", "--config", str(config), "--out", str(out)]) == 0

    summary = tracer.summary()
    counts = run.output_counts(out)
    for mode in ("per_clock", "per_worker"):
        key = f"process.simulate_parallel.{mode}"
        assert summary[f"{key}.calls"] == 4  # one call a cell, memo hits included
        for what in ("events", "draws"):
            assert counts[f"{key}.{what}"] > 0
            assert summary[f"{key}.{what}"] == counts[f"{key}.{what}"], (key, what)
