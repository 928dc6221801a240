"""clockcheck: expose unit-interval RNG defects by racing a serial Poisson
clock against its parallel twin, and repair them by window rejection-rescale.

The public surface is re-exported here; the modules stay importable on their
own (``clockcheck.rng``, ``.transforms``, ``.process``, ``.stats``,
``.detector``, ``.config``, ``.report``, ``.cli``).  The draw layer takes and
returns rows only: ``substream_rows(seed, ids)`` gives the states of one
stream per row, and ``unit_block`` a (rows x n) grid of samples plus the
advanced states; a single stream is a one-row grid.
"""

from .rng import (
    Ideal,
    IDEAL,
    LowThinning,
    PowerBias,
    derived_seeds,
    substream_rows,
    unit_block,
)
from .transforms import Compose, Reflect, RescaleWindow, RotateHalf
from .process import (
    ParallelConfig,
    SerialConfig,
    StreamMode,
    Trajectory,
    make_mapping,
    simulate_parallel,
    simulate_serial,
)
from .stats import (
    chi_square_uniform,
    clock_drift,
    ks_one_sample,
    ks_two_sample,
    summarize,
    welch_t,
)
from .detector import (
    ComparisonReport,
    ExperimentPlan,
    Verdict,
    cross_parallel_compare,
    fix_evaluation,
    run_experiment,
    serial_parallel_compare,
    transform_ab_test,
)
from .config import ConfigError, load_config
from .report import write_report_bundle

__version__ = "0.1.0"

__all__ = [
    "Ideal", "IDEAL", "LowThinning", "PowerBias",
    "derived_seeds", "substream_rows", "unit_block",
    "Compose", "Reflect", "RescaleWindow", "RotateHalf",
    "ParallelConfig", "SerialConfig", "StreamMode", "Trajectory",
    "make_mapping", "simulate_parallel", "simulate_serial",
    "chi_square_uniform", "clock_drift", "ks_one_sample", "ks_two_sample",
    "summarize", "welch_t",
    "ComparisonReport", "ExperimentPlan", "Verdict", "cross_parallel_compare",
    "fix_evaluation", "run_experiment",
    "serial_parallel_compare", "transform_ab_test",
    "ConfigError", "load_config", "write_report_bundle",
    "__version__",
]
