"""Command-line front end: parse a config, run the detector, write reports.

Subcommands::

    clockcheck calibrate --config cfg.ini [--out DIR] [--seed-override U64]
    clockcheck detect    --config cfg.ini [--out DIR] [--seed-override U64]
    clockcheck ab-test   --config cfg.ini [--out DIR] [--seed-override U64]
    clockcheck fix-demo  --config cfg.ini [--out DIR] [--seed-override U64]

Each subcommand is one ``run_experiment`` call under its preset in
``_PRESETS``: the stages it runs, the config section it requires, the flag
counts that gate its exit code (``fix-demo``: ``fix_after:`` only) and the
lines it prints.  ``detect`` and ``calibrate`` do not gate on ``[fix]``.

Exit codes (total over every execution):

* 0 — all comparisons consistent (within the statistical band, see below)
* 1 — usage or configuration error
* 2 — statistical divergence detected
* 3 — determinism breach (per-clock parallel runs not bit-identical; an
  implementation defect, reported distinctly from an RNG fault)

Statistical gating: with S seeds at significance alpha, a sound source still
flags each test ~alpha of the time, so a run counts as divergent only when
some single test is flagged on more seeds than the binomial upper band
B(S, alpha) allows (e.g. 8 of 100 at alpha=0.01, 5 of 20).  A literal
any-flag rule would reject an ideal source with high probability at the
default 20 seeds, which is exactly the false-alarm behaviour the band
calibrates away.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Optional

import click

from .config import ConfigError, load_config
from .detector import STAGES, ComparisonReport, TooFewEvents, run_experiment
from .report import EventWriter, write_report_bundle
from .rng import IDEAL, MASK64, StarvedWindow, fault_label
from .stats import binomial_upper_band

__all__ = ["cli", "main"]


@click.group()
def cli() -> None:
    """Detect and repair unit-interval RNG defects by comparing
    distributionally identical serial and parallel Poisson-clock runs."""


@dataclasses.dataclass(frozen=True)
class _Preset:
    """What one subcommand runs, requires, gates on and prints."""

    help: str
    stages: tuple[str, ...]
    verdicts: dict  # exit code -> the last line printed
    requires: Optional[tuple[str, str]] = None  # (plan field, its config key)
    gate: str = ""  # only flag counts whose key starts with this gate the exit
    ideal: bool = False  # force the ideal source
    discard_rate: bool = False  # print the repair's mean discard rate


_PRESETS = {
    "calibrate": _Preset(
        "Run the full plan under the ideal source to establish the baseline.\n\n"
        "Any configured fault is ignored (with a warning): calibration measures\n"
        "the false-alarm rate, so it must run clean.",
        STAGES, {0: "PASS", 2: "FAIL", 3: "FAIL"}, ideal=True),
    "detect": _Preset(
        "Run every configured comparison and flag divergence from the plan.",
        STAGES, {0: "consistent", 2: "divergence detected", 3: "determinism breach"}),
    "ab-test": _Preset(
        "Compare -log(y) with -log(f(y)) for the configured transform(s).",
        ("ab",), {0: "consistent", 2: "divergence detected"},
        requires=("transform", "[transform] names")),
    "fix-demo": _Preset(
        "Evaluate the window rejection-rescale repair, before and after.",
        ("fix",), {0: "repaired stream consistent", 2: "repair failed"},
        requires=("fix_window", "[fix] a/b"), gate="fix_after:", discard_rate=True),
}


def _banded_exit(report: ComparisonReport, key_prefix: str, band: int) -> int:
    """3 on breach, 2 when some test exceeds its binomial flag ``band``, else 0."""
    if report.any_breach:
        return 3
    counts = {k: v for k, v in report.flag_counts.items() if k.startswith(key_prefix)}
    worst = max(counts.values(), default=0)
    click.echo(f"max flags per test: {worst} (band: {band} over {len(report.plan.seeds)} seed(s))")
    return 2 if worst > band else 0


def _subcommand(name: str, preset: _Preset) -> None:
    """Register subcommand ``name``.  Its config errors (exit 1) come in
    this order: the config, the preset's required section, the output
    directory (made before any seed runs), then a bank too small to compare
    (found once a seed has run; no report is written) or a window the
    pipeline starves (found when it is drawn).  A plan whose flag
    band is its seed count cannot exit 2; it is told so on stderr before
    the first seed runs."""

    @cli.command(name, help=preset.help)
    @click.option("--seed-override", type=click.IntRange(0, MASK64), default=None,
                  help="Run with this single seed instead of the configured list.")
    @click.option("--out", "out_dir", default=None, type=click.Path(file_okay=False),
                  help="Output directory (overrides [output] directory).")
    @click.option("--config", "config_path", required=True,
                  type=click.Path(exists=True, dir_okay=False),
                  help="Experiment config file (INI).")
    @click.pass_context
    def command(ctx, config_path, out_dir, seed_override) -> None:
        try:
            plan, output = load_config(config_path, seed_override)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            ctx.exit(1)
        if preset.requires and getattr(plan, preset.requires[0]) is None:
            click.echo(f"config error: {preset.requires[1]}: required for {name}", err=True)
            ctx.exit(1)
        if preset.ideal and plan.fault != IDEAL:
            click.echo(f"warning: {name} forces the ideal source; configured fault "
                       f"'{fault_label(plan.fault)}' ignored", err=True)
            plan = dataclasses.replace(plan, fault=IDEAL)
        plan = dataclasses.replace(plan, stages=preset.stages)
        target = Path(out_dir or output.directory)
        try:
            target.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            click.echo(f"config error: cannot create output directory {target}: "
                       f"{exc.strerror or exc}", err=True)
            ctx.exit(1)
        band = binomial_upper_band(len(plan.seeds), plan.alpha)
        if band >= len(plan.seeds):
            click.echo(f"warning: the flag band over {len(plan.seeds)} seed(s) at alpha "
                       f"{plan.alpha:g} is {band}, every seed: no test can exceed it, so this "
                       "run cannot exit 2", err=True)
        events = EventWriter(target) if "csv" in output.formats else None
        try:
            report = run_experiment(plan, on_seed=events)
        except TooFewEvents as exc:
            click.echo(f"config error: [experiment] n_clocks, horizon: {plan.n_clocks} clocks "
                       f"over horizon {plan.horizon:g} give too few events: {exc}", err=True)
            ctx.exit(1)
        except StarvedWindow as exc:
            click.echo(f"config error: [fix] a/b: {exc}", err=True)
            ctx.exit(1)
        written = write_report_bundle(report, target, output.formats,
                                      events=events.paths if events else ())
        for key in ("report", "summary"):
            if key in written:
                click.echo(f"wrote {written[key]}")
        if written["events"]:
            click.echo(f"wrote {len(written['events'])} event CSV file(s) under {target}")
        if preset.discard_rate:
            rates = [sr.fix.discard_rate for sr in report.seed_reports]
            click.echo(f"mean discard rate: {sum(rates) / len(rates):.4f}")
        code = _banded_exit(report, preset.gate, band)
        click.echo(f"{name}: {preset.verdicts[code]}")
        ctx.exit(code)


for _name, _preset in _PRESETS.items():
    _subcommand(_name, _preset)


def main(argv=None) -> int:
    """Entry point with the documented exit-code contract.

    click's own usage-error exit code is 2, which would collide with the
    divergence code, so errors are mapped here: every usage or config
    problem exits 1.
    """
    try:
        rv = cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:  # some click versions raise instead
        return int(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Abort:
        return 1
    return int(rv) if isinstance(rv, int) else 0


if __name__ == "__main__":
    raise SystemExit(main())
