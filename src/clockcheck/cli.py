"""Command-line front end: parse a config, run the detector, write reports.

Subcommands::

    clockcheck calibrate --config cfg.ini [--out DIR] [--seed-override U64]
    clockcheck detect    --config cfg.ini [--out DIR] [--seed-override U64]
    clockcheck ab-test   --config cfg.ini [--out DIR] [--seed-override U64]
    clockcheck fix-demo  --config cfg.ini [--out DIR] [--seed-override U64]

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
from collections import Counter
from pathlib import Path
from typing import Optional

import click

from .config import ConfigError, OutputConfig, load_config
from .detector import (
    ComparisonReport,
    ExperimentPlan,
    PairingRecord,
    SeedReport,
    TooFewEvents,
    fix_evaluation,
    run_experiment,
    transform_ab_test,
)
from .report import EventWriter, write_report_bundle
from .rng import IDEAL, MASK64, fault_label
from .stats import binomial_upper_band
from .transforms import transform_label

__all__ = ["cli", "main"]


@click.group()
def cli() -> None:
    """Detect and repair unit-interval RNG defects by comparing
    distributionally identical serial and parallel Poisson-clock runs."""


def _common_options(f):
    f = click.option(
        "--config", "config_path", required=True,
        type=click.Path(exists=True, dir_okay=False),
        help="Experiment config file (INI).",
    )(f)
    f = click.option(
        "--out", "out_dir", default=None, type=click.Path(file_okay=False),
        help="Output directory (overrides [output] directory).",
    )(f)
    f = click.option(
        "--seed-override", type=click.IntRange(0, MASK64), default=None,
        help="Run with this single seed instead of the configured list.",
    )(f)
    return f


def _load(config_path: str, seed_override: Optional[int]):
    try:
        return load_config(config_path, seed_override)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        return None


def _out_dir(ctx, output: OutputConfig, out_dir: Optional[str]) -> Path:
    """The output directory, made before the first seed runs; a config error
    (exit 1) when it cannot be made."""
    target = Path(out_dir) if out_dir else Path(output.directory)
    try:
        target.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        click.echo(f"config error: cannot create output directory {target}: "
                   f"{exc.strerror or exc}", err=True)
        ctx.exit(1)
    return target


def _write(report: ComparisonReport, output: OutputConfig, target: Path,
           events: Optional[EventWriter] = None) -> None:
    written = write_report_bundle(report, target, output.formats,
                                  events=events.paths if events else ())
    for key in ("report", "summary"):
        if key in written:
            click.echo(f"wrote {written[key]}")
    if written["events"]:
        click.echo(f"wrote {len(written['events'])} event CSV file(s) under {target}")


def _run(ctx, plan: ExperimentPlan, output: OutputConfig, target: Path) -> ComparisonReport:
    """Run the plan, writing each seed's event CSVs as it finishes, then the
    report; a bank too small to compare is a config error (exit 1) and
    leaves no report."""
    events = EventWriter(target) if "csv" in output.formats else None
    try:
        report = run_experiment(plan, on_seed=events)
    except TooFewEvents as exc:
        click.echo(f"config error: [experiment] n_clocks, horizon: {plan.n_clocks} clocks "
                   f"over horizon {plan.horizon:g} give too few events: {exc}", err=True)
        ctx.exit(1)
    _write(report, output, target, events)
    return report


def _banded_exit(report: ComparisonReport, key_prefix: str = "") -> int:
    """3 on breach, 2 when some test exceeds its binomial flag band, else 0."""
    if report.any_breach:
        return 3
    n_seeds = len(report.plan.seeds)
    band = binomial_upper_band(n_seeds, report.plan.alpha)
    counts = {k: v for k, v in report.flag_counts.items() if k.startswith(key_prefix)}
    worst = max(counts.values(), default=0)
    click.echo(f"max flags per test: {worst} (band: {band} over {n_seeds} seed(s))")
    return 2 if worst > band else 0


def _count_flags(seed_reports, alpha: float) -> dict:
    counts: Counter = Counter()
    for sr in seed_reports:
        for pairing in sr.pairings:
            for e in pairing.verdict.evidence:
                if e.p_value is not None and e.p_value < alpha:
                    counts[f"{pairing.label}:{e.test}"] += 1
        if sr.fix is not None:
            for phase, verdict in (("fix_before", sr.fix.before), ("fix_after", sr.fix.after)):
                for e in verdict.evidence:
                    if e.p_value is not None and e.p_value < alpha:
                        counts[f"{phase}:{e.test}"] += 1
    return dict(counts)


@cli.command("calibrate")
@_common_options
@click.pass_context
def cmd_calibrate(ctx, config_path, out_dir, seed_override) -> None:
    """Run the full plan under the ideal source to establish the baseline.

    Any configured fault is ignored (with a warning): calibration measures
    the false-alarm rate, so it must run clean.
    """
    loaded = _load(config_path, seed_override)
    if loaded is None:
        ctx.exit(1)
    plan, output = loaded
    if plan.fault != IDEAL:
        click.echo(
            f"warning: calibrate forces the ideal source; configured fault "
            f"'{fault_label(plan.fault)}' ignored",
            err=True,
        )
        plan = dataclasses.replace(plan, fault=IDEAL)
    target = _out_dir(ctx, output, out_dir)
    report = _run(ctx, plan, output, target)
    code = _banded_exit(report)
    click.echo(f"calibrate: {'PASS' if code == 0 else 'FAIL'}")
    ctx.exit(code)


@cli.command("detect")
@_common_options
@click.pass_context
def cmd_detect(ctx, config_path, out_dir, seed_override) -> None:
    """Run every configured comparison and flag divergence from the plan."""
    loaded = _load(config_path, seed_override)
    if loaded is None:
        ctx.exit(1)
    plan, output = loaded
    target = _out_dir(ctx, output, out_dir)
    report = _run(ctx, plan, output, target)
    code = _banded_exit(report)
    click.echo({0: "detect: consistent",
                2: "detect: divergence detected",
                3: "detect: determinism breach"}[code])
    ctx.exit(code)


@cli.command("ab-test")
@_common_options
@click.pass_context
def cmd_ab_test(ctx, config_path, out_dir, seed_override) -> None:
    """Compare -log(y) with -log(f(y)) for the configured transform(s)."""
    loaded = _load(config_path, seed_override)
    if loaded is None:
        ctx.exit(1)
    plan, output = loaded
    if plan.transform is None:
        click.echo("config error: [transform] names: required for ab-test", err=True)
        ctx.exit(1)
    target = _out_dir(ctx, output, out_dir)
    label = f"ab_{transform_label(plan.transform)}"
    seed_reports = tuple(
        SeedReport(
            seed=seed,
            runs=(),
            pairings=(PairingRecord(label, transform_ab_test(
                plan.fault, plan.transform, plan.ab_samples, plan.alpha, seed)),),
            drift=None,
            fix=None,
        )
        for seed in plan.seeds
    )
    report = ComparisonReport(plan=plan, seed_reports=seed_reports,
                              flag_counts=_count_flags(seed_reports, plan.alpha))
    _write(report, output, target)
    code = _banded_exit(report)
    click.echo(f"ab-test: {'consistent' if code == 0 else 'divergence detected'}")
    ctx.exit(code)


@cli.command("fix-demo")
@_common_options
@click.pass_context
def cmd_fix_demo(ctx, config_path, out_dir, seed_override) -> None:
    """Evaluate the window rejection-rescale repair, before and after."""
    loaded = _load(config_path, seed_override)
    if loaded is None:
        ctx.exit(1)
    plan, output = loaded
    if plan.fix_window is None:
        click.echo("config error: [fix] a/b: required for fix-demo", err=True)
        ctx.exit(1)
    target = _out_dir(ctx, output, out_dir)
    seed_reports = tuple(
        SeedReport(
            seed=seed,
            runs=(),
            pairings=(),
            drift=None,
            fix=fix_evaluation(plan.fault, plan.fix_window, plan.fix_samples,
                               plan.alpha, seed),
        )
        for seed in plan.seeds
    )
    report = ComparisonReport(plan=plan, seed_reports=seed_reports,
                              flag_counts=_count_flags(seed_reports, plan.alpha))
    _write(report, output, target)
    rates = [sr.fix.discard_rate for sr in seed_reports]
    click.echo(f"mean discard rate: {sum(rates) / len(rates):.4f}")
    code = _banded_exit(report, key_prefix="fix_after:")
    click.echo(f"fix-demo: {'repaired stream consistent' if code == 0 else 'repair failed'}")
    ctx.exit(code)


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
