"""clockcheck benchmark: end-to-end throughput, memory and set-up time per
workload, or (``--trace 1``) time and work per layer.

Usage, from the root of a checkout (no install needed; runs use ``src``)::

    python3 bench/run.py --workload thinning_repair --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all

One operation is one experiment seed checked end to end.  A run is one
``clockcheck.cli.main`` call, in a fresh child interpreter, on a config that
this script generates from the workload seed; runs repeat back to back
(a closed loop with one client) until ``--seconds`` have passed.  Every run's
outputs are checked (exit code, report digest, exact counts); a failed run
fails all of its seeds.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = ROOT / "BENCHMARK.json"
EXPECTED = BENCH / "expected.json"

DEFAULT_SEED = 1
# Nominal time of child.reference_kernel.  Timings are reported as on a host
# running at the speed at which the kernel takes this long: each is scaled by
# REFERENCE_S / (the kernel's time measured in the same child), which cancels
# the drift in host speed that shared machines show over minutes.
REFERENCE_S = 0.5
SETUP_PROBES = 4  # extra set-up-only children per invocation, for a steadier median
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    command: str  # clockcheck subcommand
    seeds: int  # experiment seeds per run
    sections: dict  # INI sections apart from the seed list

    def ini(self, seeds: list[int]) -> str:
        sections = {"experiment": {"seed": " ".join(map(str, seeds))}}
        for name, items in self.sections.items():
            sections.setdefault(name, {}).update(items)
        lines = []
        for name, items in sections.items():
            lines.append(f"[{name}]")
            lines += [f"{key} = {value}" for key, value in items.items()]
        return "\n".join(lines) + "\n"


# Why each workload exists is in bench/README.md: each makes a different
# layer dominate cli.main.  Four seeds per run lets the binomial band
# (3 flags at 4 seeds, alpha 0.01) gate, so detect's exit code means something.
WORKLOADS = {
    "thinning_repair": Workload("detect", 4, {
        "experiment": {"n_clocks": 16, "horizon": 250},
        "fault": {"kind": "low_thinning", "c": 0.5, "q": 0.5},
        "transform": {"names": "reflect"},
        "fix": {"a": 0.5, "b": 1},
        "parallel": {"workers": "1 4", "mappings": "blocks round_robin",
                     "stream_modes": "per_clock per_worker"},
        "output": {"formats": "json csv"},
    }),
    "wide_bank": Workload("detect", 4, {
        "experiment": {"n_clocks": 1024, "horizon": 250},
        "fault": {"kind": "power_bias", "gamma": 2},
        "parallel": {"workers": "1 2", "mappings": "round_robin shuffle",
                     "stream_modes": "per_clock"},
        "output": {"formats": "json"},
    }),
    "calibrate_export": Workload("calibrate", 4, {
        "experiment": {"n_clocks": 256, "horizon": 250, "ab_samples": 200000},
        "transform": {"names": "reflect rotate_half"},
        "parallel": {"workers": "1 2", "mappings": "round_robin",
                     "stream_modes": "per_clock"},
        "output": {"formats": "json csv"},
    }),
}


def experiment_seeds(workload: str, seed: int, count: int) -> list[int]:
    """The experiment's 64-bit seed list, a pure function of the workload seed."""
    return [int.from_bytes(hashlib.sha256(f"{workload}/{seed}/{i}".encode()).digest()[:8],
                           "little")
            for i in range(count)]


@dataclass
class Run:
    traced: bool
    ok: bool = False
    error: str = ""
    setup_s: float = 0.0
    wall_s: float = 0.0
    ref_s: tuple = ()  # reference kernel times: after set-up, after cli.main
    exit_code: int = -1
    peak_rss_mb: float = 0.0
    digest: str = ""
    counts: dict = field(default_factory=dict)  # exact counts read off the outputs
    layers: dict = field(default_factory=dict)  # traced runs only


def _child(job: dict, work: Path) -> dict:
    """Start a fresh interpreter on ``job``, wait for it, return its result."""
    job_path, result_path = work / "job.json", work / "result.json"
    job["result"] = str(result_path)
    job_path.write_text(json.dumps(job), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with open(work / "stderr.txt", "w+", encoding="utf-8") as err:
        spawned = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(job_path), repr(spawned)],
            cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=err)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"child exceeded {CHILD_TIMEOUT_S} s") from None
        finally:
            if proc.poll() is None:  # timed out or interrupted: never leave it running
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not result_path.exists():
            err.seek(0)
            tail = err.read()[-2000:]
            raise RuntimeError(f"child exited {proc.returncode}: {tail}")
    return json.loads(result_path.read_text(encoding="utf-8"))


_GENERATED_AT = re.compile(rb'^\s*"generated_at": .*\n', re.MULTILINE)


def output_digest(out: Path) -> str:
    """SHA-256 over every output file (name and bytes, in name order), with
    report.json's ``generated_at`` line removed."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "report.json":
            data = _GENERATED_AT.sub(b"", data)
        h.update(f"{path.name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def output_counts(out: Path) -> dict:
    """Events and raw draws per simulator, and report bytes and files, read
    off the outputs; named like the traced layer counts they must equal."""
    counts = {f"process.{sim}.{what}": 0
              for sim in ("simulate_serial", "simulate_parallel.per_clock",
                          "simulate_parallel.per_worker")
              for what in ("events", "draws")}
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    for seed_report in report["seed_reports"]:
        for run in seed_report["runs"]:
            if run["kind"] == "serial":
                sim = "simulate_serial"
            else:
                sim = "simulate_parallel." + run["label"].rsplit("-", 1)[1]
            counts[f"process.{sim}.events"] += run["n_events"]
            counts[f"process.{sim}.draws"] += run["total_draws"]
    files = list(out.iterdir())
    counts["report.write_report_bundle.files"] = len(files)
    counts["report.write_report_bundle.bytes"] = sum(p.stat().st_size for p in files)
    return counts


def measure_run(workload: Workload, config: Path, work: Path, traced: bool) -> Run:
    run = Run(traced=traced)
    out = work / "out"
    try:
        result = _child({"config": str(config), "trace": traced,
                         "argv": [workload.command, "--config", str(config), "--out", str(out)]},
                        work)
        run.setup_s, run.wall_s = result["setup_s"], result["wall_s"]
        run.ref_s = tuple(result["ref_s"])
        run.exit_code, run.peak_rss_mb = result["exit_code"], result["peak_rss_mb"]
        run.layers = result.get("layers", {})
        run.digest = output_digest(out)
        run.counts = output_counts(out)
        run.ok = True
    except (RuntimeError, OSError, KeyError, ValueError) as exc:
        run.error = str(exc)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return run


def check_runs(runs: list[Run], expected: dict) -> list[str]:
    """Fail every run whose outputs disagree with the record or with the first
    good run; return the problems found."""
    problems = [f"run {i}: {r.error}" for i, r in enumerate(runs) if not r.ok]
    good = [r for r in runs if r.ok]
    if not good:
        return problems
    first = good[0]
    traced = [r for r in good if r.traced]
    for i, run in enumerate(runs):
        if not run.ok:
            continue
        why = []
        if run.exit_code != expected["exit_code"]:
            why.append(f"exit code {run.exit_code}, expected {expected['exit_code']}")
        if expected.get("digest") and run.digest != expected["digest"]:
            why.append(f"digest {run.digest} differs from the recorded one")
        if run.digest != first.digest:
            why.append("digest differs between repeats")
        if run.counts != first.counts:
            why.append("exact counts differ between repeats")
        if run.traced:
            layer_counts = {k: v for k, v in run.layers.items() if isinstance(v, int)}
            ref = {k: v for k, v in traced[0].layers.items() if isinstance(v, int)}
            if layer_counts != ref:
                why.append("traced layer counts differ between repeats")
            for key, value in run.counts.items():
                if run.layers.get(key, 0) != value:
                    why.append(f"traced {key} = {run.layers.get(key, 0)}, outputs say {value}")
        if why:
            run.ok = False
            problems += [f"run {i}: {w}" for w in why]
    return problems


def _scaled_wall(run: Run) -> float:
    """The run's cli.main wall time, scaled to the nominal host speed."""
    return run.wall_s * REFERENCE_S / statistics.mean(run.ref_s)


def _layer_value(name: str, layers: dict, untraced_wall: float, traced_wall: float) -> float:
    if name == "process.useful_draw_ratio":
        return layers.get("process.pipeline_block.samples", 0) / layers["rng.unit_block.draws"]
    if name == "process.draws_per_event":
        sims = ("simulate_serial", "simulate_parallel.per_clock", "simulate_parallel.per_worker")
        draws = sum(layers.get(f"process.{s}.draws", 0) for s in sims)
        return draws / sum(layers.get(f"process.{s}.events", 0) for s in sims)
    if name == "trace.overhead_s":
        return traced_wall - untraced_wall
    return layers.get(name, 0)


#: layer groups whose share of cli.main shows why each workload was chosen
GROUPS = {
    "thinning_repair": ("detector.fix_evaluation.s", "process.simulate_parallel.per_worker.s",
                        "rng.fault_block.s"),
    "wide_bank": ("process.simulate_parallel.per_clock.s", "stats.summarize.s",
                  "stats.ks_two_sample.s"),
    "calibrate_export": ("report.write_report_bundle.s",),
}


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict,
                 expected: dict, scratch: Path) -> tuple[bool, int, int, dict]:
    workload = WORKLOADS[name]
    seeds = experiment_seeds(name, seed, workload.seeds)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    config = work / "config.ini"
    config.write_text(workload.ini(seeds), encoding="utf-8")
    record = expected[name] if seed == expected["seed"] else {
        "exit_code": expected[name]["exit_code"]}

    _child({"config": str(config), "trace": False, "argv": None}, work)  # warm caches
    runs: list[Run] = []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds or len(runs) < 2
           or (trace and not any(r.traced for r in runs))):
        runs.append(measure_run(workload, config, work, traced=trace and len(runs) % 2 == 1))
    setup = [(r.setup_s, r.ref_s[0]) for r in runs if r.ok]
    for _ in range(SETUP_PROBES):
        probe = _child({"config": str(config), "trace": False, "argv": None}, work)
        setup.append((probe["setup_s"], probe["ref_s"][0]))
    shutil.rmtree(work, ignore_errors=True)

    problems = check_runs(runs, record)
    good = [r for r in runs if r.ok]
    plain = [r for r in good if not r.traced]
    traced = [r for r in good if r.traced]
    attempted = workload.seeds * len(runs)
    failed = workload.seeds * (len(runs) - len(good))
    if not plain or (trace and not traced):
        raise SystemExit(f"{name}: too few runs succeeded: {problems}")

    digest = good[0].digest
    print(f"{name}: {len(runs)} run(s) x {workload.seeds} seed(s) {seeds}; "
          f"exit code {good[0].exit_code}; digest {digest}"
          + (" (matches the record)" if record.get("digest") == digest else ""))
    print(f"{name}: ops {attempted}, ops_failed {failed}")
    for problem in problems:
        print(f"{name}: FAILED {problem}")
    walls = ", ".join(f"{r.wall_s:.3f}{'T' if r.traced else ''}" for r in good)
    print(f"{name}: cli.main wall s per run (T = traced): {walls}")
    counts = ", ".join(f"{k}={v}" for k, v in sorted(good[0].counts.items()))
    print(f"{name}: exact counts {counts}")

    if trace:
        plain_wall = statistics.median(_scaled_wall(r) for r in plain)
        traced_wall = statistics.median(_scaled_wall(r) for r in traced)
        metrics = {
            m["name"]: {"value": statistics.median(
                _layer_value(m["name"], r.layers, plain_wall, traced_wall) for r in traced),
                "unit": m["unit"]}
            for m in spec["per_layer"]}
        main_s = metrics["cli.main.s"]["value"]
        for group, keys in GROUPS.items():
            share = sum(metrics[k]["value"] for k in keys) / main_s
            print(f"{name}: share of cli.main in {group} layers ({' + '.join(keys)}): "
                  f"{share:.3f}")
    else:
        raw_rate = statistics.median(workload.seeds / r.wall_s for r in plain)
        raw_setup = statistics.median(s for s, _ in setup)
        print(f"{name}: not normalised: seeds_per_s = {raw_rate} seeds/s, "
              f"setup_s = {raw_setup} s")
        values = {
            "norm_seeds_per_s": statistics.median(workload.seeds / _scaled_wall(r)
                                                  for r in plain),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in plain),
            "setup_s": statistics.median(s * REFERENCE_S / ref for s, ref in setup),
            "output_mb": statistics.median(r.counts["report.write_report_bundle.bytes"] / 1e6
                                           for r in plain),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    for metric, entry in metrics.items():
        print(f"{name}: {metric} = {entry['value']} {entry['unit']}")
    return not problems, attempted, failed, metrics


def stamp() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = git.stdout.strip() or commit
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "clockcheck" / "__init__.py").is_file():
        print(f"error: no clockcheck source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    print("stamp: " + json.dumps(stamp(), sort_keys=True))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    scratch_root = ROOT / ".bench_runs"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            ok, n, bad, found = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                             spec, expected, scratch)
            correct, attempted, failed = correct and ok, attempted + n, failed + bad
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + k: v for k, v in found.items()})
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
