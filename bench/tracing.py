"""Span tracing of clockcheck's layers, installed from outside the package.

Every traced function is replaced by a wrapper at each place the name is
bound: the defining module and every module that imported it by name
(``from .stats import summarize`` leaves a second binding in
``clockcheck.detector`` that a wrapper on ``clockcheck.stats`` alone never
sees).  Each call records a span ``(name, start, end, parent)`` in memory;
:meth:`Tracer.summary` folds the spans into inclusive time, self time
(inclusive minus direct children), call counts and the exact work counts
taken from each call's arguments and result.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from pathlib import Path

PACKAGE = "clockcheck"

#: module -> traced functions; these are the layers the benchmark reports.
LAYERS = {
    "config": ("load_config",),
    "rng": ("fault_block", "unit_block"),
    "transforms": ("transform_block",),
    "process": ("pipeline_block", "simulate_serial", "simulate_parallel"),
    "stats": ("summarize", "ks_two_sample", "ks_one_sample", "chi_square_uniform",
              "welch_t", "clock_drift", "binomial_upper_band"),
    "detector": ("fix_evaluation", "serial_parallel_compare", "cross_parallel_compare",
                 "transform_ab_test", "run_experiment"),
    "report": ("write_report_bundle",),
    "cli": ("main",),
}


def _trajectory_counts(args, result):
    return {"events": len(result), "draws": result.total_draws}


def _bundle_counts(args, result):
    paths = [result[key] for key in ("report", "summary") if key in result] + result["events"]
    return {"files": len(paths), "bytes": sum(Path(p).stat().st_size for p in paths)}


#: exact work counts per call, from the call's arguments and its result
_COUNTS = {
    "rng.fault_block": lambda args, r: {"samples": r[0].size},
    "rng.unit_block": lambda args, r: {"draws": r[0].size},
    "transforms.transform_block": lambda args, r: {"elements": r.size},
    "process.pipeline_block": lambda args, r: {"samples": r[0].size},
    "process.simulate_serial": _trajectory_counts,
    "process.simulate_parallel": _trajectory_counts,
    "stats.summarize": lambda args, r: {"values": r.n},
    "stats.ks_two_sample": lambda args, r: {"values": r.n + r.m},
    "report.write_report_bundle": _bundle_counts,
}

#: span-name suffix from the call's arguments (simulate_parallel: stream mode)
_VARIANTS = {
    "process.simulate_parallel": lambda args: args[0].stream_mode.value,
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def originals() -> dict:
    """``"module.function" -> function`` for every layer, as the package defines it."""
    found = {}
    for module, names in LAYERS.items():
        mod = importlib.import_module(f"{PACKAGE}.{module}")
        for name in names:
            found[f"{module}.{name}"] = getattr(mod, name)
    return found


class Tracer:
    """Wraps every layer function at every binding site and records spans."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: dict = defaultdict(int)
        self._stack: list = []
        self.originals = originals()
        self._installed: list = []  # (module, attribute, original)

    def _wrap(self, key: str, fn):
        variant = _VARIANTS.get(key)
        count = _COUNTS.get(key)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = f"{key}.{variant(args)}" if variant else key
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else -1)
            if count is not None:
                for what, n in count(args, result).items():
                    counts[f"{name}.{what}"] += int(n)
            return result

        traced.__wrapped_layer__ = key
        return traced

    def install(self) -> None:
        """Rebind every module attribute that holds a layer function."""
        wrappers = {id(fn): self._wrap(key, fn) for key, fn in self.originals.items()}
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._installed.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def summary(self) -> dict:
        """Per span name: ``.s`` inclusive, ``.self_s`` exclusive, ``.calls``;
        plus every recorded count."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child_time[i]
            calls[f"{name}.calls"] += 1
        return {**out, **calls, **self.counts}


def unwrapped_bindings(layer_functions: dict) -> list[str]:
    """Module attributes, in any loaded module, through which one of
    ``layer_functions`` (``"module.function" -> original``) is still reachable."""
    targets = {id(fn): key for key, fn in layer_functions.items()}
    return [f"{name}.{attr} -> {targets[id(value)]}"
            for name, module in list(sys.modules.items()) if module is not None
            for attr, value in list(vars(module).items()) if id(value) in targets]
