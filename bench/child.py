"""One benchmark run in a fresh interpreter.

Usage: ``python bench/child.py JOB.json SPAWNED_AT``, where ``SPAWNED_AT`` is
the parent's ``time.perf_counter()`` just before it started this process
(CLOCK_MONOTONIC, so the two processes share it).  The child imports
clockcheck and loads the config (that span is ``setup_s``), then, unless the
job is a set-up probe, makes one ``clockcheck.cli.main`` call, optionally
under the tracer, and writes its measurements to ``job["result"]``.  The
reference kernel is timed right after set-up and again after the call, so
the parent can divide out how fast the host was running at the time.
"""

import json
import resource
import sys
import time


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter and numpy work.

    It belongs to the benchmark, so no change to clockcheck can alter it;
    its time tracks how fast the host is running right now.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    start = time.perf_counter()
    total = 0
    for i in range(3_000_000):
        total += i * i
    for _ in range(80):  # small arrays, so the kernel adds nothing to peak RSS
        np.cumsum(np.sort(rng.random(100_000)))
    return time.perf_counter() - start


def main() -> None:
    spawned = float(sys.argv[2])
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    import clockcheck.cli
    from clockcheck.config import load_config

    load_config(job["config"])
    result = {"setup_s": time.perf_counter() - spawned, "ref_s": [reference_kernel()]}
    if job["argv"] is not None:
        tracer = None
        if job["trace"]:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        code = clockcheck.cli.main(job["argv"])  # looked up after install
        result["wall_s"] = time.perf_counter() - start
        result["ref_s"].append(reference_kernel())
        result["exit_code"] = code
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            result["layers"] = tracer.summary()
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
