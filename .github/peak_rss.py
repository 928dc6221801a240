"""Run one clockcheck command in a child process and bound its peak RSS.

Usage: python3 .github/peak_rss.py COMMAND CONFIG OUT LIMIT

Runs ``python -W error::RuntimeWarning -m clockcheck COMMAND --config CONFIG
--out OUT``, prints the child's exit code and peak resident set size in MiB,
and exits 1 unless the child exited 0 with a peak of at most LIMIT MiB.
``RUSAGE_CHILDREN`` reports the largest peak of every child waited for, so
each measured run needs a process of this script of its own.
"""

import resource
import subprocess
import sys


def main(argv: list[str]) -> bool:
    command, config, out, limit = argv[0], argv[1], argv[2], float(argv[3])
    code = subprocess.call([sys.executable, "-W", "error::RuntimeWarning", "-m", "clockcheck",
                            command, "--config", config, "--out", out])
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"{command}: exit {code}, peak RSS {peak:.1f} MiB (limit {limit:g})")
    return code != 0 or peak > limit


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
