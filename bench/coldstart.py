"""One cold set-up of a benchmark run, timed in a fresh process.

    python3 bench/coldstart.py WORKLOAD SEED COUNT WORKDIR

Imports matcanon and the benchmark's modules, generates the first COUNT
cases of the seed with their CLI files in WORKDIR, and makes one warm-up
call; then prints the paced seconds all this took.  Each run of the
benchmark starts this script several times and reports the median as
setup_s (see harness.setup_seconds).
"""

from __future__ import annotations

import sys

from pace import CLOCK, Pace
from run import load_program


def main(argv):
    workload, seed, count, workdir = argv[0], int(argv[1]), int(argv[2]), \
        argv[3]
    pace = Pace()
    before = pace.reading()
    t0 = CLOCK()
    error = load_program()
    if error:
        sys.stderr.write("bench: %s\n" % error)
        return 2
    # the benchmark's modules import matcanon, so they load after it
    import harness
    harness.prepare(workload, seed, count, workdir)
    print(pace.scale(CLOCK() - t0, before, pace.reading()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
