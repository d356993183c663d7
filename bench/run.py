"""matcanon benchmark: one workload, one seed, one result.

    python3 bench/run.py --workload small-batch --seed 1 --seconds 30 --trace 0

Run from anywhere; matcanon is imported from the src/ directory beside
bench/.  --trace 0 measures the end-to-end metrics with nothing wrapped.
--trace 1 reports the per-layer metrics instead.  The last line of stdout is
the result object; the line before it is the full report.  A wrong answer
prints the seed and case index to stderr and exits 1.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from pace import Pace

ROOT = Path(__file__).resolve().parent.parent
# the names of workloads.WORKLOADS, which cannot be imported before matcanon
WORKLOADS = ("small-batch", "blocksum-gfp", "roots-bigp")


def load_program():
    """Import matcanon from this checkout's src/, or say why it cannot be."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import matcanon
    except ImportError as exc:
        return "cannot import matcanon from %s: %s" % (src, exc)
    where = Path(matcanon.__file__).resolve()
    if src not in where.parents:
        return "matcanon was imported from %s, not from %s" % (where, src)
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    error = load_program()
    if error:
        sys.stderr.write("bench: %s\n" % error)
        return 2
    # the benchmark's modules import matcanon, so they load after it
    import harness
    return harness.run(args, ROOT, Pace())


if __name__ == "__main__":
    sys.exit(main())
