"""Seeded answer sweep: one SHA-256 per case of everything a caller can read.

Each case is a matrix, and its digest is taken over the answer text of
tests/test_golden_answers.py (forms, contexts, reports, records, witnesses
and refusals under both policies, and every third case the transpose witness
and two `equivalent` verdicts).  Cases cycle through random n x n matrices
over Q, GF(2), GF(3), GF(4), GF(13), GF(65521), GF(65537) and GF(1000003)
(q = 3 mod 4, whose square roots need no non-residue), and scrambled sums
of canonical blocks over three towers above the 256-element table cap:
GF(3) at height 3 (GF(3^8)), GF(65521)(sqrt 17) and GF(65521^4).  The same
seed and count give the same cases, so two trees that answer alike print
the same lines.  Run from the repository root:

    PYTHONPATH=src python tests/sweep.py --count 500 > digests.txt

and compare the outputs of two trees with diff.  Each line is
"index name digest"; the last line is a digest of all of them.  With
--expect DIGEST the sweep exits 1 when that digest differs, so a pinned
digest fails a run whose answers changed.  Every answer is also checked
by tests/refcheck.py, on Scalars and with no ExactMatrix kernel, in
answer_text; an answer that fails it stops the sweep.
"""

import argparse
import hashlib
import random
import sys

from matcanon import (Block, ExactMatrix, canonical_block_matrix, gf4,
                      inverse_or_rank, prime_field, rationals)

from test_golden_answers import answer_text

RANDOM_FIELDS = (("q", rationals()), ("gf2", prime_field(2)),
                 ("gf3", prime_field(3)), ("gf4", gf4()),
                 ("gf13", prime_field(13)), ("gf65521", prime_field(65521)),
                 ("gf65537", prime_field(65537)),
                 ("gf1000003", prime_field(1000003)))


def _towers():
    """The towers the block sums live in: GF(3) up three square roots of
    non-squares (-1, then 1 + g1, then g2), GF(65521) with the square root
    of 17, its least non-square, and then of g1, a non-square of
    GF(65521^2) since 17 is not a fourth power."""
    f3 = prime_field(3)
    f9 = f3.adjoin_sqrt(f3.scalar(-1))
    f81 = f9.adjoin_sqrt(1 + f9.generator(1))
    f6561 = f81.adjoin_sqrt(f81.generator(2))
    big = prime_field(65521)
    big2 = big.adjoin_sqrt(big.scalar(17))
    return (("gf3^8", f6561), ("gf65521^2", big2),
            ("gf65521^4", big2.adjoin_sqrt(big2.generator(1))))


TOWERS = _towers()


def _entry(ctx, rng):
    """A random element of a tower over GF(p), every coordinate uniform."""
    return ctx.element([rng.randrange(ctx.p) for _ in range(ctx.dim)])


def _invertible(ctx, rng, n):
    while True:
        y = ExactMatrix(ctx, [[_entry(ctx, rng) for _ in range(n)]
                              for _ in range(n)])
        if inverse_or_rank(y, rank_only=True).rank == n:
            return y


def _block_sum(ctx, rng):
    """One or two blocks, G2(lam) with lam drawn over the whole tower or,
    in odd characteristic, A1 and C2, scrambled by a random Y."""
    blocks = []
    for _ in range(rng.randint(1, 2)):
        kind = rng.choice("GGAC")
        if kind == "G":
            lam = _entry(ctx, rng)
            while lam.is_zero() or lam * lam == ctx.one():
                lam = _entry(ctx, rng)
            blocks.append(Block("G", 2, lam))
        else:
            blocks.append(Block(kind, 1 if kind == "A" else 2))
    a = ExactMatrix.block_diag(
        ctx, [canonical_block_matrix(b, ctx) for b in blocks])
    y = _invertible(ctx, rng, a.nrows)
    return "+".join(map(repr, blocks)), y.transpose() @ a @ y


def case(seed, index):
    """(name, matrix) of one case: ten random matrices in every fourteen
    cases, four block sums."""
    rng = random.Random("sweep %d %d" % (seed, index))
    slot = index % 14
    if slot < 10:
        fname, ctx = RANDOM_FIELDS[slot % len(RANDOM_FIELDS)]
        n = rng.randint(1, 5 if ctx.p in (0, 2, 3, 13) or ctx.kind == "gfq"
                        else 4)
        if ctx.kind == "rational":
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        elif ctx.kind == "gfp":
            rows = [[rng.randrange(ctx.p) for _ in range(n)]
                    for _ in range(n)]
        else:
            rows = [[ctx.scalar((rng.randrange(2), rng.randrange(2)))
                     for _ in range(n)] for _ in range(n)]
        return "random-%s-n%d" % (fname, n), ExactMatrix(ctx, rows)
    tname, ctx = TOWERS[(slot - 10) % len(TOWERS)]
    label, a = _block_sum(ctx, rng)
    return "sum-%s-%s" % (tname, label), a


def digests(seed, count):
    """(index, name, digest) of cases 0 .. count-1."""
    for index in range(count):
        name, a = case(seed, index)
        text = answer_text(index, name, a)
        yield index, name, hashlib.sha256(text.encode()).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--count", type=int, default=500)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--expect", metavar="DIGEST",
                        help="exit 1 unless the last line's digest is this")
    args = parser.parse_args(argv)
    total = hashlib.sha256()
    for index, name, digest in digests(args.seed, args.count):
        line = "%d %s %s" % (index, name, digest)
        total.update(line.encode() + b"\n")
        print(line, flush=True)
    print("all %s" % total.hexdigest())
    if args.expect is not None and args.expect != total.hexdigest():
        sys.stderr.write("sweep: digest %s, expected %s\n"
                         % (total.hexdigest(), args.expect))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
