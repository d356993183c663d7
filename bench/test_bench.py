"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q
"""

import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import matcanon  # noqa: E402
from matcanon import (Block, CongruenceWitness, ExactMatrix,  # noqa: E402
                      FieldContext, Scalar, canonical_block_matrix,
                      canonicalize, prime_field)

from checks import WrongAnswer, check_value  # noqa: E402
import harness  # noqa: E402
from layers import FieldCounter, SpanTracer, layer_metrics  # noqa: E402
import measure  # noqa: E402
from measure import (CallTimeout, Runner, TimeLimit, percentile,  # noqa: E402
                     tail_percentile)
from pace import Pace  # noqa: E402
from workloads import (ROOT_PERIOD, ROOT_PRIMES, WORKLOADS, Op,  # noqa: E402
                       Plain, block_sum, blocksum_case, make_case, roots_case)


def _fingerprint(case):
    """Everything an op hands to matcanon, as plain data."""
    out = []
    for op in case.ops:
        args = [tuple(tuple(e.coords for e in row) for row in a.rows)
                if isinstance(a, ExactMatrix) else Path(a).name
                for a in op.args]
        out.append((op.kind, op.expect, args))
    return case.label, out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    first = [_fingerprint(make_case(workload, 7, i, str(tmp_path)))
             for i in range(12)]
    again = [_fingerprint(make_case(workload, 7, i, str(tmp_path)))
             for i in range(12)]
    other = [_fingerprint(make_case(workload, 8, i, str(tmp_path)))
             for i in range(12)]
    assert first == again
    assert first != other


def _rank(pf, matrix):
    return pf.rank(pf.plain(matrix))


def test_blocksum_false_partners_differ_in_their_invariant():
    seen = set()
    for index in range(1, 72, 2):
        case = blocksum_case(3, index)
        (a, b), expect = case.ops[1].args, case.ops[1].expect
        assert expect is False
        kind, partner = case.plan["partner"]
        seen.add(kind)
        ctx = a.ctx
        pf = Plain(ctx)
        if kind == "gabriel":
            assert sorted(partner["jordan"]) != sorted(case.plan["jordan"])
            # each 0-Jordan block drops the rank by one
            assert _rank(pf, a) == a.nrows - len(case.plan["jordan"])
            assert _rank(pf, b) == b.nrows - len(partner["jordan"])
        else:
            # D_4 has eigenvalue +1 twice (geometric multiplicity 2) and C_4
            # eigenvalue -1 once, so the asymmetry's eigenspaces differ
            here = block_sum(ctx, case.plan)
            there = block_sum(ctx, partner)
            one = 1
            minus = ctx.p - 1
            assert (pf.eigen_nullity(here, one), pf.eigen_nullity(here, minus)) \
                != (pf.eigen_nullity(there, one),
                    pf.eigen_nullity(there, minus))
            assert pf.eigen_nullity(pf.plain(a), one) == \
                pf.eigen_nullity(here, one)
    assert seen == {"gabriel", "sign"}


def test_small_batch_cli_pairs_differ_in_rank(tmp_path):
    found = 0
    for index in range(48):
        case = make_case("small-batch", 5, index, str(tmp_path))
        if case.ops[-1].kind == "cli":
            left, right = case.plan["ranks"]
            assert left != right
            found += 1
    assert found == 12


def test_roots_cases_draw_every_prime_and_size_and_the_g_sums():
    seen, sums = set(), []
    for index in range(ROOT_PERIOD):
        case = roots_case(2, index)
        assert [(op.kind, op.expect) for op in case.ops] == \
            [("canon", None), ("equiv", True)]
        a = case.ops[0].args[0]
        if "matrix" in case.plan:
            seen.add((a.ctx.p, a.nrows))
            # the random matrix is drawn by case index alone
            assert roots_case(3, index).plan == case.plan
        else:
            assert 1 < case.plan["lam"] < a.ctx.p - 1
            assert {b.family for b in case.plan["blocks"]} == {"G"}
            sums.append(tuple(b.n for b in case.plan["blocks"]))
    assert seen == {(p, n) for p in ROOT_PRIMES for n in (2, 3, 4)}
    assert sums == [(2,), (4,), (2, 2)]


def test_reset_caches_empties_the_gamma_reduction_cache():
    ctx = prime_field(3)
    canonicalize(canonical_block_matrix(Block("A", 3), ctx))
    assert matcanon.unipotent._gamma_reduction_cache
    measure.reset_caches()
    assert not matcanon.unipotent._gamma_reduction_cache


def test_setup_is_timed_cold_in_fresh_processes(tmp_path):
    times = harness.setup_seconds("small-batch", 1, 4, str(tmp_path))
    assert len(times) == harness.SETUP_REPEATS
    assert all(t > 0 for t in times)
    assert (tmp_path / "cold0").is_dir()


def _attribute_snapshot():
    owners = [m for name, m in sys.modules.items()
              if m is not None and name.startswith("matcanon")]
    owners += [ExactMatrix, CongruenceWitness, Scalar, FieldContext]
    return {(id(owner), name): value for owner in owners
            for name, value in list(vars(owner).items())}


def test_traced_passes_restore_every_wrapped_attribute():
    before = _attribute_snapshot()
    ctx = prime_field(3)
    a = ExactMatrix(ctx, [[1, 2, 0], [0, 1, 1], [2, 0, 1]])
    tracer = SpanTracer()
    with tracer:
        # wrapped where matcanon looks it up, not in this module
        assert matcanon.canon.canonicalize is not canonicalize
        tracer.call_id = 0
        matcanon.canon.canonicalize(a)
    with pytest.raises(RuntimeError):
        with FieldCounter() as counter:
            counter.call_id = 0
            canonicalize(a)
            raise RuntimeError("leave the pass early")
    assert _attribute_snapshot() == before
    names = {span[0] for span in tracer.spans}
    assert {"canon.canonicalize", "gabriel.decompose", "exactmat.matmul",
            "exactmat.certify"} <= names
    assert counter.counts[("field.mul", 0)] > 0
    metrics = layer_metrics(tracer.spans, tracer.counts, {0: 1.0}, 1)
    assert metrics["exactmat.certify.count"] >= 1


@pytest.mark.parametrize("count", [20, 37, 100, 333, 1000])
def test_tail_rule_keeps_ten_samples_beyond(count):
    values = [float(v) for v in range(count)]
    p = tail_percentile(count)
    tail = percentile(values, p)
    assert sum(v > tail for v in values) == 10
    higher = percentile(values, p + 0.5 * (100.0 - p))
    assert sum(v > higher for v in values) < 10


def test_tail_rule_never_below_the_median():
    assert tail_percentile(5) == 50.0
    assert tail_percentile(20) == 50.0
    assert tail_percentile(1000) == pytest.approx(99.0)


def test_time_limit_interrupts_a_running_call():
    limit = TimeLimit(0.05)
    t0 = time.perf_counter()
    with pytest.raises(CallTimeout):
        with limit.active():
            while True:
                pass
    assert time.perf_counter() - t0 < 1.0


def test_a_call_over_the_limit_costs_the_limit(monkeypatch):
    def hang(op):
        while True:
            pass
    monkeypatch.setattr(measure, "invoke", hang)
    call = Runner(TimeLimit(0.05), Pace()).timed(Op("canon", (), None))
    assert (call.outcome, call.detail, call.seconds) == \
        ("failure", "timeout", 0.05)


def test_checks_reject_a_wrong_witness_and_a_wrong_verdict():
    ctx = prime_field(3)
    a = ExactMatrix(ctx, [[1, 2, 0], [0, 1, 1], [2, 0, 1]])
    form, witness = canonicalize(a)
    op = Op("canon", (a,), None)
    check_value(op, (form, witness))
    bogus = ExactMatrix.identity(ctx, 3)
    with pytest.raises(WrongAnswer):
        check_value(op, (form, CongruenceWitness(bogus, a, a)))
    res = matcanon.equivalent(a, a)
    with pytest.raises(WrongAnswer):
        check_value(Op("equiv", (a, a), False), res)
