"""Set-up, measured passes and result lines of one benchmark run."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import ANSWER, FAILURE, REFUSAL, WrongAnswer
from layers import FieldCounter, SpanTracer, field_metrics, layer_metrics, \
    micro_ops
from measure import (VERDICT_KINDS, Runner, TimeLimit, latency_summary,
                     reset_caches, run_op)
from workloads import build_pool, warm_up_op

# period: the cases after which a workload's design repeats (fields, sizes,
# op kinds), also the cases --trace 1 runs; periods: how many periods one
# pass holds at --seconds 30; limit: per-call time limit in paced seconds
CONFIG = {
    "small-batch": {"period": 48, "periods": 2, "limit": 10.0},
    "blocksum-gfp": {"period": 12, "periods": 5, "limit": 30.0},
    "roots-bigp": {"period": 12, "periods": 4, "limit": 2.5},
}
# cold set-ups timed per run, each in a fresh process; setup_s is their
# median
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
# traced and counted reruns get this multiple of the limit, because they
# are slower; ops that timed out in the checked pass are not rerun
TRACE_LIMIT_FACTOR = 10.0


def git_commit(root):
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _checked(case, fn):
    try:
        return fn()
    except WrongAnswer as exc:
        raise WrongAnswer("case %d (%s): %s" % (case.index, case.label, exc)) \
            from None


def pass_size(cfg, seconds):
    """Cases in one measured pass: whole periods, scaled to --seconds."""
    return cfg["period"] * max(1, round(cfg["periods"] * seconds / 30.0))


def prepare(workload, seed, count, workdir):
    """Generate `count` cases with their CLI files in `workdir`, and make
    one warm-up call; returns the cases."""
    os.makedirs(workdir, exist_ok=True)
    cases = build_pool(workload, seed, count, workdir)
    run_op(warm_up_op(workload), TimeLimit(CONFIG[workload]["limit"]))
    return cases


def setup_seconds(workload, seed, count, workdir):
    """Paced times of SETUP_REPEATS cold set-ups: bench/coldstart.py, each
    in a fresh process, imports matcanon and the benchmark and runs
    prepare(), so each pays the import and the first call's one-time
    costs."""
    times = []
    for i in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("coldstart.py")),
             workload, str(seed), str(count),
             os.path.join(workdir, "cold%d" % i)],
            check=True, capture_output=True, text=True,
            timeout=SETUP_TIMEOUT_S)
        times.append(float(out.stdout.split()[-1]))
    return times


def plain_pass(cases, runner, calls):
    """Closed loop: one pass over `cases`, appending to `calls`; returns its
    wall time.  The work is fixed, so a faster program does not get a
    second pass that would change the sample and its percentiles.  The pass
    starts with matcanon's caches empty."""
    reset_caches()
    start = time.perf_counter()
    for case in cases:
        calls += _checked(case, lambda: runner.run_case(case))
    return time.perf_counter() - start


def _throughput(calls):
    busy = sum(c.seconds for c in calls)
    return sum(c.outcome == ANSWER for c in calls) / busy if busy else 0.0


def end_to_end(calls, setup_s):
    """The end-to-end metrics, and the latency summaries they come from."""
    canon = latency_summary(calls, ("canon",))
    verdict = latency_summary(calls, VERDICT_KINDS)
    answers = _answers(calls)
    failed = sum(c.outcome == FAILURE for c in calls)
    refused = sum(c.outcome == REFUSAL for c in calls)
    metrics = {
        "setup_s": setup_s,
        "answers_per_s": _throughput(calls),
        "canon_ms.p50": canon["answered"]["p50"],
        "canon_ms.tail": canon["answered"]["tail"],
        "verdict_ms.p50": verdict["answered"]["p50"],
        "verdict_ms.tail": verdict["answered"]["tail"],
        "answered_frac": answers / len(calls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        # reported, not bounded: both can be 0
        "fail_frac": failed / len(calls),
        "refusal_frac": refused / len(calls),
    }
    return metrics, {"canon_ms": canon, "verdict_ms": verdict}


def traced_passes(cases, runner, cfg):
    """Four passes over `cases`, each in case order from empty caches, so
    that each does the work of the first: the checked pass, an untraced
    rerun, a traced rerun, and a rerun with the field operators counted."""
    first = []
    plain_pass(cases, runner, first)
    per_case, i = [], 0
    for case in cases:
        per_case.append(first[i:i + len(case.ops)])
        i += len(case.ops)
    slow = cfg["limit"] * TRACE_LIMIT_FACTOR

    def rerun(probe=None):
        reset_caches()
        calls = []
        for case, ref in zip(cases, per_case):
            calls += _checked(case, lambda: runner.rerun_case(
                case, ref, slow, probe))
        return calls

    plain = rerun()
    tracer = SpanTracer()
    with tracer:
        traced = rerun(tracer)
    counter = FieldCounter()
    with counter:
        counted = rerun(counter)
    metrics = layer_metrics(
        tracer.spans, tracer.counts, _kept(traced), _answers(traced))
    metrics.update(field_metrics(counter, _kept(counted), _answers(counted)))
    plain_rate = _throughput(plain)
    metrics["trace.overhead_frac"] = (1.0 - _throughput(traced) / plain_rate
                                      if plain_rate else 0.0)
    return metrics, first + plain + traced + counted, tracer


def _kept(calls):
    """{call id: pace factor} of every call that did not time out; the
    call ids are the calls' positions."""
    return {i: c.seconds / c.cpu for i, c in enumerate(calls)
            if c.detail != "timeout" and c.cpu > 0}


def _answers(calls):
    return sum(c.outcome == ANSWER for c in calls)


def _finite(obj):
    """JSON-safe copy: +inf becomes the string "inf"."""
    if isinstance(obj, float) and math.isinf(obj):
        return "inf"
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def _by_detail(calls, outcome):
    out = {}
    for c in calls:
        if c.outcome == outcome:
            out[c.detail] = out.get(c.detail, 0) + 1
    return out


def run(args, root, pace):
    """One run; prints the report line and the result line; exit code.

    The metrics in the result line, and their units, are those BENCHMARK.json
    lists for the mode: end_to_end for --trace 0, per_layer for --trace 1.
    """
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    cfg = CONFIG[args.workload]
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "loadavg_1m_start": os.getloadavg()[0],
           "git_commit": git_commit(root), "seed": args.seed}
    build = root / ".bench_build"
    workdir = build / ("work-%s-%d-%d" % (args.workload, args.seed,
                                          os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "per_call_limit_s": cfg["limit"]}
    calls, metrics, correct = [], {}, True
    try:
        count = (cfg["period"] if args.trace
                 else pass_size(cfg, args.seconds))
        if not args.trace:
            setup_runs = setup_seconds(args.workload, args.seed, count,
                                       str(workdir))
            report["setup"] = {"cold_runs_s": setup_runs, "cases": count}
        cases = prepare(args.workload, args.seed, count, str(workdir))
        runner = Runner(TimeLimit(cfg["limit"]), pace)
        # the reference forms are computed before any pass, so that the
        # passes start from the same state
        for case in cases:
            runner.expected(case)
        if args.trace:
            metrics, calls, tracer = traced_passes(cases, runner, cfg)
            metrics.update(micro_ops(pace))
            trace_file = build / ("trace-%s-seed%d.json"
                                  % (args.workload, args.seed))
            with open(trace_file, "w") as handle:
                json.dump({"fields": ["name", "start", "end", "parent",
                                      "call"], "spans": tracer.spans}, handle)
            report["trace_file"] = str(trace_file.relative_to(root))
        else:
            report["wall_s"] = plain_pass(cases, runner, calls)
            metrics, latency = end_to_end(calls,
                                          statistics.median(setup_runs))
            report.update(latency)
    except WrongAnswer as exc:
        sys.stderr.write("bench: wrong answer, workload %s seed %d, %s\n"
                         % (args.workload, args.seed, exc))
        correct = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = {m["name"]: m["unit"] for m in wanted}
    units.update(fail_frac="ratio", refusal_frac="ratio")
    if "wall_s" in report:
        report["answers_per_wall_s"] = _answers(calls) / report["wall_s"]
    failed = sum(c.outcome == FAILURE for c in calls)
    env["loadavg_1m_end"] = os.getloadavg()[0]
    report.update({
        "correct": correct, "attempted": len(calls), "failed": failed,
        "answers": _answers(calls),
        "failures": _by_detail(calls, FAILURE),
        "refusals": _by_detail(calls, REFUSAL),
        "metrics": {k: {"value": v, "unit": units.get(k)}
                    for k, v in metrics.items()}})
    print(json.dumps(_finite(report), sort_keys=True))
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
              for m in wanted if m["name"] in metrics}
    if correct and len(result) != len(wanted):
        raise KeyError("metrics missing from the run: %s" % sorted(
            m["name"] for m in wanted if m["name"] not in metrics))
    print(json.dumps({"correct": correct, "attempted": max(len(calls), 1),
                      "failed": failed, "metrics": result}))
    return 0 if correct else 1
