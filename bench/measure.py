"""Closed-loop execution of benchmark cases, per-call time limits, statistics.

One client: each call starts after the previous one returned.  Each call
runs under a time limit enforced on the main thread with SIGPROF, so a call
that hangs costs a bounded time and counts as a failure.  Every call is
timed in CPU time and paced (see pace.py).
"""

from __future__ import annotations

import contextlib
import io
import math
import signal
import sys
from collections import namedtuple

from matcanon import NoRootStrictPolicy, NotSplit, canon, cli

from checks import (ANSWER, FAILURE, REFUSAL, WrongAnswer, check_case,
                    check_value, same_answer)
from pace import CLOCK
from workloads import Op

# One finished call.  seconds is paced (see Pace), cpu the raw CPU time;
# outcome is ANSWER, REFUSAL or FAILURE; detail names the refusal or
# failure; value is what the call returned.
Call = namedtuple("Call", "kind seconds outcome detail value cpu")

VERDICT_KINDS = ("equiv", "transpose", "cli")

# exit codes of `matcanon equiv`: 2 (not split) and 3 (no root) are
# refusals; 4, which the CLI also uses for any other MatcanonError, and
# anything else but 0 and 1 are failures
_CLI_REFUSALS = {2: "NotSplit", 3: "NoRootStrictPolicy"}


class CallTimeout(BaseException):
    """Raised inside a call that overran its time limit.

    A BaseException, so that no handler inside the program under test can
    swallow it.
    """


class TimeLimit:
    """Per-call CPU-time limit on the main thread, delivered by SIGPROF."""

    def __init__(self, seconds):
        self.seconds = seconds
        self._armed = False

    def _fire(self, signum, frame):
        if self._armed:
            self._armed = False
            raise CallTimeout()

    @contextlib.contextmanager
    def active(self, seconds=None):
        previous = signal.signal(signal.SIGPROF, self._fire)
        self._armed = True
        signal.setitimer(signal.ITIMER_PROF, seconds or self.seconds)
        try:
            yield
        finally:
            self._armed = False
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)


def reset_caches():
    """Empty matcanon's memo tables: the module-level dicts whose names end
    in _cache, and functools caches.  Each measured pass starts from here,
    so passes over the same cases do the same work."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "matcanon"
                                  or name.startswith("matcanon.")):
            continue
        for attr, value in list(vars(module).items()):
            if attr.endswith("_cache") and isinstance(value, dict):
                value.clear()
            elif callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def invoke(op):
    """Call matcanon for one op.  Entry points are looked up at call time,
    so the tracer's wrappers are seen."""
    if op.kind == "canon":
        return canon.canonicalize(*op.args)
    if op.kind == "equiv":
        return canon.equivalent(*op.args)
    if op.kind == "transpose":
        return canon.transpose_witness(*op.args)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["equiv", op.args[0], op.args[1], "--machine"])
    return code, out.getvalue()


def run_op(op, limit, seconds=None):
    """Run one op under the time limit; returns a Call, not yet paced."""
    value, detail = None, None
    t0 = CLOCK()
    try:
        with limit.active(seconds):
            value = invoke(op)
    except CallTimeout:
        outcome, detail = FAILURE, "timeout"
    except (NotSplit, NoRootStrictPolicy) as exc:
        outcome, detail = REFUSAL, type(exc).__name__
    except Exception as exc:  # every other error is a counted failure
        outcome, detail = FAILURE, type(exc).__name__
    else:
        outcome = ANSWER
        if op.kind == "cli" and value[0] in _CLI_REFUSALS:
            outcome, detail = REFUSAL, _CLI_REFUSALS[value[0]]
        elif op.kind == "cli" and value[0] not in (0, 1):
            outcome, detail = FAILURE, "exit %d" % value[0]
        if outcome != ANSWER:
            value = None
    took = CLOCK() - t0
    return Call(op.kind, took, outcome, detail, value, took)


class Runner:
    """Runs cases and checks every answer.

    The form of each case's unscrambled block sum is computed once, outside
    any timing, and kept for the case; the harness computes them all before
    the first pass.
    """

    def __init__(self, limit, pace):
        self.limit = limit
        self.pace = pace
        self._expected = {}

    def timed(self, op, seconds=None, probe=None):
        """run_op between two Pace readings, under a limit of `seconds`
        (default: the Runner's limit) paced seconds; the Call's seconds are
        paced.

        probe, a SpanTracer or FieldCounter, gets a new call_id and is
        unpaused for the call alone.
        """
        before = self.pace.reading()
        limit = seconds or self.limit.seconds
        if probe is not None:
            probe.call_id += 1
            probe.paused = False
        try:
            # the limit is in paced seconds: CPU seconds at the host's
            # current speed
            call = run_op(op, self.limit, self.pace.unscale(limit, before))
        finally:
            if probe is not None:
                probe.paused = True
        after = self.pace.reading()
        if call.detail == "timeout":
            # a call over the limit costs the limit: bounded and repeatable
            return call._replace(seconds=limit)
        return call._replace(
            seconds=self.pace.scale(call.cpu, before, after))

    def expected(self, case):
        if case.base is None:
            return None
        if case.index not in self._expected:
            op = Op("canon", (case.base,), None)
            call = run_op(op, self.limit)
            if call.outcome == ANSWER:
                check_value(op, call.value)
            self._expected[case.index] = (call.outcome, call.detail,
                                          call.value)
        return self._expected[case.index]

    def run_case(self, case):
        """Run the case's ops in order and check them; returns the Calls."""
        calls = [self.timed(op) for op in case.ops]
        check_case(case, [(c.outcome, c.detail, c.value) for c in calls],
                   self.expected(case))
        return calls

    def rerun_case(self, case, reference, seconds, probe=None):
        """Run again the ops that did not time out in `reference` (the
        checked Calls of an earlier run of the case), with a limit of
        `seconds`.  Every outcome must repeat and every answer must equal
        the checked one.  probe is passed to timed().
        """
        calls = []
        for op, ref in zip(case.ops, reference):
            if ref.detail == "timeout":
                continue
            call = self.timed(op, seconds, probe)
            calls.append(call)
            if call.detail == "timeout":
                continue
            same = (call.outcome, call.detail) == (ref.outcome, ref.detail)
            if not same or (call.outcome == ANSWER
                            and not same_answer(op, ref.value, call.value)):
                raise WrongAnswer("%s: rerun gave %s %s, first run %s %s"
                                  % (op.kind, call.outcome, call.detail,
                                     ref.outcome, ref.detail))
        return calls


# -- statistics ---------------------------------------------------------------

def percentile(values, p):
    """Linear-interpolated percentile of a non-empty list."""
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(xs) - 1)
    if xs[hi] == math.inf:
        return xs[hi] if k > lo else xs[lo]
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def tail_percentile(count):
    """The highest percentile with at least ten of `count` samples beyond
    it: 100 (1 - 10/count), but never below the median."""
    return max(50.0, 100.0 * (1.0 - 10.0 / count))


def latency_summary(calls, kinds):
    """Latency of the calls of the given kinds, in ms.

    "answered" uses answered calls only.  "all" enters every refused or
    failed call as +inf, so turning those into answers can only lower it.
    """
    mine = [c for c in calls if c.kind in kinds]
    answered = [c.seconds * 1e3 for c in mine if c.outcome == ANSWER]
    every = answered + [math.inf] * (len(mine) - len(answered))
    out = {"attempted": len(mine), "answered": len(answered)}
    for name, values in (("answered", answered), ("all", every)):
        if not values:
            out[name] = None
            continue
        tail = tail_percentile(len(values))
        out[name] = {"p50": percentile(values, 50),
                     "tail": percentile(values, tail),
                     "tail_percentile": tail, "samples": len(values)}
    return out
