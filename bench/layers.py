"""Per-layer measurement from outside the program.

Span pass: the public functions of each layer are replaced, wherever a
matcanon module looks them up, by wrappers that record spans (name, start,
end, parent, call id) in memory.  Field pass: the Scalar operators are
replaced by counters instead, so their cost does not inflate any span.
Both restore every attribute they replaced when they end.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import Counter, defaultdict
from fractions import Fraction

from matcanon import (CongruenceWitness, ExactMatrix, FieldContext, Scalar,
                      gf4, prime_field, rationals)

from pace import CLOCK

# (span name, defining module, attribute): module-level functions, patched
# in every matcanon module that holds them
FUNCTIONS = (
    ("canon.canonicalize", "matcanon.canon", "canonicalize"),
    ("canon.equivalent", "matcanon.canon", "equivalent"),
    ("canon.transpose_witness", "matcanon.canon", "transpose_witness"),
    ("cli.main", "matcanon.cli", "main"),
    ("gabriel.decompose", "matcanon.gabriel", "gabriel_decompose"),
    ("spectral.asymmetry", "matcanon.spectral", "asymmetry"),
    ("spectral.split", "matcanon.spectral", "split_min_poly"),
    ("spectral.eigen_split", "matcanon.spectral", "eigen_split"),
    ("spectral.hyperbolic", "matcanon.spectral", "hyperbolic_canonical"),
    ("unipotent.peel", "matcanon.unipotent", "peel_all"),
    ("unipotent.reduce", "matcanon.unipotent", "reduce_single"),
    ("unipotent.reduce", "matcanon.unipotent", "reduce_pair"),
    ("exactmat.elim", "matcanon.exactmat", "inverse_or_rank"),
    ("exactmat.elim", "matcanon.exactmat", "solve"),
)
# (span name, class, method)
METHODS = (
    ("exactmat.matmul", ExactMatrix, "__matmul__"),
    ("exactmat.certify", CongruenceWitness, "__init__"),
)
# root candidates: counted, not spanned (one call per field element when
# the field is enumerated)
POLY_EVAL = ("matcanon.spectral", "poly_eval")
ENTRY_SPANS = ("canon.canonicalize", "canon.equivalent",
               "canon.transpose_witness", "cli.main")

# (counter, class, method) for the field pass
FIELD_OPS = (
    ("field.mul", Scalar, "__mul__"), ("field.mul", Scalar, "__rmul__"),
    ("field.add", Scalar, "__add__"), ("field.add", Scalar, "__radd__"),
    ("field.inv", Scalar, "inverse"),
    ("field.adjoin", FieldContext, "adjoin_sqrt"),
    ("field.adjoin", FieldContext, "adjoin_artin_schreier"),
)


def _matcanon_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "matcanon"
                                  or name.startswith("matcanon."))]


class Patches:
    """Replaced attributes, restored in reverse order by restore()."""

    def __init__(self):
        self._saved = []

    def function(self, module_name, attr, make_wrapper):
        original = getattr(sys.modules[module_name], attr)
        wrapper = make_wrapper(original)
        for module in _matcanon_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, name, value))
                    setattr(module, name, wrapper)

    def method(self, cls, attr, make_wrapper):
        original = cls.__dict__[attr]
        self._saved.append((cls, attr, original))
        setattr(cls, attr, make_wrapper(original))

    def restore(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


class SpanTracer:
    """Records a span around every call of a wrapped layer function.

    spans: [name, start, end, parent index or -1, call id], in start order.
    Set call_id before each top-level call; set paused while the benchmark
    checks answers, so its own calls leave no spans.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.call_id = -1
        self.paused = False
        self._stack = []
        self._patches = Patches()

    def _wrap(self, name, extra=None):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self.paused:
                    return fn(*args, **kwargs)
                span = [name, CLOCK(), None,
                        self._stack[-1] if self._stack else -1, self.call_id]
                self._stack.append(len(self.spans))
                self.spans.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = CLOCK()
                    self._stack.pop()
                if extra is not None:
                    extra(args, result)
                return result
            return wrapper
        return make

    def _count_mults(self, args, result):
        a, b = args
        self.counts[("exactmat.matmul.mults", self.call_id)] += \
            a.nrows * a.ncols * b.ncols

    def _count_roots(self, args, result):
        self.counts[("spectral.roots", self.call_id)] += len(result.split_roots)

    def _count_calls(self, name):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.paused:
                    self.counts[(name, self.call_id)] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def __enter__(self):
        extras = {"spectral.split": self._count_roots}
        for name, module, attr in FUNCTIONS:
            self._patches.function(module, attr,
                                   self._wrap(name, extras.get(name)))
        for name, cls, attr in METHODS:
            extra = self._count_mults if name == "exactmat.matmul" else None
            self._patches.method(cls, attr, self._wrap(name, extra))
        self._patches.function(*POLY_EVAL,
                               self._count_calls("spectral.poly_eval"))
        return self

    def __exit__(self, *exc):
        self._patches.restore()


class FieldCounter:
    """Counts Scalar operator calls and field adjunctions per call id."""

    def __init__(self):
        self.counts = Counter()
        self.tower_height = {}
        self.call_id = -1
        self.paused = False
        self._patches = Patches()

    def _make(self, name):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self.paused:
                    return fn(*args, **kwargs)
                self.counts[(name, self.call_id)] += 1
                result = fn(*args, **kwargs)
                if name == "field.adjoin":
                    self.tower_height[self.call_id] = max(
                        self.tower_height.get(self.call_id, 0),
                        len(result.tower))
                return result
            return wrapper
        return make

    def __enter__(self):
        for name, cls, attr in FIELD_OPS:
            self._patches.method(cls, attr, self._make(name))
        return self

    def __exit__(self, *exc):
        self._patches.restore()


# -- turning spans into per-layer metrics -------------------------------------

def layer_metrics(spans, counts, pace, answers):
    """Per-answer layer metrics from the spans and counts of kept calls.

    pace maps the id of each kept call to the factor that paced its time
    (see pace.py); its spans are paced by the same factor.
    """
    per = max(answers, 1)
    incl = defaultdict(float)
    self_ms = defaultdict(float)
    n = Counter()
    child = defaultdict(float)
    nested = Counter()   # (ancestor entry span, name) occurrences
    durations = [(end - start) * 1e3 * pace[call] if call in pace else None
                 for _name, start, end, _parent, call in spans]
    for i, (name, _start, _end, parent, _call) in enumerate(spans):
        if durations[i] is None:
            continue
        incl[name] += durations[i]
        n[name] += 1
        if parent >= 0:
            child[parent] += durations[i]
    for i, (name, _start, _end, _parent, _call) in enumerate(spans):
        if durations[i] is not None:
            self_ms[name] += durations[i] - child[i]
    for name, _start, _end, parent, call in spans:
        if call not in pace or name != "canon.canonicalize":
            continue
        seen = set()
        while parent >= 0:
            pname = spans[parent][0]
            if pname in ("canon.equivalent", "cli.main") and pname not in seen:
                nested[pname] += 1
                seen.add(pname)
            parent = spans[parent][3]
    total = defaultdict(int)
    for (name, call), value in counts.items():
        if call in pace:
            total[name] += value
    call_ms = sum(durations[i] for i, (name, _s, _e, parent, _c)
                  in enumerate(spans)
                  if durations[i] is not None and name in ENTRY_SPANS
                  and parent < 0)
    kernels = self_ms["exactmat.matmul"] + self_ms["exactmat.elim"]
    out = {
        "call.ms": call_ms / per,
        "canon.canonicalize.self_ms": self_ms["canon.canonicalize"] / per,
        "canon.equivalent.self_ms": self_ms["canon.equivalent"] / per,
        "canon.canonicalize_per_verdict": _ratio(
            nested["canon.equivalent"], n["canon.equivalent"]),
        "cli.main.self_ms": self_ms["cli.main"] / per,
        "cli.canonicalize_per_call": _ratio(nested["cli.main"],
                                            n["cli.main"]),
        "gabriel.decompose.ms": incl["gabriel.decompose"] / per,
        "spectral.asymmetry.ms": incl["spectral.asymmetry"] / per,
        "spectral.split.ms": incl["spectral.split"] / per,
        "spectral.eigen_split.ms": incl["spectral.eigen_split"] / per,
        "spectral.hyperbolic.ms": incl["spectral.hyperbolic"] / per,
        "spectral.poly_eval_per_root": _ratio(total["spectral.poly_eval"],
                                              total["spectral.roots"]),
        "unipotent.peel.ms": incl["unipotent.peel"] / per,
        "unipotent.reduce.ms": incl["unipotent.reduce"] / per,
        "exactmat.matmul.count": n["exactmat.matmul"] / per,
        "exactmat.matmul.ms": incl["exactmat.matmul"] / per,
        "exactmat.matmul.mults": total["exactmat.matmul.mults"] / per,
        "exactmat.elim.count": n["exactmat.elim"] / per,
        "exactmat.elim.ms": incl["exactmat.elim"] / per,
        "exactmat.certify.count": n["exactmat.certify"] / per,
        "exactmat.certify.ms": incl["exactmat.certify"] / per,
        "share.spectral.split": _ratio(incl["spectral.split"], call_ms),
        "share.exactmat.kernels": _ratio(kernels, call_ms),
    }
    return out


def field_metrics(counter, kept_calls, answers):
    per = max(answers, 1)
    total = Counter()
    for (name, call), value in counter.counts.items():
        if call in kept_calls:
            total[name] += value
    heights = [h for call, h in counter.tower_height.items()
               if call in kept_calls]
    return {
        "field.mul.count": total["field.mul"] / per,
        "field.add.count": total["field.add"] / per,
        "field.inv.count": total["field.inv"] / per,
        "field.adjoin.count": total["field.adjoin"] / per,
        "field.tower_height.max": max(heights, default=0),
    }


def _ratio(num, den):
    return num / den if den else 0.0


# -- scalar micro-operations --------------------------------------------------

def _micro_operands():
    q = rationals()
    q2 = q.adjoin_sqrt(q.scalar(2))
    f3 = prime_field(3)
    f3s = f3.adjoin_sqrt(f3.scalar(2))
    f4 = gf4()
    big = prime_field(65521)
    g, h = q2.generator(1), f3s.generator(1)
    return {
        "q": (q.scalar(Fraction(7, 5)), q.scalar(Fraction(-3, 11))),
        "q_sqrt2": (g + q2.scalar(3), g * q2.scalar(2) - q2.scalar(1)),
        "gf3": (f3.scalar(2), f3.scalar(2)),
        "gf3_sqrt2": (h + f3s.scalar(1), h * f3s.scalar(2) + f3s.scalar(2)),
        "gf4": (f4.scalar((0, 1)), f4.scalar((1, 1))),
        "gf65521": (big.scalar(40503), big.scalar(12345)),
    }


def micro_ops(pace, repeats=5, loops=2000):
    """Paced ns per Scalar multiply (six fields) and inverse (Q,
    GF(65521)): the median of `repeats` timings of `loops` operations."""
    operands = _micro_operands()

    def per_op(fn):
        times = []
        for _ in range(repeats):
            before = pace.reading()
            t0 = CLOCK()
            for _ in range(loops):
                fn()
            cpu = CLOCK() - t0
            times.append(pace.scale(cpu, before, pace.reading()) / loops
                         * 1e9)
        return statistics.median(times)

    out = {}
    for name, (x, y) in operands.items():
        out["field.mul_ns." + name] = per_op(lambda: x * y)
    for name in ("q", "gf65521"):
        x = operands[name][0]
        out["field.inv_ns." + name] = per_op(x.inverse)
    return out
