"""Layer tracing from outside the program.

A Tracer replaces public functions and methods of the g2schubert package by
wrappers that record one span per call: (name, start, end, parent span,
run id).  Each name is patched wherever callers look it up: every module of
the package that binds the same function object gets the wrapper, and the
reflected MPoly dunders (__radd__, __rmul__) are patched as well as the
forward ones.  Spans stay in memory and are written out once, at the end of
the run.  Every span above the MPoly layer is kept; MPoly spans, which run
to hundreds of thousands a pass, are kept up to a cap and only counted
beyond it.

Per name the tracer keeps the call count, the inclusive time, the self
time (a span's duration minus the part of it that its child spans cover)
and the number of direct child spans.  A wrapper costs time of its own:
part of it falls inside its span, and part before and after it, in the
parent's self time.  measure_span_cost() times both parts on an empty
wrapped call, and self_s() subtracts them, per call and per child.  What
the work-counting hooks cost is not subtracted; it stays in the parent's
self time.  Self times of all spans add up to the time spent inside traced
code, so by construction they never exceed the traced wall time.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import weakref
from time import perf_counter
from typing import Callable, Dict, List, Optional

PACKAGE = "g2schubert"


class Tracer:
    def __init__(self, max_mpoly_spans: int = 100_000):
        self.mpoly_room = max_mpoly_spans
        self.run_id = -1
        self.active = False  # spans are recorded only while this is set
        # name -> [calls, inclusive seconds, self seconds, direct children]
        self.stats: Dict[str, List[float]] = {}
        # wrapper cost per span: inside the span, and charged to its parent
        self.cost_in = self.cost_out = 0.0
        self.spans: List[tuple] = []
        self.dropped = 0
        self.counters: Dict[str, int] = {}
        self._stack: List[list] = []
        self._patches: List[tuple] = []

    # ---- recording ----

    def count(self, name: str, amount: int = 1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable,
             label: Optional[Callable] = None,
             on_enter: Optional[Callable] = None,
             on_exit: Optional[Callable] = None) -> Callable:
        """Return fn wrapped in a span.  label(args) may refine the span name
        from the arguments; on_enter(args) and on_exit(args, result) update
        work counters."""
        stack = self._stack
        spans = self.spans
        stats = self.stats
        capped = name.startswith("mpoly.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_name = name if label is None else label(args)
            if on_enter is not None:
                on_enter(args)
            parent = stack[-1][1] if stack else -1
            if capped and self.mpoly_room <= 0:
                index = -1
                self.dropped += 1
            else:
                self.mpoly_room -= capped
                index = len(spans)
                spans.append(None)
            frame = [0.0, index, 0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                    stack[-1][2] += 1
                entry = stats.get(span_name)
                if entry is None:
                    entry = stats[span_name] = [0, 0.0, 0.0, 0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[0]
                entry[3] += frame[2]
                if index >= 0:
                    spans[index] = (span_name, start, end, parent, self.run_id)
            if on_exit is not None:
                on_exit(args, result)
            return result

        return traced

    # ---- patching ----

    def patch_attr(self, owner, attr: str, name: str, **hooks):
        """Wrap one class or module attribute."""
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **hooks))

    def patch_function(self, module, attr: str, name: str, **hooks):
        """Wrap a module-level function in every package module that binds
        it, so callers that imported it by name see the wrapper too."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE
                                   or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def measure_span_cost(self, calls: int = 20_000, repeats: int = 5):
        """Time an empty wrapped call against a bare one, and set cost_in
        (wrapper time inside the span) and cost_out (wrapper time charged to
        the caller), each the median over several repeats."""
        def empty():
            return None

        costs_in, costs_out = [], []
        for _ in range(repeats):
            probe = Tracer()
            probe.active = True
            wrapped = probe.wrap("probe", empty)
            loop = range(calls)
            start = perf_counter()
            for _ in loop:
                pass
            looped = perf_counter() - start
            start = perf_counter()
            for _ in loop:
                empty()
            bare = perf_counter() - start - looped
            start = perf_counter()
            for _ in loop:
                wrapped()
            traced = perf_counter() - start - looped
            inside = probe.total_s("probe")
            costs_in.append((inside - bare) / calls)
            costs_out.append((traced - inside) / calls)
        self.cost_in = statistics.median(costs_in)
        self.cost_out = statistics.median(costs_out)

    # ---- results ----

    def _entry(self, name: str):
        return self.stats.get(name, (0, 0.0, 0.0, 0))

    def self_s(self, name: str) -> float:
        """Self time with the wrapper cost of the span and of its direct
        children taken out."""
        calls, _, own, children = self._entry(name)
        return own - self.cost_in * calls - self.cost_out * children

    def self_sum(self) -> float:
        return sum(self.self_s(name) for name in self.stats)

    def calls(self, name: str) -> int:
        return int(self._entry(name)[0])

    def total_s(self, name: str) -> float:
        return self._entry(name)[1]

    def write_spans(self, path):
        """One JSON list per line: [name, start, end, parent index, run id];
        the parent index counts lines of the file from 0, and is -1 for a
        top-level span or one whose parent was not kept."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# the layers of g2schubert

MPOLY_METHODS = (("__init__", "init"), ("__add__", "add"), ("__radd__", "add"),
                 ("__mul__", "mul"), ("__rmul__", "mul"), ("__pow__", "pow"),
                 ("subs", "subs"))
PRESENTATION_METHODS = ("reduce_monomial", "reduce_poly", "normal_form",
                        "mult_table")
COHOMRING_FUNCTIONS = ("schubert_expand", "duality_pairing",
                       "get_presentation", "verify_presentation")
SCHUBERT_FUNCTIONS = ("div_diff", "generate_family", "equivariant_restriction",
                      "positive_rewrite")
LINSOLVE_FUNCTIONS = ("solve_linear", "rank", "determinant")


def install(tracer: Tracer, prog) -> None:
    """Patch every traced layer of the loaded program."""
    mpoly_cls = prog.mpoly.MPoly

    def term_pairs(args):
        a, b = args[0], args[1]
        tracer.count("mpoly.mul.term_pairs",
                     len(a) * (len(b) if isinstance(b, mpoly_cls) else 1))

    for attr, short in MPOLY_METHODS:
        hooks = {"on_enter": term_pairs} if short == "mul" else {}
        tracer.patch_attr(mpoly_cls, attr, f"mpoly.{short}", **hooks)
    tracer.patch_function(prog.mpoly, "exact_divide", "mpoly.exact_divide",
                          on_exit=lambda args, q: tracer.count(
                              "mpoly.exact_divide.quotient_terms", len(q)))
    tracer.patch_function(prog.parse, "parse_poly", "parse.parse_poly")
    for fn in LINSOLVE_FUNCTIONS:
        tracer.patch_function(prog.linsolve, fn, f"linsolve.{fn}")
    tracer.patch_function(prog.lp, "lp_feasible", "lp.lp_feasible")
    tracer.patch_attr(prog.octonion.AlgebraCtx, "mul", "octonion.mul")
    tracer.patch_function(prog.weyl, "bruhat_leq", "weyl.bruhat_leq")
    for fn in SCHUBERT_FUNCTIONS:
        tracer.patch_function(prog.schubert, fn, f"schubert.{fn}")

    # exponents seen per presentation; a presentation's set goes with it
    seen: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def repeat(args):
        pres, exp = args[0], args[1]
        keys = seen.get(pres)
        if keys is None:
            keys = seen[pres] = set()
        if exp in keys:
            tracer.count("cohomring.reduce_monomial.repeats")
        else:
            keys.add(exp)

    for attr in PRESENTATION_METHODS:
        hooks = {"on_enter": repeat} if attr == "reduce_monomial" else {}
        tracer.patch_attr(prog.cohomring.Presentation, attr,
                          f"cohomring.{attr}", **hooks)
    for fn in COHOMRING_FUNCTIONS:
        hooks = {}
        if fn == "verify_presentation":
            hooks["label"] = lambda args: f"cohomring.verify_presentation.{args[0].name}"
        tracer.patch_function(prog.cohomring, fn, f"cohomring.{fn}", **hooks)
    tracer.patch_function(prog.checks, "run_suite", "checks.run_suite",
                          label=lambda args: f"checks.{args[0]}")


TIMED_LAYERS = (
    ["cohomring.reduce_monomial"]
    + [f"cohomring.{fn}" for fn in ("reduce_poly", "normal_form", "mult_table",
                                    "schubert_expand", "duality_pairing",
                                    "get_presentation")]
    + [f"mpoly.{fn}" for fn in ("init", "add", "mul", "pow", "subs",
                                "exact_divide")]
    + [f"schubert.{fn}" for fn in SCHUBERT_FUNCTIONS]
    + ["parse.parse_poly"]
    + [f"linsolve.{fn}" for fn in LINSOLVE_FUNCTIONS]
    + ["lp.lp_feasible", "octonion.mul", "weyl.bruhat_leq"]
)
VERIFIED_PRESENTATIONS = ("FlIntegralPoint", "FlHalfPoint", "FlIntegralBundle",
                          "FlHalfBundle", "Equivariant", "QuadricBundle3",
                          "QuadricBundle3Y", "QuadricBundle3Fiber")
SUITES = ("octonion", "weyl", "divdiff", "families", "ring", "equivariant",
          "impossibility", "positivity", "quadric")


def layer_metrics(tracer: Tracer, family_info, traced_wall: float,
                  untraced_wall: float) -> Dict[str, Dict]:
    """Every per-layer metric of one traced pass, by name."""
    out: Dict[str, Dict] = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for layer in TIMED_LAYERS:
        put(f"{layer}.calls", tracer.calls(layer), "count")
        put(f"{layer}.self_s", tracer.self_s(layer), "s")
    calls = tracer.calls("cohomring.reduce_monomial")
    repeats = tracer.counters.get("cohomring.reduce_monomial.repeats", 0)
    put("cohomring.reduce_monomial.repeat_ratio",
        repeats / calls if calls else 0.0, "ratio")
    for name in VERIFIED_PRESENTATIONS:
        put(f"cohomring.verify_presentation.{name}.total_s",
            tracer.total_s(f"cohomring.verify_presentation.{name}"), "s")
    for suite in SUITES:
        put(f"checks.{suite}.total_s", tracer.total_s(f"checks.{suite}"), "s")
    for counter in ("mpoly.mul.term_pairs", "mpoly.exact_divide.quotient_terms"):
        put(counter, tracer.counters.get(counter, 0), "count")
    lookups = family_info.hits + family_info.misses
    put("schubert.generate_family.hit_ratio",
        family_info.hits / lookups if lookups else 0.0, "ratio")
    put("trace.wall_s", traced_wall, "s")
    put("trace.untraced_wall_s", untraced_wall, "s")
    put("trace.overhead_s", traced_wall - untraced_wall, "s")
    put("trace.self_sum_s", tracer.self_sum(), "s")
    put("trace.span_cost_us", 1e6 * (tracer.cost_in + tracer.cost_out), "us")
    put("trace.spans", len(tracer.spans) + tracer.dropped, "count")
    return out
