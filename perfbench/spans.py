"""Span recording for the traced run, kept outside the library.

``tracing(recorder)`` replaces every public function of each cmpartitions
module, at each module attribute of the package bound to it (so both
``evaluate.eval_P`` and the ``eval_P`` that ``recognize`` imported are
covered), with a wrapper that records a span, and restores the originals on
exit.  Spans stay in memory until the run writes them out.  A span's layer is
the module that defines the function; its self time is its duration minus
the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from contextlib import contextmanager
from itertools import chain
from time import perf_counter

PACKAGE = "cmpartitions"
LAYERS = ("cli", "evaluate", "precision", "modpoly", "recognize", "quadforms",
          "resolvent", "series")

# Private functions traced under a span name, at one caller's binding only:
# the eta-route j as modpoly calls it for the norm products.
PRIVATE = (("modpoly", "_j_from_eta", "j_eta"),)

# Return values worth keeping on a span, by (layer, function).
NOTES = {
    ("quadforms", "enumerate_qn"):
        lambda args, kwargs, result: (args[0] if args else kwargs["n"], len(result)),
    ("recognize", "sharpness_divisor"): lambda args, kwargs, result: result != 0,
}


class Span:
    __slots__ = ("id", "parent", "task", "layer", "name", "bits", "t0", "t1",
                 "error", "note")

    def to_json(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


def _bits(args, kwargs):
    """Working bits of the first PrecisionConfig among the arguments."""
    for arg in chain(args, kwargs.values()):
        bits = getattr(arg, "working_bits", None)
        if isinstance(bits, int):
            return bits
    return None


class Recorder:
    """In-memory spans of one run; ``task`` tags the spans of the command
    being run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.task = None
        self._open: list[int] = []

    def call(self, layer, name, fn, args, kwargs, bits=None):
        span = Span()
        span.id = len(self.spans)
        span.parent = self._open[-1] if self._open else None
        span.task, span.layer, span.name = self.task, layer, name
        span.bits = _bits(args, kwargs) if bits is None else bits
        span.error = span.note = None
        self.spans.append(span)
        self._open.append(span.id)
        span.t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.t1 = perf_counter()
            self._open.pop()
        note = NOTES.get((layer, name))
        if note is not None:
            span.note = note(args, kwargs, result)
        return result

    def write(self, path, meta: dict) -> None:
        doc = dict(meta, run_id=self.run_id, spans=[s.to_json() for s in self.spans])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def _layer_of(module_name: str) -> str:
    return module_name.rpartition(".")[2]


def _wrap(recorder: Recorder, layer: str, name: str, fn):
    if (layer, name) == ("precision", "run_adaptive"):
        @functools.wraps(fn)
        def ladder(task, *args, **kwargs):
            # each rung is a span of the module that wrote the task
            rung_layer = _layer_of(getattr(task, "__module__", None) or layer)
            if rung_layer not in LAYERS:
                rung_layer = layer

            def rung(bits):
                return recorder.call(rung_layer, "rung", task, (bits,), {}, bits=bits)

            return recorder.call(layer, name, fn, (rung,) + args, kwargs)

        return ladder

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return recorder.call(layer, name, fn, args, kwargs)

    return traced


def span_cost_s(calls: int = 20000) -> float:
    """Time one span adds to a call, measured on a function that does
    nothing; the median of five trials."""
    recorder = Recorder("span-cost")

    def noop(a, b, c):
        return a

    traced = _wrap(recorder, "cli", "noop", noop)
    costs = []
    for _ in range(5):
        recorder.spans.clear()
        t0 = perf_counter()
        for i in range(calls):
            noop(i, 2.0, "c")
        t1 = perf_counter()
        for i in range(calls):
            traced(i, 2.0, "c")
        t2 = perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    costs.sort()
    return max(costs[2], 0.0)


@contextmanager
def tracing(recorder: Recorder):
    modules = [m for key, m in list(sys.modules.items())
               if key == PACKAGE or key.startswith(PACKAGE + ".")]
    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for name, fn in vars(module).items():
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and not name.startswith("_")):
                wrappers[fn] = _wrap(recorder, layer, name, fn)
    patched = []
    try:
        for module in modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patched.append((module, name, obj))
                    setattr(module, name, wrappers[obj])
        for layer, name, span_name in PRIVATE:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            fn = getattr(module, name)
            patched.append((module, name, fn))
            setattr(module, name, _wrap(recorder, _layer_of(fn.__module__), span_name, fn))
        yield recorder
    finally:
        for module, name, obj in reversed(patched):
            setattr(module, name, obj)


# name -> (unit, better); every metric the traced run reports
UNITS = {
    "evaluate.self_s": ("s", "lower"),
    "evaluate.eval_P.calls": ("count", "lower"),
    "evaluate.eval_P.ms_256": ("ms", "lower"),
    "evaluate.eval_P.ms_512": ("ms", "lower"),
    "evaluate.eval_P.ms_1024": ("ms", "lower"),
    "evaluate.eval_A.busy_s": ("s", "lower"),
    "evaluate.eval_B.busy_s": ("s", "lower"),
    "evaluate.eval_C.busy_s": ("s", "lower"),
    "evaluate.eval_Aprime.busy_s": ("s", "lower"),
    "evaluate.eval_j.calls": ("count", "lower"),
    "evaluate.eval_theta_j.calls": ("count", "lower"),
    "evaluate.j_eta.calls": ("count", "lower"),
    "evaluate.j_eta.ms_per_call": ("ms", "lower"),
    "precision.ladders": ("count", "lower"),
    "precision.rungs": ("count", "lower"),
    "precision.rungs_per_ladder": ("ratio", "lower"),
    "precision.top_bits": ("bits", "lower"),
    "precision.confirm_share": ("ratio", "lower"),
    "precision.self_s": ("s", "lower"),
    "modpoly.beta_product.calls": ("count", "lower"),
    "modpoly.beta_product.busy_s": ("s", "lower"),
    "modpoly.beta_norm.probe_s": ("s", "lower"),
    "modpoly.beta_norm.ladder_s": ("s", "lower"),
    "modpoly.beta_norm.bits": ("bits", "lower"),
    "modpoly.fixing_class.calls": ("count", "lower"),
    "modpoly.taylor_coeffs.busy_s": ("s", "lower"),
    "modpoly.self_s": ("s", "lower"),
    "recognize.orbit_product.calls": ("count", "lower"),
    "recognize.orbit_product.busy_s": ("s", "lower"),
    "recognize.sharpness.tries_per_hit": ("ratio", "lower"),
    "recognize.margin_bits": ("bits", "higher"),
    "recognize.self_s": ("s", "lower"),
    "quadforms.forms": ("count", "higher"),
    "quadforms.enumerate_qn.busy_s": ("s", "lower"),
    "quadforms.cm_point.calls": ("count", "lower"),
    "quadforms.self_s": ("s", "lower"),
    "resolvent.tabulated_deviations.calls": ("count", "lower"),
    "resolvent.tabulated_deviations.busy_s": ("s", "lower"),
    "resolvent.self_s": ("s", "lower"),
    "series.fp_series.busy_s": ("s", "lower"),
    "series.hypothesis_check.busy_s": ("s", "lower"),
    "series.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "host.cpu_s": ("s", "lower"),
    "host.bigint_mul_us": ("us", "lower"),
    "host.ref_kernel_ms": ("ms", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.uncovered_s": ("s", "lower"),
}


def layer_metrics(spans: list[Span], wall_s: float) -> dict:
    """Per-layer figures derived from one traced pass that took ``wall_s``.

    The ``*.self_s`` values plus ``trace.uncovered_s`` add up to ``wall_s``.
    ``modpoly.beta_norm.bits`` and ``recognize.margin_bits`` come from the
    commands' output, not from spans, and are filled in by the caller.
    """
    dur = [s.t1 - s.t0 for s in spans]
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for s in spans:
        out[f"{s.layer}.self_s"] += dur[s.id] - sum(dur[c.id] for c in children.get(s.id, ()))
    out["trace.wall_s"] = wall_s
    out["trace.uncovered_s"] = wall_s - sum(dur[s.id] for s in spans if s.parent is None)

    def named(layer, name):
        return [s for s in spans if s.layer == layer and s.name == name]

    def outermost(group):
        def nested(s):
            p = s.parent
            while p is not None:
                if (spans[p].layer, spans[p].name) == (s.layer, s.name):
                    return True
                p = spans[p].parent
            return False
        return [s for s in group if not nested(s)]

    def busy(layer, name):
        return sum(dur[s.id] for s in outermost(named(layer, name)))

    def mean_ms(group):
        return 1000 * sum(dur[s.id] for s in group) / len(group) if group else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    eval_p = named("evaluate", "eval_P")
    out["evaluate.eval_P.calls"] = len(eval_p)
    for bits in (256, 512, 1024):
        out[f"evaluate.eval_P.ms_{bits}"] = mean_ms([s for s in eval_p if s.bits == bits])
    for name in ("eval_A", "eval_B", "eval_C", "eval_Aprime"):
        out[f"evaluate.{name}.busy_s"] = busy("evaluate", name)
    for name in ("eval_j", "eval_theta_j", "j_eta"):
        out[f"evaluate.{name}.calls"] = len(named("evaluate", name))
    out["evaluate.j_eta.ms_per_call"] = mean_ms(named("evaluate", "j_eta"))

    ladders = named("precision", "run_adaptive")
    rungs = [s for s in spans if s.name == "rung"]
    last_rung = {}
    for s in rungs:
        last_rung[s.parent] = s
    in_ladder = [False] * len(spans)
    for s in spans:
        if s.parent is not None:
            parent = spans[s.parent]
            in_ladder[s.id] = in_ladder[parent.id] or parent.name == "run_adaptive"
    out["precision.ladders"] = len(ladders)
    out["precision.rungs"] = len(rungs)
    out["precision.rungs_per_ladder"] = ratio(len(rungs), len(ladders))
    out["precision.top_bits"] = max((s.bits for s in spans if in_ladder[s.id] and s.bits),
                                    default=0)
    out["precision.confirm_share"] = ratio(sum(dur[s.id] for s in last_rung.values()),
                                           sum(dur[s.id] for s in ladders))

    out["modpoly.beta_product.calls"] = len(named("modpoly", "beta_product"))
    out["modpoly.beta_product.busy_s"] = busy("modpoly", "beta_product")
    probe = ladder = 0.0
    for norm in named("modpoly", "beta_norm"):
        for child in children.get(norm.id, ()):
            if child.name == "run_adaptive":
                probe += child.t0 - norm.t0
                ladder += dur[child.id]
    out["modpoly.beta_norm.probe_s"] = probe
    out["modpoly.beta_norm.ladder_s"] = ladder
    out["modpoly.fixing_class.calls"] = len(named("modpoly", "fixing_class"))
    out["modpoly.taylor_coeffs.busy_s"] = busy("modpoly", "taylor_coeffs")

    out["recognize.orbit_product.calls"] = len(named("recognize", "orbit_product"))
    out["recognize.orbit_product.busy_s"] = busy("recognize", "orbit_product")
    sharpness = named("recognize", "sharpness_divisor")
    tries = sum(1 for s in named("recognize", "orbit_product")
                if s.parent is not None and spans[s.parent].name == "sharpness_divisor")
    out["recognize.sharpness.tries_per_hit"] = ratio(tries, sum(1 for s in sharpness if s.note))

    forms_by_n = dict(s.note for s in named("quadforms", "enumerate_qn") if s.note)
    out["quadforms.forms"] = sum(forms_by_n.values())
    out["quadforms.enumerate_qn.busy_s"] = busy("quadforms", "enumerate_qn")
    out["quadforms.cm_point.calls"] = len(named("quadforms", "cm_point"))

    out["resolvent.tabulated_deviations.calls"] = len(named("resolvent", "tabulated_deviations"))
    out["resolvent.tabulated_deviations.busy_s"] = busy("resolvent", "tabulated_deviations")
    out["series.fp_series.busy_s"] = busy("series", "fp_series")
    out["series.hypothesis_check.busy_s"] = busy("series", "hypothesis_check")
    return out
