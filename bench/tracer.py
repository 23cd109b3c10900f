"""Span tracer for the benchmark's traced run.

``Tracer.install`` wraps every function named in the ``__all__`` of each
flatpoly layer module and rebinds the wrapper wherever a ``flatpoly.*``
module holds the original, so calls between layers (``construct_singer``
-> ``canonical_field_spec``) get spans too.  Spans carry name, start,
end and parent and stay in memory; ``layer_metrics`` reduces them to the
benchmark's per-layer metrics.  A span's self time is its duration minus
its children's.

Coverage is loud: installing fails if a name in a layer's ``__all__`` is
missing or cannot be rebound, or if a function a metric is computed from
is not among the wrapped ones.  Only the traced run imports this module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field

LAYERS = ("singer", "poly", "analysis", "mahler", "riesz", "rankone", "cli")

# Attributes recorded on a span, from the bound arguments and the result.
HOOKS = {
    "singer.construct_singer": lambda args, result: {"p": args["p"], "m": args["m"]},
    "poly.eval_support_grid": lambda args, result: {"N": args["N"]},
    "mahler.mahler_log": lambda args, result: {"grid": result.detail["grid"]},
    "riesz.partial_coeffs": lambda args, result: {"support": len(result.coefficients)},
    "rankone.build_tower": lambda args, result: {"levels": result.level_count},
}

# Functions the per-layer metrics are computed from.
REQUIRED = set(HOOKS) | {
    "singer.canonical_field_spec", "singer.verify_perfect_difference",
    "poly.correlation_table", "poly.defect_poly",
    "analysis.flatness", "analysis.realline_flatness", "analysis.mz_ratio",
    "mahler.mahler_jensen", "riesz.check_dissociated", "rankone.correlation",
}

CONSTRUCT_LADDER = (101, 401, 1009)  # p of singer.construct_p<p>_s, m = 1
MAHLER_CAP = 2**22  # the final grid of a mahler_log that stopped at its cap


class CoverageError(RuntimeError):
    """A layer function could not be traced."""


@dataclass
class Span:
    name: str  # "<layer>.<function>"
    layer: str
    parent: int | None  # index of the enclosing span
    start: float
    end: float = 0.0
    error: bool = False
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []

    def _wrap(self, name, layer, fn):
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, stack[-1] if stack else None, time.perf_counter())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs = hook(bound.arguments, result)
            return result

        return traced

    def install(self):
        """Wrap every layer's ``__all__`` functions; CoverageError if one cannot be."""
        wrappers = {}  # id(original) -> (original, wrapper)
        traced = set()
        for layer in LAYERS:
            module = importlib.import_module(f"flatpoly.{layer}")
            names = getattr(module, "__all__", None)
            if not names:
                raise CoverageError(f"flatpoly.{layer} has no __all__")
            count = 0
            for name in names:
                if not hasattr(module, name):
                    raise CoverageError(f"flatpoly.{layer}.__all__ names missing {name!r}")
                obj = getattr(module, name)
                if isinstance(obj, type) or not callable(obj):
                    continue  # classes and constants are not calls
                wrappers.setdefault(id(obj), (obj, self._wrap(f"{layer}.{name}", layer, obj)))
                traced.add(f"{layer}.{name}")
                count += 1
            if not count:
                raise CoverageError(f"flatpoly.{layer} exports no function to trace")
        missing = REQUIRED - traced
        if missing:
            raise CoverageError(f"metric sources not wrapped: {sorted(missing)}")
        for modname, module in list(sys.modules.items()):
            if modname != "flatpoly" and not modname.startswith("flatpoly."):
                continue
            for attr, value in list(vars(module).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is not value:
                    continue
                try:
                    setattr(module, attr, wrapper)
                except (AttributeError, TypeError) as exc:
                    raise CoverageError(f"cannot rebind {modname}.{attr}: {exc}") from None
                self._restore.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.end - span.start
    return [span.end - span.start - c for span, c in zip(spans, child)]


def layer_metrics(spans):
    """The per-layer metrics of one traced pass, by name."""
    own = self_times(spans)
    metrics = {}
    for layer in LAYERS:
        mine = [i for i, span in enumerate(spans) if span.layer == layer]
        metrics[f"{layer}.self_s"] = sum(own[i] for i in mine)
        metrics[f"{layer}.calls"] = len(mine)
        metrics[f"{layer}.errors"] = sum(spans[i].error for i in mine)

    def named(name):
        return [span for span in spans if span.name == name]

    def total_s(selected):
        return sum(span.end - span.start for span in selected)

    def self_s(name):
        return sum(own[i] for i, span in enumerate(spans) if span.name == name)

    construct = named("singer.construct_singer")
    for p in CONSTRUCT_LADDER:
        metrics[f"singer.construct_p{p}_s"] = total_s(
            s for s in construct if s.attrs.get("p") == p and s.attrs.get("m") == 1)
    metrics["singer.verify_s"] = total_s(named("singer.verify_perfect_difference"))
    metrics["singer.field_spec_calls"] = len(named("singer.canonical_field_spec"))
    metrics["singer.residues_scanned"] = sum(
        s.attrs["p"] ** (2 * s.attrs["m"]) + s.attrs["p"] ** s.attrs["m"] + 1
        for s in construct if s.attrs)

    evals = named("poly.eval_support_grid")
    metrics["poly.correlation_s"] = total_s(named("poly.correlation_table"))
    metrics["poly.defect_poly_self_s"] = self_s("poly.defect_poly")
    metrics["poly.eval_calls"] = len(evals)
    metrics["poly.eval_points"] = sum(s.attrs.get("N", 0) for s in evals)
    metrics["poly.eval_s"] = total_s(evals)

    metrics["analysis.flatness_self_s"] = self_s("analysis.flatness")
    metrics["analysis.realline_s"] = total_s(named("analysis.realline_flatness"))
    metrics["analysis.mz_s"] = total_s(named("analysis.mz_ratio"))

    logs = named("mahler.mahler_log")
    log_evals = [s for s in evals if s.parent is not None and spans[s.parent].name == "mahler.mahler_log"]
    metrics["mahler.log_s"] = total_s(logs)
    metrics["mahler.log_evals"] = len(log_evals)
    metrics["mahler.log_points"] = sum(s.attrs.get("N", 0) for s in log_evals)
    metrics["mahler.log_capped"] = sum(s.attrs.get("grid") == MAHLER_CAP for s in logs)
    metrics["mahler.jensen_s"] = total_s(named("mahler.mahler_jensen"))

    metrics["riesz.partial_coeffs_s"] = total_s(named("riesz.partial_coeffs"))
    metrics["riesz.coeff_support"] = sum(s.attrs.get("support", 0) for s in named("riesz.partial_coeffs"))
    metrics["riesz.dissociation_s"] = total_s(named("riesz.check_dissociated"))

    metrics["rankone.tower_levels"] = sum(s.attrs.get("levels", 0) for s in named("rankone.build_tower"))
    metrics["rankone.correlation_s"] = total_s(named("rankone.correlation"))
    return metrics
