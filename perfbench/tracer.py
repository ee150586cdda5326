"""Spans and counters around the eulerlp layers, for a traced repetition.

``Tracer.install`` wraps every public function of each layer module and
replaces every binding of it in every eulerlp module, because harness and
cli import functions by name (``from .lfunctions import padic_l``).  A
wrapped call opens a span (id, parent id, name, start, end) unless it
recurses into the span already open for the same function.

``PadicNumber`` arithmetic and ``PadicContext.from_rational`` run hundreds of
thousands of times per CLI call, so they are counted but not spanned.  The
hot helpers in ``UNWRAPPED`` are left alone: ``euler_number`` is called once
per series term and its hits and misses come from ``cache_info()``.  The time
of both kinds is part of the calling layer's self time.
"""

from __future__ import annotations

import importlib
from collections import Counter
from time import perf_counter_ns

LAYERS = ("euler", "padic", "characters", "lfunctions", "harness", "reports", "cli")

UNWRAPPED = frozenset({"euler.euler_number", "padic.binomial", "padic.is_prime"})

# counter name -> (class, methods) whose calls it counts
COUNTED_METHODS = {
    "padic.mul": ("PadicNumber", ("__mul__", "__rmul__")),
    "padic.addsub": ("PadicNumber", ("__add__", "__radd__", "__sub__", "__rsub__")),
    "padic.inverse_pow": ("PadicNumber", ("inverse", "__pow__")),
    "padic.from_rational": ("PadicContext", ("from_rational",)),
}

IDENTITY_REPORTS = (
    "harness.distribution_report",
    "harness.power_sum_report",
    "harness.binomial_ratio_report",
    "harness.binomial_product_report",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _series_terms(args, kwargs, result):
    return "lfunctions.series_terms", _arg(args, kwargs, 4, "plan").series_cutoff


def _harmonic_terms(args, kwargs, result):
    p, n = _arg(args, kwargs, 0, "p"), _arg(args, kwargs, 1, "n")
    return "harness.harmonic_terms", n * p - n  # j <= np with p not dividing j


def _grid_jobs(args, kwargs, result):
    return "harness.grid_jobs", len(result)


# function -> hook giving (counter, amount) from a call's arguments or result
HOOKS = {
    "lfunctions.padic_partial_zeta": _series_terms,
    "harness.alt_harmonic_sum": _harmonic_terms,
    "harness.run_grid": _grid_jobs,
}


class Tracer:
    """Spans, call counts and per-function times of one traced CLI call."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.amounts: Counter = Counter()
        self._functions: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self._methods: dict[str, list[int]] = {}  # counter name -> [calls]
        self._stack: list[list] = []  # open spans: [totals, child_ns, id]

    def _spanned(self, name, fn):
        stack, spans, amounts = self._stack, self.spans, self.amounts
        totals = self._functions[name] = [0, 0, 0]
        hook = HOOKS.get(name)

        def wrapper(*args, **kwargs):
            totals[0] += 1
            if stack and stack[-1][0] is totals:
                return fn(*args, **kwargs)
            parent_id = stack[-1][2] if stack else 0
            span = [totals, 0, len(spans) + len(stack) + 1]
            stack.append(span)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                totals[1] += duration
                totals[2] += duration - span[1]
                if stack:
                    stack[-1][1] += duration
                spans.append((span[2], parent_id, name, start, end))
            if hook is not None:
                counter, amount = hook(args, kwargs, result)
                amounts[counter] += amount
            return result

        return wrapper

    def _counted(self, name, fn):
        count = self._methods.setdefault(name, [0])

        def wrapper(*args):
            count[0] += 1
            return fn(*args)

        return wrapper

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"eulerlp.{layer}") for layer in LAYERS}
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if (
                    attr.startswith("_")
                    or isinstance(value, type)
                    or not callable(value)
                    or getattr(value, "__module__", None) != module.__name__
                ):
                    continue
                name = f"{layer}.{attr}"
                if name not in UNWRAPPED:
                    wrappers[id(value)] = (value, self._spanned(name, value))
        for namespace in (importlib.import_module("eulerlp"), *modules.values()):
            for attr, value in list(vars(namespace).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(namespace, attr, hit[1])
        for name, (cls_name, methods) in COUNTED_METHODS.items():
            cls = getattr(modules["padic"], cls_name)
            for method in methods:
                setattr(cls, method, self._counted(name, vars(cls)[method]))

    def layer_metrics(self, stdout_bytes: int, euler_cache) -> dict:
        """Per-layer metrics of one traced CLI call, times in seconds."""
        calls = {n: t[0] for n, t in self._functions.items()}
        calls.update({n: c[0] for n, c in self._methods.items()})
        total_s = {n: t[1] / 1e9 for n, t in self._functions.items()}
        self_s = {n: t[2] / 1e9 for n, t in self._functions.items()}
        layer_s = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self_s.items():
            layer_s[name.split(".", 1)[0]] += seconds
        metrics = {f"{layer}.self_s": s for layer, s in layer_s.items()}
        metrics.update(
            {
                "euler.cache_hits": euler_cache.hits,
                "euler.cache_misses": euler_cache.misses,
                "padic.mul_calls": calls["padic.mul"],
                "padic.addsub_calls": calls["padic.addsub"],
                "padic.from_rational_calls": calls["padic.from_rational"],
                "padic.inverse_pow_calls": calls["padic.inverse_pow"],
                "padic.teichmuller_calls": calls["padic.teichmuller"],
                "padic.teichmuller_self_s": self_s["padic.teichmuller"],
                "characters.teichmuller_power_calls": calls["characters.teichmuller_power"],
                "lfunctions.padic_l_calls": calls["lfunctions.padic_l"],
                "lfunctions.partial_zeta_calls": calls["lfunctions.padic_partial_zeta"],
                "lfunctions.series_terms": self.amounts["lfunctions.series_terms"],
                "harness.harmonic_s": total_s["harness.alt_harmonic_sum"],
                "harness.harmonic_terms": self.amounts["harness.harmonic_terms"],
                "harness.series_side_s": total_s["harness.main_congruence_series"],
                "harness.identity_s": sum(total_s[n] for n in IDENTITY_REPORTS),
                "harness.grid_jobs": self.amounts["harness.grid_jobs"],
                "reports.bytes": stdout_bytes,
            }
        )
        return metrics
