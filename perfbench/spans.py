"""Span recorder for the traced benchmark run.

The recorder wraps the public functions and methods of the hypermat
modules from outside the package. Every module namespace (and every
module-level dict, such as ``suites.SUITES``) that holds a reference to a
wrapped function is rebound to the wrapper, so calls are recorded whether
the caller looks the function up through ``from ... import``, through a
module global or through a registry dict.

A span is ``[name, start, end, parent, op]``: ``name`` is
``"<layer>.<function>"`` (or ``"<layer>.<Class>.<method>"``), times come
from ``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so spans written by
child processes share the timeline), ``parent`` is the index of the
enclosing span or -1, and ``op`` is the benchmark op the span belongs to.
Spans stay in memory until the run writes them out.

Counters are taken at the same boundaries: terms enumerated by the engine
(computed from the call arguments), stored entries and canonical keys of
the factors passed in, and the largest numerator or denominator bit length
of an engine result.
"""

from __future__ import annotations

import importlib
import inspect
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction

LAYERS = ("engine", "invariants", "rank2", "evenrank", "oddrank", "tensor",
          "suites", "report", "rational", "documents", "cli")

# canonical_key runs once per enumerated term inside the engine loops: a
# span per call would cost more than the term itself, and its time is part
# of the enumeration a kernel rewrite replaces, so it stays in engine self
# time.
UNWRAPPED = frozenset({"tensor.canonical_key"})

# operator methods are public API of the tensor and invariant types
OPERATORS = ("__add__", "__sub__", "__neg__", "__mul__", "__getitem__")

# the hand-copied enumeration loops; coset_restricted_product only
# delegates to the counted variant, so both share one metric
LOOP_SPANS = {
    "engine.epsilon_product": ("engine.epsilon_product",),
    "engine.epsilon_product_gradient": ("engine.epsilon_product_gradient",),
    "engine.coset_restricted_product": (
        "engine.coset_restricted_product",
        "engine.coset_restricted_product_counted"),
    "evenrank.cayley_det": ("evenrank.cayley_det",),
}

# engine functions that enumerate terms themselves
COUNTED = frozenset({"engine.epsilon_product", "engine.epsilon_product_gradient",
                     "engine.coset_restricted_product_counted",
                     "engine.materialize_permutation_tensor"})


def full_sum_terms(rank: int, dim: int) -> int:
    """Terms of a signed sum over all rank-tuples of permutations."""
    return math.factorial(dim) ** rank


def coset_terms(rank: int, dim: int, split: int) -> int:
    """Terms of a sum whose first permutation runs over the C(d, split)
    block-monotone coset representatives."""
    return math.comb(dim, split) * math.factorial(dim) ** (rank - 1)


def _bits(value) -> int:
    if isinstance(value, (Fraction, int)) and not isinstance(value, bool):
        value = Fraction(value)
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, tuple):
        return max((_bits(v) for v in value), default=0)
    entries = getattr(value, "entries", None)
    if isinstance(entries, dict):
        return max((_bits(v) for v in entries.values()), default=0)
    flat = getattr(value, "flat", None)
    if flat is not None:
        return max((_bits(v) for v in flat), default=0)
    return 0


class Recorder:
    """Collects spans and counters; ``install`` wraps a package."""

    def __init__(self, op=None):
        self.spans: list = []
        self.op = op
        self.counters = {"terms": 0, "factor_entries": 0, "factor_keys": 0,
                         "result_bits_max": 0, "term_mismatches": []}
        self._stack: list = []
        self._restore: list = []

    # -- spans ---------------------------------------------------------
    def _open(self, name):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op_span(self, op):
        """Root span of one benchmark op."""
        self.op = op
        span = self._open("op")
        try:
            yield len(self.spans) - 1
        finally:
            self._close(span)

    def merge(self, data: dict, parent: int):
        """Attach spans and counters written by a child process under the
        span at index ``parent``."""
        offset = len(self.spans)
        for name, start, end, up, op in data["spans"]:
            self.spans.append([name, start, end, parent if up < 0 else up + offset, op])
        for key, value in data["counters"].items():
            if key == "result_bits_max":
                self.counters[key] = max(self.counters[key], value)
            else:
                self.counters[key] += value

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": self.counters}

    # -- counters ------------------------------------------------------
    def _count_factors(self, factors):
        for f in factors:
            self.counters["factor_entries"] += len(f.entries)
            self.counters["factor_keys"] += math.comb(f.dim + f.rank - 1, f.rank)

    def _engine_hook(self, name, signature, args, kwargs, result):
        self.counters["result_bits_max"] = max(
            self.counters["result_bits_max"], _bits(result))
        if name not in COUNTED:
            return
        call = signature.bind(*args, **kwargs).arguments
        if name in ("engine.epsilon_product", "engine.epsilon_product_gradient"):
            factors = call["factors"]
            self.counters["terms"] += full_sum_terms(factors[0].rank, len(factors))
            self._count_factors(factors)
        elif name == "engine.coset_restricted_product_counted":
            factors, split = call["factors"], call["split"]
            terms = coset_terms(factors[0].rank, len(factors), split)
            self.counters["terms"] += terms
            self._count_factors(factors)
            if result[1] != terms:
                self.counters["term_mismatches"].append(
                    f"coset call rank={factors[0].rank} dim={len(factors)} "
                    f"split={split}: computed {terms} terms, function "
                    f"counted {result[1]}")
        elif name == "engine.materialize_permutation_tensor":
            metric = call["metric"]
            self.counters["terms"] += full_sum_terms(metric.rank, metric.dim)
            self._count_factors([metric])

    # -- wrapping ------------------------------------------------------
    def _wrap(self, name, fn):
        hook = None
        if name.startswith("engine."):
            signature = inspect.signature(fn)

            def hook(args, kwargs, result):
                self._engine_hook(name, signature, args, kwargs, result)

        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self, package: str = "hypermat", layers=LAYERS):
        """Wrap every public function and method defined in
        ``package.<layer>`` and rebind every reference to it."""
        modules = {layer: importlib.import_module(f"{package}.{layer}")
                   for layer in layers}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                    if name not in UNWRAPPED:
                        wrappers[obj] = self._wrap(name, obj)
                elif inspect.isclass(obj):
                    self._wrap_class(f"{layer}.{attr}", obj)
        namespaces = list(modules.values()) + [importlib.import_module(package)]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(module, attr, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrappers:
                            self._restore.append((obj.__setitem__, key, value))
                            obj[key] = wrappers[value]

    def _wrap_class(self, prefix, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            if inspect.isfunction(obj):
                self._set(cls, attr, self._wrap(f"{prefix}.{attr}", obj))
            elif isinstance(obj, (classmethod, staticmethod)):
                wrapped = self._wrap(f"{prefix}.{attr}", obj.__func__)
                self._set(cls, attr, type(obj)(wrapped))

    def _set(self, target, attr, value):
        self._restore.append((lambda k, v, t=target: setattr(t, k, v),
                              attr, vars(target)[attr]))
        setattr(target, attr, value)

    def uninstall(self):
        for restore, key, original in reversed(self._restore):
            restore(key, original)
        self._restore.clear()


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, run_start, run_end = 0.0, None, None
        for lo, hi in sorted(children[index]):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if run_end is None or lo > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = lo, hi
            else:
                run_end = max(run_end, hi)
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, counters: dict, wall: float) -> dict:
    """Per-layer calls, self time and share of the traced wall time, the
    self time of each enumeration loop, and the engine counters."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    layer_self = defaultdict(float)
    name_self = defaultdict(float)
    for span, own in zip(spans, selfs):
        name = span[0]
        if name == "op":
            continue
        layer = name.split(".", 1)[0]
        calls[layer] += 1
        layer_self[layer] += own
        name_self[name] += own
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = layer_self[layer]
        out[f"{layer}.share"] = layer_self[layer] / wall
    for metric, names in LOOP_SPANS.items():
        out[f"{metric}.self_s"] = sum(name_self[n] for n in names)
    out["engine.terms"] = counters["terms"]
    engine_self = layer_self["engine"]
    out["engine.terms_per_s"] = counters["terms"] / engine_self if engine_self else 0.0
    keys = counters["factor_keys"]
    out["engine.factor_density"] = counters["factor_entries"] / keys if keys else 0.0
    out["engine.result_bits_max"] = counters["result_bits_max"]
    out["suites.random_invertible.retries"] = random_invertible_retries(spans)
    return out


def random_invertible_retries(spans) -> int:
    """Draws beyond the first inside suites.random_invertible."""
    owners = {i for i, span in enumerate(spans)
              if span[0] == "suites.random_invertible"}
    draws = sum(1 for span in spans
                if span[0] == "tensor.random_symmetric" and span[3] in owners)
    return draws - len(owners)
