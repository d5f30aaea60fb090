"""Span tracing of dvarimax layers from outside the package.

The tracer wraps public functions by rebinding each name in the namespace
of the module that calls it, and restores every name on exit, also when a
fit raises.  Nothing under ``src/`` is edited.  A span records its name,
start, end, parent span and fit id; spans stay in memory until the run
writes them out.  A name the package no longer defines is reported as an
absent layer instead of failing the run.
"""
from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# (module whose namespace is rebound, name) -> span name.  The span name is
# "<module that defines the function>.<function>", i.e. the layer it times.
TARGETS = {
    ("dvarimax.estimator", "eigendecompose"): "spectral.eigendecompose",
    ("dvarimax.estimator", "corrected_decomposition"): "spectral.corrected_decomposition",
    ("dvarimax.estimator", "make_init_provider"): "initialization.make_init_provider",
    ("dvarimax.estimator", "deflate"): "rotation.deflate",
    ("dvarimax.estimator", "loading_from_rotation"): "estimator.loading_from_rotation",
    ("dvarimax.rotation", "pgd_solve"): "rotation.pgd_solve",
    ("dvarimax.rotation", "symmetric_orthogonalize"): "rotation.symmetric_orthogonalize",
    ("dvarimax.evaluate", "generate_dataset"): "model.generate_dataset",
    ("dvarimax.evaluate", "estimate_loading"): "estimator.estimate_loading",
    ("dvarimax.evaluate", "signed_permutation_error"): "evaluate.signed_permutation_error",
}
# The provider returned by make_init_provider is wrapped in turn, so each
# init call gets a span of its own.
PROVIDER_SPAN = "initialization.make_init_provider"
INIT_SPAN = "initialization.init"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None   # index of the enclosing span, None for a fit's root
    fit: int


class Tracer:
    """Context manager that installs the wrappers and collects spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list = []
        self._fit = -1

    def __enter__(self) -> "Tracer":
        self.absent = []
        try:
            for (module_name, attr), span_name in TARGETS.items():
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.absent.append(span_name)
                    continue
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(span_name, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                      self._fit)
        self.spans.append(record)
        self._stack.append(index)
        record.start = time.perf_counter()
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def fit(self, fit_id: int, root_name: str):
        """Open the root span of one fit; spans inside carry ``fit_id``."""
        self._fit = fit_id
        try:
            with self.span(root_name):
                yield
        finally:
            self._fit = -1

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if name == PROVIDER_SPAN:
                result = self._wrap(INIT_SPAN, result)
            return result
        traced.__wrapped__ = fn
        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = []
    for index, span in enumerate(spans):
        covered, cursor = 0.0, span.start
        for child in sorted(children[index], key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(span.end - span.start - covered)
    return result


def per_fit(spans: list[Span]) -> dict:
    """Per fit id: {span name: (count, total seconds, total self seconds)}."""
    totals: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
    for span, own in zip(spans, self_times(spans)):
        entry = totals[span.fit][span.name]
        entry[0] += 1
        entry[1] += span.end - span.start
        entry[2] += own
    return {fit: {name: tuple(v) for name, v in names.items()}
            for fit, names in totals.items()}
