"""Per-layer spans and counters recorded from outside the package.

``qnlp`` carries no instrumentation of its own yet, so the traced run
wraps the public functions of each module where their callers look them
up (module attributes and class methods) and restores them afterwards.
Spans nest: every span knows its parent, so a layer's self time is its
duration minus the time its traced children cover.  Counters (gates
applied, statevector runs, einsum calls) are plain increments, and each
span stores the counter values at its start and end.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
import types
from collections import defaultdict

import numpy as np

from qnlp import circuit, corpus, experiment, simulator, tensornet, training

# ``qnlp.rewrite`` the attribute is the re-exported function, not the module
rewrite = importlib.import_module("qnlp.rewrite")

COUNTERS = ("gates", "forwards", "einsum")
_EINSUM = COUNTERS.index("einsum")


class Span:
    __slots__ = ("name", "start", "end", "parent", "child", "c0", "c1", "info")

    def __init__(self, name, parent, c0):
        self.name = name
        self.parent = parent
        self.child = 0.0
        self.c0 = c0
        self.c1 = c0
        self.info = None
        self.start = self.end = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.dur - self.child

    def count(self, key: str) -> int:
        i = COUNTERS.index(key)
        return self.c1[i] - self.c0[i]


def _counting_numpy(tracer: "Tracer") -> types.ModuleType:
    """A copy of the ``numpy`` namespace whose ``einsum`` counts its calls."""
    proxy = types.ModuleType("numpy")
    proxy.__dict__.update(np.__dict__)

    def einsum(*args, **kwargs):
        tracer.counts[_EINSUM] += 1
        return np.einsum(*args, **kwargs)

    proxy.einsum = einsum
    return proxy


def _distribution_info(args, result):
    return (result.survival_norm, result.degenerate)


def _eval_info(args, result):
    probs, degenerate = result
    return (type(args[0]).__name__, len(probs), degenerate)


def _grad_split_info(args, result):
    model, _name, _theta, labels = args
    return (type(model).__name__, len(labels), result[2])


# (owner, attribute, span name, info extractor); the same span name may be
# installed at several call sites of one function.
_SPAN_SITES = (
    (corpus, "generate_mc", "corpus.generate", None),
    (experiment, "generate_mc", "corpus.generate", None),
    (experiment, "load_splits", "experiment.load_splits", None),
    (experiment, "run_one", "experiment.cell", None),
    (experiment, "fit", "training.fit", None),
    (training, "fit", "training.fit", None),
    (training, "parse_sentence", "pregroup.parse", None),
    (training, "rewrite", "rewrite.rewrite", None),
    (rewrite, "validate", "diagram.validate", None),
    (circuit, "validate", "diagram.validate", None),
    (tensornet, "validate", "diagram.validate", None),
    (training, "compile_circuit", "circuit.compile", None),
    (training, "compile_network", "tensornet.compile", None),
    (training, "sentence_distribution", "simulator.forward", _distribution_info),
    (training, "distribution_gradient", "simulator.grad", _distribution_info),
    (training, "contract", "tensornet.contract", None),
    (training, "gradient_hole", "tensornet.grad", None),
    (training.CircuitModel, "eval_split", "training.eval_split", _eval_info),
    (training.TensorModel, "eval_split", "training.eval_split", _eval_info),
    (training.CircuitModel, "grad_split", "training.grad_split", _grad_split_info),
    (training.TensorModel, "grad_split", "training.grad_split", _grad_split_info),
    (training.SPSA, "step", "training.step", None),
    (training.AdaptiveGD, "step", "training.step", None),
)
_BUILD_SITES = (training.CircuitModel, training.TensorModel)
_COUNT_SITES = ((simulator, "apply", "gates"), (simulator, "zero_state", "forwards"))


class Tracer:
    """Spans and counters for one traced region; patches on ``install``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts = [0] * len(COUNTERS)
        self._stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []

    def _span_wrapper(self, name, fn, info):
        stack, spans, counts = self._stack, self.spans, self.counts
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name, parent, tuple(counts))
            spans.append(span)
            stack.append(span)
            start = span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = span.end = perf_counter()
                stack.pop()
                span.c1 = tuple(counts)
                if parent is not None:
                    parent.child += end - start
            if info is not None:
                span.info = info(args, result)
            return result

        return traced

    def _count_wrapper(self, key, fn):
        counts, i = self.counts, COUNTERS.index(key)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[i] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        for owner, attr, name, info in _SPAN_SITES:
            self._patch(owner, attr, self._span_wrapper(name, getattr(owner, attr), info))
        for cls in _BUILD_SITES:
            build = cls.__dict__["build"].__func__
            self._patch(cls, "build", classmethod(self._span_wrapper("training.build", build, None)))
        for owner, attr, key in _COUNT_SITES:
            self._patch(owner, attr, self._count_wrapper(key, getattr(owner, attr)))
        self._patch(tensornet, "np", _counting_numpy(self))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


def _within(span: Span, name: str) -> Span | None:
    p = span.parent
    while p is not None:
        if p.name == name:
            return p
        p = p.parent
    return None


def _mean(values, scale: float = 1.0) -> float:
    values = list(values)
    return scale * statistics.fmean(values) if values else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer timings and ratios from a traced region of a workload.

    A layer that the workload never called reports 0.  Per-sentence
    front-end times divide by the number of sentences parsed, so
    ``diagram.validate_us`` sums every validation pass a sentence gets.
    """
    spans: dict[str, list[Span]] = defaultdict(list)
    for span in tr.spans:
        spans[span.name].append(span)
    sentences = len(spans["pregroup.parse"])

    def mean_dur(name: str, scale: float) -> float:
        return _mean((s.dur for s in spans[name]), scale)

    def per_sentence(name: str) -> float:
        return 1e6 * sum(s.dur for s in spans[name]) / sentences if sentences else 0.0

    forwards = spans["simulator.forward"]
    splits = spans["training.eval_split"] + spans["training.grad_split"]
    tensor_reads = [s.info for s in splits if s.info is not None and s.info[0] == "TensorModel"]
    fit_total = sum(s.dur for s in spans["training.fit"])
    in_fit = sum(s.dur for s in splits if _within(s, "training.fit") is not None)

    cell_setup: dict[int, float] = {}
    for s in spans["experiment.load_splits"] + spans["training.build"]:
        cell = _within(s, "experiment.cell")
        if cell is not None:
            cell_setup[id(cell)] = cell_setup.get(id(cell), 0.0) + s.dur

    return {
        "corpus.generate_ms": mean_dur("corpus.generate", 1e3),
        "pregroup.parse_us": per_sentence("pregroup.parse"),
        "rewrite.rewrite_us": per_sentence("rewrite.rewrite"),
        "diagram.validate_us": per_sentence("diagram.validate"),
        "circuit.compile_us": mean_dur("circuit.compile", 1e6),
        "tensornet.compile_us": mean_dur("tensornet.compile", 1e6),
        "simulator.forward_us": mean_dur("simulator.forward", 1e6),
        "simulator.survival_mean": _mean(s.info[0] for s in forwards if s.info),
        "simulator.degenerate_frac": _mean(float(s.info[1]) for s in forwards if s.info),
        "simulator.grad_us": mean_dur("simulator.grad", 1e6),
        "tensornet.contract_us": mean_dur("tensornet.contract", 1e6),
        "tensornet.grad_us": mean_dur("tensornet.grad", 1e6),
        "tensornet.degenerate_frac": (
            sum(i[2] for i in tensor_reads) / sum(i[1] for i in tensor_reads)
            if tensor_reads else 0.0
        ),
        "training.build_s": mean_dur("training.build", 1.0),
        "training.eval_split_ms": mean_dur("training.eval_split", 1e3),
        "training.grad_split_ms": mean_dur("training.grad_split", 1e3),
        "training.step_self_us": _mean((s.self_time for s in spans["training.step"]), 1e6),
        "training.fit_overhead_frac": (fit_total - in_fit) / fit_total if fit_total else 0.0,
        "experiment.cell_setup_s": (
            statistics.median(cell_setup.values()) if cell_setup else 0.0
        ),
    }
