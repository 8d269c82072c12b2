"""In-process span tracing of the diffdistill package, from outside it.

`install` wraps every public function of every package module and rebinds the
wrapper wherever the function is bound: names are imported by binding (for
example ``training.refine_similarity`` and ``cli.write_similarity_csv``), so
patching only the defining module would miss most calls. The layers are the
package modules, with ``config`` folded into ``cli``.

Spans are kept in memory as (name, layer, start, end, parent, info) and turned
into per-layer numbers by `layer_metrics`. A span's self time is its duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LAYER_OF_MODULE = {"config": "cli"}
LAYERS = ("cli", "embeddings", "diffusion", "distill", "training", "metrics", "io")


@dataclass
class Span:
    name: str  # "<module>.<function>"
    layer: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into the span list, -1 for a root
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# Counts read from return values and files, after the span has closed.
def _graph_info(args, kwargs, graph) -> dict:
    n = graph.W.shape[0]
    return {
        "n": n,
        "edges": int(np.count_nonzero(graph.W)),
        "degenerate_rows": len(graph.degenerate_rows),
    }


def _solve_info(args, kwargs, result) -> dict:
    matrix = getattr(result, "matrix", result)
    return {"rows": int(matrix.shape[0]), "iterations": int(getattr(result, "iterations", 0))}


def _path_bytes(args, kwargs, result) -> dict:
    path = args[0] if args else kwargs.get("path")
    try:
        return {"bytes": os.stat(path).st_size}
    except (OSError, TypeError):
        return {"bytes": 0}


OBSERVERS = {
    "diffusion.build_affinity_knn": _graph_info,
    "diffusion.build_affinity_batch": _graph_info,
    "diffusion.diffuse_closed_form": _solve_info,
    "diffusion.diffuse_iterative": _solve_info,
}


def _observer(name: str):
    if name in OBSERVERS:
        return OBSERVERS[name]
    module, _, func = name.partition(".")
    if module == "io" and (func.startswith("read_") or "write_" in func):
        return _path_bytes
    return None


class Tracer:
    """Collects spans from wrapped functions; single-threaded."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, layer: str, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, 0.0, parent=stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if observe is not None:
                span.info = observe(args, kwargs, result)
            return result

        return traced


def package_modules(package) -> list:
    names = sorted(info.name for info in pkgutil.iter_modules(package.__path__))
    return [importlib.import_module(f"{package.__name__}.{name}") for name in names]


def install(tracer: Tracer, package):
    """Wrap the package's public functions everywhere they are bound.

    Returns a function that puts every original binding back.
    """
    modules = package_modules(package)
    wrappers: dict[int, tuple] = {}
    for module in modules:
        short = module.__name__.rpartition(".")[2]
        layer = LAYER_OF_MODULE.get(short, short)
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue
            name = f"{short}.{attr}"
            wrappers[id(obj)] = (obj, tracer.wrap(name, layer, obj, _observer(name)))
    patched = []
    for module in modules + [package]:
        for attr, obj in list(vars(module).items()):
            entry = wrappers.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(module, attr, entry[1])
                patched.append((module, attr, obj))

    def restore():
        for module, attr, obj in patched:
            setattr(module, attr, obj)

    return restore


def self_times(spans: list[Span]) -> list[float]:
    """Duration minus the union of the child spans' intervals, per span."""
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(index)
    out = []
    for span, kids in zip(spans, children):
        covered, reach = 0.0, span.start
        for start, end in sorted((spans[k].start, spans[k].end) for k in kids):
            start, end = max(start, reach, span.start), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.duration - covered)
    return out


def _outermost_in_layer(spans: list[Span], index: int) -> bool:
    layer, parent = spans[index].layer, spans[index].parent
    while parent >= 0:
        if spans[parent].layer == layer:
            return False
        parent = spans[parent].parent
    return True


def _ancestor(spans: list[Span], index: int, name: str) -> int:
    parent = spans[index].parent
    while parent >= 0 and spans[parent].name != name:
        parent = spans[parent].parent
    return parent


# per-layer metric -> the functions whose inclusive time it sums
TIMED = {
    "metrics.kmeans_s": ("metrics.kmeans",),
    "metrics.recall_s": ("metrics.recall_at_k",),
    "metrics.evaluate_s": ("metrics.evaluate_batch",),
    "metrics.density_s": ("metrics.embedding_density",),
    "metrics.spectral_s": ("metrics.spectral_decay",),
    "metrics.nmi_s": ("metrics.nmi",),
    "diffusion.knn_graph_s": ("diffusion.build_affinity_knn",),
    "diffusion.batch_graph_s": ("diffusion.build_affinity_batch",),
    "diffusion.transition_s": ("diffusion.transition_matrix",),
    "diffusion.solve_s": ("diffusion.diffuse_closed_form", "diffusion.diffuse_iterative"),
    "distill.psd_grad_s": ("distill.psd_grad",),
    "distill.psd_loss_s": ("distill.psd_loss",),
    "training.encoder_s": ("training.encoder_forward", "training.encoder_backward"),
    "training.contrastive_s": ("training.baseline_contrastive_loss_and_grad",),
    "training.sample_batch_s": ("training.sample_batch",),
}
COUNTED = {
    "metrics.kmeans_calls": ("metrics.kmeans",),
    "diffusion.solves": ("diffusion.diffuse_closed_form", "diffusion.diffuse_iterative"),
    "training.batch_steps": ("training.batch_step_gradients",),
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers of one traced run (see BENCHMARK.json ``per_layer``)."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(t for s, t in zip(spans, own) if s.layer == layer)
    for metric, names in TIMED.items():
        out[metric] = sum(s.duration for s in spans if s.name in names)
    for metric, names in COUNTED.items():
        out[metric] = sum(1 for s in spans if s.name in names)
    out["embeddings.calls"] = sum(1 for s in spans if s.layer == "embeddings")

    solves = [s.info for s in spans if s.name in COUNTED["diffusion.solves"]]
    out["diffusion.solve_rows"] = sum(i.get("rows", 0) for i in solves)
    out["diffusion.iterations"] = sum(i.get("iterations", 0) for i in solves)
    graphs = [s for s in spans if s.name.startswith("diffusion.build_affinity_")]
    out["diffusion.degenerate_rows"] = sum(s.info.get("degenerate_rows", 0) for s in graphs)
    knn = [s.info for s in spans if s.name == "diffusion.build_affinity_knn"]
    out["diffusion.knn_edge_density"] = (
        float(np.mean([i["edges"] / (i["n"] * (i["n"] - 1)) for i in knn])) if knn else 0.0
    )

    io_top = [i for i, s in enumerate(spans) if s.layer == "io" and _outermost_in_layer(spans, i)]
    reads = [spans[i] for i in io_top if spans[i].name.partition(".")[2].startswith("read_")]
    writes = [spans[i] for i in io_top if "write_" in spans[i].name]
    out["io.read_s"] = sum(s.duration for s in reads)
    out["io.read_bytes"] = sum(s.info.get("bytes", 0) for s in reads)
    out["io.write_s"] = sum(s.duration for s in writes)
    out["io.write_bytes"] = sum(s.info.get("bytes", 0) for s in writes)
    out["io.write_files"] = len(writes)

    # epoch interval: between consecutive evaluate_batch starts of one train() call
    starts: dict[int, list[float]] = {}
    for index, span in enumerate(spans):
        if span.name == "metrics.evaluate_batch":
            run = _ancestor(spans, index, "training.train")
            if run >= 0:
                starts.setdefault(run, []).append(span.start)
    gaps = np.concatenate([np.diff(v) for v in starts.values()] or [np.empty(0)])
    out["training.epoch_s_p50"] = float(np.percentile(gaps, 50)) if gaps.size else 0.0
    out["training.epoch_s_p90"] = float(np.percentile(gaps, 90)) if gaps.size else 0.0
    return out


def self_time_by_layer(spans: list[Span]) -> dict[str, float]:
    """Self time of every layer seen, including modules outside LAYERS."""
    out: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        out[span.layer] = out.get(span.layer, 0.0) + own
    return out


def write_spans(path: Path, spans: list[Span]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(
                json.dumps([span.name, span.layer, span.start, span.end, span.parent, span.info])
                + "\n"
            )
