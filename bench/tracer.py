"""Span recorder that times linkpred's layers from outside the package.

``Tracer.install`` replaces public functions under the module attributes
their callers look up (``linkpred.cli.score_method``,
``linkpred.propagation.similarity_matrix``, ...) with wrappers that record
a span (name, start, end, parent) in memory; ``uninstall`` puts the
originals back. Nothing inside ``src/`` changes. Spans are timed in CPU
seconds of the process (``time.process_time``), like the passes they sit
in. A layer's self time is its span's duration minus the durations of its
direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

# (module, attribute, span name). Modules import these names at load time,
# so every caller's module is wrapped, not only the defining one.
WRAP_POINTS = (
    ("linkpred.graph", "load_edge_list", "graph.load_edge_list"),
    ("linkpred.graph", "load_attributes", "graph.load_attributes"),
    ("linkpred.cli", "load_edge_list", "graph.load_edge_list"),
    ("linkpred.cli", "load_attributes", "graph.load_attributes"),
    ("linkpred.cli", "score_method", "evaluation.score_method"),
    ("linkpred.evaluation", "score_method", "evaluation.score_method"),
    ("linkpred.evaluation", "split_probe", "evaluation.split_probe"),
    ("linkpred.evaluation", "auc_exact", "evaluation.auc_exact"),
    ("linkpred.evaluation", "auc_sampled", "evaluation.auc_sampled"),
    ("linkpred.evaluation", "randwalk_solve", "propagation.randwalk_solve"),
    ("linkpred.evaluation", "local_index", "baselines.local_index"),
    ("linkpred.evaluation", "lp_index", "baselines.lp_index"),
    ("linkpred.evaluation", "katz_index", "baselines.katz_index"),
    ("linkpred.propagation", "similarity_matrix", "similarity.similarity_matrix"),
    ("linkpred.propagation", "transmission_weights", "similarity.transmission_weights"),
)


class Tracer:
    """In-memory spans: [name, start, end, parent index, failed, sweeps]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.process_time(), None, parent, False, 0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.process_time()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    def _wrap(self, func, name: str):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                self.spans[index][4] = True
                raise
            finally:
                self._close(index)
            self.spans[index][5] = getattr(result, "iterations", 0)
            return result
        return wrapper

    def install(self) -> None:
        for module_name, attr, name in WRAP_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def children(self, index: int) -> list[int]:
        return [i for i, span in enumerate(self.spans) if span[3] == index]

    def descendants(self, index: int) -> list[int]:
        found = []
        todo = [index]
        while todo:
            kids = self.children(todo.pop())
            found.extend(kids)
            todo.extend(kids)
        return found

    def duration(self, index: int) -> float:
        span = self.spans[index]
        return span[2] - span[1]

    def self_time(self, index: int) -> float:
        return self.duration(index) - sum(self.duration(i) for i in self.children(index))

    def write(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "failed", "sweeps")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([dict(zip(keys, span)) for span in self.spans], handle)
