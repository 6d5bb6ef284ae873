"""Spans around calls into revrank's public functions, recorded from outside.

The benchmark never edits ``src/``.  Instead :class:`Tracer` swaps every
module attribute that *is* one of the traced functions for a timing wrapper.
Callers bind these names with ``from ... import``, so the defining module is
not enough: every ``revrank.*`` module that holds the function object, and
every module-level dict that holds it as a value (``contrastive.LOSSES``),
is patched.  A traced function that no longer exists is reported as absent.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``op`` the id of the benchmark
operation in flight.  Spans stay in memory and are written out at the end.
A function's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import defaultdict
from typing import Callable

import numpy as np

# Traced functions, by module, in report order.
TARGETS: dict[str, tuple[str, ...]] = {
    "cli": ("main", "build_parser"),
    "dataset": ("load_csv", "split_dataset"),
    "textualize": ("serialize_context", "serialize_review"),
    "encoder": (
        "tokenize", "build_vocabulary", "encode", "encode_batch_ids",
        "encode_backward_batch_ids", "load_checkpoint", "save_checkpoint",
    ),
    "contrastive": ("interaction_matrix", "info_nce_loss", "score_pair"),
    "sampling": ("in_accommodation_epoch",),
    "trainer": ("initialize_model", "optimizer_step", "train"),
    "evaluation": (
        "model_scores", "rank_from_scores", "helpful_votes_ranking",
        "evaluate_methods", "friedman_test", "dunn_posthoc",
    ),
    "synthgen": ("generate", "bayes_optimal_mrr"),
}

SIGMOID_CLAMP = 30.0  # |z| at or beyond which the loss clamp zeroes the gradient


def span_names() -> list[str]:
    return [f"{module}.{fn}" for module, fns in TARGETS.items() for fn in fns]


# Each ratio is (useful, attempted), accumulated from values traced functions
# return.  An observer returns None when the value has an unexpected shape.


def _rows_touched(result):
    grad = getattr(result, "embedding", None)
    if not isinstance(grad, np.ndarray) or grad.ndim != 2:
        return None
    return int(np.count_nonzero(np.any(grad != 0, axis=1))), grad.shape[0]


def _active_pairs(result):
    z = getattr(result, "unclamped", None)
    if not isinstance(z, np.ndarray):
        return None
    return int(np.count_nonzero(np.abs(z) < SIGMOID_CLAMP)), z.size


def _own_ties(result):
    if not isinstance(result, np.ndarray) or result.ndim != 2:
        return None
    own = np.diagonal(result)[:, None]
    return int(np.count_nonzero((result == own).sum(axis=1) > 1)), result.shape[0]


RATIOS: dict[str, tuple[str, Callable]] = {
    "encoder.backward.rows_touched_share": ("encoder.encode_backward_batch_ids", _rows_touched),
    "contrastive.active_pair_share": ("contrastive.interaction_matrix", _active_pairs),
    "evaluation.own_tie_share": ("evaluation.model_scores", _own_ties),
}

OBSERVE_SPAN = "bench.observe"  # observer time, kept out of the caller's self time
PACKAGE = "revrank"


class Tracer:
    """Installs span wrappers on the loaded ``revrank`` modules."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.ops: list[str] = []  # op id -> operation kind
        self.absent: list[str] = []
        self.ratio_counts = {name: [0, 0] for name in RATIOS}
        self.ratio_errors: set[str] = set()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- operations ---------------------------------------------------------

    def begin_op(self, kind: str) -> None:
        """Spans recorded from now on belong to a new operation of ``kind``."""
        self.ops.append(kind)

    # -- patching -----------------------------------------------------------

    @property
    def installed(self) -> bool:
        return bool(self._patched)

    def install(self) -> None:
        if self.installed:
            return
        self.absent = []
        originals: dict[int, tuple[str, Callable]] = {}
        for module_name, fns in TARGETS.items():
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            for fn_name in fns:
                name = f"{module_name}.{fn_name}"
                fn = getattr(module, fn_name, None)
                if not callable(fn):
                    self.absent.append(name)
                    continue
                originals[id(fn)] = (name, fn)
        observers = {span: (ratio, obs) for ratio, (span, obs) in RATIOS.items()}
        # Keyed by id: ``originals`` keeps every traced function alive.
        wrappers = {
            key: self._wrap(name, fn, observers.get(name))
            for key, (name, fn) in originals.items()
        }
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._patched.append((value, key, item))
                            value[key] = wrappers[id(item)]

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patched.clear()

    def _wrap(self, name: str, fn: Callable, observer):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            op = len(self.ops) - 1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, op)
            if observer is not None:
                self._observe(observer, result, parent, op)
            return result

        return wrapper

    def _observe(self, observer, result, parent: int, op: int) -> None:
        ratio, fn = observer
        start = time.perf_counter()
        counted = fn(result)
        if counted is None:
            self.ratio_errors.add(ratio)
        else:
            self.ratio_counts[ratio][0] += counted[0]
            self.ratio_counts[ratio][1] += counted[1]
        self.spans.append((OBSERVE_SPAN, start, time.perf_counter(), parent, op))

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[tuple[str, str], list]:
        """``(op kind, span name) -> [calls, self seconds, total seconds]``."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        stats: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        for index, span in enumerate(self.spans):
            if span is None or span[0] == OBSERVE_SPAN:
                continue
            name, start, end, _, op = span
            entry = stats[(self.ops[op] if op >= 0 else "none", name)]
            entry[0] += 1
            entry[1] += end - start - child_time[index]
            entry[2] += end - start
        return dict(stats)

    def ratios(self) -> dict[str, float]:
        return {
            name: (useful / attempted if attempted else 0.0)
            for name, (useful, attempted) in self.ratio_counts.items()
        }

    def write(self, path) -> None:
        """Spans as gzipped TSV: op id, op kind, name, parent, start, end."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("op\tkind\tname\tparent\tstart\tend\n")
            for span in self.spans:
                if span is None:
                    continue
                name, start, end, parent, op = span
                kind = self.ops[op] if op >= 0 else "none"
                handle.write(f"{op}\t{kind}\t{name}\t{parent}\t{start:.9f}\t{end:.9f}\n")
