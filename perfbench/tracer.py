"""Outside-in tracing of doflab's layers for the traced benchmark run.

While a ``Tracer`` is active it replaces the public functions of each
doflab module, every module attribute that aliases one of them (such as
``simulation.build_nsia``), and the ``numpy.linalg`` entry points doflab
calls, with wrappers that record a span per call.  Leaving the context
restores the originals, so untraced runs execute exactly the code a user
runs.  Spans nest on a per-thread stack: calls made in the lemma thread
pool are children of the spans of their own thread, never of whatever the
main thread has open.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import logging
import sys
import threading
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

import numpy as np

# Layer -> traced functions.  ``kernel`` is numpy.linalg, the LAPACK entry
# points the other layers call.
LAYERS = {
    "linalg": ("seeded_rng", "random_matrix", "numeric_rank", "null_space_basis",
               "range_basis", "intersection_dim", "orthonormalize_rows"),
    "network": ("generate_channels", "channel_set_to_dict", "channel_set_from_dict"),
    "bounds": ("dof_outer_bound", "converse_two_cell"),
    "schemes": ("build_zf_precoders", "build_nsia", "verify_scheme", "desired_matrix"),
    "simulation": ("sum_rate", "estimate_dof_slope", "interference_limited_rate",
                   "random_precoders", "monte_carlo_lemma1", "monte_carlo_lemma2"),
    "cli": ("run", "build_parser", "render_report"),
    "kernel": ("svd", "eigvalsh", "qr", "norm", "slogdet"),
}
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)


def _layer_module(layer: str):
    return importlib.import_module("numpy.linalg" if layer == "kernel"
                                   else f"doflab.{layer}")


class _RedrawCounter(logging.Handler):
    """Counts the warnings ``generate_channels`` logs for each redraw."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1  # Handler.handle holds the handler lock here


class Tracer:
    """Spans kept in memory as tuples
    ``(id, name, start_ns, end_ns, parent_id, thread, op_id, self_ns)``,
    with ``parent_id`` -1 for a thread's outermost span.  ``op_id`` is set
    by the caller before each op."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.svd_input_bytes: list[int] = []
        self.op_id = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._redraws = _RedrawCounter()
        self._wrappers = {}
        for layer, fns in LAYERS.items():
            module = _layer_module(layer)
            for fn in fns:
                original = getattr(module, fn)
                self._wrappers[id(original)] = (original,
                                                self._wrap(f"{layer}.{fn}", original))

    @property
    def redraws(self) -> int:
        return self._redraws.count

    @contextmanager
    def active(self):
        """Patch every traced function for the duration of the block."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "doflab" or name.startswith("doflab.")]
        modules.append(_layer_module("kernel"))
        patched = []
        try:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    hit = self._wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(module, attr, hit[1])
                        patched.append((module, attr, value))
            logging.getLogger("doflab.network").addHandler(self._redraws)
            yield self
        finally:
            logging.getLogger("doflab.network").removeHandler(self._redraws)
            for module, attr, value in patched:
                setattr(module, attr, value)

    def _wrap(self, name: str, fn):
        count_bytes = name == "kernel.svd"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            frame = [next(self._ids), 0]  # span id, time covered by children
            stack.append(frame)
            if count_bytes:
                # Input bytes computed from the array shape, not measured traffic.
                self.svd_input_bytes.append(np.asarray(args[0] if args else kwargs["a"]).nbytes)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                self.spans.append((frame[0], name, start, end,
                                   parent[0] if parent else -1,
                                   threading.get_ident(), self.op_id,
                                   end - start - frame[1]))

        return traced

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Calls and self time of each traced function per workload op."""
        calls, self_ns = Counter(), Counter()
        for span in self.spans:
            calls[span[1]] += 1
            self_ns[span[1]] += span[7]
        metrics = {}
        for name in SPAN_NAMES:
            metrics[f"{name}.calls"] = (calls[name] / ops, "1/op")
            metrics[f"{name}.self_ms"] = (self_ns[name] / 1e6 / ops, "ms/op")
        metrics["kernel.svd.bytes"] = (sum(self.svd_input_bytes) / ops, "B/op")
        metrics["network.redraws"] = (self.redraws, "count")
        return metrics

    def write_spans(self, path: Path):
        """Tab-separated spans, times in ns from the first span's start."""
        t0 = min((s[2] for s in self.spans), default=0)
        threads = {}
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\tthread\top\n")
            for sid, name, start, end, parent, thread, op, _ in sorted(self.spans):
                tid = threads.setdefault(thread, len(threads))
                fh.write(f"{sid}\t{name}\t{start - t0}\t{end - t0}\t{parent}\t{tid}\t{op}\n")
