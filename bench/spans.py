"""Span tracing of the bfx package from outside it.

`Tracer.install()` replaces every public function of each package module
with a recorder, in every module namespace that binds it (for example
`targets.rasterize_polygon` is also bound as `dataprep.rasterize_polygon`),
and `uninstall()` puts the originals back. A span holds its name, start,
end, parent, thread and request (one `cli.main` call); spans stay in
memory until `write_jsonl`.

Self time is a span's duration minus the part of it that its child spans
cover. Children on worker threads can overlap one another, so the covered
part is the union of their intervals, and a span that waits on a pool
keeps as self time only the stretches where no child ran.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time
from collections import Counter

LAYERS = ("annotations", "targets", "raster", "extract", "fusion", "evaluate",
          "formats", "dataprep", "trainmath", "cli")

# Inner halves of other public functions: per-pixel or per-step helpers
# (finite-difference probes, watershed shifts, mask coercion) and the codec
# and atomic-write steps behind each read_*/write_*. They are counted, and
# their time stays with the library function calling them; a span per call
# would charge that caller's work to the helper. Called straight from the
# CLI they are ordinary spans.
FOLDED = {"raster.as_mask", "raster.shift", "raster.check_kernel_side",
          "trainmath.dice_loss", "trainmath.bce_loss", "trainmath.channel_loss",
          "formats.atomic_write_bytes", "formats.encode_pgm", "formats.decode_pgm",
          "formats.decode_pgm_raw", "formats.encode_ppm", "formats.encode_pmap",
          "formats.decode_pmap", "formats.encode_imap", "formats.decode_imap"}

_READS = {"formats.read_pmap", "formats.read_pgm", "formats.read_pgm_raw",
          "formats.read_imap", "formats.read_ppm"}
_MEASURED = _READS | {"formats.atomic_write_bytes", "fusion.tta_average", "fusion.ensemble_average",
                      "extract.filter_small", "extract.polygonize", "evaluate.match_instances"}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, parent, start_ns, end_ns, thread, request)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list = []
        self._request = 0
        self._restore: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        folded = name in FOLDED
        is_main = name == "cli.main"
        signature = inspect.signature(fn) if name in _MEASURED else None

        def measure(args, kwargs, result):
            if signature is not None:
                self._measure(name, list(signature.bind(*args, **kwargs).arguments.values()), result)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # a pool worker's spans hang under the span that submitted the work
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            with self._lock:
                self.calls[name] += 1
                if is_main:
                    self._request += 1
            if folded and parent is not None and parent[1] != "cli":
                result = fn(*args, **kwargs)
                measure(args, kwargs, result)
                return result
            span_id = next(self._ids)
            stack.append((span_id, layer))
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                self.spans.append((span_id, name, parent[0] if parent else None, start, end,
                                   threading.get_ident(), self._request))
            measure(args, kwargs, result)
            return result

        return traced

    def _measure(self, name: str, args: list, result) -> None:
        """Work counts that the call count alone does not give; `args` are
        the call's arguments in parameter order."""
        add = {}
        if name in _READS:
            add["formats.bytes_read"] = os.path.getsize(args[0])
        elif name == "formats.atomic_write_bytes":
            add["formats.bytes_written"] = len(args[1])
        elif name == "fusion.tta_average":
            add["fusion.bytes_in"] = sum(v.nbytes for v in args[0].values())
        elif name == "fusion.ensemble_average":
            add["fusion.bytes_in"] = sum(m.nbytes for m in args[0])
        elif name == "extract.filter_small":
            add["extract.labels_in"] = int(args[0].max(initial=0))
            add["extract.instances_kept"] = int(result.max(initial=0))
        elif name == "extract.polygonize":
            add["extract.polygon_vertices"] = sum(len(i.exterior) for i in result.instances)
        elif name == "evaluate.match_instances":
            add["evaluate.pairs_matched"] = len(result.pairs)
        if add:
            with self._lock:
                self.counts.update(add)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(f"bfx.{m}") for m in LAYERS]
        namespaces = modules + [importlib.import_module("bfx")]
        for layer, mod in zip(LAYERS, modules):
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is fn:
                            self._restore.append((ns, bound, fn))
                            setattr(ns, bound, wrapped)

    def uninstall(self) -> None:
        for ns, bound, fn in reversed(self._restore):
            setattr(ns, bound, fn)
        self._restore.clear()

    # -- output -------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        keys = ("id", "name", "parent", "start_ns", "end_ns", "thread", "request")
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the union of its children's intervals,
    clipped to the span (all in the spans' time unit)."""
    children: dict = {}
    for span in spans:
        children.setdefault(span[2], []).append((span[3], span[4]))
    out = {}
    for span_id, _, _, start, end, *_ in spans:
        covered = 0
        cursor = start
        for lo, hi in sorted(children.get(span_id, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span_id] = end - start - covered
    return out


def summarize(tracer: Tracer) -> dict:
    """Per-function and per-layer self time (ms), span durations (ms),
    call counts and work counts of one traced pass."""
    selfs = self_times(tracer.spans)
    fn_self: Counter = Counter()
    fn_total: Counter = Counter()
    layer_self: Counter = Counter()
    for span in tracer.spans:
        fn_self[span[1]] += selfs[span[0]] / 1e6
        fn_total[span[1]] += (span[4] - span[3]) / 1e6
        layer_self[span[1].split(".", 1)[0]] += selfs[span[0]] / 1e6
    return {"self_ms": dict(fn_self), "total_ms": dict(fn_total), "layer_self_ms": dict(layer_self),
            "calls": dict(tracer.calls), "counts": dict(tracer.counts), "spans": len(tracer.spans)}
