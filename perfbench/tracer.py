"""Layer spans recorded from outside the package.

``Tracer.install`` swaps each layer function for a timing wrapper in every
``spincat.*`` module namespace that bound it (``from .x import f`` copies the
reference, so patching the defining module alone would miss callers) and
patches ``SkewEvaluator.values`` on its class.  ``Tracer.uninstall`` puts every
original back.  Spans stay in memory until ``dump``.

A span is [id, name, thread, start_ns, end_ns, parent_id, count]; parent_id is
-1 for a root.  Each thread keeps its own span stack.  A root span opened on a
worker thread takes as parent the innermost open span of the main thread,
which is the call that handed the work to the pool.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time


def _displacement_elements(args, kwargs) -> int:
    cutoff = kwargs.get("cutoff", args[1] if len(args) > 1 else None)
    n_max = getattr(cutoff, "n1_max", cutoff)
    return (int(n_max) + 1) ** 2


def _serialized_bytes(args, kwargs) -> int:
    destination = kwargs.get("destination", args[1] if len(args) > 1 else None)
    if isinstance(destination, (str, os.PathLike)):
        return os.path.getsize(destination)
    return 0


# (defining module, attribute, span name, count taken from the arguments
#  after the call)
LAYERS = (
    ("spincat.fockspace", "displacement_matrix", "fockspace.displacement",
     _displacement_elements),
    ("spincat.fockspace", "smoothed_kernel_element", "fockspace.smoothed_element", None),
    ("spincat.wigner", "_closed_kernel_mean", "wigner.closed", None),
    ("spincat.wigner", "wigner_closed_half", "wigner.closed", None),
    ("spincat.skewinfo", "pure_point_values", "skewinfo.audit", None),
    ("spincat.channel", "apply_channel_density", "channel.apply", None),
    ("spincat.channel", "channel_wigner_convolution", "channel.convolution", None),
    ("spincat.sweep", "evaluate_grid", "sweep.grid", None),
    ("spincat.sweep", "serialize_csv", "sweep.serialize", _serialized_bytes),
    ("spincat.sweep", "serialize_json", "sweep.serialize", _serialized_bytes),
    ("spincat.cli", "main", "cli.main", None),
)
# (module, class, method, span name)
METHODS = (("spincat.skewinfo", "SkewEvaluator", "values", "skewinfo.values"),)


class Tracer:
    def __init__(self):
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._spans: dict[int, list[list]] = {}
        self._main = threading.main_thread().ident
        self.patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, count):
        stacks, spans, ids, main = self._stacks, self._spans, self._ids, self._main
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tid = threading.get_ident()
            stack = stacks.get(tid)
            if stack is None:
                stack = stacks[tid] = []
                spans[tid] = []
            if stack:
                parent = stack[-1]
            else:
                main_stack = stacks.get(main) if tid != main else None
                parent = main_stack[-1] if main_stack else -1
            span = [next(ids), name, tid, 0, 0, parent, 0]
            spans[tid].append(span)
            stack.append(span[0])
            span[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
                if count:
                    span[6] = count(args, kwargs)

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "spincat" or key.startswith("spincat."))]
        for owner, attr, name, count in LAYERS:
            original = getattr(sys.modules[owner], attr)
            wrapper = self._wrap(original, name, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self.patched.append((module, key, original))
                        setattr(module, key, wrapper)
        for owner, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[owner], cls_name)
            original = cls.__dict__[attr]
            self.patched.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name, None))

    def uninstall(self) -> bool:
        """Restore every patched name; True when each one reads back as the
        original object."""
        for target, key, original in reversed(self.patched):
            setattr(target, key, original)
        return all(vars(target)[key] is original for target, key, original in self.patched)

    def dump(self, path: str, op: str) -> None:
        threads = {tid: i for i, tid in enumerate(self._spans)}
        rows = sorted([sid, name, threads[tid], start, end, parent, count]
                      for per_thread in self._spans.values()
                      for sid, name, tid, start, end, parent, count in per_thread)
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"op": op, "fields": ["id", "name", "thread", "start_ns", "end_ns",
                                            "parent", "count"], "spans": rows}, f)


def layer_metrics(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per layer name: calls, busy seconds (outermost spans of that name),
    self seconds (busy minus the union of child intervals) and summed counts."""
    by_id = {span[0]: span for span in spans}
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span[5] >= 0:
            children.setdefault(span[5], []).append((span[3], span[4]))
    out: dict[str, dict[str, float]] = {}
    for sid, name, _tid, start, end, parent, count in spans:
        agg = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "count": 0})
        agg["calls"] += 1
        agg["count"] += count
        ancestor, nested = parent, False
        while ancestor >= 0:
            if by_id[ancestor][1] == name:
                nested = True
                break
            ancestor = by_id[ancestor][5]
        if nested:
            continue
        agg["busy_s"] += (end - start) / 1e9
        covered, reach = 0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        agg["self_s"] += (end - start - covered) / 1e9
    return out
