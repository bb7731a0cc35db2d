"""Spans around calls into regmis's public functions, recorded from outside.

The program itself carries no instrumentation.  ``Tracer.install`` swaps
each function in ``TARGETS`` for a wrapper in every loaded ``regmis``
module that holds it (``cli`` imports names with ``from .x import y``, so
patching only the defining module would miss those calls), and
``uninstall`` puts the originals back.  A span is ``[name, start, end,
parent, instance]``; spans stay in memory and are written when the run
ends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

# (module, attribute, span name).  "Class.member" patches a class member.
# Several functions may share a span name; their self times add up.
TARGETS = (
    ("regmis.io", "parse_graph", "io.parse"),
    ("regmis.io", "serialize_graph", "io.serialize"),
    ("regmis.graph", "Graph.content_hash", "graph.content_hash"),
    ("regmis.graph", "Graph.from_edges", "graph.from_edges"),
    ("regmis.graph", "triangle_count", "graph.triangle_count"),
    ("regmis.graph", "triangles", "graph.triangle_count"),
    ("regmis.gadgets", "build_gadget", "gadgets.build"),
    ("regmis.gadgets", "gadget_alpha", "gadgets.build"),
    ("regmis.gadgets", "planar_gadget_alpha", "gadgets.build"),
    ("regmis.reduction", "reduce_to_regular", "reduction.reduce"),
    ("regmis.reduction", "regularize_planar", "reduction.reduce"),
    ("regmis.reduction", "ReductionCertificate.to_json", "reduction.cert_to_json"),
    ("regmis.reduction", "ReductionCertificate.from_json", "reduction.cert_from_json"),
    ("regmis.reduction", "recover", "reduction.recover"),
    ("regmis.reduction", "forward_map", "reduction.forward_map"),
    ("regmis.reduction", "normalize", "reduction.normalize"),
    ("regmis.verify", "check_certificate", "verify.check_certificate"),
    ("regmis.verify", "check_triangle_preservation", "verify.triangle"),
    ("regmis.verify", "check_planarity_necessary", "verify.planarity"),
    ("regmis.verify", "check_sandwich", "verify.sandwich"),
    ("regmis.verify", "check_alpha_relation", "verify.alpha_relation"),
    ("regmis.verify", "check_port_exclusion", "verify.port_exclusion"),
    ("regmis.solvers", "mis_branch_bound", "solvers.bb"),
    ("regmis.solvers", "mis_bruteforce", "solvers.brute"),
)

# Span name -> (counter name, function of (args, result) giving the amount).
COUNTERS: Dict[str, tuple] = {
    "io.parse": ("io.bytes", lambda args, result: len(args[0])),
    "io.serialize": ("io.bytes", lambda args, result: len(result)),
    "solvers.bb": ("solvers.bb_nodes", lambda args, result: result.nodes_explored),
    "solvers.brute": ("solvers.brute_nodes", lambda args, result: result.nodes_explored),
}

# ``triangles`` is a generator: its work happens while the caller iterates,
# so the wrapper drains it inside the span and hands back an iterator.
_DRAIN = {"triangles"}

LAYER_SPANS = tuple(dict.fromkeys(name for _, _, name in TARGETS))


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[Optional[int], Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.instance: Optional[int] = None
        self._stack: List[int] = []
        self._undo: List[tuple] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, 0.0, 0.0, parent, self.instance])
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx][1:3] = (start, end)

    def _wrap(self, name: str, fn: Callable, drain: bool) -> Callable:
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
                if drain:
                    result = iter(list(result))
            if counter is not None:
                self.counts[self.instance][counter[0]] += counter[1](args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sys.modules.items() if k == "regmis" or k.startswith("regmis.")]
        for modname, attr, name in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, member = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[member]
                if isinstance(raw, staticmethod):
                    patched = staticmethod(self._wrap(name, raw.__func__, False))
                else:
                    patched = self._wrap(name, raw, False)
                self._undo.append((cls, member, raw))
                setattr(cls, member, patched)
                continue
            fn = getattr(owner, attr)
            patched = self._wrap(name, fn, attr in _DRAIN)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._undo.append((module, key, fn))
                        setattr(module, key, patched)

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._undo):
            setattr(obj, key, original)
        self._undo.clear()

    @contextmanager
    def installed(self, instance: int) -> Iterator[None]:
        self.instance = instance
        self.install()
        try:
            yield
        finally:
            self.uninstall()
            self.instance = None


def self_times(spans: List[list]) -> List[tuple]:
    """(name, self seconds, root span index, instance) per span.  Self time
    is the span's duration minus that of its direct children; calls are
    single-threaded, so children never overlap."""
    child = [0.0] * len(spans)
    root = list(range(len(spans)))
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent is not None:
            child[parent] += end - start
            root[i] = root[parent]
    return [
        (name, end - start - child[i], root[i], inst)
        for i, (name, start, end, _, inst) in enumerate(spans)
    ]
