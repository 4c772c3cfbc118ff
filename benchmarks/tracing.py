"""Per-layer tracing of ``identangle`` from outside the package.

The package imports functions by name (``cli``, ``detection`` and
``verify`` hold their own references) and reaches the permanent kernels
through ``_PERMANENT_KERNELS`` dicts, so replacing only the attribute of
the defining module would miss most calls.  :class:`Tracer` therefore
swaps every reference it finds in the package's module namespaces and
module-level dicts, and patches two methods on their classes.

Spans (id, parent, name, start, end) are kept in memory per thread; a
span opened on a thread with no open span (a ``--threads`` worker) takes
the current operation's span as its parent.  Counts are kept per thread
by the same wrappers and summed when a round is collected.
"""

from __future__ import annotations

import itertools
import math
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[int, Optional[int], str, float, float]


def _permanent_ops(n: int, name: str) -> int:
    if name.endswith("naive"):
        return math.factorial(n) * n
    return (1 << n) * n


class _ThreadRecord:
    __slots__ = ("stack", "spans", "counts", "maxima")

    def __init__(self):
        self.stack: List[int] = []
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.maxima: Dict[str, float] = defaultdict(float)


class Tracer:
    """Wraps the package's public functions while installed."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._records: List[_ThreadRecord] = []
        self._ids = itertools.count(1)
        self._undo: List[Tuple[object, str, object, bool]] = []
        self._op: Optional[int] = None

    # -- recording -----------------------------------------------------

    def _record(self) -> _ThreadRecord:
        rec = getattr(self._local, "rec", None)
        if rec is None:
            rec = _ThreadRecord()
            self._local.rec = rec
            with self._lock:
                self._records.append(rec)
        return rec

    def _wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            rec = tracer._record()
            sid = next(tracer._ids)
            parent = rec.stack[-1] if rec.stack else tracer._op
            rec.stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                rec.stack.pop()
                rec.spans.append((sid, parent, name, start, end))
                rec.counts[name + ".calls"] += 1
            if after is not None:
                after(rec, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def counted(*args, **kwargs):
            tracer._record().counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def run_op(self, name: str, fn: Callable, *args):
        """Call ``fn`` as the root span of one benchmark operation."""
        rec = self._record()
        sid = next(self._ids)
        self._op = sid
        rec.stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            rec.stack.pop()
            rec.spans.append((sid, None, name, start, end))
            self._op = None

    # -- installing ----------------------------------------------------

    def install(self):
        """Wrap the traced functions everywhere the package refers to them."""
        from identangle import algebra, config, detection, measures, oracles, permanent, states, verify

        def after_permanent(name):
            def after(rec, args, kwargs, result):
                n = len(args[0]) if args else len(kwargs["matrix"])
                rec.counts["permanent.ops"] += _permanent_ops(n, name)
            return after

        def after_projection(rec, args, kwargs, result):
            ensemble = args[0] if args else kwargs["ensemble"]
            n_up, n_total = ensemble.n_up, ensemble.n_total
            rec.counts["detection.outcomes"] += (n_up + 1) * (n_total - n_up + 1)
            rec.counts["detection.sectors"] += len(result.sectors)
            dev = abs(sum(s.probability for s in result.sectors) + result.leak_probability - 1.0)
            rec.maxima["detection.prob_sum_dev_max"] = max(
                rec.maxima["detection.prob_sum_dev_max"], dev
            )

        def after_product_state(rec, args, kwargs, result):
            rec.counts["states.keys"] += len(result.keys())

        functions = {
            permanent.permanent_ryser: ("permanent.permanent_ryser", after_permanent("ryser")),
            permanent.permanent_naive: ("permanent.permanent_naive", after_permanent("naive")),
            states.make_product_state: ("states.make_product_state", after_product_state),
            states.expand_first_quantized: ("states.expand_first_quantized", None),
            algebra.transition_amplitude: ("algebra.transition_amplitude", None),
            algebra.pure_to_density: ("algebra.pure_to_density", None),
            algebra.symmetrized_partial_trace: ("algebra.symmetrized_partial_trace", None),
            detection.project_onto_detectors: ("detection.project_onto_detectors", after_projection),
            detection.sector_entanglement: ("detection.sector_entanglement", None),
            measures.von_neumann_entropy: ("measures.von_neumann_entropy", None),
            config.parse_ensemble_config: ("config.parse", None),
            config.parse_sweep_spec: ("config.parse", None),
            oracles.project_by_substitution: ("oracles.project_by_substitution", None),
            oracles.collect_expansion: ("oracles.collect_expansion", None),
            oracles.expansion_inner_product: ("oracles.expansion_inner_product", None),
            verify.run_suite: ("verify.run_suite", None),
        }
        for suite in verify.SUITES.values():
            functions[suite] = ("verify." + suite.__name__, None)
        wrappers = {fn: self._wrap(name, fn, after) for fn, (name, after) in functions.items()}

        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "identangle" or module_name.startswith("identangle.")):
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("__"):
                    continue
                if _traceable(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value], is_item=False)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if _traceable(item) and item in wrappers:
                            self._patch(value, key, wrappers[item], is_item=True)

        self._patch(
            config.EnsembleConfig, "with_value",
            self._wrap("config.with_value", config.EnsembleConfig.with_value), is_item=False,
        )
        self._patch(
            algebra.DensityMatrix, "__init__",
            self._count("algebra.density_matrices", algebra.DensityMatrix.__init__), is_item=False,
        )

    def _patch(self, owner, key, value, is_item: bool):
        if is_item:
            self._undo.append((owner, key, owner[key], True))
            owner[key] = value
        else:
            self._undo.append((owner, key, getattr(owner, key), False))
            setattr(owner, key, value)

    def uninstall(self):
        while self._undo:
            owner, key, original, is_item = self._undo.pop()
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- collecting ----------------------------------------------------

    def collect(self) -> Tuple[List[Span], Dict[str, int], Dict[str, float]]:
        """Return and clear everything recorded since the last collect."""
        spans: List[Span] = []
        counts: Dict[str, int] = defaultdict(int)
        maxima: Dict[str, float] = defaultdict(float)
        with self._lock:
            for rec in self._records:
                spans.extend(rec.spans)
                rec.spans = []
                for k, v in rec.counts.items():
                    counts[k] += v
                rec.counts = defaultdict(int)
                for k, v in rec.maxima.items():
                    maxima[k] = max(maxima[k], v)
                rec.maxima = defaultdict(float)
        spans.sort(key=lambda s: s[0])
        return spans, dict(counts), dict(maxima)


def _traceable(value) -> bool:
    return callable(value) and getattr(value, "__hash__", None) is not None


def _union_length(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def span_times(spans: List[Span]) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, float]]:
    """Total time by span name, self time by span name, and time by layer.

    A span's self time is its duration minus the part of it covered by
    its children (children from two threads may overlap).  A layer's time
    sums the spans of that layer whose ancestors are all in other layers,
    so nested calls within a layer are not counted twice.
    """
    by_id = {s[0]: s for s in spans}
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for sid, parent, name, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    total: Dict[str, float] = defaultdict(float)
    self_time: Dict[str, float] = defaultdict(float)
    layer: Dict[str, float] = defaultdict(float)
    for sid, parent, name, start, end in spans:
        duration = end - start
        total[name] += duration
        self_time[name] += duration - _union_length(children.get(sid, []), start, end)
        own = layer_of(name)
        ancestor = by_id.get(parent) if parent is not None else None
        while ancestor is not None and layer_of(ancestor[2]) != own:
            ancestor = by_id.get(ancestor[1]) if ancestor[1] is not None else None
        if ancestor is None:
            layer[own] += duration
    return dict(total), dict(self_time), dict(layer)
