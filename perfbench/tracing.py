"""Span tracing for the traced run, kept entirely in the benchmark.

Every public function of the cwlattice layers (cli, census, sets,
formulas, graphs) is replaced by a wrapper that records a span: name,
start, end, parent.  Callers look functions up in different places: cli
imports run_census, the check_* functions, enumerate_set and the matching
searches by name; census calls sets.enumerate_* through the module; the
ENUMERATORS and SIZE_BY_SET tables hold the functions themselves.  So a
function is patched under every name and table entry that refers to it, in
every module of the package, and all of them are put back afterwards.
The `errors` module holds only exception types and gets no spans.
"""

from __future__ import annotations

import functools
import inspect
import time
import tracemalloc
from types import ModuleType

LAYERS = ("cli", "census", "sets", "formulas", "graphs")
ROOT_SPAN = "bench.op"

# Public methods traced besides module-level functions.
METHODS = {"census": {"CensusReport": ("to_csv", "to_json")}}


def _result_size(name: str):
    """What a span records about its result, if anything."""
    if name.startswith("sets.enumerate"):
        return len
    if name == "graphs.parse_edge_list":
        return lambda result: len(result[0].edges)
    return None


class Tracer:
    """Records spans in memory while an op is running.

    A span is [name, start, end, parent index (-1 for a root), size].
    Calls made outside an op (set-up, output checks) are not recorded.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, self.clock
        size = _result_size(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if size is not None:
                span[4] = size(result)
            return result

        return traced

    def run(self, call, name=ROOT_SPAN):
        """Run call() as the root span of one op."""
        span = [name, self.clock(), 0.0, -1, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return call()
        finally:
            span[2] = self.clock()
            self.stack.pop()


def alloc_wrapper(peaks: list):
    """Wrapper factory for the memory pass: the outermost call records its
    tracemalloc peak in `peaks`; nested calls run untouched."""

    def wrap(name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return traced

    return wrap


class Patches:
    """Attribute and table-entry replacements that can all be undone."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._saved.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._saved.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def restore(self) -> None:
        while self._saved:
            owner, key, old = self._saved.pop()
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)


def public_functions(layer: str, module: ModuleType):
    """(span name, owner, attribute, function) for each traced callable."""
    for attr, obj in vars(module).items():
        if (not attr.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield f"{layer}.{attr}", module, attr, obj
    for cls_name, methods in METHODS.get(layer, {}).items():
        cls = getattr(module, cls_name)
        for attr in methods:
            yield f"{layer}.{cls_name}.{attr}", cls, attr, cls.__dict__[attr]


def instrument(package: ModuleType, modules: dict, wrap, layers=LAYERS) -> Patches:
    """Replace the public functions of `layers` by wrap(name, fn) everywhere
    the package looks them up; return the Patches that undo it."""
    wrappers = {}
    patches = Patches()
    for layer in layers:
        for name, owner, attr, fn in public_functions(layer, modules[layer]):
            wrappers[fn] = wrap(name, fn)
            if not isinstance(owner, ModuleType):
                patches.set(owner, attr, wrappers[fn])
    namespaces = [package, *modules.values()]
    seen_tables = set()
    for module in namespaces:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                patches.set(module, attr, wrappers[value])
            elif isinstance(value, dict) and id(value) not in seen_tables:
                seen_tables.add(id(value))
                for key, entry in list(value.items()):
                    if inspect.isfunction(entry) and entry in wrappers:
                        patches.set(value, key, wrappers[entry])
    return patches


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans nest (one thread), so the children's durations are exactly the
    part of the parent's interval that they cover.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [span[2] - span[1] - covered[i] for i, span in enumerate(spans)]


def layer_self_times(spans) -> dict[str, float]:
    """Total self time per layer; the values sum to the root spans' time."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        layer = layer_of(span[0])
        totals[layer] = totals.get(layer, 0.0) + own
    return totals


def _entered(spans, prefix: str, first: int = 0):
    """Spans from index `first` on whose name starts with prefix, called
    from outside their layer."""
    for span in spans[first:]:
        name, parent = span[0], span[3]
        if name.startswith(prefix) and (
            parent < 0 or layer_of(spans[parent][0]) != layer_of(name)
        ):
            yield span


def _total(spans) -> float:
    return sum(span[2] - span[1] for span in spans)


def layer_metrics(spans, ops: int) -> dict[str, float]:
    """Per-op layer metrics from the spans of `ops` traced ops."""
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span)

    def named(*names):
        return [span for name in names for span in by_name.get(name, [])]

    enumerated = list(_entered(spans, "sets.enumerate"))
    sizes = list(_entered(spans, "formulas.size_"))
    searches = named("graphs.matching_number", "graphs.induced_matching_number")
    parsed = named("graphs.parse_edge_list")
    selfs = layer_self_times(spans)
    per_op = {
        "trace.op_s": _total(named(ROOT_SPAN)),
        **{f"{layer}.self_s": selfs.get(layer, 0.0) for layer in ("bench",) + LAYERS},
        "census.serialize.s": _total(
            named("census.CensusReport.to_csv", "census.CensusReport.to_json")),
        "sets.enumerate.s": _total(enumerated),
        "sets.enumerate.points": sum(span[4] or 0 for span in enumerated),
        "sets.enumerate_ra_d.s": _total(named("sets.enumerate_ra_d")),
        "sets.enumerate_ra_d.calls_per_op": len(named("sets.enumerate_ra_d")),
        "sets.contains.calls": len(named("sets.contains")),
        "sets.contains.s": _total(named("sets.contains")),
        "formulas.size.calls": len(sizes),
        "formulas.size.s": _total(sizes),
        "formulas.bounds.s": _total(
            _entered(spans, "formulas.sandwich_bounds_cwdd")) + _total(
            _entered(spans, "formulas.ratio_report")),
        "graphs.parse.s": _total(parsed),
        "graphs.matching_number.s": _total(named("graphs.matching_number")),
        "graphs.induced_matching_number.s": _total(named("graphs.induced_matching_number")),
        "graphs.search.calls_per_op": len(searches),
        "graphs.ideal.s": _total(named("graphs.edge_ideal_generators")),
    }
    out = {name: value / ops for name, value in per_op.items()}
    out["graphs.edges_per_graph"] = (
        sum(span[4] for span in parsed) / len(parsed) if parsed else 0.0)
    return out


def realize_build_seconds(spans, first: int = 0) -> float:
    """Time in realize and build_graph entered from outside graphs, over the
    spans from index `first` on."""
    return _total(_entered(spans, "graphs.realize", first)) + _total(
        _entered(spans, "graphs.build_graph", first))
