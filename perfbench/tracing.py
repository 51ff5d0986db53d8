"""Per-layer tracing from the benchmark's own code.

Nothing under ``src/`` changes: the tracer wraps each layer's public entry
points where the caller looks the name up (a class attribute, or every
module global bound to a function that was imported by name), records a
span per call, and restores the originals afterwards.

A span is ``(id, name, start, end, parent, request)``.  Spans nest per
thread; a span opened on a thread with an empty stack (the server's
event-loop and worker threads) takes as parent the innermost open span of
the driving thread.  That is exact for the benchmark's closed loop, which
has one request in flight at a time.  Self time is a span's duration
minus the union of its children's intervals.

Which end-to-end metrics each layer metric should move (on every other
workload the prediction is no change):

=====================================================  =====================================
layer metrics                                          end-to-end metrics they move
=====================================================  =====================================
client.call, server.admission, server.encode,          rpc-read p50_ms, p90_ms, ops_per_s
api.connect, rpc.unattributed_*
api.batch, engine.plan, engine.execute, steiner.solve  batch-warm ops_per_s, p50_ms, p90_ms;
                                                       rpc-read a little
kernels.oracle_*                                       batch-warm and churn-rw p50_ms
graphs.add_edge_per_query                              batch-warm ops_per_s
classify.*, hypergraphs.edge_calls_per_classify        onboard-cold p50_ms, p90_ms,
                                                       ops_per_s; setup_s on the other three
dynamic.*, api.first_read_after_write_ms               churn-rw p50_ms, p90_ms, ops_per_s
host.cal_ms, trace.overhead_ratio                      diagnostics only
=====================================================  =====================================
"""

import collections
import functools
import itertools
import sys
import threading
from time import perf_counter

from repro.api.service import ConnectionService
from repro.core.classification import classify_bipartite_graph
from repro.dynamic.editor import SchemaEditor
from repro.engine.batch import InterpretationEngine
from repro.engine.cache import SchemaContext
from repro.engine.planner import plan_query
from repro.engine.registry import SolverRegistry
from repro.graphs.graph import Graph
from repro.hypergraphs.hypergraph import Hypergraph
from repro.server import app as server_app
from repro.server.client import ReproClient
from repro.server.registry import SchemaRegistry

#: Span names, in report order.  ``setup`` and ``op`` are the benchmark's
#: own root spans around the traced set-up and around one operation; the
#: self time of ``op`` is the residue no layer claims.
SPANS = (
    "setup",
    "op",
    "client.call",
    "server.admission",
    "server.encode",
    "api.connect",
    "api.batch",
    "engine.plan",
    "engine.execute",
    "steiner.solve",
    "classify",
    "dynamic.commit",
    "dynamic.apply_delta",
)

#: Spans each workload must fire at least once in a traced run.
EXPECTED_SPANS = {
    "rpc-read": {
        "op", "client.call", "server.admission", "server.encode",
        "api.connect", "engine.plan", "engine.execute", "steiner.solve",
        "classify",
    },
    "batch-warm": {
        "op", "api.batch", "engine.plan", "engine.execute", "steiner.solve",
        "classify",
    },
    "onboard-cold": {
        "op", "api.connect", "engine.plan", "engine.execute", "steiner.solve",
        "classify",
    },
    "churn-rw": {
        "op", "api.connect", "engine.plan", "engine.execute", "steiner.solve",
        "classify", "dynamic.commit", "dynamic.apply_delta",
    },
}


class Tracer:
    """In-memory span and call-count recorder."""

    def __init__(self) -> None:
        self.spans = []
        self.counts = collections.Counter()
        self.request = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._client_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self):
        """Start a span; returns the token ``close`` needs."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._client_stack:
            parent = self._client_stack[-1]
        else:
            parent = None
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent, perf_counter()

    def close(self, name: str, token) -> None:
        """End the span ``token`` opened."""
        end = perf_counter()
        span_id, parent, start = token
        self._stack().pop()
        self.spans.append((span_id, name, start, end, parent, self.request))

    def timed(self, name: str, fn):
        """``fn`` wrapped in a span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = self.open()
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(name, token)

        return traced

    def counted(self, name: str, fn):
        """``fn`` wrapped in a call count only (for hot, tiny functions)."""
        counts = self.counts

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counting


def _module_bindings(function):
    """Every ``(module, name)`` under ``repro`` whose global is ``function``."""
    bindings = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is function:
                bindings.append((module, attribute))
    return bindings


class Patches:
    """A set of wrappers that can be installed and removed as one."""

    def __init__(self) -> None:
        self._originals = []
        self._wrapped = []

    def add(self, owner, attribute, wrapper) -> None:
        """Register ``wrapper`` to replace ``owner.attribute`` while installed."""
        self._originals.append((owner, attribute, vars(owner)[attribute]))
        self._wrapped.append((owner, attribute, wrapper))

    def install(self) -> None:
        """Route every patched name through its wrapper."""
        for owner, attribute, wrapper in self._wrapped:
            setattr(owner, attribute, wrapper)

    def remove(self) -> None:
        """Restore every original."""
        for owner, attribute, original in self._originals:
            setattr(owner, attribute, original)


def span_patches(tracer: Tracer) -> Patches:
    """Span wrappers around each layer's entry points."""
    patches = Patches()
    methods = [
        (ReproClient, "call", "client.call"),
        (ConnectionService, "connect", "api.connect"),
        (ConnectionService, "batch", "api.batch"),
        (InterpretationEngine, "execute_plan", "engine.execute"),
        (SchemaEditor, "commit", "dynamic.commit"),
        (SchemaContext, "apply_delta", "dynamic.apply_delta"),
    ]
    methods += [
        (SchemaRegistry, name, "server.admission")
        for name in ("authenticate", "acquire", "check_quota", "service", "release")
    ]
    for owner, attribute, span in methods:
        patches.add(owner, attribute, tracer.timed(span, vars(owner)[attribute]))
    for name in ("encode_wire_result", "encode_frame"):
        patches.add(server_app, name, tracer.timed("server.encode", getattr(server_app, name)))
    # InterpretationEngine.plan calls plan_query through its module global,
    # so wrapping every binding of plan_query covers it exactly once
    for module, attribute in _module_bindings(plan_query):
        patches.add(module, attribute, tracer.timed("engine.plan", plan_query))
    for module, attribute in _module_bindings(classify_bipartite_graph):
        patches.add(module, attribute, tracer.timed("classify", classify_bipartite_graph))
    original_get = SolverRegistry.get

    def get(registry, name):
        return tracer.timed("steiner.solve", original_get(registry, name))

    patches.add(SolverRegistry, "get", get)
    return patches


def count_patches(tracer: Tracer) -> Patches:
    """Call counters on hot functions, kept apart from the span wrappers.

    ``Hypergraph.edge`` runs ~10^5 times per classification, so counting it
    doubles classification time; the runner installs these on operations of
    their own, which leaves the span timings undistorted.
    """
    patches = Patches()
    patches.add(Graph, "add_edge", tracer.counted("graphs.add_edge", Graph.add_edge))
    patches.add(Hypergraph, "edge", tracer.counted("hypergraphs.edge", Hypergraph.edge))
    for module, attribute in _module_bindings(classify_bipartite_graph):
        counted = tracer.counted("classify", classify_bipartite_graph)
        if module.__name__ == "repro.dynamic.blocks":
            counted = tracer.counted("dynamic.block_classify", counted)
        patches.add(module, attribute, counted)
    return patches


def _union_length(intervals) -> float:
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def span_table(spans) -> dict:
    """Per span name: inclusive seconds, self seconds and calls.

    Spans of the traced set-up count only towards ``setup`` and
    ``classify``; every other row covers the traced operations alone.
    """
    children = collections.defaultdict(list)
    for span_id, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    table = {name: {"total_s": 0.0, "self_s": 0.0, "calls": 0} for name in SPANS}
    for span_id, name, start, end, _, request in spans:
        if request == "setup" and name not in ("setup", "classify"):
            continue
        row = table[name]
        row["total_s"] += end - start
        row["self_s"] += (end - start) - _union_length(children.get(span_id, ()))
        row["calls"] += 1
    return table


def first_read_after_write(spans) -> list:
    """Durations of the first ``api.connect`` after each ``dynamic.commit``."""
    commits = {}
    for _, name, start, end, _, request in spans:
        if name == "dynamic.commit":
            commits[request] = end
    firsts = {}
    for _, name, start, end, _, request in spans:
        if name == "api.connect" and request in commits and start >= commits[request]:
            if request not in firsts or start < firsts[request][0]:
                firsts[request] = (start, end - start)
    return [duration for _, duration in firsts.values()]


def layer_metrics(spans, counts, *, ops, queries, factor, oracle, rebinds) -> dict:
    """The per-layer metrics of one traced run (times host-normalised).

    ``<span>_ms`` is the inclusive time spent in the layer per traced
    operation and ``<span>.self_ms`` its self time, so along one operation
    they add up to ``op_ms``.  Two exceptions: ``classify.ms`` is per
    classification (the set-up's included) and ``setup_ms`` is the one
    traced set-up.  ``client.call``'s self time, the wire and thread hops
    no server span claims, is ``rpc.unattributed_ms``.  ``counts`` come
    from the count-side operations and set-up (see ``count_patches``).
    """
    table = span_table(spans)
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for span in SPANS:
        row = table[span]
        per = {"setup": 1, "classify": max(row["calls"], 1)}.get(span, ops)
        scale = 1000.0 * factor / per
        put("classify.ms" if span == "classify" else f"{span}_ms", row["total_s"] * scale, "ms")
        self_name = "rpc.unattributed_ms" if span == "client.call" else f"{span}.self_ms"
        put(self_name, row["self_s"] * scale, "ms")
    call = table["client.call"]
    put(
        "rpc.unattributed_share",
        call["self_s"] / call["total_s"] if call["total_s"] else 0.0,
        "ratio",
    )
    root = table["op"]
    put("op.unattributed_share", root["self_s"] / root["total_s"], "ratio")
    lookups = oracle["hits"] + oracle["misses"]
    put("kernels.oracle_hit_ratio", oracle["hits"] / lookups if lookups else 0.0, "ratio")
    put("kernels.oracle_misses", oracle["misses"], "count")
    put("kernels.oracle_invalidated", oracle["invalidated"], "count")
    put("graphs.add_edge_per_query", counts["graphs.add_edge"] / queries, "count")
    classify_calls = counts["classify"]
    put("classify.calls", classify_calls, "count")
    put(
        "hypergraphs.edge_calls_per_classify",
        counts["hypergraphs.edge"] / classify_calls if classify_calls else 0.0,
        "count",
    )
    put("dynamic.block_classify_calls", counts["dynamic.block_classify"], "count")
    rebind_total = sum(rebinds.values())
    put(
        "dynamic.rebind_incremental_ratio",
        rebinds.get("incremental", 0) / rebind_total if rebind_total else 0.0,
        "ratio",
    )
    firsts = first_read_after_write(spans)
    put(
        "api.first_read_after_write_ms",
        sum(firsts) * 1000.0 * factor / len(firsts) if firsts else 0.0,
        "ms",
    )
    return metrics
