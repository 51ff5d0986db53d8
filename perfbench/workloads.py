"""The four benchmark workloads: inputs, set-up, one operation, answer checks.

Each workload is driven by one closed-loop client: the next operation is
sent only after the previous one returned.  Inputs come from the seed
alone and are generated between operations, outside every timer; the
program under test only ever sees the generated inputs.

Why each workload exists (see NOISE.md for the measurements):

* ``rpc-read`` -- warm ``connect`` RPCs over a local socket.  The server
  layers (framing, admission, the event-loop and thread hops, encoding)
  are most of its wall time, and no other workload touches them.
* ``batch-warm`` -- in-process ``ConnectionService.batch`` on a warm
  180-vertex schema: all engine, solver and kernels, no wire.
* ``onboard-cold`` -- a new service on a never-seen schema answering its
  first query.  Theorem 1 classification is almost all of it.
* ``churn-rw`` -- one ``SchemaEditor`` transaction then eight reads.  The
  only workload that runs ``repro.dynamic`` (incremental rebind, oracle
  invalidation) and puts writes beside the reads of batch-warm.

Answer checks run after the timed window.  ``records`` maps an operation
index to ``(input, answer_keys)``; ``check`` recomputes the keys from an
independent reference and returns the indices whose keys differ.
"""

import asyncio
import random
import threading

from repro.api import ConnectionService
from repro.datasets.generators import random_62_chordal_graph
from repro.dynamic.editor import SchemaEditor
from repro.graphs.traversal import connected_components
from repro.load.clients import digest_result_object, digest_wire_payload
from repro.server import ReproClient, ReproServer
from repro.steiner.exact import steiner_tree_dreyfus_wagner

TENANT = "bench"


#: Seed of the tenant schema of rpc-read, batch-warm and churn-rw.  The
#: schema is the same for every run seed, which varies the queries and
#: edits: between seeds, schema shape alone moved batch-warm p50 by ~10%
#: and set-up (classification) by ~25%, which would hide regressions.
SCHEMA_SEED = 1985


def sized_schema(blocks: int, low: int, high: int, rng: random.Random):
    """A (6,2)-chordal schema whose vertex count lies in ``[low, high]``."""
    while True:
        graph = random_62_chordal_graph(blocks, rng=rng.getrandbits(32))
        if low <= len(graph.vertices()) <= high:
            return graph


def terminal_pool(graph):
    """The vertices a query may name: the largest component, in a fixed order.

    The same pool ``random_terminals`` samples from, computed once instead
    of once per query.
    """
    return sorted(max(connected_components(graph), key=len), key=repr)


class Workload:
    """Base class: the runner calls these hooks in a fixed order."""

    name = ""
    #: connection queries answered by one operation
    queries_per_op = 1
    #: set-ups (and segments) per run; ``setup_s`` is their median
    setup_repeats = 5
    #: operations of each kind (untraced, span-traced, counted) in a traced run
    trace_ops = 100

    def __init__(self, seed: int) -> None:
        self.records = {}
        self._check_rng = random.Random(seed * 7919 + 17)

    def setup(self) -> None:
        """Make the workload ready to serve (timed as ``setup_s``)."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what the last ``setup`` built (untimed)."""

    def next_input(self, index: int):
        """The input of operation ``index`` (untimed)."""
        raise NotImplementedError

    def run(self, item):
        """One operation (timed)."""
        raise NotImplementedError

    def record(self, index: int, item, answer) -> bool:
        """Keep what ``check`` needs; return False if a cheap check fails."""
        return True

    def check(self) -> list:
        """Indices of recorded operations whose answers are wrong."""
        raise NotImplementedError

    def serving_service(self):
        """The service that answered the last operation."""
        raise NotImplementedError

    def _chosen_for_check(self, share: float) -> bool:
        return self._check_rng.random() < share


def _digests(service, queries):
    return [digest_result_object(service.connect(q)) for q in queries]


class _ServerThread:
    """A ``ReproServer`` on its own event-loop thread in this process."""

    def __init__(self) -> None:
        self.server = ReproServer(port=0)
        ready = threading.Event()

        def serve():
            async def main():
                await self.server.start()
                ready.set()
                await self.server.serve_forever()

            asyncio.run(main())

        self.thread = threading.Thread(target=serve, name="repro-server", daemon=True)
        self.thread.start()
        if not ready.wait(30):
            raise RuntimeError("server did not start")

    def stop(self) -> None:
        self.server.request_drain()
        self.thread.join(30)
        if self.thread.is_alive():
            raise RuntimeError("server did not drain")


class RpcRead(Workload):
    """Warm ``connect`` RPCs (3 terminals) from one ``ReproClient``."""

    name = "rpc-read"
    trace_ops = 400
    warmup_queries = 50
    check_share = 0.25

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.graph = sized_schema(40, 118, 122, random.Random(SCHEMA_SEED))
        self.pool = terminal_pool(self.graph)
        rng = random.Random(seed)
        self._queries = random.Random(rng.getrandbits(32))
        self._warmup = random.Random(rng.getrandbits(32))
        self.server = None
        self.client = None

    def setup(self) -> None:
        self.server = _ServerThread()
        self.client = ReproClient("127.0.0.1", self.server.server.port, timeout=120.0)
        self.client.create_schema(TENANT, self.graph)
        for _ in range(self.warmup_queries):
            self.client.connect(TENANT, self._warmup.sample(self.pool, 3))

    def teardown(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self.server.stop()
            self.server = None

    def next_input(self, index: int):
        return self._queries.sample(self.pool, 3)

    def run(self, item):
        return self.client.connect(TENANT, item)

    def record(self, index: int, item, answer) -> bool:
        if self._chosen_for_check(self.check_share):
            self.records[index] = (item, [digest_wire_payload(answer)])
        return True

    def check(self) -> list:
        # wire digests must equal in-process digests of the same queries
        reference = ConnectionService(schema=self.graph)
        return [
            index
            for index, (item, keys) in self.records.items()
            if keys != _digests(reference, [item])
        ]

    def serving_service(self):
        return self.server.server.registry.record(TENANT).service


class BatchWarm(Workload):
    """``ConnectionService.batch`` of 32 fresh 4-terminal queries, in process."""

    name = "batch-warm"
    queries_per_op = 32
    trace_ops = 40
    check_share = 0.05

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.graph = sized_schema(60, 178, 182, random.Random(SCHEMA_SEED))
        self.pool = terminal_pool(self.graph)
        rng = random.Random(seed)
        self._queries = random.Random(rng.getrandbits(32))
        self._warmup = random.Random(rng.getrandbits(32))
        self.service = None

    def setup(self) -> None:
        self.service = ConnectionService(schema=self.graph)
        self.service.classification()
        self.service.batch(
            [self._warmup.sample(self.pool, 4) for _ in range(self.queries_per_op)]
        )

    def teardown(self) -> None:
        self.service = None

    def next_input(self, index: int):
        return [self._queries.sample(self.pool, 4) for _ in range(self.queries_per_op)]

    def run(self, item):
        return self.service.batch(item)

    def record(self, index: int, item, answer) -> bool:
        if len(answer) != len(item):
            return False
        if self._chosen_for_check(self.check_share):
            self.records[index] = (item, [digest_result_object(r) for r in answer])
        return True

    def check(self) -> list:
        # batch answers must equal per-query connect answers of a fresh service
        reference = ConnectionService(schema=self.graph)
        return [
            index
            for index, (item, keys) in self.records.items()
            if keys != _digests(reference, item)
        ]

    def serving_service(self):
        return self.service


class OnboardCold(Workload):
    """A new ``ConnectionService`` per operation, on a schema it has never seen."""

    name = "onboard-cold"
    setup_repeats = 9
    trace_ops = 30

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._base = random.Random(seed).getrandbits(32)
        self._setups = 0
        self.service = None

    def _case(self, index: int, base: int = None):
        """Schema and terminals of case ``index``."""
        rng = random.Random((self._base if base is None else base) * 1_000_003 + index)
        graph = random_62_chordal_graph(20, rng=rng.getrandbits(32))
        return graph, rng.sample(terminal_pool(graph), 3)

    def setup(self) -> None:
        # ready to serve: the service stack has answered one first query;
        # the warm-up cases are the same for every seed, like the schema
        # of the other workloads, so seeds do not move setup_s
        graph, terminals = self._case(self._setups, base=SCHEMA_SEED)
        self._setups += 1
        ConnectionService(schema=graph).connect(terminals)

    def next_input(self, index: int):
        return self._case(index)

    def run(self, item):
        graph, terminals = item
        self.service = ConnectionService(schema=graph)
        return self.service.connect(terminals)

    def record(self, index: int, item, answer) -> bool:
        # only the index is kept: check() regenerates the case from it
        self.records[index] = (index, [(answer.cost, answer.guarantee.value)])
        return True

    def check(self) -> list:
        # the cost must be the Dreyfus-Wagner optimum, certified "optimal"
        wrong = []
        for index, (case, keys) in self.records.items():
            graph, terminals = self._case(case)
            expected = steiner_tree_dreyfus_wagner(graph, terminals).vertex_count()
            if keys != [(expected, "optimal")]:
                wrong.append(index)
        return wrong

    def serving_service(self):
        return self.service


class ChurnRW(Workload):
    """One ``SchemaEditor`` transaction, then 8 ``connect`` reads, per cycle.

    Cycles alternate a perturbation and its undo, so the schema size stays
    within one vertex of the base.  A perturbation is either a leaf add
    (vertex churn, undone by removing the leaf) or the removal of an edge
    whose endpoints stay joined by a 3-path (undone by re-adding it), so
    no read can fail.
    """

    name = "churn-rw"
    queries_per_op = 8
    trace_ops = 100
    checked_cycles = 6

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.graph = sized_schema(40, 118, 122, random.Random(SCHEMA_SEED))
        self.pool = terminal_pool(self.graph)
        rng = random.Random(seed)
        self.anchors = sorted(self.graph.vertices(), key=repr)
        self.removable = [
            edge
            for edge in sorted(self.graph.edges(), key=repr)
            if self._on_square(*edge)
        ]
        self._queries = random.Random(rng.getrandbits(32))
        self._edits = random.Random(rng.getrandbits(32))
        self._warmup = random.Random(rng.getrandbits(32))
        self._checked = set(random.Random(rng.getrandbits(32)).sample(
            range(8, 320), self.checked_cycles
        ))
        self._pending = None
        self.service = None

    def _on_square(self, u, v) -> bool:
        graph = self.graph
        return any(
            graph.has_edge(x, y)
            for x in graph.neighbors(u)
            if x != v
            for y in graph.neighbors(v)
            if y != u
        )

    def setup(self) -> None:
        self.service = ConnectionService(schema=self.graph)
        self.service.classification()
        for _ in range(self.queries_per_op):
            self.service.connect(self._warmup.sample(self.pool, 3))

    def teardown(self) -> None:
        self.service = None

    def next_input(self, index: int):
        if self._pending is None:
            if self._edits.random() < 0.5:
                anchor = self._edits.choice(self.anchors)
                edit = ("add-leaf", ("churn", index), anchor)
            else:
                edit = ("remove-edge",) + self._edits.choice(self.removable)
            self._pending = edit
        else:
            kind, u, v = self._pending
            edit = ("remove-leaf", u, v) if kind == "add-leaf" else ("add-edge", u, v)
            self._pending = None
        # the first read names what the edit touched, so that an answer
        # from a stale context is wrong (or fails) instead of passing
        kind, u, v = edit
        touched = {"add-leaf": [u], "remove-leaf": [v]}.get(kind, [u, v])
        others = [x for x in self._queries.sample(self.pool, 4) if x not in touched]
        reads = [touched + others[: 3 - len(touched)]]
        reads += [self._queries.sample(self.pool, 3) for _ in range(self.queries_per_op - 1)]
        return edit, reads

    def run(self, item):
        (kind, u, v), reads = item
        with SchemaEditor(self.graph) as tx:
            if kind == "add-leaf":
                tx.add_vertex(u, side=3 - self.graph.side_of(v))
                tx.add_edge(u, v)
            elif kind == "remove-leaf":
                tx.remove_vertex(u)
            elif kind == "remove-edge":
                tx.remove_edge(u, v)
            else:
                tx.add_edge(u, v)
        return [self.service.connect(q) for q in reads]

    def record(self, index: int, item, answer) -> bool:
        if len(answer) != self.queries_per_op:
            return False
        if index in self._checked:
            snapshot = self.graph.copy()
            self.records[index] = (
                (snapshot, item[1]),
                [digest_result_object(r) for r in answer],
            )
        return True

    def check(self) -> list:
        # answers must equal those of a fresh context on a copy of the schema
        return [
            index
            for index, ((snapshot, reads), keys) in self.records.items()
            if keys != _digests(ConnectionService(schema=snapshot), reads)
        ]

    def serving_service(self):
        return self.service


WORKLOADS = {cls.name: cls for cls in (RpcRead, BatchWarm, OnboardCold, ChurnRW)}
