"""Benchmark-side spans around the program's public layer calls.

:class:`Tracer` replaces a layer entry point (a class method or a name
imported into a consumer module) with a wrapper that records one span
per call: ``[name, start, end, parent, request]``.  ``parent`` is the
index of the enclosing span on the same thread, ``request`` the slot id
(with the shard, where the call has one).  Spans stay in memory and are
written out when the run ends.  :meth:`Tracer.restore` puts every
original back, so untraced passes in the same process run the plain
program.

A layer's self time is its span time minus the time of its direct
children — e.g. ``pipeline.submit`` excludes the collector fold and
the WAL appends it calls.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = List[Any]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        #: client send -> ack intervals: (shard, t, start, end)
        self.round_trips: List[Tuple[int, int, float, float]] = []
        self._local = threading.local()
        self._patched: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: Any = None):
        stack = self._stack()
        index = len(self.spans)
        self.spans.append(
            [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, request]
        )
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        request: Optional[Callable[..., Any]] = None,
        count: Optional[Callable[..., int]] = None,
    ) -> None:
        """Trace ``owner.attr`` (a function or method) as span ``name``.

        ``request(args)`` names the call's request; ``count(args, out)``
        adds to ``counts[name]``.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name, request(args) if request else None):
                out = original(*args, **kwargs)
            if count is not None:
                tracer.counts[name] += int(count(args, out))
            return out

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def wrap_round_trip(self, owner: Any) -> None:
        """Time an async ``owner.send_batch(batch)`` from send to ack."""
        attr = "send_batch"
        original = getattr(owner, attr)
        trips = self.round_trips

        @functools.wraps(original)
        async def traced(client, batch, *args, **kwargs):
            start = time.perf_counter()
            out = await original(client, batch, *args, **kwargs)
            trips.append((batch.shard, batch.t, start, time.perf_counter()))
            return out

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- summaries -------------------------------------------------------

    def self_seconds(self) -> Dict[str, float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def dump(self) -> Dict[str, Any]:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "round_trips": self.round_trips,
            "self_seconds": self.self_seconds(),
        }


def install_layers(tracer: Tracer) -> None:
    """Wrap every measured layer's public entry points."""
    from repro.gateway import client, distributed, server
    from repro.gateway.distributed import ShardStateAggregator
    from repro.protocol.collector import Collector
    from repro.protocol.vectorized import PopulationSlotEngine
    from repro.runtime.sharding import ShardedRunResult
    from repro.service.pipeline import IngestionPipeline, LiveRunResult
    from repro.wal.log import WriteAheadLog

    tracer.wrap(
        PopulationSlotEngine,
        "step",
        "vectorized.step",
        request=lambda a: a[0].slots_processed,
        count=lambda a, out: len(out[0]),
    )
    for owner in (PopulationSlotEngine, ShardedRunResult, LiveRunResult):
        tracer.wrap(owner, "assert_valid", "accountant.audit")
    tracer.wrap(
        Collector,
        "ingest_batch",
        "collector.ingest",
        request=lambda a: a[1],
        count=lambda a, out: len(a[2]),
    )
    tracer.wrap(Collector, "merge_state", "collector.merge", count=lambda a, out: 1)
    tracer.wrap(
        IngestionPipeline,
        "submit",
        "pipeline.submit",
        request=lambda a: (a[1].t, a[1].shard),
    )
    tracer.wrap(
        WriteAheadLog, "append_batch", "wal.append", request=lambda a: a[1].t
    )
    tracer.wrap(WriteAheadLog, "append_commit", "wal.commit", request=lambda a: a[1])
    tracer.wrap(
        client,
        "encode_batch_frame",
        "wire.encode",
        request=lambda a: (a[0].t, a[0].shard),
        count=lambda a, out: len(out),
    )
    tracer.wrap(
        server, "decode_batch_payload", "wire.decode", count=lambda a, out: len(a[0])
    )
    tracer.wrap(
        distributed,
        "encode_shard_state_frame",
        "wire.encode",
        request=lambda a: (a[0].t, a[0].shard),
        count=lambda a, out: len(out),
    )
    tracer.wrap(
        distributed,
        "decode_shard_state_payload",
        "wire.decode",
        count=lambda a, out: len(a[0]),
    )
    tracer.wrap(
        ShardStateAggregator,
        "submit",
        "distributed.root_fold",
        request=lambda a: (a[1].t, a[1].shard),
        count=lambda a, out: 1,
    )
    tracer.wrap_round_trip(client.GatewayClient)
