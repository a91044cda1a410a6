"""Outside-in span tracing for the traced benchmark run.

Nothing inside the program is edited.  While a :class:`SpanTracer` is
active it wraps, from outside:

* every callback handed to the schedulers — ``Simulator.post/post_at/
  schedule/schedule_at/call_soon``, the same five on
  ``AsyncioRuntime``, ``Timer`` callbacks — and every receive handler
  bound with ``Network.attach``/``AsyncioTransport.attach``; each is
  attributed to the layer of the module that defines it;
* the kernel's dispatch loop (``Simulator.run``), the fabric's send and
  per-hop delivery callbacks, the asyncio runtime's dispatch and the
  UDP transport's send/receive paths;
* the public entry points of each layer: ``GroupChannel.multicast/
  on_message``, ``ReplicationEngine.submit``, ``ActionQueue.mark_red/
  mark_green``, ``SimulatedDisk.write/flush``, ``WriteAheadLog.append/
  sync``, ``StableStore.put/sync``, ``Database.apply``,
  ``codec.encode_frame/decode_frame``,
  ``TxnCoordinator.submit_transaction``, ``KeyRangeRouter.split_update``
  and the observability instruments (span trackers, flight recorders,
  counters, histograms).

Every wrapped call is a span ``(id, parent, layer, name, start, end)``.
A layer's self time is its spans' duration minus the time covered by
their child spans, accumulated on the fly; the most recent spans are
kept in memory and written out when the run ends.  Layers are the
``src/repro`` packages; everything else (the benchmark, the bench
harness, stdlib) is ``other``.

The tracer also timestamps each client action at four points to split
commit latency into stages: submit -> GCS multicast (the forced
write), multicast -> safe delivery at the origin (ordering), delivery
-> the client's green callback (apply).
"""

from __future__ import annotations

import functools
import itertools
import os
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

LAYERS = ("sim", "net", "gcs", "core", "storage", "db", "runtime", "obs",
          "shard")
OTHER = "other"
SCHEDULERS = ("post", "post_at", "schedule", "schedule_at")
KEEP_SPANS = 200_000


def _function_of(fn: Any) -> Any:
    """The plain function behind a partial or bound method."""
    while isinstance(fn, functools.partial):
        fn = fn.func
    return getattr(fn, "__func__", fn)


def layer_of(fn: Any) -> Tuple[str, str]:
    """(layer, qualified name) of the code behind a callable."""
    target = _function_of(fn)
    module = getattr(target, "__module__", None) or ""
    name = getattr(target, "__qualname__", None) or type(target).__name__
    parts = module.split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1], name
    return OTHER, name


class _Traced:
    """A callback wrapped in a span (marked, so it is wrapped once)."""

    __slots__ = ("tracer", "layer", "name", "fn")

    def __init__(self, tracer: "SpanTracer", layer: str, name: str,
                 fn: Callable[..., Any]):
        self.tracer, self.layer, self.name, self.fn = tracer, layer, name, fn

    def __call__(self, *args: Any) -> Any:
        return self.tracer.call(self.layer, self.name, self.fn, args)


class _Stages:
    """Per-action stage timestamps on the workload's own clock."""

    def __init__(self) -> None:
        self.submitted: Dict[Any, float] = {}
        self.multicast: Dict[Any, float] = {}
        self.delivered: Dict[Any, float] = {}
        self.durable: List[float] = []
        self.order: List[float] = []
        self.apply: List[float] = []

    def on_submit(self, action_id: Any, now: float) -> None:
        self.submitted[action_id] = now
        self.multicast.pop(action_id, None)
        self.delivered.pop(action_id, None)

    def on_multicast(self, action_id: Any, now: float) -> None:
        start = self.submitted.get(action_id)
        if start is not None and action_id not in self.multicast:
            self.multicast[action_id] = now
            self.durable.append(now - start)

    def on_deliver(self, action_id: Any, now: float) -> None:
        sent = self.multicast.get(action_id)
        if sent is not None and action_id not in self.delivered:
            self.delivered[action_id] = now
            self.order.append(now - sent)

    def on_ack(self, action_id: Any, now: float) -> None:
        delivered = self.delivered.pop(action_id, None)
        if delivered is not None:
            self.apply.append(now - delivered)
        self.submitted.pop(action_id, None)
        self.multicast.pop(action_id, None)


class SpanTracer:
    """Install the wrappers on ``with`` entry, remove them on exit."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS + (OTHER,),
                                                      0.0)
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS + (OTHER,), 0)
        self.spans: deque = deque(maxlen=KEEP_SPANS)
        self.stages = _Stages()
        self._stack: List[List[Any]] = []
        self._ids = itertools.count(1)
        self._undo: List[Tuple[Any, str, Any]] = []
        self._names: Dict[Any, Tuple[str, str]] = {}

    # -- spans ------------------------------------------------------------
    def call(self, layer: str, name: str, fn: Callable[..., Any],
             args: Tuple[Any, ...], kwargs: Optional[Dict] = None) -> Any:
        stack, clock = self._stack, time.perf_counter
        span_id = next(self._ids)
        frame = [span_id, 0.0]
        parent = stack[-1][0] if stack else 0
        stack.append(frame)
        start = clock()
        try:
            return fn(*args, **kwargs) if kwargs else fn(*args)
        finally:
            end = clock()
            stack.pop()
            elapsed = end - start
            self.self_s[layer] += elapsed - frame[1]
            self.calls[layer] += 1
            if stack:
                stack[-1][1] += elapsed
            self.spans.append((span_id, parent, layer, name, start, end))

    def traced(self, fn: Any) -> Any:
        """``fn`` wrapped in a span of its defining layer."""
        if fn is None or isinstance(fn, _Traced):
            return fn
        # Keyed by code object: closures are fresh function objects on
        # every call, but share their code.
        target = _function_of(fn)
        key = getattr(target, "__code__", target)
        try:
            layer, name = self._names[key]
        except (KeyError, TypeError):
            layer, name = layer_of(fn)
            try:
                self._names[key] = (layer, name)
            except TypeError:  # unhashable callable
                pass
        return _Traced(self, layer, name, fn)

    # -- patching ---------------------------------------------------------
    def _replace(self, owner: Any, attr: str, new: Any) -> Any:
        old = owner.__dict__[attr]
        self._undo.append((owner, attr, old))
        setattr(owner, attr, new)
        return old

    def span_method(self, cls: Any, attr: str, layer: str) -> None:
        """Wrap ``cls.attr`` (a plain method or function) in a span."""
        old = cls.__dict__[attr]
        name = f"{getattr(cls, '__name__', cls)}.{attr}"
        tracer = self

        def method(*args: Any, **kwargs: Any) -> Any:
            return tracer.call(layer, name, old, args, kwargs)

        self._replace(cls, attr, method)

    def wrap_schedulers(self, cls: Any) -> None:
        """Wrap the callbacks handed to a runtime's schedulers."""
        tracer = self
        for attr in SCHEDULERS:
            old = cls.__dict__[attr]

            def scheduler(rt: Any, when: float, callback: Any, *args: Any,
                          _old: Any = old) -> Any:
                return _old(rt, when, tracer.traced(callback), *args)

            self._replace(cls, attr, scheduler)
        old_soon = cls.__dict__["call_soon"]

        def call_soon(rt: Any, callback: Any, *args: Any) -> Any:
            return old_soon(rt, tracer.traced(callback), *args)

        self._replace(cls, "call_soon", call_soon)

    def wrap_handler_arg(self, cls: Any, attr: str, index: int) -> None:
        """Wrap the callable passed as positional ``index`` (after
        ``self``) to ``cls.attr``."""
        old = self._replace(cls, attr, None)
        tracer = self

        def method(obj: Any, *args: Any, **kwargs: Any) -> Any:
            if len(args) > index:
                args = (args[:index] + (tracer.traced(args[index]),)
                        + args[index + 1:])
            return old(obj, *args, **kwargs)

        setattr(cls, attr, method)

    def __enter__(self) -> "SpanTracer":
        self._install()
        return self

    def __exit__(self, *exc: Any) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def _install(self) -> None:
        from repro.core.action_queue import ActionQueue
        from repro.core.engine import ReplicationEngine
        from repro.core.messages import EngineActionMsg
        from repro.core.replica import Replica
        from repro.db.database import Database
        from repro.gcs.group import GroupChannel
        from repro.net import codec
        from repro.net.network import Network
        from repro.obs.flight import FlightRecorder
        from repro.obs.metrics import Counter, Histogram
        from repro.obs.spans import SpanTracker
        from repro.runtime.asyncio_runtime import AsyncioRuntime
        from repro.runtime.transport import AsyncioTransport
        from repro.shard.coordinator import TxnCoordinator
        from repro.shard.router import KeyRangeRouter
        from repro.sim.kernel import Simulator
        from repro.sim.process import Timer
        from repro.storage.disk import SimulatedDisk
        from repro.storage.store import StableStore
        from repro.storage.wal import WriteAheadLog

        tracer = self
        stages = self.stages

        # -- schedulers, handlers and the two runtimes --------------------
        self.wrap_schedulers(Simulator)
        self.wrap_schedulers(AsyncioRuntime)
        self.wrap_handler_arg(Timer, "__init__", 1)
        self.wrap_handler_arg(Network, "attach", 1)
        self.wrap_handler_arg(AsyncioTransport, "attach", 1)
        self.span_method(Simulator, "run", "sim")
        for attr in ("_dispatch", "_dispatch_handle"):
            self.span_method(AsyncioRuntime, attr, "runtime")
        for attr in ("send", "multicast", "_on_readable", "_local_deliver"):
            self.span_method(AsyncioTransport, attr, "runtime")
        for attr in ("send", "multicast"):
            self.span_method(Network, attr, "net")
        network_init = self._replace(Network, "__init__", None)

        def init_network(net: Any, *args: Any, **kwargs: Any) -> None:
            network_init(net, *args, **kwargs)
            # Per-hop delivery events go straight onto the kernel heap
            # with these two bound callbacks.
            net._arrive_cb = _Traced(tracer, "net", "Network._arrive",
                                     net._arrive_cb)
            net._deliver_cb = _Traced(tracer, "net", "Network._deliver",
                                      net._deliver_cb)

        Network.__init__ = init_network
        for attr in ("encode_frame", "decode_frame"):
            old = self._replace(codec, attr, None)
            setattr(codec, attr, _Traced(self, "net", f"codec.{attr}", old))

        # -- layer entry points -------------------------------------------
        for cls, attrs, layer in (
                (ActionQueue, ("mark_red", "mark_green"), "core"),
                (SimulatedDisk, ("write", "flush"), "storage"),
                (WriteAheadLog, ("append", "sync"), "storage"),
                (StableStore, ("put", "sync"), "storage"),
                (Database, ("apply",), "db"),
                (TxnCoordinator, ("submit_transaction",), "shard"),
                (KeyRangeRouter, ("split_update",), "shard"),
                (SpanTracker, ("on_submit", "on_red", "on_green",
                               "on_remote_green"), "obs"),
                (FlightRecorder, ("record",), "obs"),
                (Counter, ("inc",), "obs"),
                (Histogram, ("observe",), "obs")):
            for attr in attrs:
                self.span_method(cls, attr, layer)

        # -- entry points that also stamp the stage split -----------------
        engine_submit = self._replace(ReplicationEngine, "submit", None)

        def submit(engine: Any, *args: Any, **kwargs: Any) -> Any:
            action_id = tracer.call("core", "ReplicationEngine.submit",
                                    engine_submit, (engine,) + args, kwargs)
            stages.on_submit(action_id, engine.sim.now)
            return action_id

        ReplicationEngine.submit = submit
        channel_multicast = self._replace(GroupChannel, "multicast", None)

        def multicast(channel: Any, payload: Any, *args: Any,
                      **kwargs: Any) -> None:
            if type(payload) is EngineActionMsg and not payload.retrans:
                stages.on_multicast(payload.action.action_id,
                                    channel.daemon.sim.now)
            tracer.call("gcs", "GroupChannel.multicast", channel_multicast,
                        (channel, payload) + args, kwargs)

        GroupChannel.multicast = multicast
        channel_deliver = self._replace(GroupChannel, "on_message", None)

        def on_message(channel: Any, payload: Any, origin: int,
                       *args: Any, **kwargs: Any) -> None:
            if (type(payload) is EngineActionMsg
                    and origin == channel.daemon.node):
                stages.on_deliver(payload.action.action_id,
                                  channel.daemon.sim.now)
            tracer.call("gcs", "GroupChannel.on_message", channel_deliver,
                        (channel, payload, origin) + args, kwargs)

        GroupChannel.on_message = on_message
        replica_submit = self._replace(Replica, "submit", None)

        def replica_submit_traced(replica: Any, *args: Any,
                                  **kwargs: Any) -> Any:
            completion = kwargs.get("on_complete")
            if completion is not None:
                def acked(action: Any, position: int, result: Any) -> None:
                    stages.on_ack(action.action_id, replica.sim.now)
                    completion(action, position, result)
                kwargs["on_complete"] = acked
            return replica_submit(replica, *args, **kwargs)

        Replica.submit = replica_submit_traced

    # -- results ----------------------------------------------------------
    def metrics(self, greens: int) -> Dict[str, Tuple[float, str]]:
        total = sum(self.self_s.values())
        per = 1.0 / greens if greens else 0.0
        metrics: Dict[str, Tuple[float, str]] = {}
        for layer in LAYERS + (OTHER,):
            metrics[f"{layer}.self_share"] = (
                self.self_s[layer] / total if total else 0.0, "ratio")
            metrics[f"{layer}.calls_per_green"] = (
                self.calls[layer] * per, "count/green")
        from harness import median
        stages = self.stages
        metrics["stage.durable_ms"] = (median(stages.durable) * 1e3, "ms")
        metrics["stage.order_ms"] = (median(stages.order) * 1e3, "ms")
        metrics["stage.apply_ms"] = (median(stages.apply) * 1e3, "ms")
        return metrics

    def dump(self, path: str) -> None:
        """Write the kept spans (most recent last) as CSV."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span,parent,layer,name,start_s,end_s\n")
            for span_id, parent, layer, name, start, end in self.spans:
                handle.write(f"{span_id},{parent},{layer},{name},"
                             f"{start:.9f},{end:.9f}\n")
