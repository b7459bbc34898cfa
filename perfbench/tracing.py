"""Per-layer tracing by wrapping each layer's entry points from outside.

The program under test carries no tracing of its own.  A
:class:`Tracer` replaces the entry points listed in :data:`ENTRY_POINTS`
with timing wrappers, so it must be installed in a fresh process
before any network is built: media and stacks capture bound methods
(``Segment._broadcast``, ``UdpStack._on_packet``, HTTP handlers) when
they are constructed.

Every wrapped call is a span (name, start, end, parent span, packet
uid).  Spans nest by call stack; ``Network.run`` is the root of the
run phase.  A layer's self time is the duration of its spans minus
the part covered by their child spans, so the self times of all layers
inside ``Network.run`` add up to the root's duration exactly.  Time
that no wrapped entry point covers (the event loop itself, timer
callbacks such as a link's transmit-complete closure) stays with the
enclosing span, which at the top is ``Network.run``, layer ``sim``.

Entry points are the public surface of each layer plus the deferred
continuations it schedules for itself (``_TxQueue._transmit_next``,
``PlanPLayer._process_now``, the TCP retransmit timer, the HTTP
handlers), so that deferred work is charged to its layer, not to the
scheduler.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array

#: (layer, span name, "module:Class.attr" or "module:function", index
#: of the packet argument whose uid the span records, or None)
ENTRY_POINTS = [
    # net.sim: the scheduler
    ("sim", "sim.run", "repro.net.sim:Simulator.run", None),
    ("sim", "sim.schedule", "repro.net.sim:Simulator.schedule", None),
    ("sim", "sim.post", "repro.net.sim:Simulator.post", None),
    ("sim", "sim.call_soon", "repro.net.sim:Simulator.call_soon", None),
    ("sim", "sim.cancel", "repro.net.sim:EventHandle.cancel", None),
    ("sim", "sim.stats", "repro.net.sim:Simulator.stats", None),
    # net.link + net.monitor
    ("link", "link.iface_send", "repro.net.node:Interface.send", 1),
    ("link", "link.transmit", "repro.net.link:Link.transmit", 1),
    ("link", "link.transmit", "repro.net.link:Segment.transmit", 1),
    ("link", "link.transmit_next", "repro.net.link:_TxQueue._transmit_next",
     None),
    ("link", "link.iface_receive", "repro.net.node:Interface.receive", 1),
    ("monitor", "monitor.record", "repro.net.monitor:LoadMonitor.record",
     None),
    # net.node, net.packet, net.routing, net.udp
    ("node", "node.receive", "repro.net.node:Node.receive", 1),
    ("node", "node.ip_send", "repro.net.node:Node.ip_send", 1),
    ("node", "node.standard_processing",
     "repro.net.node:Node.standard_processing", 1),
    ("node", "node.deliver_local", "repro.net.node:Node.deliver_local", 1),
    ("packet", "packet.hop", "repro.net.packet:Packet.hop", 0),
    ("packet", "packet.copy", "repro.net.packet:Packet.copy", 0),
    ("routing", "routing.lookup", "repro.net.routing:RoutingTable.lookup",
     None),
    ("udp", "udp.sendto", "repro.net.udp:UdpSocket.sendto", None),
    ("udp", "udp.receive", "repro.net.udp:UdpStack._on_packet", 1),
    # net.topology (set-up)
    ("topology", "topology.build", "repro.net.topology:Network.add_host",
     None),
    ("topology", "topology.build", "repro.net.topology:Network.add_router",
     None),
    ("topology", "topology.build", "repro.net.topology:Network.link", None),
    ("topology", "topology.build", "repro.net.topology:Network.segment",
     None),
    ("topology", "topology.build", "repro.net.topology:Network.attach",
     None),
    ("topology", "topology.finalize", "repro.net.topology:Network.finalize",
     None),
    # runtime.planp_layer
    ("planp", "planp.wants", "repro.runtime.planp_layer:PlanPLayer.wants",
     1),
    ("planp", "planp.process",
     "repro.runtime.planp_layer:PlanPLayer.process", 1),
    ("planp", "planp.process_now",
     "repro.runtime.planp_layer:PlanPLayer._process_now", 1),
    ("planp", "planp.drain_batch",
     "repro.runtime.planp_layer:PlanPLayer._drain_batch", None),
    # runtime.codec (the dispatch-plan decoders are wrapped at install,
    # see Tracer._wrap_dispatch_plan)
    ("codec", "codec.encode", "repro.runtime.codec:encode", None),
    ("codec", "codec.decode", "repro.runtime.codec:decode", 0),
    # engines
    ("engine", "engine.run_channel",
     "repro.jit.specializer:ClosureEngine.run_channel", None),
    ("engine", "engine.run_channel_batch",
     "repro.jit.specializer:ClosureEngine.run_channel_batch", None),
    ("engine", "engine.run_channel",
     "repro.jit.codegen:CompiledSourceEngine.run_channel", None),
    ("engine", "engine.run_channel_batch",
     "repro.jit.codegen:CompiledSourceEngine.run_channel_batch", None),
    ("engine", "engine.run_channel",
     "repro.interp.interpreter:Interpreter.run_channel", None),
    # net.tcp, apps.http, SerialResource
    ("tcp", "tcp.handle_segment",
     "repro.net.tcp:TcpConnection.handle_segment", 1),
    ("tcp", "tcp.send", "repro.net.tcp:TcpConnection.send", None),
    ("tcp", "tcp.retransmit_timeout",
     "repro.net.tcp:TcpConnection._on_retransmit_timeout", None),
    ("tcp", "tcp.input", "repro.net.tcp:TcpStack._on_packet", 1),
    ("app", "app.server", "repro.apps.http.server:HttpServer._on_accept",
     None),
    ("app", "app.server", "repro.apps.http.server:HttpServer._on_data",
     None),
    ("app", "app.server", "repro.apps.http.server:HttpServer._on_close",
     None),
    ("app", "app.server",
     "repro.apps.http.server:HttpServer._finish_request", None),
    ("app", "app.client",
     "repro.apps.http.client:HttpClientWorker._next_request", None),
    ("app", "app.client",
     "repro.apps.http.client:HttpClientWorker._on_connected", None),
    ("app", "app.client",
     "repro.apps.http.client:HttpClientWorker._on_data", None),
    ("app", "app.client",
     "repro.apps.http.client:HttpClientWorker._on_conn_close", None),
    ("app", "app.client",
     "repro.apps.http.client:HttpClientWorker._on_timeout", None),
    ("app", "app.client",
     "repro.apps.http.client:HttpClientWorker._on_failure", None),
    ("app", "app.client", "repro.apps.http.client:OpenLoopClient._fire",
     None),
    ("app", "app.client", "repro.apps.http.client:_OneShot.on_connected",
     None),
    ("app", "app.client", "repro.apps.http.client:_OneShot.on_data", None),
    ("app", "app.client", "repro.apps.http.client:_OneShot.on_fail", None),
    ("app", "app.client", "repro.apps.http.client:_OneShot.on_timeout",
     None),
    ("cpu", "cpu.submit", "repro.net.sim:SerialResource.submit", None),
    # runtime.lifecycle + net.overload
    ("lifecycle", "lifecycle.on_packet",
     "repro.runtime.lifecycle:NodeLifecycle.on_packet_ok", None),
    ("lifecycle", "lifecycle.on_packet",
     "repro.runtime.lifecycle:NodeLifecycle.on_packet_error", None),
    ("overload", "overload.admission",
     "repro.net.overload:AdmissionController.admit", None),
    ("overload", "overload.admission",
     "repro.net.overload:AdmissionController.on_overload", None),
    ("overload", "overload.admission",
     "repro.net.overload:AdmissionController.on_healthy", None),
    # deploy: jit.pipeline, runtime.deployment, runtime.lifecycle,
    # analysis.verifier
    ("deploy", "deploy.load_program", "repro.jit.pipeline:load_program",
     None),
    ("deploy", "deploy.install",
     "repro.runtime.deployment:Deployment.install", None),
    ("deploy", "deploy.rollout",
     "repro.runtime.lifecycle:LifecycleManager.rollout", None),
    ("deploy", "deploy.verify", "repro.analysis.verifier:verify_report",
     None),
    ("deploy", "deploy.codegen",
     "repro.jit.pipeline:ProgramCache.engine_artifact", None),
    ("deploy", "deploy.codegen", "repro.jit.pipeline:make_engine", None),
]

#: the root span: the run phase is everything inside it
ROOT = ("sim", "net.run", "repro.net.topology:Network.run", None)

#: the decoders handed out by ``codec.dispatch_plan``
DECODE = ("codec", "codec.decode")


def _resolve(ref: str):
    module_name, _, path = ref.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Span recorder; :meth:`install` wraps, :meth:`uninstall` restores."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self.span_names: list[str] = []
        self._name_layer: list[int] = []
        # one row per span, indexed by span id (entry order)
        self.starts = array("d")
        self.ends = array("d")
        self.names = array("i")
        self.parents = array("q")
        self.uids = array("q")
        #: per span name: calls and inclusive seconds
        self.calls: list[int] = []
        self.inclusive: list[float] = []
        #: per layer: self seconds inside ``Network.run``, and seconds
        #: inside the layer's outermost spans
        self.run_self: list[float] = []
        self.busy: list[float] = []
        self._depth: list[int] = []
        #: count-only probes (no span)
        self.counts = {"packet.allocs": 0, "planp.wants_hits": 0,
                       "sim.heap_peak": 0}
        self._stack: list[int] = []
        self._covered: list[float] = []
        self._in_run: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        #: entry points that no longer exist in the program
        self.missing: list[str] = []

    # -- ids ------------------------------------------------------------------

    def _layer_id(self, layer: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
            self.run_self.append(0.0)
            self.busy.append(0.0)
            self._depth.append(0)
        return self.layers.index(layer)

    def _name_id(self, layer: str, name: str) -> int:
        if name in self.span_names:
            return self.span_names.index(name)
        self.span_names.append(name)
        self._name_layer.append(self._layer_id(layer))
        self.calls.append(0)
        self.inclusive.append(0.0)
        return len(self.span_names) - 1

    # -- wrappers -------------------------------------------------------------

    def wrap(self, fn, layer: str, name: str, uid_arg: int | None = None,
             root: bool = False):
        """``fn`` as a span of ``name`` in ``layer``."""
        nid = self._name_id(layer, name)
        lid = self._name_layer[nid]
        starts, ends, names = self.starts, self.ends, self.names
        parents, uids = self.parents, self.uids
        stack, covered, in_run = self._stack, self._covered, self._in_run
        calls, inclusive = self.calls, self.inclusive
        run_self = self.run_self
        busy, depth = self.busy, self._depth
        perf = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            starts.append(0.0)
            ends.append(0.0)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            uid = -1
            if uid_arg is not None and len(args) > uid_arg:
                uid = getattr(args[uid_arg], "uid", -1)
            uids.append(uid if uid is not None else -1)
            stack.append(idx)
            covered.append(0.0)
            if root:
                in_run.append(idx)
            depth[lid] += 1
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                starts[idx] = t0
                ends[idx] = t1
                stack.pop()
                dur = t1 - t0
                own = dur - covered.pop()
                if covered:
                    covered[-1] += dur
                if in_run:
                    run_self[lid] += own
                if root:
                    in_run.pop()
                depth[lid] -= 1
                if not depth[lid]:
                    busy[lid] += dur
                calls[nid] += 1
                inclusive[nid] += dur

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, new) -> None:
        old = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, old))
        setattr(owner, attr, new)
        if not isinstance(owner, type):
            # rebind names imported with ``from module import fn``
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("repro")
                        and module is not owner
                        and getattr(module, attr, None) is old):
                    self._patches.append((module, attr, old))
                    setattr(module, attr, new)

    def _hook(self, ref: str, make) -> None:
        """Replace the function at ``ref`` with ``make(original)``."""
        try:
            owner, attr = _resolve(ref)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError):
            # renamed or removed by a later change: its time would go
            # to the caller's layer, so the run's check fails on it
            self.missing.append(ref)
            return
        self._patch(owner, attr, make(fn))

    def _probes(self):
        """Count-only additions to some spans, keyed by span name."""
        counts = self.counts

        def heap_peak(fn):
            def schedule(sim, *args, **kwargs):
                handle = fn(sim, *args, **kwargs)
                # the heap's physical size, lazily-deleted entries
                # included: what each push and pop pays for
                depth = len(getattr(sim, "_queue", ()))
                if depth > counts["sim.heap_peak"]:
                    counts["sim.heap_peak"] = depth
                return handle
            return schedule

        def wants_hits(fn):
            def wants(layer, packet, iface):
                hit = fn(layer, packet, iface)
                if hit:
                    counts["planp.wants_hits"] += 1
                return hit
            return wants

        return {"sim.schedule": heap_peak, "sim.post": heap_peak,
                "planp.wants": wants_hits}

    def _traced_plans(self, make_plan):
        """``codec.dispatch_plan`` handing out traced decoders."""
        layer, name = DECODE

        def dispatch_plan(packet_type):
            plan = make_plan(packet_type)
            if plan is not None:
                plan.decode = self.wrap(plan.decode, layer, name, 0)
            return plan
        return dispatch_plan

    def _counted_allocs(self, post_init):
        counts = self.counts

        def counted(packet):
            counts["packet.allocs"] += 1
            post_init(packet)
        return counted

    def install(self) -> None:
        probes = self._probes()
        for layer, name, ref, uid_arg in [ROOT, *ENTRY_POINTS]:
            probe = probes.get(name)

            def make(fn, layer=layer, name=name, uid_arg=uid_arg,
                     probe=probe):
                return self.wrap(fn if probe is None else probe(fn),
                                 layer, name, uid_arg, root=name == ROOT[1])
            self._hook(ref, make)
        self._hook("repro.runtime.codec:dispatch_plan", self._traced_plans)
        self._hook("repro.net.packet:Packet.__post_init__",
                   self._counted_allocs)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def calls_of(self, name: str) -> int:
        return (self.calls[self.span_names.index(name)]
                if name in self.span_names else 0)

    def inclusive_of(self, name: str) -> float:
        return (self.inclusive[self.span_names.index(name)]
                if name in self.span_names else 0.0)

    def busy_of(self, layer: str) -> float:
        """Seconds inside the layer's outermost spans, both phases."""
        return (self.busy[self.layers.index(layer)]
                if layer in self.layers else 0.0)

    def self_in_run(self, layer: str) -> float:
        return (self.run_self[self.layers.index(layer)]
                if layer in self.layers else 0.0)

    def dump(self, path: str, origin: float) -> None:
        """Write every span as gzip-compressed CSV, times relative to
        ``origin``."""
        names = self.span_names
        layer_of = [self.layers[lid] for lid in self._name_layer]
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span,name,layer,start_s,end_s,parent,packet_uid\n")
            for i in range(len(self.starts)):
                nid = self.names[i]
                out.write(f"{i},{names[nid]},{layer_of[nid]},"
                          f"{self.starts[i] - origin:.9f},"
                          f"{self.ends[i] - origin:.9f},"
                          f"{self.parents[i]},{self.uids[i]}\n")
