"""Topology construction: the ``Network`` façade.

Experiments and examples build their networks through this class; it owns
the simulator, allocates addresses, wires interfaces to media, and
finalises routing and multicast trees.

Typical use (the paper's figure 5 network is built exactly like this in
:mod:`repro.apps.audio.experiment`)::

    net = Network(seed=42)
    source = net.add_host("audio-source")
    router = net.add_router("router")
    client = net.add_host("client")
    net.link(source, router, bandwidth=100e6)
    segment = net.segment("lan", bandwidth=10e6)
    net.attach(router, segment)
    net.attach(client, segment)
    net.finalize()
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..obs import Observability
from .addresses import AddressAllocator, HostAddr
from .link import Link, Segment
from .multicast import GroupManager
from .node import Host, Node, Router
from .routing import compute_routes as _compute_routes
from .sim import Simulator
from .tcp import TcpStack
from .udp import UdpStack

if TYPE_CHECKING:
    from .faults import FaultController
    from .node import Interface
    from .packet import Packet
    from .shard import ShardPlan, ShardRunner


class Network:
    """A simulated network under construction (and then in operation).

    With ``shard_segments > 1`` the topology is partitioned at
    :meth:`finalize` into that many segments, each owning its own
    :class:`Simulator`, and :meth:`run` drives them through the
    conservative-parallel window protocol of :mod:`repro.net.shard`.
    ``net.sim`` is then the *controller* simulator (fault timelines,
    experiment probes); per-node traffic runs on the segment simulators,
    and runs are byte-identical to ``shard_segments=1`` for the same
    seed.  ``shard_of`` maps a :class:`Node` to its segment index
    (default: contiguous blocks in construction order).
    """

    def __init__(self, *, seed: int = 0, base_addr: str = "10.0.0.0",
                 obs: Observability | None = None, name: str = "net",
                 shard_segments: int = 1,
                 shard_of: Callable[[Node], int] | None = None):
        if shard_segments < 1:
            raise ValueError("shard_segments must be >= 1")
        self.name = name
        self.seed = seed
        self.shard_segments = int(shard_segments)
        self._shard_of = shard_of
        #: the shard plan + runner, built at finalize when sharded
        self._shard: "ShardRunner | None" = None
        # One context-id allocator and one root context span every
        # simulator this network owns (the controller and, when sharded,
        # the segments), so event keys depend only on construction
        # order — not on which simulator an entity landed on.
        self._next_lp = 0
        self.sim = Simulator(seed=seed, lp_alloc=self._alloc_lp)
        #: the simulator currently dispatching events — the controller,
        #: or whichever segment the shard runner is driving; the obs
        #: event clock reads this so event timestamps follow simulated
        #: time in every execution mode
        self._active_sim = self.sim
        #: this network's observability scope — metrics registry and a
        #: structured event log stamped with **simulated** time.  A
        #: caller-supplied scope is adopted so several runs can measure
        #: into one place; the *first* network built on it claims the
        #: event clock and the canonical ``sim`` stats name, later
        #: networks publish under ``sim2``, ``sim3``, … and leave the
        #: clock alone (the scope's timestamps stay consistent instead
        #: of silently jumping to the newest simulator).
        self.obs = obs if obs is not None \
            else Observability(clock=lambda: self._active_sim.now)
        if not self.obs.metrics.has("sim"):
            self.obs.events.clock = lambda: self._active_sim.now
            self._sim_metric_name = "sim"
        else:
            n = 2
            while self.obs.metrics.has(f"sim{n}"):
                n += 1
            self._sim_metric_name = f"sim{n}"
        self.obs.metrics.register(self._sim_metric_name, self._sim_stats)
        self.nodes: list[Node] = []
        self.media: list[Link | Segment] = []
        self._alloc = AddressAllocator(base_addr)
        self._by_name: dict[str, Node] = {}
        self._finalized = False

    def _alloc_lp(self) -> int:
        self._next_lp += 1
        return self._next_lp

    def _sim_stats(self) -> dict[str, float]:
        """The canonical ``sim`` scope: the simulator's health counters
        — merged across the controller and all segment simulators when
        sharded, so the deterministic fields (``now``,
        ``events_processed``, ``pending_events``) read identically in
        every execution mode."""
        if self._shard is None:
            return self.sim.stats()
        return self._shard.merged_sim_stats()

    # -- nodes ------------------------------------------------------------------

    def add_host(self, name: str) -> Host:
        return self._add_node(Host(self.sim, name))

    def add_router(self, name: str) -> Router:
        return self._add_node(Router(self.sim, name))

    def _add_node(self, node: Node) -> Node:
        if node.name in self._by_name:
            raise ValueError(f"duplicate node name {node.name!r}")
        self.nodes.append(node)
        self._by_name[node.name] = node
        node.obs = self.obs
        self.obs.metrics.register(f"node.{node.name}", node.stats_dict)
        drops = self.obs.metrics.counter("drops_total")

        def on_drop(packet: "Packet", reason: str) -> None:
            drops.inc()
            self.obs.events.emit(
                "drop", node=node.name, uid=packet.uid,
                src=str(packet.ip.src), dst=str(packet.ip.dst),
                reason=reason, site="node")

        node.drop_taps.append(on_drop)
        return node

    def __getitem__(self, name: str) -> Node:
        return self._by_name[name]

    # -- media ------------------------------------------------------------------

    def link(self, a: Node, b: Node, bandwidth: float = 100e6,
             latency: float = 0.0005, queue_limit: int = 64,
             loss_rate: float = 0.0) -> Link:
        """Connect two nodes with a point-to-point link."""
        link = Link(self.sim, bandwidth_bps=bandwidth, latency=latency,
                    queue_limit=queue_limit, loss_rate=loss_rate,
                    name=f"{a.name}--{b.name}")
        subnet = self._alloc.new_subnet()
        a.add_interface(link, self._alloc.new_host(subnet))
        b.add_interface(link, self._alloc.new_host(subnet))
        self._register_medium(link)
        return link

    def segment(self, name: str, bandwidth: float = 10e6,
                latency: float = 0.0002, queue_limit: int = 128,
                loss_rate: float = 0.0) -> Segment:
        """Create a shared segment; attach nodes with :meth:`attach`."""
        seg = Segment(self.sim, bandwidth_bps=bandwidth, latency=latency,
                      queue_limit=queue_limit, loss_rate=loss_rate,
                      name=name)
        seg._subnet = self._alloc.new_subnet()  # type: ignore[attr-defined]
        self._register_medium(seg)
        return seg

    def attach(self, node: Node, seg: Segment) -> None:
        addr = self._alloc.new_host(seg._subnet)  # type: ignore[attr-defined]
        node.add_interface(seg, addr)

    def _register_medium(self, medium: Link | Segment) -> None:
        self.media.append(medium)
        self.obs.metrics.register(f"link.{medium.name}",
                                  medium.stats_dict)
        drops = self.obs.metrics.counter("drops_total")

        def on_drop(packet: "Packet", sender: "Interface",
                    reason: str) -> None:
            drops.inc()
            self.obs.events.emit(
                "drop", node=sender.node.name, uid=packet.uid,
                src=str(packet.ip.src), dst=str(packet.ip.dst),
                reason=reason, site=medium.name or "link")

        medium.add_drop_tap(on_drop)

    # -- services ----------------------------------------------------------------

    def udp(self, node: Node) -> UdpStack:
        """The node's UDP stack (created on first use)."""
        if not hasattr(node, "_udp_stack"):
            node._udp_stack = UdpStack(node)  # type: ignore[attr-defined]
        return node._udp_stack  # type: ignore[attr-defined]

    def tcp(self, node: Node) -> TcpStack:
        """The node's TCP stack (created on first use)."""
        if not hasattr(node, "_tcp_stack"):
            node._tcp_stack = TcpStack(node)  # type: ignore[attr-defined]
        return node._tcp_stack  # type: ignore[attr-defined]

    @property
    def faults(self) -> "FaultController":
        """The network's fault injector (created on first use)."""
        if not hasattr(self, "_faults"):
            from .faults import FaultController

            self._faults = FaultController(self)
        return self._faults

    # -- finalisation ---------------------------------------------------------------

    def finalize(self, *, compute_routes: bool = True) -> None:
        """Compute unicast routes and, when sharded, partition the
        topology; call after all media are wired.

        ``compute_routes=False`` skips the all-pairs shortest-path
        computation — web-scale topologies (the 10k-node scale bench)
        install their routes structurally instead, since all-pairs BFS
        is quadratic in nodes.
        """
        if compute_routes:
            _compute_routes(self.nodes)
        if self.shard_segments > 1:
            from .shard import ShardRunner, build_plan

            plan = build_plan(self, self.shard_segments, self._shard_of)
            self._shard = ShardRunner(self, plan)
        self._finalized = True

    def multicast_group(self, group: str | HostAddr, source: Node,
                        receivers: list[Node]) -> HostAddr:
        """Install a multicast tree for ``group`` rooted at ``source``."""
        if isinstance(group, str):
            group = HostAddr.parse(group)
        GroupManager(self.nodes).setup_group(group, source, receivers)
        return group

    def run(self, until: float | None = None, *,
            max_events: int | None = None) -> None:
        """Run the network's event loop(s) — the same ``until`` /
        ``max_events`` contract as :meth:`Simulator.run
        <repro.net.sim.Simulator.run>`, which this delegates to
        (serial) or drives per segment through the conservative window
        protocol (sharded)."""
        if not self._finalized:
            raise RuntimeError("call finalize() before running")
        if self._shard is not None:
            self._shard.run(until=until, max_events=max_events)
        else:
            self.sim.run(until=until, max_events=max_events)

    @property
    def shard_plan(self) -> "ShardPlan | None":
        """The partition in force (None when running serially)."""
        return self._shard.plan if self._shard is not None else None

    def metrics_snapshot(self,
                         include_global: bool = True) -> dict[str, object]:
        """Every metric of this network, flattened to
        ``{dotted.name: value}`` — per-node and per-link counters, the
        scheduler's health, event-log totals, and (by default) the
        process-wide :data:`repro.obs.GLOBAL` scope's JIT / cache /
        verifier instruments under a ``global.`` prefix."""
        snap = self.obs.snapshot()
        if include_global:
            from ..obs import GLOBAL

            for key, value in GLOBAL.snapshot().items():
                snap[f"global.{key}"] = value
        return snap

    @property
    def now(self) -> float:
        return self.sim.now
