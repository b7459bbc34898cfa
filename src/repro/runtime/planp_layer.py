"""The IP/PLAN-P layer of a node (paper figure 1).

One instance per node holds the downloaded program, its execution engine
(interpreter or JIT), the shared protocol state and per-channel states,
and implements the :class:`ExecutionContext` primitives against the node.

Dispatch rules (paper §2 and §2.3):

* a packet tagged with a user-defined channel name runs that channel;
* an untagged packet runs the first ``network`` overload whose declared
  packet type matches the wire packet;
* unmatched packets fall through to standard IP processing.

Classification, run grouping and containment come from the dispatch
core (:mod:`repro.runtime.dispatch`), which the differential fuzz
oracle drives too.  The match table is built at install time, so
classifying a packet is one dict lookup plus a length check — and the
hit found in :meth:`PlanPLayer.wants` is carried into
:meth:`PlanPLayer.process`, so each packet is matched exactly once.
This layer adapts the core's outcomes to the node: stats, ``error``
events, the circuit-breaker feed and the standard-IP fallback.

A verified program cannot raise at run time on any *delivered* path, but
the layer still guards: if a channel invocation fails — including a
decoder choking on a truncated or garbage payload, or an emission that
cannot be encoded — the packet falls back to standard processing and the
error is counted — an unverified (privileged) program must not take the
node down.

The layer also carries the hooks of the ASP lifecycle manager
(:mod:`repro.runtime.lifecycle`): a ``quarantined`` gate that reverts
the node to standard IP processing while an error-budget circuit
breaker is open, per-packet success/error callbacks feeding that
breaker, and :meth:`snapshot_program` / :meth:`restore_program` so a
rollback can reinstate the previous generation *with* its protocol and
channel state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..interp.values import default_value
from ..jit.pipeline import Engine, LoadedProgram, load_program
from ..lang import ast
from ..net.addresses import HostAddr
from ..net.node import Interface, Node
from ..net.packet import Packet
from ..net.sim import SerialResource
from ..obs.metrics import Histogram
from . import codec, dispatch

if TYPE_CHECKING:
    from .lifecycle import NodeLifecycle


@dataclass
class PlanPStats:
    packets_processed: int = 0
    packets_emitted: int = 0
    packets_delivered: int = 0
    packets_dropped: int = 0
    runtime_errors: int = 0
    #: dispatch decisions answered by the precomputed match table
    fastpath_dispatches: int = 0
    #: tier-3 batch executions (same-entry runs of two or more packets
    #: folded through one specialized loop)
    fastpath_batches: int = 0
    #: packets that went through those batch executions
    batched_packets: int = 0


@dataclass
class ProgramSnapshot:
    """A program plus its live state, captured for rollback.

    The lifecycle manager snapshots the running generation before a new
    one replaces it; :meth:`PlanPLayer.restore_program` reinstates the
    program *and* the protocol/channel state it had accumulated —
    rollback does not reset a restored protocol to its initial state.
    """

    loaded: LoadedProgram
    protocol_state: object
    channel_states: dict[int, object] = field(default_factory=dict)


#: missing-channel-state sentinel (``None`` is a legal state value)
_NO_STATE = object()


class PlanPLayer:
    """The extensible packet-processing layer of one node."""

    def __init__(self, node: Node, promiscuous: bool = False):
        self.node = node
        node.planp = self
        #: promiscuous layers also see traffic not addressed to the node
        #: (hosts only; the MPEG capture ASP needs this, paper §3.3)
        self.promiscuous = promiscuous
        self.loaded: LoadedProgram | None = None
        self.engine: Engine | None = None
        self.protocol_state: object = None
        self.channel_states: dict[int, object] = {}
        self.stats = PlanPStats()
        self.console: list[str] = []
        #: content digests of every program installed on this layer, in
        #: install order (the deployment manifest; survives uninstall
        #: and node crashes, so recovery can check what *should* run)
        self.manifest: list[str] = []
        #: per-packet execution cost charged to the node (0 = free);
        #: models the CPU the paper's gateway burns per packet
        self.cpu = SerialResource(node.sim)
        #: interface/packet being processed (passthrough re-emissions of
        #: the unchanged packet must not reflect back out of the arrival
        #: interface; new or modified packets route normally)
        self._arrival_iface: Interface | None = None
        self._arrival_packet: Packet | None = None
        #: the dispatch core's match table (empty when nothing is
        #: installed)
        self._dispatch: dispatch.Table = {}
        #: the match computed by wants(), carried into process() so a
        #: packet is classified exactly once: (packet uid, hit | None)
        self._carry: tuple[int, tuple | None] | None = None
        #: tier-3 batch drain: up to this many packets queued during one
        #: scheduler activation run through a single specialized batch
        #: loop (0 disables; routers default it on via Node.batch_size)
        self.batch_size = int(getattr(node, "batch_size", 0) or 0)
        #: packets enqueued during the current event, drained at its end
        self._pending: list[tuple[Packet, Interface | None, tuple]] = []
        self._drain_scheduled = False
        #: the chunk being batch-executed (for per-row passthrough
        #: exclusion) and the row offset of the current sub-batch
        self._batch_chunk: list | None = None
        self._batch_base = 0
        #: row index the engine is currently executing within the
        #: sub-batch (engines assign ``ctx._row`` before each row) and
        #: the chunk row that last emitted or delivered — together they
        #: reproduce the serial path's "did the failed invocation
        #: already emit?" check per row
        self._row = -1
        self._last_emit_row = -1
        self._batch_hist: Histogram | None = None
        #: opt-in per-packet processing-time histogram (ms); ``None``
        #: keeps the hot path at a single truthiness check
        self.profile: Histogram | None = None
        #: circuit-breaker gate: while True the layer matches nothing
        #: and every packet takes standard IP processing.  Installing a
        #: program lifts the gate (the quarantined program is gone).
        self.quarantined = False
        #: the node's lifecycle handle (set by
        #: :meth:`repro.runtime.lifecycle.LifecycleManager.manage`);
        #: ``None`` keeps the packet path at one attribute check
        self.lifecycle: "NodeLifecycle | None" = None

    def enable_profiling(self) -> Histogram:
        """Time every channel invocation into the node network's
        ``asp.process_ms`` histogram (or a private one when the node is
        not part of a :class:`~repro.net.topology.Network`)."""
        if self.profile is None:
            obs = self.node.obs
            if obs is not None:
                self.profile = obs.metrics.histogram("asp.process_ms")
            else:
                self.profile = Histogram("asp.process_ms")
        return self.profile

    # -- program installation ---------------------------------------------------

    def install(self, source: str, *, backend: str = "closure",
                verify: bool = True, source_name: str = "") -> LoadedProgram:
        """Download a program: parse, type check, verify, compile.

        ``verify=False`` is the authenticated-privileged-user path the
        paper reserves for protocols the analyses cannot prove.
        """
        loaded = load_program(source, backend=backend, verify=verify,
                              ctx=self,
                              source_name=source_name or
                              f"<asp@{self.node.name}>")
        self.install_loaded(loaded)
        return loaded

    def install_loaded(self, loaded: LoadedProgram) -> None:
        if self.lifecycle is not None:
            # Versioned history: snapshot the superseded generation's
            # program + state so a rollback can restore it.
            self.lifecycle.before_install(loaded)
        self.loaded = loaded
        self.engine = loaded.engine
        if loaded.source_sha:
            self.manifest.append(loaded.source_sha)
        # (Re)installation hook: an engine moved from another node must
        # drop node-bound state (the interpreter's cached globals env).
        on_install = getattr(self.engine, "on_install", None)
        if on_install is not None:
            on_install(self)
        channels = loaded.info.all_channels()
        self.protocol_state = default_value(
            channels[0].protocol_state_type)
        self.channel_states = {
            id(decl): self.engine.initial_channel_state(decl, self)
            for decl in channels}
        self._dispatch = dispatch.build_table(channels)
        self._carry = None
        # A fresh install replaces whatever was quarantined.
        self.quarantined = False
        obs = self.node.obs
        if obs is not None:
            obs.events.emit("deploy", node=self.node.name,
                            action="install",
                            sha=loaded.source_sha or "",
                            engine=type(self.engine).__name__)
        if self.lifecycle is not None:
            self.lifecycle.on_install(loaded)

    @property
    def current_sha(self) -> str | None:
        """Digest of the running program (None when nothing is loaded)."""
        return self.loaded.source_sha if self.loaded is not None else None

    def uninstall(self) -> None:
        """Remove the program — and every trace of its run-time state
        (protocol state, per-channel states, the match table), so a
        later reinstall starts from a clean slate."""
        self.loaded = None
        self.engine = None
        self.protocol_state = None
        self.channel_states = {}
        self._dispatch = {}
        self._carry = None

    # -- lifecycle support (rollback with state) ---------------------------------

    def snapshot_program(self) -> ProgramSnapshot | None:
        """Capture the running program plus its live protocol/channel
        state (``None`` when nothing is installed)."""
        if self.loaded is None:
            return None
        return ProgramSnapshot(loaded=self.loaded,
                               protocol_state=self.protocol_state,
                               channel_states=dict(self.channel_states))

    def restore_program(self, snap: ProgramSnapshot) -> None:
        """Reinstate a snapshotted generation *with* its state.

        The rollback path of :mod:`repro.runtime.lifecycle`: unlike
        :meth:`install_loaded`, the protocol and channel states come
        back exactly as the generation left them.  Lifecycle hooks are
        *not* re-entered — the manager that restores also bookkeeps.
        """
        self.loaded = snap.loaded
        self.engine = snap.loaded.engine
        on_install = getattr(self.engine, "on_install", None)
        if on_install is not None:
            on_install(self)
        self.protocol_state = snap.protocol_state
        self.channel_states = dict(snap.channel_states)
        self._dispatch = dispatch.build_table(
            snap.loaded.info.all_channels())
        self._carry = None
        self.quarantined = False
        if snap.loaded.source_sha:
            self.manifest.append(snap.loaded.source_sha)
        obs = self.node.obs
        if obs is not None:
            obs.events.emit("deploy", node=self.node.name,
                            action="restore",
                            sha=snap.loaded.source_sha or "",
                            engine=type(self.engine).__name__)

    # -- dispatch -----------------------------------------------------------------

    def _lookup(self, packet: Packet) -> tuple | None:
        """Classify a packet once: ``(decl, decode, plan)`` or None —
        :func:`repro.runtime.dispatch.classify`, counting the packets
        whose table key has candidate overloads."""
        hits = self._dispatch.get(
            (packet.channel, packet.transport.__class__))
        if not hits:
            return None
        self.stats.fastpath_dispatches += 1
        return dispatch.admit(hits, len(packet.payload))

    def wants(self, packet: Packet, iface: Interface | None) -> bool:
        if self.loaded is None or self.quarantined:
            return False
        hit = self._lookup(packet)
        self._carry = (packet.uid, hit)
        return hit is not None

    def process(self, packet: Packet, iface: Interface | None) -> None:
        """Run the matching channel on an arriving packet (through the
        node's CPU model, if one is configured).

        Reuses the match :meth:`wants` just computed for this packet, so
        the wants()/process() pair classifies it exactly once.
        """
        carry = self._carry
        if carry is not None and carry[0] == packet.uid:
            hit = carry[1]
            self._carry = None
        else:
            hit = self._lookup(packet)
        if self.cpu.per_item_s > 0:
            self.cpu.submit(lambda: self._process_now(packet, iface, hit))
            return
        if (self.batch_size > 1 and hit is not None
                and self.profile is None):
            # Tier 3: defer to the end of the current event, so several
            # packets delivered by one scheduler activation coalesce
            # into same-entry runs.  Profiling stays per-packet.
            self._pending.append((packet, iface, hit))
            if not self._drain_scheduled:
                self._drain_scheduled = True
                self.node.sim.call_soon(self._drain_batch)
            return
        self._process_now(packet, iface, hit)

    # -- tier 3: batched execution -------------------------------------------------

    def _drain_batch(self) -> None:
        """Run everything enqueued during the event that just finished,
        grouped by the dispatch core's rule (maximal same-hit runs,
        capped at ``batch_size``): runs go through the engine's batch
        loop, singletons through the per-packet path.  Packet order —
        and therefore every emission's scheduling order — is exactly
        the enqueue order."""
        self._drain_scheduled = False
        pending = self._pending
        if not pending:
            return
        self._pending = []
        for i, j in dispatch.runs(pending, self.batch_size):
            if j - i == 1:
                packet, iface, hit = pending[i]
                self._process_now(packet, iface, hit)
            else:
                self._run_batch(pending[i:j])

    def _batch_histogram(self) -> Histogram | None:
        hist = self._batch_hist
        if hist is None:
            obs = self.node.obs
            if obs is None:
                return None
            hist = self._batch_hist = obs.metrics.histogram(
                f"node.{self.node.name}.planp.batch_size")
        return hist

    def _run_batch(self, chunk: list) -> None:
        """Execute one same-entry run (two or more packets) through
        :func:`repro.runtime.dispatch.run_batch`, accounting each step
        exactly like the per-packet path would:

        * committed rows count as processed and feed the breaker;
        * a contained faulted row is ``_contain``\\ ed and falls back to
          standard IP unless that row already emitted; if it tripped
          the breaker, the rows behind it revert to standard IP, as
          they would have failed ``wants()`` serially;
        * a batch decode failure replays the rest per packet.
        """
        decl, _decode, plan = chunk[0][2]
        engine = self.engine
        state = self.channel_states.get(id(decl), _NO_STATE)
        if engine is None or state is _NO_STATE:
            # Stale classification (program removed or replaced between
            # wants() and the drain): standard treatment, like the
            # per-packet stale path.
            for packet, iface, _hit in chunk:
                self.node.standard_processing(packet, iface)
            return
        self.stats.fastpath_batches += 1
        self.stats.batched_packets += len(chunk)
        hist = self._batch_histogram()
        if hist is not None:
            hist.observe(len(chunk))
        lifecycle = self.lifecycle
        self._batch_chunk = chunk
        self._batch_base = 0
        self._last_emit_row = -1
        steps = dispatch.run_batch(engine, decl, plan, self.protocol_state,
                                   state, [c[0] for c in chunk], self)
        try:
            for step in steps:
                kind = step.kind
                if kind is dispatch.REPLAY:
                    for packet, iface, hit in chunk[step.start:]:
                        self._process_now(packet, iface, hit)
                    return
                rows = step.end - step.start
                self.stats.packets_processed += rows
                self.protocol_state = step.ps
                self.channel_states[id(decl)] = step.ss
                if lifecycle is not None:
                    for _ in range(rows):
                        lifecycle.on_packet_ok()
                if kind is dispatch.OK:
                    continue
                row = step.end
                self._batch_base = row + 1  # where the engine resumes
                self.stats.packets_processed += 1
                self._contain(decl, step.err, reason=dispatch.RUNTIME)
                if self._last_emit_row != row:
                    packet, iface, _hit = chunk[row]
                    self.node.standard_processing(packet, iface)
                if self.quarantined and row + 1 < len(chunk):
                    # Undo the node-level asp_handled accounting done
                    # at enqueue time for the rows behind the trip.
                    for packet, iface, _hit in chunk[row + 1:]:
                        self.node.stats.asp_handled -= 1
                        self.node.standard_processing(packet, iface)
                    return
        finally:
            self._batch_chunk = None
            self._row = -1

    def _process_now(self, packet: Packet, iface: Interface | None,
                     hit: tuple | None) -> None:
        if hit is None:  # pragma: no cover - wants() gates this
            self.node.standard_processing(packet, iface)
            return
        decl, decode, _plan = hit
        engine = self.engine
        state = self.channel_states.get(id(decl), _NO_STATE)
        if engine is None or state is _NO_STATE:
            # Stale classification: the program was uninstalled,
            # quarantined, or replaced between wants() and a
            # CPU-deferred execution.  Not an error — the packet simply
            # predates the change; give it standard treatment.
            self.node.standard_processing(packet, iface)
            return
        self._arrival_iface = iface
        self._arrival_packet = packet
        emitted_before = (self.stats.packets_emitted
                          + self.stats.packets_delivered)
        run = engine.run_channel if self.profile is None \
            else self._profiled_run
        try:
            reason, err, ps, ss = dispatch.run_serial(
                run, decl, decode, self.protocol_state, state, packet, self)
        finally:
            self._arrival_iface = None
            self._arrival_packet = None
        self.stats.packets_processed += 1
        if reason is None:
            self.protocol_state = ps
            self.channel_states[id(decl)] = ss
            if self.lifecycle is not None:
                self.lifecycle.on_packet_ok()
            return
        # Fail open: the node survives and the error is visible in
        # stats.  The packet gets standard treatment unless the failed
        # invocation had already emitted it — falling back would then
        # duplicate it.
        self._contain(decl, err, reason=reason)
        if reason is dispatch.DECODE or (
                self.stats.packets_emitted + self.stats.packets_delivered
                == emitted_before):
            self.node.standard_processing(packet, iface)

    def _profiled_run(self, decl, ps, ss, value, ctx):
        """``engine.run_channel`` timed into :attr:`profile`."""
        with self.profile.time():
            return self.engine.run_channel(decl, ps, ss, value, ctx)

    def _contain(self, decl: ast.ChannelDecl, err: Exception,
                 reason: str) -> None:
        """Account a contained per-packet failure: count it, log it,
        and feed the node's circuit breaker (if one is attached)."""
        self.stats.runtime_errors += 1
        obs = self.node.obs
        if obs is not None:
            obs.events.emit("error", node=self.node.name,
                            where="asp", channel=decl.name,
                            reason=reason, detail=str(err))
        if self.lifecycle is not None:
            self.lifecycle.on_packet_error(reason)

    # -- ExecutionContext implementation ---------------------------------------------

    def emit_remote(self, channel: str, packet_value: tuple) -> None:
        tag = None if channel == "network" else channel
        packet = codec.encode(packet_value, channel=tag,
                              created_at=self.node.sim.now)
        self.stats.packets_emitted += 1
        self._last_emit_row = self._batch_base + self._row
        self.node.ip_send(packet,
                          exclude_iface=self._passthrough_exclusion(packet),
                          from_planp=True)

    def _passthrough_exclusion(self, packet: Packet) -> Interface | None:
        """An unchanged re-emission of the packet being processed (an
        observing ASP's ``OnRemote(network, p)``) must not be sent back
        out of the interface it arrived on — the original transmission
        is already on that wire.  Anything new or modified routes
        normally.  During a batch execution the arrival packet/interface
        of the *current row* apply."""
        orig = self._arrival_packet
        iface = self._arrival_iface
        if orig is None:
            chunk = self._batch_chunk
            if chunk is None:
                return None
            orig, iface, _hit = chunk[self._batch_base + self._row]
        same = (packet.ip.src == orig.ip.src
                and packet.ip.dst == orig.ip.dst
                and packet.transport == orig.transport
                and packet.payload == orig.payload)
        return iface if same else None

    def emit_neighbor(self, channel: str, packet_value: tuple,
                      neighbor: HostAddr) -> None:
        tag = None if channel == "network" else channel
        packet = codec.encode(packet_value, channel=tag,
                              created_at=self.node.sim.now)
        self.stats.packets_emitted += 1
        self._last_emit_row = self._batch_base + self._row
        out = self.node.iface_toward(neighbor)
        if out is not None:
            out.send(packet)

    def deliver(self, packet_value: tuple) -> None:
        packet = codec.encode(packet_value, created_at=self.node.sim.now)
        self.stats.packets_delivered += 1
        self._last_emit_row = self._batch_base + self._row
        self.node.deliver_local(packet)

    def drop(self, packet_value: tuple) -> None:
        self.stats.packets_dropped += 1

    def this_host(self) -> HostAddr:
        return self.node.address

    def time_ms(self) -> int:
        return int(self.node.sim.now * 1000)

    def link_load(self, toward: HostAddr) -> int:
        return self.node.link_load_toward(toward)

    def link_bandwidth(self, toward: HostAddr) -> int:
        return self.node.link_bandwidth_toward(toward)

    def queue_len(self, toward: HostAddr) -> int:
        return self.node.queue_len_toward(toward)

    def random_int(self, bound: int) -> int:
        # Drawn from the node's private stream (not the shared sim.rng)
        # so one node's sequence doesn't depend on unrelated traffic —
        # which is what keeps sharded execution byte-identical.
        return self.node.entropy.randrange(bound) if bound > 0 else 0

    def output(self, text: str) -> None:
        self.console.append(text)
