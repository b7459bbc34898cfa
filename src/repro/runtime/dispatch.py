"""The PLAN-P dispatch core: classification, grouping and containment.

The one definition of the paper's dispatch rules (§2, §2.3) — a tagged
packet runs its channel, an untagged one runs the first matching
``network`` overload, anything else gets standard IP — and of how a
channel invocation's failures are contained.  It is pure and node-free;
the node layer (:class:`~repro.runtime.planp_layer.PlanPLayer`), the
fuzz oracle and the wire-pair exchange all drive it, so what the fuzzer
checks is what a router runs.

A decode failure is contained whatever it raises (decoding is driven
by wire data, so it is the packet's fault); a channel body's
``PlanPError``/``CodecError`` is contained; any other error propagates.
A caller counts a packet as processed when the core reports an outcome
for it, so a packet whose error propagates is not counted, in either
mode.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from ..jit.batching import BatchFault, run_rows
from ..lang import ast
from ..lang import types as T
from ..lang.errors import PlanPError
from ..net.packet import Packet
from . import codec

#: channel-body errors contained per packet (anything else propagates)
CONTAINED = (PlanPError, codec.CodecError)

#: outcome reasons of a contained failure (``None`` means ok)
DECODE = "decode"
RUNTIME = "runtime"

#: :class:`Step` kinds of :func:`run_batch`
OK = "ok"
FAULT = "fault"
REPLAY = "replay"


#: ``(channel tag, transport class) -> hits`` in declaration order; a
#: hit is one overload's ``(decl, decode, plan)``, built once per
#: install and handed out for every packet the overload admits, so runs
#: group by identity with no per-packet allocation
Table = dict[tuple[str | None, type], list[tuple]]


def build_table(channels: list[ast.ChannelDecl]) -> Table:
    """Precompute the packet-signature match table (once per install,
    so per-packet dispatch does no structural matching).  Channels with
    a malformed layout never match."""
    table: Table = {}
    for decl in channels:
        pkt_type = decl.packet_type
        if not isinstance(pkt_type, T.TupleType):
            continue
        # Looked up on the module at call time: a tracer may swap
        # ``codec.dispatch_plan`` for one handing out timed decoders.
        plan = codec.dispatch_plan(pkt_type)
        if plan is None:
            continue
        tag = None if decl.name == "network" else decl.name
        table.setdefault((tag, plan.transport_cls),
                         []).append((decl, plan.decode, plan))
    return table


def admit(hits: list[tuple], payload_len: int) -> tuple | None:
    """The first hit whose plan admits ``payload_len``, or None."""
    for hit in hits:
        if hit[2].admits(payload_len):
            return hit
    return None


def classify(table: Table, packet: Packet) -> tuple | None:
    """``(decl, decode, plan)`` of the overload that runs ``packet``, or
    None for standard IP."""
    hits = table.get((packet.channel, packet.transport.__class__))
    if hits:
        return admit(hits, len(packet.payload))
    return None


def structural_match(info, packet: Packet) -> ast.ChannelDecl | None:
    """The reference matcher: walk the declarations and match each
    packet type structurally.  :func:`classify` must agree with it."""
    name = "network" if packet.channel is None else packet.channel
    for decl in info.channel_overloads(name):
        pkt_type = decl.packet_type
        if isinstance(pkt_type, T.TupleType) and \
                codec.matches(packet, pkt_type):
            return decl
    return None


def runs(items: list, limit: int) -> Iterator[tuple[int, int]]:
    """The grouping rule: ``(i, j)`` spans of maximal runs of items
    whose last element is the same hit object, each at most ``limit``
    long (a limit below 2 makes every item its own run)."""
    n = len(items)
    i = 0
    while i < n:
        hit = items[i][-1]
        end = i + limit
        if end > n:
            end = n
        j = i + 1
        while j < end and items[j][-1] is hit:
            j += 1
        yield i, j
        i = j


def run_serial(run_channel, decl: ast.ChannelDecl, decode, ps, ss,
               packet: Packet, ctx) -> tuple:
    """Run one packet: ``(reason, err, ps, ss)``.

    ``reason`` is None on success (``ps``/``ss`` are the new states),
    :data:`DECODE` or :data:`RUNTIME` for a contained failure (the
    states come back unchanged).  Any other channel error propagates.
    """
    try:
        value = decode(packet)
    except Exception as err:
        return DECODE, err, ps, ss
    try:
        ps2, ss2 = run_channel(decl, ps, ss, value, ctx)
    except CONTAINED as err:
        return RUNTIME, err, ps, ss
    return None, None, ps2, ss2


class Step(NamedTuple):
    """One event of :func:`run_batch`.

    * ``OK``: rows ``[start, end)`` committed, leaving ``ps``/``ss``;
    * ``FAULT``: rows ``[start, end)`` committed, leaving ``ps``/``ss``,
      and row ``end`` raised the contained ``err`` — it committed
      nothing; the rest resumes at row ``end + 1`` in a fresh sub-batch
      unless the caller stops iterating;
    * ``REPLAY``: batch decode or setup failed before row ``start`` ran;
      the caller runs rows ``[start, end)`` one by one, which locates
      and contains the malformed packet(s).
    """

    kind: str
    start: int
    end: int
    ps: object = None
    ss: object = None
    err: BaseException | None = None


def run_batch(engine, decl: ast.ChannelDecl, plan: codec.DispatchPlan,
              ps, ss, packets: list[Packet], ctx) -> Iterator[Step]:
    """Run one same-hit run of packets through the engine's batch entry
    point (or the generic row loop), reporting progress as steps.

    No struct-of-arrays state survives a fault: each resume decodes a
    fresh sub-batch.  An uncontained row error yields the committed
    prefix as an ``OK`` step and then propagates.
    """
    run = getattr(engine, "run_channel_batch", None)
    n = len(packets)
    start = 0
    while start < n:
        batch = plan.batch_decoder().batch(
            packets[start:] if start else packets)
        try:
            if run is not None:
                ps, ss = run(decl, ps, ss, batch, ctx)
            else:
                ps, ss = run_rows(engine.run_channel, decl, ps, ss,
                                  batch, ctx)
        except BatchFault as fault:
            row = start + fault.index
            ps, ss, err = fault.ps, fault.ss, fault.err
            if not isinstance(err, CONTAINED):
                yield Step(OK, start, row, ps, ss)
                raise err
            yield Step(FAULT, start, row, ps, ss, err)
            start = row + 1
        except Exception:
            yield Step(REPLAY, start, n)
            return
        else:
            yield Step(OK, start, n, ps, ss)
            return
