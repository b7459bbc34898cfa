"""Differential execution oracle.

One (program, stream) pair runs through every engine backend in serial
and batch modes — six traces.  Each drives the PlanPLayer's dispatch
core (:mod:`repro.runtime.dispatch`) — the same classification,
grouping and containment code a router runs — and records its outcomes
per packet:

* ``pass`` for a packet the match table sends to standard IP;
* ``decode`` for a contained decode error (``decode-leak:<err>`` if the
  decoder raised outside the codec error taxonomy);
* ``err:<name>`` for a contained runtime error, which commits nothing;
* the batch mode feeds the whole stream to the core as one router
  drain: unmatched packets pass at once, matched ones run in the
  core's same-hit runs, under its :class:`BatchFault` recovery;
* any *other* exception is an uncontained leak — the thing that would
  take a router down — and is recorded on the trace as ``crash``.

What stays here is oracle-specific: the recording context,
install-time containment, the outcome strings and the :class:`Trace`.

Two traces are equal iff their final protocol state, per-channel
states, per-packet outcome strings, emission streams, console output,
and crash status all agree.  The reference is the interpreter in
serial mode; every disagreement is a :class:`Divergence`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..interp import RecordingContext
from ..interp.values import PlanPList, PlanPTable, default_value
from ..jit import make_engine
from ..lang.errors import PlanPError, PlanPRuntimeError
from ..net.addresses import HostAddr
from ..runtime import codec, dispatch
from .streams import PacketSpec

DEFAULT_BACKENDS = ("interpreter", "closure", "source")
MODES = ("serial", "batch")


def canon(value: object) -> object:
    """A hashable, comparable canonical form of a PLAN-P value.

    :class:`PlanPTable` compares by identity, so tables canonicalize to
    their (capacity, insertion-ordered items); an engine inserting in a
    different order than the interpreter is a real divergence.
    """
    if isinstance(value, PlanPTable):
        return ("table", value.capacity,
                tuple((canon(k), canon(v)) for k, v in value.items()))
    if isinstance(value, PlanPList):
        return ("list", tuple(canon(v) for v in value.items))
    if isinstance(value, tuple):
        return ("tuple",) + tuple(canon(v) for v in value)
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, HostAddr):
        return ("host", value.value)
    return value  # int/str/bytes/headers/UNIT compare structurally


@dataclass(frozen=True)
class Trace:
    """Everything observable about one execution of a stream."""

    ps: object
    states: tuple
    outcomes: tuple
    emissions: tuple
    printed: tuple
    crash: str | None = None

    def diff(self, other: "Trace") -> str | None:
        """The first differing field, human-readably; None if equal."""
        for name in ("crash", "outcomes", "ps", "states", "emissions",
                     "printed"):
            a, b = getattr(self, name), getattr(other, name)
            if a != b:
                return (f"{name}: {_short(a)} != {_short(b)}")
        return None


def _short(value: object, limit: int = 160) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "…"


@dataclass(frozen=True)
class Divergence:
    """One engine/mode disagreeing with the reference trace — or an
    uncontained crash shared by every engine (``backend='*'``)."""

    backend: str
    mode: str
    detail: str


@dataclass
class CompareResult:
    reference: Trace
    divergences: list[Divergence]

    @property
    def ok(self) -> bool:
        return not self.divergences


def _err_name(err: Exception) -> str:
    if isinstance(err, PlanPRuntimeError):
        return err.exception_name
    return type(err).__name__


class _Runner:
    """One trace execution: an engine on a recording context, driven
    through the dispatch core the way a router's PlanP layer drives it."""

    def __init__(self, info, backend: str, *, seed: int = 7,
                 batch_size: int = 4):
        self.batch_size = batch_size
        self.ctx = RecordingContext(seed=seed)
        self.crash: str | None = None
        self.outcomes: list[str] = []
        self.channels = info.all_channels()
        self.table = dispatch.build_table(self.channels)
        self.ps = default_value(self.channels[0].protocol_state_type)
        self.states: dict[int, object] = {}
        self.engine = None
        try:
            self.engine = make_engine(info, backend, RecordingContext())
            for decl in self.channels:
                self.states[id(decl)] = (
                    self.engine.initial_channel_state(decl, self.ctx))
        except PlanPError as err:
            self.outcomes.append(f"install:{_err_name(err)}")
        except Exception as err:  # install-time leak
            self.crash = f"install:{type(err).__name__}"

    def _step(self, packet, hit) -> str:
        """One packet through :func:`dispatch.run_serial`; its outcome."""
        decl, decode, _plan = hit
        try:
            reason, err, ps, ss = dispatch.run_serial(
                self.engine.run_channel, decl, decode, self.ps,
                self.states[id(decl)], packet, self.ctx)
        except Exception as err:
            self.crash = type(err).__name__
            return f"leak:{self.crash}"
        if reason is None:
            self.ps = ps
            self.states[id(decl)] = ss
            return "ok"
        if reason is dispatch.DECODE:
            if isinstance(err, codec.CodecError):
                return "decode"
            # The layer contains this too, but it violates the codec
            # error taxonomy — surface it loudly.
            return f"decode-leak:{type(err).__name__}"
        return f"err:{_err_name(err)}"

    def run_serial(self, packets) -> None:
        for packet in packets:
            if self.crash:
                return
            hit = dispatch.classify(self.table, packet)
            self.outcomes.append(
                "pass" if hit is None else self._step(packet, hit))

    def run_batch(self, packets) -> None:
        """The whole stream arrives in one event, as a router's batch
        drain sees it: unmatched packets pass to standard IP at once,
        matched ones drain in the core's same-hit runs."""
        slots: list[str | None] = ["pass"] * len(packets)
        pending = []
        for i, packet in enumerate(packets):
            hit = dispatch.classify(self.table, packet)
            if hit is not None:
                slots[i] = None
                pending.append((i, packet, hit))
        for i, j in dispatch.runs(pending, self.batch_size):
            if self.crash:
                break
            if j - i == 1:
                index, packet, hit = pending[i]
                slots[index] = self._step(packet, hit)
            else:
                self._run_batch(pending[i:j], slots)
        if self.crash:
            # Serial execution stops at the crash; so does the trace.
            del slots[slots.index(f"leak:{self.crash}") + 1:]
        self.outcomes.extend(slots)

    def _run_batch(self, run: list, slots: list) -> None:
        decl, _decode, plan = run[0][2]
        steps = dispatch.run_batch(self.engine, decl, plan, self.ps,
                                   self.states[id(decl)],
                                   [r[1] for r in run], self.ctx)
        done = 0
        try:
            for step in steps:
                if step.kind is dispatch.REPLAY:
                    for index, packet, hit in run[step.start:]:
                        if self.crash:
                            return
                        slots[index] = self._step(packet, hit)
                    return
                for index, _packet, _hit in run[step.start:step.end]:
                    slots[index] = "ok"
                self.ps = step.ps
                self.states[id(decl)] = step.ss
                done = step.end
                if step.kind is dispatch.FAULT:
                    slots[run[done][0]] = f"err:{_err_name(step.err)}"
                    done += 1
        except Exception as err:
            self.crash = type(err).__name__
            slots[run[done][0]] = f"leak:{self.crash}"

    def trace(self) -> Trace:
        emissions = tuple(
            (e.kind, e.channel, canon(e.packet_value),
             e.neighbor.value if e.neighbor is not None else None)
            for e in self.ctx.emissions)
        return Trace(ps=canon(self.ps),
                     states=tuple(canon(self.states[id(d)])
                                  for d in self.channels
                                  if id(d) in self.states),
                     outcomes=tuple(self.outcomes),
                     emissions=emissions,
                     printed=tuple(self.ctx.printed),
                     crash=self.crash)


def run_trace(info, backend: str, mode: str, specs: list[PacketSpec],
              *, batch_size: int = 4, seed: int = 7) -> Trace:
    """Execute one stream on one backend in one mode."""
    runner = _Runner(info, backend, seed=seed, batch_size=batch_size)
    packets = [s.to_packet() for s in specs]
    if not runner.crash and not runner.outcomes:
        if mode == "batch":
            runner.run_batch(packets)
        else:
            runner.run_serial(packets)
    return runner.trace()


def compare_all(info, specs: list[PacketSpec], *,
                backends=DEFAULT_BACKENDS, batch_size: int = 4,
                seed: int = 7) -> CompareResult:
    """Run the full engine×mode matrix and collect divergences.

    An uncontained crash is reported even when every engine agrees on
    it (``backend='*'``): unanimity does not make a containment leak
    acceptable.
    """
    reference = run_trace(info, backends[0], "serial", specs,
                          batch_size=batch_size, seed=seed)
    divergences: list[Divergence] = []
    for backend in backends:
        for mode in MODES:
            if backend == backends[0] and mode == "serial":
                continue
            trace = run_trace(info, backend, mode, specs,
                              batch_size=batch_size, seed=seed)
            detail = reference.diff(trace)
            if detail is not None:
                divergences.append(Divergence(backend, mode, detail))
    if reference.crash and not divergences:
        divergences.append(Divergence(
            "*", "*", f"uncontained crash: {reference.crash}"))
    return CompareResult(reference=reference, divergences=divergences)
