"""Deterministic discrete-event simulation engine.

All experiments run on this engine: time is simulated seconds, events
are callbacks ordered by a total **event key**, and every source of
randomness draws from seeded streams, so runs are exactly reproducible
— a substitute for the paper's LAN testbed that trades absolute timing
fidelity for determinism (see DESIGN.md §2 and §13).

The scheduling contract (formalized for the sharded core, DESIGN §13)
----------------------------------------------------------------------

Events are ordered by ``EventKey = (time, lp, lseq)``:

* ``time`` — absolute simulated seconds;
* ``lp`` — the id of the :class:`SchedulingContext` the event was
  scheduled under (contexts are minted in construction order, so ids
  are stable across runs *and* across execution modes);
* ``lseq`` — that context's monotone counter.

``Simulator.schedule`` / ``call_soon`` are the **only** ways to enqueue
work.  Each ``schedule`` call is attributed to a context: the one
passed explicitly, else the *ambient* context (the context of the event
currently being dispatched), else the simulator's root context.  Because
a context's counter is only ever advanced by the entity that owns it,
event keys are a pure function of (topology, seed) — independent of how
event processing is physically interleaved.  That is the property the
sharded conservative-parallel runner (:mod:`repro.net.shard`) relies
on: a boundary-crossing event computed in one segment carries its
``(lp, lseq)`` across the cut and lands in the remote queue in exactly
the position it would have occupied in a single-queue run.

Randomness follows the same discipline: :meth:`Simulator.entropy`
derives an independent seeded stream per name, so an entity's draws do
not depend on unrelated traffic (and therefore not on sharding).
``Simulator.rng`` remains the root stream for setup-time draws.
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Callable

#: The total-order key events are sorted by; see the module docstring.
EventKey = tuple[float, int, int]

#: ``lp`` of every simulator's root context.  Shared deliberately:
#: root events on different segment simulators are never compared with
#: each other, and a network-wide root context keeps setup-time keys
#: identical between serial and sharded execution.
ROOT_LP = 0

#: ``lp`` reserved for nothing — used to build exclusive horizon keys
#: (``(H, BEFORE_ANY_LP, 0)`` sorts before every real event at ``H``).
BEFORE_ANY_LP = -1


class SchedulingContext:
    """One scheduling domain: a node, a transmit queue, a periodic
    task, the controller.  Owns an ``lp`` id, a monotone ``lseq``
    counter, and a derived entropy stream.

    Contexts carry no simulator reference — they are pure identity.
    This is what lets the sharded topology rewire entities onto
    per-segment simulators without touching their keys.
    """

    __slots__ = ("name", "lp", "_lseq", "_entropy", "_seed")

    def __init__(self, name: str, lp: int, seed: Any = 0,
                 entropy: random.Random | None = None):
        self.name = name
        self.lp = lp
        self._lseq = 0
        self._seed = seed
        self._entropy = entropy

    def next_lseq(self) -> int:
        n = self._lseq
        self._lseq = n + 1
        return n

    @property
    def entropy(self) -> random.Random:
        """This context's private seeded stream (lazy).  Derived from
        ``(seed, name)`` so it is identical in serial and sharded
        execution regardless of event interleaving."""
        if self._entropy is None:
            self._entropy = derive_rng(self._seed, self.name)
        return self._entropy

    def __repr__(self) -> str:
        return f"SchedulingContext({self.name!r}, lp={self.lp})"


def derive_rng(seed: Any, name: str) -> random.Random:
    """An independent deterministic stream for ``(seed, name)``.

    String seeding uses CPython's sha512 path, which is stable across
    processes (unlike ``hash``), so worker processes derive identical
    streams."""
    return random.Random(f"{seed}/{name}")


class _Event:
    """One queue entry.  Ordered by ``(time, lp, lseq)``."""

    __slots__ = ("time", "lp", "lseq", "fn", "ctx", "cancelled", "done")

    def __init__(self, time: float, lp: int, lseq: int,
                 fn: Callable[[], None], ctx: SchedulingContext):
        self.time = time
        self.lp = lp
        self.lseq = lseq
        self.fn = fn
        self.ctx = ctx
        #: flagged for lazy deletion
        self.cancelled = False
        #: popped from the queue (ran or was swept); cancelling is a no-op
        self.done = False

    @property
    def key(self) -> EventKey:
        return (self.time, self.lp, self.lseq)

    def __lt__(self, other: "_Event") -> bool:
        return ((self.time, self.lp, self.lseq)
                < (other.time, other.lp, other.lseq))


class EventHandle:
    """Returned by ``schedule``; allows cancelling a pending event."""

    __slots__ = ("_event", "_sim")

    def __init__(self, event: _Event, sim: "Simulator"):
        self._event = event
        self._sim = sim

    def cancel(self) -> None:
        self._sim._cancel(self._event)

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    @property
    def time(self) -> float:
        return self._event.time

    @property
    def key(self) -> EventKey:
        return self._event.key


#: Queues smaller than this are never compacted (the sweep would cost
#: more than the garbage it reclaims).
_COMPACT_MIN_QUEUE = 64


class Simulator:
    """An event loop over simulated time (one segment of it, when
    sharded).

    Cancelled events are deleted lazily: cancelling only flags the entry,
    and the flagged entries are either skipped when popped or swept out
    wholesale once they outnumber the live ones (so long runs that cancel
    many timers — TCP retransmits, periodic tasks — don't accumulate
    garbage in the heap).  Live/cancelled counts are maintained
    incrementally, making :attr:`pending_events` O(1).

    Constructor arguments are keyword-only.  ``lp_alloc`` and ``root``
    let a :class:`~repro.net.topology.Network` share one context-id
    allocator and one root context across all of its segment
    simulators, keeping event keys mode-independent.
    """

    def __init__(self, *, seed: int = 0,
                 lp_alloc: Callable[[], int] | None = None,
                 root: SchedulingContext | None = None):
        self._queue: list[_Event] = []
        self.now = 0.0
        self.seed = seed
        self.rng = random.Random(seed)
        self.events_processed = 0
        self._live = 0
        self._cancelled = 0
        self._microtasks: list[tuple[Callable[[], None],
                                     SchedulingContext]] = []
        self._in_event = False
        self._next_lp = 0
        self._lp_alloc = lp_alloc if lp_alloc is not None else self._own_lp
        self.root = root if root is not None else SchedulingContext(
            "root", ROOT_LP, seed, entropy=self.rng)
        self._current: SchedulingContext = self.root
        self._entropies: dict[str, random.Random] = {}
        #: the key of the event currently being dispatched (None
        #: outside dispatch).  Because keys are a total order identical
        #: across execution modes, observers that record it can merge
        #: per-segment observation streams back into the exact serial
        #: observation order (see tests' delivery-stream hashing).
        self.current_event_key: EventKey | None = None

    def _own_lp(self) -> int:
        self._next_lp += 1
        return self._next_lp

    # -- the formalized entry surface --------------------------------------------

    def context(self, name: str) -> SchedulingContext:
        """Mint a new scheduling context.  Ids come from the simulator's
        allocator (or the owning network's shared allocator), so they
        reflect construction order — which is what makes them stable
        across serial and sharded execution.  The id is folded into the
        context's name so every context gets a distinct entropy stream
        even when callers pass duplicate names."""
        lp = self._lp_alloc()
        return SchedulingContext(f"{name}#{lp}", lp, self.seed)

    def use_context(self, ctx: SchedulingContext) -> SchedulingContext:
        """Swap the ambient scheduling context; returns the previous one
        (restore it in a ``finally``).  ``Node.receive`` re-roots onto
        the receiving node's context here, which keeps a context's
        counter local to one segment even when its packets cross
        segment boundaries."""
        prev = self._current
        self._current = ctx
        return prev

    @property
    def current_context(self) -> SchedulingContext:
        return self._current

    def entropy(self, name: str) -> random.Random:
        """A named derived random stream (memoized).  Entities use this
        instead of the shared :attr:`rng` so their draws are independent
        of event interleaving — the property sharded runs rely on."""
        stream = self._entropies.get(name)
        if stream is None:
            stream = derive_rng(self.seed, name)
            self._entropies[name] = stream
        return stream

    def call_soon(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` after the *current* event's callback returns, at
        the same simulated time, before the next event is popped.

        Microtasks are the batch-drain hook: a node can defer work
        enqueued during one event delivery to the end of that delivery
        (so several packets from one event coalesce) without scheduling
        new events — anything they schedule gets its keys in exactly
        the same order as inline execution, keeping runs byte-identical.
        The ambient context at ``call_soon`` time is captured and
        restored around the microtask.  Outside an event callback
        ``fn`` runs immediately, so direct (non-simulated) calls stay
        synchronous.
        """
        if self._in_event:
            self._microtasks.append((fn, self._current))
        else:
            fn()

    def schedule(self, delay: float, fn: Callable[[], None], *,
                 context: SchedulingContext | None = None) -> EventHandle:
        """Run ``fn`` after ``delay`` simulated seconds.

        The event is attributed to ``context``, else to the ambient
        context (of the event being dispatched), else to the root
        context — see the module docstring for why attribution is part
        of the scheduling contract."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        ctx = context if context is not None else self._current
        event = _Event(self.now + delay, ctx.lp, ctx.next_lseq(), fn, ctx)
        heapq.heappush(self._queue, event)
        self._live += 1
        return EventHandle(event, self)

    def at(self, when: float, fn: Callable[[], None], *,
           context: SchedulingContext | None = None) -> EventHandle:
        """Run ``fn`` at absolute simulated time ``when``."""
        return self.schedule(max(0.0, when - self.now), fn,
                             context=context)

    def post(self, time: float, fn: Callable[[], None], *,
             lp: int, lseq: int,
             ctx: SchedulingContext | None = None) -> EventHandle:
        """Enqueue an event with an **explicit** key — the boundary
        half of the scheduling contract.  The sharded runner uses this
        to inject a cross-segment delivery with the key its sending
        transmit-queue context drew on the far side, so the event sorts
        exactly where a single-queue run would have placed it.

        ``ctx`` is the context the callback will run under (defaults to
        this simulator's root).  ``time`` must not lie in this
        simulator's past.
        """
        if time < self.now:
            raise ValueError(
                f"post at {time} is in the past (now={self.now})")
        event = _Event(time, lp, lseq, fn,
                       ctx if ctx is not None else self.root)
        heapq.heappush(self._queue, event)
        self._live += 1
        return EventHandle(event, self)

    # -- lazy deletion -----------------------------------------------------------

    def _cancel(self, event: _Event) -> None:
        if event.cancelled or event.done:
            return
        event.cancelled = True
        self._live -= 1
        self._cancelled += 1
        if (len(self._queue) >= _COMPACT_MIN_QUEUE
                and self._cancelled * 2 > len(self._queue)):
            self._compact()

    def _compact(self) -> None:
        """Sweep cancelled entries out of the heap and re-heapify."""
        for event in self._queue:
            if event.cancelled:
                event.done = True
        self._queue = [e for e in self._queue if not e.cancelled]
        heapq.heapify(self._queue)
        self._cancelled = 0

    def _pop(self) -> _Event | None:
        """Pop the next live event (skipping cancelled ones), or None."""
        while self._queue:
            event = heapq.heappop(self._queue)
            event.done = True
            if event.cancelled:
                self._cancelled -= 1
                continue
            self._live -= 1
            return event
        return None

    def _peek(self) -> _Event | None:
        """The next live event without popping it (sweeps cancelled
        heads), or None."""
        while self._queue:
            event = self._queue[0]
            if not event.cancelled:
                return event
            heapq.heappop(self._queue)
            event.done = True
            self._cancelled -= 1
        return None

    # -- introspection (the shard runner's horizon inputs) ----------------------

    def next_event_time(self) -> float | None:
        """The timestamp of the next live event, or None when idle."""
        event = self._peek()
        return event.time if event is not None else None

    def next_event_key(self) -> EventKey | None:
        """The full key of the next live event, or None when idle."""
        event = self._peek()
        return event.key if event is not None else None

    # -- randomness helpers -------------------------------------------------------

    def jittered(self, delay: float, frac: float = 0.5, *,
                 entropy: random.Random | None = None) -> float:
        """``delay`` perturbed uniformly by ±``frac`` — retry timers use
        this so synchronized failures don't retransmit in lockstep,
        while runs stay reproducible.  Pass a per-entity ``entropy``
        stream (see :meth:`entropy`) to keep the draw independent of
        unrelated traffic; the default draws from the shared root
        stream (deprecated for entities that can run sharded)."""
        rng = entropy if entropy is not None else self.rng
        return delay * (1.0 + frac * (2.0 * rng.random() - 1.0))

    def every(self, interval: float, fn: Callable[[], None],
              start: float | None = None,
              until: float | None = None) -> "PeriodicTask":
        """Run ``fn`` every ``interval`` seconds until cancelled."""
        return PeriodicTask(self, interval, fn, start=start, until=until)

    # -- the unified run loop -----------------------------------------------------

    def run(self, until: float | None = None, *,
            max_events: int | None = None,
            until_key: EventKey | None = None) -> int:
        """Process events in key order; returns how many ran.

        One documented contract for every caller (experiments,
        :meth:`Topology.run <repro.net.topology.Network.run>`, segment
        workers):

        * ``until`` — process events with ``time <= until`` (inclusive);
          afterwards ``now`` is advanced to exactly ``until`` even if
          the queue drained earlier, so fixed-horizon experiments always
          end at the same clock reading.
        * ``until_key`` — process events with ``key < until_key``
          (exclusive); afterwards ``now`` advances to ``until_key[0]``.
          This is the shard barrier's bound: a window closes *before*
          any event of the next window, at full key precision.
        * ``max_events`` — runaway guard: raise ``RuntimeError`` if more
          than this many events are due within the bounds.

        With no arguments the queue is drained completely.
        """
        processed = 0
        while self._queue:
            event = self._queue[0]
            if event.cancelled:
                heapq.heappop(self._queue)
                event.done = True
                self._cancelled -= 1
                continue
            if until is not None and event.time > until:
                break
            if until_key is not None and event.key >= until_key:
                break
            if max_events is not None and processed >= max_events:
                raise RuntimeError(
                    f"simulation did not converge within {max_events} "
                    f"events — possible packet storm")
            heapq.heappop(self._queue)
            event.done = True
            self._live -= 1
            self.now = event.time
            self.events_processed += 1
            processed += 1
            self._dispatch(event)
        if until is not None and self.now < until:
            self.now = until
        if until_key is not None and self.now < until_key[0]:
            self.now = until_key[0]
        return processed

    def step(self) -> bool:
        """Run exactly the next event; False when idle.  The sequential
        shard driver steps the controller with this while segments hold
        at the controller's key."""
        event = self._pop()
        if event is None:
            return False
        self.now = event.time
        self.events_processed += 1
        self._dispatch(event)
        return True

    def _dispatch(self, event: _Event) -> None:
        """Run one event callback under its context, then drain its
        microtasks (including ones enqueued by other microtasks) under
        theirs."""
        tasks = self._microtasks
        self._in_event = True
        prev = self._current
        self._current = event.ctx
        self.current_event_key = (event.time, event.lp, event.lseq)
        try:
            event.fn()
            while tasks:
                fn, ctx = tasks.pop(0)
                self._current = ctx
                fn()
        finally:
            self._current = prev
            self._in_event = False
            self.current_event_key = None
            if tasks:
                del tasks[:]

    # -- scheduler state (the shard barrier's bookkeeping pair) ------------------

    def advance_to(self, when: float) -> None:
        """Move the clock forward to ``when`` without processing events
        (it is an error to move it backwards).  The shard runner closes
        an idle segment's window with this instead of poking ``now``."""
        if when < self.now:
            raise ValueError(
                f"cannot advance clock backwards ({when} < {self.now})")
        self.now = when

    def snapshot(self) -> dict[str, float | int]:
        """The scheduler's position, as plain data.  Paired with
        :meth:`restore`; the shard barrier snapshots each segment at
        window close and diffs against the previous window to account
        events-per-window and horizon stalls."""
        return {"now": self.now,
                "events_processed": self.events_processed,
                "pending_events": self._live}

    def restore(self, snap: dict[str, float | int]) -> None:
        """Restore a :meth:`snapshot`'s clock and counters.  Pending
        events are untouched — this rewinds the scheduler's *position*
        (e.g. undoing an :meth:`advance_to` probe), not history."""
        self.now = float(snap["now"])
        self.events_processed = int(snap["events_processed"])

    @property
    def pending_events(self) -> int:
        """Live (not-yet-run, not-cancelled) events — O(1)."""
        return self._live

    def stats(self) -> dict[str, float]:
        """Scheduler health counters for a metrics snapshot.

        ``heap_size`` and ``cancelled_pending`` reflect the lazy-deletion
        machinery's physical state, which depends on per-queue compaction
        thresholds — an execution-strategy detail, so result records
        filter them (see :func:`repro.experiments.result
        .deterministic_metrics`)."""
        return {"now": self.now,
                "events_processed": self.events_processed,
                "pending_events": self._live,
                "cancelled_pending": self._cancelled,
                "heap_size": len(self._queue)}


class PeriodicTask:
    """A self-rescheduling event, e.g. an audio frame clock.

    Each task owns a scheduling context, so its ticks are attributed to
    it (not to whatever event happened to create it) and re-arming from
    inside a tick keeps drawing from the task's own counter."""

    def __init__(self, sim: Simulator, interval: float,
                 fn: Callable[[], None], start: float | None = None,
                 until: float | None = None):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self._sim = sim
        self._interval = interval
        self._fn = fn
        self._until = until
        self._stopped = False
        self._handle: EventHandle | None = None
        self._ctx = sim.context("task")
        first_delay = 0.0 if start is None else max(0.0, start - sim.now)
        self._handle = sim.schedule(first_delay, self._tick,
                                    context=self._ctx)

    def _tick(self) -> None:
        if self._stopped:
            return
        if self._until is not None and self._sim.now > self._until:
            return
        self._fn()
        if not self._stopped:
            self._handle = self._sim.schedule(self._interval, self._tick,
                                              context=self._ctx)

    def stop(self) -> None:
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()


class SerialResource:
    """A serial processing resource (e.g. a node's CPU).

    Work items run in submission order, each occupying the resource for
    its cost; with ``per_item_s == 0`` submission is immediate and
    synchronous.  Used to charge gateway nodes for per-packet ASP
    execution — the contention point of the paper's figure 8.
    """

    def __init__(self, sim: Simulator, per_item_s: float = 0.0):
        self._sim = sim
        self.per_item_s = per_item_s
        self._busy_until = 0.0
        self.items_processed = 0

    def submit(self, fn: Callable[[], None],
               cost_s: float | None = None) -> None:
        cost = self.per_item_s if cost_s is None else cost_s
        self.items_processed += 1
        if cost <= 0:
            fn()
            return
        start = max(self._sim.now, self._busy_until)
        self._busy_until = start + cost
        self._sim.at(self._busy_until, fn)

    @property
    def backlog_s(self) -> float:
        return max(0.0, self._busy_until - self._sim.now)
