"""Guard-based message-passing round runtime.

Processes are generator-based state machines: a process *broadcasts*
round-tagged messages and *blocks on guards* — threshold predicates
over its received-message bag ("a proposal from the hitting set").
The scheduler is the adversary: every message delivery and every
process activation is one *event*, and a chooser (seeded random,
deterministic exploration policy, or a replayed trace) picks the next
enabled event until the run is quiescent.

Yielded operations:

======================================  ===============================
``("broadcast", round, tag, value)``    send ``value`` to all processes
``("await", guard)``                    block until the guard holds;
                                        resumes with a bag snapshot
======================================  ===============================

A process finishes by returning its decision.  Crashes are budgeted in
*messages*: a crash-faulty process stops mid-broadcast once its
allowance is exhausted, so partial broadcasts (the classic crash
anomaly) arise naturally.  Omission-faulty processes send droppable
messages.  Receivers keep the **first** value per ``(slot, sender)``,
so a process that sends twice into one slot cannot overwrite what a
receiver already holds.

Every chosen event is recorded; the event list *is* the schedule, and
:func:`ReplayChooser` re-executes it step for step — this is the
serialized artifact the differential oracle emits on disagreement.

Determinism: all event lists are built in sorted order, choosers are
seeded, and no iteration ever walks an unsorted set — the same seed
yields a byte-identical trace on any platform.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Generator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .. import obs

#: A message slot: (round, tag).
Slot = Tuple[int, str]
#: One process's received-message bag: slot -> {sender: value}.
Bag = Dict[Slot, Dict[int, Any]]
#: A trace event, JSON-safe:
#:   ["run", pid] | ["deliver", receiver, round, tag, sender]
#:   | ["drop", receiver, round, tag, sender]
Event = Tuple[Any, ...]

#: Per-activation cap on inline resume iterations: a protocol whose
#: guard is satisfied but whose body makes no progress would otherwise
#: spin forever inside one ``run`` event.
MAX_INLINE_RESUMES = 64
#: Global cap on chosen events; generously above any legitimate run of
#: the bundled protocols (messages are finite), so hitting it means a
#: runtime or protocol bug, not a long schedule.
MAX_EVENTS = 100_000


class SimError(Exception):
    """The runtime itself misbehaved (malformed op, spin, bad replay)."""


class ReplayError(SimError):
    """A replayed event is not enabled at its position in the run."""


# ----------------------------------------------------------------------
# Guards
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ThresholdGuard:
    """At least ``count`` messages in ``slot``; ``senders`` restricts
    which senders count at all (e.g. "a proposal from the hitting set").
    """

    slot: Slot
    count: int
    senders: Optional[FrozenSet[int]] = None

    def satisfied(self, bag: Bag) -> bool:
        received = bag.get(self.slot)
        if not received:
            return False
        senders = self.senders
        if senders is None:
            return len(received) >= self.count
        return sum(sender in senders for sender in received) >= self.count


# ----------------------------------------------------------------------
# Choosers: the adversary's hand on the schedule
# ----------------------------------------------------------------------
#: A chooser maps the sorted enabled-event list to the chosen index.
Chooser = Callable[[List[Event]], int]


def random_chooser(seed: int) -> Chooser:
    """Uniform seeded choice over enabled events (drops included)."""
    rng = random.Random(seed)

    def choose(events: List[Event]) -> int:
        return rng.randrange(len(events))

    return choose


def eager_chooser() -> Chooser:
    """Deliver everything before running anyone: the synchronous-ish
    schedule where every process sees maximal information."""

    def choose(events: List[Event]) -> int:
        for index, event in enumerate(events):
            if event[0] == "deliver":
                return index
        return 0

    return choose


def isolate_chooser(
    order: Sequence[int], quarantined: FrozenSet[int]
) -> Chooser:
    """Phase per process in ``order``: feed it only its own messages and
    those of ``quarantined`` (faulty) senders, run it, move on.  This is
    the classic split-brain schedule — each process decides on the least
    information it can be starved to, which deterministically exposes
    disagreement where random exploration needs luck.
    """
    order = list(order)
    rank = {pid: index for index, pid in enumerate(order)}
    late = len(order)

    def key(event: Event) -> Tuple[int, int, Event]:
        if event[0] == "deliver":
            _, receiver, _round, _tag, sender = event
            phase = rank.get(receiver, late)
            if sender == receiver or sender in quarantined:
                return (phase, 0, event)
            return (late + phase, 0, event)
        if event[0] == "run":
            return (rank.get(event[1], late), 1, event)
        return (3 * late + 1, 2, event)  # drops: last resort only

    def choose(events: List[Event]) -> int:
        best = min(range(len(events)), key=lambda i: key(events[i]))
        return best

    return choose


class ReplayChooser:
    """Re-executes a recorded event sequence, validating each step."""

    def __init__(self, events: Sequence[Event]):
        self.events = [tuple(event) for event in events]
        self.position = 0

    def __call__(self, enabled: List[Event]) -> int:
        if self.position >= len(self.events):
            raise ReplayError(
                f"trace exhausted after {self.position} events but the "
                f"run has {len(enabled)} enabled event(s) left"
            )
        wanted = self.events[self.position]
        self.position += 1
        try:
            return enabled.index(wanted)
        except ValueError:
            raise ReplayError(
                f"replayed event {wanted!r} not enabled at position "
                f"{self.position - 1}; enabled: {enabled!r}"
            ) from None


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
@dataclass
class SimRun:
    """Outcome of one scheduled execution."""

    decisions: Dict[int, Any]
    crashed: List[int]
    blocked: List[int]
    events: List[Event]
    deliveries: int
    rounds_started: int


@dataclass
class _ProcessState:
    generator: Generator
    started: bool = False
    blocked_on: Optional[ThresholdGuard] = None
    decided: bool = False
    crashed: bool = False
    #: Deliveries observed while blocked (guard-wait accounting).
    waited: int = 0


@dataclass
class _Pending:
    receiver: int
    round: int
    tag: str
    sender: int
    value: Any
    droppable: bool

    def event(self, kind: str) -> Event:
        return (kind, self.receiver, self.round, self.tag, self.sender)


ProcessFactory = Callable[[int], Generator]


class Runtime:
    """Drives one execution of a guard-based protocol.

    ``factories`` maps each pid to its generator factory; crash
    allowances bound how many point-to-point messages each pid may emit
    (``None`` = unbounded), and ``omission`` pids send droppable
    messages.
    """

    def __init__(
        self,
        n: int,
        factories: Dict[int, ProcessFactory],
        *,
        message_allowance: Optional[Dict[int, int]] = None,
        omission: FrozenSet[int] = frozenset(),
    ):
        self.n = n
        self.omission = omission
        self.allowance: Dict[int, Optional[int]] = {
            pid: (message_allowance or {}).get(pid) for pid in factories
        }
        self.states: Dict[int, _ProcessState] = {
            pid: _ProcessState(factories[pid](pid))
            for pid in sorted(factories)
        }
        self.inbox: Dict[int, Bag] = {pid: {} for pid in self.states}
        self.pending: List[_Pending] = []
        self.decisions: Dict[int, Any] = {}
        self.events: List[Event] = []
        self.deliveries = 0
        self.rounds_started = 0
        self._max_round = -1

    # -- event enumeration ---------------------------------------------
    def enabled_events(self) -> List[Event]:
        """All currently enabled events, in canonical sorted order."""
        events: List[Event] = []
        for pid in self.states:  # states dict is pid-sorted
            state = self.states[pid]
            if state.decided or state.crashed:
                continue
            if not state.started or (
                state.blocked_on is not None
                and state.blocked_on.satisfied(self.inbox[pid])
            ):
                events.append(("run", pid))
        deliverable = sorted(
            (pending.event("deliver"), pending.droppable)
            for pending in self.pending
        )
        for event, droppable in deliverable:
            events.append(event)
            if droppable:
                events.append(("drop",) + event[1:])
        return events

    # -- event application ---------------------------------------------
    def apply(self, event: Event) -> None:
        self.events.append(event)
        kind = event[0]
        if kind == "run":
            self._activate(event[1])
        elif kind in ("deliver", "drop"):
            key = ("deliver",) + tuple(event[1:])
            index = next(
                i
                for i, pending in enumerate(self.pending)
                if pending.event("deliver") == key
            )
            pending = self.pending.pop(index)
            if kind == "deliver":
                self._deliver(pending)
        else:  # pragma: no cover - chooser contract violation
            raise SimError(f"unknown event {event!r}")

    def _deliver(self, pending: _Pending) -> None:
        self.deliveries += 1
        bag = self.inbox[pending.receiver]
        slot = (pending.round, pending.tag)
        senders = bag.setdefault(slot, {})
        # The first value per (slot, sender) wins: a later send into the
        # same slot never overwrites what the receiver already holds.
        if pending.sender not in senders:
            senders[pending.sender] = pending.value
        state = self.states[pending.receiver]
        if state.blocked_on is not None and not state.decided:
            state.waited += 1

    def _snapshot(self, pid: int) -> Bag:
        return {
            slot: dict(senders) for slot, senders in self.inbox[pid].items()
        }

    def _activate(self, pid: int) -> None:
        state = self.states[pid]
        generator = state.generator
        for _ in range(MAX_INLINE_RESUMES):
            try:
                if not state.started:
                    state.started = True
                    op = next(generator)
                else:
                    if state.blocked_on is not None:
                        with obs.span(
                            "sim.guard_wait", pid=pid, waited=state.waited
                        ):
                            pass
                        state.blocked_on = None
                        state.waited = 0
                    op = generator.send(self._snapshot(pid))
            except StopIteration as stop:
                state.decided = True
                self.decisions[pid] = stop.value
                return
            while True:
                if not isinstance(op, tuple) or not op:
                    raise SimError(f"process {pid} yielded {op!r}")
                if op[0] == "broadcast":
                    _, rnd, tag, value = op
                    if rnd > self._max_round:
                        self._max_round = rnd
                        self.rounds_started += 1
                        with obs.span("sim.round", round=rnd):
                            pass
                    if not self._broadcast(pid, rnd, tag, value):
                        return  # crashed mid-broadcast
                    try:
                        op = generator.send(None)
                    except StopIteration as stop:
                        state.decided = True
                        self.decisions[pid] = stop.value
                        return
                    continue
                if op[0] == "await":
                    _, guard = op
                    if guard.satisfied(self.inbox[pid]):
                        break  # resume inline with a fresh snapshot
                    state.blocked_on = guard
                    state.waited = 0
                    return
                raise SimError(f"process {pid} yielded unknown op {op!r}")
            # Inline resume: the awaited guard already holds.
            state.blocked_on = guard
        raise SimError(
            f"process {pid} spun for {MAX_INLINE_RESUMES} inline resumes; "
            "its guard is satisfied but its body makes no progress"
        )

    def _broadcast(self, pid: int, rnd: int, tag: str, value: Any) -> bool:
        """Enqueue one point-to-point send per receiver; False = crashed."""
        droppable = pid in self.omission
        for receiver in sorted(self.states):
            allowance = self.allowance.get(pid)
            if allowance is not None:
                if allowance <= 0:
                    self.states[pid].crashed = True
                    return False
                self.allowance[pid] = allowance - 1
            self.pending.append(
                _Pending(receiver, rnd, tag, pid, value, droppable)
            )
        return True

    # -- main loop -----------------------------------------------------
    def run(self, chooser: Chooser) -> SimRun:
        with obs.span("sim.schedule", n=self.n) as schedule_span:
            while len(self.events) < MAX_EVENTS:
                events = self.enabled_events()
                if not events:
                    break
                choice = chooser(events)
                self.apply(events[choice])
            else:  # pragma: no cover - runtime bug backstop
                raise SimError(f"schedule did not quiesce in {MAX_EVENTS}")
            blocked = sorted(
                pid
                for pid, state in self.states.items()
                if not state.decided and not state.crashed
            )
            crashed = sorted(
                pid for pid, state in self.states.items() if state.crashed
            )
            schedule_span.set_attr("events", len(self.events))
            schedule_span.set_attr("deliveries", self.deliveries)
            schedule_span.set_attr("decided", len(self.decisions))
            schedule_span.set_attr("blocked", len(blocked))
        return SimRun(
            decisions=dict(self.decisions),
            crashed=crashed,
            blocked=blocked,
            events=list(self.events),
            deliveries=self.deliveries,
            rounds_started=self.rounds_started,
        )


# ----------------------------------------------------------------------
# Trace (de)serialization
# ----------------------------------------------------------------------
def trace_of(run: SimRun) -> List[List[Any]]:
    """The JSON-safe event list (the replayable schedule)."""
    return [list(event) for event in run.events]


def events_from_trace(trace: Sequence[Sequence[Any]]) -> List[Event]:
    return [tuple(event) for event in trace]
