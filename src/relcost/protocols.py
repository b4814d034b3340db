"""The five protocol state machines behind a common step interface.

Machines are pure: they consume delivered message kinds and tick numbers and
emit protocol sends.  All randomness (loss coins, lifetimes) lives in the
engine.  Heartbeats are not protocol messages; no machine ever emits one --
the engine's failure-detection layer owns them.

Step interface, driven by the engine once per tick for each live process:

    on_start(t)            invocation begins (single mode: t == 0)
    on_deliver(t, kind)    one delivered message; returns kinds to send
    on_tick(t)             self-timed behaviour; returns kinds to send
    finished               receiver-side completion flag
    inert(hb_will_arrive)  True when the machine can never send again given
                           no further protocol deliveries
    REACTS_TO              delivered kinds whose arrival can cause a send
"""

from __future__ import annotations

import math

from .model import ProtocolSpec, SystemParams

MSG = "msg"
ACK = "ack"
REQ = "req"
HBMSG = "hbmsg"

PROTOCOL_KINDS = (MSG, ACK, REQ)  # what a machine is allowed to emit


class Machine:
    """Base: does nothing, reacts to nothing."""

    REACTS_TO: frozenset = frozenset()

    def __init__(self):
        self.finished = False

    def on_start(self, t):
        return []

    def on_deliver(self, t, kind):
        return []

    def on_tick(self, t):
        return []

    def inert(self, hb_will_arrive):
        return True


class TrivialMachine(Machine):
    """Do-nothing protocol: never sends, never finishes."""


class SenderDrivenSender(Machine):
    """Retransmits the payload every `delta` ticks until an ack is delivered."""

    def __init__(self, delta):
        super().__init__()
        self.delta = delta
        self.acked = False

    def on_deliver(self, t, kind):
        if kind == ACK:
            self.acked = True
        return []

    def on_tick(self, t):
        if not self.acked and t % self.delta == 0:
            return [MSG]
        return []

    def inert(self, hb_will_arrive):
        return self.acked


class AckingReceiver(Machine):
    """Finishes on the first payload delivery; acknowledges every copy,
    including duplicates arriving after it finished."""

    REACTS_TO = frozenset([MSG])

    def on_deliver(self, t, kind):
        if kind == MSG:
            self.finished = True
            return [ACK]
        return []


class ReceiverDrivenReceiver(Machine):
    """Requests the payload every `delta` ticks until it arrives."""

    def __init__(self, delta):
        super().__init__()
        self.delta = delta

    def on_deliver(self, t, kind):
        if kind == MSG:
            self.finished = True
        return []

    def on_tick(self, t):
        if not self.finished and t % self.delta == 0:
            return [REQ]
        return []

    def inert(self, hb_will_arrive):
        return self.finished


class ReceiverDrivenSender(Machine):
    """Answers every request with a fresh copy of the payload."""

    REACTS_TO = frozenset([REQ])

    def on_deliver(self, t, kind):
        if kind == REQ:
            return [MSG]
        return []


class HeartbeatSender(Machine):
    """Sends the payload on each inbound heartbeat until an ack is delivered.

    An ack and a heartbeat landing on the same tick produce no send: the
    engine dispatches protocol deliveries before heartbeat deliveries, so the
    loop guard wins.
    """

    def __init__(self):
        super().__init__()
        self.acked = False

    def on_deliver(self, t, kind):
        if kind == ACK:
            self.acked = True
        elif kind == HBMSG and not self.acked:
            return [MSG]
        return []

    def inert(self, hb_will_arrive):
        return self.acked or not hb_will_arrive


class DelayedAckReceiver(Machine):
    """Pathological receiver: schedules its k-th ack ceil(base**k) ticks
    after the k-th payload delivery, counting every copy received."""

    REACTS_TO = frozenset([MSG])

    _FAR = 1 << 60  # delays beyond any horizon; kept pending, never fired

    def __init__(self, ack_base):
        super().__init__()
        self.ack_base = ack_base
        self.k = 0
        self.pending = {}
        self._log_base = math.log(ack_base)

    def on_deliver(self, t, kind):
        if kind == MSG:
            self.finished = True
            self.k += 1
            if self.k * self._log_base > 60 * math.log(2.0):
                fire = self._FAR
            else:
                fire = t + int(math.ceil(self.ack_base ** self.k))
            self.pending[fire] = self.pending.get(fire, 0) + 1
        return []

    def on_tick(self, t):
        count = self.pending.pop(t, 0)
        return [ACK] * count

    def inert(self, hb_will_arrive):
        return not self.pending


def make_machines(spec: ProtocolSpec, params: SystemParams):
    """Instantiate the (p, q) machine pair for one protocol.

    p is the payload sender in every protocol; the receiver-driven protocol
    is initiated by q, whose request cadence uses the shared period delta.
    """
    delta = int(params.delta)
    if spec.kind == "trivial":
        return TrivialMachine(), TrivialMachine()
    if spec.kind == "sender":
        return SenderDrivenSender(delta), AckingReceiver()
    if spec.kind == "receiver":
        return ReceiverDrivenSender(), ReceiverDrivenReceiver(delta)
    if spec.kind == "srhb":
        return HeartbeatSender(), AckingReceiver()
    if spec.kind == "pathological":
        return SenderDrivenSender(1), DelayedAckReceiver(spec.ack_base)
    raise ValueError(f"unknown protocol kind {spec.kind!r}")

