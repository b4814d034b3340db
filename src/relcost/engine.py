"""Discrete-time simulation engine producing full run traces.

This is the readable reference lane: protocol state machines from
``protocols`` driven by an explicit per-tick loop.  It consumes the random
stream in exactly the order documented in ``kernels`` so that, for the same
seed, a trace here and the fast metric kernel describe the same run; a test
pins that equality across a parameter grid.

Tick contract at time t:
  1. deliver all messages with deliver_time == t (a process crashing at t is
     still delivered to, but takes no action),
  2. crash any process whose lifetime equals t,
  3. live processes act, p before q: protocol step over this tick's
     deliveries (protocol kinds before heartbeats), then self-timed protocol
     step, then the heartbeat-layer send (local times 0, delta, 2*delta...),
  4. stop early once the run is quiescent: no process will ever send a
     non-heartbeat message again.

Infinite times use the sentinel horizon+1 internally and render as "inf".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import kernels
from .model import ProtocolSpec, SystemParams, require_valid
from .protocols import ACK, HBMSG, MSG, PROTOCOL_KINDS, REQ, make_machines


@dataclass
class MessageRecord:
    sender: str              # "p" or "q"
    kind: str                # msg | ack | req | hbmsg
    inv: int                 # invocation id (0 in single mode)
    send_time: int
    lost: bool
    deliver_time: int | None  # send_time + tau when not lost
    delivered: bool = False   # actually delivered in-window to the peer


@dataclass
class RunTrace:
    """Full event record of one single-invocation run."""

    protocol: str
    seed: int
    horizon: int
    t_s: int
    t_p: int                 # crash ticks; horizon+1 = not within window
    t_q: int
    t_f: int                 # receiver finish tick; horizon+1 = never
    quiesce_t: int | None    # tick quiescence was detected, None if truncated
    truncated: bool          # horizon reached while the protocol was active
    messages: list[MessageRecord] = field(default_factory=list)
    events: list[str] = field(default_factory=list)

    @property
    def sentinel(self) -> int:
        return self.horizon + 1

    @property
    def finished(self) -> bool:
        return self.t_f <= self.horizon


@dataclass
class InvocationRecord:
    inv: int
    sender: str
    start: int
    n_send: int
    wait: int
    finish: int              # horizon+1 when not observed
    complete_t: int          # -1 when completion cannot be certified


@dataclass
class RepeatedTrace:
    """Per-invocation record of one repeated-mode run."""

    seed: int
    horizon: int
    delta: int
    t_p: int
    t_q: int
    hb_count_p: int
    hb_count_q: int
    invocations: list[InvocationRecord] = field(default_factory=list)

    @property
    def sentinel(self) -> int:
        return self.horizon + 1


def sample_lifetimes(params: SystemParams, seed: int):
    """Crash times (t_p, t_q) drawn from the head of a run's random stream.

    Returns math.inf for a correct process.
    """
    require_valid(params)
    state = kernels.seed_state(seed)
    state, raw_p = kernels.sample_lifetime(state, params.alpha_p, params.beta_p)
    state, raw_q = kernels.sample_lifetime(state, params.alpha_q, params.beta_q)
    t_p = math.inf if raw_p < 0 else int(raw_p)
    t_q = math.inf if raw_q < 0 else int(raw_q)
    return t_p, t_q


def _fmt_event(t, actor, action, kind="-", inv="-", lost="-"):
    return f"{t} {actor} {action} {kind} {inv} {lost}"


def run_single(protocol: ProtocolSpec, params: SystemParams, seed: int,
               horizon: int, force_tp: int | None = None,
               force_tq: int | None = None, force_loss_until: int = 0) -> RunTrace:
    """Simulate one seeded invocation started by the protocol at time 0.

    ``force_tp``/``force_tq`` pin a crash tick (pass horizon+1 for "never"),
    skipping that process's lifetime draws; ``force_loss_until`` loses every
    link transmission sent before that tick.  Both hooks exist for forced
    scenario probes and loss-schedule tests.
    """
    require_valid(params, protocol=protocol)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    big = horizon + 1
    state = kernels.seed_state(seed)
    if force_tp is not None:
        t_p = min(int(force_tp), big)
    else:
        state, raw = kernels.sample_lifetime(state, params.alpha_p, params.beta_p)
        t_p = big if (raw < 0 or raw > horizon) else int(raw)
    if force_tq is not None:
        t_q = min(int(force_tq), big)
    else:
        state, raw = kernels.sample_lifetime(state, params.alpha_q, params.beta_q)
        t_q = big if (raw < 0 or raw > horizon) else int(raw)

    machine_p, machine_q = make_machines(protocol, params)
    mach = {"p": machine_p, "q": machine_q}
    peer = {"p": "q", "q": "p"}
    tau = int(params.tau)
    delta = int(params.delta)
    gamma = params.gamma
    crash_t = {"p": t_p, "q": t_q}

    messages: list[MessageRecord] = []
    events: list[str] = []
    pending: dict[int, list[tuple[str, str, MessageRecord]]] = {}
    t_f = big
    quiesce_t = None

    mach["p"].on_start(0)
    mach["q"].on_start(0)

    def send(actor, kind, t):
        nonlocal state
        state, u = kernels.next_unit(state)
        lost = (t < force_loss_until) or (u < gamma)
        rec = MessageRecord(actor, kind, 0, t, lost,
                            None if lost else t + tau)
        messages.append(rec)
        events.append(_fmt_event(t, actor, "send", kind, 0, int(lost)))
        if not lost:
            pending.setdefault(t + tau, []).append((peer[actor], kind, rec))

    for t in range(horizon):
        arrivals = pending.pop(t, [])
        todo = {"p": [], "q": []}
        for dest, kind, rec in arrivals:
            # vanishes only when the destination crashed strictly earlier
            if crash_t[dest] >= t:
                rec.delivered = True
                events.append(_fmt_event(t, dest, "recv", kind, 0))
                todo[dest].append(kind)
        for actor in ("p", "q"):
            if crash_t[actor] == t:
                events.append(_fmt_event(t, actor, "crash"))

        for actor in ("p", "q"):
            if t >= crash_t[actor]:
                continue
            m = mach[actor]
            was_finished = m.finished
            outgoing = []
            # protocol deliveries first, then heartbeats
            for kind in todo[actor]:
                if kind != HBMSG:
                    outgoing += m.on_deliver(t, kind)
            for kind in todo[actor]:
                if kind == HBMSG:
                    outgoing += m.on_deliver(t, kind)
            outgoing += m.on_tick(t)
            if m.finished and not was_finished:
                if actor != "q":
                    raise AssertionError("only the receiver q can finish")
                t_f = t
                events.append(_fmt_event(t, actor, "finish", "-", 0))
            for kind in outgoing:
                if kind not in PROTOCOL_KINDS:
                    raise AssertionError(f"machine emitted non-protocol kind {kind!r}")
                send(actor, kind, t)
            # heartbeat layer
            if t % delta == 0:
                send(actor, HBMSG, t)

        # quiescence: machines inert and no in-flight delivery can trigger a send
        p_dead = t >= t_p
        q_dead = t >= t_q
        inflight = [(d, k) for lst in pending.values() for (d, k, _r) in lst]
        hb_future = {
            "p": (not q_dead) or any(d == "p" and k == HBMSG for d, k in inflight),
            "q": (not p_dead) or any(d == "q" and k == HBMSG for d, k in inflight),
        }
        p_done = p_dead or mach["p"].inert(hb_future["p"])
        q_done = q_dead or mach["q"].inert(hb_future["q"])
        triggers = any(
            (not (t >= crash_t[d])) and k in mach[d].REACTS_TO
            for d, k in inflight
        )
        if p_done and q_done and not triggers:
            quiesce_t = t
            break

    return RunTrace(
        protocol=protocol.kind, seed=seed, horizon=horizon,
        t_s=0, t_p=t_p, t_q=t_q, t_f=t_f,
        quiesce_t=quiesce_t, truncated=quiesce_t is None,
        messages=messages, events=events,
    )


def run_repeated(params: SystemParams, seed: int, horizon: int) -> RepeatedTrace:
    """Simulate one seeded repeated-mode run (both processes invoke the
    heartbeat protocol with probability sigma per live tick).

    Backed directly by the repeated-mode kernel; completion of each
    invocation is certified retrospectively at the horizon.
    """
    require_valid(params)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    n_inv, arr, hb_p, hb_q, t_p, t_q = kernels.repeated_run_arrays(params, horizon, seed)
    big = horizon + 1
    invocations = [
        InvocationRecord(
            inv=i,
            sender="p" if arr["sender"][i] == 0 else "q",
            start=int(arr["start"][i]),
            n_send=int(arr["n_send"][i]),
            wait=int(arr["wait"][i]),
            finish=int(arr["finish"][i]) if arr["finish"][i] >= 0 else big,
            complete_t=int(arr["complete_t"][i]),
        )
        for i in range(n_inv)
    ]
    return RepeatedTrace(seed=seed, horizon=horizon, delta=int(params.delta),
                         t_p=t_p, t_q=t_q,
                         hb_count_p=hb_p, hb_count_q=hb_q,
                         invocations=invocations)


# ---------------------------------------------------------------------------
# serialization and audit

def repeated_trace_to_lines(trace: RepeatedTrace) -> list[str]:
    lines = []
    evts = []
    for r in trace.invocations:
        evts.append((r.start, 0, r.inv, _fmt_event(r.start, r.sender, "invoke", "-", r.inv)))
        if r.complete_t >= 0:
            evts.append((r.complete_t, 2, r.inv,
                         _fmt_event(r.complete_t, r.sender, "complete", "-", r.inv)))
    for actor, tc in (("p", trace.t_p), ("q", trace.t_q)):
        if tc <= trace.horizon:
            evts.append((tc, 1, -1, _fmt_event(tc, actor, "crash")))
    for _, _, _, line in sorted(evts, key=lambda e: (e[0], e[1], e[2])):
        lines.append(line)
    return lines


def serialize_trace(trace) -> str:
    """Line-oriented event record: `time actor action kind inv lost`."""
    if isinstance(trace, RunTrace):
        return "\n".join(trace.events) + "\n"
    return "\n".join(repeated_trace_to_lines(trace)) + "\n"


def audit_trace(trace: RunTrace, params: SystemParams) -> list[str]:
    """Safety audit of a single-mode trace; returns violations (empty = clean).

    Checks the no-fabrication property and the tick contract's observable
    consequences: every delivery matches a send exactly tau earlier, nobody
    sends after crashing, the finish time is backed by a payload delivery,
    and acknowledgements never outnumber payload deliveries.
    """
    v = []
    tau = int(params.tau)
    crash = {"p": trace.t_p, "q": trace.t_q}
    for rec in trace.messages:
        if rec.send_time >= crash[rec.sender]:
            v.append(f"send at {rec.send_time} by {rec.sender} after its crash {crash[rec.sender]}")
        if rec.lost and rec.delivered:
            v.append(f"lost message at {rec.send_time} marked delivered")
        if rec.delivered:
            if rec.deliver_time - rec.send_time != tau:
                v.append(f"delivery delay != tau for send at {rec.send_time}")
            dest = "q" if rec.sender == "p" else "p"
            if crash[dest] < rec.deliver_time:
                v.append(f"delivery at {rec.deliver_time} to {dest} after its crash")
    if trace.finished:
        first_msg = [r for r in trace.messages
                     if r.kind == MSG and r.delivered and r.sender == "p"]
        if not any(r.deliver_time == trace.t_f for r in first_msg):
            v.append(f"finish at {trace.t_f} without a payload delivery at that tick")
        early = [r for r in first_msg if r.deliver_time < trace.t_f]
        if early:
            v.append("payload delivered before the recorded finish time")
    n_ack_sends = sum(1 for r in trace.messages if r.kind == ACK)
    n_msg_deliv = sum(1 for r in trace.messages if r.kind == MSG and r.delivered)
    if n_ack_sends > n_msg_deliv:
        v.append(f"{n_ack_sends} acks sent for only {n_msg_deliv} payload deliveries")
    for rec in trace.messages:
        if rec.kind == ACK and rec.sender != "q":
            v.append("ack sent by p")
        if rec.kind == REQ and rec.sender != "q":
            v.append("req sent by p")
        if rec.kind == MSG and rec.sender != "p":
            v.append("payload sent by q")
    return v
