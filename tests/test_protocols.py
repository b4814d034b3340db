import math

from relcost.model import ProtocolSpec, SystemParams
from relcost.protocols import (ACK, HBMSG, MSG, REQ, AckingReceiver,
                               SenderDrivenSender, TrivialMachine, make_machines)


def machines(kind, delta=1, ack_base=2.0):
    """The (p, q) machine pair of one protocol with period delta."""
    params = SystemParams(alpha_p=1.0, alpha_q=1.0, beta_p=0.5, beta_q=0.5,
                          gamma=0.0, tau=1, delta=delta)
    return make_machines(ProtocolSpec(kind, ack_base=ack_base), params)


def drive(machine, script):
    """Apply (method, args) steps; return the flat list of emitted kinds."""
    out = []
    for name, *args in script:
        out += getattr(machine, name)(*args)
    return out


def test_trivial_never_reacts():
    m, r = machines("trivial")
    script = [("on_start", 0)] + [("on_deliver", t, k)
                                  for t in range(5) for k in (MSG, ACK, REQ, HBMSG)]
    script += [("on_tick", t) for t in range(2000)]
    assert drive(m, script) == []
    assert not r.finished
    assert m.inert(True)


def test_sender_driven_cadence_and_stop():
    m = SenderDrivenSender(2)
    sends = [t for t in range(10) if drive(m, [("on_tick", t)])]
    assert sends == [0, 2, 4, 6, 8]
    m.on_deliver(10, ACK)
    assert m.on_tick(10) == []
    assert m.on_tick(12) == []
    assert m.inert(True)


def test_acking_receiver_finishes_once_and_keeps_acking():
    r = AckingReceiver()
    assert r.on_deliver(3, MSG) == [ACK]
    assert r.finished
    # duplicates after finishing are still acknowledged; finish is monotone
    assert r.on_deliver(5, MSG) == [ACK]
    assert r.finished
    assert r.on_deliver(6, HBMSG) == []


def test_receiver_driven_pair():
    snd, rcv = machines("receiver", delta=2)
    assert rcv.on_tick(0) == [REQ]
    assert rcv.on_tick(1) == []
    assert rcv.on_tick(2) == [REQ]
    assert snd.on_deliver(3, REQ) == [MSG]
    rcv.on_deliver(6, MSG)
    assert rcv.finished
    assert rcv.on_tick(6) == []
    assert rcv.inert(True)
    # the responder answers every request, even late ones
    assert snd.on_deliver(9, REQ) == [MSG]


def test_srhb_sender_triggers_on_heartbeats_until_acked():
    s, r = machines("srhb")
    assert s.on_deliver(4, HBMSG) == [MSG]
    assert s.on_deliver(7, HBMSG) == [MSG]
    # ack delivered before the heartbeat on the same tick: loop guard wins
    s.on_deliver(10, ACK)
    assert s.on_deliver(10, HBMSG) == []
    assert s.inert(True)
    assert r.on_deliver(8, MSG) == [ACK]


def test_srhb_sender_inert_without_future_heartbeats():
    s, _ = machines("srhb")
    assert not s.inert(True)
    assert s.inert(False)


def test_pathological_kth_ack_delay():
    _, r = machines("pathological", ack_base=2.5)
    r.on_deliver(3, MSG)
    r.on_deliver(4, MSG)
    r.on_deliver(4, MSG)  # duplicates count: every receipt increments k
    # k-th ack fires ceil(2.5**k) after the k-th receipt
    assert r.pending == {3 + 3: 1, 4 + 7: 1, 4 + math.ceil(2.5 ** 3): 1}
    assert r.on_tick(6) == [ACK]
    assert r.on_tick(7) == []
    assert not r.inert(True)
    assert r.on_tick(11) == [ACK]
    assert r.on_tick(4 + math.ceil(2.5 ** 3)) == [ACK]
    assert r.inert(True)


def test_pathological_sender_has_unit_period():
    s, _ = machines("pathological", ack_base=3.0)
    assert [t for t in range(4) if s.on_tick(t)] == [0, 1, 2, 3]


def test_machines_are_deterministic():
    script = ([("on_start", 0)]
              + [("on_tick", t) for t in range(6)]
              + [("on_deliver", 6, HBMSG), ("on_deliver", 7, MSG),
                 ("on_deliver", 8, ACK), ("on_tick", 9)])
    for make in (lambda: machines("sender", delta=2)[0],
                 lambda: machines("srhb")[0],
                 lambda: machines("receiver", delta=3)[1],
                 lambda: machines("pathological")[1],
                 lambda: TrivialMachine()):
        a = drive(make(), list(script))
        b = drive(make(), list(script))
        assert a == b


def test_no_machine_ever_emits_heartbeats():
    script = ([("on_start", 0)]
              + [("on_deliver", t, k) for t in range(8)
                 for k in (MSG, ACK, REQ, HBMSG)]
              + [("on_tick", t) for t in range(40)])
    for kind, delta in (("sender", 1), ("receiver", 2), ("srhb", 1),
                        ("pathological", 1), ("trivial", 1)):
        for machine in machines(kind, delta=delta, ack_base=1.5):
            assert HBMSG not in drive(machine, list(script))
