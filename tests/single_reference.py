"""Scalar reference for the single-mode kernel.

This is the tick-by-tick loop that ``relcost.kernels`` ran, one run at a
time, before single mode moved to one numpy tick loop over every run of a
batch.  It steps the splitmix64 stream one draw at a time in the documented
order: [lifetime draws p, q] then per tick t: p's protocol send coins, p's
heartbeat coin, q's protocol send coins, q's heartbeat coin.  The parity
tests hold the package kernel bit-identical to it.

The stream step is its own, on python ints; so is the lifetime draw.
"""

import math

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF

# protocol codes, kept in sync with model.PROTOCOL_NAMES
_TRIVIAL = 0
_SENDER = 1
_RECEIVER = 2
_SRHB = 3
_PATHOLOGICAL = 4


def _next_unit(state):
    # splitmix64 step + finalizer; returns (new_state, unit float in [0, 1))
    s = (state + 0x9E3779B97F4A7C15) & _MASK
    z = s
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    z ^= z >> 31
    return s, (z >> 11) * 1.1102230246251565e-16


def _sample_lifetime(state, alpha, beta):
    # -1 encodes "never crashes"; otherwise geometric on {0, 1, ...} with
    # per-tick rate beta (crash at tick 0 is possible).
    state, u = _next_unit(state)
    if u < alpha:
        return state, -1
    if beta >= 1.0:
        return state, 0
    state, u2 = _next_unit(state)
    t = int(math.floor(math.log1p(-u2) / math.log1p(-beta)))
    return state, t


def _single_run(proto, gamma, tau, delta, ack_base, horizon, state,
                t_p, t_q, force_loss_until,
                msg_cal, ack_cal, req_cal, hbp_cal, fire_cal):
    """One seeded single-invocation run; returns summary metrics.

    t_p/t_q are crash ticks already capped to horizon+1 ("never within
    window").  Calendars are caller-owned scratch, zero on entry; the run
    re-zeroes exactly the slots it wrote before returning.

    Returns (t_f, n_send, n_hb, quiesce_t, active) where t_f is horizon+1
    when the receiver never finishes in-window, quiesce_t is -1 when the run
    is still active at the horizon, and n_send excludes heartbeats.
    """
    big = horizon + 1
    ack_seen = False
    finished = False
    t_f = big
    n_send = 0
    n_hb = 0
    inflight_msg = 0
    inflight_req = 0
    inflight_hb_p = 0
    pending_fire = 0
    far_pending = 0
    k_rx = 0
    quiesce_t = -1
    used_end = -1
    log_ab = 0.0
    log_window = 0.0
    if proto == _PATHOLOGICAL:
        log_ab = math.log(ack_base)
        log_window = math.log(float(horizon + 1))

    for t in range(horizon):
        d_msg = msg_cal[t]
        d_ack = ack_cal[t]
        d_req = req_cal[t]
        d_hbp = hbp_cal[t]
        inflight_msg -= d_msg
        inflight_req -= d_req
        inflight_hb_p -= d_hbp

        # --- process p acts (sender side except in the receiver-driven case)
        if t < t_p:
            if d_ack > 0 and (proto == _SENDER or proto == _SRHB or proto == _PATHOLOGICAL):
                ack_seen = True
            if proto == _SENDER:
                if not ack_seen and t % delta == 0:
                    state, u = _next_unit(state)
                    n_send += 1
                    if not (t < force_loss_until or u < gamma):
                        msg_cal[t + tau] += 1
                        inflight_msg += 1
                        if t + tau > used_end:
                            used_end = t + tau
            elif proto == _PATHOLOGICAL:
                if not ack_seen:
                    state, u = _next_unit(state)
                    n_send += 1
                    if not (t < force_loss_until or u < gamma):
                        msg_cal[t + tau] += 1
                        inflight_msg += 1
                        if t + tau > used_end:
                            used_end = t + tau
            elif proto == _SRHB:
                if not ack_seen and d_hbp > 0:
                    for _ in range(d_hbp):
                        state, u = _next_unit(state)
                        n_send += 1
                        if not (t < force_loss_until or u < gamma):
                            msg_cal[t + tau] += 1
                            inflight_msg += 1
                            if t + tau > used_end:
                                used_end = t + tau
            elif proto == _RECEIVER:
                if d_req > 0:
                    for _ in range(d_req):
                        state, u = _next_unit(state)
                        n_send += 1
                        if not (t < force_loss_until or u < gamma):
                            msg_cal[t + tau] += 1
                            inflight_msg += 1
                            if t + tau > used_end:
                                used_end = t + tau
            # p's heartbeat layer (to q; no protocol listens to it in single mode)
            if t % delta == 0:
                state, u = _next_unit(state)
                n_hb += 1

        # --- process q acts
        if t < t_q:
            if proto == _SENDER or proto == _SRHB:
                if d_msg > 0:
                    if not finished:
                        finished = True
                        t_f = t
                    for _ in range(d_msg):
                        state, u = _next_unit(state)
                        n_send += 1
                        if not (t < force_loss_until or u < gamma):
                            ack_cal[t + tau] += 1
                            if t + tau > used_end:
                                used_end = t + tau
            elif proto == _RECEIVER:
                if d_msg > 0 and not finished:
                    finished = True
                    t_f = t
                if not finished and t % delta == 0:
                    state, u = _next_unit(state)
                    n_send += 1
                    if not (t < force_loss_until or u < gamma):
                        req_cal[t + tau] += 1
                        inflight_req += 1
                        if t + tau > used_end:
                            used_end = t + tau
            elif proto == _PATHOLOGICAL:
                if d_msg > 0:
                    if not finished:
                        finished = True
                        t_f = t
                    for _ in range(d_msg):
                        k_rx += 1
                        if k_rx * log_ab > log_window:
                            far_pending += 1
                        else:
                            ft = t + int(math.ceil(ack_base ** k_rx))
                            if ft <= horizon - 1:
                                fire_cal[ft] += 1
                                pending_fire += 1
                                if ft > used_end:
                                    used_end = ft
                            else:
                                far_pending += 1
                if fire_cal[t] > 0:
                    for _ in range(fire_cal[t]):
                        state, u = _next_unit(state)
                        n_send += 1
                        pending_fire -= 1
                        if not (t < force_loss_until or u < gamma):
                            ack_cal[t + tau] += 1
                            if t + tau > used_end:
                                used_end = t + tau
            # q's heartbeat layer (to p; drives the srhb sender)
            if t % delta == 0:
                state, u = _next_unit(state)
                n_hb += 1
                if not (t < force_loss_until or u < gamma):
                    hbp_cal[t + tau] += 1
                    inflight_hb_p += 1
                    if t + tau > used_end:
                        used_end = t + tau

        # --- quiescence: no further non-heartbeat send can ever happen
        p_dead = t >= t_p
        q_dead = t >= t_q
        if proto == _TRIVIAL:
            quiescent = True
        elif proto == _SENDER:
            quiescent = (ack_seen or p_dead) and (inflight_msg == 0 or q_dead)
        elif proto == _RECEIVER:
            quiescent = (finished or q_dead) and (inflight_req == 0 or p_dead)
        elif proto == _SRHB:
            p_can = (not p_dead) and (not ack_seen) and ((not q_dead) or inflight_hb_p > 0)
            quiescent = (not p_can) and (inflight_msg == 0 or q_dead)
        else:
            quiescent = ((ack_seen or p_dead)
                         and (inflight_msg == 0 or q_dead)
                         and (pending_fire + far_pending == 0 or q_dead))
        if quiescent:
            quiesce_t = t
            break

    # scrub the scratch calendars for the next run
    for i in range(used_end + 1):
        msg_cal[i] = 0
        ack_cal[i] = 0
        req_cal[i] = 0
        hbp_cal[i] = 0
        fire_cal[i] = 0

    active = 1 if quiesce_t < 0 else 0
    return t_f, n_send, n_hb, quiesce_t, active


def single_batch(proto_code, params, horizon, seeds,
                 force_tp=-1, force_tq=-1, force_loss_until=0, ack_base=2.0):
    """The reference counterpart of ``kernels.single_batch``: the same
    arguments and the same seven int64 arrays, one run at a time."""
    horizon = int(horizon)
    tau = int(params.tau)
    cal_len = horizon + tau + 2
    cals = [[0] * cal_len for _ in range(5)]
    big = horizon + 1
    rows = []
    for seed in seeds.tolist():
        state = seed
        if force_tp >= 0:
            tp = min(force_tp, big)
        else:
            state, raw = _sample_lifetime(state, params.alpha_p, params.beta_p)
            tp = big if (raw < 0 or raw > horizon) else raw
        if force_tq >= 0:
            tq = min(force_tq, big)
        else:
            state, raw = _sample_lifetime(state, params.alpha_q, params.beta_q)
            tq = big if (raw < 0 or raw > horizon) else raw
        rows.append((tp, tq) + _single_run(
            proto_code, params.gamma, tau, int(params.delta), float(ack_base),
            horizon, state, tp, tq, int(force_loss_until), *cals))
    cols = np.array(rows, np.int64).reshape(-1, 7).T
    keys = ("t_p", "t_q", "t_f", "n_send", "n_hb", "quiesce_t", "active")
    return dict(zip(keys, cols))
