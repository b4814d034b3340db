"""Scalar reference for the repeated-mode kernel.

This is the tick-by-tick kernel that ``relcost.kernels`` ran before its
repeated mode moved to counter-based numpy draws.  It steps the splitmix64
stream one draw at a time in the documented order: [lifetime draws] [all p
heartbeat coins] [all q heartbeat coins] [invocation coins, tick-ordered, p
before q] [per-invocation loss coins, invocation id order].  The parity
tests hold the package kernel bit-identical to it.

Only the lifetime draws come from the package (``kernels.sample_lifetime``,
shared with single mode); the stream step is its own, on python ints.
"""

import numpy as np

from relcost import kernels

_MASK = 0xFFFFFFFFFFFFFFFF
_NEVER = 1 << 60


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


def _hb_upto(t, t_x, delta, horizon):
    # heartbeat sends of a process with crash tick t_x, counted up to time t
    m = t
    if t_x - 1 < m:
        m = t_x - 1
    if horizon - 1 < m:
        m = horizon - 1
    if m < 0:
        return 0
    return m // delta + 1


def _repeated_run(gamma, tau, delta, sigma, horizon, state, t_p, t_q,
                  hb_in_p, hb_in_q,
                  inv_start, inv_sender, inv_nsend, inv_wait, inv_finish, inv_complete):
    """One seeded repeated-mode run; fills the per-invocation arrays.

    t_p/t_q are raw crash ticks (huge value = never).  Both processes share
    one heartbeat stream per direction; each invocation is walked
    independently against its sender's inbound heartbeat arrivals.

    Returns (n_inv, hb_count_p, hb_count_q).
    ``inv_complete[i]`` is the completion tick (last send, or the start tick
    for invocations that never trigger a send), or -1 when activity past the
    horizon cannot be ruled out.
    """
    for i in range(horizon):
        hb_in_p[i] = 0
        hb_in_q[i] = 0

    # heartbeat stream p -> q
    hb_count_p = 0
    last_trigger_q = -1
    t = 0
    while t < horizon and t < t_p:
        state, u = _next_unit(state)
        hb_count_p += 1
        if not (u < gamma):
            arr = t + tau
            if arr < t_q and arr > last_trigger_q:
                last_trigger_q = arr
            if arr < horizon:
                hb_in_q[arr] = 1
        t += delta

    # heartbeat stream q -> p
    hb_count_q = 0
    last_trigger_p = -1
    t = 0
    while t < horizon and t < t_q:
        state, u = _next_unit(state)
        hb_count_q += 1
        if not (u < gamma):
            arr = t + tau
            if arr < t_p and arr > last_trigger_p:
                last_trigger_p = arr
            if arr < horizon:
                hb_in_p[arr] = 1
        t += delta

    # invocation arrivals: Bernoulli(sigma) per live process per tick,
    # drawn before the protocol step so a same-tick heartbeat can trigger
    # the new invocation immediately
    n_inv = 0
    t = 0
    while t < horizon and (t < t_p or t < t_q):
        if t < t_p:
            state, u = _next_unit(state)
            if u < sigma:
                inv_start[n_inv] = t
                inv_sender[n_inv] = 0
                n_inv += 1
        if t < t_q:
            state, u = _next_unit(state)
            if u < sigma:
                inv_start[n_inv] = t
                inv_sender[n_inv] = 1
                n_inv += 1
        t += 1

    for i in range(n_inv):
        s = inv_start[i]
        if inv_sender[i] == 0:
            t_snd = t_p
            t_rcv = t_q
            last_trig = last_trigger_p
        else:
            t_snd = t_q
            t_rcv = t_p
            last_trig = last_trigger_q
        stop = _NEVER
        msgs = 0
        acks = 0
        last_send = -1
        finish = -1
        pending = False
        u_t = s
        while u_t < horizon and u_t < t_snd and u_t < stop:
            trig = hb_in_p[u_t] if inv_sender[i] == 0 else hb_in_q[u_t]
            if trig == 1:
                msgs += 1
                if u_t > last_send:
                    last_send = u_t
                state, u = _next_unit(state)
                if not (u < gamma):
                    arr = u_t + tau
                    if arr <= t_rcv:
                        # delivered (receiver up at the delivery step)
                        if arr > horizon - 1:
                            if arr < t_rcv:
                                pending = True  # would be acknowledged past the horizon
                        elif arr < t_rcv:
                            if finish < 0:
                                finish = arr
                            acks += 1
                            if arr > last_send:
                                last_send = arr
                            state, u2 = _next_unit(state)
                            if not (u2 < gamma):
                                arr2 = arr + tau
                                if arr2 <= horizon - 1 and arr2 < stop:
                                    stop = arr2
            u_t += 1

        sender_alive_end = t_snd > horizon - 1
        sender_stopped = (stop <= horizon - 1) or (not sender_alive_end)
        future_trigger = (t_rcv > horizon - 1) or (last_trig > horizon - 1)
        incomplete = pending or ((not sender_stopped) and future_trigger)

        inv_nsend[i] = msgs + acks
        inv_finish[i] = finish
        if incomplete:
            inv_complete[i] = -1
        else:
            inv_complete[i] = last_send if last_send >= 0 else s
        w_min = t_p if t_p < t_q else t_q
        if finish >= 0 and finish < w_min:
            w_min = finish
        if horizon < w_min:
            w_min = horizon
        w = w_min - s
        if w < 0:
            w = 0
        inv_wait[i] = w

    return n_inv, hb_count_p, hb_count_q


def _repeated_reduce(n_inv, inv_nsend, inv_wait, inv_complete,
                     t_p, t_q, delta, horizon, c_send, c_wait,
                     time_buf, cost_buf):
    """Average-cost summary of one repeated run.

    Returns (n_complete, cost_completed, hb_total, ratio_at_horizon,
    running_sup).  The running sup is evaluated at every integer time where
    the ratio can attain its maximum: just before and at each completion
    event, and at the horizon.
    """
    m = 0
    for i in range(n_inv):
        if inv_complete[i] >= 0:
            time_buf[m] = inv_complete[i]
            cost_buf[m] = inv_nsend[i] * c_send + inv_wait[i] * c_wait
            m += 1
    order = np.argsort(time_buf[:m])
    k_done = 0
    c_done = 0.0
    sup = 0.0
    j = 0
    while j < m:
        big_t = time_buf[order[j]]
        hb_before = _hb_upto(big_t - 1, t_p, delta, horizon) + _hb_upto(big_t - 1, t_q, delta, horizon)
        cand = (c_done + hb_before * c_send) / (k_done + 1)
        if cand > sup:
            sup = cand
        while j < m and time_buf[order[j]] == big_t:
            c_done += cost_buf[order[j]]
            k_done += 1
            j += 1
        hb_at = _hb_upto(big_t, t_p, delta, horizon) + _hb_upto(big_t, t_q, delta, horizon)
        cand = (c_done + hb_at * c_send) / (k_done + 1)
        if cand > sup:
            sup = cand
    hb_total = _hb_upto(horizon, t_p, delta, horizon) + _hb_upto(horizon, t_q, delta, horizon)
    ratio_h = (c_done + hb_total * c_send) / (k_done + 1)
    if ratio_h > sup:
        sup = ratio_h
    return k_done, c_done, hb_total, ratio_h, sup


def run(params, horizon, seed):
    """One run from its seed: (raw crash ticks, per-invocation arrays,
    heartbeat counts); ``_NEVER`` is a crash that never happens."""
    state, raw = kernels.sample_lifetime(seed, params.alpha_p, params.beta_p)
    tp = _NEVER if raw < 0 else int(raw)
    state, raw = kernels.sample_lifetime(state, params.alpha_q, params.beta_q)
    tq = _NEVER if raw < 0 else int(raw)
    return (tp, tq) + run_after_lifetimes(params, horizon, int(state), tp, tq)


def run_after_lifetimes(params, horizon, state, tp, tq):
    """The run past the lifetime draws: (arrays, hb_count_p, hb_count_q)."""
    cap = 2 * horizon + 2
    hb_in_p = np.zeros(horizon, np.uint8)
    hb_in_q = np.zeros(horizon, np.uint8)
    names = ("start", "sender", "n_send", "wait", "finish", "complete_t")
    arr = {k: np.empty(cap, np.int64) for k in names}
    n_inv, hb_p, hb_q = _repeated_run(
        params.gamma, int(params.tau), int(params.delta), params.sigma,
        horizon, state, tp, tq, hb_in_p, hb_in_q, *(arr[k] for k in names))
    return {k: v[:n_inv].copy() for k, v in arr.items()}, hb_p, hb_q


def reduce(arrays, t_p, t_q, delta, horizon, c_send, c_wait):
    """(n_complete, cost_completed, hb_total, ratio_at_horizon, running_sup)."""
    n_inv = arrays["start"].size
    cap = max(n_inv, 1)
    return _repeated_reduce(n_inv, arrays["n_send"], arrays["wait"],
                            arrays["complete_t"], t_p, t_q, delta, horizon,
                            c_send, c_wait, np.empty(cap, np.int64),
                            np.empty(cap, np.float64))
