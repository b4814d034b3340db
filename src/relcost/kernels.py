"""Hot simulation kernels: the single-mode tick loop and the repeated-mode run.

All randomness of a run flows through one explicit splitmix64 stream (no
numpy/numba RNG state involved).  The stream is a counter generator: after
state S, draw k is mix(S + k*GOLDEN) (Steele, Lea & Flood, "Fast splittable
pseudorandom number generators", OOPSLA 2014).  Any stretch of draws whose
count is known in advance can therefore be computed at once, without
stepping through the draws before it.

Single mode is written so the exact same source runs in two modes:

* compiled with numba ``@njit`` (the default when numba is importable), or
* as plain Python over numpy uint64 scalars, selected by setting the
  environment variable ``RELCOST_NO_NUMBA=1`` before import.

Both give bit-identical results because all floating point work uses the
same float64 operations.

Repeated mode is numpy only, with or without numba.  Its heartbeat and
invocation coins are computed through the counter identity, in numpy passes
of at most ``_BLOCK`` draws.  The per-invocation walks, whose draw counts
depend on earlier draws, step the stream on python ints and jump from one
inbound heartbeat to the next.  The draw order below is unchanged from the
earlier tick-by-tick kernel, so seeded results are too; ``tests/`` keeps
that kernel as the reference it is checked against.

Random draw discipline (fixed; the pure-Python reference engine follows it):

* single mode:   [lifetime draws p, q] then per tick t: p's protocol send
  coins, p's heartbeat coin, q's protocol send coins, q's heartbeat coin.
  A coin is drawn exactly when a send happens.
* repeated mode: [lifetime draws] [all p heartbeat coins] [all q heartbeat
  coins] [invocation coins, tick-ordered, p before q] [per-invocation loss
  coins, invocation id order].

Crash/delivery ordering within a tick: deliveries happen first (a process
crashing at tick t still has messages delivered to it at t but takes no
action), then crashes, then the live processes act.
"""

import math
import os

import numpy as np

NUMBA_DISABLED = os.environ.get("RELCOST_NO_NUMBA", "0") == "1"

try:
    import numba as _numba
except ImportError:  # pragma: no cover - numba is a hard dep, but stay usable
    _numba = None

NUMBA_ENABLED = (_numba is not None) and not NUMBA_DISABLED

if NUMBA_ENABLED:
    jitted = _numba.njit(cache=True, nogil=True)
else:
    def jitted(f):
        return f

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15

# protocol codes, kept in sync with model.PROTOCOL_NAMES
_TRIVIAL = 0
_SENDER = 1
_RECEIVER = 2
_SRHB = 3
_PATHOLOGICAL = 4

_NEVER = 1 << 60  # internal "never happens" tick, beyond any horizon


def _mix(z):
    # splitmix64 finalizer over python ints
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_run_seed(master: int, index: int) -> int:
    """Per-run substream seed: draw index+1 of the splitmix64 stream at
    ``master``, unscaled.

    Pure python on purpose: exact, warning-free, and usable to derive seeds
    for any backend mode.
    """
    return _mix((int(master) + (int(index) + 1) * _GOLDEN) & _MASK)


def make_seeds(master: int, start: int, count: int) -> np.ndarray:
    """uint64 seed array for runs [start, start+count) of a master seed."""
    return np.array([derive_run_seed(master, start + i) for i in range(count)],
                    dtype=np.uint64)


def seed_state(seed: int) -> np.uint64:
    return np.uint64(int(seed) & _MASK)


@jitted
def _next_unit(state):
    # splitmix64 step + finalizer; returns (new_state, unit float in [0, 1))
    s = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = s
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    z ^= z >> 31
    return s, (z >> 11) * 1.1102230246251565e-16


@jitted
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


@jitted
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


@jitted
def _single_batch(proto, alpha_p, alpha_q, beta_p, beta_q, gamma, tau, delta,
                  ack_base, horizon, seeds, force_tp, force_tq, force_loss_until,
                  out_tp, out_tq, out_tf, out_nsend, out_nhb, out_active, out_quiesce):
    cal_len = horizon + tau + 2
    msg_cal = np.zeros(cal_len, np.int32)
    ack_cal = np.zeros(cal_len, np.int32)
    req_cal = np.zeros(cal_len, np.int32)
    hbp_cal = np.zeros(cal_len, np.int32)
    fire_cal = np.zeros(cal_len, np.int32)
    big = horizon + 1
    for r in range(seeds.shape[0]):
        state = seeds[r]
        if force_tp >= 0:
            tp = force_tp if force_tp < big else big
        else:
            state, raw = _sample_lifetime(state, alpha_p, beta_p)
            tp = big if (raw < 0 or raw > horizon) else raw
        if force_tq >= 0:
            tq = force_tq if force_tq < big else big
        else:
            state, raw = _sample_lifetime(state, alpha_q, beta_q)
            tq = big if (raw < 0 or raw > horizon) else raw
        t_f, n_send, n_hb, quiesce_t, active = _single_run(
            proto, gamma, tau, delta, ack_base, horizon, state, tp, tq,
            force_loss_until, msg_cal, ack_cal, req_cal, hbp_cal, fire_cal)
        out_tp[r] = tp
        out_tq[r] = tq
        out_tf[r] = t_f
        out_nsend[r] = n_send
        out_nhb[r] = n_hb
        out_active[r] = active
        out_quiesce[r] = quiesce_t


# ---------------------------------------------------------------------------
# repeated mode: numpy over counter-based draws

# the most draws one numpy pass computes; bounds a run's scratch memory
_BLOCK = 1 << 12


def _unit_draws(state, first, n):
    """Unit floats of draws first+1 ... first+n of the stream at ``state``."""
    z = np.arange(first + 1, first + n + 1, dtype=np.uint64)
    tmp = np.empty_like(z)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(state)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(z, np.uint64(shift), out=tmp)
        z ^= tmp
        z *= np.uint64(mult)
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp
    z >>= np.uint64(11)
    u = tmp.view(np.float64)
    np.copyto(u, z, casting="unsafe")
    u *= 1.1102230246251565e-16
    return u


def _blocks(n):
    # (offset, size) of the numpy passes over n draws
    return ((b, min(_BLOCK, n - b)) for b in range(0, n, _BLOCK))


def _step(state):
    # one draw on python ints; returns (new_state, unit float in [0, 1))
    state = (state + _GOLDEN) & _MASK
    return state, (_mix(state) >> 11) * 1.1102230246251565e-16


def _hb_upto(t, t_x, delta, horizon):
    """Heartbeat sends of a process with crash tick t_x, counted up to time
    t; t may be an array."""
    m = np.minimum(t, min(t_x, horizon) - 1)
    return np.where(m < 0, 0, m // delta + 1)


def _heartbeats(state, first, gamma, tau, delta, horizon, t_x, t_rcv):
    """One heartbeat direction: a send at every multiple of delta before
    min(horizon, t_x), each with one loss coin.

    Returns (sends, in-window arrival ticks in increasing order, last
    arrival before t_rcv or -1)."""
    n = -(-min(horizon, t_x) // delta)
    arrivals = np.empty(n, np.int64)
    m = 0
    last = -1
    for b, k in _blocks(n):
        arr = np.flatnonzero(_unit_draws(state, first + b, k) >= gamma)
        arr += b
        arr *= delta
        arr += tau
        live = arr[arr < t_rcv]
        if live.size:
            last = int(live[-1])
        arr = arr[arr < horizon]
        arrivals[m:m + arr.size] = arr
        m += arr.size
    return n, arrivals[:m], last


def _invocations(state, first, sigma, horizon, t_p, t_q):
    """Invocation coins: one per live process per tick, tick-ordered, p
    before q.  Returns (start ticks, senders, draws)."""
    both = min(horizon, t_p, t_q)   # ticks with a p coin and a q coin
    n = both + min(horizon, max(t_p, t_q))
    hits = [np.flatnonzero(_unit_draws(state, first + b, k) < sigma) + b
            for b, k in _blocks(n)]
    j = np.concatenate(hits) if hits else np.empty(0, np.int64)
    pair = j < 2 * both
    start = np.where(pair, j >> 1, j - both)
    sender = np.where(pair, j & 1, 0 if t_p > t_q else 1)
    return start, sender, n


def _repeated_run(gamma, tau, delta, sigma, horizon, state, t_p, t_q):
    """One seeded repeated-mode run.

    t_p/t_q are raw crash ticks (huge value = never).  Both processes share
    one heartbeat stream per direction; each invocation is walked
    independently against its sender's inbound heartbeat arrivals.

    Returns (arrays, hb_count_p, hb_count_q); ``arrays`` holds the int64
    per-invocation arrays ``start``, ``sender`` (0 = p), ``n_send``,
    ``wait``, ``finish`` (-1 = never) and ``complete_t`` in invocation-id
    order.  ``complete_t`` is the completion tick (last send, or the start
    tick for invocations that never trigger a send), or -1 when activity
    past the horizon cannot be ruled out.
    """
    state = int(state)
    # trig_x: ticks at which a heartbeat reaches x, the triggers of x's walks
    hb_count_p, trig_q, last_trigger_q = _heartbeats(state, 0, gamma, tau, delta,
                                                     horizon, t_p, t_q)
    hb_count_q, trig_p, last_trigger_p = _heartbeats(state, hb_count_p, gamma, tau,
                                                     delta, horizon, t_q, t_p)
    used = hb_count_p + hb_count_q
    start, sender, n_coins = _invocations(state, used, sigma, horizon, t_p, t_q)
    # the per-invocation loss coins follow, walk by walk
    state = (state + (used + n_coins) * _GOLDEN) & _MASK

    first = np.where(sender == 0, np.searchsorted(trig_p, start),
                     np.searchsorted(trig_q, start))
    # per sender: inbound heartbeat ticks and their count, own and peer
    # crash ticks, last trigger
    side = ((memoryview(trig_p), trig_p.size, t_p, t_q, last_trigger_p),
            (memoryview(trig_q), trig_q.size, t_q, t_p, last_trigger_q))
    last_tick = horizon - 1
    n_send, finish, complete = [], [], []
    for s, x, j in zip(start.tolist(), sender.tolist(), first.tolist()):
        trig, n_trig, t_snd, t_rcv, last_trig = side[x]
        stop = _NEVER
        msgs = 0
        acks = 0
        last_send = -1
        fin = -1
        pending = False
        while j < n_trig:
            u_t = trig[j]
            if u_t >= t_snd or u_t >= stop:
                break
            msgs += 1
            if u_t > last_send:
                last_send = u_t
            state, u = _step(state)
            arr = u_t + tau
            if u >= gamma and arr < t_rcv:
                # delivered to a receiver still up
                if arr > last_tick:
                    pending = True  # would be acknowledged past the horizon
                else:
                    if fin < 0:
                        fin = arr
                    acks += 1
                    if arr > last_send:
                        last_send = arr
                    state, u2 = _step(state)
                    arr2 = arr + tau
                    if u2 >= gamma and arr2 <= last_tick and arr2 < stop:
                        stop = arr2
            j += 1

        sender_stopped = stop <= last_tick or t_snd <= last_tick
        future_trigger = t_rcv > last_tick or last_trig > last_tick
        incomplete = pending or (not sender_stopped and future_trigger)
        n_send.append(msgs + acks)
        finish.append(fin)
        complete.append(-1 if incomplete else (last_send if last_send >= 0 else s))

    # the wait ends at the first crash, the finish, or the horizon
    finish = np.array(finish, np.int64)
    first_crash = min(t_p, t_q)
    wait_end = np.minimum(np.where((finish >= 0) & (finish < first_crash), finish,
                                   first_crash), horizon)
    arrays = {
        "start": start, "sender": sender, "n_send": np.array(n_send, np.int64),
        "wait": np.maximum(wait_end - start, 0), "finish": finish,
        "complete_t": np.array(complete, np.int64),
    }
    return arrays, hb_count_p, hb_count_q


def _repeated_reduce(inv_nsend, inv_wait, inv_complete,
                     t_p, t_q, delta, horizon, c_send, c_wait):
    """Average-cost summary of one repeated run.

    Returns (n_complete, cost_completed, hb_total, ratio_at_horizon,
    running_sup).  Between completions only heartbeats move the ratio, and
    they raise it, so the running sup is evaluated just before and at each
    completion tick, and at the end of the run.
    """
    times, c_done = completed_cost(inv_nsend, inv_wait, inv_complete,
                                   c_send, c_wait)
    m = times.size
    # the end of the run counts every completion, even one past the horizon
    end = max(horizon, int(times[-1])) if m else horizon
    ticks = np.concatenate((times - 1, times, [end]))
    _, _, n_hb, ratio = avg_cost_at(ticks, times, c_done, t_p, t_q, delta,
                                    horizon, c_send)
    sup = max(0.0, float(ratio.max()))
    return m, float(c_done[-1]), int(n_hb[-1]), float(ratio[-1]), sup


# ---------------------------------------------------------------------------
# python-side wrappers (the only entry points the rest of the package uses)

def next_unit(state):
    """Advance the shared splitmix64 stream; returns (state, float in [0,1)).

    State is re-coerced to uint64 on entry: compiled callees box their uint64
    returns as python ints, which must not be re-typed as int64 on the way
    back in.
    """
    with np.errstate(over="ignore"):
        return _next_unit(seed_state(state))


def sample_lifetime(state, alpha, beta):
    """Draw a crash tick (-1 = never) from the stream; returns (state, tick)."""
    with np.errstate(over="ignore"):
        return _sample_lifetime(seed_state(state), alpha, beta)


def single_batch(proto_code, params, horizon, seeds,
                 force_tp=-1, force_tq=-1, force_loss_until=0, ack_base=2.0):
    """Run a batch of independent single-invocation runs; returns metric arrays.

    Censoring conventions: t_p/t_q/t_f hold horizon+1 when the event does not
    occur within the window; ``active`` is 1 when the run was truncated while
    the protocol could still send.
    """
    horizon = _checked_horizon(horizon)
    n = seeds.shape[0]
    out_tp = np.empty(n, np.int64)
    out_tq = np.empty(n, np.int64)
    out_tf = np.empty(n, np.int64)
    out_nsend = np.empty(n, np.int64)
    out_nhb = np.empty(n, np.int64)
    out_active = np.empty(n, np.int64)
    out_quiesce = np.empty(n, np.int64)
    with np.errstate(over="ignore"):
        _single_batch(proto_code, params.alpha_p, params.alpha_q,
                      params.beta_p, params.beta_q, params.gamma,
                      int(params.tau), int(params.delta), float(ack_base),
                      horizon, seeds,
                      int(force_tp), int(force_tq), int(force_loss_until),
                      out_tp, out_tq, out_tf, out_nsend, out_nhb,
                      out_active, out_quiesce)
    return {
        "t_p": out_tp, "t_q": out_tq, "t_f": out_tf,
        "n_send": out_nsend, "n_hb": out_nhb,
        "active": out_active, "quiesce_t": out_quiesce,
    }


def _checked_horizon(horizon):
    horizon = int(horizon)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    return horizon


def _repeated_one(params, horizon, seed):
    # lifetimes from the head of the stream, then the run on the rest
    state, raw_p = sample_lifetime(seed, params.alpha_p, params.beta_p)
    state, raw_q = sample_lifetime(state, params.alpha_q, params.beta_q)
    tp = _NEVER if raw_p < 0 else int(raw_p)
    tq = _NEVER if raw_q < 0 else int(raw_q)
    arrays, hb_p, hb_q = _repeated_run(params.gamma, int(params.tau),
                                       int(params.delta), params.sigma,
                                       horizon, state, tp, tq)
    return arrays, hb_p, hb_q, tp, tq


def repeated_batch(params, costs, horizon, seeds):
    """Run a batch of repeated-mode runs; returns per-run average-cost arrays."""
    horizon = _checked_horizon(horizon)
    n = seeds.shape[0]
    out = {
        "ratio": np.empty(n, np.float64),
        "sup": np.empty(n, np.float64),
        "n_inv": np.empty(n, np.int64),
        "n_complete": np.empty(n, np.int64),
        "n_hb": np.empty(n, np.int64),
        "t_p": np.empty(n, np.int64),
        "t_q": np.empty(n, np.int64),
    }
    for r in range(n):
        arrays, hb_p, hb_q, tp, tq = _repeated_one(params, horizon, seeds[r])
        n_complete, _c_done, _hb_tot, ratio_h, sup = _repeated_reduce(
            arrays["n_send"], arrays["wait"], arrays["complete_t"],
            tp, tq, int(params.delta), horizon, costs.c_send, costs.c_wait)
        out["ratio"][r] = ratio_h
        out["sup"][r] = sup
        out["n_inv"][r] = arrays["start"].size
        out["n_complete"][r] = n_complete
        out["n_hb"][r] = hb_p + hb_q
        out["t_p"][r] = min(tp, horizon + 1)
        out["t_q"][r] = min(tq, horizon + 1)
    return out


def repeated_run_arrays(params, horizon, seed):
    """Single repeated-mode run with full per-invocation detail.

    Returns (n_inv, arrays dict, hb_count_p, hb_count_q, t_p, t_q) with the
    crash ticks capped at horizon+1.
    """
    horizon = _checked_horizon(horizon)
    arrays, hb_p, hb_q, tp, tq = _repeated_one(params, horizon, seed)
    big = horizon + 1
    return arrays["start"].size, arrays, hb_p, hb_q, min(tp, big), min(tq, big)


def completed_cost(inv_nsend, inv_wait, inv_complete, c_send, c_wait):
    """Completion ticks of the certified invocations in increasing order, and
    ``c_done`` where ``c_done[k]`` is the c0 of the first k of them.

    Invocations completing on the same tick are taken in ``np.argsort``
    order, and the sum runs sequentially in that order, so every caller
    adds fractional costs identically.
    """
    done = inv_complete >= 0
    times = inv_complete[done]
    order = np.argsort(times)
    cost = inv_nsend[done] * c_send + inv_wait[done] * c_wait
    return times[order], np.append(0.0, np.cumsum(cost[order]))


def avg_cost_at(ticks, times, c_done, t_p, t_q, delta, horizon, c_send):
    """The repeated-mode average cost per invocation at each of ``ticks``.

    ``times`` and ``c_done`` come from ``completed_cost``.  At tick t,
    c_total is the c0 of the invocations completed by t plus the cost of
    every heartbeat sent by t, and the ratio divides it by (completions + 1)
    so the denominator is never zero.  Returns the arrays (c_total,
    num_completed, num_hb, ratio).
    """
    k = np.searchsorted(times, ticks, side="right")
    n_hb = _hb_upto(ticks, t_p, delta, horizon) + _hb_upto(ticks, t_q, delta, horizon)
    c_total = c_done[k] + n_hb * c_send
    return c_total, k, n_hb, c_total / (k + 1)


def hb_sends_upto(t, t_x, delta, horizon):
    """Closed-form heartbeat send count of one process up to time t."""
    return int(_hb_upto(int(t), int(t_x), int(delta), int(horizon)))
