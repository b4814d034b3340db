"""Hot simulation kernels: the single-mode tick loop and the repeated-mode run.

All randomness of a run flows through one explicit splitmix64 stream (no
numpy RNG state involved).  The stream is a counter generator: after state S,
draw k is mix(S + k*GOLDEN) (Steele, Lea & Flood, "Fast splittable
pseudorandom number generators", OOPSLA 2014).  A run's stream is therefore
fully described by its seed and a counter of the draws taken so far, and any
stretch of draws whose count is known in advance can be computed at once,
without stepping through the draws before it.

Both modes are numpy code; there is one lane per mode, and ``tests/`` keeps
the earlier scalar kernels as the references they are checked against.

Single mode runs every run of a batch in one numpy loop over ticks.  Its
arrays hold the state of each live run, one element per run: the seed, the
draw counter, the crash ticks, the counts, and ring buffers of length tau+1
for the messages in flight.  On each tick, only the runs that draw compute a
coin, at their own counter, so every run sees the draws of its own stream in
the documented order however the batch around it behaves.  Runs leave the
arrays as they go quiescent.  Fast-forward ends the long dead-peer tails:
once the peer is dead and nothing is in flight that could change the live
process's course, its remaining sends are fixed, so they are counted in
closed form and the run ends at the tick it would have gone quiescent.

Repeated mode computes its heartbeat and invocation coins through the
counter identity, in numpy passes of at most ``_BLOCK`` draws.  The
per-invocation walks, whose draw counts depend on earlier draws, step the
stream on python ints and jump from one inbound heartbeat to the next.

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

import numpy as np

# There is no compiled backend.  The benchmark records name the backend from
# this flag, so it stays, always False.
NUMBA_ENABLED = False

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_UNIT = 1.1102230246251565e-16  # 2**-53: 53 high bits to a float in [0, 1)

# the same constants as numpy scalars, for the array code
_ONE = np.uint64(1)
_GOLDEN_U64 = np.uint64(_GOLDEN)
_MIX_STEPS = ((np.uint64(30), np.uint64(0xBF58476D1CE4E5B9)),
              (np.uint64(27), np.uint64(0x94D049BB133111EB)))
_MIX_LAST = np.uint64(31)
_UNIT_SHIFT = np.uint64(11)

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


def _step(state):
    # one draw on python ints; returns (new_state, unit float in [0, 1))
    state = (state + _GOLDEN) & _MASK
    return state, (_mix(state) >> 11) * _UNIT


def _mix_array(z, tmp):
    """The splitmix64 finalizer over a uint64 array, in place; ``tmp`` is
    scratch of the same shape."""
    for shift, mult in _MIX_STEPS:
        np.right_shift(z, shift, out=tmp)
        z ^= tmp
        z *= mult
    np.right_shift(z, _MIX_LAST, out=tmp)
    z ^= tmp
    return z


def _units(z):
    """Unit floats of the draws at stream positions ``z`` (uint64, each
    seed + count*GOLDEN); overwrites z."""
    tmp = np.empty_like(z)
    _mix_array(z, tmp)
    z >>= _UNIT_SHIFT
    u = tmp.view(np.float64)
    np.copyto(u, z, casting="unsafe")
    u *= _UNIT
    return u


def derive_run_seed(master: int, index: int) -> int:
    """Per-run substream seed: draw index+1 of the splitmix64 stream at
    ``master``, unscaled.

    Pure python on purpose: the exact scalar definition that ``make_seeds``
    computes in bulk.
    """
    return _mix((int(master) + (int(index) + 1) * _GOLDEN) & _MASK)


def make_seeds(master: int, start: int, count: int) -> np.ndarray:
    """uint64 seed array for runs [start, start+count) of a master seed."""
    z = np.arange(count, dtype=np.uint64)
    z *= _GOLDEN_U64
    z += np.uint64((int(master) + (int(start) + 1) * _GOLDEN) & _MASK)
    return _mix_array(z, np.empty_like(z))


def seed_state(seed: int) -> np.uint64:
    return np.uint64(int(seed) & _MASK)


# ---------------------------------------------------------------------------
# single mode: one numpy tick loop over the live runs of a batch

def _draw(seed, k, idx):
    """Unit floats of the next draw of runs ``idx``; advances their counters."""
    z = k[idx] + _ONE
    k[idx] = z
    z *= _GOLDEN_U64
    z += seed[idx]
    return _units(z)


def _crash_ticks(seed, k, force, alpha, beta, horizon):
    """Crash ticks of a batch, horizon+1 meaning none within the window.

    A forced tick (>= 0) takes no draws.  Otherwise each run draws at its
    counter: one coin against alpha, then for a faulty process a second
    draw for the geometric lifetime, floored exactly as the engine floors
    it (``math.log1p``: numpy's log1p differs in the last bit for some
    inputs).
    """
    big = horizon + 1
    if force >= 0:
        return np.full(seed.size, min(force, big), np.int64)
    t = np.full(seed.size, big, np.int64)
    faulty = np.flatnonzero(~(_draw(seed, k, slice(None)) < alpha))
    if beta >= 1.0:
        t[faulty] = 0
    elif faulty.size:
        u = _draw(seed, k, faulty)
        np.negative(u, out=u)
        ticks = np.fromiter(map(math.log1p, u.tolist()), np.float64, u.size)
        ticks /= math.log1p(-beta)
        np.floor(ticks, out=ticks)
        t[faulty] = np.minimum(ticks, big)
    return t


def _multiples(a, b, d):
    # how many multiples of d lie in [a, b), for b >= a
    return (b + d - 1) // d - (a + d - 1) // d


class _Runs:
    """The live runs of a single-mode batch, one array element per run.

    ``cols`` names every per-run array; the ring buffers (``rings``, one row
    per tick modulo tau+1) keep the run on their last axis.  A run that goes
    quiescent has its results written to ``out`` and leaves every column.
    Subclasses are the five protocols: ``tick(t)`` plays tick t for every
    live run and returns the runs that end there.
    """

    rings = ()      # int16 message counts in flight, by arrival tick
    counters = ()   # int64 per-run counts, starting at 0
    flags = ()      # bool per-run flags, starting False

    def __init__(self, seed, k, t_p, t_q, horizon, gamma, tau, delta, flu,
                 ack_base):
        n = seed.size
        self.horizon, self.gamma, self.tau, self.delta = horizon, gamma, tau, delta
        self.flu = flu  # every send before this tick is lost
        self.ack_base = ack_base
        self.ring_len = tau + 1
        self.id = np.arange(n)
        self.seed, self.k, self.t_p, self.t_q = seed, k, t_p, t_q
        self.t_f = np.full(n, horizon + 1, np.int64)
        self.n_send = np.zeros(n, np.int64)
        self.cols = ["id", "seed", "k", "t_p", "t_q", "t_f", "n_send"]
        for name in self.rings:
            self._add(name, np.zeros((self.ring_len, n), np.int16))
        for name in self.counters:
            self._add(name, np.zeros(n, np.int64))
        for name in self.flags:
            self._add(name, np.zeros(n, bool))
        self.out = {"t_f": self.t_f.copy(), "n_send": self.n_send.copy(),
                    "quiesce_t": np.full(n, -1, np.int64)}

    def _add(self, name, arr):
        setattr(self, name, arr)
        self.cols.append(name)

    def run(self):
        for t in range(self.horizon):
            if not self.id.size:
                break
            ended, quiesce_t = self.tick(t)
            if ended.any():
                self._end(ended, quiesce_t)
        self._end(np.ones(self.id.size, bool), -1)
        return self.out

    def _end(self, ended, quiesce_t):
        # record the ended runs and drop them from every column
        ids = self.id[ended]
        for name in ("t_f", "n_send"):
            self.out[name][ids] = getattr(self, name)[ended]
        self.out["quiesce_t"][ids] = (quiesce_t[ended] if np.ndim(quiesce_t)
                                      else quiesce_t)
        keep = np.flatnonzero(~ended)
        for name in self.cols:
            setattr(self, name, getattr(self, name).take(keep, axis=-1))

    def arrivals(self, t, *names):
        """Rows of the named rings arriving at tick t.  Each row is read
        here and zeroed, so its slot is free for the sends of tick t."""
        row = t % self.ring_len
        rows = []
        for name in names:
            ring = getattr(self, name)
            rows.append(ring[row].copy())
            ring[row] = 0
        return rows

    def send(self, idx, t, ring, inflight=None):
        """Runs ``idx`` send one protocol message each at tick t."""
        if idx.size:
            self.n_send[idx] += 1
            self.transmit(idx, t, ring, inflight)

    def transmit(self, idx, t, ring, inflight=None):
        """Runs ``idx`` put one message each on the link at tick t.  Each
        draws one loss coin; a delivered one lands in ``ring`` tau ticks
        later and counts in ``inflight``."""
        if t < self.flu:
            self.k[idx] += _ONE
            return
        ok = idx[~(_draw(self.seed, self.k, idx) < self.gamma)]
        ring[(t + self.tau) % self.ring_len, ok] += 1
        if inflight is not None:
            inflight[ok] += 1

    def heartbeats(self, alive):
        # one heartbeat from each live process; its coin is drawn but unread
        self.k += alive

    def finish(self, idx, t):
        # the payload reaches the receiver of runs idx at tick t
        first = idx[self.t_f[idx] > t]
        self.t_f[first] = t

    def ending(self, t, quiet, tail, crash, every):
        """The runs that end at tick t: the ``quiet`` ones, and those in a
        dead-peer ``tail``.  In a tail, only one process still acts, its
        sends are fixed, and it ends at its ``crash`` tick: a protocol send
        at every ``every``-th tick before it (and before the horizon) is
        added in closed form.  The run's stream is not advanced, since
        nothing reads it again.

        Returns (ended mask, quiesce_t per run or one tick)."""
        if not tail.any():
            return quiet, t
        quiesce_t = np.full(tail.size, t, np.int64)
        until = crash[tail]
        end = np.minimum(until, self.horizon)
        self.n_send[tail] += _multiples(t + 1, end, every)
        quiesce_t[tail] = np.where(until < self.horizon, until, -1)
        return quiet | tail, quiesce_t


class _Trivial(_Runs):
    # nothing but heartbeats: every run ends at tick 0
    def tick(self, t):
        return np.ones(self.id.size, bool), t


class _Sender(_Runs):
    # p retransmits every delta ticks until an ack arrives; q acks each copy
    rings = ("msg", "ack")
    counters = ("in_msg", "in_ack")
    flags = ("ack_seen",)

    def tick(self, t):
        p_up, q_up = t < self.t_p, t < self.t_q
        d_msg, d_ack = self.arrivals(t, "msg", "ack")
        self.in_msg -= d_msg
        self.in_ack -= d_ack
        self.ack_seen |= p_up & (d_ack > 0)
        beat = t % self.delta == 0
        if beat:
            self.send(np.flatnonzero(p_up & ~self.ack_seen), t, self.msg, self.in_msg)
            self.heartbeats(p_up)
        got = np.flatnonzero(q_up & (d_msg > 0))
        if got.size:
            self.finish(got, t)
            self.send(got, t, self.ack, self.in_ack)
        if beat:
            self.heartbeats(q_up)
        quiet = (self.ack_seen | ~p_up) & ((self.in_msg == 0) | ~q_up)
        # q is dead for good and no ack can reach p: p sends until it crashes
        tail = ((self.t_q <= t + 1) & (self.t_p > t + 1) & ~self.ack_seen
                & (self.in_ack == 0))
        return self.ending(t, quiet, tail, self.t_p, self.delta)


class _Receiver(_Runs):
    # q requests every delta ticks until the payload arrives; p answers each
    rings = ("msg", "req")
    counters = ("in_msg", "in_req")

    def tick(self, t):
        p_up, q_up = t < self.t_p, t < self.t_q
        d_msg, d_req = self.arrivals(t, "msg", "req")
        self.in_msg -= d_msg
        self.in_req -= d_req
        self.send(np.flatnonzero(p_up & (d_req > 0)), t, self.msg, self.in_msg)
        beat = t % self.delta == 0
        if beat:
            self.heartbeats(p_up)
        got = np.flatnonzero(q_up & (d_msg > 0))
        if got.size:
            self.finish(got, t)
        waiting = self.t_f > t
        if beat:
            self.send(np.flatnonzero(q_up & waiting), t, self.req, self.in_req)
            self.heartbeats(q_up)
        quiet = (~waiting | ~q_up) & ((self.in_req == 0) | ~p_up)
        # p is dead for good and no payload is on its way: q asks until it
        # crashes
        tail = ((self.t_p <= t + 1) & (self.t_q > t + 1) & waiting
                & (self.in_msg == 0))
        return self.ending(t, quiet, tail, self.t_q, self.delta)


class _Srhb(_Runs):
    # p sends a copy on each heartbeat from q until an ack arrives
    rings = ("msg", "ack", "hbp")
    counters = ("in_msg", "in_hbp")
    flags = ("ack_seen",)

    def tick(self, t):
        p_up, q_up = t < self.t_p, t < self.t_q
        d_msg, d_ack, d_hbp = self.arrivals(t, "msg", "ack", "hbp")
        self.in_msg -= d_msg
        self.in_hbp -= d_hbp
        self.ack_seen |= p_up & (d_ack > 0)
        self.send(np.flatnonzero(p_up & ~self.ack_seen & (d_hbp > 0)), t,
                  self.msg, self.in_msg)
        beat = t % self.delta == 0
        if beat:
            self.heartbeats(p_up)
        got = np.flatnonzero(q_up & (d_msg > 0))
        if got.size:
            self.finish(got, t)
            self.send(got, t, self.ack)
        if beat:
            # q's heartbeats reach p and drive it, so their coins are read
            self.transmit(np.flatnonzero(q_up), t, self.hbp, self.in_hbp)
        p_can = p_up & ~self.ack_seen & (q_up | (self.in_hbp > 0))
        return ~p_can & ((self.in_msg == 0) | ~q_up), t


class _Pathological(_Runs):
    """p sends every tick until an ack arrives; q acks its k-th received
    copy ceil(ack_base**k) ticks after receiving it.

    ``fires[k-1]`` holds the pending ack tick of copy k (``_NEVER`` once
    fired, or when not scheduled) and ``next_fire`` the earliest of them.
    Copies whose ack would fall at or past the horizon are only flagged
    ``far``.  ``delays[k-1]`` is ceil(ack_base**k) for every k whose ack
    can land in the window.
    """

    rings = ("msg", "ack")
    counters = ("in_msg", "in_ack", "k_rx")
    flags = ("ack_seen", "far")

    def __init__(self, *args):
        super().__init__(*args)
        log_ab = math.log(self.ack_base)
        log_window = math.log(float(self.horizon + 1))
        delays = []
        # at most one copy arrives per tick, so k stays below the horizon
        while len(delays) < self.horizon and not (len(delays) + 1) * log_ab > log_window:
            delays.append(math.ceil(self.ack_base ** (len(delays) + 1)))
        self.delays = np.array(delays, np.int64)
        self._add("next_fire", np.full(self.id.size, _NEVER, np.int64))
        self._add("fires", np.full((min(len(delays), 16), self.id.size), _NEVER,
                                   np.int64))

    def schedule(self, idx, t):
        # runs idx receive one more copy at tick t: schedule its ack
        k = self.k_rx[idx] + 1
        self.k_rx[idx] = k
        fire = np.full(idx.size, _NEVER, np.int64)
        near = k <= self.delays.size
        fire[near] = t + self.delays[k[near] - 1]
        due = fire <= self.horizon - 1
        self.far[idx[~due]] = True
        idx, k, fire = idx[due], k[due], fire[due]
        if not idx.size:
            return
        rows = self.fires.shape[0]
        if k.max() > rows:
            grown = np.full((min(2 * k.max(), self.delays.size), self.id.size),
                            _NEVER, np.int64)
            grown[:rows] = self.fires
            self.fires = grown
        self.fires[k - 1, idx] = fire
        self.next_fire[idx] = np.minimum(self.next_fire[idx], fire)

    def tick(self, t):
        p_up, q_up = t < self.t_p, t < self.t_q
        d_msg, d_ack = self.arrivals(t, "msg", "ack")
        self.in_msg -= d_msg
        self.in_ack -= d_ack
        self.ack_seen |= p_up & (d_ack > 0)
        self.send(np.flatnonzero(p_up & ~self.ack_seen), t, self.msg, self.in_msg)
        beat = t % self.delta == 0
        if beat:
            self.heartbeats(p_up)
        got = np.flatnonzero(q_up & (d_msg > 0))
        if got.size:
            self.finish(got, t)
            self.schedule(got, t)
        # At most one ack falls due per tick: copy k+1 arrives at least one
        # tick after copy k, and ceil(ack_base**k) does not decrease in k,
        # so the fire ticks strictly increase in k.
        due = np.flatnonzero(q_up & (self.next_fire == t))
        if due.size:
            self.send(due, t, self.ack, self.in_ack)
            self.fires[self.fires[:, due].argmin(axis=0), due] = _NEVER
            self.next_fire[due] = self.fires[:, due].min(axis=0)
        if beat:
            self.heartbeats(q_up)
        q_done = (self.next_fire == _NEVER) & ~self.far
        quiet = ((self.ack_seen | ~p_up) & ((self.in_msg == 0) | ~q_up)
                 & (q_done | ~q_up))
        # q is dead for good and no ack can reach p: p sends until it crashes
        tail = ((self.t_q <= t + 1) & (self.t_p > t + 1) & ~self.ack_seen
                & (self.in_ack == 0))
        return self.ending(t, quiet, tail, self.t_p, 1)


_PROTOCOLS = {_TRIVIAL: _Trivial, _SENDER: _Sender, _RECEIVER: _Receiver,
              _SRHB: _Srhb, _PATHOLOGICAL: _Pathological}


# ---------------------------------------------------------------------------
# repeated mode: numpy over counter-based draws

# the most draws one numpy pass computes; bounds a run's scratch memory
_BLOCK = 1 << 12


def _unit_draws(state, first, n):
    """Unit floats of draws first+1 ... first+n of the stream at ``state``."""
    z = np.arange(first + 1, first + n + 1, dtype=np.uint64)
    z *= _GOLDEN_U64
    z += np.uint64(state)
    return _units(z)


def _blocks(n):
    # (offset, size) of the numpy passes over n draws
    return ((b, min(_BLOCK, n - b)) for b in range(0, n, _BLOCK))


def _hb_upto(t, t_x, delta, horizon):
    """Heartbeat sends of a process with crash tick t_x, counted up to time
    t; t and t_x may be arrays."""
    m = np.minimum(t, np.minimum(t_x, horizon) - 1)
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
    """Advance the shared splitmix64 stream; returns (state, float in [0,1))."""
    return _step(int(state) & _MASK)


def sample_lifetime(state, alpha, beta):
    """Draw a crash tick from the stream; returns (state, tick).

    -1 encodes "never crashes"; otherwise the tick is geometric on
    {0, 1, ...} with per-tick rate beta (a crash at tick 0 is possible).
    """
    state, u = next_unit(state)
    if u < alpha:
        return state, -1
    if beta >= 1.0:
        return state, 0
    state, u2 = _step(state)
    return state, math.floor(math.log1p(-u2) / math.log1p(-beta))


def single_batch(proto_code, params, horizon, seeds,
                 force_tp=-1, force_tq=-1, force_loss_until=0, ack_base=2.0):
    """Run a batch of independent single-invocation runs; returns metric arrays.

    Censoring conventions: t_p/t_q/t_f hold horizon+1 when the event does not
    occur within the window; ``active`` is 1 when the run was truncated while
    the protocol could still send.
    """
    horizon = _checked_horizon(horizon)
    delta = int(params.delta)
    seed = np.asarray(seeds, np.uint64)
    k = np.zeros(seed.size, np.uint64)  # draws taken, per run
    t_p = _crash_ticks(seed, k, int(force_tp), params.alpha_p, params.beta_p, horizon)
    t_q = _crash_ticks(seed, k, int(force_tq), params.alpha_q, params.beta_q, horizon)
    out = _PROTOCOLS[proto_code](
        seed, k, t_p, t_q, horizon, params.gamma, int(params.tau), delta,
        int(force_loss_until), float(ack_base)).run()
    quiesce_t = out["quiesce_t"]
    # every live process heartbeats at each multiple of delta, up to the
    # run's last tick
    last = np.where(quiesce_t < 0, horizon - 1, quiesce_t)
    return {
        "t_p": t_p, "t_q": t_q, "t_f": out["t_f"], "n_send": out["n_send"],
        "n_hb": _hb_upto(last, t_p, delta, horizon) + _hb_upto(last, t_q, delta, horizon),
        "active": (quiesce_t < 0).astype(np.int64), "quiesce_t": quiesce_t,
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
