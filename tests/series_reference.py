"""Event-loop reference for the repeated-mode average-cost series.

This is the loop that ``relcost.cost.avg_cost_series`` ran before the series
was computed from the kernel's definition.  It walks the event ticks one by
one and adds completions in (tick, cost) order, so fractional costs tied on
a tick may be summed in another order than the package sums them; with
integer-valued costs every sum is exact and the two agree bit for bit.
"""


def _hb_send_times(crash_t, delta, horizon):
    # a process sends heartbeats at local times 0, delta, ... while alive
    return list(range(0, min(crash_t, horizon), delta))


def avg_cost_series(trace, costs):
    """(points, running_sup); each point is the tuple (t, c_total,
    num_completed, num_hb, ratio)."""
    completions = sorted(
        (r.complete_t, r.n_send * costs.c_send + r.wait * costs.c_wait)
        for r in trace.invocations if r.complete_t >= 0
    )
    hb_times = sorted(
        _hb_send_times(trace.t_p, trace.delta, trace.horizon)
        + _hb_send_times(trace.t_q, trace.delta, trace.horizon)
    )
    event_times = sorted({t for t, _ in completions} | set(hb_times))
    points = []
    sup = 0.0
    ci = hi = 0
    c_done = 0.0
    k_done = 0
    n_hb = 0
    for t in event_times:
        while ci < len(completions) and completions[ci][0] <= t:
            c_done += completions[ci][1]
            k_done += 1
            ci += 1
        while hi < len(hb_times) and hb_times[hi] <= t:
            n_hb += 1
            hi += 1
        c_total = c_done + n_hb * costs.c_send
        ratio = c_total / (k_done + 1)
        if ratio > sup:
            sup = ratio
        points.append((t, c_total, k_done, n_hb, ratio))
    return points, sup
