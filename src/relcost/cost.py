"""Random variables extracted from traces and the three cost functions.

Censoring convention: a quantity that cannot be determined from the simulated
window is reported as None rather than a number, and estimators must count
such runs instead of silently folding them into means.  The exponential cost
c1 is the one exception: a censored or infinite wait makes it the inf
sentinel, matching its role as an unbounded penalty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .engine import RepeatedTrace, RunTrace
from .model import CostParams
from .protocols import HBMSG


@dataclass(frozen=True)
class CostBreakdown:
    num_sends: int | None     # protocol sends, heartbeats excluded
    wait: int | None          # receiver waiting time, crash-truncated
    c0: float | None          # linear cost
    c1: float | None          # exponential waiting penalty (may be inf)


def t_wait(trace: RunTrace) -> int | None:
    """Waiting time max(min(t_p, t_q, t_f), t_s) - t_s; None when every one
    of t_p, t_q, t_f lies beyond the horizon (censored)."""
    m = min(trace.t_p, trace.t_q, trace.t_f)
    if m > trace.horizon:
        return None
    return max(m, trace.t_s) - trace.t_s


def num_sends(trace: RunTrace) -> int | None:
    """Protocol send count (msg/ack/req; heartbeats excluded); None when the
    run was truncated while still active, since more sends could follow."""
    if trace.truncated:
        return None
    return sum(1 for r in trace.messages if r.kind != HBMSG)


def num_sends_truncated(trace: RunTrace) -> int:
    """Send count up to the horizon regardless of truncation (probe use)."""
    return sum(1 for r in trace.messages if r.kind != HBMSG)


def cost_c0(trace: RunTrace, costs: CostParams) -> float | None:
    s = num_sends(trace)
    w = t_wait(trace)
    if s is None or w is None:
        return None
    return s * costs.c_send + w * costs.c_wait


def cost_c1(trace: RunTrace, costs: CostParams) -> float:
    w = t_wait(trace)
    if w is None:
        return math.inf
    return costs.n_exp ** w


def breakdown(trace: RunTrace, costs: CostParams) -> CostBreakdown:
    return CostBreakdown(
        num_sends=num_sends(trace),
        wait=t_wait(trace),
        c0=cost_c0(trace, costs),
        c1=cost_c1(trace, costs),
    )


def avg_cost_series(trace: RepeatedTrace, costs: CostParams):
    """Average-cost-per-invocation series of a repeated run.

    One point per event tick: every completion tick and every heartbeat
    send tick, in increasing order.  The values come from
    ``kernels.avg_cost_at``, the definition ``compare`` uses too:
    c_total(t) is the c0 of the invocations completed by t plus the cost of
    every heartbeat sent by t, and the ratio divides it by (completions + 1).
    Invocations completing on the same tick are added in ``np.argsort``
    order of their completion ticks, taken in invocation-id order.

    Returns (points, running_sup): ``points`` is a record array with the
    fields t, c_total, num_completed, num_hb and ratio; the running sup is
    the finite-horizon stand-in for the limit-superior cost.
    """
    invs = trace.invocations
    times, c_done = kernels.completed_cost(
        np.array([r.n_send for r in invs], np.int64),
        np.array([r.wait for r in invs], np.int64),
        np.array([r.complete_t for r in invs], np.int64),
        costs.c_send, costs.c_wait)
    # both processes send heartbeats at 0, delta, ... while alive
    hb_end = min(max(trace.t_p, trace.t_q), trace.horizon)
    ticks = np.union1d(times, np.arange(0, hb_end, trace.delta))
    columns = kernels.avg_cost_at(ticks, times, c_done, trace.t_p, trace.t_q,
                                  trace.delta, trace.horizon, costs.c_send)
    points = np.rec.fromarrays((ticks, *columns),
                               names="t,c_total,num_completed,num_hb,ratio")
    sup = max(0.0, float(points.ratio.max())) if len(points) else 0.0
    return points, sup


def series_to_csv(points, fh) -> None:
    """CSV emission, '.' decimal, stable column order."""
    fh.write("t,c_total,num_completed,num_hb,ratio\n")
    # python numbers, column by column: repr of a numpy float is not a
    # plain number
    rows = zip(*(points[name].tolist() for name in points.dtype.names))
    fh.writelines(f"{t},{c!r},{k},{h},{r!r}\n" for t, c, k, h, r in rows)
