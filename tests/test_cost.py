import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import series_reference as ref
from relcost import analysis, cost, engine, kernels
from relcost.engine import InvocationRecord, RepeatedTrace, RunTrace
from relcost.model import CostParams, ProtocolSpec, SystemParams


def trace_with(t_p, t_q, t_f, horizon=100, truncated=False, messages=()):
    return RunTrace(protocol="sender", seed=0, horizon=horizon, t_s=0,
                    t_p=t_p, t_q=t_q, t_f=t_f, quiesce_t=None if truncated else 0,
                    truncated=truncated, messages=list(messages), events=[])


def test_t_wait_finish_dominates():
    assert cost.t_wait(trace_with(101, 101, 3)) == 3


def test_t_wait_crash_truncates():
    assert cost.t_wait(trace_with(5, 101, 101)) == 5


def test_t_wait_censored_when_everything_is_beyond_horizon():
    assert cost.t_wait(trace_with(101, 101, 101)) is None


def _msg(kind, t, sender="p"):
    return engine.MessageRecord(sender=sender, kind=kind, inv=0, send_time=t,
                                lost=False, deliver_time=t + 1, delivered=True)


def test_num_sends_excludes_heartbeats():
    msgs = [_msg("msg", 0), _msg("hbmsg", 0), _msg("ack", 3, "q"),
            _msg("hbmsg", 2, "q"), _msg("req", 1, "q")]
    assert cost.num_sends(trace_with(101, 101, 3, messages=msgs)) == 3


def test_num_sends_censored_when_truncated_active():
    msgs = [_msg("msg", 0)]
    tr = trace_with(101, 101, 101, truncated=True, messages=msgs)
    assert cost.num_sends(tr) is None
    assert cost.num_sends_truncated(tr) == 1


def test_cost_c0_examples():
    c = CostParams(1.0, 1.0)
    msgs = [_msg("msg", t) for t in (0, 2, 4)] + [_msg("ack", t, "q") for t in (3, 5, 7)]
    assert cost.cost_c0(trace_with(101, 101, 3, messages=msgs), c) == 9.0
    # sends=0, wait=49, c_send=5, c_wait=2 -> 98
    assert cost.cost_c0(trace_with(49, 101, 101), CostParams(5.0, 2.0)) == 98.0
    assert cost.cost_c0(trace_with(101, 101, 101), c) is None


@given(k=st.floats(0.001, 1000), sends=st.integers(0, 50), wait=st.integers(0, 50))
def test_cost_c0_is_linear_in_the_cost_constants(k, sends, wait):
    msgs = [_msg("msg", 0)] * sends
    tr = trace_with(wait, 101, 101, messages=msgs)
    base = cost.cost_c0(tr, CostParams(1.0, 1.0))
    scaled = cost.cost_c0(tr, CostParams(k, k))
    assert scaled == pytest.approx(k * base)


def test_cost_c1_examples():
    assert cost.cost_c1(trace_with(101, 101, 3), CostParams(1, 1, n_exp=2.0)) == 8.0
    assert cost.cost_c1(trace_with(101, 101, 0), CostParams(1, 1, n_exp=2.0)) == 1.0
    assert cost.cost_c1(trace_with(101, 101, 101), CostParams(1, 1, n_exp=2.0)) == math.inf


def test_deterministic_runs_cost_exactly_the_closed_value():
    # gamma=0, no crashes: c0 must equal the deterministic count with no tolerance
    c = CostParams(1.0, 1.0)
    p = SystemParams(alpha_p=1, alpha_q=1, beta_p=.5, beta_q=.5, gamma=0.0,
                     tau=3, delta=2)
    tr = engine.run_single(ProtocolSpec("sender"), p, 4, 64)
    assert cost.cost_c0(tr, c) == 6 + 3
    p2 = SystemParams(alpha_p=1, alpha_q=1, beta_p=.5, beta_q=.5, gamma=0.0,
                      tau=4, delta=3)
    tr2 = engine.run_single(ProtocolSpec("srhb"), p2, 4, 64)
    assert cost.cost_c0(tr2, c) == 6 + 8


def test_trivial_monte_carlo_cost_matches_crash_form():
    # oracle: expected wait (1-beta)/beta with beta = 0.0199, so mean c0 is
    # 49.2513 * c_wait
    p = SystemParams(alpha_p=0, alpha_q=0, beta_p=0.01, beta_q=0.01,
                     gamma=0.0, tau=1, delta=1)
    c = CostParams(c_send=3.0, c_wait=2.0)
    rep = analysis.estimate(ProtocolSpec("trivial"), p, c, "c0", 20000, 4096,
                            seed=2)
    expect = 2.0 * (1 - 0.0199) / 0.0199
    assert abs(rep.mean - expect) < 4 * rep.stderr + 1e-9


# --- repeated-mode series ----------------------------------------------------

def synthetic_repeated(invocations, horizon=100, delta=4, t_p=None, t_q=None):
    h1 = horizon + 1
    return RepeatedTrace(seed=0, horizon=horizon, delta=delta,
                         t_p=h1 if t_p is None else t_p,
                         t_q=h1 if t_q is None else t_q,
                         hb_count_p=0, hb_count_q=0,
                         invocations=invocations)


def test_series_with_no_invocations_is_heartbeats_over_one():
    tr = synthetic_repeated([], horizon=20, delta=4)
    points, sup = cost.avg_cost_series(tr, CostParams(2.0, 1.0))
    # both processes send at 0,4,8,12,16: ratio at t is (hb so far)*c_send
    assert [p.t for p in points] == [0, 4, 8, 12, 16]
    assert [p.ratio for p in points] == [p.num_hb * 2.0 for p in points]
    assert points[-1].num_hb == 10
    assert sup == points[-1].ratio


def test_series_single_invocation_halves_the_ratio():
    inv = InvocationRecord(inv=0, sender="p", start=2, n_send=4, wait=3,
                           finish=5, complete_t=7)
    tr = synthetic_repeated([inv], horizon=12, delta=6)
    c = CostParams(1.0, 1.0)
    points, _ = cost.avg_cost_series(tr, c)
    z = 4 * 1.0 + 3 * 1.0
    last = points[-1]
    assert last.num_completed == 1
    assert last.ratio == (z + last.num_hb * 1.0) / 2


def test_series_ratio_moves_only_through_heartbeats_after_activity_ends():
    inv = InvocationRecord(inv=0, sender="p", start=2, n_send=4, wait=3,
                           finish=5, complete_t=7)
    c = CostParams(1.0, 1.0)
    short = synthetic_repeated([inv], horizon=20, delta=4)
    long = synthetic_repeated([inv], horizon=40, delta=4)
    ps, _ = cost.avg_cost_series(short, c)
    pl, _ = cost.avg_cost_series(long, c)
    a, b = ps[-1], pl[-1]
    assert b.num_completed == a.num_completed
    assert b.c_total - a.c_total == (b.num_hb - a.num_hb) * c.c_send
    assert b.ratio >= a.ratio


def test_series_hb_count_matches_engine_counters():
    p = SystemParams(alpha_p=0, alpha_q=0, beta_p=0.03, beta_q=0.05,
                     gamma=0.1, tau=2, delta=3, sigma=0.1)
    for seed in range(20):
        tr = engine.run_repeated(p, seed, 512)
        points, _ = cost.avg_cost_series(tr, CostParams(1.0, 1.0))
        if len(points):
            assert points[-1].num_hb == tr.hb_count_p + tr.hb_count_q


def test_series_denominator_is_never_zero():
    tr = synthetic_repeated([], horizon=8, delta=2)
    points, _ = cost.avg_cost_series(tr, CostParams(1.0, 1.0))
    assert all(p.ratio == p.c_total / (p.num_completed + 1) for p in points)


def test_series_csv_roundtrip():
    inv = InvocationRecord(inv=0, sender="q", start=1, n_send=2, wait=2,
                           finish=3, complete_t=5)
    tr = synthetic_repeated([inv], horizon=10, delta=5)
    points, _ = cost.avg_cost_series(tr, CostParams(1.0, 1.0))
    buf = io.StringIO()
    cost.series_to_csv(points, buf)
    text = buf.getvalue()
    lines = text.strip().splitlines()
    assert lines[0] == "t,c_total,num_completed,num_hb,ratio"
    assert len(lines) == len(points) + 1
    first = lines[1].split(",")
    assert int(first[0]) == points[0].t
    assert float(first[4]) == points[0].ratio


prob = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
rate = st.one_of(st.just(1.0), st.floats(1e-4, 1.0))
integral = st.integers(0, 10).map(float)


@settings(max_examples=150, deadline=None)
@given(alpha=st.tuples(prob, prob), beta=st.tuples(rate, rate),
       gamma=st.floats(0.0, 0.9), tau=st.integers(1, 6), delta=st.integers(1, 6),
       sigma=prob, horizon=st.integers(1, 300),
       costs=st.tuples(st.one_of(integral, st.floats(0.0, 10.0)),
                       st.one_of(integral, st.floats(0.0, 10.0))),
       seed=st.integers(0, 2 ** 64 - 1))
def test_series_matches_event_loop_reference(alpha, beta, gamma, tau, delta, sigma,
                                             horizon, costs, seed):
    p = SystemParams(alpha_p=alpha[0], alpha_q=alpha[1], beta_p=beta[0],
                     beta_q=beta[1], gamma=gamma, tau=tau, delta=delta, sigma=sigma)
    c = CostParams(*costs)
    tr = engine.run_repeated(p, seed, horizon)
    points, sup = cost.avg_cost_series(tr, c)
    want, want_sup = ref.avg_cost_series(tr, c)
    assert len(points) == len(want)
    for name, i in (("t", 0), ("num_completed", 2), ("num_hb", 3)):
        assert points[name].tolist() == [w[i] for w in want], name
    if all(v.is_integer() for v in costs):
        # every partial sum is exact, so the order of the sums cannot show
        assert points.c_total.tolist() == [w[1] for w in want]
        assert points.ratio.tolist() == [w[4] for w in want]
        assert np.float64(sup).tobytes() == np.float64(want_sup).tobytes()
    else:
        assert points.ratio.tolist() == pytest.approx([w[4] for w in want], rel=1e-12)
        assert sup == pytest.approx(want_sup, rel=1e-12)
    # the series ends where compare's reduction does, for any costs
    row = kernels.repeated_batch(p, c, horizon, np.array([seed], np.uint64))
    final = points.ratio[-1] if len(points) else 0.0
    assert np.float64(final).tobytes() == row["ratio"][0].tobytes()
    assert np.float64(sup).tobytes() == row["sup"][0].tobytes()
