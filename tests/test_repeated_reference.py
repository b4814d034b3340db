"""The repeated-mode kernel against its scalar reference, bit for bit."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repeated_reference as ref
from relcost import kernels
from relcost.model import CostParams, SystemParams

prob = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
rate = st.one_of(st.just(1.0), st.floats(1e-4, 1.0))
cost = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 10.0))
seeds = st.integers(0, 2 ** 64 - 1)


def system(alpha, beta, gamma, tau, delta, sigma):
    return SystemParams(alpha_p=alpha[0], alpha_q=alpha[1], beta_p=beta[0],
                        beta_q=beta[1], gamma=gamma, tau=tau, delta=delta,
                        sigma=sigma)


def assert_same_run(p, c, horizon, seed):
    tp, tq, arrays, hb_p, hb_q = ref.run(p, horizon, seed)
    n_inv, got, got_hb_p, got_hb_q, got_tp, got_tq = kernels.repeated_run_arrays(
        p, horizon, seed)
    big = horizon + 1
    assert (n_inv, got_hb_p, got_hb_q) == (arrays["start"].size, hb_p, hb_q)
    assert (got_tp, got_tq) == (min(tp, big), min(tq, big))
    assert set(got) == set(arrays)
    for k, v in arrays.items():
        assert got[k].dtype == np.int64, k
        assert np.array_equal(got[k], v), k

    n_complete, _c, _hb, ratio, sup = ref.reduce(arrays, tp, tq, int(p.delta),
                                                 horizon, c.c_send, c.c_wait)
    row = kernels.repeated_batch(p, c, horizon, np.array([seed], np.uint64))
    assert row["n_inv"][0] == n_inv
    assert row["n_complete"][0] == n_complete
    assert row["n_hb"][0] == hb_p + hb_q
    assert (row["t_p"][0], row["t_q"][0]) == (got_tp, got_tq)
    # bitwise: the same float64 values, not merely close ones
    assert row["ratio"][0].tobytes() == np.float64(ratio).tobytes()
    assert row["sup"][0].tobytes() == np.float64(sup).tobytes()


@settings(max_examples=150, deadline=None)
@given(alpha=st.tuples(prob, prob), beta=st.tuples(rate, rate), gamma=prob,
       tau=st.integers(1, 6), delta=st.integers(1, 6), sigma=prob,
       horizon=st.one_of(st.sampled_from([1, 2]), st.integers(3, 200)),
       block=st.sampled_from([1, 3, 64, kernels._BLOCK]),
       c_send=cost, c_wait=cost, seed=seeds)
def test_repeated_kernel_matches_reference(alpha, beta, gamma, tau, delta, sigma,
                                           horizon, block, c_send, c_wait, seed):
    # small blocks put block boundaries inside short horizons
    p = system(alpha, beta, gamma, tau, delta, sigma)
    with mock.patch.object(kernels, "_BLOCK", block):
        assert_same_run(p, CostParams(c_send, c_wait), horizon, seed)


@settings(max_examples=8, deadline=None)
@given(alpha=st.tuples(prob, prob), beta=st.tuples(rate, rate), gamma=prob,
       tau=st.integers(1, 6), delta=st.integers(1, 6),
       horizon=st.integers(kernels._BLOCK + 1, kernels._BLOCK + 4000),
       invocations=st.floats(0.0, 8.0), c_send=cost, c_wait=cost, seed=seeds)
def test_repeated_kernel_matches_reference_past_one_block(
        alpha, beta, gamma, tau, delta, horizon, invocations, c_send, c_wait, seed):
    # sigma is bounded by horizon so the scalar reference walks at most a
    # few invocations across the whole window
    p = system(alpha, beta, gamma, tau, delta, invocations / horizon)
    assert_same_run(p, CostParams(c_send, c_wait), horizon, seed)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), gamma=prob, tau=st.integers(1, 6), delta=st.integers(1, 6),
       sigma=prob, horizon=st.integers(1, 120), c_send=cost, c_wait=cost,
       state=seeds)
def test_repeated_run_matches_reference_at_chosen_crash_ticks(
        data, gamma, tau, delta, sigma, horizon, c_send, c_wait, state):
    # crash ticks around the horizon, where completion certification turns
    # on heartbeats still in flight
    tick = st.one_of(st.just(ref._NEVER), st.integers(0, 3),
                     st.integers(max(0, horizon - 7), horizon + 2))
    tp, tq = data.draw(tick), data.draw(tick)
    p = system((0.0, 0.0), (1.0, 1.0), gamma, tau, delta, sigma)
    want, hb_p, hb_q = ref.run_after_lifetimes(p, horizon, state, tp, tq)
    got, got_hb_p, got_hb_q = kernels._repeated_run(gamma, tau, delta, sigma,
                                                     horizon, state, tp, tq)
    assert (got_hb_p, got_hb_q) == (hb_p, hb_q)
    for k, v in want.items():
        assert np.array_equal(got[k], v), k
    want_sum = ref.reduce(want, tp, tq, delta, horizon, c_send, c_wait)
    got_sum = kernels._repeated_reduce(got["n_send"], got["wait"], got["complete_t"],
                                       tp, tq, delta, horizon, c_send, c_wait)
    assert np.array_equal(np.array(got_sum, np.float64), np.array(want_sum, np.float64))


def test_completion_waits_for_heartbeats_in_flight():
    # q crashes two ticks before the horizon with heartbeats to p still in
    # flight, so p's late invocations cannot be certified complete
    p = system((0.0, 0.0), (1.0, 1.0), 0.5, 4, 6, 0.3)
    want, hb_p, hb_q = ref.run_after_lifetimes(p, 57, 12345, 55, ref._NEVER)
    got, got_hb_p, got_hb_q = kernels._repeated_run(0.5, 4, 6, 0.3, 57, 12345,
                                                     55, ref._NEVER)
    assert (want["complete_t"] == -1).any()
    assert (got_hb_p, got_hb_q) == (hb_p, hb_q)
    for k, v in want.items():
        assert np.array_equal(got[k], v), k


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(0, 40), t_p=st.integers(0, 70),
       t_q=st.integers(0, 70), never=st.tuples(st.booleans(), st.booleans()),
       delta=st.integers(1, 5), horizon=st.integers(1, 60),
       c_send=cost, c_wait=cost)
def test_repeated_reduce_matches_reference(data, n, t_p, t_q, never, delta,
                                           horizon, c_send, c_wait):
    # few distinct completion ticks, so ties are common and the sum order
    # within a tick matters
    def ints(lo, hi):
        return np.array(data.draw(st.lists(st.integers(lo, hi), min_size=n,
                                           max_size=n)), np.int64)

    arrays = {"start": np.zeros(n, np.int64), "n_send": ints(0, 9),
              "wait": ints(0, 30), "complete_t": ints(-1, 12)}
    t_p = ref._NEVER if never[0] else t_p
    t_q = ref._NEVER if never[1] else t_q
    want = ref.reduce(arrays, t_p, t_q, delta, horizon, c_send, c_wait)
    got = kernels._repeated_reduce(arrays["n_send"], arrays["wait"],
                                   arrays["complete_t"], t_p, t_q, delta,
                                   horizon, c_send, c_wait)
    assert (got[0], got[2]) == (want[0], want[2])
    for i in (1, 3, 4):
        assert np.float64(got[i]).tobytes() == np.float64(want[i]).tobytes(), i


def test_unit_draws_follow_the_stream():
    # draw k of the stream at S is the k-th sequential step from S
    for seed in (0, 7, 2 ** 64 - 1):
        state = seed
        steps = []
        for _ in range(50):
            state, u = ref._next_unit(state)
            steps.append(u)
        assert kernels._unit_draws(seed, 0, 50).tolist() == steps
        assert kernels._unit_draws(seed, 20, 30).tolist() == steps[20:]
        assert kernels.next_unit(seed)[1] == steps[0]
