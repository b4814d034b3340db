"""The single-mode kernel against its scalar reference, bit for bit."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import single_reference as ref
from relcost import kernels
from relcost.model import PROTOCOL_NAMES, SystemParams

prob = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
rate = st.one_of(st.just(1.0), st.floats(1e-4, 1.0))
ack_bases = st.one_of(st.sampled_from([1.0001, 5.0 / 3.0, 2.0]), st.floats(1.01, 4.0))
masters = st.integers(0, 2 ** 64 - 1)
KEYS = ("t_p", "t_q", "t_f", "n_send", "n_hb", "active", "quiesce_t")


def system(alpha, beta, gamma, tau, delta):
    return SystemParams(alpha_p=alpha[0], alpha_q=alpha[1], beta_p=beta[0],
                        beta_q=beta[1], gamma=gamma, tau=tau, delta=delta)


def assert_same_batch(proto, p, horizon, seeds, **kw):
    want = ref.single_batch(proto, p, horizon, seeds, **kw)
    got = kernels.single_batch(proto, p, horizon, seeds, **kw)
    assert set(got) == set(KEYS)
    for k in KEYS:
        assert got[k].dtype == np.int64, k
        assert np.array_equal(got[k], want[k]), (PROTOCOL_NAMES[proto], k)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), proto=st.integers(0, 4), alpha=st.tuples(prob, prob),
       beta=st.tuples(rate, rate), gamma=prob, tau=st.integers(1, 6),
       delta=st.integers(1, 6), ack_base=ack_bases,
       horizon=st.one_of(st.sampled_from([1, 2]), st.integers(3, 300)),
       n=st.integers(1, 24), master=masters)
def test_single_kernel_matches_reference(data, proto, alpha, beta, gamma, tau, delta,
                                         ack_base, horizon, n, master):
    # crash ticks pinned at 0, near the horizon or past it, or drawn
    tick = st.one_of(st.just(-1), st.integers(0, 3),
                     st.integers(max(0, horizon - 4), horizon + 3))
    kw = {"force_tp": data.draw(tick), "force_tq": data.draw(tick),
          "force_loss_until": data.draw(st.one_of(st.just(0),
                                                  st.integers(0, horizon + 2))),
          "ack_base": ack_base}
    p = system(alpha, beta, gamma, tau, delta)
    assert_same_batch(proto, p, horizon, kernels.make_seeds(master, 0, n), **kw)


@settings(max_examples=40, deadline=None)
@given(proto=st.integers(0, 4), beta=st.tuples(rate, rate),
       gamma=st.floats(0.0, 0.6), tau=st.integers(1, 6), delta=st.integers(1, 6),
       ack_base=ack_bases, horizon=st.integers(300, 3000), master=masters)
def test_single_kernel_matches_reference_on_long_runs(proto, beta, gamma, tau, delta,
                                                      ack_base, horizon, master):
    # small crash rates: runs outlive their peers, so the dead-peer tails
    # are long
    p = system((0.0, 0.0), (beta[0] / 100, beta[1] / 100), gamma, tau, delta)
    assert_same_batch(proto, p, horizon, kernels.make_seeds(master, 0, 40),
                      ack_base=ack_base)


def test_single_kernel_matches_reference_on_the_benchmark_systems():
    crash = SystemParams(alpha_p=0, alpha_q=0, beta_p=1e-3, beta_q=1e-3,
                         gamma=1e-3, tau=5, delta=3)
    divergent = SystemParams(alpha_p=1, alpha_q=1, beta_p=0.5, beta_q=0.5,
                             gamma=0.9, tau=2, delta=4)
    seeds = kernels.make_seeds(2024, 0, 300)
    for proto in range(5):
        assert_same_batch(proto, crash, 16384, seeds)
    assert_same_batch(4, divergent, 1024, seeds[:60], ack_base=5.0 / 3.0)
