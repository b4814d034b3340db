import math

import numpy as np
import pytest

from relcost import analysis
from relcost.analysis import RunningStats
from relcost.model import CostParams, ProtocolSpec, SystemParams

C11 = CostParams(1.0, 1.0)


def params(**kw):
    base = dict(alpha_p=0.0, alpha_q=0.0, beta_p=1e-3, beta_q=1e-3,
                gamma=1e-3, tau=5, delta=3, sigma=0.0)
    base.update(kw)
    return SystemParams(**base)


# --- closed forms ------------------------------------------------------------

def test_trivial_wait_form():
    p = params(beta_p=0.01, beta_q=0.01)
    assert analysis.trivial_expected_wait(p) == pytest.approx(0.9801 / 0.0199)


def test_crash_only_forms_refuse_nonzero_alpha():
    with pytest.raises(ValueError, match="alpha_p == alpha_q == 0"):
        analysis.trivial_expected_wait(params(alpha_p=0.5))
    with pytest.raises(ValueError, match="alpha_p == alpha_q == 0"):
        analysis.sender_expected_sends(params(alpha_q=1.0))


def test_sender_and_receiver_forms():
    p = params()  # tau=5, delta=3, equal rates
    assert analysis.sender_expected_wait(p) == 5.0
    assert analysis.sender_expected_sends(p) == pytest.approx(2.0 + 8.0)
    assert analysis.receiver_expected_wait(p) == 10.0
    assert analysis.receiver_expected_sends(p) == pytest.approx(10.0)
    # asymmetric rates swap roles
    p2 = params(beta_p=1e-3, beta_q=2e-3)
    assert analysis.sender_expected_sends(p2) == pytest.approx(6 * 2e-3 / (3e-3) + 8)
    assert analysis.receiver_expected_sends(p2) == pytest.approx(6 * 1e-3 / (6e-3) + 8)


def test_heartbeat_forms():
    p = params(tau=4, delta=3)
    assert analysis.heartbeat_expected_wait(p) == 8.0
    assert analysis.heartbeat_expected_sends(p) == 6.0
    # delta beyond the round trip: a single exchange
    assert analysis.heartbeat_expected_sends(params(tau=4, delta=9)) == 2.0
    assert analysis.heartbeat_expected_sends(params(tau=4, delta=1)) == 16.0


def test_repeated_cost_prediction_corner_cases():
    p = SystemParams(alpha_p=1, alpha_q=1, beta_p=.5, beta_q=.5, gamma=0.0,
                     tau=2, delta=2, sigma=0.01)
    assert analysis.invocation_cost_z(p, C11) == pytest.approx(6.5)
    assert analysis.repeated_avg_cost(p, C11) == pytest.approx(56.5)
    # one certain-crash process zeroes the protocol term
    p2 = SystemParams(alpha_p=1, alpha_q=0, beta_p=.5, beta_q=.1, gamma=0.0,
                      tau=2, delta=2, sigma=0.01)
    assert analysis.repeated_avg_cost(p2, C11, lam=0.5) == pytest.approx(50.0)
    # crash-only weight multiplies by lambda
    p3 = SystemParams(alpha_p=0, alpha_q=0, beta_p=.01, beta_q=.01, gamma=0.0,
                      tau=2, delta=2, sigma=0.01)
    assert analysis.repeated_avg_cost(p3, C11, lam=0.5) == pytest.approx(0.5 * 6.5 + 50.0)
    with pytest.raises(ValueError, match="lambda"):
        analysis.repeated_avg_cost(p3, C11)
    with pytest.raises(ValueError, match="sigma"):
        analysis.repeated_avg_cost(params(sigma=0.0), C11, lam=0.5)


def test_regime_gate_blocks_large_rates():
    hot = params(beta_p=0.3, beta_q=0.3, gamma=0.2)
    assert analysis.closed_form_for("sender", "t_wait", hot, C11) is None
    assert analysis.closed_form_for("srhb", "n_send", hot, C11) is None
    # but the trivial send count is exact regardless
    assert analysis.closed_form_for("trivial", "n_send", hot, C11) == 0.0
    # rates behind a correct process do not count against the gate
    quiet = SystemParams(alpha_p=1, alpha_q=1, beta_p=.5, beta_q=.5,
                         gamma=0.0, tau=2, delta=2, sigma=0.01)
    assert analysis.closed_form_for("srhb", "t_wait", quiet, C11) == 4.0


def test_closed_form_c0_combines_components():
    p = params()
    c = CostParams(2.0, 3.0)
    got = analysis.closed_form_for("sender", "c0", p, c)
    assert got == pytest.approx(10.0 * 2.0 + 5.0 * 3.0)
    assert analysis.closed_form_for("pathological", "c0", p, c) is None


# --- the estimator -----------------------------------------------------------

def test_estimate_deterministic_run_has_zero_stderr():
    p = SystemParams(alpha_p=1, alpha_q=1, beta_p=.5, beta_q=.5, gamma=0.0,
                     tau=3, delta=2)
    rep = analysis.estimate(ProtocolSpec("sender"), p, C11, "n_send", 100, 64,
                            seed=1)
    assert rep.mean == 6.0
    assert rep.stderr == 0.0
    assert rep.n_censored == 0


def test_estimate_is_seed_stable_and_jobs_invariant():
    p = params(beta_p=0.01, beta_q=0.02, gamma=0.1)
    a = analysis.estimate(ProtocolSpec("sender"), p, C11, "c0", 20000, 2048,
                          seed=5, jobs=1)
    b = analysis.estimate(ProtocolSpec("sender"), p, C11, "c0", 20000, 2048,
                          seed=5, jobs=4)
    c = analysis.estimate(ProtocolSpec("sender"), p, C11, "c0", 20000, 2048,
                          seed=5, jobs=1)
    assert a == b == c
    d = analysis.estimate(ProtocolSpec("sender"), p, C11, "c0", 20000, 2048,
                          seed=6, jobs=1)
    assert d.mean != a.mean


def test_estimate_refuses_when_everything_is_censored():
    p = SystemParams(alpha_p=1, alpha_q=1, beta_p=.5, beta_q=.5, gamma=0.0,
                     tau=1, delta=1)
    with pytest.raises(RuntimeError, match="censored"):
        analysis.estimate(ProtocolSpec("trivial"), p, C11, "t_wait", 100, 64,
                          seed=1)


def test_estimate_validates_inputs():
    with pytest.raises(ValueError, match="n_runs"):
        analysis.estimate(ProtocolSpec("trivial"), params(), C11, "t_wait", 1,
                          64, seed=1)
    with pytest.raises(ValueError, match="metric"):
        analysis.estimate(ProtocolSpec("trivial"), params(), C11, "bogus",
                          100, 64, seed=1)
    with pytest.raises(ValueError, match="srhb"):
        analysis.estimate(ProtocolSpec("trivial"), params(sigma=0.1), C11,
                          "c_avg", 100, 64, seed=1)
    with pytest.raises(ValueError, match="n_exp"):
        analysis.estimate(ProtocolSpec("trivial"), params(beta_p=0.5, beta_q=0.5),
                          CostParams(1, 1, n_exp=1.5), "c1", 100, 64, seed=1)


def test_estimate_srhb_sends_in_thin_failure_regime():
    # prediction 2*ceil(2*tau/delta) = 6 at tau=4, delta=3
    p = params(beta_p=1e-4, beta_q=1e-4, gamma=1e-3, tau=4, delta=3)
    rep = analysis.estimate(ProtocolSpec("srhb"), p, C11, "n_send", 20000,
                            8192, seed=3, tolerance=0.05)
    assert rep.closed_form == 6.0
    assert rep.passed


def test_running_stats_merge_is_associative_on_counts():
    chunks = [np.arange(10.0), np.arange(7.0) * 3, np.array([5.0]),
              np.arange(13.0) ** 2]
    def stats_of(arrays):
        s = RunningStats()
        for a in arrays:
            o = RunningStats()
            o.update(a)
            s.merge(o)
        return s
    left = stats_of(chunks)
    ab, cd = RunningStats(), RunningStats()
    ab.update(chunks[0]); ab.update(chunks[1])
    cd.update(chunks[2]); cd.update(chunks[3])
    ab.merge(cd)
    assert (left.n, left.total) == (ab.n, ab.total)
    assert left.m2 == pytest.approx(ab.m2, rel=1e-12)
    assert left.m2 == pytest.approx(np.var(np.concatenate(chunks)) * left.n, rel=1e-12)


def test_running_stats_variance_survives_a_large_mean():
    # sum-of-squares variance cancels to 0.0 here; the true value is ~0.667
    values = 1e9 + np.arange(10_000) % 3
    want = np.var(values - 1e9, ddof=1)
    whole = RunningStats()
    whole.update(values)
    chunked = RunningStats()
    for part in np.array_split(values, 7):
        o = RunningStats()
        o.update(part)
        chunked.merge(o)
    for s in (whole, chunked):
        assert s.mean == float(values.sum()) / values.size
        assert s.variance == pytest.approx(want, rel=1e-9)
        assert s.stderr > 0.0


# --- curve, probes, lambda, optimizer ----------------------------------------

def test_s2_requires_increasing_grid():
    with pytest.raises(ValueError, match="increasing"):
        analysis.s2_curve(ProtocolSpec("trivial"), params(), [3, 3], 100, 1)


def test_s2_trivial_curve_is_zero():
    pts = analysis.s2_curve(ProtocolSpec("trivial"), params(), [1, 4, 9],
                            2000, seed=2)
    assert [p.prob for p in pts] == [0.0, 0.0, 0.0]


def test_s2_srhb_is_monotone_and_approaches_one():
    p = SystemParams(alpha_p=1, alpha_q=1, beta_p=.5, beta_q=.5, gamma=0.3,
                     tau=2, delta=2)
    grid = list(range(3, 40, 3))
    pts = analysis.s2_curve(ProtocolSpec("srhb"), p, grid, 4000, seed=4)
    probs = [pt.prob for pt in pts]
    # isotonic deviation bound: no step down by more than estimator noise
    assert all(b >= a - 0.02 for a, b in zip(probs, probs[1:]))
    assert probs[-1] > 0.99


def test_divergence_probe_verdicts():
    horizons = [256, 512, 1024]
    path = SystemParams(alpha_p=1, alpha_q=1, beta_p=.5, beta_q=.5, gamma=0.9,
                        tau=2, delta=1)
    rep = analysis.divergence_probe(ProtocolSpec("pathological", ack_base=5 / 3),
                                    path, horizons, 400, seed=5)
    assert rep.verdict == "DIVERGENT"
    calm = params(tau=4, delta=3)
    rep2 = analysis.divergence_probe(ProtocolSpec("srhb"), calm, horizons, 400,
                                     seed=5)
    assert rep2.verdict == "BOUNDED"
    assert rep2.means[-1] == pytest.approx(6.0, rel=0.1)
    rep3 = analysis.divergence_probe(ProtocolSpec("trivial"), calm, horizons,
                                     400, seed=5)
    assert rep3.verdict == "BOUNDED" and set(rep3.means) == {0.0}


def test_impossibility_probe_contrasts():
    p = SystemParams(alpha_p=0.5, alpha_q=0.5, beta_p=0.01, beta_q=0.01,
                     gamma=0.05, tau=3, delta=3)
    sender = analysis.impossibility_probe(ProtocolSpec("sender"), p, 999, 6)
    assert sender.scenarios["R1"].n_send == math.ceil(999 / 3)
    assert not sender.scenarios["R1"].sends_stop
    assert sender.unbounded_signature == "R1:n_send"
    hb = analysis.impossibility_probe(ProtocolSpec("srhb"), p, 999, 6)
    assert hb.scenarios["R1"].n_send == 0
    assert hb.scenarios["R1"].sends_stop
    assert not hb.scenarios["R1"].finished
    assert hb.heartbeat_escape
    triv = analysis.impossibility_probe(ProtocolSpec("trivial"), p, 999, 6)
    assert triv.scenarios["R3"].t_wait_capped == 999
    assert triv.unbounded_signature == "R3:t_wait"


def test_c1_growth_probe_is_unbounded_for_trivial():
    p = SystemParams(alpha_p=1, alpha_q=1, beta_p=1e-3, beta_q=1e-3,
                     gamma=0.0, tau=1, delta=1)
    rep = analysis.c1_growth_probe(p, CostParams(1, 1, n_exp=1.05),
                                   [64, 128, 256], 50, seed=7)
    assert rep.growing
    assert rep.means[0] == pytest.approx(1.05 ** 64)
    assert all(r > 2.0 for r in rep.ratios)


LAMBDA_PARAMS = SystemParams(alpha_p=0, alpha_q=0, beta_p=0.005, beta_q=0.005,
                             gamma=0.01, tau=2, delta=2, sigma=0.1)


def test_lambda_estimate_lands_in_unit_interval():
    est = analysis.estimate_lambda(LAMBDA_PARAMS, C11, 8000, 4096, seed=8)
    assert est.in_unit_interval
    assert not est.inconsistent
    assert not est.low_invocations


def test_lambda_flags_sparse_invocation_regimes():
    # sigma near zero: the heartbeat share dominates, the CI widens and the
    # report flags that completions were scarce
    p = SystemParams(alpha_p=0, alpha_q=0, beta_p=0.005, beta_q=0.005,
                     gamma=0.01, tau=2, delta=2, sigma=0.002)
    est = analysis.estimate_lambda(p, C11, 4000, 4096, seed=8)
    rich = analysis.estimate_lambda(LAMBDA_PARAMS, C11, 4000, 4096, seed=8)
    assert est.low_invocations
    assert est.stderr > rich.stderr


def test_lambda_requires_crash_only_regime():
    p = SystemParams(alpha_p=1, alpha_q=0, beta_p=.5, beta_q=.01, gamma=0.0,
                     tau=2, delta=2, sigma=0.1)
    with pytest.raises(ValueError, match="alpha"):
        analysis.estimate_lambda(p, C11, 100, 64, seed=1)


def test_optimize_delta_tradeoffs():
    p = SystemParams(alpha_p=1, alpha_q=1, beta_p=1e-3, beta_q=1e-3,
                     gamma=0.0, tau=2, delta=2, sigma=0.01)
    # waiting dominant: shortest period wins
    res = analysis.optimize_delta(p, CostParams(0.001, 100.0), None, range(1, 51))
    assert res.delta_star == 1
    # sends dominant and invocations rare: longest period wins
    p2 = SystemParams(alpha_p=1, alpha_q=1, beta_p=1e-3, beta_q=1e-3,
                      gamma=0.0, tau=2, delta=2, sigma=0.0001)
    res2 = analysis.optimize_delta(p2, CostParams(100.0, 0.001), None, range(1, 51))
    assert res2.delta_star == 50
    with pytest.raises(ValueError, match="non-empty"):
        analysis.optimize_delta(p, C11, None, [])


def test_optimize_delta_argmin_invariant_under_cost_scaling():
    p = SystemParams(alpha_p=1, alpha_q=1, beta_p=1e-3, beta_q=1e-3,
                     gamma=0.0, tau=2, delta=2, sigma=0.01)
    base = analysis.optimize_delta(p, CostParams(1.0, 1.0), None, range(1, 51))
    for k in (0.25, 3.0, 42.0):
        scaled = analysis.optimize_delta(p, CostParams(k, k), None, range(1, 51))
        assert scaled.delta_star == base.delta_star
        for (d1, c1), (d2, c2) in zip(base.curve, scaled.curve):
            assert d1 == d2 and c2 == pytest.approx(k * c1)


@pytest.mark.slow
def test_optimize_delta_matches_simulated_argmin():
    # oracle: a simulation grid over the same range; the predicted optimum
    # must sit within one grid step of the simulated argmin (frozen seed)
    p = SystemParams(alpha_p=1, alpha_q=1, beta_p=1e-3, beta_q=1e-3,
                     gamma=0.0, tau=2, delta=2, sigma=0.01)
    res = analysis.optimize_delta(p, C11, None, range(1, 51))
    sim = []
    for d in range(1, 51):
        pd = SystemParams(alpha_p=1, alpha_q=1, beta_p=1e-3, beta_q=1e-3,
                          gamma=0.0, tau=2, delta=d, sigma=0.01)
        rep = analysis.estimate(ProtocolSpec("srhb"), pd, C11, "c_avg", 64,
                                20000, seed=77)
        sim.append(rep.mean)
    sim_argmin = 1 + int(np.argmin(sim))
    assert abs(sim_argmin - res.delta_star) <= 1


def test_render_reports_has_verdict_column():
    p = params(beta_p=0.01, beta_q=0.01, gamma=0.0, tau=1, delta=1)
    rep = analysis.estimate(ProtocolSpec("trivial"), p, C11, "t_wait", 5000,
                            2048, seed=9, tolerance=0.05)
    text = analysis.render_reports([rep])
    assert "PASS" in text or "FAIL" in text
    hot = params(beta_p=0.3, beta_q=0.3, gamma=0.0, tau=1, delta=1)
    rep2 = analysis.estimate(ProtocolSpec("sender"), hot, C11, "t_wait", 2000,
                             512, seed=9, tolerance=0.05)
    assert "NO-PREDICTION" in analysis.render_reports([rep2])
