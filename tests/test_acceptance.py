"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances and run budgets are pinned here; nothing is deferred to later
calibration.  Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines.
"""

import math
import time

import numpy as np

from relcost import analysis, cost, engine, kernels
from relcost.model import CostParams, ProtocolSpec, SystemParams

C11 = CostParams(1.0, 1.0)


def report(num, name, ok):
    print(f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_01_trivial_wait_crash_form():
    # alpha=0, beta_p=beta_q=0.01: mean t_wait within 2% of 49.2513 over
    # 1e5 runs, in under 30 seconds
    p = SystemParams(alpha_p=0, alpha_q=0, beta_p=0.01, beta_q=0.01,
                     gamma=0.0, tau=1, delta=1)
    t0 = time.monotonic()
    rep = analysis.estimate(ProtocolSpec("trivial"), p, C11, "t_wait",
                            100_000, 4096, seed=101, tolerance=0.02)
    elapsed = time.monotonic() - t0
    expect = (1 - 0.0199) / 0.0199
    ok = (abs(rep.mean - expect) / expect <= 0.02) and elapsed < 30.0
    print(f"  mean={rep.mean:.4f} expect={expect:.4f} "
          f"dev={abs(rep.mean - expect) / expect:.3%} elapsed={elapsed:.2f}s")
    report(1, "trivial-protocol expected wait", ok)


def test_criterion_02_sender_and_receiver_driven_forms():
    p = SystemParams(alpha_p=0, alpha_q=0, beta_p=1e-3, beta_q=1e-3,
                     gamma=1e-3, tau=5, delta=3)
    n, h = 100_000, 16384
    sw = analysis.estimate(ProtocolSpec("sender"), p, C11, "t_wait", n, h, seed=102)
    ss = analysis.estimate(ProtocolSpec("sender"), p, C11, "n_send", n, h, seed=103)
    rw = analysis.estimate(ProtocolSpec("receiver"), p, C11, "t_wait", n, h, seed=104)
    rs = analysis.estimate(ProtocolSpec("receiver"), p, C11, "n_send", n, h, seed=105)
    checks = [
        ("sender wait", sw.mean, 5.0),
        ("sender sends", ss.mean, (5 + 1) * 1e-3 / (3 * 1e-3) + 8),
        ("receiver wait", rw.mean, 10.0),
        ("receiver sends", rs.mean, 10.0),
    ]
    ok = True
    for name, mean, expect in checks:
        dev = abs(mean - expect) / expect
        print(f"  {name}: mean={mean:.4f} expect={expect} dev={dev:.3%}")
        ok = ok and dev <= 0.05
    report(2, "sender/receiver-driven expected wait and sends", ok)


def test_criterion_03_heartbeat_protocol_forms():
    p = SystemParams(alpha_p=0, alpha_q=0, beta_p=1e-3, beta_q=1e-3,
                     gamma=1e-3, tau=4, delta=3)
    n, h = 100_000, 16384
    w = analysis.estimate(ProtocolSpec("srhb"), p, C11, "t_wait", n, h, seed=106)
    s = analysis.estimate(ProtocolSpec("srhb"), p, C11, "n_send", n, h, seed=107)
    dev_w = abs(w.mean - 8.0) / 8.0
    dev_s = abs(s.mean - 6.0) / 6.0
    print(f"  wait: mean={w.mean:.4f} expect=8 dev={dev_w:.3%}; "
          f"sends: mean={s.mean:.4f} expect=6 dev={dev_s:.3%}")
    report(3, "heartbeat protocol expected wait and sends", dev_w <= 0.05 and dev_s <= 0.05)


def test_criterion_04_repeated_mode_average_cost_corner():
    # exactly solvable corner: never-crashing processes, no loss; prediction
    # Z + c_send/(delta*sigma) = 6.5 + 50 = 56.5
    p = SystemParams(alpha_p=1, alpha_q=1, beta_p=0.5, beta_q=0.5,
                     gamma=0.0, tau=2, delta=2, sigma=0.01)
    rep = analysis.estimate(ProtocolSpec("srhb"), p, C11, "c_avg",
                            200, 100_000, seed=108, tolerance=0.05)
    dev = abs(rep.mean - 56.5) / 56.5
    print(f"  mean={rep.mean:.4f} expect=56.5 dev={dev:.3%} "
          f"closed_form={rep.closed_form}")
    report(4, "repeated-mode average cost", dev <= 0.05 and rep.closed_form == 56.5)


def test_criterion_05_deterministic_exactness():
    c = C11
    p1 = SystemParams(alpha_p=1, alpha_q=1, beta_p=0.5, beta_q=0.5,
                      gamma=0.0, tau=3, delta=2)
    t1 = engine.run_single(ProtocolSpec("sender"), p1, 7, 64)
    p2 = SystemParams(alpha_p=1, alpha_q=1, beta_p=0.5, beta_q=0.5,
                      gamma=0.0, tau=4, delta=3)
    t2 = engine.run_single(ProtocolSpec("srhb"), p2, 7, 64)
    ok = (cost.num_sends(t1) == 6 and cost.t_wait(t1) == 3
          and cost.num_sends(t2) == 6 and cost.t_wait(t2) == 8)
    print(f"  sender: sends={cost.num_sends(t1)} wait={cost.t_wait(t1)}; "
          f"srhb: sends={cost.num_sends(t2)} wait={cost.t_wait(t2)}")
    report(5, "deterministic exactness (zero tolerance)", ok)


def test_criterion_06_divergence_signature_and_containment():
    horizons = [2 ** k for k in range(10, 15)]
    # ack_base * gamma = 5/3 * 0.9 = 1.5
    path_params = SystemParams(alpha_p=1, alpha_q=1, beta_p=0.5, beta_q=0.5,
                               gamma=0.9, tau=2, delta=1)
    div = analysis.divergence_probe(
        ProtocolSpec("pathological", ack_base=5 / 3), path_params, horizons,
        1000, seed=109, growth_threshold=1.3)
    hb_params = SystemParams(alpha_p=0, alpha_q=0, beta_p=1e-3, beta_q=1e-3,
                             gamma=1e-3, tau=4, delta=3)
    bound = analysis.divergence_probe(ProtocolSpec("srhb"), hb_params,
                                      horizons, 1000, seed=109)
    print(f"  pathological: {div.verdict} ratios="
          f"{[f'{r:.3f}' for r in div.ratios]}")
    print(f"  srhb: {bound.verdict} means={[f'{m:.3f}' for m in bound.means]}")
    ok = (div.verdict == "DIVERGENT"
          and all(r >= 1.3 for r in div.ratios)
          and bound.verdict == "BOUNDED")
    report(6, "divergence signature vs heartbeat containment", ok)


def test_criterion_07_conditional_completion_curve():
    gamma, tau = 0.2, 3
    p = SystemParams(alpha_p=1, alpha_q=1, beta_p=0.5, beta_q=0.5,
                     gamma=gamma, tau=tau, delta=1)
    grid = [tau + k for k in range(1, 11)]
    pts = analysis.s2_curve(ProtocolSpec("sender"), p, grid, 20000, seed=110)
    ok = True
    for k, pt in enumerate(pts, start=1):
        expect = 1 - gamma ** k
        se = math.sqrt(max(expect * (1 - expect), 1e-12) / pt.n_conditioned)
        within = abs(pt.prob - expect) <= 3 * se + 1e-12
        if not within:
            print(f"  k={k}: prob={pt.prob:.5f} expect={expect:.5f} se={se:.5f} OFF")
        ok = ok and within
    triv = analysis.s2_curve(ProtocolSpec("trivial"), p, grid, 2000, seed=111)
    flat = all(pt.prob == 0.0 for pt in triv)
    print(f"  sender curve within 3 stderr at k=1..10: {ok}; trivial flat zero: {flat}")
    report(7, "conditional completion curve", ok and flat)


def test_criterion_08_forced_receiver_death_contrast():
    p = SystemParams(alpha_p=0.5, alpha_q=0.5, beta_p=0.01, beta_q=0.01,
                     gamma=0.05, tau=3, delta=3)
    horizon = 1000
    sender = analysis.impossibility_probe(ProtocolSpec("sender"), p, horizon, 112)
    hb = analysis.impossibility_probe(ProtocolSpec("srhb"), p, horizon, 112)
    expect = math.ceil(horizon / p.delta)
    ok = (sender.scenarios["R1"].n_send == expect
          and hb.scenarios["R1"].n_send == 0
          and hb.heartbeat_escape)
    print(f"  sender R1 sends={sender.scenarios['R1'].n_send} expect={expect}; "
          f"srhb R1 sends={hb.scenarios['R1'].n_send} escape={hb.heartbeat_escape}")
    report(8, "forced receiver-death contrast", ok)


def test_criterion_09_property_suite():
    ok_all = True

    # (a) seed determinism: byte-equal serialized traces
    p = SystemParams(alpha_p=0, alpha_q=0, beta_p=0.05, beta_q=0.05,
                     gamma=0.3, tau=3, delta=2)
    det = all(
        engine.serialize_trace(engine.run_single(ProtocolSpec(k, ack_base=1.7), p, 9, 256))
        == engine.serialize_trace(engine.run_single(ProtocolSpec(k, ack_base=1.7), p, 9, 256))
        for k in ("trivial", "sender", "receiver", "srhb", "pathological"))
    print(f"  (a) seed determinism: {det}")
    ok_all &= det

    # (b) no-fabrication audit across random traces
    clean = True
    for kind in ("sender", "receiver", "srhb", "pathological"):
        for seed in range(25):
            tr = engine.run_single(ProtocolSpec(kind, ack_base=1.7), p, seed, 256)
            clean &= engine.audit_trace(tr, p) == []
    print(f"  (b) delivery/no-fabrication audit: {clean}")
    ok_all &= clean

    # (c) heartbeat-protocol quiescence lag <= 2*tau after the ack lands
    ph = SystemParams(alpha_p=0, alpha_q=0, beta_p=0.01, beta_q=0.01,
                      gamma=0.2, tau=4, delta=3)
    lag_ok, checked = True, 0
    for seed in range(150):
        tr = engine.run_single(ProtocolSpec("srhb"), ph, seed, 2048)
        if tr.quiesce_t is None:
            continue
        acks = [r.deliver_time for r in tr.messages
                if r.kind == "ack" and r.delivered and r.deliver_time < tr.t_p]
        if acks:
            checked += 1
            lag_ok &= tr.quiesce_t - min(acks) <= 2 * ph.tau
    print(f"  (c) quiescence lag <= 2*tau on {checked} acknowledged runs: {lag_ok}")
    ok_all &= lag_ok and checked > 30

    # (d) estimator merging: an estimate folded over three chunks equals one
    # numpy pass over a single batch of the same seeds
    pm = SystemParams(alpha_p=0, alpha_q=0, beta_p=0.01, beta_q=0.02,
                      gamma=0.1, tau=3, delta=2)
    n_runs, horizon = 20000, 2048
    chunked = analysis.estimate(ProtocolSpec("sender"), pm, C11, "c0", n_runs,
                                horizon, seed=113)
    arr = kernels.single_batch(ProtocolSpec("sender").code, pm, horizon,
                               kernels.make_seeds(113, 0, n_runs))
    wait = np.minimum(np.minimum(arr["t_p"], arr["t_q"]), arr["t_f"])
    cens = (wait > horizon) | (arr["active"] == 1)
    c0 = (arr["n_send"] + wait)[~cens].astype(np.float64)
    stderr = c0.std(ddof=1) / math.sqrt(c0.size)
    merge_ok = (-(-n_runs // analysis.CHUNK) == 3
                and chunked.n_censored == int(cens.sum())
                and math.isclose(chunked.mean, c0.mean(), rel_tol=1e-12)
                and math.isclose(chunked.stderr, stderr, rel_tol=1e-9))
    print(f"  (d) three-chunk estimate == one-batch pass "
          f"(n_censored {chunked.n_censored}, mean {chunked.mean:.6f}): {merge_ok}")
    ok_all &= merge_ok

    # (e) optimizer argmin invariance under joint cost scaling
    po = SystemParams(alpha_p=1, alpha_q=1, beta_p=1e-3, beta_q=1e-3,
                      gamma=0.0, tau=2, delta=2, sigma=0.01)
    base = analysis.optimize_delta(po, C11, None, range(1, 51)).delta_star
    scale_ok = all(
        analysis.optimize_delta(po, CostParams(k, k), None, range(1, 51)).delta_star == base
        for k in (0.1, 2.0, 100.0))
    print(f"  (e) optimizer argmin scale-invariant (delta*={base}): {scale_ok}")
    ok_all &= scale_ok

    # (f) lambda estimate in (0,1) with reproducible CI on disjoint seed sets
    pl = SystemParams(alpha_p=0, alpha_q=0, beta_p=0.005, beta_q=0.005,
                      gamma=0.01, tau=2, delta=2, sigma=0.1)
    la = analysis.estimate_lambda(pl, C11, 8000, 4096, seed=114)
    lb = analysis.estimate_lambda(pl, C11, 8000, 4096, seed=115)
    joint = 1.96 * math.hypot(la.stderr, lb.stderr)
    lam_ok = (la.in_unit_interval and lb.in_unit_interval
              and abs(la.value - lb.value) <= joint
              and not la.inconsistent and not lb.inconsistent)
    print(f"  (f) lambda in (0,1) and reproducible: "
          f"{la.value:.4f} vs {lb.value:.4f} (joint CI {joint:.4f}): {lam_ok}")
    ok_all &= lam_ok

    report(9, "property suite", ok_all)


def test_criterion_10_exponential_cost_growth_diagnostic():
    # the infinite-expectation claims are represented at desk scale by the
    # truncated expectation growing without bound across horizons 2^6..2^10
    p = SystemParams(alpha_p=1, alpha_q=1, beta_p=1e-3, beta_q=1e-3,
                     gamma=0.0, tau=1, delta=1)
    costs = CostParams(1.0, 1.0, n_exp=1.05)
    slack = costs.n_exp * (1 - p.beta_p) * (1 - p.beta_q)
    rep = analysis.c1_growth_probe(p, costs, [2 ** k for k in range(6, 11)],
                                   1000, seed=116)
    ok = slack > 1.0 and rep.growing and all(r > 2.0 for r in rep.ratios)
    print(f"  truncated E(c1) means: {[f'{m:.3g}' for m in rep.means]} growing={rep.growing}")
    report(10, "exponential-cost growth diagnostic", ok)
