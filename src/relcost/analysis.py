"""Closed-form cost predictions, Monte Carlo estimators, and decision probes.

Every approximate prediction carries a validity regime: the crash-only table
needs alpha_p == alpha_q == 0, and the "small failure rates" forms attach
only when beta_p, beta_q and gamma are all at or below a configurable gate
(default 1e-2).  Estimates in regime are compared against their prediction
as part of the artifact, not only in tests: reports carry the relative
deviation and a PASS/FAIL verdict at the configured tolerance.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import engine, kernels
from .model import (CostParams, ProtocolSpec, SystemParams,
                    combined_crash_rate, require_valid)

# fixed chunk size: estimation always proceeds chunk by chunk and merges in
# chunk order, so running with jobs > 1 reproduces the sequential result
# bit for bit
CHUNK = 8192

DEFAULT_EPSILON_GATE = 1e-2

METRICS = ("t_wait", "n_send", "c0", "c1", "c_avg")


# ---------------------------------------------------------------------------
# closed forms

def _two_ceil(params: SystemParams) -> int:
    tau, delta = int(params.tau), int(params.delta)
    return 2 * (-(-2 * tau // delta))


def _require_crash_only(params: SystemParams) -> None:
    if params.alpha_p != 0.0 or params.alpha_q != 0.0:
        raise ValueError(
            "crash-only closed forms require alpha_p == alpha_q == 0")


def trivial_expected_wait(params: SystemParams) -> float:
    """Expected wait of the do-nothing protocol: (1-beta)/beta for the
    combined per-tick crash rate beta.  Exact, crash-only regime."""
    _require_crash_only(params)
    beta = combined_crash_rate(params)
    return (1.0 - beta) / beta


def sender_expected_wait(params: SystemParams) -> float:
    _require_crash_only(params)
    return float(params.tau)


def sender_expected_sends(params: SystemParams) -> float:
    """Sender-driven send count: the cheap acknowledged path plus the
    expensive path where the receiver dies before acknowledging and the
    sender retransmits until its own crash."""
    _require_crash_only(params)
    tau, delta = int(params.tau), int(params.delta)
    return (tau + 1) * params.beta_q / (delta * params.beta_p) + _two_ceil(params)


def receiver_expected_wait(params: SystemParams) -> float:
    _require_crash_only(params)
    return 2.0 * params.tau


def receiver_expected_sends(params: SystemParams) -> float:
    _require_crash_only(params)
    tau, delta = int(params.tau), int(params.delta)
    return (tau + 1) * params.beta_p / (delta * params.beta_q) + _two_ceil(params)


def heartbeat_expected_wait(params: SystemParams) -> float:
    """Heartbeat-driven protocol: the sender cannot start before the first
    inbound heartbeat arrives, so the wait doubles to 2*tau."""
    return 2.0 * params.tau


def heartbeat_expected_sends(params: SystemParams) -> float:
    return float(_two_ceil(params))


def invocation_cost_z(params: SystemParams, costs: CostParams) -> float:
    """Per-invocation protocol cost in the repeated setting: the usual send
    count plus a wait of tau + (delta-1)/2, the mean phase offset to the next
    heartbeat arrival."""
    return (_two_ceil(params) * costs.c_send
            + (params.tau + (params.delta - 1) / 2.0) * costs.c_wait)


def repeated_avg_cost(params: SystemParams, costs: CostParams,
                      lam: float | None = None) -> float:
    """Predicted average cost per completed invocation, heartbeats included:
    ((1-alpha_p)(1-alpha_q)*lam + alpha_p*alpha_q) * Z + c_send/(delta*sigma).
    """
    if params.sigma <= 0.0:
        raise ValueError("repeated-mode prediction requires sigma > 0")
    crash_weight = (1.0 - params.alpha_p) * (1.0 - params.alpha_q)
    if crash_weight > 0.0:
        if lam is None:
            raise ValueError(
                "attenuation constant lambda is required when both processes "
                "can crash (it has no closed evaluation; estimate it)")
        if not 0.0 < lam < 1.0:
            raise ValueError(f"lambda must lie in (0, 1), got {lam}")
        coeff = crash_weight * lam + params.alpha_p * params.alpha_q
    else:
        coeff = params.alpha_p * params.alpha_q
    z = invocation_cost_z(params, costs)
    return coeff * z + costs.c_send / (params.delta * params.sigma)


def regime_gate_ok(params: SystemParams,
                   epsilon_gate: float = DEFAULT_EPSILON_GATE) -> bool:
    """True when failure rates are small enough for the approximate forms.

    A crash rate only counts against the gate when the process can actually
    crash (alpha < 1)."""
    eff_bp = params.beta_p if params.alpha_p < 1.0 else 0.0
    eff_bq = params.beta_q if params.alpha_q < 1.0 else 0.0
    return max(eff_bp, eff_bq, params.gamma) <= epsilon_gate


def closed_form_for(kind: str, metric: str, params: SystemParams,
                    costs: CostParams | None = None, lam: float | None = None,
                    epsilon_gate: float = DEFAULT_EPSILON_GATE) -> float | None:
    """Best applicable prediction for (protocol, metric), else None."""
    gate = regime_gate_ok(params, epsilon_gate)
    crash_only = params.alpha_p == 0.0 and params.alpha_q == 0.0
    if metric == "t_wait":
        if kind == "trivial" and crash_only:
            return trivial_expected_wait(params)
        if kind == "sender" and crash_only and gate:
            return sender_expected_wait(params)
        if kind == "receiver" and crash_only and gate:
            return receiver_expected_wait(params)
        if kind == "srhb" and gate:
            return heartbeat_expected_wait(params)
        return None
    if metric == "n_send":
        if kind == "trivial":
            return 0.0
        if kind == "sender" and crash_only and gate:
            return sender_expected_sends(params)
        if kind == "receiver" and crash_only and gate:
            return receiver_expected_sends(params)
        if kind == "srhb" and gate:
            return heartbeat_expected_sends(params)
        return None
    if metric == "c0" and costs is not None:
        w = closed_form_for(kind, "t_wait", params, costs, lam, epsilon_gate)
        s = closed_form_for(kind, "n_send", params, costs, lam, epsilon_gate)
        if w is None or s is None:
            return None
        return s * costs.c_send + w * costs.c_wait
    if metric == "c_avg" and kind == "srhb" and costs is not None:
        if not gate:
            return None
        try:
            return repeated_avg_cost(params, costs, lam)
        except ValueError:
            return None
    return None


# ---------------------------------------------------------------------------
# streaming estimator machinery

@dataclass
class RunningStats:
    """Streaming (count, sum, M2) accumulator.

    ``mean`` is total/n.  The variance comes from M2, the sum of squared
    deviations from the mean: each update takes its batch's M2 in two passes,
    and updates and merges combine M2s with the pairwise formula of Chan,
    Golub & LeVeque (The American Statistician 37(3), 1983), so data with a
    large mean and a small spread keeps its variance.  Merging in chunk order
    reproduces the sequential result exactly, so fanning chunks out to
    workers does too.
    """

    n: int = 0
    total: float = 0.0
    m2: float = 0.0
    n_censored: int = 0

    def update(self, values, censored=None) -> None:
        v = np.asarray(values, dtype=np.float64)
        batch = RunningStats()
        if censored is not None:
            c = np.asarray(censored, dtype=bool)
            batch.n_censored = int(c.sum())
            v = v[~c]
        batch.n = int(v.size)
        batch.total = float(v.sum())
        if batch.n:
            batch.m2 = float(((v - batch.total / batch.n) ** 2).sum())
        self.merge(batch)

    def merge(self, other: "RunningStats") -> None:
        if self.n and other.n:
            d = other.total / other.n - self.total / self.n
            self.m2 += other.m2 + d * d * self.n * other.n / (self.n + other.n)
        else:
            self.m2 += other.m2
        self.n += other.n
        self.total += other.total
        self.n_censored += other.n_censored

    @property
    def mean(self) -> float:
        if self.n == 0:
            raise RuntimeError("no uncensored runs")
        return self.total / self.n

    @property
    def variance(self) -> float:
        if self.n < 2:
            return 0.0
        return self.m2 / (self.n - 1)

    @property
    def stderr(self) -> float:
        if self.n == 0:
            return 0.0
        return math.sqrt(self.variance / self.n)


@dataclass(frozen=True)
class EstimateReport:
    metric: str
    protocol: str
    n_runs: int
    n_censored: int
    mean: float
    stderr: float
    ci95: tuple[float, float]
    closed_form: float | None
    rel_deviation: float | None
    tolerance: float | None
    passed: bool | None
    seed: int
    horizon: int

    def to_dict(self) -> dict:
        d = {
            "metric": self.metric, "protocol": self.protocol,
            "n_runs": self.n_runs, "n_censored": self.n_censored,
            "mean": self.mean, "stderr": self.stderr,
            "ci95_low": self.ci95[0], "ci95_high": self.ci95[1],
            "closed_form": self.closed_form,
            "rel_deviation": self.rel_deviation,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "seed": self.seed, "horizon": self.horizon,
        }
        return d


def _map_chunks(fn, n_runs: int, jobs: int) -> list:
    """fn((start, count)) over the CHUNK-sized run ranges of n_runs runs,
    on ``jobs`` threads when jobs > 1; results come back in chunk order."""
    ranges = [(s, min(CHUNK, n_runs - s)) for s in range(0, n_runs, CHUNK)]
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, ranges))
    return [fn(r) for r in ranges]


def _single_metric_arrays(arrays, metric, costs, horizon, truncate):
    wait = np.minimum(np.minimum(arrays["t_p"], arrays["t_q"]), arrays["t_f"])
    if metric == "t_wait":
        if truncate:
            return np.minimum(wait, horizon).astype(np.float64), None
        return wait.astype(np.float64), wait > horizon
    if metric == "n_send":
        vals = arrays["n_send"].astype(np.float64)
        if truncate:
            return vals, None
        return vals, arrays["active"] == 1
    if metric == "c0":
        cens = (wait > horizon) | (arrays["active"] == 1)
        vals = (arrays["n_send"] * costs.c_send + wait * costs.c_wait).astype(np.float64)
        if truncate:
            vals = (arrays["n_send"] * costs.c_send
                    + np.minimum(wait, horizon) * costs.c_wait).astype(np.float64)
            return vals, None
        return vals, cens
    if metric == "c1":
        w = np.minimum(wait, horizon).astype(np.float64)
        with np.errstate(over="ignore"):
            vals = np.power(costs.n_exp, w)
        if truncate:
            return vals, None
        return vals, wait > horizon
    raise ValueError(f"unknown single-mode metric {metric!r}")


def estimate(protocol: ProtocolSpec, params: SystemParams, costs: CostParams,
             metric: str, n_runs: int, horizon: int, seed: int,
             jobs: int = 1, tolerance: float | None = None,
             epsilon_gate: float = DEFAULT_EPSILON_GATE,
             lam: float | None = None, truncate: bool = False) -> EstimateReport:
    """Monte Carlo estimate of one metric over independent seeded runs.

    Censored runs (quantity undetermined within the horizon) are excluded
    from the mean and counted; with ``truncate=True`` quantities are capped
    at the horizon instead and nothing is censored (probe use).  A matching
    closed form is attached whenever its validity regime holds.
    """
    require_valid(params, costs, protocol)
    if n_runs < 2:
        raise ValueError("n_runs must be >= 2")
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}")
    if metric == "c_avg" and protocol.kind != "srhb":
        raise ValueError("the average-cost metric is defined for the srhb protocol")
    if metric == "c1":
        slack = costs.n_exp * (1.0 - params.beta_p) * (1.0 - params.beta_q)
        if slack <= 1.0:
            raise ValueError(
                "c1 analysis requires n_exp*(1-beta_p)*(1-beta_q) > 1, "
                f"got {slack}")

    def run_chunk(rng):
        start, count = rng
        seeds = kernels.make_seeds(seed, start, count)
        stats = RunningStats()
        if metric == "c_avg":
            arrays = kernels.repeated_batch(params, costs, horizon, seeds)
            stats.update(arrays["ratio"])
        else:
            arrays = kernels.single_batch(protocol.code, params, horizon,
                                          seeds, ack_base=protocol.ack_base)
            vals, cens = _single_metric_arrays(arrays, metric, costs, horizon,
                                               truncate)
            stats.update(vals, cens)
        return stats

    merged = RunningStats()
    for stats in _map_chunks(run_chunk, n_runs, jobs):
        merged.merge(stats)

    if merged.n == 0:
        raise RuntimeError(
            f"all {n_runs} runs censored at horizon {horizon}; "
            "increase the horizon or use truncate=True")
    mean = merged.mean
    stderr = merged.stderr
    cf = closed_form_for(protocol.kind, metric, params, costs, lam, epsilon_gate)
    rel = None
    passed = None
    if cf is not None:
        rel = abs(mean - cf) / max(abs(cf), 1e-12)
        if tolerance is not None:
            passed = rel <= tolerance
    return EstimateReport(
        metric=metric, protocol=protocol.kind, n_runs=n_runs,
        n_censored=merged.n_censored, mean=mean, stderr=stderr,
        ci95=(mean - 1.96 * stderr, mean + 1.96 * stderr),
        closed_form=cf, rel_deviation=rel, tolerance=tolerance, passed=passed,
        seed=seed, horizon=horizon,
    )


# ---------------------------------------------------------------------------
# the conditional completion curve

@dataclass(frozen=True)
class S2Point:
    t: int
    prob: float | None        # None when no run had both processes up at t
    n_conditioned: int


def s2_curve(protocol: ProtocolSpec, params: SystemParams, t_grid,
             n_runs: int, seed: int, horizon: int | None = None,
             jobs: int = 1) -> list[S2Point]:
    """Empirical Pr(receiver finished before t | both processes up at t).

    Completion is counted strictly before t, matching the convention that a
    payload sent in the k-th tick after start can only have finished the
    receiver by grid point t = tau + k.
    """
    require_valid(params, protocol=protocol)
    grid = [int(t) for t in t_grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("t_grid must be strictly increasing")
    if horizon is None:
        horizon = max(grid) + 1
    if max(grid) > horizon:
        raise ValueError("t_grid exceeds the horizon")

    grid_arr = np.array(grid, dtype=np.int64)
    up_counts = np.zeros(len(grid), dtype=np.int64)
    fin_counts = np.zeros(len(grid), dtype=np.int64)

    def run_chunk(rng):
        start, count = rng
        seeds = kernels.make_seeds(seed, start, count)
        arrays = kernels.single_batch(protocol.code, params, horizon, seeds,
                                      ack_base=protocol.ack_base)
        first_crash = np.minimum(arrays["t_p"], arrays["t_q"])
        up = first_crash[:, None] > grid_arr[None, :]
        fin = up & (arrays["t_f"][:, None] < grid_arr[None, :])
        return up.sum(axis=0), fin.sum(axis=0)

    for up, fin in _map_chunks(run_chunk, n_runs, jobs):
        up_counts += up
        fin_counts += fin

    points = []
    for i, t in enumerate(grid):
        if up_counts[i] == 0:
            points.append(S2Point(t=t, prob=None, n_conditioned=0))
        else:
            points.append(S2Point(t=t, prob=float(fin_counts[i]) / float(up_counts[i]),
                                  n_conditioned=int(up_counts[i])))
    return points


# ---------------------------------------------------------------------------
# probes

@dataclass(frozen=True)
class DivergenceReport:
    protocol: str
    horizons: tuple[int, ...]
    means: tuple[float, ...]
    ratios: tuple[float, ...]
    verdict: str              # DIVERGENT | BOUNDED | INCONCLUSIVE
    growth_threshold: float
    bounded_tol: float
    note: str

    def to_dict(self) -> dict:
        return {
            "protocol": self.protocol, "horizons": list(self.horizons),
            "means": list(self.means), "ratios": list(self.ratios),
            "verdict": self.verdict,
            "growth_threshold": self.growth_threshold,
            "bounded_tol": self.bounded_tol, "note": self.note,
        }


def divergence_probe(protocol: ProtocolSpec, params: SystemParams,
                     horizons, n_runs: int, seed: int,
                     growth_threshold: float = 1.3, bounded_tol: float = 0.05,
                     jobs: int = 1) -> DivergenceReport:
    """Truncated mean send count across growing horizons.

    Divergence cannot be proven by simulation: DIVERGENT is a growth
    signature (every successive ratio at or above the threshold), BOUNDED
    means the truncated means have stabilized within the tolerance.  The
    same per-run seeds are reused at every horizon, so longer horizons
    extend the same runs and the ratios are tightly coupled.
    """
    hs = [int(h) for h in horizons]
    if any(b <= a for a, b in zip(hs, hs[1:])):
        raise ValueError("horizons must be strictly increasing")
    costs = CostParams(c_send=1.0, c_wait=1.0)
    means = []
    for h in hs:
        rep = estimate(protocol, params, costs, "n_send", n_runs, h, seed,
                       jobs=jobs, truncate=True)
        means.append(rep.mean)
    ratios = []
    for a, b in zip(means, means[1:]):
        ratios.append(b / a if a > 0 else (0.0 if b == 0 else math.inf))
    if all(m == 0.0 for m in means):
        verdict = "BOUNDED"
    elif ratios and all(r >= growth_threshold for r in ratios):
        verdict = "DIVERGENT"
    elif ratios and all(abs(r - 1.0) <= bounded_tol for r in ratios):
        verdict = "BOUNDED"
    else:
        verdict = "INCONCLUSIVE"
    return DivergenceReport(
        protocol=protocol.kind, horizons=tuple(hs), means=tuple(means),
        ratios=tuple(ratios), verdict=verdict,
        growth_threshold=growth_threshold, bounded_tol=bounded_tol,
        note=("growth-signature heuristic: DIVERGENT means every "
              "horizon-doubling grew the truncated mean by at least the "
              "threshold; it is not a proof of divergence"),
    )


@dataclass(frozen=True)
class ScenarioReport:
    name: str
    n_send: int
    last_send: int | None
    sends_stop: bool          # run went quiescent before the horizon
    finished: bool
    t_wait_capped: int
    quiesce_t: int | None

    def to_dict(self) -> dict:
        return {
            "name": self.name, "n_send": self.n_send,
            "last_send": self.last_send, "sends_stop": self.sends_stop,
            "finished": self.finished, "t_wait_capped": self.t_wait_capped,
            "quiesce_t": self.quiesce_t,
        }


@dataclass(frozen=True)
class ImpossibilityReport:
    protocol: str
    horizon: int
    scenarios: dict
    unbounded_signature: str | None
    heartbeat_escape: bool
    note: str

    def to_dict(self) -> dict:
        return {
            "protocol": self.protocol, "horizon": self.horizon,
            "scenarios": {k: v.to_dict() for k, v in self.scenarios.items()},
            "unbounded_signature": self.unbounded_signature,
            "heartbeat_escape": self.heartbeat_escape,
            "note": self.note,
        }


def _scenario_from_trace(name, trace) -> ScenarioReport:
    sends = [r for r in trace.messages if r.kind != "hbmsg"]
    wait = min(trace.t_p, trace.t_q, trace.t_f, trace.horizon)
    return ScenarioReport(
        name=name,
        n_send=len(sends),
        last_send=max((r.send_time for r in sends), default=None),
        sends_stop=trace.quiesce_t is not None,
        finished=trace.finished,
        t_wait_capped=int(wait),
        quiesce_t=trace.quiesce_t,
    )


def impossibility_probe(protocol: ProtocolSpec, params: SystemParams,
                        horizon: int, seed: int) -> ImpossibilityReport:
    """Forced-scenario probe behind the unbounded-cost argument.

    Three forced families: the receiver dead at tick 0 with a correct sender
    (R1), the mirror image (R2), and both correct with every transmission up
    to a probe time lost (R3).  For any protocol without a failure-detection
    side channel, at least one scenario exhibits an unbounded-cost signature
    (send count or waiting time growing with the horizon); the heartbeat
    protocol escapes by quiescing, which the report calls out.
    """
    require_valid(params, protocol=protocol)
    never = horizon + 1
    r1 = engine.run_single(protocol, params, seed, horizon,
                           force_tp=never, force_tq=0)
    r2 = engine.run_single(protocol, params, seed, horizon,
                           force_tp=0, force_tq=never)
    # the R3 loss window starts one past the forced-scenario stop times; if a
    # scenario never stopped the signature is already there and any window works
    stops = [0]
    for tr in (r1, r2):
        if tr.quiesce_t is not None:
            last = max((r.send_time for r in tr.messages if r.kind != "hbmsg"),
                       default=0)
            stops.append(last)
    probe_cut = 1 + max(stops)
    r3 = engine.run_single(protocol, params, seed, horizon,
                           force_tp=never, force_tq=never,
                           force_loss_until=probe_cut)
    scenarios = {
        "R1": _scenario_from_trace("R1", r1),
        "R2": _scenario_from_trace("R2", r2),
        "R3": _scenario_from_trace("R3", r3),
    }
    signature = None
    if not scenarios["R1"].sends_stop:
        signature = "R1:n_send"
    elif not scenarios["R2"].sends_stop:
        signature = "R2:n_send"
    elif not scenarios["R3"].finished and scenarios["R3"].t_wait_capped >= horizon:
        signature = "R3:t_wait"
    elif not scenarios["R3"].sends_stop:
        signature = "R3:n_send"
    escape = signature is None
    note = ("every forced scenario went quiescent with bounded cost: the "
            "failure-detection layer's silence lets the sender stop, which "
            "is exactly the escape hatch from the unbounded-cost argument"
            if escape else
            f"unbounded-cost signature observed in scenario {signature}")
    return ImpossibilityReport(
        protocol=protocol.kind, horizon=horizon, scenarios=scenarios,
        unbounded_signature=signature, heartbeat_escape=escape, note=note,
    )


@dataclass(frozen=True)
class GrowthReport:
    protocol: str
    metric: str
    horizons: tuple[int, ...]
    means: tuple[float, ...]
    ratios: tuple[float, ...]
    growing: bool

    def to_dict(self) -> dict:
        return {
            "protocol": self.protocol, "metric": self.metric,
            "horizons": list(self.horizons), "means": list(self.means),
            "ratios": list(self.ratios), "growing": self.growing,
        }


def c1_growth_probe(params: SystemParams, costs: CostParams, horizons,
                    n_runs: int, seed: int,
                    protocol: ProtocolSpec | None = None,
                    jobs: int = 1) -> GrowthReport:
    """Truncated expectation of the exponential cost across horizons.

    The default subject is the do-nothing protocol with correct processes:
    its truncated wait equals the horizon, so the truncated E(c1) grows
    without bound, the signature that the exponential penalty rules it out.
    """
    protocol = protocol or ProtocolSpec("trivial")
    hs = [int(h) for h in horizons]
    if any(b <= a for a, b in zip(hs, hs[1:])):
        raise ValueError("horizons must be strictly increasing")
    means = []
    for h in hs:
        rep = estimate(protocol, params, costs, "c1", n_runs, h, seed,
                       jobs=jobs, truncate=True)
        means.append(rep.mean)
    ratios = [b / a if a > 0 else math.inf for a, b in zip(means, means[1:])]
    growing = all(b > a for a, b in zip(means, means[1:]))
    return GrowthReport(protocol=protocol.kind, metric="c1_truncated",
                        horizons=tuple(hs), means=tuple(means),
                        ratios=tuple(ratios), growing=growing)


# ---------------------------------------------------------------------------
# lambda estimation and the heartbeat-period optimizer

@dataclass(frozen=True)
class LambdaEstimate:
    value: float
    stderr: float
    ci95: tuple[float, float]
    n_runs: int
    z: float
    hb_share: float           # c_send / (delta * sigma)
    mean_completed: float
    in_unit_interval: bool
    inconsistent: bool        # outside [0, 1] beyond the 95% CI
    low_invocations: bool

    def to_dict(self) -> dict:
        return {
            "value": self.value, "stderr": self.stderr,
            "ci95_low": self.ci95[0], "ci95_high": self.ci95[1],
            "n_runs": self.n_runs, "z": self.z, "hb_share": self.hb_share,
            "mean_completed": self.mean_completed,
            "in_unit_interval": self.in_unit_interval,
            "inconsistent": self.inconsistent,
            "low_invocations": self.low_invocations,
        }


def estimate_lambda(params: SystemParams, costs: CostParams, n_runs: int,
                    horizon: int, seed: int, jobs: int = 1) -> LambdaEstimate:
    """Empirical attenuation constant of the repeated-mode prediction:
    (mean average cost - c_send/(delta*sigma)) / Z.

    Only defined in the crash-only regime; there is no closed evaluation.
    """
    _require_crash_only(params)
    if params.sigma <= 0.0:
        raise ValueError("lambda estimation requires sigma > 0")
    ratio_stats = RunningStats()
    completed_stats = RunningStats()

    def run_chunk(rng):
        start, count = rng
        seeds = kernels.make_seeds(seed, start, count)
        arrays = kernels.repeated_batch(params, costs, horizon, seeds)
        rs, cs = RunningStats(), RunningStats()
        rs.update(arrays["ratio"])
        cs.update(arrays["n_complete"])
        return rs, cs

    for rs, cs in _map_chunks(run_chunk, n_runs, jobs):
        ratio_stats.merge(rs)
        completed_stats.merge(cs)

    z = invocation_cost_z(params, costs)
    hb_share = costs.c_send / (params.delta * params.sigma)
    lam = (ratio_stats.mean - hb_share) / z
    se = ratio_stats.stderr / z
    lo, hi = lam - 1.96 * se, lam + 1.96 * se
    inconsistent = hi < 0.0 or lo > 1.0
    return LambdaEstimate(
        value=lam, stderr=se, ci95=(lo, hi), n_runs=n_runs, z=z,
        hb_share=hb_share, mean_completed=completed_stats.mean,
        in_unit_interval=0.0 < lam < 1.0, inconsistent=inconsistent,
        low_invocations=completed_stats.mean < 10.0,
    )


@dataclass(frozen=True)
class OptimizeResult:
    delta_star: int
    curve: tuple[tuple[int, float], ...]
    lam: float | None

    def to_dict(self) -> dict:
        return {"delta_star": self.delta_star,
                "curve": [[d, c] for d, c in self.curve],
                "lambda": self.lam}


def optimize_delta(params: SystemParams, costs: CostParams,
                   lam: float | None, delta_range) -> OptimizeResult:
    """Heartbeat period minimizing the predicted repeated-mode average cost
    over a finite grid; ties break toward the smaller period."""
    deltas = sorted({int(d) for d in delta_range})
    if not deltas:
        raise ValueError("delta_range must be non-empty")
    if deltas[0] < 1:
        raise ValueError("delta values must be >= 1")
    curve = []
    best_d, best_c = None, math.inf
    for d in deltas:
        p = SystemParams(alpha_p=params.alpha_p, alpha_q=params.alpha_q,
                         beta_p=params.beta_p, beta_q=params.beta_q,
                         gamma=params.gamma, tau=params.tau, delta=d,
                         sigma=params.sigma)
        c = repeated_avg_cost(p, costs, lam)
        curve.append((d, c))
        if c < best_c:
            best_d, best_c = d, c
    return OptimizeResult(delta_star=best_d, curve=tuple(curve), lam=lam)


# ---------------------------------------------------------------------------
# report rendering

def render_reports(reports) -> str:
    """Aligned-column text table with one PASS/FAIL verdict per report."""
    header = ["protocol", "metric", "n_runs", "censored", "mean", "stderr",
              "closed_form", "rel_dev", "verdict"]
    rows = [header]
    for r in reports:
        if r.closed_form is None:
            cf, dev, verdict = "-", "-", "NO-PREDICTION"
        else:
            cf = f"{r.closed_form:.6g}"
            dev = f"{r.rel_deviation:.3%}"
            if r.passed is None:
                verdict = "-"
            else:
                verdict = "PASS" if r.passed else "FAIL"
        rows.append([r.protocol, r.metric, str(r.n_runs), str(r.n_censored),
                     f"{r.mean:.6g}", f"{r.stderr:.3g}", cf, dev, verdict])
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = []
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"
