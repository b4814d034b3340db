"""Batch experiment runner: JSON configs in, tables/CSV/JSON out.

    relcost simulate|compare|s2|probe|optimize --config <path>
            [--out <dir>] [--seed-override <u64>]

Commands are idempotent for a given (config, seed): outputs are byte
identical across reruns.  The exit status reports operational failure only;
a scientific FAIL verdict lives inside the report files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from . import analysis, cost, engine
from .model import (CostParams, ProtocolSpec, SystemParams,
                    cost_params_from_dict, protocol_spec_from_dict,
                    system_params_from_dict, validate)

_CONFIG_KEYS = {
    "protocol", "protocols", "system", "costs", "mode", "metrics", "n_runs",
    "horizon", "seed", "t_grid", "delta_range", "horizons", "tolerance",
    "epsilon_gate", "lambda", "probe", "growth_threshold", "bounded_tol",
}


class ConfigError(Exception):
    pass


@dataclass
class ExperimentConfig:
    protocol: ProtocolSpec
    protocols: list          # all protocols named by the config (>= 1)
    system: SystemParams
    costs: CostParams
    mode: str
    metrics: list
    n_runs: int
    horizon: int
    seed: int
    t_grid: list | None
    delta_range: list | None
    horizons: list | None
    tolerance: float
    epsilon_gate: float
    lam: float | None
    probe: str | None
    growth_threshold: float
    bounded_tol: float


def load_config(path: str) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(raw) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    if "protocol" not in raw and "protocols" not in raw:
        raise ConfigError("missing config key: protocol")
    for key in ("system", "costs"):
        if key not in raw:
            raise ConfigError(f"missing config key: {key}")
    proto_docs = raw["protocols"] if "protocols" in raw else [raw["protocol"]]
    if not isinstance(proto_docs, list) or not proto_docs:
        raise ConfigError(f"protocols must be a non-empty list, got {proto_docs!r}")
    try:
        protocols = [protocol_spec_from_dict(d) for d in proto_docs]
        system = system_params_from_dict(raw["system"])
        costs = cost_params_from_dict(raw["costs"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for proto in protocols:
        violations = validate(system, costs, proto)
        if violations:
            raise ConfigError("invalid parameters: " + "; ".join(violations))

    delta_range = raw.get("delta_range")
    if isinstance(delta_range, dict):
        extra = sorted(set(delta_range) - {"min", "max"})
        if extra:
            raise ConfigError(f"unknown delta_range keys: {', '.join(extra)}")
        lo = _integer(delta_range, "min", None, 1, "delta_range min")
        hi = _integer(delta_range, "max", None, lo, "delta_range max")
        delta_range = list(range(lo, hi + 1))
    else:
        delta_range = _int_list(raw, "delta_range", 1)
    mode = raw.get("mode", "single")
    if mode not in ("single", "repeated"):
        raise ConfigError(f"mode must be 'single' or 'repeated', got {mode!r}")
    if mode == "repeated" and any(p.kind != "srhb" for p in protocols):
        raise ConfigError("repeated mode is defined for the srhb protocol")
    probe = raw.get("probe")
    if probe is not None and probe not in ("divergence", "impossibility", "c1_growth"):
        raise ConfigError(f"unknown probe {probe!r}")
    metrics = raw.get("metrics", [])
    if not isinstance(metrics, list) or any(m not in analysis.METRICS for m in metrics):
        raise ConfigError(f"metrics must be a list drawn from {list(analysis.METRICS)}, "
                          f"got {metrics!r}")
    if "c_avg" in metrics and any(p.kind != "srhb" for p in protocols):
        raise ConfigError("the average-cost metric c_avg is defined for the srhb protocol")
    horizon = _integer(raw, "horizon", 4096, 1)
    t_grid = _increasing(raw, "t_grid", 0)
    if t_grid and t_grid[-1] > horizon:
        raise ConfigError(f"t_grid exceeds the horizon {horizon}, got {t_grid!r}")
    lam = raw.get("lambda")
    if lam is not None:
        if isinstance(lam, bool) or not isinstance(lam, (int, float)) or not 0 < lam < 1:
            raise ConfigError(f"lambda must be a number in (0, 1), got {lam!r}")
        lam = float(lam)
    return ExperimentConfig(
        protocol=protocols[0], protocols=protocols, system=system,
        costs=costs, mode=mode, metrics=metrics,
        n_runs=_integer(raw, "n_runs", 1000, 2),
        horizon=horizon,
        seed=_integer(raw, "seed", 0, 0, hi=2 ** 64 - 1),
        t_grid=t_grid,
        delta_range=delta_range,
        horizons=_increasing(raw, "horizons", 1),
        tolerance=_number(raw, "tolerance", 0.05, 0.0),
        epsilon_gate=_number(raw, "epsilon_gate", analysis.DEFAULT_EPSILON_GATE, 0.0),
        lam=lam,
        probe=probe,
        growth_threshold=_number(raw, "growth_threshold", 1.3, 0.0),
        bounded_tol=_number(raw, "bounded_tol", 0.05, 0.0),
    )


def _integer(doc, key, default, lo, name=None, hi=None):
    """doc[key] (or the default) as an integer in [lo, hi]."""
    value = doc.get(key, default)
    if (isinstance(value, bool) or not isinstance(value, int) or value < lo
            or (hi is not None and value > hi)):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ConfigError(f"{name or key} must be an integer {bound}, got {value!r}")
    return value


def _number(doc, key, default, lo):
    """doc[key] (or the default) as a finite float >= lo."""
    value = doc.get(key, default)
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not lo <= value < math.inf):
        raise ConfigError(f"{key} must be a finite number >= {lo}, got {value!r}")
    return float(value)


def _int_list(doc, key, lo):
    """doc[key] as a non-empty list of integers >= lo, or None when absent."""
    value = doc.get(key)
    if value is None:
        return None
    if (not isinstance(value, list) or not value
            or any(isinstance(v, bool) or not isinstance(v, int) or v < lo
                   for v in value)):
        raise ConfigError(f"{key} must be a non-empty list of integers >= {lo}, "
                          f"got {value!r}")
    return value


def _increasing(doc, key, lo):
    """doc[key] as a strictly increasing list of integers >= lo, or None."""
    value = _int_list(doc, key, lo)
    if value and any(b <= a for a, b in zip(value, value[1:])):
        raise ConfigError(f"{key} must be strictly increasing, got {value!r}")
    return value


def _sanitize(obj):
    """inf -> "inf" strings so emitted JSON stays standard."""
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _write_json(path: Path, data) -> None:
    path.write_text(json.dumps(_sanitize(data), indent=2, sort_keys=True) + "\n")


def _render_t(t, horizon):
    return "inf" if t > horizon else t


def cmd_simulate(cfg: ExperimentConfig, out: Path) -> int:
    if cfg.mode == "repeated":
        trace = engine.run_repeated(cfg.system, cfg.seed, cfg.horizon)
        points, sup = cost.avg_cost_series(trace, cfg.costs)
        (out / f"trace-{cfg.seed}.log").write_text(engine.serialize_trace(trace))
        with (out / "series.csv").open("w") as fh:
            cost.series_to_csv(points, fh)
        summary = {
            "mode": "repeated", "seed": cfg.seed, "horizon": cfg.horizon,
            "t_p": _render_t(trace.t_p, cfg.horizon),
            "t_q": _render_t(trace.t_q, cfg.horizon),
            "n_invocations": len(trace.invocations),
            "n_completed": sum(1 for r in trace.invocations if r.complete_t >= 0),
            "hb_count_p": trace.hb_count_p, "hb_count_q": trace.hb_count_q,
            "final_ratio": float(points.ratio[-1]) if len(points) else 0.0,
            "running_sup": sup,
        }
    else:
        trace = engine.run_single(cfg.protocol, cfg.system, cfg.seed, cfg.horizon)
        (out / f"trace-{cfg.seed}.log").write_text(engine.serialize_trace(trace))
        bd = cost.breakdown(trace, cfg.costs)
        summary = {
            "mode": "single", "protocol": cfg.protocol.kind,
            "seed": cfg.seed, "horizon": cfg.horizon,
            "t_p": _render_t(trace.t_p, cfg.horizon),
            "t_q": _render_t(trace.t_q, cfg.horizon),
            "t_f": _render_t(trace.t_f, cfg.horizon),
            "quiesce_t": trace.quiesce_t,
            "truncated": trace.truncated,
            "sends": bd.num_sends, "wait": bd.wait,
            "c0": bd.c0, "c1": bd.c1,
            "audit_violations": engine.audit_trace(trace, cfg.system),
        }
    _write_json(out / "summary.json", summary)
    return 0


def cmd_compare(cfg: ExperimentConfig, out: Path) -> int:
    metrics = cfg.metrics or ["t_wait", "n_send"]
    reports = []
    for proto in cfg.protocols:
        for metric in metrics:
            reports.append(analysis.estimate(
                proto, cfg.system, cfg.costs, metric,
                cfg.n_runs, cfg.horizon, cfg.seed,
                tolerance=cfg.tolerance, epsilon_gate=cfg.epsilon_gate,
                lam=cfg.lam))
    (out / "table.txt").write_text(analysis.render_reports(reports))
    _write_json(out / "summary.json", {"reports": [r.to_dict() for r in reports]})
    return 0


def cmd_s2(cfg: ExperimentConfig, out: Path) -> int:
    if not cfg.t_grid:
        raise ConfigError("s2 requires a t_grid")
    points = analysis.s2_curve(cfg.protocol, cfg.system, cfg.t_grid,
                               cfg.n_runs, cfg.seed, horizon=cfg.horizon)
    with (out / "series.csv").open("w") as fh:
        fh.write("t,prob,n_conditioned\n")
        for p in points:
            prob = "" if p.prob is None else repr(p.prob)
            fh.write(f"{p.t},{prob},{p.n_conditioned}\n")
    _write_json(out / "summary.json", {
        "protocol": cfg.protocol.kind,
        "points": [{"t": p.t, "prob": p.prob, "n_conditioned": p.n_conditioned}
                   for p in points],
    })
    return 0


def cmd_probe(cfg: ExperimentConfig, out: Path) -> int:
    if cfg.probe == "impossibility":
        rep = analysis.impossibility_probe(cfg.protocol, cfg.system,
                                           cfg.horizon, cfg.seed)
        lines = [f"scenario  n_send  sends_stop  finished  t_wait_capped"]
        for name, s in rep.scenarios.items():
            lines.append(f"{name:<9} {s.n_send:<7} {str(s.sends_stop):<11} "
                         f"{str(s.finished):<9} {s.t_wait_capped}")
        lines.append(f"unbounded_signature: {rep.unbounded_signature}")
        lines.append(f"heartbeat_escape: {rep.heartbeat_escape}")
        (out / "table.txt").write_text("\n".join(lines) + "\n")
        _write_json(out / "summary.json", rep.to_dict())
        return 0
    if cfg.probe == "c1_growth":
        if not cfg.horizons:
            raise ConfigError("c1_growth probe requires horizons")
        rep = analysis.c1_growth_probe(cfg.system, cfg.costs, cfg.horizons,
                                       cfg.n_runs, cfg.seed,
                                       protocol=cfg.protocol)
        lines = ["horizon  truncated_mean_c1"]
        for h, m in zip(rep.horizons, rep.means):
            lines.append(f"{h:<8} {m!r}")
        lines.append(f"growing: {rep.growing}")
        (out / "table.txt").write_text("\n".join(lines) + "\n")
        _write_json(out / "summary.json", rep.to_dict())
        return 0
    # default: divergence
    if not cfg.horizons:
        raise ConfigError("divergence probe requires horizons")
    rep = analysis.divergence_probe(cfg.protocol, cfg.system, cfg.horizons,
                                    cfg.n_runs, cfg.seed,
                                    growth_threshold=cfg.growth_threshold,
                                    bounded_tol=cfg.bounded_tol)
    lines = ["horizon  truncated_mean_n_send  ratio"]
    for i, (h, m) in enumerate(zip(rep.horizons, rep.means)):
        ratio = "" if i == 0 else f"{rep.ratios[i - 1]:.4g}"
        lines.append(f"{h:<8} {m:<21.6g} {ratio}")
    lines.append(f"verdict: {rep.verdict}")
    (out / "table.txt").write_text("\n".join(lines) + "\n")
    _write_json(out / "summary.json", rep.to_dict())
    return 0


def cmd_optimize(cfg: ExperimentConfig, out: Path) -> int:
    if not cfg.delta_range:
        raise ConfigError("optimize requires a delta_range")
    res = analysis.optimize_delta(cfg.system, cfg.costs, cfg.lam,
                                  cfg.delta_range)
    lines = ["delta  predicted_avg_cost"]
    for d, c in res.curve:
        lines.append(f"{d:<6} {c:.6g}")
    lines.append(f"delta_star: {res.delta_star}")
    (out / "table.txt").write_text("\n".join(lines) + "\n")
    with (out / "series.csv").open("w") as fh:
        fh.write("delta,predicted_avg_cost\n")
        for d, c in res.curve:
            fh.write(f"{d},{c!r}\n")
    _write_json(out / "summary.json", res.to_dict())
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "s2": cmd_s2,
    "probe": cmd_probe,
    "optimize": cmd_optimize,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="relcost",
        description="reliable-delivery cost experiments: simulate, compare "
                    "against closed forms, probe, and optimize")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=".")
        p.add_argument("--seed-override", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.seed_override is not None:
            cfg.seed = _integer(vars(args), "seed_override", None, 0, hi=2 ** 64 - 1)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        return _COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
