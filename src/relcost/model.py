"""Model parameters, their validation, and strict JSON loading.

Everything here is a plain immutable value type.  Validation never raises for
bad parameter values: violations are returned as data so callers (CLI,
experiment configs) can report all of them at once.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields

PROTOCOL_NAMES = ("trivial", "sender", "receiver", "srhb", "pathological")

# integer codes shared with the numeric kernels
PROTOCOL_CODES = {name: code for code, name in enumerate(PROTOCOL_NAMES)}


@dataclass(frozen=True)
class SystemParams:
    """Stochastic model of the two processes and the link.

    alpha_x: probability process x never crashes.
    beta_x:  per-tick crash probability, conditional on x not being correct.
    gamma:   per-message loss probability of the link.
    tau:     link transmission delay in ticks.
    delta:   heartbeat / retransmission period in ticks.
    sigma:   per-tick invocation probability (repeated mode only).
    """

    alpha_p: float
    alpha_q: float
    beta_p: float
    beta_q: float
    gamma: float
    tau: int
    delta: int
    sigma: float = 0.0


@dataclass(frozen=True)
class CostParams:
    """Utility constants: cost per send, cost per tick waited, and the base
    of the exponential waiting penalty.  Costs are stored as non-negative
    magnitudes; totals are reported as non-negative numbers."""

    c_send: float
    c_wait: float
    n_exp: float = 2.0


@dataclass(frozen=True)
class ProtocolSpec:
    """Selects one of the five protocol state machines by name.

    ack_base is only meaningful for the pathological protocol, where the
    receiver delays its k-th acknowledgement by ceil(ack_base**k) ticks.
    """

    kind: str
    ack_base: float = 2.0

    @property
    def code(self) -> int:
        return PROTOCOL_CODES[self.kind]


def _prob_in(name, value, lo, hi, lo_strict=False, hi_strict=False):
    bad = False
    if lo_strict and value <= lo:
        bad = True
    if not lo_strict and value < lo:
        bad = True
    if hi_strict and value >= hi:
        bad = True
    if not hi_strict and value > hi:
        bad = True
    if bad:
        lo_b = "(" if lo_strict else "["
        hi_b = ")" if hi_strict else "]"
        return [f"{name} must be in {lo_b}{lo}, {hi}{hi_b}, got {value}"]
    return []


def validate(params: SystemParams, costs: CostParams | None = None,
             protocol: ProtocolSpec | None = None) -> list[str]:
    """Return every violated parameter bound; an empty list means all invariants hold."""
    v: list[str] = []
    v += _prob_in("alpha_p", params.alpha_p, 0.0, 1.0)
    v += _prob_in("alpha_q", params.alpha_q, 0.0, 1.0)
    if params.beta_p <= 0.0:
        v.append(f"beta_p must be > 0, got {params.beta_p}")
    elif params.beta_p > 1.0:
        v.append(f"beta_p must be <= 1, got {params.beta_p}")
    if params.beta_q <= 0.0:
        v.append(f"beta_q must be > 0, got {params.beta_q}")
    elif params.beta_q > 1.0:
        v.append(f"beta_q must be <= 1, got {params.beta_q}")
    if not 0.0 <= params.gamma < 1.0:
        v.append(f"gamma must be < 1 and >= 0, got {params.gamma}")
    if int(params.tau) != params.tau or params.tau < 1:
        v.append(f"tau must be an integer >= 1, got {params.tau}")
    if int(params.delta) != params.delta or params.delta < 1:
        v.append(f"delta must be an integer >= 1, got {params.delta}")
    v += _prob_in("sigma", params.sigma, 0.0, 1.0)

    if costs is not None:
        if costs.c_send < 0.0:
            v.append(f"c_send must be >= 0, got {costs.c_send}")
        if costs.c_wait < 0.0:
            v.append(f"c_wait must be >= 0, got {costs.c_wait}")
        if costs.n_exp <= 1.0:
            v.append(f"n_exp must be > 1, got {costs.n_exp}")

    if protocol is not None:
        if protocol.kind not in PROTOCOL_NAMES:
            v.append(f"protocol kind must be one of {PROTOCOL_NAMES}, got {protocol.kind!r}")
        elif protocol.kind == "pathological" and protocol.ack_base <= 1.0:
            v.append(f"ack_base must be > 1, got {protocol.ack_base}")
    return v


def combined_crash_rate(params: SystemParams) -> float:
    """Per-tick probability that at least one process crashes, given both are
    still up and neither is correct: beta_p + beta_q - beta_p*beta_q."""
    return params.beta_p + params.beta_q - params.beta_p * params.beta_q


def require_valid(params: SystemParams, costs: CostParams | None = None,
                  protocol: ProtocolSpec | None = None) -> None:
    violations = validate(params, costs, protocol)
    if violations:
        raise ValueError("invalid parameters: " + "; ".join(violations))


def _from_strict_dict(cls, data, what):
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    names = [f.name for f in fields(cls)]
    unknown = sorted(set(data) - set(names))
    if unknown:
        raise ValueError(f"unknown {what} keys: {', '.join(unknown)}")
    required = [f.name for f in fields(cls) if f.default is MISSING]
    missing = sorted(set(required) - set(data))
    if missing:
        raise ValueError(f"missing {what} keys: {', '.join(missing)}")
    for f in fields(cls):
        value = data.get(f.name)
        if f.name in data and f.type in ("int", "float") and (
                isinstance(value, bool) or not isinstance(value, (int, float))):
            raise ValueError(f"{what} {f.name} must be a number, got {value!r}")
    return cls(**data)


def system_params_from_dict(data: dict) -> SystemParams:
    """Strict loader: exactly the SystemParams field names, unknown keys rejected."""
    return _from_strict_dict(SystemParams, data, "system parameter")


def cost_params_from_dict(data: dict) -> CostParams:
    return _from_strict_dict(CostParams, data, "cost parameter")


def protocol_spec_from_dict(data: dict) -> ProtocolSpec:
    spec = _from_strict_dict(ProtocolSpec, data, "protocol")
    if spec.kind not in PROTOCOL_NAMES:
        raise ValueError(f"protocol kind must be one of {PROTOCOL_NAMES}, got {spec.kind!r}")
    return spec


def system_params_from_json(text: str) -> SystemParams:
    return system_params_from_dict(json.loads(text))


def cost_params_from_json(text: str) -> CostParams:
    return cost_params_from_dict(json.loads(text))
