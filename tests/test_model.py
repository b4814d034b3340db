import json

import pytest
from hypothesis import given, strategies as st

from relcost.model import (CostParams, ProtocolSpec, SystemParams,
                           combined_crash_rate, cost_params_from_dict,
                           protocol_spec_from_dict, system_params_from_dict,
                           validate)


def params(**kw):
    base = dict(alpha_p=0.0, alpha_q=0.0, beta_p=0.01, beta_q=0.01,
                gamma=0.1, tau=2, delta=2, sigma=0.0)
    base.update(kw)
    return SystemParams(**base)


def test_all_legal_gives_empty_list():
    assert validate(params(), CostParams(1.0, 1.0)) == []


def test_gamma_at_one_is_flagged():
    v = validate(params(gamma=1.0))
    assert len(v) == 1 and "gamma" in v[0] and "< 1" in v[0]


def test_beta_zero_is_flagged():
    v = validate(params(beta_p=0.0))
    assert any("beta_p" in s and "> 0" in s for s in v)
    v = validate(params(beta_q=0.0))
    assert any("beta_q" in s for s in v)


def test_tau_delta_bounds():
    assert any("tau" in s for s in validate(params(tau=0)))
    assert any("delta" in s for s in validate(params(delta=0)))


def test_cost_param_bounds():
    assert any("c_send" in s for s in validate(params(), CostParams(-1.0, 1.0)))
    assert any("n_exp" in s for s in validate(params(), CostParams(1.0, 1.0, n_exp=1.0)))


def test_pathological_ack_base_bound():
    v = validate(params(), None, ProtocolSpec("pathological", ack_base=1.0))
    assert any("ack_base" in s for s in v)
    assert validate(params(), None, ProtocolSpec("pathological", ack_base=2.0)) == []


def test_validate_is_pure():
    p = params(gamma=1.0, beta_p=0.0)
    assert validate(p) == validate(p)


def test_combined_crash_rate_values():
    assert combined_crash_rate(params(beta_p=0.01, beta_q=0.01)) == pytest.approx(0.0199)
    # degenerate algebra: one rate zero leaves the other
    assert combined_crash_rate(params(beta_p=0.0, beta_q=0.37)) == pytest.approx(0.37)
    assert combined_crash_rate(params(beta_p=1.0, beta_q=1.0)) == 1.0


@given(bp=st.floats(0.0, 1.0), bq=st.floats(0.0, 1.0))
def test_combined_crash_rate_symmetric_and_bounded(bp, bq):
    a = combined_crash_rate(params(beta_p=bp, beta_q=bq))
    b = combined_crash_rate(params(beta_p=bq, beta_q=bp))
    assert a == pytest.approx(b)
    assert max(bp, bq) - 1e-12 <= a <= 1.0 + 1e-12


def test_json_loader_unknown_key_errors():
    doc = dict(alpha_p=0, alpha_q=0, beta_p=0.1, beta_q=0.1, gamma=0.0,
               tau=1, delta=1, sigma=0.0, typo_key=3)
    with pytest.raises(ValueError, match="typo_key"):
        system_params_from_dict(doc)


def test_json_loader_missing_key_errors():
    with pytest.raises(ValueError, match="missing"):
        system_params_from_dict({"alpha_p": 0.0})


def test_json_loader_roundtrip():
    doc = dict(alpha_p=0.5, alpha_q=0.0, beta_p=0.1, beta_q=0.2, gamma=0.3,
               tau=4, delta=5, sigma=0.01)
    p = system_params_from_dict(json.loads(json.dumps(doc)))
    assert p == SystemParams(**doc)


def test_cost_loader_strict():
    assert cost_params_from_dict({"c_send": 1, "c_wait": 2}) == CostParams(1, 2)
    with pytest.raises(ValueError, match="unknown"):
        cost_params_from_dict({"c_send": 1, "c_wait": 2, "cwait": 3})


def test_protocol_loader():
    assert protocol_spec_from_dict({"kind": "srhb"}).kind == "srhb"
    with pytest.raises(ValueError, match="kind"):
        protocol_spec_from_dict({"kind": "bogus"})
