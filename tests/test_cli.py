import json
from pathlib import Path

import numpy as np
import pytest

from relcost import engine, kernels
from relcost.cli import main
from relcost.model import CostParams, SystemParams

SYSTEM_DET = {"alpha_p": 1.0, "alpha_q": 1.0, "beta_p": 0.5, "beta_q": 0.5,
              "gamma": 0.0, "tau": 4, "delta": 3, "sigma": 0.0}
COSTS = {"c_send": 1.0, "c_wait": 1.0}


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_json(path):
    return json.loads(Path(path).read_text())


def test_simulate_deterministic_srhb(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "protocol": {"kind": "srhb"}, "system": SYSTEM_DET, "costs": COSTS,
        "mode": "single", "horizon": 64, "seed": 9,
    })
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    summary = read_json(out / "summary.json")
    assert summary["sends"] == 6
    assert summary["wait"] == 8
    assert summary["t_p"] == "inf"
    assert summary["audit_violations"] == []
    assert (out / "trace-9.log").exists()


def test_simulate_trivial_sends_nothing(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "protocol": {"kind": "trivial"}, "system": SYSTEM_DET, "costs": COSTS,
        "mode": "single", "horizon": 64, "seed": 1,
    })
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert read_json(out / "summary.json")["sends"] == 0


def test_simulate_repeated_writes_series(tmp_path):
    system = dict(SYSTEM_DET, sigma=0.05, tau=2, delta=2)
    cfg = write_config(tmp_path, "c.json", {
        "protocol": {"kind": "srhb"}, "system": system, "costs": COSTS,
        "mode": "repeated", "horizon": 2000, "seed": 4,
    })
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    series = (out / "series.csv").read_text().splitlines()
    assert series[0] == "t,c_total,num_completed,num_hb,ratio"
    summary = read_json(out / "summary.json")
    assert summary["n_invocations"] >= 1
    assert summary["final_ratio"] > 0


def test_simulate_repeated_summary_equals_compare_with_tied_completions(tmp_path):
    # fractional costs, so the order in which completions sharing a tick are
    # added shows in the last bits
    system = {"alpha_p": 0.0, "alpha_q": 0.0, "beta_p": 0.002, "beta_q": 0.002,
              "gamma": 0.2, "tau": 2, "delta": 2, "sigma": 0.1}
    costs = {"c_send": 0.1, "c_wait": 0.7}
    cfg = write_config(tmp_path, "c.json", {
        "protocol": {"kind": "srhb"}, "system": system, "costs": costs,
        "mode": "repeated", "horizon": 400, "seed": 0,
    })
    params = SystemParams(**system)
    ties = 0
    for seed in range(13):
        out = tmp_path / f"out{seed}"
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--seed-override", str(seed)]) == 0
        summary = read_json(out / "summary.json")
        row = kernels.repeated_batch(params, CostParams(**costs), 400,
                                     np.array([seed], np.uint64))
        assert summary["final_ratio"] == float(row["ratio"][0]), seed
        assert summary["running_sup"] == float(row["sup"][0]), seed
        done = [r.complete_t for r in engine.run_repeated(params, seed, 400).invocations
                if r.complete_t >= 0]
        ties += len(done) - len(set(done))
    assert ties > 0


def test_malformed_json_exits_nonzero(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2


def test_unknown_config_key_exits_nonzero(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "protocol": {"kind": "trivial"}, "system": SYSTEM_DET, "costs": COSTS,
        "horizont": 12,
    })
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_invalid_params_exit_nonzero(tmp_path):
    system = dict(SYSTEM_DET, gamma=1.0)
    cfg = write_config(tmp_path, "c.json", {
        "protocol": {"kind": "trivial"}, "system": system, "costs": COSTS,
    })
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_compare_crash_regime_passes(tmp_path):
    system = {"alpha_p": 0.0, "alpha_q": 0.0, "beta_p": 1e-3, "beta_q": 1e-3,
              "gamma": 1e-3, "tau": 5, "delta": 3, "sigma": 0.0}
    cfg = write_config(tmp_path, "c.json", {
        "protocol": {"kind": "sender"}, "system": system, "costs": COSTS,
        "metrics": ["t_wait", "n_send"], "n_runs": 20000, "horizon": 16384,
        "seed": 12, "tolerance": 0.05,
    })
    out = tmp_path / "out"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
    table = (out / "table.txt").read_text()
    assert table.count("PASS") == 2
    reports = read_json(out / "summary.json")["reports"]
    assert all(r["passed"] for r in reports)


def test_compare_three_protocol_table_all_pass(tmp_path):
    # crash-only regime where every closed form attaches
    system = {"alpha_p": 0.0, "alpha_q": 0.0, "beta_p": 1e-3, "beta_q": 1e-3,
              "gamma": 1e-3, "tau": 5, "delta": 3, "sigma": 0.0}
    cfg = write_config(tmp_path, "c.json", {
        "protocols": [{"kind": "trivial"}, {"kind": "sender"},
                      {"kind": "receiver"}],
        "system": system, "costs": COSTS,
        "metrics": ["t_wait", "n_send"], "n_runs": 30000, "horizon": 16384,
        "seed": 12, "tolerance": 0.05,
    })
    out = tmp_path / "out"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
    reports = read_json(out / "summary.json")["reports"]
    assert {r["protocol"] for r in reports} == {"trivial", "sender", "receiver"}
    assert all(r["passed"] for r in reports)
    assert "FAIL" not in (out / "table.txt").read_text()


def test_compare_with_a_huge_horizon_runs_in_bounded_memory(tmp_path):
    # every trivial run ends at tick 0; nothing may be sized by the horizon
    system = {"alpha_p": 0.0, "alpha_q": 0.0, "beta_p": 1e-3, "beta_q": 1e-3,
              "gamma": 1e-3, "tau": 5, "delta": 3, "sigma": 0.0}
    cfg = write_config(tmp_path, "c.json", {
        "protocols": [{"kind": "trivial"}], "system": system, "costs": COSTS,
        "metrics": ["t_wait"], "n_runs": 4, "horizon": 10 ** 12,
        "seed": 1, "tolerance": 1.0,
    })
    out = tmp_path / "out"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
    [report] = read_json(out / "summary.json")["reports"]
    assert (report["n_runs"], report["n_censored"]) == (4, 0)
    assert "PASS" in (out / "table.txt").read_text()


def test_compare_out_of_regime_reports_no_prediction(tmp_path):
    system = {"alpha_p": 0.0, "alpha_q": 0.0, "beta_p": 0.3, "beta_q": 0.3,
              "gamma": 0.0, "tau": 2, "delta": 2, "sigma": 0.0}
    cfg = write_config(tmp_path, "c.json", {
        "protocol": {"kind": "sender"}, "system": system, "costs": COSTS,
        "metrics": ["t_wait"], "n_runs": 500, "horizon": 512, "seed": 12,
    })
    out = tmp_path / "out"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
    assert "NO-PREDICTION" in (out / "table.txt").read_text()


def test_s2_trivial_flat_zero(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "protocol": {"kind": "trivial"}, "system": SYSTEM_DET, "costs": COSTS,
        "t_grid": [1, 3, 5], "n_runs": 500, "horizon": 64, "seed": 2,
    })
    out = tmp_path / "out"
    assert main(["s2", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "series.csv").read_text().splitlines()[1:]
    assert all(row.split(",")[1] == "0.0" for row in rows)


def test_probe_divergence_verdict(tmp_path):
    system = {"alpha_p": 1.0, "alpha_q": 1.0, "beta_p": 0.5, "beta_q": 0.5,
              "gamma": 0.9, "tau": 2, "delta": 1, "sigma": 0.0}
    cfg = write_config(tmp_path, "c.json", {
        "protocol": {"kind": "pathological", "ack_base": 1.6666666666666667},
        "system": system, "costs": COSTS, "probe": "divergence",
        "horizons": [256, 512, 1024], "n_runs": 300, "seed": 5,
    })
    out = tmp_path / "out"
    assert main(["probe", "--config", cfg, "--out", str(out)]) == 0
    assert read_json(out / "summary.json")["verdict"] == "DIVERGENT"


def test_probe_impossibility(tmp_path):
    system = {"alpha_p": 0.5, "alpha_q": 0.5, "beta_p": 0.01, "beta_q": 0.01,
              "gamma": 0.05, "tau": 3, "delta": 3, "sigma": 0.0}
    cfg = write_config(tmp_path, "c.json", {
        "protocol": {"kind": "srhb"}, "system": system, "costs": COSTS,
        "probe": "impossibility", "horizon": 300, "seed": 5,
    })
    out = tmp_path / "out"
    assert main(["probe", "--config", cfg, "--out", str(out)]) == 0
    summary = read_json(out / "summary.json")
    assert summary["heartbeat_escape"] is True


def test_optimize_wait_dominant_picks_smallest(tmp_path):
    system = dict(SYSTEM_DET, sigma=0.01, tau=2, delta=2)
    cfg = write_config(tmp_path, "c.json", {
        "protocol": {"kind": "srhb"}, "system": system,
        "costs": {"c_send": 0.001, "c_wait": 100.0},
        "delta_range": {"min": 1, "max": 30},
    })
    out = tmp_path / "out"
    assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0
    assert read_json(out / "summary.json")["delta_star"] == 1


def test_outputs_are_idempotent(tmp_path):
    system = {"alpha_p": 0.0, "alpha_q": 0.0, "beta_p": 0.02, "beta_q": 0.02,
              "gamma": 0.1, "tau": 3, "delta": 2, "sigma": 0.0}
    cfg = write_config(tmp_path, "c.json", {
        "protocol": {"kind": "srhb"}, "system": system, "costs": COSTS,
        "metrics": ["t_wait", "n_send", "c0"], "n_runs": 3000,
        "horizon": 1024, "seed": 3,
    })
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        assert main(["compare", "--config", cfg, "--out", str(out), "--jobs", "2"]) == 0
        outs.append((out / "summary.json").read_bytes()
                    + (out / "table.txt").read_bytes())
    assert outs[0] == outs[1]


def test_seed_override_changes_trace(tmp_path):
    system = {"alpha_p": 0.0, "alpha_q": 0.0, "beta_p": 0.1, "beta_q": 0.1,
              "gamma": 0.3, "tau": 2, "delta": 2, "sigma": 0.0}
    cfg = write_config(tmp_path, "c.json", {
        "protocol": {"kind": "sender"}, "system": system, "costs": COSTS,
        "mode": "single", "horizon": 256, "seed": 1,
    })
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--seed-override", "77"]) == 0
    assert (out / "trace-77.log").exists()
    assert read_json(out / "summary.json")["seed"] == 77
    # a seed outside [0, 2**64) would alias another seed's run
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "neg"),
                 "--seed-override", "-1"]) == 2


BAD_FIELDS = [
    ("n_runs", "abc"), ("n_runs", 1), ("horizon", -5), ("horizon", 0),
    ("horizon", 2.5), ("seed", -1), ("seed", "7"), ("metrics", ["t_wait", "bogus"]),
    ("metrics", "t_wait"), ("lambda", "0.5"), ("lambda", 1.0),
    ("tolerance", "0.05"), ("tolerance", -0.1), ("horizons", [64, "128"]),
    ("horizons", []), ("t_grid", [3, 3]), ("delta_range", {"min": 5, "max": 2}),
    ("delta_range", [0, 1]), ("protocols", []), ("horizons", [128, 64]),
    ("t_grid", [1, 300]), ("metrics", ["c_avg"]),
]


@pytest.mark.parametrize("key,value", BAD_FIELDS,
                         ids=[f"{k}={v!r}" for k, v in BAD_FIELDS])
def test_bad_config_field_exits_2_with_one_line(tmp_path, capsys, key, value):
    system = {"alpha_p": 0.0, "alpha_q": 0.0, "beta_p": 0.05, "beta_q": 0.05,
              "gamma": 0.1, "tau": 2, "delta": 2, "sigma": 0.0}
    doc = {"protocol": {"kind": "sender"}, "system": system, "costs": COSTS,
           "metrics": ["t_wait"], "n_runs": 200, "horizon": 256, "seed": 1}
    doc[key] = value
    cfg = write_config(tmp_path, "c.json", doc)
    assert main(["compare", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


def test_non_numeric_system_parameter_exits_2(tmp_path, capsys):
    system = dict(SYSTEM_DET, beta_p="0.5")
    cfg = write_config(tmp_path, "c.json", {
        "protocol": {"kind": "trivial"}, "system": system, "costs": COSTS,
    })
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: system parameter beta_p")
