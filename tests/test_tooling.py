"""The benchmark's tracer (`perfbench/tracing.py`) wraps package attributes by
name, so a rename or removal in the package breaks `--trace 1` runs.  These
tests load it from its file and check that it installs and cleans up."""

import importlib.util
import pathlib
from pathlib import Path

from relcost import analysis, cli, cost, engine, kernels
from relcost.model import CostParams, ProtocolSpec, SystemParams

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = (analysis, cli, cost, engine, kernels)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_the_package_and_uninstall_restores_it():
    before = [dict(vars(m)) for m in MODULES]
    write_text = pathlib.Path.write_text
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert analysis.estimate is not before[0]["estimate"]
        assert pathlib.Path.write_text is not write_text
        # the estimate wrapper reads the run identity from the bound arguments
        p = SystemParams(alpha_p=1, alpha_q=1, beta_p=.5, beta_q=.5,
                         gamma=0.0, tau=3, delta=2)
        analysis.estimate(ProtocolSpec("sender"), p, CostParams(1, 1),
                          "n_send", 10, 64, seed=1)
        spans = {s["name"]: s for s in tracer.spans}
        assert spans["analysis.estimate"]["runs"] == 10
        assert spans["kernels.single_batch"]["runs"] == 10
    finally:
        tracer.uninstall()
    assert pathlib.Path.write_text is write_text
    for module, attrs in zip(MODULES, before):
        after = vars(module)
        assert after.keys() == attrs.keys()
        assert all(after[k] is v for k, v in attrs.items()), module.__name__
