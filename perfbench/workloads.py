"""The four workloads: the configs a round writes, the `relcost` commands it
runs, and the number of seeded runs its outputs report.

A round is one pass over a workload's commands.  Every round of a run uses
fresh configs whose seeds derive from (workload, --seed, round index), so the
same --seed always yields the same inputs and a longer run simply samples more
of them.  Nothing here imports numpy or relcost: the run's cold set-up is
timed after these modules load.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

# the crash-only system of the README example
CRASH_SYSTEM = {"alpha_p": 0.0, "alpha_q": 0.0, "beta_p": 1e-3, "beta_q": 1e-3,
                "gamma": 1e-3, "tau": 5, "delta": 3, "sigma": 0.0}
# the exactly solvable repeated-mode corner of acceptance criterion 4
CORNER_SYSTEM = {"alpha_p": 1.0, "alpha_q": 1.0, "beta_p": 0.5, "beta_q": 0.5,
                 "gamma": 0.0, "tau": 2, "delta": 2, "sigma": 0.01}
CORNER_COSTS = {"c_send": 1.0, "c_wait": 2.0, "n_exp": 2.0}
# the divergent regime of criterion 6: gamma * ack_base = 1.5 > 1
DIVERGENT_PROTOCOL = {"kind": "pathological", "ack_base": 5.0 / 3.0}
DIVERGENT_SYSTEM = {"alpha_p": 1.0, "alpha_q": 1.0, "beta_p": 0.5, "beta_q": 0.5,
                    "gamma": 0.9, "tau": 2, "delta": 4, "sigma": 0.0}
# criterion 6's heartbeat containment system
CONTAINED_SYSTEM = {"alpha_p": 0.0, "alpha_q": 0.0, "beta_p": 1e-3, "beta_q": 1e-3,
                    "gamma": 1e-3, "tau": 4, "delta": 3, "sigma": 0.0}
# a receiver that crashes early while the pathological sender, never
# acknowledged, keeps sending every tick to the horizon: long event logs
LONG_LOG_PROTOCOL = {"kind": "pathological", "ack_base": 256.0}
LONG_LOG_SYSTEM = {"alpha_p": 1.0, "alpha_q": 0.0, "beta_p": 0.5, "beta_q": 0.05,
                   "gamma": 0.5, "tau": 2, "delta": 2, "sigma": 0.0}
# both processes crash early, so the run goes quiescent and reports its sends
SHORT_LOG_PROTOCOL = {"kind": "pathological", "ack_base": 2.0}
SHORT_LOG_SYSTEM = {"alpha_p": 0.0, "alpha_q": 0.0, "beta_p": 0.02, "beta_q": 0.02,
                    "gamma": 0.5, "tau": 2, "delta": 2, "sigma": 0.0}
UNIT_COSTS = {"c_send": 1.0, "c_wait": 1.0, "n_exp": 2.0}

# per-size knobs; "tiny" serves the self-test
SIZES = {
    "full": {
        "crash_runs": 10_000, "crash_horizon": 16384,
        "corner_runs": 3, "corner_horizon": 100_000,
        "div_runs": 300, "contained_runs": 800,
        "div_horizons": [64, 128, 256, 512, 1024],
        "long_seeds": 6, "long_horizon": 8192, "short_seeds": 2,
        "rep_seeds": 2, "rep_horizon": 50_000,
    },
    "tiny": {
        "crash_runs": 400, "crash_horizon": 16384,
        "corner_runs": 2, "corner_horizon": 20_000,
        "div_runs": 120, "contained_runs": 200,
        "div_horizons": [64, 128, 256, 512],
        "long_seeds": 2, "long_horizon": 1024, "short_seeds": 2,
        "rep_seeds": 1, "rep_horizon": 5000,
    },
}


def derive_seed(*parts) -> int:
    """A 63-bit seed fixed by its parts (workload, --seed, round, tag...)."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass
class Command:
    """One `relcost` invocation of a round."""

    name: str                 # also the name of its output directory
    role: str                 # what the checks expect of its outputs
    argv: list                # arguments after the program name
    config: dict              # the config document it reads
    out: Path
    seed: int                 # the seed the command simulates with


@dataclass
class Round:
    index: int
    tag: str
    dir: Path
    commands: list = field(default_factory=list)


def _config(rnd: Round, name: str, doc: dict) -> Path:
    path = rnd.dir / f"{name}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path


def _add(rnd: Round, config: Path, doc: dict, cmd: str, name: str, role: str,
         seed_override: int | None = None) -> None:
    out = rnd.dir / name
    argv = [cmd, "--config", str(config), "--out", str(out)]
    if seed_override is not None:
        argv += ["--seed-override", str(seed_override)]
    seed = doc["seed"] if seed_override is None else seed_override
    rnd.commands.append(Command(name, role, argv, doc, out, seed))


def _one(rnd: Round, cmd: str, name: str, role: str, doc: dict) -> None:
    _add(rnd, _config(rnd, name, doc), doc, cmd, name, role)


def _compare_crash(rnd, seed, size):
    _one(rnd, "compare", "compare", "compare-crash", {
        "protocols": [{"kind": k} for k in ("trivial", "sender", "receiver", "srhb")],
        "system": CRASH_SYSTEM,
        "costs": {"c_send": 2.0, "c_wait": 0.5, "n_exp": 2.0},
        "metrics": ["t_wait", "n_send", "c0"],
        "n_runs": size["crash_runs"], "horizon": size["crash_horizon"],
        "seed": seed, "tolerance": 0.05,
    })


def _compare_repeated(rnd, seed, size):
    _one(rnd, "compare", "compare", "compare-repeated", {
        "protocol": {"kind": "srhb"}, "mode": "repeated",
        "system": CORNER_SYSTEM, "costs": CORNER_COSTS, "metrics": ["c_avg"],
        "n_runs": size["corner_runs"], "horizon": size["corner_horizon"],
        "seed": seed, "tolerance": 0.05,
    })


def _probe_divergence(rnd, seed, size):
    _one(rnd, "probe", "probe-pathological", "probe-divergent", {
        "protocol": DIVERGENT_PROTOCOL, "system": DIVERGENT_SYSTEM,
        "costs": UNIT_COSTS, "probe": "divergence",
        "horizons": size["div_horizons"], "n_runs": size["div_runs"],
        "seed": seed, "growth_threshold": 1.3, "bounded_tol": 0.05,
    })
    _one(rnd, "probe", "probe-srhb", "probe-contained", {
        "protocol": {"kind": "srhb"}, "system": CONTAINED_SYSTEM,
        "costs": UNIT_COSTS, "probe": "divergence",
        "horizons": size["div_horizons"], "n_runs": size["contained_runs"],
        "seed": derive_seed(seed, "srhb"), "growth_threshold": 1.3,
        "bounded_tol": 0.05,
    })


def _simulate_traces(rnd, seed, size):
    groups = (
        ("long", "simulate-single", {"protocol": LONG_LOG_PROTOCOL,
                                     "system": LONG_LOG_SYSTEM,
                                     "horizon": size["long_horizon"]},
         size["long_seeds"]),
        ("short", "simulate-single", {"protocol": SHORT_LOG_PROTOCOL,
                                      "system": SHORT_LOG_SYSTEM,
                                      "horizon": size["long_horizon"]},
         size["short_seeds"]),
        ("repeated", "simulate-repeated", {"protocol": {"kind": "srhb"},
                                           "mode": "repeated",
                                           "system": CORNER_SYSTEM,
                                           "horizon": size["rep_horizon"]},
         size["rep_seeds"]),
    )
    for group, role, doc, n_seeds in groups:
        doc = dict(doc, costs=CORNER_COSTS if group == "repeated" else UNIT_COSTS,
                   seed=derive_seed(seed, group))
        config = _config(rnd, f"simulate-{group}", doc)
        for i in range(n_seeds):
            _add(rnd, config, doc, "simulate", f"simulate-{group}-{i}", role,
                 seed_override=derive_seed(seed, group, i))


# workload name -> builder adding one round's commands; BENCHMARK.json says
# why each workload is there
WORKLOADS = {
    "compare-crash": _compare_crash,
    "compare-repeated": _compare_repeated,
    "probe-divergence": _probe_divergence,
    "simulate-traces": _simulate_traces,
}


def make_round(workload: str, work: Path, seed: int, index: int,
               size: dict, tag: str = "") -> Round:
    """Write round `index`'s configs under `work` and list its commands.

    Rounds with the same index and different tags share their inputs."""
    rnd = Round(index, tag, work / f"round{index:03d}{tag}")
    rnd.dir.mkdir(parents=True)
    WORKLOADS[workload](rnd, derive_seed(workload, seed, index), size)
    return rnd


def digests(cmd: Command) -> dict:
    """sha256 of each output file of a command, by file name."""
    if not cmd.out.is_dir():
        return {}
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(cmd.out.iterdir()) if f.is_file()}


def output_bytes(rnd: Round) -> int:
    return sum(f.stat().st_size for cmd in rnd.commands if cmd.out.is_dir()
               for f in cmd.out.iterdir() if f.is_file())


def reported_runs(cmd: Command) -> int:
    """Seeded runs a command's outputs report: the sum of n_runs over compare
    rows, n_runs times the horizons of a probe, one per simulate."""
    summary = json.loads((cmd.out / "summary.json").read_text())
    if cmd.argv[0] == "compare":
        return sum(int(r["n_runs"]) for r in summary["reports"])
    if cmd.argv[0] == "probe":
        return int(cmd.config["n_runs"]) * len(summary["horizons"])
    return 1
