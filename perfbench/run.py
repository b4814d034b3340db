#!/usr/bin/env python3
"""Layered benchmark of the `relcost` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One process imports `relcost` from `src/`,
writes generated configs under `.perfbench/`, calls the CLI entry point
`relcost.cli.main` round after round for S seconds, then reads every output
file back and checks it.  The last line of standard output is one JSON object:
`correct`, `attempted` and `failed` (CLI commands), and `metrics`.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json with tracing
off; `setup_s` is the fastest of the cold set-ups taken before the first
round and after each round, each in a fresh process running `coldstart.py`.  `--trace 1` runs each round twice on the
same inputs, untraced and then traced, and reports the per-layer metrics plus
the tracing overhead.  A record
of the run (backend, versions, round timings, output digests, check results)
and, when traced, its spans land in `.perfbench/records/`.  The run's configs
and outputs are deleted when it ends.
"""

import argparse
import json
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                   help="input size; 'tiny' serves the self-test")
    return p.parse_args(argv)


def call_cli(main, argv) -> int | None:
    """One CLI command; an exception counts as a failed command."""
    try:
        return main(list(argv))
    except Exception:  # noqa: BLE001 - the benchmark must go on and report it
        traceback.print_exc(file=sys.stderr)
        return None


def run_round(main, rnd, tracer=None):
    """Run a round's commands in order; returns (wall seconds, exit codes)."""
    codes = []
    t0 = time.perf_counter()
    for cmd in rnd.commands:
        if tracer is None:
            codes.append(call_cli(main, cmd.argv))
        else:
            with tracer.command(cmd.argv):
                codes.append(call_cli(main, cmd.argv))
    return time.perf_counter() - t0, codes


def cold_setup(src: Path, config: str) -> float:
    """Seconds of one cold set-up: a fresh process imports the package and
    loads the config."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "coldstart.py"), str(src), config],
        capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def load_metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "relcost" / "__init__.py").is_file():
        print(f"perfbench: no relcost package in {src}", file=sys.stderr)
        return 2
    e2e_units, layer_units = load_metric_specs()
    workload = args.workload
    size = workloads.SIZES[args.size]
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    first = workloads.make_round(workload, work, args.seed, 0, size)

    sys.path.insert(0, str(src))
    import relcost
    from relcost import cli
    if not Path(relcost.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: relcost imported from {relcost.__file__}, not {src}",
              file=sys.stderr)
        return 2
    # cold set-ups in fresh processes (a second one in this process is warm),
    # spread over the run like the rounds, whose speed the machine varies
    config = first.commands[0].argv[2]
    setups = [cold_setup(src, config)]

    import numpy as np

    import checks
    import tracing

    tracer = tracing.Tracer() if args.trace else None
    rounds = []           # untraced (round, wall, codes)
    traced = []           # traced (round, wall, codes), paired by index
    t_loop = time.perf_counter()
    rnd = first
    while True:
        wall, codes = run_round(cli.main, rnd)
        rounds.append((rnd, wall, codes))
        if tracer is not None:
            twin = workloads.make_round(workload, work, args.seed, rnd.index, size, "t")
            tracer.round = rnd.index
            tracer.install()
            try:
                wall_t, codes_t = run_round(cli.main, twin, tracer)
            finally:
                tracer.uninstall()
            traced.append((twin, wall_t, codes_t))
        setups.append(cold_setup(src, config))
        if time.perf_counter() - t_loop >= args.seconds:
            break
        rnd = workloads.make_round(workload, work, args.seed, rnd.index + 1, size)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = min(setups)

    results = []           # check results, with where each was made

    def add(where, found):
        results.extend({"where": where, "name": c.name, "ok": c.ok, "detail": c.detail}
                       for c in found)

    attempted = failed = 0
    record_rounds = []
    runs_per_round = []
    for rnd, wall, codes in rounds + traced:
        attempted += len(codes)
        failed += sum(1 for c in codes if c != 0)
    for rnd, wall, codes in rounds:
        runs = 0
        cmds = []
        for cmd, code in zip(rnd.commands, codes):
            if code == 0:
                add(f"round{rnd.index}/{cmd.name}", checks.check_command(cmd))
                runs += workloads.reported_runs(cmd)
            cmds.append({"name": cmd.name, "argv": cmd.argv, "rc": code,
                         "digests": workloads.digests(cmd)})
        runs_per_round.append(runs)
        record_rounds.append({"index": rnd.index, "wall_s": wall, "runs": runs,
                              "commands": cmds})

    add("pooled", checks.pooled_checks(
        [cmd for rnd, _w, codes in rounds for cmd, code in zip(rnd.commands, codes)
         if code == 0]))

    metrics = {}
    if tracer is None:
        # the fastest round and set-up: other load on the machine only ever
        # adds time
        walls = [wall for _r, wall, _c in rounds]
        metrics["wall_s"] = setup_s + min(walls)
        metrics["runs_per_s"] = max(n / w for n, w in zip(runs_per_round, walls))
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = peak_rss_mb
        units = e2e_units
    else:
        per_round = []
        for (rnd, wall, codes), (twin, wall_t, codes_t) in zip(rounds, traced):
            add(f"round{rnd.index}t", checks.pair_checks(
                rnd, codes, twin, codes_t, tracer.simulated_runs(rnd.index)))
            m = tracer.round_metrics(rnd.index)
            m["cli.write.bytes"] = workloads.output_bytes(twin)
            m["trace.overhead_s"] = wall_t - wall
            per_round.append(m)
        metrics = tracing.median_metrics(per_round)
        units = layer_units

    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    failures = [r for r in results if not r["ok"]]
    result = {
        "correct": bool(results) and not failures, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }

    from relcost import kernels
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "backend": "numba" if kernels.NUMBA_ENABLED else "python-fallback",
        "python": platform.python_version(), "numpy": np.__version__,
        "machine": platform.machine(), "setup_s": setups,
        "rounds": record_rounds,
        "traced_walls": [wall for _r, wall, _c in traced],
        "checks": results, "result": result,
    }
    (records / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (records / f"{stem}-spans.json").write_text(json.dumps(tracer.spans) + "\n")

    shutil.rmtree(work, ignore_errors=True)
    print(f"perfbench {args.workload} seed={args.seed} backend={record['backend']}: "
          f"{len(rounds)} rounds, walls {[round(w, 3) for _r, w, _c in rounds]}, "
          f"{len(results)} checks, {len(failures)} failed", file=sys.stderr)
    for f in failures[:20]:
        print(f"  FAILED {f['where']} {f['name']}: {f['detail']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
