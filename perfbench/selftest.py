#!/usr/bin/env python3
"""Fast self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload once at the tiny size through the CLI, untraced and
traced, and requires every check to pass and tracing to leave the outputs
unchanged.  Then, for every named check, it corrupts one output file of a copy
and requires that check to fail, so no check can pass vacuously; the run-level
pooled checks must fail on the corrupted copy pooled with a clean round.
Finally it runs `run.py` end to end on each workload at the tiny size and
reads its result line.  Exits 0 when everything holds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench" / "selftest"
SEED = 7


# -- file edits ---------------------------------------------------------------

def edit_json(name, fn):
    def mutate(out: Path):
        path = out / name
        doc = json.loads(path.read_text())
        fn(doc)
        path.write_text(json.dumps(doc))
    return mutate


def edit_lines(name, fn):
    def mutate(out: Path):
        path = out / name
        path.write_text("\n".join(fn(path.read_text().splitlines())) + "\n")
    return mutate


def delete(name):
    return lambda out: (out / name).unlink()


def report(metric_pair, field, fn):
    """Edit one field of the compare report for (protocol, metric)."""
    def edit(doc):
        for r in doc["reports"]:
            if (r["protocol"], r["metric"]) == metric_pair:
                r[field] = fn(r[field])
    return edit_json("summary.json", edit)


def _set(key, value):
    def edit(doc):
        doc[key] = value
    return edit


def _scale_means(factor):
    def edit(doc):
        doc["means"] = [m * factor if i == len(doc["means"]) - 1 else m
                        for i, m in enumerate(doc["means"])]
    return edit


def _flat_growth(doc):
    # rising and below 2*horizon, but with growth exponent 0.2
    doc["means"] = [h ** 0.2 for h in doc["horizons"]]
    doc["ratios"] = [b / a for a, b in zip(doc["means"], doc["means"][1:])]


def _bump_first_ratio(doc):
    doc["ratios"][0] += 0.1


def _swap_first_means(doc):
    doc["means"][0], doc["means"][1] = doc["means"][1], doc["means"][0]


def _toggle_tf(doc):
    doc["t_f"] = 1 if doc["t_f"] == "inf" else "inf"


def _bump_sends(doc):
    doc["sends"] = 5 if doc["sends"] is None else doc["sends"] + 1


def _orphan_recv(lines):
    return lines + ["3 q recv req 0 -"]


def _drop_invoke(lines):
    i = next(k for k, line in enumerate(lines) if " invoke " in line)
    return lines[:i] + lines[i + 1:]


def _bump_csv_ratio(lines):
    k = len(lines) // 2
    cells = lines[k].split(",")
    cells[-1] = repr(float(cells[-1]) * 1.001)
    return lines[:k] + [",".join(cells)] + lines[k + 1:]


def _bump_table_mean(lines):
    cells = lines[1].split()
    cells[4] = "12345"
    return lines[:1] + ["  ".join(cells)] + lines[2:]


def _probe_table_verdict(lines):
    return lines[:-1] + ["verdict: SOMETHING"]


def _trace_log(out: Path) -> str:
    return next(p.name for p in out.iterdir() if p.name.startswith("trace-"))


def _edit_log(fn):
    def mutate(out: Path):
        edit_lines(_trace_log(out), fn)(out)
    return mutate


# role -> [(check name, mutation of one output directory)]
CORRUPTIONS = {
    "compare-crash": [
        ("outputs.readable", delete("summary.json")),
        ("rows", edit_json("summary.json", lambda d: d["reports"].pop())),
        ("censored", report(("srhb", "n_send"), "n_censored", lambda v: 1)),
        ("table", edit_lines("table.txt", _bump_table_mean)),
        ("trivial.t_wait", report(("trivial", "t_wait"), "mean", lambda v: v + 1000)),
        ("trivial.n_send", report(("trivial", "n_send"), "mean", lambda v: 1e-9)),
        ("sender.t_wait", report(("sender", "t_wait"), "mean", lambda v: v + 1000)),
        ("sender.n_send", report(("sender", "n_send"), "mean", lambda v: v + 1000)),
        ("receiver.t_wait", report(("receiver", "t_wait"), "mean", lambda v: v + 1000)),
        ("receiver.n_send", report(("receiver", "n_send"), "mean", lambda v: v + 1000)),
        ("srhb.t_wait", report(("srhb", "t_wait"), "mean", lambda v: v + 1000)),
        ("srhb.n_send", report(("srhb", "n_send"), "mean", lambda v: v + 1000)),
        ("closed_forms", report(("sender", "c0"), "closed_form", lambda v: v + 1)),
        ("c0.identity", report(("receiver", "c0"), "mean", lambda v: v + 0.01)),
    ],
    "compare-repeated": [
        ("outputs.readable", delete("table.txt")),
        ("rows", report(("srhb", "c_avg"), "n_runs", lambda v: v + 1)),
        ("censored", report(("srhb", "c_avg"), "n_censored", lambda v: 1)),
        ("table", edit_lines("table.txt", _bump_table_mean)),
        ("c_avg.corner", report(("srhb", "c_avg"), "mean", lambda v: v + 100)),
        ("closed_forms", report(("srhb", "c_avg"), "closed_form", lambda v: v * 1.001)),
    ],
    "probe-divergent": [
        ("outputs.readable", delete("summary.json")),
        ("horizons", edit_json("summary.json", _set("horizons", [1, 2, 3, 4]))),
        ("ratios", edit_json("summary.json", _bump_first_ratio)),
        ("table", edit_lines("table.txt", _probe_table_verdict)),
        ("pathological.rising", edit_json("summary.json", _swap_first_means)),
        ("pathological.le_2h", edit_json("summary.json", _scale_means(1e3))),
        ("pathological.exponent", edit_json("summary.json", _flat_growth)),
    ],
    "probe-contained": [
        ("outputs.readable", delete("table.txt")),
        ("horizons", edit_json("summary.json", _set("horizons", [1, 2, 3, 4]))),
        ("ratios", edit_json("summary.json", _bump_first_ratio)),
        ("table", edit_lines("table.txt", _probe_table_verdict)),
        ("srhb.bounded", edit_json("summary.json", _scale_means(1.5))),
    ],
    "simulate-single": [
        ("outputs.readable", lambda out: (out / _trace_log(out)).unlink()),
        ("log.recv_after_send", _edit_log(_orphan_recv)),
        ("log.no_send_after_crash", edit_json("summary.json", _set("t_p", 0))),
        ("summary.sends", edit_json("summary.json", _bump_sends)),
        ("summary.audit", edit_json("summary.json", _set("audit_violations", ["x"]))),
        ("kernel.parity", edit_json("summary.json", _toggle_tf)),
    ],
    "simulate-repeated": [
        ("outputs.readable", delete("series.csv")),
        ("repeated.kernel_parity", edit_json("summary.json",
                                             lambda d: d.update(n_invocations=-1))),
        ("repeated.hb_count", edit_json("summary.json",
                                        lambda d: d.update(hb_count_q=d["hb_count_q"] + 1))),
        ("series.csv", edit_lines("series.csv", _bump_csv_ratio)),
        ("repeated.log", _edit_log(_drop_invoke)),
    ],
}


def fail(msg):
    print(f"selftest FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from relcost import cli

    import checks
    import tracing

    shutil.rmtree(WORK, ignore_errors=True)
    size = workloads.SIZES["tiny"]
    seen_roles = set()
    for workload in workloads.WORKLOADS:
        work = WORK / workload
        rnd = workloads.make_round(workload, work, SEED, 0, size)
        codes = [cli.main(list(c.argv)) for c in rnd.commands]
        twin = workloads.make_round(workload, work, SEED, 0, size, "t")
        tracer = tracing.Tracer()
        tracer.round = 0
        tracer.install()
        try:
            codes_t = []
            for c in twin.commands:
                with tracer.command(c.argv):
                    codes_t.append(cli.main(list(c.argv)))
        finally:
            tracer.uninstall()
        if any(codes) or any(codes_t):
            fail(f"{workload}: exit codes {codes} / {codes_t}")
        results = checks.pair_checks(rnd, codes, twin, codes_t, tracer.simulated_runs(0))
        results += [r for c in rnd.commands for r in checks.check_command(c)]
        bad = [r for r in results if not r.ok]
        if bad:
            fail(f"{workload}: clean outputs fail {bad}")

        # tracing's own checks reject a changed output and a miscount
        victim = twin.commands[0]
        edit_json("summary.json", lambda d: d.update(extra=1))(victim.out)
        pair = checks.pair_checks(rnd, codes, twin, codes_t, tracer.simulated_runs(0) + 1)
        if [r.ok for r in pair] != [False, False]:
            fail(f"{workload}: trace checks accept corrupted outputs {pair}")

        for cmd in rnd.commands:
            if cmd.role in seen_roles:
                continue
            seen_roles.add(cmd.role)
            names = {r.name for r in checks.check_command(cmd)} | {"outputs.readable"}
            covered = {name for name, _m in CORRUPTIONS[cmd.role]}
            pooled = {r.name for r in checks.pooled_checks([cmd])}
            if names != covered:
                fail(f"{cmd.role}: checks {sorted(names)} but corruptions {sorted(covered)}")
            for name, mutate in CORRUPTIONS[cmd.role]:
                copy = work / "corrupt" / f"{cmd.name}-{name}"
                shutil.copytree(cmd.out, copy)
                mutate(copy)
                bad_cmd = dataclasses.replace(cmd, out=copy)
                got = checks.check_command(bad_cmd)
                if not any(r.name == name and not r.ok for r in got):
                    fail(f"{cmd.role}: corrupting for {name} went unnoticed: {got}")
                # pooled with a clean round, the run-level check fails too
                if f"pooled.{name}" in pooled:
                    got = checks.pooled_checks([cmd, bad_cmd])
                    if not any(r.name == f"pooled.{name}" and not r.ok for r in got):
                        fail(f"{cmd.role}: pooled {name} missed a corruption: {got}")
                    pooled.discard(f"pooled.{name}")
            if pooled:
                fail(f"{cmd.role}: pooled checks {sorted(pooled)} never corrupted")
        print(f"selftest {workload}: {len(results)} checks pass on clean outputs; "
              f"corruptions caught", file=sys.stderr)

    for name in workloads.WORKLOADS:
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
                 "--seed", str(SEED), "--seconds", "0", "--trace", trace, "--size", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
            if proc.returncode != 0:
                fail(f"run.py {name} trace {trace}: rc {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] or not result["attempted"]:
                fail(f"run.py {name} trace {trace}: {result}\n{proc.stderr}")
    print("selftest passed", file=sys.stderr)
    shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
