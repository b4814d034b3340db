"""Spans around the public functions of each relcost layer, recorded from the
benchmark's own files.

`Tracer.install` replaces module attributes (and `pathlib.Path.write_text`)
with wrappers that record a span (name, start, end, parent) plus counts read
from the arguments and results; `Tracer.uninstall` puts the originals back.
Callers inside the package look these attributes up at call time, so
`cli -> analysis.estimate -> kernels.single_batch` is timed without editing
the package.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import pathlib
import statistics
import time
from contextlib import contextmanager

import numpy as np

from relcost import analysis, cli, cost, engine, kernels

# spans named "cli.write" cover rendering and writing the output files
WRITE = "cli.write"


def _single_counts(args, kwargs, result, bound):
    horizon = int(bound.arguments["horizon"])
    q = result["quiesce_t"]
    ticks = int(np.where(q >= 0, q + 1, horizon).sum())
    return {"runs": int(len(q)), "ticks": ticks,
            "msgs": int(result["n_send"].sum() + result["n_hb"].sum())}


def _repeated_ticks(horizon, t_p, t_q):
    # the invocation loop runs while t < horizon and either process is up
    return min(horizon, max(int(t_p), int(t_q)))


def _repeated_counts(args, kwargs, result, bound):
    horizon = int(bound.arguments["horizon"])
    ticks = np.minimum(horizon, np.maximum(result["t_p"], result["t_q"])).sum()
    return {"runs": int(len(result["ratio"])), "ticks": int(ticks),
            "invocations": int(result["n_inv"].sum())}


def _run_arrays_counts(args, kwargs, result, bound):
    n_inv, _arrays, _hb_p, _hb_q, t_p, t_q = result
    horizon = int(bound.arguments["horizon"])
    return {"runs": 1, "ticks": _repeated_ticks(horizon, t_p, t_q),
            "invocations": int(n_inv)}


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self._seen = {}
        self.round = -1

    # -- recording ---------------------------------------------------------

    def _open(self, name, attrs=None):
        rec = {"name": name, "round": self.round,
               "parent": self._stack[-1] if self._stack else -1,
               "start": 0.0, "end": 0.0}
        if attrs:
            rec.update(attrs)
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec["start"] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def command(self, argv):
        """Root span of one CLI command; run identities reset per command."""
        self._seen = {}
        rec = self._open("cli.main", {"command": argv[0]})
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, name, fn, counts=None):
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._open(name, {"fn": fn.__qualname__})
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if counts is not None:
                rec.update(counts(args, kwargs, result,
                                  signature.bind(*args, **kwargs)))
            return result
        return wrapper

    def _estimate_counts(self, args, kwargs, result, bound):
        a = bound.arguments
        mode = "repeated" if a["metric"] == "c_avg" else "single"
        key = (mode, a["protocol"], a["params"], int(a["horizon"]), int(a["seed"]))
        n_runs = int(a["n_runs"])
        # runs 0..n_runs-1 of this key; an earlier call covered 0..prev-1
        prev = self._seen.get(key, 0)
        self._seen[key] = max(prev, n_runs)
        return {"runs": n_runs, "dup_runs": min(prev, n_runs)}

    def _patch(self, owner, attr, name, counts=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, counts))

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._patch(kernels, "make_seeds", "kernels.make_seeds",
                    lambda a, k, r, b: {"seeds": int(len(r))})
        self._patch(kernels, "single_batch", "kernels.single_batch", _single_counts)
        self._patch(kernels, "repeated_batch", "kernels.repeated_batch", _repeated_counts)
        self._patch(kernels, "repeated_run_arrays", "kernels.repeated_run_arrays",
                    _run_arrays_counts)
        self._patch(analysis, "estimate", "analysis.estimate", self._estimate_counts)
        self._patch(analysis, "divergence_probe", "analysis.divergence_probe")
        self._patch(engine, "run_single", "engine.run_single",
                    lambda a, k, r, b: {"runs": 1})
        self._patch(engine, "run_repeated", "engine.run_repeated")
        self._patch(cost, "avg_cost_series", "cost.avg_cost_series",
                    lambda a, k, r, b: {"points": len(r[0])})
        self._patch(cli, "load_config", "cli.load_config")
        for owner, attr in ((cli, "_write_json"), (analysis, "render_reports"),
                            (engine, "serialize_trace"), (cost, "series_to_csv"),
                            (pathlib.Path, "write_text")):
            self._patch(owner, attr, WRITE)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- per-layer metrics -------------------------------------------------

    def _dur(self, rec):
        return rec["end"] - rec["start"]

    def round_metrics(self, rnd: int) -> dict:
        """Per-layer figures of one traced round."""
        idx = [i for i, s in enumerate(self.spans) if s["round"] == rnd]
        spans = self.spans
        children = {}
        for i in idx:
            children.setdefault(spans[i]["parent"], []).append(i)

        def total(name, key=None):
            sel = [spans[i] for i in idx if spans[i]["name"] == name]
            if key is None:
                return sum(self._dur(s) for s in sel)
            return sum(s.get(key, 0) for s in sel)

        def self_time(name, child_prefix):
            t = 0.0
            for i in idx:
                if spans[i]["name"] == name:
                    t += self._dur(spans[i]) - sum(
                        self._dur(spans[c]) for c in children.get(i, ())
                        if spans[c]["name"].startswith(child_prefix))
            return t

        def outside_write(i):
            p = spans[i]["parent"]
            while p >= 0:
                if spans[p]["name"] == WRITE:
                    return False
                p = spans[p]["parent"]
            return True

        m = {}
        m["kernels.make_seeds.s"] = total("kernels.make_seeds")
        m["kernels.make_seeds.seeds"] = total("kernels.make_seeds", "seeds")
        for k in ("single_batch", "repeated_batch"):
            name = f"kernels.{k}"
            m[f"{name}.s"] = total(name)
            m[f"{name}.runs"] = total(name, "runs")
            m[f"{name}.ticks"] = total(name, "ticks")
            m[f"{name}.ticks_per_s"] = (m[f"{name}.ticks"] / m[f"{name}.s"]
                                        if m[f"{name}.s"] > 0 else 0.0)
        m["kernels.single_batch.msgs"] = total("kernels.single_batch", "msgs")
        m["kernels.repeated_batch.invocations"] = total("kernels.repeated_batch",
                                                        "invocations")
        m["kernels.repeated_run_arrays.s"] = total("kernels.repeated_run_arrays")
        m["analysis.estimate.s"] = total("analysis.estimate")
        m["analysis.estimate.calls"] = sum(1 for i in idx
                                           if spans[i]["name"] == "analysis.estimate")
        m["analysis.estimate.self_s"] = self_time("analysis.estimate", "kernels.")
        dup = total("analysis.estimate", "dup_runs")
        runs = total("analysis.estimate", "runs")
        m["analysis.estimate.dup_runs"] = dup
        m["analysis.estimate.unique_run_share"] = 1.0 - dup / runs if runs else 1.0
        m["analysis.divergence_probe.s"] = total("analysis.divergence_probe")
        m["engine.run_single.s"] = total("engine.run_single")
        m["engine.run_single.calls"] = total("engine.run_single", "runs")
        m["engine.run_repeated.self_s"] = self_time("engine.run_repeated", "kernels.")
        m["cost.avg_cost_series.s"] = total("cost.avg_cost_series")
        m["cost.avg_cost_series.points"] = total("cost.avg_cost_series", "points")
        m["cli.load_config.s"] = total("cli.load_config")
        m["cli.write.s"] = sum(self._dur(spans[i]) for i in idx
                               if spans[i]["name"] == WRITE and outside_write(i))
        return m

    def simulated_runs(self, rnd: int) -> int:
        """Runs simulated in a round, counted where they are simulated: the
        kernel entry points, and engine.run_single, the reference lane that
        simulates single-mode `simulate` runs without a kernel batch."""
        return sum(s.get("runs", 0) for s in self.spans if s["round"] == rnd
                   and (s["name"].startswith("kernels.") or s["name"] == "engine.run_single"))


def median_metrics(per_round: list) -> dict:
    """Median of each per-layer figure over traced rounds."""
    return {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
