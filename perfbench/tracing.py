"""In-memory spans around the public functions of the poisson_cs layers.

A span records its name, start, end, the span that caused it (its parent,
-1 for a root), the round it belongs to (its trace id) and a few counts taken
at the same boundary (solver iterations, bytes computed).  Spans stay in
memory and are written out once, at the end of a run.

A function is wrapped under every name it is looked up by: ``experiments``
imports ``solve_penalized`` by name while ``solve_p2`` looks it up in
``solvers``, and ``sqjsd_stats`` imports ``jsd_rowwise``.  Wrapping a single
binding would let those calls escape the trace.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (span name, module, attribute); "Class.method" wraps a method on the class.
TARGETS = [
    ("cli.main", "poisson_cs.cli", "main"),
    ("experiments.run_sweep", "poisson_cs.experiments", "run_sweep"),
    ("experiments.run_verify_stats", "poisson_cs.experiments", "run_verify_stats"),
    ("experiments.run_image_recon", "poisson_cs.experiments", "run_image_recon"),
    # One span per dispatched unit: a sweep trial or an image patch.
    ("experiments.trial", "poisson_cs.experiments", "_run_trial"),
    ("experiments.patch", "poisson_cs.experiments", "_patch_task"),
    ("solvers.solve_p2", "poisson_cs.solvers", "solve_p2"),
    ("solvers.solve_penalized", "poisson_cs.solvers", "solve_penalized"),
    ("solvers.gradient_scale", "poisson_cs.solvers", "gradient_scale"),
    ("transforms.basis_matrix", "poisson_cs.transforms", "OrthonormalBasis.matrix"),
    ("transforms.synthesize", "poisson_cs.transforms", "OrthonormalBasis.synthesize"),
    ("transforms.extract_patches", "poisson_cs.transforms", "extract_patches"),
    ("transforms.reassemble", "poisson_cs.transforms", "reassemble"),
    ("transforms.pgm_io", "poisson_cs.transforms", "read_pgm"),
    ("transforms.pgm_io", "poisson_cs.transforms", "write_pgm"),
    ("sensing.sample_rip_matrix", "poisson_cs.sensing", "sample_rip_matrix"),
    ("sensing.build_phi", "poisson_cs.sensing", "build_phi"),
    ("simulate.measure", "poisson_cs.simulate", "measure"),
    ("sqjsd_stats.monte_carlo_sqjsd", "poisson_cs.sqjsd_stats", "monte_carlo_sqjsd"),
    ("sqjsd_stats.ks_gaussian_test", "poisson_cs.sqjsd_stats", "ks_gaussian_test"),
    ("sqjsd_stats.concentration_bounds", "poisson_cs.sqjsd_stats", "concentration_bounds"),
    ("divergences.jsd_rowwise", "poisson_cs.divergences", "jsd_rowwise"),
]


def _describe_solve(sig, default_max_iters):
    def describe(args, kwargs, result):
        cfg = sig.bind(*args, **kwargs).arguments.get("cfg")
        max_iters = cfg.max_iters if cfg is not None else default_max_iters
        return {
            "iters": result.iterations,
            "converged": bool(result.converged),
            "hit_max_iters": result.iterations >= max_iters and not result.converged,
        }
    return describe


def _describe_jsd_rowwise(args, kwargs, result):
    # Computed from array sizes: both operands read once, one value written
    # per row.  Temporaries and cache misses are not counted.
    P = np.asarray(args[0])
    q = np.asarray(args[1])
    return {"bytes": int(P.nbytes + q.nbytes + np.asarray(result).nbytes)}


class Tracer:
    """Wraps the TARGETS while installed and keeps every span in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.trace_id = 0
        self._open: list[int] = []
        self._restore: list[tuple] = []
        self._t0 = time.perf_counter()

    def _wrap(self, name, fn, describe):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, self.trace_id, None]
            open_.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[5] = {"error": type(exc).__name__}
                raise
            finally:
                span[2] = time.perf_counter()
                open_.pop()
            if describe is not None:
                span[5] = describe(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        from poisson_cs.solvers import SolverConfig

        for _, modname, _ in TARGETS:
            importlib.import_module(modname)
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "poisson_cs" or k.startswith("poisson_cs."))]
        for name, modname, attr in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            fn = owner.__dict__[attr]
            describe = None
            if name == "solvers.solve_penalized":
                describe = _describe_solve(inspect.signature(fn), SolverConfig().max_iters)
            elif name == "divergences.jsd_rowwise":
                describe = _describe_jsd_rowwise
            wrapper = self._wrap(name, fn, describe)
            owners = [owner] if isinstance(owner, type) else modules
            for mod in owners:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, fn))

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._restore):
            setattr(owner, key, fn)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump(
                [{"name": s[0], "start": s[1] - self._t0, "end": s[2] - self._t0,
                  "parent": s[3], "trace": s[4], **(s[5] or {})} for s in self.spans],
                f,
            )
            f.write("\n")


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _frac(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer counts and times from the recorded spans.

    busy_s is the summed span duration; self_s subtracts the time covered by
    the span's direct children.  Every figure is 0 for a layer that saw no
    call.
    """
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
        by_name[s[0]].append(i)

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return float(sum(dur[i] for i in by_name[name]))

    def self_time(name):
        return float(sum(dur[i] - child[i] for i in by_name[name]))

    def attrs(name):
        return [spans[i][5] or {} for i in by_name[name]]

    out = {}
    p2 = set(by_name["solvers.solve_p2"])
    solves = attrs("solvers.solve_penalized")
    done = [a for a in solves if "iters" in a]
    inner = [spans[i][5] or {} for i in by_name["solvers.solve_penalized"] if spans[i][3] in p2]
    n_p2 = len(p2)
    out["solvers.solve_p2.calls"] = n_p2
    out["solvers.solve_p2.busy_s"] = busy("solvers.solve_p2")
    out["solvers.solve_p2.self_s"] = self_time("solvers.solve_p2")
    out["solvers.solve_p2.solves_per_call"] = _frac(len(inner), n_p2)
    out["solvers.solve_p2.iters_per_call"] = _frac(sum(a.get("iters", 0) for a in inner), n_p2)

    n_solve = len(solves)
    iters = sum(a["iters"] for a in done)
    solve_busy = busy("solvers.solve_penalized")
    out["solvers.solve_penalized.calls"] = n_solve
    out["solvers.solve_penalized.busy_s"] = solve_busy
    out["solvers.solve_penalized.iters"] = iters
    out["solvers.solve_penalized.us_per_iter"] = _frac(solve_busy * 1e6, iters)
    out["solvers.solve_penalized.max_iters_frac"] = _frac(
        sum(a["hit_max_iters"] for a in done), len(done))
    out["solvers.solve_penalized.unconverged_frac"] = _frac(
        sum(not a["converged"] for a in done), len(done))
    out["solvers.solve_penalized.infeasible_start_frac"] = _frac(
        sum(a.get("error") == "InfeasibleStartError" for a in solves), n_solve)
    out["solvers.gradient_scale.busy_s"] = busy("solvers.gradient_scale")

    for layer in ("basis_matrix", "synthesize", "extract_patches", "reassemble", "pgm_io"):
        out[f"transforms.{layer}.calls"] = calls(f"transforms.{layer}")
        out[f"transforms.{layer}.busy_s"] = busy(f"transforms.{layer}")
    for name in ("sensing.sample_rip_matrix", "sensing.build_phi", "simulate.measure"):
        out[f"{name}.busy_s"] = busy(name)

    out["sqjsd_stats.monte_carlo_sqjsd.busy_s"] = busy("sqjsd_stats.monte_carlo_sqjsd")
    out["sqjsd_stats.monte_carlo_sqjsd.self_s"] = self_time("sqjsd_stats.monte_carlo_sqjsd")
    out["sqjsd_stats.ks_gaussian_test.busy_s"] = busy("sqjsd_stats.ks_gaussian_test")
    out["sqjsd_stats.concentration_bounds.busy_s"] = busy("sqjsd_stats.concentration_bounds")
    out["divergences.jsd_rowwise.busy_s"] = busy("divergences.jsd_rowwise")
    out["divergences.jsd_rowwise.bytes_computed"] = sum(
        a.get("bytes", 0) for a in attrs("divergences.jsd_rowwise"))

    for unit in ("trial", "patch"):
        ms = [dur[i] * 1e3 for i in by_name[f"experiments.{unit}"]]
        out[f"experiments.{unit}_ms.p50"] = _pct(ms, 50)
        out[f"experiments.{unit}_ms.p90"] = _pct(ms, 90)
    return out
