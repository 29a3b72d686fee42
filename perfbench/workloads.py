"""The benchmark workloads, each driven through ``poisson_cs.cli.main``.

A workload is a fixed number of seeded problems.  Solving one problem is a
round: one set of CLI invocations with ``--workers 1``, whose outputs are read
back, checked and digested.  A run cycles through the problems in a closed
loop with a single caller, so a faster program repeats problems rather than
meeting new ones, and the accuracy figures always come from the same first
pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from poisson_cs import cli
from poisson_cs.experiments import make_test_image
from poisson_cs.transforms import write_pgm


@dataclass
class RoundResult:
    """What one round produced and what its checks found."""

    units: int
    seconds: float = 0.0     # time spent inside cli.main
    ref_seconds: float = 0.0  # the same time in reference seconds
    failed: int = 0
    digest: str = ""
    # (group, intensity) -> relative error of each unit; group is the solver.
    errors: dict = field(default_factory=dict)
    faults: list = field(default_factory=list)   # failed checks
    counts: dict = field(default_factory=dict)


def _cli(argv: list[str], log) -> float:
    """Run one CLI invocation, its stdout sent to ``log``; returns its seconds."""
    with contextlib.redirect_stdout(log):
        t0 = time.perf_counter()
        # Looked up on every call so that a tracer's wrapper is used.
        cli.main(argv)
        return time.perf_counter() - t0


def _timed(argv: list[str], log, result: RoundResult, scale) -> None:
    """Run one CLI invocation and add its time to ``result``.

    ``scale`` turns the seconds into reference seconds; it is called right
    after the invocation, so that it measures the host as the call found it.
    """
    seconds = _cli(argv, log)
    result.seconds += seconds
    result.ref_seconds += scale(seconds)


def unscaled(seconds: float) -> float:
    return seconds


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as f:
        json.dump(obj, f)


def _sweep_argv(solver, config, out, master, trials):
    return ["sweep", "--kind", "intensity", "--solver", solver, "--config", str(config),
            "--out", str(out), "--seed", str(master), "--trials", str(trials),
            "--workers", "1"]


def _read_sweep(out: Path, solver: str, result: RoundResult) -> list[dict]:
    with open(out / "manifest_intensity.json") as f:
        cells = json.load(f)["cells"]
    for cell in cells:
        key = (solver, cell["params"]["intensity"])
        for rec in cell["trial_records"]:
            if math.isfinite(rec["rrmse"]):
                result.errors.setdefault(key, []).append(rec["rrmse"])
            else:
                result.failed += 1
    return cells


class Workload:
    name: str
    unit: str        # what one unit of throughput is
    units: int       # units in one round
    problems: int    # distinct seeded rounds in one pass
    # How strongly the workload's time follows the reference mix's as the
    # host's speed changes: the slope of log seconds on log mix seconds.
    host_sensitivity = 1.0

    def prepare(self, inputs: Path) -> None:
        """Write the input files every round reads."""
        raise NotImplementedError

    def run_round(self, inputs: Path, master: int, out: Path, log, scale) -> RoundResult:
        raise NotImplementedError

    def check_pooled(self, medians: dict) -> list[str]:
        """Checks on the first pass's pooled medians, keyed (group, intensity)."""
        return []


class SweepP2(Workload):
    """The criterion-8 cells: P2 with the theory radius at three intensities."""

    name, unit, problems = "sweep-p2", "trial", 12
    trials = 5
    config = {"grid": {"intensity": [1e4, 1e6, 1e8]}, "epsilon_mode": "theory",
              "dim": 100, "n_measurements": 50, "sparsity": 5}
    units = trials * len(config["grid"]["intensity"])

    def prepare(self, inputs):
        _write_json(inputs / "sweep-p2.json", self.config)

    def run_round(self, inputs, master, out, log, scale):
        result = RoundResult(units=self.units)
        _timed(_sweep_argv("P2", inputs / "sweep-p2.json", out, master, self.trials), log,
               result, scale)
        cells = _read_sweep(out, "P2", result)
        records = [r for c in cells for r in c["trial_records"]]
        # The docstring contract of solve_p2: sqjsd within 1 % of the radius.
        result.counts["p2_trials"] = len(records)
        result.counts["p2_contract_misses"] = sum(
            abs(r["constraint_residual"]) > 0.01 * r["epsilon"] for r in records)
        result.digest = hashlib.sha256((out / "sweep_intensity.csv").read_bytes()).hexdigest()
        return result

    def check_pooled(self, medians):
        meds = [medians[k] for k in sorted(medians, key=lambda k: k[1])]
        if not all(a > b for a, b in zip(meds, meds[1:])):
            return [f"sweep-p2 medians do not strictly decrease in I: {meds}"]
        return []


class SweepFits(Workload):
    """Omniscient-lambda P4, P5 and P6 sweeps: the JSD, SNLL and gen-KL fits."""

    name, unit, problems = "sweep-fits", "trial", 10
    trials = 5
    solvers = ("P4", "P5", "P6")
    config = {"grid": {"intensity": [1e4, 1e8]}, "lambda_mode": "omniscient"}
    units = trials * len(config["grid"]["intensity"]) * len(solvers)

    def prepare(self, inputs):
        _write_json(inputs / "sweep-fits.json", self.config)

    def run_round(self, inputs, master, out, log, scale):
        result = RoundResult(units=self.units)
        digest = hashlib.sha256()
        for solver in self.solvers:
            sub = fresh(out / solver)
            _timed(_sweep_argv(solver, inputs / "sweep-fits.json", sub, master, self.trials),
                   log, result, scale)
            _read_sweep(sub, solver, result)
            digest.update((sub / "sweep_intensity.csv").read_bytes())
        result.digest = digest.hexdigest()
        return result

    def check_pooled(self, medians):
        faults = []
        for solver in self.solvers:
            lo, hi = sorted((k for k in medians if k[0] == solver), key=lambda k: k[1])
            if not medians[lo] > medians[hi]:
                faults.append(f"{solver} median RRMSE does not fall from I={lo[1]:g} "
                                f"to I={hi[1]:g}")
        return faults


class ImageP4(Workload):
    """Criterion-11 settings (P4 omniscient, 7x7 DCT patches) on a 13x13 scene.

    A round runs one ``image`` invocation per intensity, so that the host's
    speed is measured between them.  Patch seeds depend on the patch index
    only, so the output is the one a single invocation over both gives.
    """

    name, unit, problems = "image-p4", "patch", 6
    scene = 13
    config = {"grid": {"intensity": [1e4, 1e8]}, "n_measurements": 25, "patch": 7,
              "stride": 3, "max_iters": 800, "image_size": None}
    units = (((scene - config["patch"]) // config["stride"] + 1) ** 2
             * len(config["grid"]["intensity"]))

    def prepare(self, inputs):
        write_pgm(inputs / "scene.pgm", make_test_image(self.scene, self.scene))
        for i in self.config["grid"]["intensity"]:
            _write_json(inputs / f"image-p4-I{i:g}.json",
                        {**self.config, "grid": {"intensity": [i]}})

    def run_round(self, inputs, master, out, log, scale):
        result = RoundResult(units=0)
        cells = []
        for i in self.config["grid"]["intensity"]:
            sub = fresh(out / f"I{i:g}")
            argv = ["image", "--input", str(inputs / "scene.pgm"), "--solver", "P4",
                    "--config", str(inputs / f"image-p4-I{i:g}.json"), "--out", str(sub),
                    "--seed", str(master), "--workers", "1"]
            _timed(argv, log, result, scale)
            with open(sub / "image_recon.json") as f:
                cells += json.load(f)["cells"]
        result.units = sum(c["n_patches"] for c in cells)
        digest = hashlib.sha256()
        for c in cells:
            if not math.isfinite(c["rrmse"]):
                result.failed += c["n_patches"]
                continue
            result.errors.setdefault(("P4", c["intensity"]), []).append(c["rrmse"])
            digest.update(json.dumps([c["intensity"], c["rrmse"], c["n_unconverged"]]).encode())
            digest.update(Path(c["out_image"]).read_bytes())
        result.digest = digest.hexdigest()
        result.counts["unconverged_patches"] = sum(c["n_unconverged"] for c in cells)
        err = {c["intensity"]: c["rrmse"] for c in cells}
        lo, hi = min(err), max(err)
        if not err[lo] > err[hi]:
            result.faults.append(f"image RRMSE(I={lo:g})={err[lo]:.4f} is not above "
                                   f"RRMSE(I={hi:g})={err[hi]:.4f}")
        return result


class StatsMC(Workload):
    """verify-stats on the desk grid with 10^4 Monte-Carlo trials per cell."""

    name, unit, problems = "stats-mc", "sample", 5
    # Fitted over 20 runs (slope 0.53, correlation 0.85) and again over 57
    # rounds of one long run (0.49): wide-array work slows about half as much
    # as the mix when a neighbour is busy.
    host_sensitivity = 0.5
    trials = 10_000
    config = {"grid": {"n_measurements": [50, 100, 500], "intensity": [1e3, 1e4, 1e6]}}
    units = trials * len(config["grid"]["n_measurements"]) * len(config["grid"]["intensity"])

    def prepare(self, inputs):
        _write_json(inputs / "stats-mc.json", self.config)

    def run_round(self, inputs, master, out, log, scale):
        argv = ["verify-stats", "--config", str(inputs / "stats-mc.json"), "--out", str(out),
                "--seed", str(master), "--trials", str(self.trials), "--workers", "1"]
        result = RoundResult(units=0)
        _timed(argv, log, result, scale)
        with open(out / "verify_stats.json") as f:
            cells = json.load(f)["cells"]
        result.units = sum(c["trials"] for c in cells)
        for c in cells:
            if not (math.isfinite(c["mean"]) and math.isfinite(c["var"])):
                result.failed += c["trials"]
                continue
            if c["mean"] > math.sqrt(c["N"] / 4.0):
                result.faults.append(f"mean {c['mean']:.4f} above sqrt(N/4) at N={c['N']}")
            # Relative standard error of the reported mean of sqrt(J).
            rse = math.sqrt(c["var"] / c["trials"]) / c["mean"]
            result.errors.setdefault(("mc", c["I"]), []).append(rse)
        result.counts["ks_cells"] = len(cells)
        result.counts["ks_passes"] = sum(bool(c["ks_pass"]) for c in cells)
        result.digest = hashlib.sha256(json.dumps(cells, sort_keys=True).encode()).hexdigest()
        return result


WORKLOADS = {w.name: w for w in (SweepP2(), SweepFits(), ImageP4(), StatsMC())}


def pooled_errors(rounds: list[RoundResult]) -> tuple[float, float, dict]:
    """(error at the lowest I, error at the highest I, medians by key).

    The error at one intensity is the median over the pooled units; where a
    workload runs several solvers it is the worst solver's median.
    """
    pool: dict = {}
    for r in rounds:
        for key, vals in r.errors.items():
            pool.setdefault(key, []).extend(vals)
    medians = {k: float(np.median(v)) for k, v in pool.items()}
    intensities = sorted({k[1] for k in medians})
    worst = {i: max(m for k, m in medians.items() if k[1] == i) for i in intensities}
    return worst[intensities[0]], worst[intensities[-1]], medians


def run_probe(inputs: Path, out: Path, master: int, log) -> None:
    """One small call through every layer: a P2 trial, a patch, a stats cell.

    A traced run starts with it, so that each layer is exercised, and each
    per-layer figure measured, on every workload.
    """
    write_pgm(inputs / "probe.pgm", make_test_image(7, 7))
    _write_json(inputs / "probe-sweep.json", {"grid": {"intensity": [1e6]}})
    _write_json(inputs / "probe-image.json", {**ImageP4.config, "grid": {"intensity": [1e6]}})
    _write_json(inputs / "probe-stats.json",
                {"grid": {"n_measurements": [50], "intensity": [1e4]}})
    _cli(_sweep_argv("P2", inputs / "probe-sweep.json", fresh(out / "sweep"), master, 1), log)
    _cli(["image", "--input", str(inputs / "probe.pgm"), "--solver", "P4",
          "--config", str(inputs / "probe-image.json"), "--out", str(fresh(out / "image")),
          "--seed", str(master), "--workers", "1"], log)
    _cli(["verify-stats", "--config", str(inputs / "probe-stats.json"),
          "--out", str(fresh(out / "stats")), "--seed", str(master), "--trials", "100",
          "--workers", "1"], log)
