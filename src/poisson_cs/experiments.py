"""Seeded experiment harness: sweeps, statistics verification, image runs.

Every run is driven by an :class:`ExperimentSpec` and a master seed.  All
randomness flows through ``simulate.derive_seed``, that is
``SeedSequence([master_seed, stream, *indices])``, with fixed stream ids (0
signal, 1 sensing matrix, 2 measurements, 3 percentile pilot, 4
statistics), so a manifest plus its master seed reproduces every number
bit-for-bit; trials may be dispatched to a worker pool without affecting
the results.

Sweep cells draw one s-sparse non-negative signal pattern (support uniform
without replacement, magnitudes uniform on [0.5, 1.5], scaled to the cell's
total intensity), then measure it through a fresh sensing matrix per trial
and record the relative reconstruction error of the chosen estimator.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__ as LIBRARY_VERSION
from .errors import InvalidParamError
from .sensing import build_phi, sample_rip_matrix
from .simulate import derive_rng, derive_seed, measure
from .solvers import (
    FitKind,
    FitTerm,
    SolverConfig,
    gradient_scale,
    rrmse,
    solve_chains,
    solve_p2_batch,
    solve_penalized_batch,
)
from .sqjsd_stats import (
    KS_MIN_SAMPLES,
    EpsilonMode,
    choose_epsilon,
    ks_gaussian_test,
    monte_carlo_sqjsd,
    concentration_bounds,
)
from .transforms import (
    PatchGrid,
    dct2_basis,
    extract_patches,
    identity_basis,
    read_pgm,
    reassemble,
    write_pgm,
)

__all__ = [
    "ExperimentSpec",
    "RunManifest",
    "make_sparse_signal",
    "run_sweep",
    "run_verify_stats",
    "run_image_recon",
    "make_test_image",
    "sweep_csv_rows",
    "write_sweep_csv",
    "LIBRARY_VERSION",
]

_STREAM_SIGNAL = 0
_STREAM_PHI = 1
_STREAM_Y = 2
_STREAM_PILOT = 3
_STREAM_STATS = 4

SWEEP_KINDS = ("intensity", "measurements", "sparsity")

_SOLVER_FITS = {"P4": FitKind.JSD, "P5": FitKind.SNLL, "P6": FitKind.GEN_KL}

# Omniscient-lambda grid, relative to the gradient scale at the start point.
# The best pick sits around 1e-3..1e-2 of the scale for intensities between
# 1e3 and 1e10; a decade of margin on each side covers the sweep grids, and
# the floor stays above the near-unregularized regime where first-order
# iterations crawl without improving the reconstruction.
_LAMBDA_GRID_LO = 1e-4
_LAMBDA_GRID_HI = 0.3


def _check_positive(name: str, value) -> None:
    # NaN fails the comparison, so it is rejected too.
    if not (isinstance(value, numbers.Real) and value > 0.0 and math.isfinite(value)):
        raise InvalidParamError(f"{name} must be finite and > 0, got {value!r}")


def _check_integer(name: str, value, least: int) -> None:
    # bool is an Integral, but True is no count.
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= least):
        raise InvalidParamError(f"{name} must be an integer >= {least}, got {value!r}")


# The ExperimentSpec fields that count something, each at least 1.
_COUNT_FIELDS = ("trials", "workers", "dim", "n_measurements", "sparsity", "patch", "stride",
                 "max_iters", "lambda_points")


@dataclass
class ExperimentSpec:
    """Declarative description of one experiment run."""

    kind: str = "intensity"
    grid: dict = field(default_factory=dict)
    trials: int = 10
    master_seed: int = 0
    solver: str = "P2"
    lambda_mode: str = "omniscient"
    lambda_value: float | None = None
    lambda_points: int = 10
    epsilon_mode: str = "theory"
    beta: float = 0.0
    dim: int = 100
    n_measurements: int = 50
    sparsity: int = 5
    intensity: float = 1e8
    patch: int = 7
    stride: int = 3
    image_size: int | None = 64
    max_iters: int = 1200
    workers: int = 1

    def __post_init__(self):
        for name in _COUNT_FIELDS:
            _check_integer(name, getattr(self, name), 1)
        if self.image_size is not None:
            _check_integer("image_size", self.image_size, 1)
        # SeedSequence takes non-negative entropy only.
        _check_integer("master_seed", self.master_seed, 0)
        if self.solver not in ("P2", "P4", "P5", "P6"):
            raise InvalidParamError(f"unknown solver {self.solver!r}")
        if self.lambda_mode not in ("omniscient", "fixed"):
            raise InvalidParamError(f"unknown lambda_mode {self.lambda_mode!r}")
        if self.lambda_mode == "fixed":
            _check_positive("lambda_value (fixed lambda_mode)", self.lambda_value)
        if self.epsilon_mode not in ("theory", "percentile"):
            raise InvalidParamError(f"unknown epsilon_mode {self.epsilon_mode!r}")
        _check_positive("intensity", self.intensity)
        if not (isinstance(self.beta, numbers.Real) and self.beta >= 0.0
                and math.isfinite(self.beta)):
            raise InvalidParamError(f"beta must be finite and >= 0, got {self.beta!r}")
        if not self.grid:
            self.grid = default_grid(self.kind, paper_scale=False)
        for value in self.grid.get("intensity", ()):
            _check_positive("grid intensity", value)

    @classmethod
    def from_dict(cls, config: dict) -> "ExperimentSpec":
        """The spec of a config mapping; unknown keys are rejected by name."""
        unknown = sorted(set(config) - {f.name for f in fields(cls)})
        if unknown:
            raise InvalidParamError(f"unknown ExperimentSpec field(s): {', '.join(unknown)}")
        return cls(**config)

    @classmethod
    def from_json(cls, path) -> "ExperimentSpec":
        with open(path) as f:
            return cls.from_dict(json.load(f))

    def to_dict(self) -> dict:
        return asdict(self)


def default_grid(kind: str, paper_scale: bool = False) -> dict:
    """Desk-scale grids by default; --paper-scale restores full settings."""
    if kind == "intensity":
        values = [1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10] if paper_scale else [1e4, 1e6, 1e8]
        return {"intensity": values}
    if kind == "measurements":
        values = [10, 20, 50, 100, 200] if paper_scale else [20, 50, 100]
        return {"n_measurements": values}
    if kind == "sparsity":
        values = [2, 5, 10, 15, 20] if paper_scale else [2, 5, 10]
        return {"sparsity": values}
    if kind == "verify-stats":
        if paper_scale:
            return {"n_measurements": [10, 25, 50, 100, 200, 400, 500],
                    "intensity": [1e2, 1e3, 1e4, 1e6, 1e8]}
        return {"n_measurements": [50, 100, 500], "intensity": [1e3, 1e4, 1e6]}
    if kind == "image":
        values = [1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10] if paper_scale else [1e4, 1e8]
        return {"intensity": values}
    raise InvalidParamError(f"unknown experiment kind {kind!r}")


def make_sparse_signal(m: int, s: int, intensity: float, rng) -> np.ndarray:
    """s-sparse non-negative signal with total intensity ||x||_1 = intensity."""
    if not (1 <= s <= m):
        raise InvalidParamError(f"sparsity {s} out of range for dim {m}")
    support = rng.choice(m, size=s, replace=False)
    x = np.zeros(m)
    x[support] = rng.uniform(0.5, 1.5, size=s)
    return x * (intensity / x.sum())


def _cells(spec: ExperimentSpec) -> list[dict]:
    base = {
        "m": spec.dim,
        "N": spec.n_measurements,
        "s": spec.sparsity,
        "intensity": spec.intensity,
    }
    cells = []
    if spec.kind == "intensity":
        for v in spec.grid["intensity"]:
            cells.append({**base, "intensity": float(v)})
    elif spec.kind == "measurements":
        for v in spec.grid["n_measurements"]:
            cells.append({**base, "N": int(v)})
    elif spec.kind == "sparsity":
        for v in spec.grid["sparsity"]:
            cells.append({**base, "s": int(v)})
    else:
        raise InvalidParamError(f"run_sweep cannot handle kind {spec.kind!r}")
    return cells


def _sweep_solver_config(spec: ExperimentSpec) -> SolverConfig:
    # 1-D sweeps use the canonical basis; the physical signal is non-negative.
    return SolverConfig(max_iters=spec.max_iters, nonneg_signal=True)


def _lambda_grid(scale: float, spec: ExperimentSpec) -> np.ndarray:
    return scale * np.geomspace(_LAMBDA_GRID_LO, _LAMBDA_GRID_HI, spec.lambda_points)


def _lambda_walk(basis, grid, reference):
    """The omniscient pick of one problem, as a chain of ``solve_chains``.

    Oracle selection (the true signal is consulted), used only to benchmark
    against protocols that picked the regularizer omnisciently.  Walks the
    lambda grid from the sparsest end down, each solve warm-started from the
    previous one (from the default start after an all-zero solution), and
    returns the solve closest in l2 to the reference.
    """
    warm = best = None
    for lam in sorted((float(lam) for lam in grid), reverse=True):
        res = yield lam, warm
        warm = res.theta_star if np.any(res.theta_star != 0.0) else None
        err = float(np.linalg.norm(basis.synthesize(res.theta_star) - reference))
        if best is None or err < best[0]:
            best = (err, res)
    return best[1]


def _estimate(spec: ExperimentSpec, A, basis, mvs, epsilons, references, cfg) -> list:
    """The estimator ``spec`` names, on every problem of a batch at once.

    ``A`` holds one operator per problem; ``epsilons`` are the P2 radii and
    ``references`` the true signals that omniscient lambda picks by.
    Returns one SolveResult per problem; its ``lambda_used`` is the weight
    the estimate was solved with.
    """
    if spec.solver == "P2":
        return solve_p2_batch(A, basis, mvs, epsilons, cfg, beta=spec.beta)
    fit = FitTerm(_SOLVER_FITS[spec.solver], spec.beta)
    if spec.lambda_mode == "fixed":
        return solve_penalized_batch(A, basis, mvs, fit, [spec.lambda_value] * len(mvs), cfg)
    walks = [_lambda_walk(basis, _lambda_grid(gradient_scale(a, basis, mv, fit), spec), ref)
             for a, mv, ref in zip(A, mvs, references)]
    return solve_chains(A, basis, mvs, fit, walks, cfg)


def _run_trial(spec: ExperimentSpec, cell: dict, trial: int):
    """Set up one (cell, trial) unit of a sweep; owns all of its randomness.

    Returns the signal, the operator (canonical basis: A = Phi), the
    measurement and, for P2, the constraint radius (None otherwise).
    """
    m, N, s, intensity = cell["m"], cell["N"], cell["s"], cell["intensity"]
    master = spec.master_seed

    x = make_sparse_signal(m, s, intensity, derive_rng(master, _STREAM_SIGNAL, s))

    phi = build_phi(sample_rip_matrix(N, m, 0.5, seed=derive_seed(master, _STREAM_PHI, trial)))
    mv = measure(phi, x, derive_seed(master, _STREAM_Y, trial))
    eps = None
    if spec.solver == "P2":
        if spec.epsilon_mode == "percentile":
            pilot = monte_carlo_sqjsd(phi, x, 200, derive_seed(master, _STREAM_PILOT, trial))
            eps = choose_epsilon(EpsilonMode.PERCENTILE, N, pilot)
        else:
            eps = choose_epsilon(EpsilonMode.THEORY, N)
    return x, phi.entries, mv, eps


def _sweep_run(args) -> list[dict]:
    """Solve a run of sweep tasks as one batch; one worker's unit of work.

    ``args`` is (spec dict, cells, tasks), each task a (cell index, trial)
    pair.  Returns one trial record per task.
    """
    spec_dict, cells, tasks = args
    spec = ExperimentSpec(**spec_dict)
    xs, A, mvs, epsilons = zip(*(_run_trial(spec, cells[ci], t) for ci, t in tasks))
    basis = identity_basis(spec.dim)
    results = _estimate(spec, A, basis, mvs, epsilons, xs, _sweep_solver_config(spec))
    records = []
    for (_, trial), x, eps, res in zip(tasks, xs, epsilons, results):
        record = {
            "trial": trial,
            "converged": res.converged,
            "lambda_used": res.lambda_used,
            "constraint_residual": res.constraint_residual,
            "iterations": res.iterations,
            "rrmse": rrmse(x, basis.synthesize(res.theta_star)),
        }
        if spec.solver == "P2":
            record.update(epsilon=eps, n_solves=res.n_solves,
                          total_iterations=res.total_iterations)
        records.append(record)
    return records


@dataclass
class RunManifest:
    """Reproducibility record: spec echo, per-trial records, quantiles."""

    spec: dict
    cells: list
    master_seed: int
    library_version: str = LIBRARY_VERSION
    wall_clock_s: float = 0.0
    seed_rule: str = (
        "SeedSequence([master_seed, stream, index]); "
        "streams: 0 signal, 1 phi, 2 measurements, 3 pilot, 4 stats"
    )

    @property
    def n_unconverged(self) -> int:
        return sum(c["n_unconverged"] for c in self.cells)

    def to_json(self, path) -> None:
        with open(path, "w") as f:
            json.dump(asdict(self), f, indent=2)
            f.write("\n")


def _summarize(cell: dict, records: list[dict]) -> dict:
    errs = np.array([r["rrmse"] for r in records])
    qs = np.percentile(errs, [0, 25, 50, 75, 100])
    return {
        "params": cell,
        "trials": len(records),
        "rrmse": {
            "min": float(qs[0]),
            "q25": float(qs[1]),
            "median": float(qs[2]),
            "q75": float(qs[3]),
            "max": float(qs[4]),
        },
        "n_unconverged": sum(not r["converged"] for r in records),
        "trial_records": records,
    }


def run_sweep(spec: ExperimentSpec) -> RunManifest:
    """Run every (cell, trial) of a sweep and summarize RRMSE quantiles."""
    t0 = time.perf_counter()
    cells = _cells(spec)
    tasks = [(ci, t) for ci in range(len(cells)) for t in range(spec.trials)]
    spec_dict = spec.to_dict()

    # One contiguous run of tasks per worker, each solved as one batch.
    runs = np.array_split(np.arange(len(tasks)), min(spec.workers, len(tasks)))
    jobs = [(spec_dict, cells, [tasks[i] for i in r]) for r in runs]
    if len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
            results = list(pool.map(_sweep_run, jobs))
    else:
        results = [_sweep_run(jobs[0])]
    records = [rec for run in results for rec in run]

    by_cell: dict[int, list] = {ci: [] for ci in range(len(cells))}
    for (ci, _), rec in zip(tasks, records):
        by_cell[ci].append(rec)
    summaries = [_summarize(cells[ci], by_cell[ci]) for ci in range(len(cells))]
    return RunManifest(
        spec=spec_dict,
        cells=summaries,
        master_seed=spec.master_seed,
        wall_clock_s=time.perf_counter() - t0,
    )


_SWEEP_CSV_COLUMNS = [
    "kind", "solver", "m", "N", "s", "intensity", "trials",
    "rrmse_min", "rrmse_q25", "rrmse_median", "rrmse_q75", "rrmse_max",
    "n_unconverged",
]


def sweep_csv_rows(manifest: RunManifest) -> list[dict]:
    rows = []
    for cell in manifest.cells:
        p, q = cell["params"], cell["rrmse"]
        rows.append({
            "kind": manifest.spec["kind"],
            "solver": manifest.spec["solver"],
            "m": p["m"],
            "N": p["N"],
            "s": p["s"],
            "intensity": p["intensity"],
            "trials": cell["trials"],
            "rrmse_min": repr(q["min"]),
            "rrmse_q25": repr(q["q25"]),
            "rrmse_median": repr(q["median"]),
            "rrmse_q75": repr(q["q75"]),
            "rrmse_max": repr(q["max"]),
            "n_unconverged": cell["n_unconverged"],
        })
    return rows


def write_sweep_csv(manifest: RunManifest, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=_SWEEP_CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(sweep_csv_rows(manifest))


def _verify_stats_grid(spec: ExperimentSpec) -> tuple[list[int], list[tuple[float, int]]]:
    """The checked grid of a verify-stats run: its N values, and each
    intensity with its quarter-decade level ``int(4 log10 I)``.

    A cell's signal and Poisson streams are keyed by (N, level), so two
    intensities on one level would share them, and an intensity below 1
    would give a negative key.  Everything is checked before any cell runs.
    """
    if spec.trials < KS_MIN_SAMPLES:
        raise InvalidParamError(
            f"trials must be >= {KS_MIN_SAMPLES} for the KS test, got {spec.trials!r}")
    grid_N = list(spec.grid.get("n_measurements", [50, 100, 500]))
    for N in grid_N:
        if not (isinstance(N, numbers.Integral) and N >= 1):
            raise InvalidParamError(f"grid n_measurements must be integers >= 1, got {N!r}")
    if len(set(grid_N)) < len(grid_N):
        raise InvalidParamError(f"grid n_measurements has a repeated value: {grid_N!r}")
    grid_I = []
    levels: dict[int, float] = {}
    for value in spec.grid.get("intensity", [1e3, 1e4, 1e6]):
        if not (isinstance(value, numbers.Real) and 1.0 <= value < math.inf):
            raise InvalidParamError(f"grid intensity must be finite and >= 1, got {value!r}")
        level = int(math.log10(value) * 4)
        if level in levels:
            raise InvalidParamError(
                f"grid intensity {levels[level]!r} and {value!r} share the quarter-decade "
                f"level {level}, and with it their random streams")
        levels[level] = value
        grid_I.append((float(value), level))
    return [int(N) for N in grid_N], grid_I


def run_verify_stats(spec: ExperimentSpec) -> dict:
    """Monte-Carlo verification of the sqjsd concentration behavior.

    The probe signal is dense uniform-positive (scaled to the cell's
    intensity) so every rate, and hence every s_i, stays strictly positive
    and the variance-bound column is meaningful in all cells.
    """
    t0 = time.perf_counter()
    grid_N, grid_I = _verify_stats_grid(spec)
    trials = spec.trials
    cells = []
    for N in grid_N:
        m = 2 * N
        phi = build_phi(
            sample_rip_matrix(N, m, 0.5, seed=derive_seed(spec.master_seed, _STREAM_PHI, N))
        )
        for intensity, level in grid_I:
            idx = (N, level)
            x = derive_rng(spec.master_seed, _STREAM_SIGNAL, *idx).uniform(0.5, 1.5, size=m)
            x *= intensity / x.sum()
            samples = monte_carlo_sqjsd(
                phi, x, trials, derive_seed(spec.master_seed, _STREAM_STATS, *idx))
            bounds = concentration_bounds(phi, x)
            ks = ks_gaussian_test(samples, alpha=0.01)
            cells.append({
                "N": N,
                "m": m,
                "I": intensity,
                "trials": trials,
                "mean": samples.mean,
                "var": samples.var,
                "p99": samples.percentile(99.0),
                "ks_statistic": ks.statistic,
                "ks_pass": ks.passed,
                "bounds": {
                    "mean_bound": bounds.mean_bound,
                    "var_bound": bounds.var_bound,
                    "tail_epsilon": bounds.tail_epsilon,
                    "tail_prob": bounds.tail_prob,
                    "s_min": bounds.s_min,
                },
            })
    return {
        "kind": "verify-stats",
        "master_seed": spec.master_seed,
        "library_version": LIBRARY_VERSION,
        "wall_clock_s": time.perf_counter() - t0,
        "cells": cells,
    }


def make_test_image(h: int = 64, w: int = 64) -> np.ndarray:
    """Deterministic piecewise-smooth grayscale scene (values in [0, 255]).

    Smooth gradient background with a bright rectangle, a disk, and a
    diagonal bar: compressible in the 2-D DCT without being trivial.
    """
    yy, xx = np.mgrid[0:h, 0:w].astype(float)
    img = 60.0 + 80.0 * (xx / max(w - 1, 1)) + 40.0 * (yy / max(h - 1, 1))
    img[int(0.15 * h): int(0.45 * h), int(0.2 * w): int(0.55 * w)] += 70.0
    cy, cx, r = 0.68 * h, 0.7 * w, 0.17 * min(h, w)
    img[(yy - cy) ** 2 + (xx - cx) ** 2 <= r**2] += 90.0
    band = np.abs((yy - 0.1 * h) - 0.8 * (xx - 0.55 * w)) < 0.04 * max(h, w)
    img[band] = np.maximum(img[band] - 55.0, 5.0)
    return np.clip(img, 0.0, 255.0)


def _patch_task(spec: ExperimentSpec, patch, k: int, psi: np.ndarray):
    """Measure patch ``k`` through its own sensing matrix; owns its randomness.

    Returns the effective operator A = Phi @ Psi and the measurement.
    """
    phi = build_phi(
        sample_rip_matrix(spec.n_measurements, psi.shape[0], 0.5,
                          seed=derive_seed(spec.master_seed, _STREAM_PHI, k))
    )
    mv = measure(phi, patch, derive_seed(spec.master_seed, _STREAM_Y, k))
    return phi.entries @ psi, mv


def _reconstruct_patches(args):
    """Reconstruct a run of consecutive patches; one worker's unit of work.

    ``args`` is (spec dict, patches, index of the first patch, Psi).  All
    lit patches of the run are solved together as one batch.  Returns the
    estimates and a per-patch converged flag.
    """
    spec_dict, patches, first, psi = args
    spec = ExperimentSpec(**spec_dict)
    basis = dct2_basis(spec.patch)
    cfg = SolverConfig(max_iters=spec.max_iters, nonneg_signal=False)
    estimates = np.zeros_like(patches)
    converged = np.ones(len(patches), dtype=bool)
    lit = [j for j in range(len(patches)) if patches[j].sum() > 0.0]  # dark: nothing measurable
    if not lit:
        return estimates, converged
    A, mvs = zip(*(_patch_task(spec, patches[j], first + j, psi) for j in lit))
    epsilons = [choose_epsilon(EpsilonMode.THEORY, spec.n_measurements)] * len(lit)
    results = _estimate(spec, A, basis, mvs, epsilons, patches[lit], cfg)
    for j, res in zip(lit, results):
        estimates[j] = basis.synthesize(res.theta_star)
        converged[j] = res.converged
    return estimates, converged


def run_image_recon(spec: ExperimentSpec, image_path, out_dir) -> dict:
    """Patch-wise compressive reconstruction of a grayscale image.

    Each patch is measured through its own fresh sensing matrix and
    reconstructed independently (2-D DCT sparsity); overlapping estimates
    are averaged.  Repeats over the intensity grid by rescaling the image.
    """
    t0 = time.perf_counter()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    img = read_pgm(image_path)
    if spec.image_size is not None:
        img = img[: spec.image_size, : spec.image_size]
    if float(img.sum()) <= 0.0:
        raise InvalidParamError("zero image: reconstruction error undefined")

    h, w = img.shape
    grid = PatchGrid(h, w, patch=spec.patch, stride=spec.stride)
    master = spec.master_seed
    spec_dict = spec.to_dict()
    psi = dct2_basis(spec.patch).matrix()

    cells = []
    for intensity in [float(v) for v in spec.grid["intensity"]]:
        scaled = img * (intensity / img.sum())
        patches = extract_patches(scaled, grid)
        # One contiguous run of patches per worker, each solved as a batch.
        runs = np.array_split(np.arange(grid.n_patches), min(spec.workers, grid.n_patches))
        tasks = [(spec_dict, patches[r[0]: r[-1] + 1], int(r[0]), psi) for r in runs]
        if len(tasks) > 1:
            with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
                results = list(pool.map(_reconstruct_patches, tasks))
        else:
            results = [_reconstruct_patches(tasks[0])]
        estimates = np.concatenate([est for est, _ in results])
        n_unconverged = int(sum(np.sum(~ok) for _, ok in results))
        recon = reassemble(estimates, grid)
        err = rrmse(scaled, recon)
        display = recon * (img.sum() / intensity)
        exp10 = int(round(math.log10(intensity)))
        out_path = out_dir / f"recon_I1e{exp10}.pgm"
        write_pgm(out_path, display)
        cells.append({
            "intensity": intensity,
            "rrmse": err,
            "n_patches": grid.n_patches,
            "n_unconverged": n_unconverged,
            "out_image": str(out_path),
        })
    return {
        "kind": "image",
        "master_seed": master,
        "library_version": LIBRARY_VERSION,
        "image": str(image_path),
        "patch": spec.patch,
        "stride": spec.stride,
        "n_measurements": spec.n_measurements,
        "solver": spec.solver,
        "wall_clock_s": time.perf_counter() - t0,
        "cells": cells,
    }
