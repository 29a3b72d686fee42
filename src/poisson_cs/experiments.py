"""Seeded experiment harness: sweeps, statistics verification, image runs.

One table, ``_KINDS``, gives each kind of run the grid axes it walks and
the spec fields it reads, and ``_UNREAD`` those each estimator does not;
the spec, the one gate of a run, checks against them when it is built.
Each run returns a plain dict, its report, which opens with one header that
echoes the whole spec and which ``write_report`` writes as JSON.

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
import os
import time
from collections import deque
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__ as LIBRARY_VERSION
from .errors import InvalidParamError, check_integer, check_nonneg, check_positive
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
    EPSILON_MODES,
    KS_MIN_SAMPLES,
    _shared_blocks,
    choose_epsilon,
    concentration_bounds,
    ks_gaussian_test,
    monte_carlo_sqjsd,
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
    "read_config",
    "make_sparse_signal",
    "run_sweep",
    "run_verify_stats",
    "run_image_recon",
    "make_test_image",
    "write_sweep_csv",
    "write_report",
    "LIBRARY_VERSION",
]

_STREAM_SIGNAL = 0
_STREAM_PHI = 1
_STREAM_Y = 2
_STREAM_PILOT = 3
_STREAM_STATS = 4

_SOLVER_FITS = {"P4": FitKind.JSD, "P5": FitKind.SNLL, "P6": FitKind.GEN_KL}
# The estimators a spec may name: the constrained P2 and the penalized fits.
SOLVERS = ("P2", *_SOLVER_FITS)

# Omniscient-lambda grid, relative to the gradient scale at the start point.
# The floor stays above the near-unregularized regime where first-order
# iterations crawl without improving the reconstruction.  The grid does not
# bracket the pick: on the canonical basis most walks pick the floor itself
# (65 of 90 walks of desk P4 intensity sweeps and 88 of 90 of measurements
# sweeps, seeds 1-3, 10 trials), as do 33 of the 108 patch walks of the
# image-p4 benchmark's seed-0 problems, all at I = 1e8.  Its patches at
# I = 1e4 pick the 3rd-5th of the 10 points, counted from the top.
_LAMBDA_GRID_LO = 1e-4
_LAMBDA_GRID_HI = 0.3
# A lambda walk stops once its error has not fallen for this many solves in
# a row.  Past its best a walk's error climbs, and its last solves, at the
# least lambda, are its longest.  A patience of two moved the picks of some
# measured walks; three moved none (the table in CHANGES.md).
_WALK_PATIENCE = 3


# The ExperimentSpec fields that count something, each at least 1.
_COUNT_FIELDS = ("trials", "workers", "dim", "n_measurements", "sparsity", "patch", "stride",
                 "max_iters", "lambda_points")


class _Axis(NamedTuple):
    """A grid axis: its key, desk and paper values, and the cell it sets."""

    key: str
    desk: tuple
    paper: tuple
    cell: str | None = None

    def value(self, v):
        """A grid value, checked: an intensity finite and > 0, a count >= 1."""
        if self.key == "intensity":
            check_positive("grid intensity", v)
            return float(v)
        check_integer(f"grid {self.key}", v, 1)
        return int(v)


# The spec fields a sweep reads, besides the one its axis walks, which
# ``_cells`` sets per cell.
_SWEEP_READS = ("master_seed", "trials", "solver", "lambda_mode", "lambda_value",
                "lambda_points", "epsilon_mode", "beta", "dim", "n_measurements", "sparsity",
                "intensity", "max_iters", "workers")


def _sweep(axis: _Axis) -> tuple:
    """A sweep kind's entry in ``_KINDS``: its one axis and its reads."""
    return (axis,), tuple(name for name in _SWEEP_READS if name != axis.key)


# Every kind of run: the grid axes it walks and the spec fields it reads, kind
# and grid aside.  A sweep kind walks one axis, which sets a cell parameter;
# ``--paper-scale`` swaps in the paper values.  An image reads no epsilon_mode:
# its patches take the theory radius, as a percentile one is an oracle.
_KINDS = {
    "intensity": _sweep(_Axis("intensity", (1e4, 1e6, 1e8),
                              (1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10), "intensity")),
    "measurements": _sweep(_Axis("n_measurements", (20, 50, 100), (10, 20, 50, 100, 200),
                                 "N")),
    "sparsity": _sweep(_Axis("sparsity", (2, 5, 10), (2, 5, 10, 15, 20), "s")),
    "verify-stats": ((_Axis("n_measurements", (50, 100, 500), (10, 25, 50, 100, 200, 400, 500)),
                      _Axis("intensity", (1e3, 1e4, 1e6), (1e2, 1e3, 1e4, 1e6, 1e8))),
                     ("master_seed", "trials")),
    "image": ((_Axis("intensity", (1e4, 1e8), (1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10)),),
              ("master_seed", "solver", "lambda_mode", "lambda_value", "lambda_points", "beta",
               "n_measurements", "patch", "stride", "image_size", "max_iters", "workers")),
}
# The kinds of sweep that ``run_sweep`` walks.
SWEEP_KINDS = tuple(kind for kind, (axes, _) in _KINDS.items() if axes[0].cell)
# The fields an estimator does not read, by the spec value that names it: P2
# takes a radius, a penalized fit a lambda, walked or fixed.
_UNREAD = {
    ("solver", "P2"): ("lambda_mode", "lambda_value", "lambda_points"),
    **{("solver", solver): ("epsilon_mode",) for solver in _SOLVER_FITS},
    ("lambda_mode", "omniscient"): ("lambda_value",),
    ("lambda_mode", "fixed"): ("lambda_points",),
}


@dataclass
class ExperimentSpec:
    """Declarative description of one experiment run.  A grid axis left out
    takes its desk values; a grid key the kind does not walk is refused, and
    so is a field its kind or estimator does not read, unless at its default."""

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
            check_integer(name, getattr(self, name), 1)
        if self.image_size is not None:
            check_integer("image_size", self.image_size, 1)
        # SeedSequence takes non-negative entropy only.
        check_integer("master_seed", self.master_seed, 0)
        desk = default_grid(self.kind)  # refuses an unknown kind
        for name, modes in (("solver", SOLVERS), ("lambda_mode", ("omniscient", "fixed")),
                            ("epsilon_mode", EPSILON_MODES)):
            if getattr(self, name) not in modes:
                raise InvalidParamError(f"unknown {name} {getattr(self, name)!r}")
        if self.lambda_mode == "fixed":
            check_positive("lambda_value (fixed lambda_mode)", self.lambda_value)
        check_positive("intensity", self.intensity)
        check_nonneg("beta", self.beta)
        if not isinstance(self.grid, Mapping):
            raise InvalidParamError(f"grid must be a mapping of axis names to values, "
                                    f"got {type(self.grid).__name__}")
        unwalked = sorted(map(str, set(self.grid) - set(desk)))
        if unwalked:
            walked = " and ".join(f"grid {key}" for key in desk)
            raise InvalidParamError(f"kind {self.kind!r} walks {walked} only, "
                                    f"not grid {', '.join(unwalked)}")
        self.grid = {key: self.grid.get(key, values) for key, values in desk.items()}
        axes, reads = _KINDS[self.kind]
        for axis in axes:
            values = self.grid[axis.key]
            if not isinstance(values, (list, tuple)) or not values:
                raise InvalidParamError(f"kind {self.kind!r} needs a non-empty list "
                                        f"grid {axis.key}, got {values!r}")
            for value in values:
                axis.value(value)
        if self.kind in SWEEP_KINDS:
            # The sweep's own sparsity: its grid on a sparsity sweep.
            name = "grid sparsity" if self.kind == "sparsity" else "sparsity"
            for cell in _cells(self):
                if cell["s"] > cell["m"]:
                    raise InvalidParamError(f"{name} {cell['s']} exceeds dim {cell['m']}")
        if self.kind == "image":
            _refuse_shared("intensity", self.grid["intensity"], _pgm_name,
                           "would both be written to {}")
        if self.kind == "verify-stats":
            # The KS test takes no fewer samples.  A cell's streams are keyed
            # by (N, level), and a level below 0 is no key.
            check_integer("trials", self.trials, KS_MIN_SAMPLES)
            _refuse_shared("n_measurements", self.grid["n_measurements"], int,
                           "share their random streams")
            if min(self.grid["intensity"]) < 1.0:
                raise InvalidParamError(f"grid intensity must be >= 1, "
                                        f"got {min(self.grid['intensity'])!r}")
            _refuse_shared("intensity", self.grid["intensity"], _stream_level,
                           "share the quarter-decade level {}, and with it their random streams")
        # Each field set away from its default that the kind, or else its
        # estimator, does not read is named in one error, after what does not.
        given = {f.name: f"{f.name} {getattr(self, f.name)!r}" for f in fields(self)
                 if f.name not in ("kind", "grid") and getattr(self, f.name) != f.default}
        reads = set(reads)
        owners = {f"kind {self.kind!r}": set(given) - reads}
        for name in ("solver", "lambda_mode"):
            if name in reads:
                value = getattr(self, name)
                owners[f"{name} {value!r}"] = unread = reads & set(_UNREAD[name, value])
                reads -= unread
        clauses = [f"{owner} does not read " + ", ".join(text for name, text in given.items()
                                                        if name in names)
                   for owner, names in owners.items() if names & set(given)]
        if clauses:
            raise InvalidParamError("; ".join(clauses))

    @classmethod
    def from_dict(cls, config) -> "ExperimentSpec":
        """The spec of a config mapping; unknown keys are rejected by name."""
        if not isinstance(config, Mapping):
            raise InvalidParamError(f"an ExperimentSpec config must be a mapping of field "
                                    f"names, got {type(config).__name__}")
        unknown = sorted(set(config) - {f.name for f in fields(cls)})
        if unknown:
            raise InvalidParamError(f"unknown ExperimentSpec field(s): {', '.join(unknown)}")
        return cls(**config)

    def to_dict(self) -> dict:
        return asdict(self)


def read_config(path, name: str = "config") -> dict:
    """The JSON object of spec fields in file ``path``; invalid JSON or any
    other JSON value raises ``InvalidParamError`` naming ``name`` and the file."""
    with open(path) as f:
        try:
            config = json.load(f)
        except json.JSONDecodeError as exc:
            raise InvalidParamError(f"{name} {path}: not valid JSON ({exc})") from None
    if not isinstance(config, dict):
        raise InvalidParamError(f"{name} {path}: expected a JSON object of "
                                f"ExperimentSpec fields, got {type(config).__name__}")
    return config


def default_grid(kind: str, paper_scale: bool = False) -> dict:
    """Desk-scale grids by default; --paper-scale restores full settings."""
    if not isinstance(kind, str) or kind not in _KINDS:
        raise InvalidParamError(f"unknown experiment kind {kind!r}")
    return {axis.key: list(axis.paper if paper_scale else axis.desk) for axis in _KINDS[kind][0]}


def make_sparse_signal(m: int, s: int, intensity: float, rng) -> np.ndarray:
    """s-sparse non-negative signal with total intensity ||x||_1 = intensity."""
    if not (1 <= s <= m):
        raise InvalidParamError(f"sparsity {s} out of range for dim {m}")
    support = rng.choice(m, size=s, replace=False)
    x = np.zeros(m)
    x[support] = rng.uniform(0.5, 1.5, size=s)
    return x * (intensity / x.sum())


def _refuse_shared(key: str, values, share, shared: str) -> None:
    """Refuse two grid ``key`` values with one ``share``; ``shared`` names what they share."""
    seen: dict = {}
    for value in values:
        k = share(value)
        if k in seen:
            raise InvalidParamError(f"grid {key} {seen[k]!r} and {value!r} {shared.format(k)}")
        seen[k] = value


def _stream_level(intensity) -> int:
    """The level ``int(4 log10 I)`` that keys a verify-stats cell's streams."""
    return int(math.log10(intensity) * 4)


def _pgm_name(intensity) -> str:
    """The reconstruction file of an image run at ``intensity``, by its power of ten."""
    return f"recon_I1e{int(round(math.log10(intensity)))}.pgm"


def _cells(spec: ExperimentSpec) -> list[dict]:
    if spec.kind not in SWEEP_KINDS:
        raise InvalidParamError(f"run_sweep cannot handle kind {spec.kind!r}")
    (axis,), _ = _KINDS[spec.kind]
    base = {"m": spec.dim, "N": spec.n_measurements, "s": spec.sparsity,
            "intensity": spec.intensity}
    return [{**base, axis.cell: axis.value(v)} for v in spec.grid[axis.key]]


def _lambda_grid(scale: float, spec: ExperimentSpec) -> np.ndarray:
    return scale * np.geomspace(_LAMBDA_GRID_LO, _LAMBDA_GRID_HI, spec.lambda_points)


def _lambda_walk(basis, grid, reference):
    """The omniscient pick of one problem, as a chain of ``solve_chains``.

    Oracle selection (the true signal is consulted), used only to benchmark
    against protocols that picked the regularizer omnisciently.  Walks the
    lambda grid from the sparsest end down, each solve warm-started from the
    previous one (from the default start after an all-zero solution).  The
    walk stops once ``_WALK_PATIENCE`` solves in a row each come no closer
    in l2 to the reference than the solve before them (an equal distance is
    no closer), or at the end of the grid, and returns the closest solve it
    made, the first of equals.  That is the whole grid's pick unless the
    error, after that many solves in a row without a fall, would have fallen
    below its best further down the grid.
    """
    warm = best = None
    last, rising = math.inf, 0
    for lam in sorted((float(lam) for lam in grid), reverse=True):
        res = yield lam, warm
        warm = res.theta_star if np.any(res.theta_star != 0.0) else None
        err = float(np.linalg.norm(basis.synthesize(res.theta_star) - reference))
        if best is None or err < best[0]:
            best = (err, res)
        rising = rising + 1 if err >= last else 0
        if rising == _WALK_PATIENCE:
            break
        last = err
    return best[1]


def _estimate(spec: ExperimentSpec, A, basis, ys, epsilons, references) -> list:
    """The estimator ``spec`` names, on every problem of a batch at once.

    ``A`` and ``ys`` hold one operator and count vector per problem;
    ``epsilons`` are the P2 radii and ``references`` the true signals that
    omniscient lambda picks by.  Returns one SolveResult per problem; its
    ``lambda_used`` is the weight the estimate was solved with.
    """
    cfg = SolverConfig(max_iters=spec.max_iters)
    if spec.solver == "P2":
        return solve_p2_batch(A, basis, ys, epsilons, cfg, beta=spec.beta)
    fit = FitTerm(_SOLVER_FITS[spec.solver], spec.beta)
    if spec.lambda_mode == "fixed":
        return solve_penalized_batch(A, basis, ys, fit, [spec.lambda_value] * len(ys), cfg)
    walks = [_lambda_walk(basis, _lambda_grid(gradient_scale(a, basis, y, fit), spec), ref)
             for a, y, ref in zip(A, ys, references)]
    return solve_chains(A, basis, ys, fit, walks, cfg)


def _phi(master_seed: int, N: int, m: int, index: int):
    """The N x m sensing matrix (p = 0.5) of unit ``index``, from stream 1."""
    return build_phi(
        sample_rip_matrix(N, m, 0.5, seed=derive_seed(master_seed, _STREAM_PHI, index)))


def _run_trial(spec: ExperimentSpec, cell: dict, trial: int):
    """Set up one (cell, trial) unit of a sweep; owns all of its randomness.

    Returns the signal, the operator (canonical basis: A = Phi), the
    counts and, for P2, the constraint radius (None otherwise).  A
    percentile radius is drawn around the true signal, so it is an oracle.
    """
    m, N, s, intensity = cell["m"], cell["N"], cell["s"], cell["intensity"]
    master = spec.master_seed

    x = make_sparse_signal(m, s, intensity, derive_rng(master, _STREAM_SIGNAL, s))

    phi = _phi(master, N, m, trial)
    y = measure(phi, x, derive_seed(master, _STREAM_Y, trial))
    eps = None
    if spec.solver == "P2":
        pilot = None
        if spec.epsilon_mode == "percentile":
            pilot = monte_carlo_sqjsd(phi.rates(x), 200,
                                      derive_seed(master, _STREAM_PILOT, trial))
        eps = choose_epsilon(spec.epsilon_mode, N, pilot)
    return x, phi.entries, y, eps


def _sweep_run(args) -> list[dict]:
    """Solve a run of sweep tasks as one batch; one worker's unit of work.

    ``args`` is (spec, cells, tasks), each task a (cell index, trial) pair.
    Returns one trial record per task.
    """
    spec, cells, tasks = args
    xs, A, ys, epsilons = zip(*(_run_trial(spec, cells[ci], t) for ci, t in tasks))
    basis = identity_basis(spec.dim)
    results = _estimate(spec, A, basis, ys, epsilons, xs)
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


# The RRMSE quantiles of a sweep cell, each with its percentile.
_QUANTILES = {"min": 0, "q25": 25, "median": 50, "q75": 75, "max": 100}


def _summarize(cell: dict, records: list[dict]) -> dict:
    qs = np.percentile([r["rrmse"] for r in records], list(_QUANTILES.values()))
    return {
        "params": cell,
        "trials": len(records),
        "rrmse": dict(zip(_QUANTILES, map(float, qs))),
        "n_unconverged": sum(not r["converged"] for r in records),
        "trial_records": records,
    }


def _in_runs(work, n_items: int, workers: int, job) -> list:
    """``work(job(run))`` for ``min(workers, n_items)`` contiguous runs of
    item indices, each in its own worker process when there are several."""
    runs = np.array_split(np.arange(n_items), min(workers, n_items))
    jobs = [job(r) for r in runs]
    if len(jobs) == 1:
        return [work(jobs[0])]
    # Imported here: it loads multiprocessing, which one worker never needs.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
        return list(pool.map(work, jobs))


def run_sweep(spec: ExperimentSpec) -> dict:
    """Run every (cell, trial) of a sweep; return its manifest: the report
    header and each cell's RRMSE quantiles and trial records."""
    t0 = time.perf_counter()
    cells = _cells(spec)
    tasks = [(ci, t) for ci in range(len(cells)) for t in range(spec.trials)]

    # One contiguous run of tasks per worker, each solved as one batch.
    results = _in_runs(_sweep_run, len(tasks), spec.workers,
                       lambda run: (spec, cells, [tasks[i] for i in run]))
    records = [rec for run in results for rec in run]
    # The tasks, and so the records, run cell by cell.
    n = spec.trials
    return _report(spec, t0, [_summarize(cell, records[ci * n: (ci + 1) * n])
                              for ci, cell in enumerate(cells)])


def _report(spec: ExperimentSpec, t0: float, cells: list, **extra) -> dict:
    """A run's report: one header, which echoes the spec whole, then
    ``extra`` and the cells.  ``t0`` is the run's start on the
    ``time.perf_counter`` clock."""
    return {
        "kind": spec.kind,
        "spec": spec.to_dict(),
        "master_seed": spec.master_seed,
        "library_version": LIBRARY_VERSION,
        "seed_rule": "SeedSequence([master_seed, stream, *indices]); "
                     "streams: 0 signal, 1 phi, 2 measurements, 3 pilot, 4 stats",
        "wall_clock_s": time.perf_counter() - t0,
        **extra,
        "cells": cells,
    }


def write_report(report: dict, path) -> None:
    """Write a run's manifest or report as indented JSON."""
    with open(path, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")


def write_sweep_csv(manifest: dict, path) -> None:
    """Write a sweep manifest's cells as CSV, one row per cell, each RRMSE
    quantile at full ``repr`` precision."""
    kind, solver = manifest["spec"]["kind"], manifest["spec"]["solver"]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["kind", "solver", "m", "N", "s", "intensity", "trials",
                         *(f"rrmse_{k}" for k in _QUANTILES), "n_unconverged"])
        for cell in manifest["cells"]:
            p, q = cell["params"], cell["rrmse"]
            writer.writerow([kind, solver, p["m"], p["N"], p["s"], p["intensity"], cell["trials"],
                             *(repr(q[k]) for k in _QUANTILES),
                             cell["n_unconverged"]])


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, where the
    platform reports one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _stats_cell(spec: ExperimentSpec, m: int, intensity: float, level: int,
                rates: np.ndarray) -> dict:
    """One (N, I) cell of a verify-stats run at its rates ``Phi x``: its
    samples, bounds and KS test.  Calls no BLAS routine; its Poisson stream
    is keyed by (N, level), as its probe signal's is."""
    N = rates.size
    samples = monte_carlo_sqjsd(
        rates, spec.trials, derive_seed(spec.master_seed, _STREAM_STATS, N, level))
    bounds = concentration_bounds(rates)
    ks = ks_gaussian_test(samples.samples, alpha=0.01)
    return {
        "N": N,
        "m": m,
        "I": intensity,
        "trials": spec.trials,
        "mean": samples.mean,
        "var": samples.var,
        "p99": samples.percentile(99.0),
        "ks_statistic": ks.statistic,
        "ks_pass": ks.passed,
        "bounds": asdict(bounds),
    }


def run_verify_stats(spec: ExperimentSpec) -> dict:
    """Monte-Carlo verification of the sqjsd concentration behavior.

    The probe signal is dense uniform-positive (scaled to the cell's
    intensity) so every rate, and hence every s_i, stays strictly positive
    and the variance-bound column is meaningful in all cells.

    Each N's Phi is built once, in grid order, before any cell runs.  Right
    after it is built, this thread draws the probe signal of each cell of
    that N and makes the cell's rates ``Phi x``, once.  The cells hand those
    rates to ``monte_carlo_sqjsd`` and ``concentration_bounds``, so the
    sampling threads make no BLAS call: OpenBLAS runs a 500 x 1000 gemv on
    two threads, and its worker then busy-waits on a core that a sampling
    thread needs.  The cells are then sampled by one thread per usable CPU
    (at most one per cell): this thread and ``threads - 1`` helpers, which
    take cells off one queue, largest first, since the Poisson draws and
    ``jsd_rowwise`` run in C without the GIL.  The threads split one budget
    of counts in flight (see ``sqjsd_stats``).  Each cell draws from its own
    streams and the report lists the cells in grid order, so the report does
    not depend on the number of threads.  A cell that raises empties the
    queue, and its error propagates once the cells already started are done.
    """
    from concurrent.futures import ThreadPoolExecutor

    t0 = time.perf_counter()
    jobs = []
    for N in map(int, spec.grid["n_measurements"]):
        phi = _phi(spec.master_seed, N, 2 * N, N)
        for intensity in map(float, spec.grid["intensity"]):
            level = _stream_level(intensity)
            x = derive_rng(spec.master_seed, _STREAM_SIGNAL, N, level).uniform(
                0.5, 1.5, size=phi.dim)
            x *= intensity / x.sum()
            jobs.append((phi.dim, intensity, level, phi.rates(x)))
    # Every cell runs spec.trials trials, so its work grows with N; the sort
    # is stable, so cells of one N keep their grid order.
    todo = deque(sorted(range(len(jobs)), key=lambda k: -jobs[k][3].size))
    threads = min(_usable_cpus(), len(jobs))
    cells = [None] * len(jobs)

    def sample() -> None:
        with _shared_blocks(threads):
            while True:
                try:
                    k = todo.popleft()
                except IndexError:
                    return
                try:
                    cells[k] = _stats_cell(spec, *jobs[k])
                except BaseException:
                    todo.clear()  # no thread starts another cell
                    raise

    # This thread samples too.  glibc's malloc gives each thread an arena of
    # its own, and this thread's already holds the memory freed while Phi
    # was built; helpers alone would each grow another, which read about
    # 3 MB more peak RSS on the desk grid.
    with ThreadPoolExecutor(max(threads - 1, 1)) as pool:
        helpers = [pool.submit(sample) for _ in range(threads - 1)]
        sample()
        for helper in helpers:
            helper.result()
    return _report(spec, t0, cells)


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

    Returns the effective operator A = Phi @ Psi and the counts.
    """
    phi = _phi(spec.master_seed, spec.n_measurements, psi.shape[0], k)
    return phi.entries @ psi, measure(phi, patch, derive_seed(spec.master_seed, _STREAM_Y, k))


def _reconstruct_patches(args):
    """Reconstruct a run of consecutive patches; one worker's unit of work.

    ``args`` is (spec, patches, index of the first patch, Psi).  All lit
    patches of the run are solved together as one batch.  Returns the
    estimates and a per-patch converged flag.
    """
    spec, patches, first, psi = args
    basis = dct2_basis(spec.patch)
    estimates = np.zeros_like(patches)
    converged = np.ones(len(patches), dtype=bool)
    lit = [j for j in range(len(patches)) if patches[j].sum() > 0.0]  # dark: nothing measurable
    if not lit:
        return estimates, converged
    A, ys = zip(*(_patch_task(spec, patches[j], first + j, psi) for j in lit))
    epsilons = [choose_epsilon("theory", spec.n_measurements)] * len(lit)
    results = _estimate(spec, A, basis, ys, epsilons, patches[lit])
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
    img = read_pgm(image_path)
    if spec.image_size is not None:
        img = img[: spec.image_size, : spec.image_size]
    if float(img.sum()) <= 0.0:
        raise InvalidParamError("zero image: reconstruction error undefined")
    grid = PatchGrid(*img.shape, patch=spec.patch, stride=spec.stride)
    # Made only once the input and its patch grid are checked, so a refused
    # image leaves none.
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    psi = dct2_basis(spec.patch).matrix()

    cells = []
    for intensity in [float(v) for v in spec.grid["intensity"]]:
        scaled = img * (intensity / img.sum())
        patches = extract_patches(scaled, grid)
        # One contiguous run of patches per worker, each solved as a batch.
        results = _in_runs(_reconstruct_patches, grid.n_patches, spec.workers,
                           lambda run: (spec, patches[run[0]: run[-1] + 1],
                                        int(run[0]), psi))
        estimates = np.concatenate([est for est, _ in results])
        n_unconverged = int(sum(np.sum(~ok) for _, ok in results))
        recon = reassemble(estimates, grid)
        err = rrmse(scaled, recon)
        display = recon * (img.sum() / intensity)
        out_path = out_dir / _pgm_name(intensity)
        write_pgm(out_path, display)
        cells.append({
            "intensity": intensity,
            "rrmse": err,
            "n_patches": grid.n_patches,
            "n_unconverged": n_unconverged,
            "out_image": str(out_path),
        })
    return _report(spec, t0, cells, image=str(image_path))
