"""Tests for the experiment harness and the command-line interface."""

import dataclasses
import json
import re
import threading
from pathlib import Path

import numpy as np
import pytest

import poisson_cs
from poisson_cs import cli, experiments
from poisson_cs.cli import main
from poisson_cs.errors import InvalidParamError
from poisson_cs.sensing import SensingMatrix, build_phi, sample_rip_matrix
from poisson_cs.simulate import derive_rng, derive_seed
from poisson_cs.sqjsd_stats import concentration_bounds, ks_gaussian_test, monte_carlo_sqjsd
from poisson_cs.experiments import (
    ExperimentSpec,
    default_grid,
    make_sparse_signal,
    make_test_image,
    read_config,
    run_image_recon,
    run_sweep,
    run_verify_stats,
    write_report,
    write_sweep_csv,
)
from poisson_cs.solvers import (
    FitTerm,
    SolveResult,
    SolverConfig,
    gradient_scale,
    rrmse,
    solve_chains,
    solve_p2,
)
from poisson_cs.transforms import (
    PatchGrid,
    dct2_basis,
    extract_patches,
    identity_basis,
    read_pgm,
    write_pgm,
)


def tiny_sweep_spec(**over):
    fields = dict(
        kind="intensity",
        grid={"intensity": [1e4, 1e6]},
        trials=3,
        master_seed=7,
        solver="P4",
        lambda_points=4,
        dim=40,
        n_measurements=20,
        sparsity=3,
        max_iters=400,
    )
    fields.update(over)
    if fields["kind"] == "measurements":
        del fields["n_measurements"]  # the field its axis walks, which it refuses
    if fields["solver"] == "P2" or fields.get("lambda_mode") == "fixed":
        del fields["lambda_points"]  # read by an omniscient lambda walk only
    return ExperimentSpec(**fields)


def one_at_a_time(monkeypatch):
    """Make the harness solve every problem of a batch on its own.

    Returns the names of the batch entry points the harness went through, so
    that a caller can check that its path was replaced.
    """
    used = []
    run_chains = experiments.solve_chains
    batch = experiments.solve_penalized_batch

    def chains(A, basis, ys, fit, chains, cfg):
        used.append("solve_chains")
        return [run_chains(A[k:k + 1], basis, ys[k:k + 1], fit, chains[k:k + 1], cfg)[0]
                for k in range(len(ys))]

    def penalized(A, basis, ys, fit, lams, cfg, theta0=None):
        used.append("solve_penalized_batch")
        theta0 = theta0 or [None] * len(ys)
        return [batch(A[k:k + 1], basis, ys[k:k + 1], fit, lams[k:k + 1], cfg,
                      theta0[k:k + 1])[0]
                for k in range(len(ys))]

    def p2(A, basis, ys, epsilons, cfg, beta):
        used.append("solve_p2_batch")
        return [solve_p2(A[k], basis, ys[k], epsilons[k], cfg, beta=beta)
                for k in range(len(ys))]

    monkeypatch.setattr(experiments, "solve_chains", chains)
    monkeypatch.setattr(experiments, "solve_penalized_batch", penalized)
    monkeypatch.setattr(experiments, "solve_p2_batch", p2)
    return used


# The spec fields each kind of run reads, kind and grid aside, and those of
# them each estimator does not read, written out here rather than taken from
# the tables the library keeps.
SWEEP_READS = {"master_seed", "trials", "solver", "lambda_mode", "lambda_value",
               "lambda_points", "epsilon_mode", "beta", "dim", "n_measurements", "sparsity",
               "intensity", "max_iters", "workers"}
READS = {
    "intensity": SWEEP_READS - {"intensity"},
    "measurements": SWEEP_READS - {"n_measurements"},
    "sparsity": SWEEP_READS - {"sparsity"},
    "verify-stats": {"master_seed", "trials"},
    "image": {"master_seed", "solver", "lambda_mode", "lambda_value", "lambda_points", "beta",
              "n_measurements", "patch", "stride", "image_size", "max_iters", "workers"},
}
# Of those, P2 reads no lambda field, and a penalized fit no radius and, by
# its lambda_mode, no lambda_value or no lambda_points.
UNREAD_BY = {"P2": {"lambda_mode", "lambda_value", "lambda_points"},
             "omniscient": {"epsilon_mode", "lambda_value"},
             "fixed": {"epsilon_mode", "lambda_points"}}
# The estimators, each as the config that names it: P2, and each penalized
# fit with an omniscient and a fixed lambda.
ESTIMATORS = {"P2": {"solver": "P2"}}
for _solver in ("P4", "P5", "P6"):
    ESTIMATORS[f"{_solver}-omniscient"] = {"solver": _solver}
    ESTIMATORS[f"{_solver}-fixed"] = {"solver": _solver, "lambda_mode": "fixed",
                                      "lambda_value": 0.1}
# A valid value away from its default for each of those fields.
NON_DEFAULT = {
    "trials": 40, "master_seed": 3, "solver": "P5", "lambda_mode": "fixed",
    "lambda_value": 0.01, "lambda_points": 5, "epsilon_mode": "percentile", "beta": 0.5,
    "dim": 60, "n_measurements": 30, "sparsity": 4, "intensity": 1e6, "patch": 5, "stride": 2,
    "image_size": 32, "max_iters": 300, "workers": 2,
}


def non_default(field):
    """The config that sets ``field`` away from its default: a fixed
    lambda_mode takes its lambda_value too."""
    config = {field: NON_DEFAULT[field]}
    if field == "lambda_mode":
        config["lambda_value"] = NON_DEFAULT["lambda_value"]
    return config


def cli_argv(kind, tmp_path):
    """The command that runs ``kind``, with a small input image for an image run."""
    if kind == "verify-stats":
        return ["verify-stats"]
    if kind == "image":
        src = tmp_path / "img.pgm"
        write_pgm(src, make_test_image(8, 8))
        return ["image", "--input", str(src)]
    return ["sweep", "--kind", kind]


def trial_records(manifest):
    return [c["trial_records"] for c in manifest["cells"]]


class TestSignalGenerator:
    def test_shape_and_intensity(self):
        rng = np.random.default_rng(0)
        x = make_sparse_signal(50, 5, 1e6, rng)
        assert np.count_nonzero(x) == 5
        assert x.sum() == pytest.approx(1e6)
        assert np.all(x >= 0)

    def test_magnitude_spread(self):
        rng = np.random.default_rng(1)
        x = make_sparse_signal(50, 10, 10.0, rng)
        nz = x[x > 0]
        assert nz.max() / nz.min() <= 3.0  # uniform(0.5, 1.5) ratio bound

    def test_sparsity_validated(self):
        rng = np.random.default_rng(2)
        with pytest.raises(InvalidParamError):
            make_sparse_signal(5, 9, 1.0, rng)


class TestSpec:
    def test_defaults_fill_grid(self):
        spec = ExperimentSpec(kind="sparsity", grid={})
        assert spec.grid == default_grid("sparsity")

    def test_paper_scale_grids_are_larger(self):
        for kind in ("intensity", "measurements", "sparsity", "verify-stats", "image"):
            desk = default_grid(kind, paper_scale=False)
            paper = default_grid(kind, paper_scale=True)
            key = next(iter(desk))
            assert len(paper[key]) > len(desk[key])

    def test_validation(self):
        with pytest.raises(InvalidParamError):
            ExperimentSpec(kind="intensity", trials=0)
        with pytest.raises(InvalidParamError):
            ExperimentSpec(kind="intensity", solver="P9")
        with pytest.raises(InvalidParamError):
            ExperimentSpec(kind="intensity", lambda_mode="fixed")

    def test_unknown_epsilon_mode_rejected(self):
        with pytest.raises(InvalidParamError, match="epsilon_mode"):
            ExperimentSpec(kind="intensity", epsilon_mode="bogus")

    @pytest.mark.parametrize("where", ["field", "grid"])
    def test_nan_intensity_rejected(self, where):
        over = ({"intensity": float("nan")} if where == "field"
                else {"grid": {"intensity": [1e4, float("nan")]}})
        with pytest.raises(InvalidParamError, match="intensity"):
            ExperimentSpec(kind="intensity", **over)

    def test_zero_intensity_rejected(self):
        with pytest.raises(InvalidParamError, match="intensity"):
            ExperimentSpec(kind="image", grid={"intensity": [0.0]})
        with pytest.raises(InvalidParamError, match="intensity"):
            ExperimentSpec(kind="sparsity", intensity=0.0)

    @pytest.mark.parametrize("beta", [float("nan"), float("inf"), -0.5])
    def test_bad_beta_rejected(self, beta):
        with pytest.raises(InvalidParamError, match="beta"):
            ExperimentSpec(kind="intensity", solver="P5", beta=beta)

    @pytest.mark.parametrize("max_iters", [0, -3, True])
    def test_bad_max_iters_rejected_before_any_work(self, max_iters, monkeypatch):
        # It used to raise only once every trial's signal, matrix and
        # measurement had been built.
        monkeypatch.setattr(experiments, "_run_trial", None)
        with pytest.raises(InvalidParamError, match="max_iters"):
            run_sweep(ExperimentSpec.from_dict({"kind": "intensity", "max_iters": max_iters}))

    @pytest.mark.parametrize("kind", ["intensity", "verify-stats"])
    def test_non_integer_trials_rejected(self, kind):
        # A float count used to pass the spec and fail later with a bare
        # TypeError from range() or the Poisson draw.
        with pytest.raises(InvalidParamError, match="trials"):
            ExperimentSpec(kind=kind, trials=40.5)

    @pytest.mark.parametrize("lambda_points", [0, -2, 2.5, True])
    def test_bad_lambda_points_rejected_before_any_work(self, lambda_points, monkeypatch):
        # With no lambda points an omniscient sweep used to build every
        # trial and then fail with a TypeError in the lambda walk.
        monkeypatch.setattr(experiments, "_run_trial", None)
        with pytest.raises(InvalidParamError, match="lambda_points"):
            run_sweep(ExperimentSpec.from_dict(
                {"kind": "intensity", "solver": "P4", "lambda_points": lambda_points}))

    @pytest.mark.parametrize("field, value", [
        ("trials", True), ("workers", "2"), ("workers", True),
        ("dim", 10.5), ("n_measurements", 20.5), ("sparsity", True), ("patch", 7.5),
        ("stride", True), ("image_size", 7.5), ("image_size", 0), ("master_seed", -1),
        ("master_seed", 1.5),
    ])
    def test_bad_integer_field_rejected_before_any_work(self, field, value, monkeypatch):
        # Each used to run (True trials), or fail only once cells ran, with a
        # bare ValueError or TypeError that did not name the field.
        monkeypatch.setattr(experiments, "_run_trial", None)
        with pytest.raises(InvalidParamError, match=field):
            run_sweep(ExperimentSpec.from_dict({"kind": "intensity", field: value}))

    @pytest.mark.parametrize("kind, grid, field", [
        ("measurements", {"n_measurements": [20.5, True]}, "grid n_measurements"),
        ("measurements", {"n_measurements": [20, 0]}, "grid n_measurements"),
        ("measurements", {"intensity": [1e4]}, "grid n_measurements"),
        ("sparsity", {"sparsity": [2.7]}, "grid sparsity"),
        ("sparsity", {"sparsity": [True]}, "grid sparsity"),
        ("intensity", {"intensity": [True]}, "grid intensity"),
        ("intensity", {"intensity": []}, "grid intensity"),
        ("image", {"n_measurements": [20]}, "grid intensity"),
        # A key the kind does not walk used to be ignored.
        ("intensity", {"intensity": [1e4], "n_measurements": [2.5]}, "grid intensity"),
        ("verify-stats", {"n_measurements": [20], "sparsity": [2]},
         "grid n_measurements and grid intensity"),
        # An empty axis used to run no cell and report none.
        ("verify-stats", {"intensity": []}, "grid intensity"),
        ("verify-stats", {"n_measurements": [20, 2.5]}, "grid n_measurements"),
        # An unknown kind used to be accepted.
        ("bogus", {}, "kind"),
        ("bogus", {"intensity": [1e4]}, "kind"),
    ])
    def test_bad_grid_axis_rejected_before_any_work(self, kind, grid, field):
        # Sweeps used to cast these with int() or float() unchecked, so N =
        # 20.5 ran as 20, True as 1, s = 2.7 as 2 and I = True as 1.0; a
        # missing axis failed with a bare KeyError once the run started.
        with pytest.raises(InvalidParamError, match=field):
            ExperimentSpec.from_dict({"kind": kind, "grid": grid})

    @pytest.mark.parametrize("kind, config, field", [
        ("intensity", {"sparsity": 41}, "sparsity 41 exceeds dim 40"),
        ("measurements", {"sparsity": 50}, "sparsity 50 exceeds dim 40"),
        ("sparsity", {"grid": {"sparsity": [2, 41]}}, "grid sparsity 41 exceeds dim 40"),
    ])
    def test_sparsity_above_dim_rejected_before_any_work(self, kind, config, field, tmp_path,
                                                         monkeypatch):
        # It used to surface in make_sparse_signal, once the output directory
        # existed and earlier cells (their percentile pilots, say) had run.
        monkeypatch.setattr(experiments, "_run_trial", None)
        with pytest.raises(InvalidParamError, match=f"^{field}$"):
            ExperimentSpec.from_dict({"kind": kind, "dim": 40, **config})
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"dim": 40, **config}))
        out = tmp_path / "out"
        with pytest.raises(InvalidParamError, match=field):
            main(["sweep", "--kind", kind, "--config", str(path), "--out", str(out)])
        assert not out.exists()
        # The field is not read by a sparsity sweep, which walks its grid, nor
        # by a run that draws no sparse signal, so each refuses it.
        for unread, fields in [("sparsity", "sparsity 41"), ("image", "dim 40, sparsity 41"),
                               ("verify-stats", "dim 40, sparsity 41")]:
            with pytest.raises(InvalidParamError,
                               match=f"^kind '{unread}' does not read {fields}$"):
                ExperimentSpec(kind=unread, dim=40, sparsity=41,
                               trials=30 if unread == "verify-stats" else 10)

    def test_image_intensities_sharing_a_pgm_rejected(self, tmp_path):
        # Both used to be written to recon_I1e4.pgm, the first one lost, with
        # exit code 0.
        with pytest.raises(InvalidParamError,
                           match=r"^grid intensity 10000\.0 and 30000\.0 .*recon_I1e4\.pgm"):
            ExperimentSpec(kind="image", grid={"intensity": [1e4, 3e4]})
        src, out = tmp_path / "img.pgm", tmp_path / "out"
        write_pgm(src, make_test_image(8, 8))
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"grid": {"intensity": [1e4, 1e8, 3e4]}}))
        with pytest.raises(InvalidParamError, match=r"grid intensity 10000\.0 and 30000\.0"):
            main(["image", "--input", str(src), "--config", str(path), "--out", str(out)])
        assert not out.exists()
        # Powers of ten keep their names, and the paper grid writes one file each.
        names = [experiments._pgm_name(v) for v in default_grid("image", paper_scale=True)
                 ["intensity"]]
        assert names == [f"recon_I1e{k}.pgm" for k in range(4, 11)]
        ExperimentSpec(kind="image", grid=default_grid("image", paper_scale=True))

    def test_image_refuses_a_percentile_radius(self, tmp_path):
        # Its patches took the theory radius, and a percentile config wrote
        # the same PGM with exit code 0.
        with pytest.raises(InvalidParamError,
                           match="^kind 'image' does not read epsilon_mode 'percentile'$"):
            ExperimentSpec(kind="image", epsilon_mode="percentile")
        src, out = tmp_path / "img.pgm", tmp_path / "out"
        write_pgm(src, make_test_image(8, 8))
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"epsilon_mode": "percentile"}))
        with pytest.raises(InvalidParamError, match="epsilon_mode"):
            main(["image", "--input", str(src), "--config", str(path), "--out", str(out)])
        assert not out.exists()
        assert ExperimentSpec(kind="image", epsilon_mode="theory").epsilon_mode == "theory"

    def test_missing_axis_takes_its_desk_values(self):
        # The verify-stats run used to fill the axis itself.
        spec = ExperimentSpec(kind="verify-stats", grid={"n_measurements": [30]}, trials=30)
        assert spec.grid == {"n_measurements": [30],
                             "intensity": default_grid("verify-stats")["intensity"]}

    @pytest.mark.parametrize("config", [[1], "intensity", 3, "{bad"])
    def test_non_mapping_config_rejected(self, config, tmp_path):
        # The CLI used to die in a bare TypeError from dict.update, and on
        # invalid JSON ("{bad", written to the file as raw text) in a bare
        # JSONDecodeError naming neither the flag nor the file.
        with pytest.raises(InvalidParamError, match="mapping"):
            ExperimentSpec.from_dict(config)
        with pytest.raises(InvalidParamError, match="mapping"):
            ExperimentSpec(grid=config)
        path = tmp_path / "list.json"
        path.write_text(config if config == "{bad" else json.dumps(config))
        out = tmp_path / "out"
        with pytest.raises(InvalidParamError, match=r"--config .*list\.json"):
            main(["sweep", "--config", str(path), "--out", str(out)])
        assert not out.exists()
        with pytest.raises(InvalidParamError, match=r"list\.json"):
            ExperimentSpec.from_dict(read_config(path))

    def test_integer_fields_accept_numpy_integers(self):
        spec = ExperimentSpec(kind="intensity", trials=np.int64(2), dim=np.int32(40),
                              master_seed=np.int64(0))
        image = ExperimentSpec(kind="image", master_seed=np.int64(0), image_size=None)
        assert (spec.trials, spec.dim, image.image_size) == (2, 40, None)
        spec = ExperimentSpec(kind="measurements", grid={"n_measurements": [np.int64(20)]})
        assert experiments._cells(spec)[0]["N"] == 20

    @pytest.mark.parametrize("command", ["sweep", "verify-stats"])
    def test_negative_seed_rejected_by_the_cli(self, command, tmp_path, monkeypatch):
        # It used to fail with a bare ValueError from SeedSequence.
        monkeypatch.setattr(experiments, "_run_trial", None)
        monkeypatch.setattr(experiments, "sample_rip_matrix", None)
        with pytest.raises(InvalidParamError, match="master_seed"):
            main([command, "--seed", "-1", "--out", str(tmp_path / "out")])

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"trials": 2, "n_measurement": 30}))
        with pytest.raises(InvalidParamError, match="n_measurement"):
            ExperimentSpec.from_dict(read_config(path))
        with pytest.raises(InvalidParamError, match="n_measurement"):
            main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")])

    def test_every_field_is_tried(self):
        assert set(NON_DEFAULT) == {f.name for f in dataclasses.fields(ExperimentSpec)} - {
            "kind", "grid"}
        for field, value in NON_DEFAULT.items():
            assert getattr(ExperimentSpec(), field) != value, field

    @pytest.mark.parametrize("kind", list(READS))
    @pytest.mark.parametrize("field", list(NON_DEFAULT))
    def test_a_field_the_kind_does_not_read_is_refused(self, kind, field, tmp_path,
                                                       monkeypatch):
        # Each kind used to take every field and drop the ones it ignores, and
        # each estimator still did: P2 the lambda fields, a penalized fit the
        # radius, an omniscient lambda lambda_value and a fixed one
        # lambda_points.  Each is tried with every estimator its kind reads.
        class Ran(Exception):
            pass

        def run(spec, *args):
            raise Ran(spec)

        for name in ("run_sweep", "run_verify_stats", "run_image_recon"):
            monkeypatch.setattr(cli, name, run)
        estimators = ESTIMATORS if "solver" in READS[kind] else {"P2": ESTIMATORS["P2"]}
        for estimator, named_by in estimators.items():
            config = {**named_by, **non_default(field)}
            path = tmp_path / f"{estimator}.json"
            path.write_text(json.dumps(config))
            out = tmp_path / estimator
            argv = [*cli_argv(kind, tmp_path), "--config", str(path), "--out", str(out)]
            solver, lambda_mode = config["solver"], config.get("lambda_mode", "omniscient")
            if field in READS[kind] - UNREAD_BY["P2" if solver == "P2" else lambda_mode]:
                with pytest.raises(Ran) as ran:
                    main(argv)
                assert getattr(ran.value.args[0], field) == config[field], estimator
                continue
            if field not in READS[kind]:
                owner = f"kind '{kind}'"
            elif solver == "P2" or field == "epsilon_mode":
                owner = f"solver '{solver}'"
            else:
                owner = f"lambda_mode '{lambda_mode}'"
            named = re.escape(f"{field} {config[field]!r}")
            with pytest.raises(InvalidParamError,
                               match=f"^{re.escape(owner)} does not read .*{named}"):
                main(argv)
            assert not out.exists(), estimator


class TestRunSweep:
    def test_manifest_structure(self):
        man = run_sweep(tiny_sweep_spec())
        assert list(man) == ["kind", "spec", "master_seed", "library_version", "seed_rule",
                             "wall_clock_s", "cells"]
        assert man["spec"] == tiny_sweep_spec().to_dict()
        assert len(man["cells"]) == 2
        for cell in man["cells"]:
            assert cell["trials"] == 3
            assert len(cell["trial_records"]) == 3
            q = cell["rrmse"]
            assert q["min"] <= q["q25"] <= q["median"] <= q["q75"] <= q["max"]

    def test_determinism(self, tmp_path):
        a = run_sweep(tiny_sweep_spec())
        b = run_sweep(tiny_sweep_spec())
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(a, pa)
        write_sweep_csv(b, pb)
        assert pa.read_bytes() == pb.read_bytes()
        # Manifests agree on everything except the wall-clock field.
        a.pop("wall_clock_s")
        b.pop("wall_clock_s")
        assert a == b

    def test_seed_changes_results(self, tmp_path):
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(run_sweep(tiny_sweep_spec()), pa)
        write_sweep_csv(run_sweep(tiny_sweep_spec(master_seed=8)), pb)
        assert pa.read_bytes() != pb.read_bytes()

    def test_worker_pool_matches_serial(self, tmp_path, monkeypatch):
        # Batches of the whole sweep (workers=1) and of runs of tasks
        # (workers=3) against every trial solved on its own; the cells of a
        # measurements sweep differ in N, so their operators differ in shape.
        grids = {"intensity": {"intensity": [1e4, 1e6]},
                 "measurements": {"n_measurements": [15, 25]}}
        for solver in ("P2", "P4"):
            for kind, grid in grids.items():
                spec = tiny_sweep_spec(solver=solver, kind=kind, grid=grid, trials=2)
                with monkeypatch.context() as m:
                    used = one_at_a_time(m)
                    reference = run_sweep(spec)
                # P4 sweeps are omniscient: their lambda walks are chains.
                assert used == [{"P2": "solve_p2_batch", "P4": "solve_chains"}[solver]]
                write_sweep_csv(reference, tmp_path / "ref.csv")
                for workers in (1, 3):
                    got = run_sweep(dataclasses.replace(spec, workers=workers))
                    write_sweep_csv(got, tmp_path / "got.csv")
                    case = (solver, kind, workers)
                    assert (tmp_path / "got.csv").read_bytes() == \
                        (tmp_path / "ref.csv").read_bytes(), case
                    assert trial_records(got) == trial_records(reference), case

    def test_p2_records_constraint_fields(self):
        man = run_sweep(tiny_sweep_spec(solver="P2", trials=2))
        rec = man["cells"][0]["trial_records"][0]
        assert rec["constraint_residual"] is not None
        assert "epsilon" in rec
        # The whole radius search is counted, not only its chosen solve.
        assert rec["n_solves"] >= 2
        assert rec["total_iterations"] >= rec["iterations"]

    def test_manifest_carries_the_package_version(self, tmp_path):
        man = run_sweep(tiny_sweep_spec(trials=1, grid={"intensity": [1e4]}))
        write_report(man, tmp_path / "manifest.json")
        written = json.loads((tmp_path / "manifest.json").read_text())
        assert written["library_version"] == poisson_cs.__version__

    def test_fixed_lambda_mode(self):
        man = run_sweep(
            tiny_sweep_spec(lambda_mode="fixed", lambda_value=1e-3, trials=2)
        )
        for cell in man["cells"]:
            for rec in cell["trial_records"]:
                assert rec["lambda_used"] == 1e-3

    def test_p2_percentile_epsilon_mode(self):
        man = run_sweep(
            tiny_sweep_spec(solver="P2", epsilon_mode="percentile", trials=2)
        )
        for cell in man["cells"]:
            for rec in cell["trial_records"]:
                # Pilot-estimated radius: positive and O(sqrt(N)).
                assert 0.0 < rec["epsilon"] < 10.0 * np.sqrt(20)
                assert rec["rrmse"] < 1.0


class TestVerifyStats:
    def test_report_fields_and_bounds(self):
        spec = ExperimentSpec(
            kind="verify-stats",
            grid={"n_measurements": [30, 60], "intensity": [1e3, 1e5]},
            trials=200,
            master_seed=3,
        )
        report = run_verify_stats(spec)
        assert len(report["cells"]) == 4
        for cell in report["cells"]:
            assert cell["m"] == 2 * cell["N"]
            assert cell["mean"] <= cell["bounds"]["mean_bound"]
            assert cell["p99"] > cell["mean"]
            assert isinstance(cell["ks_pass"], bool)
            assert cell["bounds"]["s_min"] > 0

    def test_mean_scales_like_sqrt_n(self):
        spec = ExperimentSpec(
            kind="verify-stats",
            grid={"n_measurements": [25, 50, 100, 200], "intensity": [1e6]},
            trials=400,
            master_seed=4,
        )
        cells = run_verify_stats(spec)["cells"]
        slope = np.polyfit(
            np.log([c["N"] for c in cells]), np.log([c["mean"] for c in cells]), 1
        )[0]
        assert 0.40 <= slope <= 0.55

    def test_phi_built_once_per_n(self, monkeypatch):
        # Phi's seed depends on N alone, so every intensity of one N shares it.
        calls = []
        build = experiments.build_phi
        monkeypatch.setattr(experiments, "build_phi",
                            lambda matrix: calls.append(matrix.entries.shape) or build(matrix))
        spec = ExperimentSpec(
            kind="verify-stats",
            grid={"n_measurements": [20, 40], "intensity": [1e2, 1e3, 1e4]},
            trials=30,
        )
        assert len(run_verify_stats(spec)["cells"]) == 6
        assert calls == [(20, 40), (40, 80)]

    def test_report_does_not_depend_on_the_thread_count(self, monkeypatch):
        grid = {"n_measurements": [20, 80, 40], "intensity": [1e2, 1e4]}
        spec = ExperimentSpec(kind="verify-stats", grid=grid, trials=60, master_seed=5)
        shares, sampled = [], []
        share = experiments._shared_blocks
        monkeypatch.setattr(experiments, "_shared_blocks",
                            lambda threads: shares.append(threads) or share(threads))
        sample = experiments.monte_carlo_sqjsd
        monkeypatch.setattr(experiments, "monte_carlo_sqjsd",
                            lambda rates, *a: sampled.append(rates.size) or sample(rates, *a))
        reports = []
        for cpus in (1, 3):
            shares.clear()
            monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
            reports.append(json.dumps(run_verify_stats(spec)["cells"]))
            # Each thread took its share of the one count budget.
            assert shares == [cpus] * cpus
        assert reports[0] == reports[1]
        cells = json.loads(reports[0])
        assert [(c["N"], c["I"]) for c in cells] == \
            [(N, I) for N in grid["n_measurements"] for I in grid["intensity"]]
        # One thread samples the cells as submitted: the largest N first.
        assert sampled[:6] == [80, 80, 40, 40, 20, 20]

    def test_a_failing_cell_stops_the_run(self, tmp_path, monkeypatch):
        class Failed(Exception):
            pass

        drawn = []  # the sample sets, in the order they were drawn
        sample = experiments.monte_carlo_sqjsd
        monkeypatch.setattr(experiments, "monte_carlo_sqjsd",
                            lambda *args: drawn.append(sample(*args)) or drawn[-1])
        test = experiments.ks_gaussian_test

        def failing(samples, alpha):
            if samples is drawn[0].samples:
                raise Failed
            return test(samples, alpha)

        monkeypatch.setattr(experiments, "ks_gaussian_test", failing)
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps(
            {"grid": {"n_measurements": [20, 80, 40], "intensity": [1e2, 1e4]}, "trials": 60}))
        out = tmp_path / "out"
        with pytest.raises(Failed):
            main(["verify-stats", "--config", str(cfg), "--out", str(out)])
        assert not out.exists()
        # The failure emptied the queue: the other thread finished the cell it
        # held and started no more of the six.
        assert len(drawn) < 6

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_cells_equal_the_public_functions_on_the_same_streams(self, cpus, monkeypatch):
        # N = 500 gives a 500 x 1000 Phi, a gemv that OpenBLAS runs on two
        # threads; the cells sample from rates made before any sampler starts.
        seed, trials = 7, 60
        grid = {"n_measurements": [20, 500], "intensity": [1e3, 1e6]}
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
        cells = run_verify_stats(
            ExperimentSpec(kind="verify-stats", grid=grid, trials=trials, master_seed=seed))["cells"]
        expected = []
        for N in grid["n_measurements"]:
            phi = build_phi(sample_rip_matrix(
                N, 2 * N, 0.5, seed=derive_seed(seed, experiments._STREAM_PHI, N)))
            for intensity, level in zip(grid["intensity"], (12, 24)):  # int(4 log10 I)
                x = derive_rng(seed, experiments._STREAM_SIGNAL, N, level).uniform(
                    0.5, 1.5, size=2 * N)
                x *= intensity / x.sum()
                rates = phi.rates(x)
                ss = monte_carlo_sqjsd(
                    rates, trials, derive_seed(seed, experiments._STREAM_STATS, N, level))
                ks = ks_gaussian_test(ss.samples, alpha=0.01)
                expected.append({
                    "N": N, "m": 2 * N, "I": intensity, "trials": trials,
                    "mean": ss.mean, "var": ss.var, "p99": ss.percentile(99.0),
                    "ks_statistic": ks.statistic, "ks_pass": ks.passed,
                    "bounds": dataclasses.asdict(concentration_bounds(rates)),
                })
        assert cells == expected

    def test_rates_are_made_once_per_cell_on_the_calling_thread(self, monkeypatch):
        calls = []
        rates = SensingMatrix.rates

        def recorded(phi, x):
            calls.append((threading.current_thread(), phi.n_measurements, round(float(x.sum()))))
            return rates(phi, x)

        monkeypatch.setattr(SensingMatrix, "rates", recorded)
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
        grid = {"n_measurements": [20, 500], "intensity": [1e3, 1e6]}
        cells = run_verify_stats(
            ExperimentSpec(kind="verify-stats", grid=grid, trials=60))["cells"]
        assert {thread for thread, _, _ in calls} == {threading.current_thread()}
        assert sorted((N, total) for _, N, total in calls) == \
            sorted((cell["N"], cell["I"]) for cell in cells)

    @pytest.mark.parametrize("grid, trials, field", [
        ({"n_measurements": [20], "intensity": [1e3]}, 29, "trials"),
        ({"n_measurements": [20], "intensity": [1e3, 0.5]}, 100, "grid intensity"),
        ({"n_measurements": [20], "intensity": [2e3, 3e3]}, 100, "grid intensity"),
        ({"n_measurements": [20, 0], "intensity": [1e3]}, 100, "grid n_measurements"),
        ({"n_measurements": [20, 2.5], "intensity": [1e3]}, 100, "grid n_measurements"),
        ({"n_measurements": [20, 20], "intensity": [1e3]}, 100, "grid n_measurements"),
        # True is no count.
        ({"n_measurements": [True, 50], "intensity": [1e3]}, 100, "grid n_measurements"),
        # Three specs that once built and were refused only by the run.
        ({"intensity": [2e3, 3e3]}, 30, "grid intensity 2000.0 and 3000.0 share"),
        ({}, 5, "trials must be an integer >= 30, got 5"),
        ({"n_measurements": [20, 20]}, 30, "grid n_measurements 20 and 20 share"),
    ])
    def test_bad_grid_rejected_before_any_cell(self, grid, trials, field):
        # These used to fail only after cells had run, truncate N to an
        # integer, or (two intensities in one quarter-decade) give both cells
        # one random stream.  The spec refuses each of them when it is built.
        with pytest.raises(InvalidParamError, match=f"^{field}"):
            ExperimentSpec(kind="verify-stats", grid=grid, trials=trials)

    @pytest.mark.parametrize("paper_scale", [False, True])
    def test_default_grids_keep_their_stream_levels(self, paper_scale):
        grid = default_grid("verify-stats", paper_scale)
        ExperimentSpec(kind="verify-stats", grid=grid, trials=30)
        assert [experiments._stream_level(I) for I in grid["intensity"]] == \
            ([8, 12, 16, 24, 32] if paper_scale else [12, 16, 24])


class TestImageRecon:
    def test_small_run(self, tmp_path):
        img = make_test_image(16, 16)
        src = tmp_path / "img.pgm"
        write_pgm(src, img)
        spec = ExperimentSpec(
            kind="image",
            grid={"intensity": [1e6]},
            solver="P4",
            n_measurements=20,
            patch=7,
            stride=3,
            image_size=16,
            master_seed=1,
            lambda_points=4,
            max_iters=1000,
        )
        report = run_image_recon(spec, src, tmp_path / "out")
        cell = report["cells"][0]
        assert cell["n_patches"] == 16  # range(0, 10, 3) twice
        assert 0.0 <= cell["rrmse"] < 0.5
        recon = read_pgm(cell["out_image"])
        assert recon.shape == (16, 16)

    def test_zero_image_rejected(self, tmp_path):
        src = tmp_path / "zero.pgm"
        write_pgm(src, np.zeros((16, 16)))
        spec = ExperimentSpec(kind="image", grid={"intensity": [1e4]}, image_size=16)
        with pytest.raises(InvalidParamError):
            run_image_recon(spec, src, tmp_path / "out")

    def test_worker_pool_matches_serial(self, tmp_path):
        img = make_test_image(16, 16)
        src = tmp_path / "img.pgm"
        write_pgm(src, img)
        fields = dict(
            kind="image", grid={"intensity": [1e5]}, solver="P4",
            n_measurements=20, patch=7, stride=4, image_size=16,
            master_seed=2, lambda_points=3, max_iters=300,
        )
        serial = run_image_recon(ExperimentSpec(**fields), src, tmp_path / "s")
        for workers in (2, 3):
            out = tmp_path / f"p{workers}"
            pooled = run_image_recon(ExperimentSpec(**fields, workers=workers), src, out)
            assert serial["cells"][0]["rrmse"] == pooled["cells"][0]["rrmse"]
            assert (Path(serial["cells"][0]["out_image"]).read_bytes()
                    == Path(pooled["cells"][0]["out_image"]).read_bytes())

    @pytest.mark.parametrize("lambda_mode", ["omniscient", "fixed"])
    def test_batched_patches_match_one_by_one(self, tmp_path, monkeypatch, lambda_mode):
        # The lockstep path against every patch solved on its own.
        img = make_test_image(16, 16)
        src = tmp_path / "img.pgm"
        write_pgm(src, img)
        # An omniscient lambda walks lambda_points, a fixed one is lambda_value.
        estimator = ({"lambda_points": 4} if lambda_mode == "omniscient"
                     else {"lambda_value": 0.05})
        spec = ExperimentSpec(
            kind="image", grid={"intensity": [3e3, 1e6]}, solver="P5", beta=0.1,
            lambda_mode=lambda_mode, n_measurements=20, patch=7, stride=3, image_size=16,
            master_seed=3, max_iters=300, **estimator,
        )
        batched = run_image_recon(spec, src, tmp_path / "b")
        used = one_at_a_time(monkeypatch)
        single = run_image_recon(spec, src, tmp_path / "s")
        path = {"omniscient": "solve_chains", "fixed": "solve_penalized_batch"}[lambda_mode]
        assert used and set(used) == {path}
        for a, b in zip(batched["cells"], single["cells"]):
            assert (a["rrmse"], a["n_unconverged"]) == (b["rrmse"], b["n_unconverged"])
            assert Path(a["out_image"]).read_bytes() == Path(b["out_image"]).read_bytes()

    def test_p2_patches_match_one_by_one(self, tmp_path, monkeypatch):
        # The lockstep radius searches against every patch's own solve_p2.
        src = tmp_path / "img.pgm"
        write_pgm(src, make_test_image(16, 16))
        spec = ExperimentSpec(
            kind="image", grid={"intensity": [3e3, 1e6]}, solver="P2", beta=0.2,
            n_measurements=20, patch=7, stride=3, image_size=16, master_seed=4,
            max_iters=300,
        )
        batched = run_image_recon(spec, src, tmp_path / "b")
        used = one_at_a_time(monkeypatch)
        single = run_image_recon(spec, src, tmp_path / "s")
        assert used and set(used) == {"solve_p2_batch"}
        for a, b in zip(batched["cells"], single["cells"]):
            assert (a["rrmse"], a["n_unconverged"]) == (b["rrmse"], b["n_unconverged"])
            assert Path(a["out_image"]).read_bytes() == Path(b["out_image"]).read_bytes()


    def test_p2_patches_stay_near_their_signal(self, tmp_path):
        # Radius searches whose secant steps could go far above the feasible
        # end of their bracket landed, on one patch of this scene, on a
        # spurious crossing of the radius at lam ~ 12-19, where a flat-stopped
        # solve is feasible by accident: patch RRMSE 4.84 against 0.52.
        src = tmp_path / "img.pgm"
        write_pgm(src, make_test_image(16, 16))
        img = read_pgm(src)
        spec = ExperimentSpec(kind="image", grid={"intensity": [1e4]}, solver="P2",
                              image_size=16, master_seed=3)
        patches = extract_patches(img * (1e4 / img.sum()), PatchGrid(16, 16, patch=7, stride=3))
        estimates, _ = experiments._reconstruct_patches(
            (spec, patches, 0, dct2_basis(7).matrix()))
        assert max(rrmse(p, e) for p, e in zip(patches, estimates)) <= 1.0


def drive_walk(thetas, reference):
    """Run ``experiments._lambda_walk`` on a grid of ``len(thetas)`` points,
    answering its i-th solve with a ``SolveResult`` at ``thetas[i]``.

    Returns the (lam, warm start) of every solve asked for, the results sent
    and the walk's pick.
    """
    basis = identity_basis(len(reference))
    walk = experiments._lambda_walk(basis, np.geomspace(1e-3, 1.0, len(thetas)), reference)
    asked, sent = [], []
    request = next(walk)
    while True:
        asked.append(request)
        sent.append(SolveResult(np.asarray(thetas[len(sent)], dtype=float),
                                iterations=len(sent), converged=True,
                                lambda_used=request[0]))
        try:
            request = walk.send(sent[-1])
        except StopIteration as stop:
            return asked, sent, stop.value


def walk_at(errors):
    """``drive_walk`` with solve i at l2 distance ``errors[i]`` from the
    reference; returns the number of solves asked for and the pick's index."""
    asked, sent, pick = drive_walk([[e, 0.0] for e in errors], np.zeros(2))
    return len(asked), next(i for i, res in enumerate(sent) if res is pick)


class TestLambdaWalk:
    """``_lambda_walk`` on scripted solves: it stops once its error has not
    fallen for ``_WALK_PATIENCE`` solves in a row, and returns its best."""

    patience = experiments._WALK_PATIENCE

    def test_stops_patience_solves_past_its_best(self):
        errors = [5.0, 3.0, 1.0, 2.0, 4.0, 6.0, 0.5, 7.0, 8.0, 9.0]
        asked, sent, pick = drive_walk([[e, 0.0] for e in errors], np.zeros(2))
        assert self.patience == 3
        assert len(asked) == 2 + 1 + self.patience
        assert pick is sent[2]
        # From the sparsest end down, each solve warm-started from the last.
        lams = [lam for lam, _ in asked]
        assert lams == sorted(np.geomspace(1e-3, 1.0, 10), reverse=True)[:len(asked)]
        assert asked[0][1] is None
        assert all(warm is res.theta_star for (_, warm), res in zip(asked[1:], sent))

    def test_an_equal_error_is_no_fall(self):
        assert walk_at([5.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.1]) == (5, 1)
        assert walk_at([2.0, 2.0, 2.0, 2.0, 1.0]) == (4, 0)
        assert walk_at([1.0, 3.0, 2.0, 2.0, 2.0, 2.0, 0.5]) == (6, 0)

    def test_an_improvement_resets_the_count(self):
        # Closer after one worse solve, then after two, then three worse.
        errors = [9.0, 5.0, 6.0, 4.0, 7.0, 8.0, 3.0, 10.0, 11.0, 12.0, 1.0]
        assert walk_at(errors) == (10, 6)

    def test_a_fall_short_of_the_best_resets_the_count(self):
        # The error climbs, then falls for four solves while still above its
        # best, then below it: the walk goes on until three rises in a row.
        errors = [1.0, 3.0, 2.5, 2.0, 1.5, 1.2, 0.9, 1.0, 1.1, 1.2, 0.1]
        assert walk_at(errors) == (10, 6)

    def test_walks_the_whole_grid_unless_it_rises_patience_times(self):
        assert walk_at([5.0, 4.0, 3.0, 2.0, 1.0]) == (5, 4)
        assert walk_at([5.0, 6.0, 7.0, 4.0, 8.0, 9.0, 3.0]) == (7, 6)
        for n in (1, 2, 3):
            assert walk_at([1.0 + i for i in range(n)]) == (n, 0)

    def test_an_all_zero_solution_warm_starts_nothing(self):
        thetas = [[0.0, 0.0], [0.5, 1.0], [0.0, 0.0], [3.0, 1.0], [4.0, 4.0]]
        asked, sent, pick = drive_walk(thetas, np.array([0.0, 1.0]))
        assert len(asked) == 5 and pick is sent[1]
        warm = [w for _, w in asked]
        assert warm[0] is None and warm[1] is None and warm[3] is None
        assert warm[2] is sent[1].theta_star and warm[4] is sent[3].theta_star


def full_grid_walk(basis, grid, reference):
    """The lambda walk over the whole grid, which never stops early: the
    solve closest to the reference, the first of equals.  The reference for
    ``experiments._lambda_walk``."""
    warm = best = None
    for lam in sorted((float(lam) for lam in grid), reverse=True):
        res = yield lam, warm
        warm = res.theta_star if np.any(res.theta_star != 0.0) else None
        err = float(np.linalg.norm(basis.synthesize(res.theta_star) - reference))
        if best is None or err < best[0]:
            best = (err, res)
    return best[1]


def counted(walk, solves):
    """``walk``, appending each solve it asks for to ``solves``."""
    request = next(walk)
    while True:
        solves.append(request)
        try:
            request = walk.send((yield request))
        except StopIteration as stop:
            return stop.value


def assert_walks_agree(spec, basis, A, mvs, references):
    """The early-stopping walk and the full grid give every problem the same
    solve, bit for bit.  Both walks of every problem run as one stack, which
    changes no result.  Returns the solves each kind of walk asked for."""
    fit = FitTerm(experiments._SOLVER_FITS[spec.solver], spec.beta)
    grids = [experiments._lambda_grid(gradient_scale(a, basis, mv, fit), spec)
             for a, mv in zip(A, mvs)]
    early, full = [], []
    walks = ([counted(experiments._lambda_walk(basis, g, ref), early)
              for g, ref in zip(grids, references)]
             + [counted(full_grid_walk(basis, g, ref), full)
                for g, ref in zip(grids, references)])
    got = solve_chains([*A, *A], basis, [*mvs, *mvs], fit, walks,
                       SolverConfig(max_iters=spec.max_iters))
    K = len(A)
    for k, (a, b) in enumerate(zip(got[:K], got[K:])):
        assert a.theta_star.tobytes() == b.theta_star.tobytes(), k
        assert (a.iterations, a.converged, a.lambda_used) == (
            b.iterations, b.converged, b.lambda_used), k
    return len(early), len(full)


class TestEarlyStopKeepsThePick:
    """The omniscient walk's early stop against the full grid on fixed seeds.

    A solver change that moves a pick (a tighter stopping test, say) shows
    here first: the early stop then no longer reproduces the full grid.
    """

    intensities = [1e3, 1e4, 1e8]

    @pytest.mark.parametrize("solver", ["P4", "P5", "P6"])
    @pytest.mark.parametrize("beta", [0.0, 0.3])
    def test_identity_basis_trials(self, solver, beta):
        common = dict(solver=solver, beta=beta, master_seed=1)
        sweep = ExperimentSpec(kind="intensity", grid={"intensity": self.intensities}, **common)
        # Trial 8 of the paper-scale measurements sweep's N = 10 cell: at
        # I = 1e8 its walk's error climbs, falls for several solves while
        # still above its first best, then below it.
        undersampled = ExperimentSpec(kind="measurements", grid={"n_measurements": [10]},
                                      **common)
        units = ([(sweep, cell, 0) for cell in experiments._cells(sweep)]
                 + [(undersampled, experiments._cells(undersampled)[0], 8)])
        xs, A, mvs, _ = zip(*(experiments._run_trial(*unit) for unit in units))
        early, full = assert_walks_agree(sweep, identity_basis(sweep.dim), A, mvs, xs)
        assert early < full

    def test_dct_patches(self):
        img = make_test_image(16, 16)
        basis = dct2_basis(7)
        psi = basis.matrix()
        solves = np.zeros(2, dtype=int)
        for intensity in self.intensities:
            spec = ExperimentSpec(kind="image", grid={"intensity": [intensity]}, solver="P4",
                                  n_measurements=25, max_iters=800, master_seed=1)
            patches = extract_patches(img * (intensity / img.sum()),
                                      PatchGrid(16, 16, patch=7, stride=3))
            A, mvs = zip(*(experiments._patch_task(spec, patch, k, psi)
                           for k, patch in enumerate(patches)))
            solves += assert_walks_agree(spec, basis, A, mvs, patches)
        assert solves[0] < solves[1]


class TestMakeTestImage:
    def test_deterministic_and_bounded(self):
        a = make_test_image(64, 64)
        b = make_test_image(64, 64)
        assert np.array_equal(a, b)
        assert a.min() >= 0.0 and a.max() <= 255.0
        assert a.std() > 20.0  # actual structure, not a flat field


class TestCli:
    def test_sweep_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({
            "grid": {"intensity": [1e4, 1e6]},
            "trials": 2,
            "solver": "P4",
            "lambda_points": 4,
            "dim": 40,
            "n_measurements": 20,
            "sparsity": 3,
            "max_iters": 400,
        }))
        out = tmp_path / "results"
        code = main(["sweep", "--kind", "intensity", "--config", str(cfg),
                     "--out", str(out), "--seed", "5"])
        assert code == 0
        csv_text = (out / "sweep_intensity.csv").read_text()
        assert csv_text.startswith("kind,solver,m,N,s,intensity,trials,")
        assert len(csv_text.strip().splitlines()) == 3
        manifest = json.loads((out / "manifest_intensity.json").read_text())
        assert manifest["master_seed"] == 5
        assert len(manifest["cells"]) == 2

    def test_sweep_determinism_end_to_end(self, tmp_path):
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({
            "grid": {"intensity": [1e5]},
            "trials": 2,
            "solver": "P2",
            "dim": 40,
            "n_measurements": 20,
            "sparsity": 3,
            "max_iters": 400,
        }))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "sweep_intensity.csv").read_bytes() == \
            (out2 / "sweep_intensity.csv").read_bytes()

    def test_verify_stats_subcommand(self, tmp_path):
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({
            "grid": {"n_measurements": [30], "intensity": [1e4]},
            "trials": 100,
        }))
        out = tmp_path / "results"
        code = main(["verify-stats", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "verify_stats.json").read_text())
        assert report["cells"][0]["N"] == 30
        assert "mean_bound" in report["cells"][0]["bounds"]

    @pytest.mark.parametrize("command, config, field", [
        ("verify-stats", {"grid": {"intensity": [2e3, 3e3]}}, "grid intensity"),
        ("verify-stats", {"trials": 29}, "trials"),
        ("image", {}, "truncated PGM data"),
        ("image", {}, "zero image"),
        ("image", {}, "patch 7 larger than image 5x5"),
    ])
    def test_refused_run_leaves_no_out_directory(self, command, config, field, tmp_path):
        # The --out directory used to be made before the run's own checks,
        # so each of these left an empty one behind.
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        if command == "image":
            src = tmp_path / "img.pgm"
            if field == "zero image":
                write_pgm(src, np.zeros((8, 8)))
            elif field.startswith("patch"):
                write_pgm(src, make_test_image(5, 5))
            else:
                src.write_bytes(b"P5\n3 2\n255\n\x00\x01\x02\x03")
            argv += ["--input", str(src)]
        with pytest.raises(InvalidParamError, match=field):
            main(argv)
        assert not out.exists()

    @pytest.mark.parametrize("command, config, flags, refused", [
        ("verify-stats", {"epsilon_mode": "percentile", "beta": 3, "solver": "P6"}, [],
         "kind 'verify-stats' does not read solver 'P6', epsilon_mode 'percentile', beta 3"),
        ("image", {"trials": 7, "dim": 3, "sparsity": 2}, [],
         "kind 'image' does not read trials 7, dim 3, sparsity 2"),
        ("verify-stats", {}, ["--workers", "2"], "kind 'verify-stats' does not read workers 2"),
        ("image", {}, ["--trials", "7"], "kind 'image' does not read trials 7"),
    ])
    def test_unread_fields_refused_by_name(self, command, config, flags, refused, tmp_path):
        # Each of these used to run, exit 0 and write the report of the run
        # without the unread fields.
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        with pytest.raises(InvalidParamError, match=f"^{re.escape(refused)}$"):
            main([*cli_argv(command, tmp_path), "--config", str(cfg), "--out", str(out),
                  *flags])
        assert not out.exists()
        # A field at its default is accepted, given or not (verify-stats reads
        # trials, and takes no fewer than 30).
        trials = 30 if command == "verify-stats" else 10
        spec = ExperimentSpec(kind=command, workers=1, trials=trials)
        assert (spec.workers, spec.trials) == (1, trials)

    @pytest.mark.parametrize("command, config, report", [
        ("sweep", {"grid": {"intensity": [1e4]}, "trials": 2, "solver": "P2",
                   "epsilon_mode": "percentile", "dim": 30, "n_measurements": 15,
                   "max_iters": 200}, "manifest_intensity.json"),
        ("verify-stats", {"grid": {"n_measurements": [20], "intensity": [1e4]}, "trials": 40},
         "verify_stats.json"),
        ("image", {"grid": {"intensity": [1e6]}, "n_measurements": 20, "image_size": 8,
                   "lambda_points": 3, "max_iters": 200}, "image_recon.json"),
    ])
    def test_a_report_reruns_from_its_spec(self, command, config, report, tmp_path,
                                           monkeypatch):
        # Only the sweep manifest used to echo its spec, and an image report
        # lacked fields that move its numbers.  Each run is made in its own
        # directory, with the same relative --out, so the paths it reports
        # agree.
        kind = "intensity" if command == "sweep" else command
        argv = cli_argv(kind, tmp_path)
        reports = []
        for run in ("first", "again"):
            (tmp_path / run).mkdir()
            monkeypatch.chdir(tmp_path / run)
            cfg = Path("spec.json")
            cfg.write_text(json.dumps(reports[0]["spec"] if reports else config))
            assert main([*argv, "--config", str(cfg), "--out", "out", "--seed", "4"]) in (0, 2)
            reports.append(json.loads((Path("out") / report).read_text()))
        first, again = reports
        assert list(first)[:6] == ["kind", "spec", "master_seed", "library_version",
                                   "seed_rule", "wall_clock_s"]
        assert (first["kind"], first["spec"]["kind"], first["master_seed"]) == (kind, kind, 4)
        assert ExperimentSpec.from_dict(first["spec"]).to_dict() == first["spec"]
        first.pop("wall_clock_s")
        again.pop("wall_clock_s")
        assert again == first

    def test_image_subcommand(self, tmp_path):
        src = tmp_path / "img.pgm"
        write_pgm(src, make_test_image(16, 16))
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({
            "grid": {"intensity": [1e6]},
            "n_measurements": 20,
            "stride": 3,
            "image_size": 16,
            "lambda_points": 4,
            "max_iters": 1000,
        }))
        out = tmp_path / "results"
        code = main(["image", "--input", str(src), "--config", str(cfg),
                     "--out", str(out)])
        assert code == 0
        report = json.loads((out / "image_recon.json").read_text())
        assert report["cells"][0]["rrmse"] < 0.5

    @pytest.mark.parametrize("command, config, flags, field, used", [
        # The image run used to drop the config's solver for P4.
        ("image", {"solver": "P2"}, [], "solver", "P2"),
        ("image", {"solver": "P2"}, ["--solver", "P6"], "solver", "P6"),
        ("image", {}, [], "solver", "P4"),
        ("sweep", {"solver": "P5"}, [], "solver", "P5"),
        ("sweep", {"solver": "P5"}, ["--solver", "P4"], "solver", "P4"),
        ("sweep", {}, [], "solver", "P2"),
        ("verify-stats", {"trials": 50}, [], "trials", 50),
        ("verify-stats", {"trials": 50}, ["--trials", "40"], "trials", 40),
        ("verify-stats", {}, [], "trials", 1000),
        # A sweep used to run --kind's default over the config's kind.
        ("sweep", {"kind": "sparsity"}, [], "kind", "sparsity"),
        ("sweep", {"kind": "sparsity"}, ["--kind", "measurements"], "kind", "measurements"),
        ("sweep", {}, [], "kind", "intensity"),
    ])
    def test_flag_over_config_over_default(self, command, config, flags, field, used,
                                           tmp_path, monkeypatch):
        class Ran(Exception):
            pass

        def run(spec, *args):
            raise Ran(spec)

        for name in ("run_sweep", "run_verify_stats", "run_image_recon"):
            monkeypatch.setattr(cli, name, run)
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps(config))
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out"), *flags]
        if command == "image":
            argv += ["--input", str(tmp_path / "img.pgm")]
        with pytest.raises(Ran) as ran:
            main(argv)
        assert getattr(ran.value.args[0], field) == used

    @pytest.mark.parametrize("paper_scale", [False, True])
    @pytest.mark.parametrize("given, value", [("intensity", [1e4]), ("n_measurements", [30])])
    def test_an_axis_left_out_takes_the_scale_values(self, paper_scale, given, value,
                                                     tmp_path, monkeypatch):
        # --paper-scale used to reach only a config without a grid: the axis
        # a one-axis grid left out took its desk values.
        class Ran(Exception):
            pass

        def run(spec):
            raise Ran(spec)

        monkeypatch.setattr(cli, "run_verify_stats", run)
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({"grid": {given: value}}))
        argv = ["verify-stats", "--config", str(cfg), "--out", str(tmp_path / "out")]
        with pytest.raises(Ran) as ran:
            main(argv + ["--paper-scale"] * paper_scale)
        assert ran.value.args[0].grid == {**default_grid("verify-stats", paper_scale),
                                          given: value}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("paper_scale", [False, True])
    def test_an_empty_grid_takes_every_scale_axis(self, paper_scale, tmp_path, monkeypatch):
        class Ran(Exception):
            pass

        def run(spec):
            raise Ran(spec)

        monkeypatch.setattr(cli, "run_verify_stats", run)
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({"grid": {}}))
        argv = ["verify-stats", "--config", str(cfg), "--out", str(tmp_path / "out")]
        with pytest.raises(Ran) as ran:
            main(argv + ["--paper-scale"] * paper_scale)
        assert ran.value.args[0].grid == default_grid("verify-stats", paper_scale)

    # A falsy grid ([], null, 0) used to run the scale's default grid.
    @pytest.mark.parametrize("grid", [[1e4], "intensity", 3, [], None, 0])
    def test_a_grid_that_is_not_a_mapping_is_refused_by_name(self, grid, tmp_path):
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({"grid": grid}))
        out = tmp_path / "out"
        with pytest.raises(InvalidParamError, match="grid must be a mapping"):
            main(["verify-stats", "--paper-scale", "--config", str(cfg), "--out", str(out)])
        assert not out.exists()

    def test_a_sweep_runs_its_configs_kind(self, tmp_path):
        # It used to run an intensity sweep and write sweep_intensity.csv.
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({"kind": "sparsity", "trials": 2, "grid": {"sparsity": [2, 3]},
                                   "solver": "P4", "lambda_points": 3, "dim": 30,
                                   "n_measurements": 15, "max_iters": 200}))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) in (0, 2)
        assert sorted(p.name for p in out.iterdir()) == ["manifest_sparsity.json",
                                                        "sweep_sparsity.csv"]
        rows = (out / "sweep_sparsity.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:5] for row in rows] == [["sparsity", "P4", "30", "15", "2"],
                                                        ["sparsity", "P4", "30", "15", "3"]]

    @pytest.mark.parametrize("command, kind", [
        ("sweep", "image"), ("sweep", "verify-stats"), ("sweep", "bogus"),
        ("verify-stats", "image"), ("verify-stats", "intensity"),
        ("image", "verify-stats"), ("image", "sparsity"),
    ])
    def test_a_kind_the_command_does_not_run_is_refused(self, command, kind, tmp_path):
        # The command's kind used to overwrite the config's, so each of these
        # ran the command's own kind and exited 0.
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({"kind": kind}))
        out = tmp_path / "out"
        argv = ["sweep"] if command == "sweep" else cli_argv(command, tmp_path)
        with pytest.raises(InvalidParamError,
                           match=f"^{command} does not run kind {re.escape(repr(kind))}$"):
            main([*argv, "--config", str(cfg), "--out", str(out)])
        assert not out.exists()

    def test_unconverged_exit_code_two(self, tmp_path):
        # One iteration cannot converge; results must still be written.
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({
            "grid": {"intensity": [1e4]},
            "trials": 1,
            "solver": "P4",
            "lambda_points": 2,
            "dim": 40,
            "n_measurements": 20,
            "sparsity": 3,
            "max_iters": 1,
        }))
        out = tmp_path / "results"
        code = main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert (out / "sweep_intensity.csv").exists()
