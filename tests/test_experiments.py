"""Tests for the experiment harness and the command-line interface."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import poisson_cs
from poisson_cs import experiments
from poisson_cs.cli import main
from poisson_cs.errors import InvalidParamError
from poisson_cs.experiments import (
    ExperimentSpec,
    default_grid,
    make_sparse_signal,
    make_test_image,
    run_image_recon,
    run_sweep,
    run_verify_stats,
    sweep_csv_rows,
    write_sweep_csv,
)
from poisson_cs.solvers import solve_p2
from poisson_cs.transforms import read_pgm, write_pgm


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


def trial_records(manifest):
    return [c["trial_records"] for c in manifest.cells]


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

    def test_integer_fields_accept_numpy_integers(self):
        spec = ExperimentSpec(kind="image", trials=np.int64(2), dim=np.int32(40),
                              master_seed=np.int64(0), image_size=None)
        assert (spec.trials, spec.dim, spec.image_size) == (2, 40, None)

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
            ExperimentSpec.from_json(path)
        with pytest.raises(InvalidParamError, match="n_measurement"):
            main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")])


class TestRunSweep:
    def test_manifest_structure(self):
        man = run_sweep(tiny_sweep_spec())
        assert len(man.cells) == 2
        for cell in man.cells:
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
        da, db = dataclasses.asdict(a), dataclasses.asdict(b)
        da.pop("wall_clock_s")
        db.pop("wall_clock_s")
        assert da == db

    def test_seed_changes_results(self):
        a = run_sweep(tiny_sweep_spec())
        b = run_sweep(tiny_sweep_spec(master_seed=8))
        assert sweep_csv_rows(a) != sweep_csv_rows(b)

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
        rec = man.cells[0]["trial_records"][0]
        assert rec["constraint_residual"] is not None
        assert "epsilon" in rec
        # The whole radius search is counted, not only its chosen solve.
        assert rec["n_solves"] >= 2
        assert rec["total_iterations"] >= rec["iterations"]

    def test_manifest_carries_the_package_version(self, tmp_path):
        man = run_sweep(tiny_sweep_spec(trials=1, grid={"intensity": [1e4]}))
        man.to_json(tmp_path / "manifest.json")
        written = json.loads((tmp_path / "manifest.json").read_text())
        assert written["library_version"] == poisson_cs.__version__

    def test_fixed_lambda_mode(self):
        man = run_sweep(
            tiny_sweep_spec(lambda_mode="fixed", lambda_value=1e-3, trials=2)
        )
        for cell in man.cells:
            for rec in cell["trial_records"]:
                assert rec["lambda_used"] == 1e-3

    def test_p2_percentile_epsilon_mode(self):
        man = run_sweep(
            tiny_sweep_spec(solver="P2", epsilon_mode="percentile", trials=2)
        )
        for cell in man.cells:
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

    @pytest.mark.parametrize("grid, trials, field", [
        ({"n_measurements": [20], "intensity": [1e3]}, 29, "trials"),
        ({"n_measurements": [20], "intensity": [1e3, 0.5]}, 100, "grid intensity"),
        ({"n_measurements": [20], "intensity": [2e3, 3e3]}, 100, "grid intensity"),
        ({"n_measurements": [20, 0], "intensity": [1e3]}, 100, "grid n_measurements"),
        ({"n_measurements": [20, 2.5], "intensity": [1e3]}, 100, "grid n_measurements"),
        ({"n_measurements": [20, 20], "intensity": [1e3]}, 100, "grid n_measurements"),
    ])
    def test_bad_grid_rejected_before_any_cell(self, grid, trials, field, monkeypatch):
        # These used to fail only after cells had run, truncate N to an
        # integer, or (two intensities in one quarter-decade) give both cells
        # one random stream.
        monkeypatch.setattr(experiments, "sample_rip_matrix", None)
        spec = ExperimentSpec(kind="verify-stats", grid=grid, trials=trials)
        with pytest.raises(InvalidParamError, match=field):
            run_verify_stats(spec)

    @pytest.mark.parametrize("paper_scale", [False, True])
    def test_default_grids_keep_their_stream_levels(self, paper_scale):
        spec = ExperimentSpec(kind="verify-stats",
                              grid=default_grid("verify-stats", paper_scale), trials=30)
        _, grid_I = experiments._verify_stats_grid(spec)
        assert [level for _, level in grid_I] == \
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
        spec = ExperimentSpec(
            kind="image", grid={"intensity": [3e3, 1e6]}, solver="P5", beta=0.1,
            lambda_mode=lambda_mode, lambda_value=0.05, n_measurements=20, patch=7,
            stride=3, image_size=16, master_seed=3, lambda_points=4, max_iters=300,
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
