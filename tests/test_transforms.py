"""Unit tests for bases, the patch pipeline, and PGM I/O."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import poisson_cs
from poisson_cs.errors import InvalidParamError, LengthMismatchError
from poisson_cs.experiments import make_test_image
from poisson_cs.transforms import (
    OrthonormalBasis,
    PatchGrid,
    _dct_table,
    dct2_basis,
    extract_patches,
    identity_basis,
    read_pgm,
    reassemble,
    write_pgm,
)


class TestBases:
    def test_identity_roundtrip(self):
        basis = identity_basis(12)
        theta = np.arange(12.0)
        assert np.array_equal(basis.synthesize(theta), theta)
        assert np.array_equal(basis.analyze(theta), theta)

    @pytest.mark.parametrize("make", [lambda: identity_basis(49), lambda: dct2_basis(7)])
    def test_mutual_inverse(self, make):
        basis = make()
        rng = np.random.default_rng(0)
        for _ in range(20):
            theta = rng.standard_normal(basis.dim)
            assert np.allclose(basis.analyze(basis.synthesize(theta)), theta, atol=1e-12)

    @pytest.mark.parametrize("make", [lambda: identity_basis(49), lambda: dct2_basis(7)])
    def test_matrix_orthonormal(self, make):
        psi = make().matrix()
        assert np.allclose(psi.T @ psi, np.eye(psi.shape[1]), atol=1e-12)

    @pytest.mark.parametrize("h, w", [(3, 3), (7, 7), (8, 8), (3, 5)])
    def test_matrix_columns_are_synthesized_unit_vectors(self, h, w):
        basis = dct2_basis(h, w)
        psi = basis.matrix()
        assert psi.flags.c_contiguous
        for j in range(basis.dim):
            e = np.zeros(basis.dim)
            e[j] = 1.0
            assert np.array_equal(psi[:, j], basis.synthesize(e))

    def test_parseval(self):
        basis = dct2_basis(7)
        rng = np.random.default_rng(1)
        theta = rng.standard_normal(49)
        assert np.linalg.norm(basis.synthesize(theta)) == pytest.approx(
            np.linalg.norm(theta), abs=1e-12
        )

    def test_constant_patch_hits_dc_only(self):
        basis = dct2_basis(7)
        theta = basis.analyze(np.full(49, 3.0))
        assert theta[0] == pytest.approx(7 * 3.0, rel=1e-12)
        assert np.max(np.abs(theta[1:])) < 1e-12

    def test_rect_patches(self):
        basis = dct2_basis(3, 5)
        rng = np.random.default_rng(2)
        theta = rng.standard_normal(15)
        assert np.allclose(basis.analyze(basis.synthesize(theta)), theta, atol=1e-12)

    def test_dim_checked(self):
        with pytest.raises(LengthMismatchError):
            dct2_basis(7).synthesize(np.ones(10))

    @pytest.mark.parametrize("dim, patch_shape, name", [
        (0, None, "dim"),
        (2.0, None, "dim"),
        (10, (3, 3), "patch_shape"),
        (9, (9,), "patch_shape"),
        (9, [3, 3], "patch_shape"),
        (0, (0, 3), "dim"),
        (9, (3.0, 3), "patch_shape"),
    ])
    def test_fields_checked(self, dim, patch_shape, name):
        with pytest.raises(InvalidParamError, match=name):
            OrthonormalBasis(dim, patch_shape)

    @pytest.mark.parametrize("make", [lambda: identity_basis(9), lambda: dct2_basis(3)])
    def test_maps_return_a_vector(self, make):
        basis = make()
        square = np.arange(9.0).reshape(3, 3)
        for out in (basis.synthesize(square), basis.analyze(square)):
            assert out.shape == (9,)
        assert np.allclose(basis.analyze(basis.synthesize(square)), square.reshape(-1))


def _naive_dct_table(n):
    k = np.arange(n).reshape(-1, 1)
    scale = np.where(k == 0, np.sqrt(1.0 / n), np.sqrt(2.0 / n))
    return scale * np.cos(np.pi * (2 * np.arange(n) + 1) * k / (2 * n))


def _gram_error(table):
    # Each entry of the Gram matrix summed exactly, so that the bound measures
    # the table, not a BLAS summation order.
    n = len(table)
    return max(abs(math.fsum(table[a] * table[b]) - (a == b))
               for a in range(n) for b in range(n))


class TestDctTable:
    def test_orthonormal(self):
        for n in range(1, 65):
            table = _dct_table(n)
            assert max(_gram_error(table), _gram_error(table.T)) <= 1e-15, n
        # The cosine of the unreduced angle misses the bound.
        assert max(_gram_error(_naive_dct_table(n)) for n in range(1, 65)) > 1e-15

    @pytest.mark.parametrize("h, w", [(1, 1), (2, 2), (3, 5), (5, 3), (7, 7), (8, 8),
                                      (16, 16), (32, 32)])
    def test_matches_scipy(self, h, w):
        from scipy.fft import dctn, idctn

        basis = dct2_basis(h, w)
        rng = np.random.default_rng(h * 100 + w)
        for _ in range(5):
            theta = rng.standard_normal((h, w))
            bound = 1e-15 * np.max(np.abs(theta))
            ref = idctn(theta, norm="ortho").reshape(-1)
            assert np.max(np.abs(basis.synthesize(theta) - ref)) <= bound
            ref = dctn(theta, norm="ortho").reshape(-1)
            assert np.max(np.abs(basis.analyze(theta) - ref)) <= bound

    def test_cached_and_read_only(self):
        table = _dct_table(7)
        assert _dct_table(7) is table
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1.0


def test_importing_the_cli_loads_numpy_only():
    # The package runs on numpy alone: neither starting the CLI nor applying a
    # DCT basis imports scipy.
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import poisson_cs.cli\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
        "from poisson_cs.transforms import dct2_basis\n"
        "basis = dct2_basis(3)\n"
        "x = basis.synthesize(np.eye(9)[0])\n"
        "assert np.allclose(x, 1.0 / 3.0) and 'scipy' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(poisson_cs.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_statistics_and_sweeps_load_no_scipy(tmp_path):
    # No command needs scipy: a desk verify-stats run (its tables' pmf and its
    # KS test), a P2 sweep with either radius (the percentile pilot inverts a
    # table at I = 1e2), a P4 sweep on the identity basis, and a P4 and a P2
    # image run on the DCT basis finish without importing it.  Each exits 0,
    # or 2 for an unconverged cell.
    (tmp_path / "theory.json").write_text('{"epsilon_mode": "theory"}')
    (tmp_path / "percentile.json").write_text(
        '{"epsilon_mode": "percentile", "grid": {"intensity": [1e2, 1e4]}}')
    write_pgm(tmp_path / "scene.pgm", make_test_image(16, 16))
    code = (
        "import sys\n"
        "from poisson_cs.cli import main\n"
        "out = sys.argv[1]\n"
        "image = ['image', '--input', out + '/scene.pgm', '--solver']\n"
        "runs = [['verify-stats', '--trials', '100'],\n"
        "        ['sweep', '--solver', 'P2', '--config', out + '/theory.json', '--trials', '2'],\n"
        "        ['sweep', '--solver', 'P2', '--config', out + '/percentile.json', '--trials', '2'],\n"
        "        ['sweep', '--solver', 'P4', '--trials', '2'],\n"
        "        image + ['P4'],\n"
        "        image + ['P2']]\n"
        "for k, argv in enumerate(runs):\n"
        "    assert main(argv + ['--out', f'{out}/{k}']) in (0, 2)\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(poisson_cs.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in tmp_path.iterdir() if p.is_dir()) == [str(k) for k in range(6)]


class TestPatchGrid:
    def test_count_8x8(self):
        grid = PatchGrid(8, 8, patch=7, stride=1)
        assert grid.n_patches == 4

    def test_coverage_counts(self):
        grid = PatchGrid(20, 20, patch=7, stride=1)
        ones = extract_patches(np.ones((20, 20)), grid)
        acc = np.zeros((20, 20))
        k = 7
        idx = 0
        for r in grid.rows:
            for c in grid.cols:
                acc[r : r + k, c : c + k] += 1
                idx += 1
        assert acc[0, 0] == 1  # corner pixel: a single covering patch
        assert acc[9, 9] == 49  # interior pixel: all 7x7 shifts
        assert ones.shape == (grid.n_patches, 49)

    def test_extract_reassemble_identity(self):
        rng = np.random.default_rng(3)
        img = rng.uniform(0, 255, (16, 16))
        for stride in (1, 3):
            grid = PatchGrid(16, 16, patch=7, stride=stride)
            back = reassemble(extract_patches(img, grid), grid)
            covered = np.zeros((16, 16), dtype=bool)
            for r in grid.rows:
                for c in grid.cols:
                    covered[r : r + 7, c : c + 7] = True
            assert np.allclose(back[covered], img[covered], atol=1e-12)

    @pytest.mark.parametrize("h, w, patch, stride",
                             [(64, 64, 7, 3), (13, 13, 7, 3), (20, 17, 5, 2), (64, 64, 7, 1),
                              (30, 30, 7, 4), (7, 7, 7, 1)])
    def test_pipeline_matches_a_loop_over_the_grid(self, h, w, patch, stride):
        # The vectorized extraction and reassembly against the plain double
        # loops they replaced, bit for bit.
        grid = PatchGrid(h, w, patch=patch, stride=stride)
        rng = np.random.default_rng(h * w + patch + stride)
        image = rng.uniform(0.0, 255.0, (h, w))
        estimates = rng.uniform(0.0, 255.0, (grid.n_patches, patch * patch))
        k = patch
        ref_patches = np.empty((grid.n_patches, k * k))
        acc, cover = np.zeros((h, w)), np.zeros((h, w))
        idx = 0
        for r in grid.rows:
            for c in grid.cols:
                ref_patches[idx] = image[r : r + k, c : c + k].reshape(-1)
                acc[r : r + k, c : c + k] += estimates[idx].reshape(k, k)
                cover[r : r + k, c : c + k] += 1.0
                idx += 1
        acc[cover > 0.0] /= cover[cover > 0.0]
        patches = extract_patches(image, grid)
        assert np.array_equal(patches, ref_patches)
        # A copy, not a view of the image, also where one patch covers it.
        patches[0, 0] = -1.0
        assert image[0, 0] >= 0.0
        assert np.array_equal(reassemble(estimates, grid), acc)

    def test_invalid_grid(self):
        with pytest.raises(InvalidParamError):
            PatchGrid(5, 5, patch=7)
        with pytest.raises(InvalidParamError):
            PatchGrid(10, 10, patch=7, stride=0)

    def test_shape_mismatch(self):
        grid = PatchGrid(10, 10, patch=7)
        with pytest.raises(LengthMismatchError):
            extract_patches(np.ones((9, 10)), grid)


class TestPgmIO:
    def test_roundtrip_8bit(self, tmp_path):
        rng = np.random.default_rng(4)
        img = np.floor(rng.uniform(0, 256, (12, 17)))
        path = tmp_path / "img.pgm"
        write_pgm(path, img, maxval=255)
        assert np.array_equal(read_pgm(path), img)

    def test_roundtrip_16bit(self, tmp_path):
        rng = np.random.default_rng(5)
        img = np.floor(rng.uniform(0, 65536, (9, 6)))
        path = tmp_path / "img16.pgm"
        write_pgm(path, img, maxval=65535)
        assert np.array_equal(read_pgm(path), img)

    def test_clipping(self, tmp_path):
        img = np.array([[-5.0, 300.0], [12.4, 254.6]])
        path = tmp_path / "clip.pgm"
        write_pgm(path, img)
        back = read_pgm(path)
        assert np.array_equal(back, [[0.0, 255.0], [12.0, 255.0]])

    def test_ascii_p2(self, tmp_path):
        path = tmp_path / "ascii.pgm"
        path.write_bytes(b"P2\n# a comment\n3 2\n255\n0 1 2\n250 251 252\n")
        img = read_pgm(path)
        assert img.shape == (2, 3)
        assert img[1, 2] == 252

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P7\n1 1\n255\n\x00")
        with pytest.raises(InvalidParamError):
            read_pgm(path)

    @pytest.mark.parametrize("content, field", [
        (b"P5\nab 4\n255\n" + bytes(8), "width"),  # used to raise a bare ValueError
        (b"P5\n2 2\n0\n" + bytes(4), "maxval"),     # used to be read
        (b"P5\n0 4\n255\n", "width"),               # used to give a (4, 0) array
        (b"P2\n2 -1\n255\n", "height"),
        (b"P5\n1 1\n65536\n" + bytes(2), "maxval"),
        (b"P2\n2 1\n255\n1 x\n", "pixel"),    # used to raise a bare ValueError
        (b"P2\n2 1\n255\n1 300\n", "pixel"),  # used to be read as 300
        (b"P2\n2 1\n255\n-4 3\n", "pixel"),   # used to be read as -4
        (b"P2\n2 1\n255\n1.5 3\n", "pixel"),
        (b"P5\n2 1\n100\n\x01\xc8", "pixel"),  # 200 above maxval 100, used to be read
    ], ids=["non-numeric width", "maxval 0", "zero width", "negative height", "maxval 65536",
            "non-numeric pixel", "pixel above maxval", "negative pixel", "fractional pixel",
            "binary pixel above maxval"])
    def test_bad_header_field(self, tmp_path, content, field):
        path = tmp_path / "header.pgm"
        path.write_bytes(content)
        with pytest.raises(InvalidParamError, match=f"header.pgm: PGM {field} must be"):
            read_pgm(path)

    @pytest.mark.parametrize("content", [
        b"P5\n3 2\n255\n\x00\x01\x02\x03",        # 4 of 6 bytes
        b"P5\n2 2\n65535\n\x00\x01\x00\x02\x00",  # 2.5 of 4 16-bit pixels
        b"P2\n3 2\n255\n0 1 2\n250\n",             # 4 of 6 values
    ])
    def test_truncated_data(self, tmp_path, content):
        path = tmp_path / "short.pgm"
        path.write_bytes(content)
        with pytest.raises(InvalidParamError, match="short.pgm"):
            read_pgm(path)
