"""Orthonormal sparsifying bases and the overlapping-patch image pipeline.

Bases are exactly orthonormal (synthesis and analysis are mutual inverses
and preserve the l2 norm), which the reconstruction bound requires.  The
image pipeline vectorizes overlapping square patches, reconstructs each one
independently, and reassembles by averaging every pixel over all patches
covering it.  Grayscale images travel as 8- or 16-bit PGM files.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidParamError, LengthMismatchError, check_integer

__all__ = [
    "OrthonormalBasis",
    "identity_basis",
    "dct2_basis",
    "PatchGrid",
    "extract_patches",
    "reassemble",
    "read_pgm",
    "write_pgm",
]


@dataclass(frozen=True)
class OrthonormalBasis:
    """Synthesis operator x = Psi @ theta and its inverse (analysis).

    ``patch_shape`` is the (h, w) layout of the vectorized signal for the
    2-D DCT basis; the identity basis is the one whose ``patch_shape`` is None.
    """

    dim: int
    patch_shape: tuple[int, int] | None = None

    def synthesize(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.size != self.dim:
            raise LengthMismatchError(f"expected length {self.dim}, got {theta.size}")
        if self.patch_shape is None:
            return theta.copy()
        # scipy is imported where it is used, so that importing the package
        # (and starting the CLI) loads numpy only.
        from scipy.fft import idctn

        return idctn(theta.reshape(self.patch_shape), norm="ortho").reshape(-1)

    def analyze(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.size != self.dim:
            raise LengthMismatchError(f"expected length {self.dim}, got {x.size}")
        if self.patch_shape is None:
            return x.copy()
        from scipy.fft import dctn

        return dctn(x.reshape(self.patch_shape), norm="ortho").reshape(-1)

    def matrix(self) -> np.ndarray:
        """Dense Psi; columns are the synthesized canonical coefficients."""
        if self.patch_shape is None:
            return np.eye(self.dim)
        from scipy.fft import idctn

        h, w = self.patch_shape
        # Row j synthesizes the j-th canonical coefficient vector.
        rows = idctn(np.eye(self.dim).reshape(self.dim, h, w), axes=(1, 2), norm="ortho")
        return np.ascontiguousarray(rows.reshape(self.dim, self.dim).T)


def identity_basis(dim: int) -> OrthonormalBasis:
    check_integer("dim", dim, 1)
    return OrthonormalBasis(dim=dim)


def dct2_basis(patch_h: int, patch_w: int | None = None) -> OrthonormalBasis:
    """Orthonormal 2-D type-II cosine basis on vectorized h x w patches."""
    patch_w = patch_h if patch_w is None else patch_w
    check_integer("patch_h", patch_h, 1)
    check_integer("patch_w", patch_w, 1)
    return OrthonormalBasis(dim=patch_h * patch_w, patch_shape=(patch_h, patch_w))


@dataclass(frozen=True)
class PatchGrid:
    """Overlapping-patch layout over an image."""

    image_h: int
    image_w: int
    patch: int = 7
    stride: int = 1

    def __post_init__(self):
        check_integer("patch", self.patch, 1)
        check_integer("stride", self.stride, 1)
        if self.patch > min(self.image_h, self.image_w):
            raise InvalidParamError(f"patch {self.patch} larger than image "
                                    f"{self.image_h}x{self.image_w}")

    @property
    def rows(self) -> range:
        return range(0, self.image_h - self.patch + 1, self.stride)

    @property
    def cols(self) -> range:
        return range(0, self.image_w - self.patch + 1, self.stride)

    @property
    def n_patches(self) -> int:
        return len(self.rows) * len(self.cols)


def extract_patches(image, grid: PatchGrid) -> np.ndarray:
    """Vectorized patches, one row per patch, in row-major grid order."""
    image = np.asarray(image, dtype=float)
    if image.shape != (grid.image_h, grid.image_w):
        raise LengthMismatchError(
            f"image shape {image.shape} does not match grid "
            f"({grid.image_h}, {grid.image_w})"
        )
    k = grid.patch
    windows = sliding_window_view(image, (k, k))[:: grid.stride, :: grid.stride]
    # A copy, as reshape returns a view when one patch covers the image.
    return windows.reshape(-1, k * k).copy()


def reassemble(patches_est, grid: PatchGrid) -> np.ndarray:
    """Average overlapping patch estimates back into an image.

    Pixels covered by no patch (possible for stride > 1 near the far edges)
    are left at 0.
    """
    patches_est = np.asarray(patches_est, dtype=float)
    if patches_est.shape != (grid.n_patches, grid.patch * grid.patch):
        raise LengthMismatchError("patch array does not match grid layout")
    k, h, w = grid.patch, grid.image_h, grid.image_w
    # The flat pixel index of each entry of each patch.  np.add.at adds in
    # patch order, so every pixel sums its patches as a loop over the grid.
    corners = np.add.outer(np.array(grid.rows) * w, np.array(grid.cols)).reshape(-1, 1)
    pixels = corners + np.add.outer(np.arange(k) * w, np.arange(k)).reshape(-1)
    acc = np.zeros(h * w)
    cover = np.zeros(h * w)
    np.add.at(acc, pixels, patches_est)
    np.add.at(cover, pixels, 1.0)
    covered = cover > 0.0
    acc[covered] /= cover[covered]
    return acc.reshape(h, w)


def read_pgm(path) -> np.ndarray:
    """Read an 8- or 16-bit PGM (binary P5 or ASCII P2), each pixel an
    integer in 0..maxval, as a float array."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise InvalidParamError(f"{path}: {exc.strerror}") from None
    header = []
    pos = 0
    while len(header) < 4:
        match = re.compile(rb"\s*(?:#[^\n]*\n)*\s*(\S+)").match(data, pos)
        if match is None:
            raise InvalidParamError(f"{path}: truncated PGM header")
        header.append(match.group(1))
        pos = match.end()
    magic = header[0]
    if magic not in (b"P5", b"P2"):
        raise InvalidParamError(f"{path}: unsupported PGM magic {magic!r}")
    width, height, maxval = (int(token) if token.isdigit() else token.decode(errors="replace")
                             for token in header[1:])
    for name, value in (("width", width), ("height", height), ("maxval", maxval)):
        check_integer(f"{path}: PGM {name}", value, 1)
    if maxval > 65535:
        raise InvalidParamError(f"{path}: PGM maxval must be <= 65535, got {maxval}")
    count = width * height
    if magic == b"P5":
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        found = max(len(data) - (pos + 1), 0) // dtype.itemsize
        if found < count:
            raise InvalidParamError(f"{path}: truncated PGM data: {found} of "
                                    f"{width}x{height} pixels")
        img = np.frombuffer(data, dtype=dtype, count=count, offset=pos + 1)
    else:
        vals = data[pos:].split()
        if len(vals) != count:
            raise InvalidParamError(f"{path}: PGM data holds {len(vals)} values for "
                                    f"{width}x{height} pixels")
        # A value that is not a decimal integer reads as -1, refused below.
        img = np.array([float(v) if v.isdigit() else -1.0 for v in vals])
    if not 0 <= img.min() <= img.max() <= maxval:
        raise InvalidParamError(f"{path}: PGM pixel must be an integer in 0..{maxval}")
    return img.reshape(height, width).astype(float)


def write_pgm(path, image, maxval: int = 255) -> None:
    """Write a float image as binary PGM, clipping and rounding to [0, maxval]."""
    if maxval not in (255, 65535):
        raise InvalidParamError("maxval must be 255 or 65535")
    image = np.asarray(image, dtype=float)
    quant = np.clip(np.rint(image), 0, maxval)
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    with open(path, "wb") as f:
        f.write(f"P5\n{image.shape[1]} {image.shape[0]}\n{maxval}\n".encode())
        f.write(quant.astype(dtype).tobytes())
