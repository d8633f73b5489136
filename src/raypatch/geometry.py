"""Camera geometry for patch-level ray queries.

Conventions used throughout the package:
  * image coordinates (u, v): u runs along columns (x, width), v along rows
    (y, height); the center of the pixel at row i, column j is (j+0.5, i+0.5);
  * camera frame: x right, y down, z forward through the image plane;
  * a pose stores the world-from-camera rotation and the camera origin, so a
    camera-frame direction d maps to the world as R @ d.

A patch grid tiles an h x w image into non-overlapping k x k squares. One
query ray is cast through the center of each patch; for k = 1 this reduces
to the usual one-ray-per-pixel decoding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor


class GridError(ValueError):
    """Patch size incompatible with the image dimensions."""


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float


@dataclass(frozen=True)
class CameraPose:
    """World-from-camera rotation (3x3, row-major) and camera origin (3,)."""

    rotation: np.ndarray
    origin: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=np.float64).reshape(3, 3))
        object.__setattr__(self, "origin", np.asarray(self.origin, dtype=np.float64).reshape(3))


@dataclass(frozen=True)
class PatchGrid:
    height: int
    width: int
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise GridError(f"patch size must be >= 1, got {self.k}")
        if self.height % self.k or self.width % self.k:
            raise GridError(f"patch size {self.k} must divide image size "
                            f"{self.height}x{self.width}")

    @property
    def rows(self):
        return self.height // self.k

    @property
    def cols(self):
        return self.width // self.k

    @property
    def n_patches(self):
        return self.rows * self.cols


def patch_centers(grid):
    """Pixel-space centers of all patches, [n_patches, 2] as (u, v), row-major.

    Patch (i, j) covers rows [i*k, (i+1)*k) and columns [j*k, (j+1)*k); its
    center sits at ((j + 0.5) * k, (i + 0.5) * k).
    """
    k = float(grid.k)
    jj, ii = np.meshgrid(np.arange(grid.cols), np.arange(grid.rows))
    u = (jj.reshape(-1) + 0.5) * k
    v = (ii.reshape(-1) + 0.5) * k
    return np.stack([u, v], axis=1)


def unproject(intrinsics, pose, pixels):
    """Unit world-space ray directions through the given pixel coordinates.

    pixels: [n, 2] (u, v). Inverse pinhole first ((u-cx)/fx, (v-cy)/fy, 1),
    then rotated into the world and normalized. The camera origin is carried
    by the pose and is not part of the direction.
    """
    px = np.asarray(pixels, dtype=np.float64)
    if px.ndim != 2 or px.shape[1] != 2:
        raise ValueError(f"pixels must be [n, 2], got {px.shape}")
    d_cam = np.stack([
        (px[:, 0] - intrinsics.cx) / intrinsics.fx,
        (px[:, 1] - intrinsics.cy) / intrinsics.fy,
        np.ones(px.shape[0]),
    ], axis=1)
    d_world = d_cam @ pose.rotation.T
    return d_world / np.linalg.norm(d_world, axis=1, keepdims=True)


def fourier_encode(values, n_freq):
    """Sinusoidal features per component, frequencies pi * 2^0 .. pi * 2^{F-1}.

    values: [n, c] (or [c]); returns [n, 2*F*c] laid out component-major:
    [sin(pi v_0), cos(pi v_0), sin(2 pi v_0), ..., sin(.. v_1), ...].
    """
    v = np.asarray(values, dtype=np.float64)
    squeeze = v.ndim == 1
    if squeeze:
        v = v[None, :]
    freqs = np.pi * (2.0 ** np.arange(n_freq))
    args = v[:, :, None] * freqs[None, None, :]  # [n, c, F]
    enc = np.stack([np.sin(args), np.cos(args)], axis=3)  # [n, c, F, 2]
    enc = enc.reshape(v.shape[0], v.shape[1] * n_freq * 2)
    return enc[0] if squeeze else enc


def query_dim(f_origin, f_dir):
    return 6 * f_origin + 6 * f_dir


def build_queries(intrinsics, pose, grid, f_origin=10, f_dir=10, scene_radius=3.0):
    """Fourier-encoded (origin, direction) rows for every patch of a target view.

    Returns a Tensor [n_patches, 6*f_origin + 6*f_dir], rows in the same
    row-major patch order as ``patch_centers``. The origin is divided by
    ``scene_radius`` before encoding to keep the encoding arguments within
    one period.
    """
    centers = patch_centers(grid)
    dirs = unproject(intrinsics, pose, centers)
    o_scaled = pose.origin / scene_radius
    o_enc = fourier_encode(o_scaled, f_origin)  # [6*f_origin]
    o_rows = np.tile(o_enc, (grid.n_patches, 1))
    d_rows = fourier_encode(dirs, f_dir)  # [n, 6*f_dir]
    return Tensor(np.concatenate([o_rows, d_rows], axis=1))


def ray_feature_map(intrinsics, pose, height, width, f_origin=10, f_dir=10, scene_radius=3.0):
    """Per-pixel query encoding reshaped to channels: [6*(f_o+f_d), h, w].

    Same features as ``build_queries`` on the k=1 grid, for concatenating to
    image channels before the encoder convolutions.
    """
    grid = PatchGrid(height, width, 1)
    q = build_queries(intrinsics, pose, grid, f_origin, f_dir, scene_radius)
    return q.data.reshape(height, width, -1).transpose(2, 0, 1).copy()
