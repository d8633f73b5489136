"""Camera geometry for patch-level ray queries.

Conventions used throughout the package:
  * image coordinates (u, v): u runs along columns (x, width), v along rows
    (y, height); the center of the pixel at row i, column j is (j+0.5, i+0.5);
  * camera frame: x right, y down, z forward through the image plane;
  * a pose stores the world-from-camera rotation and the camera origin, so a
    camera-frame direction d maps to the world as R @ d.

A patch size k tiles an h x w image into (h/k)(w/k) non-overlapping k x k
squares. One query ray is cast through the center of each patch; for k = 1
this reduces to the usual one-ray-per-pixel decoding. ``ModelConfig`` checks
that k divides h and w; the functions here take the sizes as given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor


# camera origins are divided by this before Fourier encoding; every rig camera
# sits within it, which keeps the encoding arguments within one period
SCENE_RADIUS = 3.0


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


def patch_centers(height, width, k):
    """Pixel-space centers of the k x k patches of an h x w image,
    [(h/k)(w/k), 2] as (u, v), row-major.

    Patch (i, j) covers rows [i*k, (i+1)*k) and columns [j*k, (j+1)*k); its
    center sits at ((j + 0.5) * k, (i + 0.5) * k).
    """
    jj, ii = np.meshgrid(np.arange(width // k), np.arange(height // k))
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


def _fourier_channels(values_t, n_freq, out):
    """Write the encoding of ``values_t`` [c, n] channel-major into ``out``
    [2*F*c, n]: row (i*F + f)*2 holds sin(pi 2^f v_i), the next row the cos."""
    c, n = values_t.shape
    freqs = np.pi * (2.0 ** np.arange(n_freq))
    args = values_t[:, None, :] * freqs[None, :, None]  # [c, F, n]
    enc = out.reshape(c, n_freq, 2, n)
    np.sin(args, out=enc[:, :, 0])
    np.cos(args, out=enc[:, :, 1])


def fourier_encode(values, n_freq):
    """Sinusoidal features per component, frequencies pi * 2^0 .. pi * 2^{F-1}.

    values: [n, c] (or [c]); returns [n, 2*F*c] laid out component-major:
    [sin(pi v_0), cos(pi v_0), sin(2 pi v_0), ..., sin(.. v_1), ...].
    """
    v = np.asarray(values, dtype=np.float64)
    squeeze = v.ndim == 1
    if squeeze:
        v = v[None, :]
    enc = np.empty((2 * n_freq * v.shape[1], v.shape[0]))
    _fourier_channels(v.T, n_freq, enc)
    enc = np.ascontiguousarray(enc.T)
    return enc[0] if squeeze else enc


def query_dim(f_origin, f_dir):
    return 6 * f_origin + 6 * f_dir


def _ray_channels(intrinsics, pose, pixels, f_origin, f_dir):
    """Fourier-encoded (origin, direction) features of the rays through
    ``pixels`` [n, 2], channel-major: [6*f_origin + 6*f_dir, n]. The origin,
    divided by ``SCENE_RADIUS``, is the same for every ray."""
    n = pixels.shape[0]
    out = np.empty((query_dim(f_origin, f_dir), n))
    n_origin = 6 * f_origin
    out[:n_origin] = fourier_encode(pose.origin / SCENE_RADIUS, f_origin)[:, None]
    _fourier_channels(unproject(intrinsics, pose, pixels).T, f_dir, out[n_origin:])
    return out


def build_queries(intrinsics, pose, height, width, k, f_origin, f_dir):
    """Fourier-encoded (origin, direction) rows for every k x k patch of a target view.

    Returns a Tensor [(h/k)(w/k), 6*f_origin + 6*f_dir], rows in the same
    row-major patch order as ``patch_centers``. The origin is divided by
    ``SCENE_RADIUS`` before encoding.
    """
    pixels = patch_centers(height, width, k)
    return Tensor(_ray_channels(intrinsics, pose, pixels, f_origin, f_dir).T)


def ray_feature_map(intrinsics, pose, height, width, f_origin, f_dir):
    """Per-pixel query encoding as channels: [6*(f_o+f_d), h, w].

    Same features as ``build_queries`` with k = 1, built channel-major
    for concatenating to image channels before the encoder convolutions.
    """
    pixels = patch_centers(height, width, 1)
    return _ray_channels(intrinsics, pose, pixels, f_origin, f_dir).reshape(-1, height, width)
