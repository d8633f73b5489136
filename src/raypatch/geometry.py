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


def _fourier_channels(values_t, n_freq):
    """sin and cos of pi 2^f v for every value of ``values_t`` [c, n],
    frequency-major: [F, 2, c, n], [f, 0] the sines and [f, 1] the cosines.

    One sin and one cos per value, at f = 0. Each higher frequency comes from
    the one below by angle doubling, s' = 2 s c and c' = c^2 - s^2, in float64
    multiplies, adds and subtracts, which round the same whatever the array's
    shape. Frequencies 0 and 1 equal ``np.sin``/``np.cos`` of pi 2^f v bit for
    bit. Each doubling step about doubles the error it is handed, so frequency
    f is off by about 2^f unit roundoffs (2^-53): at most 7.2e-14 at f = 9 in
    3 million draws with |v| <= 3. The direct form's angle carries a rounding
    error of the same size: pi 2^f v is 2^f fl(pi v) exactly, so its error is
    2^f times that of fl(pi v).
    """
    enc = np.empty((n_freq, 2) + values_t.shape)
    if n_freq == 0:
        return enc
    angle = values_t * np.pi
    np.sin(angle, out=enc[0, 0])
    np.cos(angle, out=enc[0, 1])
    squares = np.empty((2,) + values_t.shape)
    for low, high in zip(enc, enc[1:]):
        np.multiply(low[0], low[1], out=high[0])
        np.add(high[0], high[0], out=high[0])
        np.square(low, out=squares)
        np.subtract(squares[1], squares[0], out=high[1])
    return enc


def fourier_encode(values, n_freq):
    """Sinusoidal features per component, frequencies pi * 2^0 .. pi * 2^{F-1}.

    values: [n, c] (or [c]); returns [n, 2*F*c] laid out component-major:
    [sin(pi v_0), cos(pi v_0), sin(2 pi v_0), ..., sin(.. v_1), ...].
    One sin and one cos per component, the higher frequencies by angle
    doubling: frequency f is within about 2^f unit roundoffs of ``np.sin``
    and ``np.cos`` of pi 2^f v, under 1e-13 for |v| <= 3 at F = 10
    (``_fourier_channels``).
    """
    v = np.asarray(values, dtype=np.float64)
    squeeze = v.ndim == 1
    if squeeze:
        v = v[None, :]
    enc = np.ascontiguousarray(_fourier_channels(v.T, n_freq).transpose(3, 2, 0, 1))
    enc = enc.reshape(v.shape[0], 2 * n_freq * v.shape[1])
    return enc[0] if squeeze else enc


def query_dim(f_origin, f_dir):
    return 6 * f_origin + 6 * f_dir


def origin_code(pose, f_origin):
    """The Fourier code [6 * f_origin] of the camera origin divided by
    ``SCENE_RADIUS``: the origin block of every query row of the view, and
    the vector the encoder's first convolution reads at every pixel."""
    return fourier_encode(pose.origin / SCENE_RADIUS, f_origin)


def build_queries(intrinsics, pose, height, width, k, f_origin, f_dir):
    """Fourier-encoded (origin, direction) rows for every k x k patch of a target view.

    Returns a Tensor [(h/k)(w/k), 6*f_origin + 6*f_dir], rows in the same
    row-major patch order as ``patch_centers``. The origin block,
    ``origin_code``, is the same in every row.
    """
    dirs = unproject(intrinsics, pose, patch_centers(height, width, k))
    q = np.empty((dirs.shape[0], query_dim(f_origin, f_dir)))
    q[:, :6 * f_origin] = origin_code(pose, f_origin)
    q[:, 6 * f_origin:] = fourier_encode(dirs, f_dir)
    return Tensor(q)


def ray_feature_map(intrinsics, pose, height, width, f_dir, out=None):
    """Per-pixel direction encoding as channels: [6 * f_dir, h, w].

    The direction block of ``build_queries`` with k = 1, built channel-major
    for the encoder, which passes the rows after its image channels as
    ``out``; returns ``out`` (a new array if it is None). The origin block is
    the same at every pixel, so the encoder takes it once per view as
    ``origin_code``.
    """
    if out is None:
        out = np.empty((6 * f_dir, height, width))
    dirs = unproject(intrinsics, pose, patch_centers(height, width, 1))
    enc = _fourier_channels(dirs.T, f_dir)  # [F, 2, 3, h*w]
    # splitting out's first axis is a view whatever its strides
    out.reshape(3, f_dir, 2, height, width)[...] = (
        enc.reshape(f_dir, 2, 3, height, width).transpose(2, 0, 1, 3, 4))
    return out
