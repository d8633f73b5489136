"""Procedural multi-view scenes: primitives, analytic ray casting, dataset files.

A scene is 2-4 Lambertian primitives (spheres and axis-aligned boxes) resting
near the origin on a finite floor disc. Cameras sit on a fixed rig: a circle
of radius 2.5 at height 0.8, looking at the origin, vertical FOV 45 degrees,
three views 120 degrees apart. One view per scene is the encoder input, the
other two are supervision targets.

Depth is Euclidean distance along the unit pixel ray; sky pixels carry NaN
and are excluded from depth losses. The binary dataset layout (magic RPDS)
is documented next to the writer.
"""

from __future__ import annotations

import io
import os
import struct
from dataclasses import dataclass

import numpy as np

from .binfile import read_header, write_header
from .geometry import CameraIntrinsics, CameraPose, patch_centers, PatchGrid, unproject

RIG_RADIUS = 2.5
RIG_HEIGHT = 0.8
VFOV_DEG = 45.0
FLOOR_RADIUS = 4.0
RIG_VIEWS = 3
# sqrt((RIG_RADIUS + FLOOR_RADIUS)^2 + RIG_HEIGHT^2) rounded up: no valid hit is farther
DEPTH_BOUND = 7.0

LIGHT_DIR = np.array([0.5, 0.3, -1.0]) / np.linalg.norm([0.5, 0.3, -1.0])  # travel direction
AMBIENT = 0.3
BACKGROUND = np.array([0.75, 0.82, 0.90])

MAGIC = b"RPDS"
VERSION = 1
_EPS = 1e-9


@dataclass(frozen=True)
class Sphere:
    center: np.ndarray
    radius: float
    color: np.ndarray


@dataclass(frozen=True)
class Box:
    lo: np.ndarray
    hi: np.ndarray
    color: np.ndarray


@dataclass(frozen=True)
class SceneSpec:
    objects: tuple
    floor_color: np.ndarray | None  # None: no floor at all

    @property
    def floor_id(self):
        return len(self.objects)


@dataclass
class ViewSample:
    image: np.ndarray   # [3, h, w] float32 in [0, 1]
    depth: np.ndarray   # [h, w] float32, NaN where the ray hit nothing
    role: int           # 0 = encoder input, 1 = target
    intrinsics: CameraIntrinsics
    pose: CameraPose


def generate_scene(seed):
    """Deterministic scene from one integer seed: 2-4 primitives plus the floor."""
    rng = np.random.default_rng(seed)
    n_obj = int(rng.integers(2, 5))
    objects = []
    for _ in range(n_obj):
        angle = rng.uniform(0.0, 2.0 * np.pi)
        dist = rng.uniform(0.1, 1.1)
        x, y = dist * np.cos(angle), dist * np.sin(angle)
        color = rng.uniform(0.15, 0.85, size=3)
        if rng.uniform() < 0.5:
            r = rng.uniform(0.25, 0.45)
            objects.append(Sphere(np.array([x, y, r]), r, color))
        else:
            half = rng.uniform(0.18, 0.38, size=3)
            center = np.array([x, y, half[2]])
            objects.append(Box(center - half, center + half, color))
    floor_color = rng.uniform(0.2, 0.7, size=3)
    return SceneSpec(tuple(objects), floor_color)


def rig_intrinsics(height, width):
    f = (height / 2.0) / np.tan(np.deg2rad(VFOV_DEG) / 2.0)
    return CameraIntrinsics(fx=f, fy=f, cx=width / 2.0, cy=height / 2.0)


def rig_pose(angle_deg):
    """Camera on the rig circle at ``angle_deg``, looking at the origin, z-up world."""
    a = np.deg2rad(angle_deg)
    origin = np.array([RIG_RADIUS * np.cos(a), RIG_RADIUS * np.sin(a), RIG_HEIGHT])
    fwd = -origin / np.linalg.norm(origin)      # camera z: toward the scene center
    up = np.array([0.0, 0.0, 1.0])
    right = np.cross(fwd, up)
    right /= np.linalg.norm(right)
    down = np.cross(fwd, right)                 # camera y: image rows grow downward
    rot = np.stack([right, down, fwd], axis=1)
    return CameraPose(rot, origin)


def rig_views(height, width):
    intr = rig_intrinsics(height, width)
    return [(intr, rig_pose(i * 360.0 / RIG_VIEWS)) for i in range(RIG_VIEWS)]


# ---------------------------------------------------------------------------
# analytic intersection
# ---------------------------------------------------------------------------

def _sphere_t(sph, origins, dirs):
    oc = origins - sph.center
    b = np.einsum("ij,ij->i", oc, dirs)
    disc = b * b - (np.einsum("ij,ij->i", oc, oc) - sph.radius ** 2)
    hit = disc >= 0.0
    sq = np.sqrt(np.where(hit, disc, 0.0))
    t_near = -b - sq
    t_far = -b + sq
    t = np.where(t_near > _EPS, t_near, t_far)
    return np.where(hit & (t > _EPS), t, np.inf)


def _box_t(box, origins, dirs):
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (box.lo - origins) / dirs
        t2 = (box.hi - origins) / dirs
    # rays parallel to a slab: +-inf bounds sort correctly unless the origin
    # coordinate sits outside the slab, where min/max produce nan -> miss
    t_lo = np.nanmin(np.stack([t1, t2]), axis=0)
    t_hi = np.nanmax(np.stack([t1, t2]), axis=0)
    near = t_lo.max(axis=1)
    far = t_hi.min(axis=1)
    inside = (origins > box.lo).all(axis=1) & (origins < box.hi).all(axis=1)
    t = np.where(near > _EPS, near, far)
    ok = (near <= far) & (far > _EPS)
    # origin on a face with a parallel ray can produce nan; treat as miss
    ok &= np.isfinite(t) | inside
    return np.where(ok, t, np.inf)


def _floor_t(origins, dirs):
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -origins[:, 2] / dirs[:, 2]
    px = origins[:, 0] + t * dirs[:, 0]
    py = origins[:, 1] + t * dirs[:, 1]
    ok = np.isfinite(t) & (t > _EPS) & (px * px + py * py <= FLOOR_RADIUS ** 2)
    return np.where(ok, t, np.inf)


def trace_rays(spec, origins, dirs):
    """Closest hit for each ray: (t [n], hit_id [n]).

    hit_id indexes ``spec.objects``; ``spec.floor_id`` marks the floor and -1
    a miss (t = inf there).
    """
    origins = np.asarray(origins, dtype=np.float64).reshape(-1, 3)
    dirs = np.asarray(dirs, dtype=np.float64).reshape(-1, 3)
    n = origins.shape[0]
    best_t = np.full(n, np.inf)
    best_id = np.full(n, -1, dtype=np.int64)
    for idx, obj in enumerate(spec.objects):
        t = _sphere_t(obj, origins, dirs) if isinstance(obj, Sphere) else _box_t(obj, origins, dirs)
        closer = t < best_t
        best_t[closer] = t[closer]
        best_id[closer] = idx
    if spec.floor_color is not None:
        t = _floor_t(origins, dirs)
        closer = t < best_t
        best_t[closer] = t[closer]
        best_id[closer] = spec.floor_id
    return best_t, best_id


def _normals(spec, hit_id, points):
    n = np.zeros_like(points)
    for idx, obj in enumerate(spec.objects):
        sel = hit_id == idx
        if not sel.any():
            continue
        if isinstance(obj, Sphere):
            n[sel] = (points[sel] - obj.center) / obj.radius
        else:
            center = (obj.lo + obj.hi) / 2.0
            half = (obj.hi - obj.lo) / 2.0
            rel = (points[sel] - center) / half
            face = np.argmax(np.abs(rel), axis=1)
            nv = np.zeros((sel.sum(), 3))
            nv[np.arange(sel.sum()), face] = np.sign(rel[np.arange(sel.sum()), face])
            n[sel] = nv
    sel = hit_id == spec.floor_id
    n[sel] = [0.0, 0.0, 1.0]
    return n


def shade(spec, hit_id, points):
    """Lambertian with a fixed directional light and ambient floor term."""
    colors = np.empty((hit_id.shape[0], 3))
    colors[:] = BACKGROUND
    hit = hit_id >= 0
    if hit.any():
        albedo = np.empty((hit_id.shape[0], 3))
        for idx, obj in enumerate(spec.objects):
            albedo[hit_id == idx] = obj.color
        if spec.floor_color is not None:
            albedo[hit_id == spec.floor_id] = spec.floor_color
        normals = _normals(spec, hit_id, points)
        lambert = np.maximum(0.0, normals @ (-LIGHT_DIR))
        shade_f = AMBIENT + (1.0 - AMBIENT) * lambert
        colors[hit] = albedo[hit] * shade_f[hit, None]
    return colors


def render_view(spec, intrinsics, pose, height, width, role=1):
    """Ray-cast one view: [3, h, w] image, per-pixel depth with NaN sky."""
    centers = patch_centers(PatchGrid(height, width, 1))  # pixel centers, row-major
    dirs = unproject(intrinsics, pose, centers)
    origins = np.tile(pose.origin, (dirs.shape[0], 1))
    t, hit_id = trace_rays(spec, origins, dirs)
    points = origins + dirs * np.where(np.isfinite(t), t, 0.0)[:, None]
    colors = shade(spec, hit_id, points)
    image = colors.reshape(height, width, 3).transpose(2, 0, 1)
    depth = np.where(np.isfinite(t), t, np.nan).reshape(height, width)
    return ViewSample(image=image.astype(np.float32), depth=depth.astype(np.float32),
                      role=role, intrinsics=intrinsics, pose=pose)


def render_scene_views(spec, height, width):
    """The three rig views of one scene; view 0 is the encoder input."""
    views = []
    for i, (intr, pose) in enumerate(rig_views(height, width)):
        views.append(render_view(spec, intr, pose, height, width, role=0 if i == 0 else 1))
    return views


# ---------------------------------------------------------------------------
# dataset file format
#
#   binfile container: magic "RPDS" | u32 version | u64 header_len | header JSON
#   then per scene, per view (RIG_VIEWS of them):
#     pose 12 f64 (rotation rows, then origin) | intrinsics 4 f64 (fx fy cx cy)
#     rgb 3*h*w f32 | depth h*w f32 (NaN = no hit) | role u8
#   all integers little-endian
# ---------------------------------------------------------------------------

def predicted_file_size(n_scenes, height, width, seed):
    header = write_header(io.BytesIO(), MAGIC, VERSION,
                          _header_dict(n_scenes, height, width, seed))
    per_view = 12 * 8 + 4 * 8 + 3 * height * width * 4 + height * width * 4 + 1
    return header + n_scenes * RIG_VIEWS * per_view


def _header_dict(n_scenes, height, width, seed):
    return {"h": height, "n_scenes": n_scenes, "seed": seed, "w": width}


_HEADER_MIN = {"h": 1, "n_scenes": 0, "seed": 0, "w": 1}  # field -> smallest valid value


def _check_header(header, path):
    if set(header) != set(_HEADER_MIN):
        raise ValueError(f"{path}: header fields {sorted(header)}, not {sorted(_HEADER_MIN)}")
    for key, low in _HEADER_MIN.items():
        if type(header[key]) is not int or header[key] < low:
            raise ValueError(f"{path}: header {key!r} is {header[key]!r}")


def make_dataset(path, n_scenes, height, width, seed):
    """Render ``n_scenes`` procedural scenes (scene i uses seed ``seed + i``) to ``path``."""
    header = _header_dict(n_scenes, height, width, seed)
    _check_header(header, path)  # write nothing that load_dataset would refuse
    with open(path, "wb") as fh:
        write_header(fh, MAGIC, VERSION, header)
        for i in range(n_scenes):
            spec = generate_scene(seed + i)
            for view in render_scene_views(spec, height, width):
                _write_view(fh, view)


def _write_view(fh, view):
    fh.write(view.pose.rotation.astype("<f8").tobytes())
    fh.write(view.pose.origin.astype("<f8").tobytes())
    k = view.intrinsics
    fh.write(struct.pack("<4d", k.fx, k.fy, k.cx, k.cy))
    fh.write(view.image.astype("<f4").tobytes())
    fh.write(view.depth.astype("<f4").tobytes())
    fh.write(struct.pack("B", view.role))


def load_dataset(path):
    """Read an RPDS file back: (header dict, scenes as lists of ViewSample)."""
    with open(path, "rb") as fh:
        header = read_header(fh, path, MAGIC, VERSION)
        _check_header(header, path)
        h, w = header["h"], header["w"]
        size = os.fstat(fh.fileno()).st_size
        expected = predicted_file_size(header["n_scenes"], h, w, header["seed"])
        if size != expected:
            raise ValueError(f"{path}: {size} bytes, but its header describes {expected}")
        # the size matches, so every read below returns all it asks for
        scenes = []
        for _ in range(header["n_scenes"]):
            views = [_read_view(fh, h, w) for _ in range(RIG_VIEWS)]
            scenes.append(views)
        return header, scenes


def _read_view(fh, h, w):
    rot = np.frombuffer(fh.read(9 * 8), dtype="<f8").reshape(3, 3)
    origin = np.frombuffer(fh.read(3 * 8), dtype="<f8")
    fx, fy, cx, cy = struct.unpack("<4d", fh.read(32))
    image = np.frombuffer(fh.read(3 * h * w * 4), dtype="<f4").reshape(3, h, w)
    depth = np.frombuffer(fh.read(h * w * 4), dtype="<f4").reshape(h, w)
    (role,) = struct.unpack("B", fh.read(1))
    return ViewSample(image=image.copy(), depth=depth.copy(), role=role,
                      intrinsics=CameraIntrinsics(fx, fy, cx, cy),
                      pose=CameraPose(rot.copy(), origin.copy()))
