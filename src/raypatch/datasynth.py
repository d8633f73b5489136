"""Procedural multi-view scenes: primitives, analytic ray casting, dataset files.

A scene is 2-4 Lambertian primitives (spheres and axis-aligned boxes) resting
near the origin on a finite floor disc. Cameras sit on a fixed rig: a circle
of radius 2.5 at height 0.8, looking at the origin, vertical FOV 45 degrees,
three views 120 degrees apart. View 0 of each scene is the encoder input, the
other two are supervision targets.

Depth is Euclidean distance along the unit pixel ray; sky pixels carry NaN
and are excluded from depth losses. A dataset file (magic RPDS) is a
``binfile`` header and then one ``view_record`` per view.
"""

from __future__ import annotations

import functools
import io
from dataclasses import dataclass

import numpy as np

from .binfile import check_body, read_header, write_header
from .geometry import CameraIntrinsics, CameraPose, patch_centers, unproject

RIG_RADIUS = 2.5
RIG_HEIGHT = 0.8
VFOV_DEG = 45.0
FLOOR_RADIUS = 4.0
RIG_VIEWS = 3

LIGHT_DIR = np.array([0.5, 0.3, -1.0]) / np.linalg.norm([0.5, 0.3, -1.0])  # travel direction
AMBIENT = 0.3
BACKGROUND = np.array([0.75, 0.82, 0.90])

MAGIC = b"RPDS"
VERSION = 2  # 2: no per-view role byte; view 0 is the encoder input by position
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


@functools.lru_cache(maxsize=4)
def _rig_rays(height, width):
    """(intrinsics, pose, unit pixel rays) of each rig view, built once per
    image size. Every scene shares them, so their arrays are read-only."""
    centers = patch_centers(height, width, 1)  # pixel centers, row-major
    views = []
    for intr, pose in rig_views(height, width):
        dirs = unproject(intr, pose, centers)
        for a in (pose.rotation, pose.origin, dirs):
            a.flags.writeable = False
        views.append((intr, pose, dirs))
    return tuple(views)


# ---------------------------------------------------------------------------
# analytic intersection: origins are one [3] origin shared by all n rays, or
# [n, 3], one per ray; every formula broadcasts either against dirs [n, 3]
# ---------------------------------------------------------------------------

def _sphere_t(sph, origins, dirs):
    oc = origins - sph.center
    # one [3] oc gives the bits of the same einsum on oc tiled to [n, 3]
    b = np.einsum("...j,...j->...", oc, dirs)
    disc = b * b - (np.einsum("...j,...j->...", oc, oc) - sph.radius ** 2)
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
    # a ray parallel to a slab gets +-inf bounds, which sort correctly; an
    # origin on the slab's face gives 0/0 = nan there, which fmin/fmax skip
    t_lo, t_hi = np.fmin(t1, t2), np.fmax(t1, t2)
    near = np.maximum(np.maximum(t_lo[:, 0], t_lo[:, 1]), t_lo[:, 2])
    far = np.minimum(np.minimum(t_hi[:, 0], t_hi[:, 1]), t_hi[:, 2])
    inside = (origins > box.lo).all(axis=-1) & (origins < box.hi).all(axis=-1)
    t = np.where(near > _EPS, near, far)
    ok = (near <= far) & (far > _EPS)
    # origin on a face with a parallel ray can produce nan; treat as miss
    ok &= np.isfinite(t) | inside
    return np.where(ok, t, np.inf)


def _floor_t(origins, dirs):
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -origins[..., 2] / dirs[:, 2]
        px = origins[..., 0] + t * dirs[:, 0]
        py = origins[..., 1] + t * dirs[:, 1]
    ok = np.isfinite(t) & (t > _EPS) & (px * px + py * py <= FLOOR_RADIUS ** 2)
    return np.where(ok, t, np.inf)


def trace_rays(spec, origins, dirs):
    """Closest hit for each ray: (t [n], hit_id [n]).

    ``origins`` is one [3] origin that every ray leaves from, or [n, 3].
    hit_id indexes ``spec.objects``; ``spec.floor_id`` marks the floor and -1
    a miss (t = inf there).
    """
    origins = np.asarray(origins, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64).reshape(-1, 3)
    hits = [_sphere_t(obj, origins, dirs) if isinstance(obj, Sphere) else _box_t(obj, origins, dirs)
            for obj in spec.objects]
    if spec.floor_color is not None:
        hits.append(_floor_t(origins, dirs))  # at index floor_id
    best_t = np.full(dirs.shape[0], np.inf)
    best_id = np.full(dirs.shape[0], -1, dtype=np.int64)
    for idx, t in enumerate(hits):
        closer = t < best_t
        best_t = np.where(closer, t, best_t)
        best_id = np.where(closer, idx, best_id)
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
            n[sel] = np.where(face[:, None] == np.arange(3), np.sign(rel), 0.0)
    n[hit_id == spec.floor_id, 2] = 1.0
    return n


def shade(spec, hit_id, points):
    """Lambertian with a fixed directional light and ambient floor term."""
    # one albedo row per hit_id: the objects, the floor, and the background
    # last, where hit_id -1 reads it; a miss keeps it at a shade factor of 1
    floor = [] if spec.floor_color is None else [spec.floor_color]
    palette = np.array([obj.color for obj in spec.objects] + floor + [BACKGROUND])
    normals = _normals(spec, hit_id, points)
    lambert = np.maximum(0.0, normals @ (-LIGHT_DIR))
    shade_f = np.where(hit_id >= 0, AMBIENT + (1.0 - AMBIENT) * lambert, 1.0)
    return palette[hit_id] * shade_f[:, None]


def render_view(spec, intrinsics, pose, height, width, dirs):
    """Ray-cast one view along its unit pixel rays ``dirs`` [h * w, 3],
    row-major: [3, h, w] image, per-pixel depth with NaN sky."""
    t, hit_id = trace_rays(spec, pose.origin, dirs)
    points = pose.origin + dirs * np.where(np.isfinite(t), t, 0.0)[:, None]
    colors = shade(spec, hit_id, points)
    image = colors.reshape(height, width, 3).transpose(2, 0, 1)
    depth = np.where(np.isfinite(t), t, np.nan).reshape(height, width)
    return ViewSample(image=image.astype(np.float32), depth=depth.astype(np.float32),
                      intrinsics=intrinsics, pose=pose)


def render_scene_views(spec, height, width):
    """The three rig views of one scene; view 0 is the encoder input."""
    return [render_view(spec, intr, pose, height, width, dirs)
            for intr, pose, dirs in _rig_rays(height, width)]


# ---------------------------------------------------------------------------
# dataset file format: see view_record
# ---------------------------------------------------------------------------

def view_record(height, width):
    """One view on disk, packed and little-endian. A file holds RIG_VIEWS of
    them per scene, view 0 the encoder input. The rotation is stored row by
    row, the intrinsics are fx fy cx cy, and NaN depth means no hit."""
    return np.dtype([("rotation", "<f8", (3, 3)), ("origin", "<f8", (3,)),
                     ("intrinsics", "<f8", (4,)), ("image", "<f4", (3, height, width)),
                     ("depth", "<f4", (height, width))])


def _body_size(n_scenes, height, width):
    """In Python ints, as a record's size is linear in h * w: a header is checked
    against its file before it may ask numpy for a record type over 2 GiB."""
    fixed = view_record(0, 0).itemsize
    return n_scenes * RIG_VIEWS * (fixed + (view_record(1, 1).itemsize - fixed) * height * width)


def predicted_file_size(n_scenes, height, width, seed):
    header = write_header(io.BytesIO(), MAGIC, VERSION,
                          _header_dict(n_scenes, height, width, seed))
    return header + _body_size(n_scenes, height, width)


def _header_dict(n_scenes, height, width, seed):
    return {"h": height, "n_scenes": n_scenes, "seed": seed, "w": width}


_HEADER_MIN = {"h": 1, "n_scenes": 0, "seed": 0, "w": 1}  # field -> smallest valid value


def _check_header(header, path):
    if set(header) != set(_HEADER_MIN):
        raise ValueError(f"{path}: header fields {sorted(header)}, not {sorted(_HEADER_MIN)}")
    for key, low in _HEADER_MIN.items():
        if type(header[key]) is not int or header[key] < low:
            raise ValueError(f"{path}: header {key!r} is {header[key]!r}")


def _record_type(height, width, path):
    """``view_record(height, width)``, or a ValueError naming ``path`` when a
    field would pass numpy's 2 GiB limit."""
    try:
        return view_record(height, width)
    except ValueError as exc:
        raise ValueError(f"{path}: {height}x{width} views do not fit a numpy record "
                         f"({exc})") from exc


def make_dataset(path, n_scenes, height, width, seed):
    """Render ``n_scenes`` procedural scenes (scene i uses seed ``seed + i``) to ``path``."""
    header = _header_dict(n_scenes, height, width, seed)
    _check_header(header, path)  # write nothing that load_dataset would refuse
    records = np.zeros(RIG_VIEWS, dtype=_record_type(height, width, path))
    with open(path, "wb") as fh:
        write_header(fh, MAGIC, VERSION, header)
        for i in range(n_scenes):
            views = render_scene_views(generate_scene(seed + i), height, width)
            for rec, view in zip(records, views):
                k = view.intrinsics
                rec["rotation"], rec["origin"] = view.pose.rotation, view.pose.origin
                rec["intrinsics"] = k.fx, k.fy, k.cx, k.cy
                rec["image"], rec["depth"] = view.image, view.depth
            fh.write(records)


def load_dataset(path):
    """Read an RPDS file back: (header dict, scenes as lists of ViewSample).
    Every array of a ViewSample is a view into one array of all the records."""
    with open(path, "rb") as fh:
        header = read_header(fh, path, MAGIC, VERSION)
        _check_header(header, path)
        n_scenes, h, w = header["n_scenes"], header["h"], header["w"]
        check_body(fh, path, _body_size(n_scenes, h, w))
        # a record past 2 GiB here: a file of no scenes, or of many GiB
        records = np.fromfile(fh, dtype=_record_type(h, w, path), count=n_scenes * RIG_VIEWS)
    records = records.reshape(n_scenes, RIG_VIEWS)
    for (s, v), rec in np.ndenumerate(records):
        fault = _view_fault(rec)
        if fault:
            raise ValueError(f"{path}: scene {s} view {v}: {fault}")
    return header, [[ViewSample(image=rec["image"], depth=rec["depth"],
                                intrinsics=CameraIntrinsics(*rec["intrinsics"].tolist()),
                                pose=CameraPose(rec["rotation"], rec["origin"]))
                     for rec in views] for views in records]


def _view_fault(rec):
    """What makes a view record unusable, or None. Depth may be NaN (sky), not <= 0."""
    for name in ("rotation", "origin", "image"):
        if not np.isfinite(rec[name]).all():
            return f"{name} holds a non-finite value"
    if not np.isfinite(rec["intrinsics"]).all():
        return "intrinsics hold a non-finite value"
    fx, fy = rec["intrinsics"][:2].tolist()
    if not (fx > 0 and fy > 0):
        return f"focal length fx={fx}, fy={fy} is not above 0"
    if (rec["depth"] <= 0).any():
        return "depth holds a value at or below 0"
    return None
