"""Scene generation, ray casting against the scalar oracle, dataset files."""

import numpy as np
import pytest

from raypatch import datasynth as ds
from raypatch.geometry import PatchGrid, patch_centers, unproject

from reference_impls import trace_ray_scalar


def test_generate_scene_deterministic():
    a = ds.generate_scene(42)
    b = ds.generate_scene(42)
    assert len(a.objects) == len(b.objects)
    for oa, ob in zip(a.objects, b.objects):
        assert type(oa) is type(ob)
        np.testing.assert_array_equal(oa.color, ob.color)
    np.testing.assert_array_equal(a.floor_color, b.floor_color)


def test_scenes_vary_with_seed():
    colors = [ds.generate_scene(s).objects[0].color for s in range(6)]
    assert np.std([c[0] for c in colors]) > 0


@pytest.mark.parametrize("seed", range(25))
def test_object_count_range(seed):
    assert 2 <= len(ds.generate_scene(seed).objects) <= 4


def test_trace_matches_scalar_oracle():
    spec = ds.generate_scene(3)
    rng = np.random.default_rng(0)
    origins = rng.uniform([-3, -3, 0.2], [3, 3, 2.0], size=(200, 3))
    dirs = rng.standard_normal((200, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    t_vec, id_vec = ds.trace_rays(spec, origins, dirs)
    for i in range(200):
        t_ref, id_ref = trace_ray_scalar(spec, origins[i], dirs[i])
        assert id_vec[i] == id_ref
        if np.isfinite(t_ref):
            assert abs(t_vec[i] - t_ref) <= 1e-9 * max(1.0, t_ref)
        else:
            assert not np.isfinite(t_vec[i])


def test_rig_pose_geometry():
    for angle in (0.0, 120.0, 240.0):
        pose = ds.rig_pose(angle)
        r = pose.rotation
        np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) > 0
        # optical axis points at the origin
        fwd = r[:, 2]
        np.testing.assert_allclose(fwd, -pose.origin / np.linalg.norm(pose.origin), atol=1e-12)
        # image x axis stays horizontal in the world
        assert abs(r[2, 0]) < 1e-12


def test_render_shapes_and_range():
    spec = ds.generate_scene(7)
    intr, pose = ds.rig_views(32, 32)[0]
    view = ds.render_view(spec, intr, pose, 32, 32)
    assert view.image.shape == (3, 32, 32)
    assert view.depth.shape == (32, 32)
    assert view.image.dtype == np.float32
    assert view.image.min() >= 0.0 and view.image.max() <= 1.0


def test_depth_bound_and_sky():
    spec = ds.generate_scene(7)
    intr, pose = ds.rig_views(32, 32)[0]
    view = ds.render_view(spec, intr, pose, 32, 32)
    finite = view.depth[np.isfinite(view.depth)]
    assert finite.size > 0, "no surface hit at all"
    assert (~np.isfinite(view.depth)).sum() > 0, "expected sky above the horizon"
    assert finite.min() > 0.5
    assert finite.max() < ds.DEPTH_BOUND


def test_sky_pixels_carry_background_color():
    spec = ds.generate_scene(9)
    intr, pose = ds.rig_views(16, 16)[0]
    view = ds.render_view(spec, intr, pose, 16, 16)
    sky = ~np.isfinite(view.depth)
    assert sky.any()
    for c in range(3):
        np.testing.assert_allclose(view.image[c][sky], ds.BACKGROUND[c], atol=1e-6)


def test_depth_equals_oracle_distance():
    spec = ds.generate_scene(11)
    intr, pose = ds.rig_views(16, 16)[0]
    view = ds.render_view(spec, intr, pose, 16, 16)
    centers = patch_centers(PatchGrid(16, 16, 1))
    dirs = unproject(intr, pose, centers)
    for flat in (0, 77, 130, 255):
        t_ref, _ = trace_ray_scalar(spec, pose.origin, dirs[flat])
        i, j = divmod(flat, 16)
        if np.isfinite(t_ref):
            assert abs(view.depth[i, j] - t_ref) < 1e-5
        else:
            assert not np.isfinite(view.depth[i, j])


def test_cross_view_consistency():
    """A surface point seen in view A cannot lie behind view B's first hit."""
    spec = ds.generate_scene(5)
    views = ds.render_scene_views(spec, 48, 48)
    a, b = views[0], views[1]
    centers = patch_centers(PatchGrid(48, 48, 1))
    dirs = unproject(a.intrinsics, a.pose, centers)
    depth = a.depth.reshape(-1).astype(np.float64)
    sel = np.isfinite(depth)
    points = a.pose.origin + dirs[sel] * depth[sel, None]
    ids_a = ds.trace_rays(spec, np.tile(a.pose.origin, (len(points), 1)), dirs[sel])[1]
    to_b = points - b.pose.origin
    dist = np.linalg.norm(to_b, axis=1)
    t_b, ids_b = ds.trace_rays(spec, np.tile(b.pose.origin, (len(points), 1)), to_b / dist[:, None])
    assert (t_b <= dist + 1e-4).all()
    # a 120 degree baseline occludes a lot; some overlap must survive, and
    # mutually visible points must resolve to the same primitive in both views
    visible = np.abs(t_b - dist) < 1e-4
    assert visible.mean() > 0.05
    assert (ids_a[visible] == ids_b[visible]).all()


def test_empty_scene_renders_background_only():
    spec = ds.SceneSpec(objects=(), floor_color=None)
    intr, pose = ds.rig_views(8, 8)[0]
    view = ds.render_view(spec, intr, pose, 8, 8)
    assert not np.isfinite(view.depth).any()
    for c in range(3):
        np.testing.assert_allclose(view.image[c], ds.BACKGROUND[c], atol=1e-6)


def test_dataset_size_roundtrip(tmp_path):
    path = tmp_path / "toy.rpds"
    ds.make_dataset(path, n_scenes=3, height=16, width=16, seed=11)
    assert path.stat().st_size == ds.predicted_file_size(3, 16, 16, seed=11)

    header, scenes = ds.load_dataset(path)
    assert header == {"h": 16, "n_scenes": 3, "seed": 11, "w": 16}
    assert len(scenes) == 3 and all(len(v) == 3 for v in scenes)
    assert [v.role for v in scenes[0]] == [0, 1, 1]

    fresh = ds.render_scene_views(ds.generate_scene(11 + 2), 16, 16)
    for got, want in zip(scenes[2], fresh):
        np.testing.assert_array_equal(got.image, want.image)
        np.testing.assert_array_equal(got.depth, want.depth)
        np.testing.assert_array_equal(got.pose.rotation, want.pose.rotation)
        np.testing.assert_array_equal(got.pose.origin, want.pose.origin)
        assert got.intrinsics == want.intrinsics


def test_dataset_bytes_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.rpds", tmp_path / "b.rpds"
    ds.make_dataset(p1, n_scenes=2, height=8, width=8, seed=4)
    ds.make_dataset(p2, n_scenes=2, height=8, width=8, seed=4)
    assert p1.read_bytes() == p2.read_bytes()


def test_dataset_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.rpds"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        ds.load_dataset(path)
