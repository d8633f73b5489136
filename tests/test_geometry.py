"""Patch grids, ray casting, Fourier query encoding."""

import numpy as np
import pytest

from raypatch import geometry as G

from reference_impls import fourier_encode_naive, project, unproject_pixel_naive


def random_pose(rng):
    # random rotation via QR; ensure det +1
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return G.CameraPose(q, rng.standard_normal(3) * 2.0)


@pytest.fixture
def rng():
    return np.random.default_rng(77)


@pytest.fixture
def intr():
    return G.CameraIntrinsics(fx=60.0, fy=55.0, cx=32.0, cy=24.0)


class TestPatchGrid:
    def test_center_of_single_patch(self):
        grid = G.PatchGrid(2, 2, 2)
        np.testing.assert_array_equal(G.patch_centers(grid), [[1.0, 1.0]])

    def test_centers_4x4_k2(self):
        grid = G.PatchGrid(4, 4, 2)
        got = G.patch_centers(grid)
        np.testing.assert_array_equal(got, [[1, 1], [3, 1], [1, 3], [3, 3]])

    def test_patch_count(self):
        assert G.PatchGrid(32, 64, 8).n_patches == 32 * 64 // 64

    @pytest.mark.parametrize("h,w,k", [(32, 32, 5), (32, 32, 0), (16, 24, 7)])
    def test_bad_grid_rejected(self, h, w, k):
        with pytest.raises(G.GridError):
            G.PatchGrid(h, w, k)

    def test_k1_centers_are_pixel_centers(self):
        grid = G.PatchGrid(2, 3, 1)
        got = G.patch_centers(grid)
        np.testing.assert_array_equal(
            got, [[0.5, 0.5], [1.5, 0.5], [2.5, 0.5], [0.5, 1.5], [1.5, 1.5], [2.5, 1.5]])


class TestRays:
    def test_unit_norm(self, rng, intr):
        pose = random_pose(rng)
        px = rng.uniform(0, 64, size=(50, 2))
        d = G.unproject(intr, pose, px)
        np.testing.assert_allclose(np.linalg.norm(d, axis=1), np.ones(50), atol=1e-12)

    def test_against_naive(self, rng, intr):
        pose = random_pose(rng)
        px = rng.uniform(0, 64, size=(10, 2))
        got = G.unproject(intr, pose, px)
        for i in range(10):
            want = unproject_pixel_naive(px[i, 0], px[i, 1], intr.fx, intr.fy,
                                         intr.cx, intr.cy, pose.rotation)
            np.testing.assert_allclose(got[i], want, atol=1e-12)

    def test_principal_point_is_optical_axis(self, rng, intr):
        pose = random_pose(rng)
        d = G.unproject(intr, pose, [[intr.cx, intr.cy]])
        np.testing.assert_allclose(d[0], pose.rotation[:, 2], atol=1e-12)

    def test_project_unproject_round_trip(self, rng, intr):
        pose = random_pose(rng)
        px = rng.uniform(0, 64, size=(30, 2))
        dirs = G.unproject(intr, pose, px)
        depth = rng.uniform(0.5, 9.0, size=30)
        points = pose.origin[None, :] + dirs * depth[:, None]
        px_back, z = project(intr, pose, points)
        np.testing.assert_allclose(px_back, px, atol=1e-9)
        assert np.all(z > 0)


class TestFourierEncoding:
    def test_zero_vector(self):
        got = G.fourier_encode(np.zeros(3), 2)
        np.testing.assert_array_equal(got, [0, 1, 0, 1] * 3)

    def test_value_one_single_freq(self):
        got = G.fourier_encode(np.array([1.0]), 1)
        np.testing.assert_allclose(got, [np.sin(np.pi), np.cos(np.pi)], atol=1e-12)
        np.testing.assert_allclose(got, [0.0, -1.0], atol=1e-12)

    def test_against_naive(self, rng):
        v = rng.standard_normal(5)
        got = G.fourier_encode(v, 4)
        np.testing.assert_allclose(got, fourier_encode_naive(v, 4), atol=1e-12)

    def test_batched_matches_rowwise(self, rng):
        vs = rng.standard_normal((6, 3))
        got = G.fourier_encode(vs, 3)
        for i in range(6):
            np.testing.assert_array_equal(got[i], G.fourier_encode(vs[i], 3))


class TestQueries:
    def test_shape_and_dim(self, rng, intr):
        pose = random_pose(rng)
        grid = G.PatchGrid(16, 16, 4)
        q = G.build_queries(intr, pose, grid, f_origin=10, f_dir=10)
        assert q.shape == (16, G.query_dim(10, 10))
        assert q.shape[1] == 120

    def test_k1_equals_pixel_rays(self, rng, intr):
        pose = random_pose(rng)
        q_px = G.build_queries(intr, pose, G.PatchGrid(8, 8, 1), 4, 4)
        fmap = G.ray_feature_map(intr, pose, 8, 8, 4, 4)
        np.testing.assert_array_equal(
            fmap, q_px.data.reshape(8, 8, -1).transpose(2, 0, 1))

    def test_direction_block_matches_centers(self, rng, intr):
        pose = random_pose(rng)
        grid = G.PatchGrid(8, 8, 2)
        q = G.build_queries(intr, pose, grid, f_origin=2, f_dir=3)
        dirs = G.unproject(intr, pose, G.patch_centers(grid))
        want = G.fourier_encode(dirs, 3)
        np.testing.assert_array_equal(q.data[:, 12:], want)

    def test_origin_block_constant_across_rows(self, rng, intr):
        pose = random_pose(rng)
        q = G.build_queries(intr, pose, G.PatchGrid(8, 8, 4), 5, 5)
        assert np.all(q.data[:, :30] == q.data[0, :30])
