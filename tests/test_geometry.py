"""Patch centers, ray casting, Fourier query encoding."""

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
        np.testing.assert_array_equal(G.patch_centers(2, 2, 2), [[1.0, 1.0]])

    def test_centers_4x4_k2(self):
        got = G.patch_centers(4, 4, 2)
        np.testing.assert_array_equal(got, [[1, 1], [3, 1], [1, 3], [3, 3]])

    def test_patch_count(self):
        assert G.patch_centers(32, 64, 8).shape == (32 * 64 // 64, 2)

    def test_k1_centers_are_pixel_centers(self):
        got = G.patch_centers(2, 3, 1)
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

    def test_against_naive_at_the_model_frequencies(self, rng):
        # F = 10 is ModelConfig's default. Each angle-doubling step about doubles
        # the error it is handed, so frequency f is off by about 2^f unit
        # roundoffs (2^-53): near 1e-13 at f = 9, and 1e-12 leaves a margin
        v = rng.uniform(-3.0, 3.0, (400, 3))
        got = G.fourier_encode(v, 10)
        want = np.stack([fourier_encode_naive(row, 10) for row in v])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_freq", [0, 1])
    def test_bit_equal_to_naive_without_doubling(self, rng, n_freq):
        v = rng.uniform(-3.0, 3.0, 50)
        np.testing.assert_array_equal(G.fourier_encode(v, n_freq), fourier_encode_naive(v, n_freq))

    def test_batched_matches_rowwise(self, rng):
        vs = rng.standard_normal((6, 3))
        got = G.fourier_encode(vs, 3)
        for i in range(6):
            np.testing.assert_array_equal(got[i], G.fourier_encode(vs[i], 3))


class TestQueries:
    def test_shape_and_dim(self, rng, intr):
        pose = random_pose(rng)
        q = G.build_queries(intr, pose, 16, 16, 4, f_origin=10, f_dir=10)
        assert q.shape == (16, G.query_dim(10, 10))
        assert q.shape[1] == 120

    def test_k1_equals_pixel_rays(self, rng, intr):
        pose = random_pose(rng)
        q_px = G.build_queries(intr, pose, 8, 8, 1, 4, 4)
        fmap = G.ray_feature_map(intr, pose, 8, 8, 4)
        np.testing.assert_array_equal(
            fmap, q_px.data[:, 24:].reshape(8, 8, -1).transpose(2, 0, 1))

    def test_direction_block_matches_centers(self, rng, intr):
        pose = random_pose(rng)
        q = G.build_queries(intr, pose, 8, 8, 2, f_origin=2, f_dir=3)
        dirs = G.unproject(intr, pose, G.patch_centers(8, 8, 2))
        want = G.fourier_encode(dirs, 3)
        np.testing.assert_array_equal(q.data[:, 12:], want)

    def test_origin_block_constant_across_rows(self, rng, intr):
        pose = random_pose(rng)
        q = G.build_queries(intr, pose, 8, 8, 4, 5, 5)
        assert np.all(q.data[:, :30] == q.data[0, :30])

    @pytest.mark.parametrize("f_origin,f_dir", [(5, 5), (3, 5), (5, 3), (0, 3), (3, 0)])
    def test_origin_code_is_the_query_origin_block(self, rng, intr, f_origin, f_dir):
        # the map holds the directions only; the origin is one vector per view
        pose = random_pose(rng)
        q = G.build_queries(intr, pose, 8, 8, 2, f_origin, f_dir)
        code = G.origin_code(pose, f_origin)
        np.testing.assert_array_equal(code, G.fourier_encode(pose.origin / G.SCENE_RADIUS,
                                                             f_origin))
        n_origin = 6 * f_origin
        np.testing.assert_array_equal(q.data[:, :n_origin], np.broadcast_to(code, (16, n_origin)))
        assert G.ray_feature_map(intr, pose, 8, 8, f_dir).shape == (6 * f_dir, 8, 8)
