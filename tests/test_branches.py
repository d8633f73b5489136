"""Branches: without gradient recording, attention heads, K/V projections and
input views run on the caller's thread and spare CPUs, with serial results.

Tier-1 does not pin BLAS to one thread, so no CPU is spare there and the
branch path would never run; the ``branched`` fixture forces it with one
worker and a size rule that every branch of the tiny config passes.
"""

import os
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor, wait
from pathlib import Path

import numpy as np
import pytest

from raypatch import datasynth as ds
from raypatch import flops
from raypatch import model as M
from raypatch import tensor as T
from raypatch.costmodel import AttnProductCost

RENDER = dict(height=128, width=128, k=8, d_model=256, heads=4, d_k=64, d_v=64,
              downsamplings=3)


def tiny_cfg(**kw):
    base = dict(height=16, width=16, k=2, d_model=16, heads=2, d_k=8, d_v=8,
                n_freq_origin=2, n_freq_dir=2, feature_channels=8, seed=0)
    base.update(kw)
    return M.ModelConfig(**base)


def rig_inputs(size, seed=1):
    views = ds.render_scene_views(ds.generate_scene(seed), size, size)
    return [(v.image, v.intrinsics, v.pose) for v in views]


def ring(size, n):
    return [(ds.rig_intrinsics(size, size), ds.rig_pose(15.0 + 360.0 * i / n)) for i in range(n)]


class CountingPool:
    """A worker pool that counts what it is handed and runs it."""

    def __init__(self, pool):
        self.pool, self.submitted, self.futures = pool, 0, []

    def submit(self, fn):
        self.submitted += 1
        self.futures.append(self.pool.submit(fn))
        return self.futures[-1]


@pytest.fixture
def branched(monkeypatch):
    """One spare worker, every branch above the size rule; yields the pool."""
    pool = CountingPool(ThreadPoolExecutor(max_workers=1))
    monkeypatch.setattr(T, "_SPARE", 1)
    monkeypatch.setattr(T, "BRANCH_FLOPS", 0.0)
    monkeypatch.setattr(T, "_pool", pool)
    yield pool
    pool.pool.shutdown()


def serial_and_branched(monkeypatch, pool, run):
    """``run()`` with no spare worker, then with the branch path forced."""
    monkeypatch.setattr(T, "_SPARE", 0)
    serial = run()
    assert pool.submitted == 0
    monkeypatch.setattr(T, "_SPARE", 1)
    parallel = run()
    assert pool.submitted > 0
    return serial, parallel


def no_grad_branches(fn, args, flops_each):
    with T.no_grad():
        return T._branches(fn, args, flops_each)


class TestBranches:
    def test_results_come_back_in_branch_order(self, branched):
        got = no_grad_branches(lambda i, j: (i, j, threading.get_ident()),
                               [(i, -i) for i in range(9)], 1.0)
        assert [(i, j) for i, j, _ in got] == [(i, -i) for i in range(9)]
        assert branched.submitted == 1

    def test_below_the_size_rule_runs_on_the_caller(self, branched, monkeypatch):
        monkeypatch.setattr(T, "BRANCH_FLOPS", 2e7)
        caller = threading.get_ident()
        got = no_grad_branches(lambda: threading.get_ident(), [()] * 4, 2e7 - 1)
        assert got == [caller] * 4 and branched.submitted == 0
        no_grad_branches(lambda: None, [()] * 4, 2e7)
        assert branched.submitted == 1

    def test_recording_never_submits(self, branched):
        m = M.LightFieldModel(tiny_cfg(), "raypatch")
        views = ds.render_scene_views(ds.generate_scene(1), 16, 16)
        T.tape_clear()
        M.train_step(m, views, M.Adam(m.named_parameters(), lr=1e-3))
        assert branched.submitted == 0
        with T.no_grad():
            m.decode(m.encode(rig_inputs(16)), *ring(16, 1)[0])
        assert branched.submitted > 0

    def test_a_raising_branch_waits_for_its_sibling(self, branched):
        caller, both = threading.get_ident(), threading.Barrier(2, timeout=10)
        done = threading.Event()

        def branch(i):
            both.wait()  # one branch on each thread
            if threading.get_ident() == caller:
                raise ValueError("the caller's branch")
            time.sleep(0.05)
            done.set()

        with pytest.raises(ValueError, match="the caller's branch"):
            no_grad_branches(branch, [(0,), (1,)], 1.0)
        assert done.is_set()

    def test_a_worker_runs_under_the_callers_error_state(self, branched):
        both = threading.Barrier(2, timeout=10)

        def overflow(_):
            both.wait()  # one branch on each thread
            return np.float64(1e300) * np.float64(1e300)

        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            no_grad_branches(overflow, [(0,), (1,)], 1.0)
        both.reset()
        with warnings.catch_warnings(), np.errstate(over="ignore"):
            warnings.simplefilter("error")
            assert no_grad_branches(overflow, [(0,), (1,)], 1.0) == [np.inf, np.inf]


def test_add_flops_loses_no_update_across_threads():
    """More threads than cores and a short switch interval: an unlocked
    read-modify-write of the counters would lose updates."""
    n, interval = 20000, sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with flops.FlopCounter() as fc, flops.stage("s"):
            threads = [threading.Thread(target=lambda: [flops.add_flops(1.0) for _ in range(n)])
                       for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert (fc.total, fc.by_stage) == (4 * n, {"s": 4 * n})


class TestAttention:
    """``tensor.attention`` runs its heads as branches."""

    HEADS, N_Q, N_KV, D_K, D_V = 8, 64, 96, 8, 6

    def qkv(self):
        rng = np.random.default_rng(4)
        return [T.parameter(rng.standard_normal(shape)) for shape in (
            (self.N_Q, self.HEADS * self.D_K), (self.HEADS * self.D_K, self.N_KV),
            (self.N_KV, self.HEADS * self.D_V))]

    @pytest.mark.parametrize("record", [True, False])
    def test_flops_are_the_attn_product_cost(self, branched, monkeypatch, record):
        q, k_t, v = self.qkv()
        want = AttnProductCost(self.HEADS, self.N_Q, self.N_KV, self.D_K, self.D_V).flops()

        def run():
            T.tape_clear()
            with flops.FlopCounter() as fc:
                if record:
                    out = T.attention(q, k_t, v, self.HEADS)
                else:
                    with T.no_grad():
                        out = T.attention(q, k_t, v, self.HEADS)
            T.tape_clear()
            return fc.total, out.data

        monkeypatch.setattr(T, "_SPARE", 0)
        serial, serial_out = run()
        assert branched.submitted == 0
        monkeypatch.setattr(T, "_SPARE", 1)
        parallel, parallel_out = run()
        assert branched.submitted == (0 if record else 1)  # recorded calls run in turn
        assert serial == parallel == want
        np.testing.assert_array_equal(parallel_out, serial_out)

    def test_a_no_grad_call_keeps_no_heads_probabilities(self, branched):
        tracemalloc = pytest.importorskip("tracemalloc")
        q, k_t, v = self.qkv()
        with T.no_grad():
            T.attention(q, k_t, v, self.HEADS)  # the worker thread starts before tracing
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                out = T.attention(q, k_t, v, self.HEADS)
                held, peak = (m - before for m in tracemalloc.get_traced_memory())
            finally:
                tracemalloc.stop()
        assert branched.submitted == 2
        # afterwards only the output; one head's probabilities are 48 KiB
        assert out.data.nbytes <= held <= out.data.nbytes + 4096, held
        # during the call: the heads' outputs and their join, and on each of
        # the two lanes one head's logits under softmax_rows, which allocates
        # the probabilities and a broadcast buffer of numpy's (8192 elements
        # at most, here logit-sized). Eight heads' probabilities kept to the
        # end of the call would pass it.
        logits = self.N_Q * self.N_KV * 8
        assert peak <= 2 * out.data.nbytes + 2 * 3 * logits + 4096, peak


@pytest.mark.parametrize("kind", ["raypatch", "pixel"])
class TestBranchedModel:
    def test_tokens_and_decodes_bit_equal_to_serial(self, kind, branched, monkeypatch):
        m = M.LightFieldModel(tiny_cfg(), kind)

        def run():
            with T.no_grad():
                z = m.encode(rig_inputs(16))
                return [z.data] + [m.decode(z, intr, pose).data for intr, pose in ring(16, 3)]

        serial, parallel = serial_and_branched(monkeypatch, branched, run)
        for a, b in zip(serial, parallel):
            np.testing.assert_array_equal(b, a)

    def test_stage_flops_equal_layer_spec_over_20_decodes(self, kind, branched):
        """add_flops from two threads loses no update."""
        m = M.LightFieldModel(tiny_cfg(), kind)
        inputs = rig_inputs(16)
        with T.no_grad(), flops.FlopCounter() as fc:
            z = m.encode(inputs)
            for intr, pose in ring(16, 20):
                m.decode(z, intr, pose)
        assert branched.submitted > 0
        want = M.stage_flops(m.encoder.layer_spec(len(inputs)),
                             m.decoder.layer_spec(z.shape[0], 20))
        assert fc.by_stage == pytest.approx(want, rel=1e-12)

    def test_softmax_sees_each_heads_whole_logits(self, kind, branched, monkeypatch):
        cfg = tiny_cfg()
        m = M.LightFieldModel(cfg, kind)
        with T.no_grad():
            z = m.encode(rig_inputs(16))
        shapes, softmax_rows = [], T.softmax_rows

        def spy(x):
            shapes.append(x.shape)
            return softmax_rows(x)

        monkeypatch.setattr(T, "softmax_rows", spy)
        with T.no_grad():
            m.decode(z, *ring(16, 1)[0])
        n_q = (cfg.height // m.decoder.k) * (cfg.width // m.decoder.k)
        assert shapes == [(n_q, z.shape[0])] * (cfg.heads * cfg.dec_blocks)

    def test_non_finite_decode_raises_without_a_warning(self, kind, branched):
        m = M.LightFieldModel(tiny_cfg(d_model=64, d_k=32, d_v=32), kind)
        with T.no_grad():
            z = m.encode(rig_inputs(16))
        m.decoder.blocks[0].mha.v_proj.b.data[:] = -np.inf  # inf - inf in the V branch
        with warnings.catch_warnings(), np.errstate(all="ignore"), T.no_grad():
            warnings.simplefilter("error")
            # 64 copies of the tokens: K and V each take long enough for the
            # worker to take one of them
            huge = m.decoder.scene(T.Tensor(np.tile(z.data, (64, 1)) * 1e308))
            with pytest.raises(T.NumericError, match="softmax_rows: non-finite input"):
                m.decode(huge, *ring(16, 1)[0])
        assert branched.submitted > 0

    def test_non_finite_encode_raises_without_a_warning(self, kind, branched):
        m = M.LightFieldModel(tiny_cfg(), kind)
        m.encoder.convs[0].w.data *= 1e308  # the view branches overflow
        with warnings.catch_warnings(), np.errstate(all="ignore"), T.no_grad():
            warnings.simplefilter("error")
            with pytest.raises(T.NumericError, match="softmax_rows: non-finite input"):
                m.encode(rig_inputs(16))
        assert branched.submitted > 0


class TestViewBranches:
    """Each encoder view is one branch, from the raw view to its tokens."""

    def test_each_branch_calls_the_bound_ray_feature_map(self, branched, monkeypatch):
        threads, ray_feature_map = [], M.ray_feature_map
        both = threading.Barrier(2, timeout=10)

        def counted(*args, **kw):
            threads.append(threading.get_ident())
            if len(threads) <= 2:
                both.wait()  # the first two views, one on each thread
            return ray_feature_map(*args, **kw)

        monkeypatch.setattr(M, "ray_feature_map", counted)
        m = M.LightFieldModel(tiny_cfg(), "raypatch")
        with T.no_grad():
            m.encode(rig_inputs(16))
        assert len(threads) == 3 and threading.get_ident() in threads
        assert len(set(threads)) == 2

    def test_a_wrong_image_in_the_last_view_raises_from_the_worker(self, branched, monkeypatch):
        caller, ray_feature_map = threading.get_ident(), M.ray_feature_map

        def worker_first(*args, **kw):
            if threading.get_ident() == caller:
                wait(branched.futures, timeout=10)  # the worker takes the last view
            return ray_feature_map(*args, **kw)

        monkeypatch.setattr(M, "ray_feature_map", worker_first)
        m = M.LightFieldModel(tiny_cfg(), "raypatch")
        inputs = rig_inputs(16)
        image, intr, pose = inputs[-1]
        inputs[-1] = (image[:, :8], intr, pose)
        with T.no_grad(), pytest.raises(
                ValueError, match=r"^input image must be \[3, 16, 16\], got \[3, 8, 16\]$"):
            m.encode(inputs)
        assert branched.submitted == 1
        assert isinstance(branched.futures[0].exception(), ValueError)


def _branch_flops(monkeypatch, cfg, kind, views, decodes):
    """flops_each of every ``_branches`` call of a no-grad encode and decodes."""
    seen, branches = [], T._branches

    def spy(fn, args, flops_each):
        seen.append(flops_each)
        return branches(fn, args, flops_each)

    monkeypatch.setattr(T, "_branches", spy)
    m = M.LightFieldModel(cfg, kind)
    with T.no_grad():
        z = m.encode(rig_inputs(cfg.height)[:views])
        for intr, pose in ring(cfg.height, decodes):
            m.decode(z, intr, pose)
    return seen


class TestSizeRule:
    """The benchmark's workloads fall on both sides of BRANCH_FLOPS."""

    def test_every_branch_of_the_render_config_is_above_it(self, monkeypatch):
        seen = _branch_flops(monkeypatch, M.ModelConfig(**RENDER), "raypatch", 3, 1)
        # views, encoder K/V and heads per block, decoder K/V and heads per block
        assert len(seen) == 1 + 2 * 2 + 2 * 2
        assert min(seen) >= T.BRANCH_FLOPS

    def test_every_branch_of_the_cli_default_raypatch_model_is_below_it(self, monkeypatch):
        seen = _branch_flops(monkeypatch, M.ModelConfig(height=32, width=32), "raypatch", 3, 2)
        assert seen and max(seen) < T.BRANCH_FLOPS


_SPARE_PROBE = "from raypatch import tensor as T; print(T._SPARE, T._blas_threads())"


def test_spare_workers_are_usable_cpus_minus_blas_threads():
    src = str(Path(M.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", _SPARE_PROBE], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    spare, blas = run.stdout.split()
    if blas == "None":
        pytest.skip("numpy's BLAS reports no thread count")
    assert (int(spare), int(blas)) == (max(len(os.sched_getaffinity(0)) - 1, 0), 1)


def test_an_unknown_blas_leaves_no_spare_worker(monkeypatch):
    monkeypatch.setattr(T, "_blas_threads", lambda: None)
    assert T._spare_workers() == 0
