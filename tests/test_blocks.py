"""Attention blocks: oracle comparison, permutation structure, gradients."""

import numpy as np
import pytest

from raypatch import blocks as B
from raypatch import flops
from raypatch import tensor as T
from raypatch.model import ModelConfig
from raypatch.tensor import Tensor

from reference_impls import attention_single_head_naive, grad_check, sum_all


@pytest.fixture
def rng():
    return np.random.default_rng(99)


def attn_cfg(d_model, heads, d_k, d_v):
    """A model config with these attention sizes, the only fields a block reads."""
    return ModelConfig(height=8, width=8, d_model=d_model, heads=heads, d_k=d_k, d_v=d_v)


CFG = attn_cfg(d_model=16, heads=2, d_k=8, d_v=8)


class TestMultiHeadAttention:
    def test_single_head_identity_projections_reduce(self, rng):
        # with identity Q/K/V/out projections and zero bias, MHA collapses to
        # plain scaled-dot attention
        cfg = attn_cfg(d_model=6, heads=1, d_k=6, d_v=6)
        mha = B.MultiHeadAttention(cfg, rng)
        eye = np.eye(6)
        mha.k_weight.data[...] = eye
        for lin in (mha.q_proj, mha.v_proj, mha.out):
            lin.w.data[...] = eye
            lin.b.data[...] = 0.0
        xq = Tensor(rng.standard_normal((4, 6)))
        xkv = Tensor(rng.standard_normal((9, 6)))
        got = mha(xq, xkv).data
        want = attention_single_head_naive(xq.data, xkv.data, xkv.data)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_output_shape(self, rng):
        mha = B.MultiHeadAttention(CFG, rng)
        out = mha(Tensor(rng.standard_normal((5, 16))), Tensor(rng.standard_normal((11, 16))))
        assert out.shape == (5, 16)

    def test_heads_match_per_head_loop(self, rng):
        # recompute each head by hand from its column block of the fused projections
        mha = B.MultiHeadAttention(CFG, rng)
        for lin in (mha.q_proj, mha.v_proj):  # nonzero biases, to see their blocks
            lin.b.data[...] = rng.standard_normal(lin.b.shape)
        xq = Tensor(rng.standard_normal((3, 16)))
        xkv = Tensor(rng.standard_normal((6, 16)))
        got = mha(xq, xkv).data

        def head(w, b, x, h, d):
            cols = slice(h * d, (h + 1) * d)
            return x.data @ w.data[:, cols] + (0.0 if b is None else b.data[cols])

        heads = []
        for h in range(CFG.heads):
            q = head(mha.q_proj.w, mha.q_proj.b, xq, h, CFG.d_k)
            k = head(mha.k_weight, None, xkv, h, CFG.d_k)
            v = head(mha.v_proj.w, mha.v_proj.b, xkv, h, CFG.d_v)
            heads.append(attention_single_head_naive(q, k, v))
        want = np.concatenate(heads, axis=1) @ mha.out.w.data + mha.out.b.data
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("heads", [1, 2, 3])
    def test_four_projections_whatever_the_head_count(self, rng, heads):
        mha = B.MultiHeadAttention(attn_cfg(d_model=8, heads=heads, d_k=4, d_v=5), rng)
        assert [n for n, _ in mha.params("m")] == [
            "m.q.w", "m.q.b", "m.k.w", "m.v.w", "m.v.b", "m.out.w", "m.out.b"]
        assert mha.q_proj.w.shape == mha.k_weight.shape == (8, heads * 4)
        assert mha.v_proj.w.shape == (8, heads * 5)

    def test_weights_are_drawn_one_head_at_a_time(self):
        # column block h of q_proj.w is the h-th of `heads` consecutive draws,
        # then K's blocks, then V's: the weights one Linear per head would get
        cfg = attn_cfg(d_model=6, heads=3, d_k=4, d_v=2)
        mha = B.MultiHeadAttention(cfg, np.random.default_rng(5))
        stream = np.random.default_rng(5)
        for w, d in ((mha.q_proj.w, cfg.d_k), (mha.k_weight, cfg.d_k), (mha.v_proj.w, cfg.d_v)):
            for h in range(cfg.heads):
                want = B.uniform_init(stream, cfg.d_model, (cfg.d_model, d))
                np.testing.assert_array_equal(w.data[:, h * d:(h + 1) * d], want)
        np.testing.assert_array_equal(
            mha.out.w.data, B.uniform_init(stream, cfg.heads * cfg.d_v, (cfg.heads * cfg.d_v, 6)))


class TestNoState:
    """Attention keeps no state: a call projects the K/V of ``x_kv`` unless it
    is given them as ``kv``."""

    # the K and V projections of 6 tokens: 2 FLOPs per multiply-accumulate
    KV_FLOPS = 2.0 * 6 * CFG.d_model * CFG.heads * (CFG.d_k + CFG.d_v)

    @staticmethod
    def _counted(mha, x_q, x_kv, kv=None):
        with flops.FlopCounter() as fc:
            out = mha(x_q, x_kv, kv)
        return out, fc.total

    def test_same_x_kv_projects_on_every_call(self, rng):
        mha = B.MultiHeadAttention(CFG, rng)
        xq, xkv = Tensor(rng.standard_normal((3, 16))), Tensor(rng.standard_normal((6, 16)))
        with T.no_grad():
            first, full = self._counted(mha, xq, xkv)
            mha.k_weight.data += 1.0  # the next call must see the new weights
            again, again_flops = self._counted(mha, xq, xkv)
        assert again_flops == full
        assert not np.array_equal(again.data, first.data)

    def test_given_kv_adds_no_kv_flops(self, rng):
        mha = B.MultiHeadAttention(CFG, rng)
        xq, xkv = Tensor(rng.standard_normal((3, 16))), Tensor(rng.standard_normal((6, 16)))
        with T.no_grad():
            projected, full = self._counted(mha, xq, xkv)
            kv = mha.project_kv(xkv)
            given, fewer = self._counted(mha, xq, xkv, kv)
        np.testing.assert_array_equal(given.data, projected.data)
        assert full - fewer == self.KV_FLOPS
        k_t, v = kv
        assert k_t.shape == (CFG.heads * CFG.d_k, 6) and v.shape == (6, CFG.heads * CFG.d_v)

    def test_recorded_given_kv_passes_gradients_to_the_kv_weights(self, rng):
        mha = B.MultiHeadAttention(CFG, rng)
        xq, xkv = Tensor(rng.standard_normal((3, 16))), Tensor(rng.standard_normal((6, 16)))
        with T.no_grad():
            want = mha(xq, xkv).data
        T.tape_clear()
        out = mha(xq, xkv, mha.project_kv(xkv))
        T.backward(sum_all(out))
        np.testing.assert_array_equal(out.data, want)
        assert mha.k_weight.grad is not None
        assert mha.v_proj.w.grad is not None and mha.v_proj.b.grad is not None

    def test_keeps_no_per_call_attribute(self, rng):
        mha = B.MultiHeadAttention(CFG, rng)
        built = dict(vars(mha))
        assert set(built) == {"cfg", "q_proj", "k_weight", "v_proj", "out"}
        xq, xkv = Tensor(rng.standard_normal((3, 16))), Tensor(rng.standard_normal((6, 16)))
        with T.no_grad():
            mha(xq, xkv)
            mha(xq, xkv, mha.project_kv(xkv))
        T.tape_clear()
        mha(xq, xkv)
        T.tape_clear()
        assert vars(mha).keys() == built.keys()
        assert all(vars(mha)[name] is value for name, value in built.items())

    def test_self_attention_projects_on_every_call(self, rng):
        mha = B.MultiHeadAttention(CFG, rng)
        x = Tensor(rng.standard_normal((6, 16)))
        with T.no_grad():
            _, full = self._counted(mha, x, x)
            _, again = self._counted(mha, x, x)
        assert again == full


class TestAttnBlock:
    def test_ff_hidden_width(self, rng):
        block = B.AttnBlock(CFG, rng)
        assert block.ff.lin1.w.shape == (16, 32)
        assert block.ff.lin2.w.shape == (32, 16)

    def test_output_rows_are_normalized(self, rng):
        # post-norm: the final op is a layer norm with unit gamma at init
        block = B.AttnBlock(CFG, rng)
        out = block(Tensor(rng.standard_normal((7, 16)))).data
        np.testing.assert_allclose(out.mean(axis=1), np.zeros(7), atol=1e-12)
        np.testing.assert_allclose(out.var(axis=1), np.ones(7), atol=1e-4)

    def test_self_attention_permutation_equivariant(self, rng):
        block = B.AttnBlock(CFG, rng)
        x = rng.standard_normal((9, 16))
        perm = rng.permutation(9)
        a = block(Tensor(x)).data
        b = block(Tensor(x[perm])).data
        np.testing.assert_allclose(b, a[perm], atol=1e-9)

    def test_cross_kv_permutation_invariant(self, rng):
        block = B.AttnBlock(CFG, rng)
        q = Tensor(rng.standard_normal((4, 16)))
        z = rng.standard_normal((10, 16))
        perm = rng.permutation(10)
        a = block(q, Tensor(z)).data
        b = block(q, Tensor(z[perm])).data
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_param_names_unique(self, rng):
        block = B.AttnBlock(CFG, rng)
        names = [n for n, _ in block.params("blk")]
        assert len(names) == len(set(names))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_block_grad_check(self, seed):
        rng = np.random.default_rng(seed)
        cfg = attn_cfg(d_model=8, heads=2, d_k=4, d_v=4)
        block = B.AttnBlock(cfg, rng)
        x = T.parameter(rng.standard_normal((5, 8)))
        z = Tensor(rng.standard_normal((6, 8)))
        w = Tensor(rng.standard_normal((5, 8)))
        assert grad_check(lambda t: sum_all(T.mul(block(t, z), w)), x) < 1e-4

    @pytest.mark.parametrize("seed", [0, 1])
    def test_self_attention_grad_check(self, seed):
        # x is the query, the key/value tokens and the residual: four paths add into one grad
        rng = np.random.default_rng(seed)
        cfg = attn_cfg(d_model=8, heads=2, d_k=4, d_v=4)
        block = B.AttnBlock(cfg, rng)
        x = T.parameter(rng.standard_normal((5, 8)))
        w = Tensor(rng.standard_normal((5, 8)))
        assert grad_check(lambda t: sum_all(T.mul(block(t), w)), x) < 1e-4

    def test_grad_reaches_every_param(self, rng):
        block = B.AttnBlock(CFG, rng)
        x = Tensor(rng.standard_normal((5, 16)))
        z = Tensor(rng.standard_normal((7, 16)))
        loss = T.mean_all(block(x, z))
        T.backward(loss)
        for name, p in block.params("blk"):
            assert p.grad is not None, name

    def test_weight_param_grad_check(self, rng):
        # differentiate through a projection weight, not just the input
        cfg = attn_cfg(d_model=8, heads=2, d_k=4, d_v=4)
        block = B.AttnBlock(cfg, np.random.default_rng(3))
        x = Tensor(rng.standard_normal((4, 8)))
        w = Tensor(rng.standard_normal((4, 8)))
        target = block.mha.q_proj.w
        assert grad_check(lambda t: sum_all(T.mul(block(x), w)), target) < 1e-4
