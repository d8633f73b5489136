"""Finite-difference gradient battery: every op, block and model leaf, two seeds.

Each case maps one leaf tensor through the code under test to a scalar and
compares autodiff against central differences. One generator per seed draws
every case's inputs in a fixed order, so a case's inputs depend on the seed
and on the cases drawn before it, not on which cases a run selects.
"""

import numpy as np
import pytest

from raypatch import datasynth as ds
from raypatch import model as M
from raypatch import tensor as T
from raypatch.blocks import AttnBlock, FeedForward, MultiHeadAttention

from reference_impls import grad_check, sum_all

OP_TOL = 1e-5
MODEL_TOL = 1e-4
STEP = 1e-5
SEEDS = (0, 11)


def _op_cases(rng):
    """(name, f, leaf) triples where f(leaf) is a scalar through one op."""
    w = T.Tensor(rng.standard_normal((6, 4)))
    bias = T.Tensor(rng.standard_normal(4))
    conv_w = T.Tensor(rng.standard_normal((3, 3, 3, 2)) * 0.3)
    gamma = T.Tensor(rng.uniform(0.5, 1.5, 8))
    beta = T.Tensor(rng.standard_normal(8))
    in_gamma, in_beta = T.Tensor(np.ones(2)), T.Tensor(np.zeros(2))
    idx = rng.permutation(24)[:7]
    # probes turn row-normalized outputs into informative scalars; every one
    # must be drawn up front or finite differencing sees a moving target
    probe_sm = T.Tensor(rng.standard_normal((4, 5)))
    probe_ln = T.Tensor(rng.standard_normal((3, 8)))
    probe_in = T.Tensor(rng.standard_normal((2, 4, 4)))
    # rows added later draw from a child generator, so every other row keeps
    # the inputs that rng's stream gives it
    late, later, latest = rng.spawn(3)
    probe_attn = T.Tensor(late.standard_normal((5, 4)))
    # conv2d's uniform channels: the weight's last 3 read conv_o at every pixel
    conv_o = later.standard_normal(3)
    conv_wu = T.Tensor(later.standard_normal((3, 3, 3, 5)) * 0.3)
    conv_xu = T.Tensor(later.standard_normal((2, 5, 7)))
    probe_s2 = T.Tensor(later.standard_normal((3, 3, 4)))
    probe_s1 = T.Tensor(later.standard_normal((3, 4, 6)))
    # attention with 2 heads, d_k = 3 and d_v = 2, on 5 queries and 7 keys
    attn_q = T.Tensor(latest.standard_normal((5, 6)))
    attn_k_t = T.Tensor(latest.standard_normal((6, 7)))
    attn_v = T.Tensor(latest.standard_normal((7, 4)))

    return [
        ("matmul", lambda x: sum_all(T.matmul(x, w)),
         T.Tensor(rng.standard_normal((5, 6)))),
        ("attention_q", lambda x: sum_all(T.mul(T.attention(x, attn_k_t, attn_v, 2), probe_attn)),
         T.Tensor(late.standard_normal((5, 6)))),
        ("attention_k", lambda x: sum_all(T.mul(T.attention(attn_q, x, attn_v, 2), probe_attn)),
         T.Tensor(latest.standard_normal((6, 7)))),
        ("attention_v", lambda x: sum_all(T.mul(T.attention(attn_q, attn_k_t, x, 2), probe_attn)),
         T.Tensor(latest.standard_normal((7, 4)))),
        ("linear", lambda x: sum_all(T.linear(x, w, bias)),
         T.Tensor(rng.standard_normal((3, 6)))),
        ("softmax", lambda x: sum_all(T.mul(T.softmax_rows(x), probe_sm)),
         T.Tensor(rng.standard_normal((4, 5)))),
        ("layer_norm", lambda x: sum_all(T.mul(T.layer_norm(x, gamma, beta),
                                                 probe_ln)),
         T.Tensor(rng.standard_normal((3, 8)))),
        ("conv2d_s1", lambda x: sum_all(T.conv2d(x, conv_w)),
         T.Tensor(rng.standard_normal((2, 5, 6)))),
        ("conv2d_s2", lambda x: sum_all(T.conv2d(x, conv_w, stride=2)),
         T.Tensor(rng.standard_normal((2, 6, 6)))),
        # odd sides: a phase map's last row and column lie outside the input
        ("conv2d_s2_odd", lambda x: sum_all(T.conv2d(x, conv_w, stride=2)),
         T.Tensor(late.standard_normal((2, 5, 7)))),
        ("instance_norm", lambda x: sum_all(T.mul(
            T.instance_norm(x, in_gamma, in_beta), probe_in)),
         T.Tensor(rng.standard_normal((2, 4, 4)))),
        ("leaky_relu", lambda x: sum_all(T.leaky_relu(x)),
         T.Tensor(rng.standard_normal(40) + 0.05)),
        ("absolute", lambda x: sum_all(T.absolute(x)),
         T.Tensor(rng.standard_normal(12) + 0.3)),
        ("take", lambda x: sum_all(T.take(x, idx)),
         T.Tensor(rng.standard_normal((4, 6)))),
        ("bilinear2x", lambda x: sum_all(T.upsample_bilinear2x(x)),
         T.Tensor(rng.standard_normal((2, 3, 4)))),
        ("nearest2x", lambda x: sum_all(T.upsample_nearest2x(x)),
         T.Tensor(rng.standard_normal((2, 3, 4)))),
        # the probes weight each border position differently
        ("conv2d_uniform_w", lambda wt: sum_all(T.mul(
            T.conv2d(conv_xu, wt, stride=2, uniform=conv_o), probe_s2)),
         T.Tensor(later.standard_normal((3, 3, 3, 5)) * 0.3)),
        ("conv2d_uniform_x", lambda x: sum_all(T.mul(
            T.conv2d(x, conv_wu, uniform=conv_o), probe_s1)),
         T.Tensor(later.standard_normal((2, 4, 6)))),
    ]


def _block_cases(rng):
    cfg = M.ModelConfig(height=8, width=8, d_model=8, heads=2, d_k=4, d_v=4)
    mha = MultiHeadAttention(cfg, rng)
    block = AttnBlock(cfg, rng)
    ff = FeedForward(rng, 8)
    kv = T.Tensor(rng.standard_normal((6, 8)))
    probe = T.Tensor(rng.standard_normal((5, 8)))

    return [
        ("mha_cross", lambda x: sum_all(T.mul(mha(x, kv), probe)),
         T.Tensor(rng.standard_normal((5, 8)))),
        ("attn_block_self", lambda x: sum_all(T.mul(block(x), probe)),
         T.Tensor(rng.standard_normal((5, 8)))),
        ("attn_block_cross", lambda x: sum_all(T.mul(block(x, kv), probe)),
         T.Tensor(rng.standard_normal((5, 8)))),
        ("feed_forward", lambda x: sum_all(T.mul(ff(x), probe)),
         T.Tensor(rng.standard_normal((5, 8)))),
    ]


def _model_cases(rng, seed):
    cfg = M.ModelConfig(height=8, width=8, k=2, d_model=16, heads=2, d_k=8, d_v=8,
                        n_freq_origin=2, n_freq_dir=2, feature_channels=8,
                        downsamplings=2, seed=seed)
    views = ds.render_scene_views(ds.generate_scene(seed), 8, 8)
    target = views[1]

    cases = []
    for kind in ("raypatch", "pixel"):
        model = M.LightFieldModel(cfg, kind)
        named = dict(model.named_parameters())

        def loss_fixed(_leaf, model=model):
            # the leaf under test lives inside the model; the input stays put
            z = model.encode([(views[0].image, views[0].intrinsics, views[0].pose)])
            out = model.decode(z, target.intrinsics, target.pose)
            total, _ = M.loss_total(out, target.image, target.depth)
            return total

        # the first conv's offset reaches the loss through conv1's input gradient
        cases.append((f"{kind}_conv0_beta", loss_fixed, named["enc.conv0.beta"]))
        cases.append((f"{kind}_embed_bias", loss_fixed, named["dec.embed.b"]))
        head = "dec.final.b" if kind == "raypatch" else "dec.head2.b"
        cases.append((f"{kind}_head_bias", loss_fixed, named[head]))
        cases.append((f"{kind}_ln_gamma", loss_fixed, named["enc.block0.ln1.gamma"]))
    return cases


def battery(seed):
    """{name: (f, leaf, tol)} of every case, drawn from one generator."""
    rng = np.random.default_rng(seed)
    cases = {name: (f, leaf, OP_TOL) for name, f, leaf in _op_cases(rng)}
    cases.update((name, (f, leaf, MODEL_TOL)) for name, f, leaf in _block_cases(rng))
    cases.update((name, (f, leaf, MODEL_TOL)) for name, f, leaf in _model_cases(rng, seed))
    return cases


NAMES = list(battery(0))


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("seed", SEEDS)
def test_autodiff_matches_finite_differences(seed, name):
    f, leaf, tol = battery(seed)[name]
    err = grad_check(f, leaf, step=STEP)
    assert err <= tol, f"{name} at seed {seed}: rel err {err:.3e} > {tol:.0e}"
