"""Transformer building blocks: multi-head attention and post-norm residual blocks.

All blocks run on 2-D token matrices [n, d_model]; there is no batch axis.
Cross-attention takes a separate key/value token set, self-attention is the
same computation with queries and keys/values tied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T


@dataclass(frozen=True)
class MhaConfig:
    d_model: int
    heads: int
    d_k: int
    d_v: int

    def __post_init__(self):
        for name in ("d_model", "heads", "d_k", "d_v"):
            if getattr(self, name) < 1:
                raise ValueError(f"MhaConfig.{name} must be positive")


def uniform_init(rng, fan_in, shape):
    """U(-sqrt(1/fan_in), +sqrt(1/fan_in)), the init used for every weight matrix."""
    bound = np.sqrt(1.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Linear:
    def __init__(self, rng, d_in, d_out):
        self.w = T.parameter(uniform_init(rng, d_in, (d_in, d_out)))
        self.b = T.parameter(np.zeros(d_out))

    def __call__(self, x):
        return T.linear(x, self.w, self.b)

    def params(self, prefix):
        return [(prefix + ".w", self.w), (prefix + ".b", self.b)]


def scaled_dot_attention(q, k, v):
    """softmax(q k^T / sqrt(d_k)) v for one head.

    q: [n_q, d_k], k: [n_kv, d_k], v: [n_kv, d_v] -> [n_q, d_v].
    """
    if q.shape[1] != k.shape[1]:
        raise T.DimensionError(f"query dim {q.shape[1]} != key dim {k.shape[1]}")
    if k.shape[0] != v.shape[0]:
        raise T.DimensionError(f"key count {k.shape[0]} != value count {v.shape[0]}")
    scale = 1.0 / np.sqrt(q.shape[1])
    logits = T.mul(T.matmul(q, T.transpose(k, (1, 0))), scale)
    return T.matmul(T.softmax_rows(logits), v)


class MultiHeadAttention:
    """Per-head linear projections, scaled-dot attention, concat, output projection."""

    def __init__(self, cfg, rng):
        self.cfg = cfg
        self.q_proj = [Linear(rng, cfg.d_model, cfg.d_k) for _ in range(cfg.heads)]
        self.k_proj = [Linear(rng, cfg.d_model, cfg.d_k) for _ in range(cfg.heads)]
        self.v_proj = [Linear(rng, cfg.d_model, cfg.d_v) for _ in range(cfg.heads)]
        self.out = Linear(rng, cfg.heads * cfg.d_v, cfg.d_model)

    def __call__(self, x_q, x_kv):
        if x_q.shape[1] != self.cfg.d_model or x_kv.shape[1] != self.cfg.d_model:
            raise T.DimensionError("token width does not match d_model")
        head_outs = []
        for h in range(self.cfg.heads):
            head_outs.append(scaled_dot_attention(
                self.q_proj[h](x_q), self.k_proj[h](x_kv), self.v_proj[h](x_kv)))
        return self.out(T.concat(head_outs, axis=1))

    def params(self, prefix):
        out = []
        for h in range(self.cfg.heads):
            out += self.q_proj[h].params(f"{prefix}.q{h}")
            out += self.k_proj[h].params(f"{prefix}.k{h}")
            out += self.v_proj[h].params(f"{prefix}.v{h}")
        out += self.out.params(f"{prefix}.out")
        return out


class FeedForward:
    """Two linear layers, hidden width 2*d_model, leaky-ReLU in between."""

    def __init__(self, rng, d_model):
        self.lin1 = Linear(rng, d_model, 2 * d_model)
        self.lin2 = Linear(rng, 2 * d_model, d_model)

    def __call__(self, x):
        return self.lin2(T.leaky_relu(self.lin1(x)))

    def params(self, prefix):
        return self.lin1.params(prefix + ".lin1") + self.lin2.params(prefix + ".lin2")


class LayerNormParams:
    def __init__(self, d):
        self.gamma = T.parameter(np.ones(d))
        self.beta = T.parameter(np.zeros(d))

    def __call__(self, x):
        return T.layer_norm(x, self.gamma, self.beta)

    def params(self, prefix):
        return [(prefix + ".gamma", self.gamma), (prefix + ".beta", self.beta)]


class AttnBlock:
    """Post-norm residual block: LN(x + MHA(x, kv)) then LN(y + FF(y))."""

    def __init__(self, cfg, rng):
        self.mha = MultiHeadAttention(cfg, rng)
        self.ln1 = LayerNormParams(cfg.d_model)
        self.ff = FeedForward(rng, cfg.d_model)
        self.ln2 = LayerNormParams(cfg.d_model)

    def __call__(self, x_q, x_kv=None):
        """Self-attention when x_kv is None, cross-attention otherwise."""
        kv = x_q if x_kv is None else x_kv
        y = self.ln1(T.add(x_q, self.mha(x_q, kv)))
        return self.ln2(T.add(y, self.ff(y)))

    def params(self, prefix):
        return (self.mha.params(prefix + ".mha") + self.ln1.params(prefix + ".ln1")
                + self.ff.params(prefix + ".ff") + self.ln2.params(prefix + ".ln2"))
