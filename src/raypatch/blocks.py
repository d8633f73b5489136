"""Transformer building blocks: multi-head attention and post-norm residual blocks.

All blocks run on 2-D token matrices [n, d_model]; there is no batch axis.
Cross-attention takes a separate key/value token set, self-attention is the
same computation with queries and keys/values tied. A block takes the
model's ``ModelConfig`` and reads ``d_model``, ``heads``, ``d_k`` and ``d_v``
from it.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .costmodel import AttnProductCost, LinearCost


def uniform_init(rng, fan_in, shape):
    """U(-sqrt(1/fan_in), +sqrt(1/fan_in)), the init used for every weight matrix."""
    bound = np.sqrt(1.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _weight(rng, d_in, d_out, heads=1):
    """[d_in, d_out], one column block per head drawn in turn, as per-head weights would be."""
    w = uniform_init(rng, d_in, (heads, d_in, d_out // heads))
    return T.parameter(w.transpose(1, 0, 2).reshape(d_in, d_out))


class Linear:
    def __init__(self, rng, d_in, d_out, heads=1):
        self.w = _weight(rng, d_in, d_out, heads)
        self.b = T.parameter(np.zeros(d_out))

    def __call__(self, x):
        return T.linear(x, self.w, self.b)

    def cost(self, n):
        """The layer of one call on ``n`` rows."""
        return [LinearCost(n, *self.w.shape)]

    def params(self, prefix):
        return [(prefix + ".w", self.w), (prefix + ".b", self.b)]


class MultiHeadAttention:
    """Fused Q/K/V projections (head h: column block h), all heads in one
    ``tensor.attention`` op, output projection. The keys have no bias: it
    would add one constant to each query's row of logits, which the softmax
    removes.

    A call projects the K/V of ``x_kv`` unless the caller passes them as
    ``kv``, the ``project_kv`` pair of ``x_kv``: a decoder block reads the
    pair its scene holds (``model.Scene``). A call keeps nothing for the
    next.

    Without recording, the K and V projections run as ``tensor._branches``
    when large enough, and so do the heads inside ``tensor.attention``;
    recorded calls run them in turn.
    """

    def __init__(self, cfg, rng):
        self.cfg = cfg
        self.q_proj = Linear(rng, cfg.d_model, cfg.heads * cfg.d_k, cfg.heads)
        self.k_weight = _weight(rng, cfg.d_model, cfg.heads * cfg.d_k, cfg.heads)
        self.v_proj = Linear(rng, cfg.d_model, cfg.heads * cfg.d_v, cfg.heads)
        self.out = Linear(rng, cfg.heads * cfg.d_v, cfg.d_model)

    def project_kv(self, x_kv):
        """(K^T [heads * d_k, n_kv], V [n_kv, heads * d_v]) of the key/value
        tokens, the keys transposed as ``tensor.attention`` reads them."""

        def keys():
            return T.transpose(T.matmul(x_kv, self.k_weight))

        def values():
            return self.v_proj(x_kv)

        k_cost, v_cost = self.kv_cost(x_kv.shape[0])
        k_t, v = T._branches(lambda branch: branch(), [(keys,), (values,)],
                             min(k_cost.flops(), v_cost.flops()))
        return k_t, v

    def kv_cost(self, n_kv):
        """Layers of ``project_kv`` on ``n_kv`` tokens."""
        return [LinearCost(n_kv, *self.k_weight.shape)] + self.v_proj.cost(n_kv)

    def __call__(self, x_q, x_kv, kv=None):
        """Attend from ``x_q`` to ``x_kv``, whose K/V are ``kv`` if given."""
        q = self.q_proj(x_q)  # Q before K and V: the tape order of their gradients
        k_t, v = self.project_kv(x_kv) if kv is None else kv
        return self.out(T.attention(q, k_t, v, self.cfg.heads))

    def cost(self, n_q, n_kv):
        """Layers of a call besides ``project_kv``: Q, the two products, output."""
        cfg = self.cfg
        return (self.q_proj.cost(n_q) + [AttnProductCost(cfg.heads, n_q, n_kv, cfg.d_k, cfg.d_v)]
                + self.out.cost(n_q))

    def params(self, prefix):
        return (self.q_proj.params(f"{prefix}.q") + [(f"{prefix}.k.w", self.k_weight)]
                + self.v_proj.params(f"{prefix}.v") + self.out.params(f"{prefix}.out"))


class FeedForward:
    """Two linear layers, hidden width 2*d_model, leaky-ReLU in between."""

    def __init__(self, rng, d_model):
        self.lin1 = Linear(rng, d_model, 2 * d_model)
        self.lin2 = Linear(rng, 2 * d_model, d_model)

    def __call__(self, x):
        return self.lin2(T.leaky_relu(self.lin1(x)))

    def cost(self, n):
        return self.lin1.cost(n) + self.lin2.cost(n)

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

    def __call__(self, x_q, x_kv=None, kv=None):
        """Self-attention when x_kv is None, cross-attention otherwise (``kv``:
        the K/V of ``x_kv``, as ``MultiHeadAttention`` takes them)."""
        x_kv = x_q if x_kv is None else x_kv
        y = self.ln1(T.add(x_q, self.mha(x_q, x_kv, kv)))
        return self.ln2(T.add(y, self.ff(y)))

    def cost(self, n_q, n_kv):
        """Layers of a call besides its K/V projections (``mha.kv_cost``)."""
        return self.mha.cost(n_q, n_kv) + self.ff.cost(n_q)

    def params(self, prefix):
        return (self.mha.params(prefix + ".mha") + self.ln1.params(prefix + ".ln1")
                + self.ff.params(prefix + ".ff") + self.ln2.params(prefix + ".ln2"))
