"""Per-layer FLOP vocabulary: the layers that ``layer_spec`` returns and ``flops`` checks.

A model is priced as a flat list of layers, each of which answers ``flops()``.
Conventions, shared with the instrumented counter in ``flops``:
  * one multiply-accumulate = 2 FLOPs;
  * an ``AttnProductCost`` is the two scaled-dot products (Q K^T and A V) of
    one attention stage over all heads,
    FLOPs = 2 * heads * n_q * n_kv * (d_k + d_v);
  * elementwise glue (activations, normalization, residual adds) is not priced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class LinearCost:
    n: int
    d_in: int
    d_out: int

    def flops(self):
        return 2.0 * self.n * self.d_in * self.d_out


@dataclass(frozen=True)
class AttnProductCost:
    """The two scaled-dot products of one attention stage."""

    heads: int
    n_q: int
    n_kv: int
    d_k: int
    d_v: int

    def flops(self):
        return 2.0 * self.heads * self.n_q * self.n_kv * (self.d_k + self.d_v)


@dataclass(frozen=True)
class ConvCost:
    """A 3x3 convolution: 9 taps per output element."""

    out_h: int
    out_w: int
    c_in: int
    c_out: int

    def flops(self):
        return 2.0 * self.out_h * self.out_w * self.c_in * self.c_out * 9


@dataclass(frozen=True)
class UpsampleCost:
    """Bilinear 2x interpolation, 8 FLOPs per output element (nearest is not priced)."""

    c: int
    out_h: int
    out_w: int

    def flops(self):
        return 8.0 * self.c * self.out_h * self.out_w


def full_model_flops(layers):
    """Total FLOPs of a layer list; an empty spec costs nothing."""
    return float(sum(layer.flops() for layer in layers))


def kv_projection_cost(n_kv, d_model, heads, d_k, d_v):
    """The K and V projections of one attention block."""
    return [LinearCost(n_kv, d_model, heads * d_k), LinearCost(n_kv, d_model, heads * d_v)]


def attention_block_cost(n_q, n_kv, d_model, heads, d_k, d_v, with_kv=True):
    """Layers of one attention block: Q/K/V/out projections, products, feed-forward.

    ``with_kv=False`` leaves out the K/V projections, for a block whose keys
    and values were projected once for several calls.
    """
    layers = [LinearCost(n_q, d_model, heads * d_k)]
    if with_kv:
        layers += kv_projection_cost(n_kv, d_model, heads, d_k, d_v)
    layers += [AttnProductCost(heads, n_q, n_kv, d_k, d_v),
               LinearCost(n_q, heads * d_v, d_model)]
    hidden = 2 * d_model  # FeedForward's hidden width
    layers += [LinearCost(n_q, d_model, hidden), LinearCost(n_q, hidden, d_model)]
    return layers


def upsampling_cnn_cost(k, out_h, out_w, f, c_out):
    """Layers of the patch-to-pixel CNN: log2(k) upsampling blocks plus heads.

    The feature head hands the CNN an f-channel map (f = 128 by default
    upstream); block i upsamples by 2 and convolves channels ch -> ch/2. A
    preliminary c_out-channel conv taps each block input and the accumulated
    preliminary image is bilinearly doubled alongside. A final conv maps the
    last block output to c_out. k = 1 degenerates to the final conv alone.
    """
    m = int(round(math.log2(k)))
    layers = []
    h, w = out_h // k, out_w // k
    ch = f
    for _ in range(m):
        layers.append(ConvCost(h, w, ch, c_out))            # preliminary tap
        layers.append(UpsampleCost(c_out, 2 * h, 2 * w))    # accumulated preliminary
        layers.append(ConvCost(2 * h, 2 * w, ch, ch // 2))  # block conv after nearest 2x
        h, w, ch = 2 * h, 2 * w, ch // 2
    layers.append(ConvCost(h, w, ch, c_out))                # final conv
    return layers
