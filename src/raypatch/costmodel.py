"""Per-layer FLOP vocabulary: the layers that ``layer_spec`` returns and ``flops`` checks.

A model is priced as a flat list of layers, each of which answers ``flops()``.
The modules price themselves: each one's ``cost`` lists these layers for the
ops it executes, read from its own weight shapes, so the architecture is
written once, in the modules.

Conventions, shared with the instrumented counter in ``flops``:
  * one multiply-accumulate = 2 FLOPs;
  * an ``AttnProductCost`` is the two scaled-dot products (Q K^T and A V) of
    one attention stage over all heads,
    FLOPs = 2 * heads * n_q * n_kv * (d_k + d_v);
  * elementwise glue (activations, normalization, residual adds) is not priced.
"""

from __future__ import annotations

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
