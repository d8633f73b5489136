"""Closed-form attention cost and memory model for light-field transformer decoders.

Conventions:
  * one multiply-accumulate = 2 FLOPs;
  * the report prices one attention stage of the encoder and one of the
    decoder as an ``AttnProductCost`` with d_v = d_k: the two scaled-dot
    products (Q K^T and A V) over all heads,
    FLOPs = 2 * heads * n_q * n_kv * (d_k + d_v);
  * peak attention memory is the decoder stage's materialized logit matrix,
    n_q * n_kv * heads * bytes_per_element.

Families:
  srt          encoder self-attends over all image tokens, decoder queries
               attend back to those tokens;
  define       encoder cross-attends image tokens into a fixed latent set,
               decoder queries attend to the latents;
  rp-*         same encoders, but the decoder issues one query per k x k
               patch instead of one per pixel: n_q drops by k^2.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, replace

BASE_FAMILIES = ("srt", "define")
RP_FAMILIES = ("rp-srt", "rp-define")
FAMILIES = BASE_FAMILIES + RP_FAMILIES


class CostConfigError(ValueError):
    """Invalid cost-model configuration."""


def _is_power_of_two(k):
    return k >= 1 and (k & (k - 1)) == 0


@dataclass(frozen=True)
class CostConfig:
    family: str
    height: int
    width: int
    n_views: int = 1
    k: int = 1
    heads: int = 8
    d_k: int = 64
    n_latent: int = 2048      # define families only
    downsamplings: int = 3    # stride-2 stages in the conv encoder
    bytes_per_element: int = 4

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise CostConfigError(f"unknown family {self.family!r}; pick one of {FAMILIES}")
        if self.height < 1 or self.width < 1 or self.n_views < 1:
            raise CostConfigError("height, width and n_views must be positive")
        for name in ("heads", "d_k", "n_latent"):
            if getattr(self, name) < 1:
                raise CostConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not _is_power_of_two(self.k):
            raise CostConfigError(f"patch size {self.k} is not a power of two")
        if self.height % self.k or self.width % self.k:
            raise CostConfigError(f"patch size {self.k} must divide {self.height}x{self.width}")
        if self.bytes_per_element not in (2, 4, 8):
            raise CostConfigError("bytes_per_element must be 2, 4 or 8")
        if self.downsamplings < 0:
            raise CostConfigError("downsamplings must be >= 0")
        reduction = 4 ** self.downsamplings
        if (self.height * self.width) % reduction:
            raise CostConfigError(f"{self.downsamplings} stride-2 stages do not divide "
                                  f"{self.height}x{self.width}")

    @property
    def is_rp(self):
        return self.family in RP_FAMILIES

    @property
    def base_family(self):
        return self.family[3:] if self.is_rp else self.family


def encoder_tokens(cfg):
    """Image tokens after the conv encoder: N * h * w / 4^s."""
    return cfg.n_views * cfg.height * cfg.width // (4 ** cfg.downsamplings)


def decoder_queries(cfg):
    """One query per pixel, or per k x k patch for the rp families."""
    n = cfg.height * cfg.width
    return n // (cfg.k * cfg.k) if cfg.is_rp else n


def decoder_kv(cfg):
    return cfg.n_latent if cfg.base_family == "define" else encoder_tokens(cfg)


def attention_stages(cfg):
    """(encoder, decoder) ``AttnProductCost`` of one attention stage each."""
    t = encoder_tokens(cfg)
    enc_q = cfg.n_latent if cfg.base_family == "define" else t
    return (AttnProductCost(cfg.heads, enc_q, t, cfg.d_k, cfg.d_k),
            AttnProductCost(cfg.heads, decoder_queries(cfg), decoder_kv(cfg), cfg.d_k, cfg.d_k))


def peak_attention_bytes(cfg):
    """Bytes of the decoder's materialized logit matrix across heads."""
    dec = attention_stages(cfg)[1]
    return float(dec.n_q) * dec.n_kv * dec.heads * cfg.bytes_per_element


@dataclass(frozen=True)
class CostReport:
    family: str
    n_views: int
    height: int
    width: int
    k: int
    heads: int
    d_k: int
    n_latent: int | None
    n_q_dec: int
    n_kv_dec: int
    attn_flops_enc: float
    attn_flops_dec: float
    peak_bytes: float


def make_report(cfg):
    enc, dec = attention_stages(cfg)
    return CostReport(
        family=cfg.family,
        n_views=cfg.n_views,
        height=cfg.height,
        width=cfg.width,
        k=cfg.k,
        heads=cfg.heads,
        d_k=cfg.d_k,
        n_latent=cfg.n_latent if cfg.base_family == "define" else None,
        n_q_dec=decoder_queries(cfg),
        n_kv_dec=decoder_kv(cfg),
        attn_flops_enc=enc.flops(),
        attn_flops_dec=dec.flops(),
        peak_bytes=peak_attention_bytes(cfg),
    )


def sweep(cfg, param, values):
    """Reports for ``cfg`` with ``param`` set to each value in turn."""
    if param == "resolution":
        # values are (height, width) pairs
        return [make_report(replace(cfg, height=h, width=w)) for h, w in values]
    return [make_report(replace(cfg, **{param: v})) for v in values]


CSV_HEADER = "family,N,h,w,k,heads,d_k,n_l,n_q_dec,n_kv_dec,attn_flops_dec,peak_bytes"


def reports_to_csv(reports):
    """CSV with the fixed header above; floats at full round-trip precision, LF endings."""
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for r in reports:
        n_l = "" if r.n_latent is None else str(r.n_latent)
        buf.write(f"{r.family},{r.n_views},{r.height},{r.width},{r.k},{r.heads},"
                  f"{r.d_k},{n_l},{r.n_q_dec},{r.n_kv_dec},"
                  f"{r.attn_flops_dec!r},{r.peak_bytes!r}\n")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# whole-model FLOP audit: a model is a flat list of priced layers
# ---------------------------------------------------------------------------

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
