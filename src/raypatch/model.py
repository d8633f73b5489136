"""The light-field model: conv + attention encoder, two interchangeable decoders.

The encoder turns each input view into a token set (stride-2 convolutions
over image and per-pixel ray channels, then self-attention). Decoding is
where the two variants differ:

* ``PixelDecoder`` cross-attends once per output pixel and maps each token
  to RGB + log-depth with a small MLP. This is the usual light-field head
  and its attention cost scales with the full pixel count.
* ``RayPatchDecoder`` cross-attends once per k x k patch (the ray through
  the patch center), then reconstructs pixels with a small upsampling CNN.
  Attention cost and peak attention memory drop by exactly k^2.

The encoder and each decoder answer ``layer_spec()`` with the cost-model
layer list that mirrors their executed tensor ops one for one, so the
instrumented FLOP counter and the analytic model can be compared directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import flops
from . import tensor as T
from .blocks import AttnBlock, Linear, MhaConfig, uniform_init
from .costmodel import (
    ConvCost,
    LinearCost,
    attention_block_cost,
    upsampling_cnn_cost,
)
from .geometry import PatchGrid, build_queries, query_dim, ray_feature_map

RGB_WEIGHT = 5.0
PSNR_CAP = 99.0


class ModelConfigError(ValueError):
    """Inconsistent model hyperparameters."""


@dataclass(frozen=True)
class ModelConfig:
    height: int
    width: int
    k: int = 4
    d_model: int = 64
    heads: int = 2
    d_k: int = 32
    d_v: int = 32
    enc_blocks: int = 2
    dec_blocks: int = 2
    downsamplings: int = 2
    n_freq_origin: int = 10
    n_freq_dir: int = 10
    feature_channels: int = 32
    out_channels: int = 4  # RGB + log depth
    scene_radius: float = 3.0
    seed: int = 0

    def __post_init__(self):
        if self.k < 1 or self.k & (self.k - 1):
            raise ModelConfigError(f"patch size must be a power of two, got {self.k}")
        if self.height % self.k or self.width % self.k:
            raise ModelConfigError(f"{self.k} does not divide {self.height}x{self.width}")
        step = 2 ** self.downsamplings
        if self.height % step or self.width % step:
            raise ModelConfigError(
                f"{self.downsamplings} stride-2 stages need dims divisible by {step}")
        if self.feature_channels % self.k:
            # the upsampling CNN halves channels log2(k) times
            raise ModelConfigError(
                f"feature_channels {self.feature_channels} not divisible by k {self.k}")
        if self.d_model < 2 ** self.downsamplings:
            raise ModelConfigError("d_model too small for the conv channel schedule")

    @property
    def query_channels(self):
        return query_dim(self.n_freq_origin, self.n_freq_dir)

    @property
    def mha(self):
        return MhaConfig(self.d_model, self.heads, self.d_k, self.d_v)

    def tokens_per_view(self):
        s = 4 ** self.downsamplings
        return (self.height * self.width) // s


class Conv3x3:
    """Bare 3x3 convolution, linear output (image taps and heads)."""

    def __init__(self, rng, c_in, c_out, stride=1):
        self.w = T.parameter(uniform_init(rng, c_in * 9, (c_out, c_in, 3, 3)))
        self.b = T.parameter(np.zeros(c_out))
        self.stride = stride

    def __call__(self, x):
        return T.conv2d(x, self.w, self.b, stride=self.stride)

    def params(self, prefix):
        return [(prefix + ".w", self.w), (prefix + ".b", self.b)]


class ConvBlock:
    """3x3 convolution, batch norm, leaky-ReLU."""

    def __init__(self, rng, c_in, c_out, stride=1):
        self.conv = Conv3x3(rng, c_in, c_out, stride)
        self.gamma = T.parameter(np.ones(c_out))
        self.beta = T.parameter(np.zeros(c_out))
        self.state = T.BatchNormState(c_out)

    def __call__(self, x, training):
        return T.leaky_relu(
            T.batch_norm(self.conv(x), self.gamma, self.beta, self.state, training))

    def params(self, prefix):
        return self.conv.params(prefix + ".conv") + [
            (prefix + ".gamma", self.gamma), (prefix + ".beta", self.beta)]

    def buffers(self, prefix):
        return [(prefix + ".running_mean", self.state.running_mean),
                (prefix + ".running_var", self.state.running_var)]


def _conv_channels(cfg):
    """Encoder channel schedule: double per stage, ending at d_model."""
    s = cfg.downsamplings
    return [cfg.d_model >> (s - 1 - i) for i in range(s)]


class Encoder:
    """Per view: conv downsampling over RGB + ray channels, then joint self-attention."""

    def __init__(self, cfg, rng):
        self.cfg = cfg
        c = 3 + cfg.query_channels
        self.convs = []
        for c_out in _conv_channels(cfg):
            self.convs.append(ConvBlock(rng, c, c_out, stride=2))
            c = c_out
        self.blocks = [AttnBlock(cfg.mha, rng) for _ in range(cfg.enc_blocks)]

    def __call__(self, views, training):
        """views: iterable of (image [3,h,w], intrinsics, pose). Returns tokens [n, d]."""
        cfg = self.cfg
        tokens = []
        for image, intr, pose in views:
            rays = ray_feature_map(intr, pose, cfg.height, cfg.width,
                                   cfg.n_freq_origin, cfg.n_freq_dir, cfg.scene_radius)
            if isinstance(image, T.Tensor):  # differentiable input path
                x = T.concat([image, T.Tensor(rays)], axis=0)
            else:
                x = T.Tensor(np.concatenate([np.asarray(image, dtype=np.float64), rays]))
            with flops.stage("encoder_conv"):
                for conv in self.convs:
                    x = conv(x, training)
            c, hh, ww = x.shape
            tokens.append(T.transpose(T.reshape(x, (c, hh * ww)), (1, 0)))
        z = tokens[0] if len(tokens) == 1 else T.concat(tokens, axis=0)
        with flops.stage("encoder_attn"):
            for blk in self.blocks:
                z = blk(z)
        return z

    def params(self):
        out = []
        for i, conv in enumerate(self.convs):
            out += conv.params(f"enc.conv{i}")
        for i, blk in enumerate(self.blocks):
            out += blk.params(f"enc.block{i}")
        return out

    def buffers(self):
        out = []
        for i, conv in enumerate(self.convs):
            out += conv.buffers(f"enc.conv{i}")
        return out

    def layer_spec(self, n_views):
        cfg = self.cfg
        layers = []
        for _ in range(n_views):
            h, w, c = cfg.height, cfg.width, 3 + cfg.query_channels
            for c_out in _conv_channels(cfg):
                h, w = h // 2, w // 2
                layers.append(ConvCost(h, w, c, c_out))
                c = c_out
        n = n_views * cfg.tokens_per_view()
        for _ in range(cfg.enc_blocks):
            layers += attention_block_cost(n, n, cfg.d_model, cfg.heads, cfg.d_k, cfg.d_v)
        return layers


class RayPatchDecoder:
    """One query per patch, then a x2-per-block upsampling CNN back to pixels.

    Each CNN block taps its input with a linear conv into an accumulated
    output image (bilinearly doubled between scales) while the feature path
    is doubled with nearest neighbor and convolved to half the channels.
    With k = 1 the CNN degenerates to the final conv and the decoder queries
    every pixel directly.
    """

    def __init__(self, cfg, rng):
        self.cfg = cfg
        self.embed = Linear(rng, cfg.query_channels, cfg.d_model)
        self.blocks = [AttnBlock(cfg.mha, rng) for _ in range(cfg.dec_blocks)]
        self.feature_head = Linear(rng, cfg.d_model, cfg.feature_channels)
        self.taps, self.body = [], []
        ch = cfg.feature_channels
        for _ in range(int(round(math.log2(cfg.k)))):
            self.taps.append(Conv3x3(rng, ch, cfg.out_channels))
            self.body.append(ConvBlock(rng, ch, ch // 2))
            ch //= 2
        self.final = Conv3x3(rng, ch, cfg.out_channels)

    def __call__(self, z, intrinsics, pose, training):
        cfg = self.cfg
        grid = PatchGrid(cfg.height, cfg.width, cfg.k)
        q = build_queries(intrinsics, pose, grid, cfg.n_freq_origin, cfg.n_freq_dir,
                          cfg.scene_radius)
        flops.count_queries("decoder", grid.n_patches)
        with flops.stage("decoder_attn"):
            x = self.embed(q)
            for blk in self.blocks:
                x = blk(x, z)
            feats = self.feature_head(x)
        with flops.stage("decoder_cnn"):
            fmap = T.reshape(T.transpose(feats, (1, 0)),
                             (cfg.feature_channels, grid.rows, grid.cols))
            acc = None
            for tap, body in zip(self.taps, self.body):
                pre = tap(fmap)
                acc = pre if acc is None else T.add(acc, pre)
                acc = T.upsample_bilinear2x(acc)
                fmap = body(T.upsample_nearest2x(fmap), training)
            out = self.final(fmap)
            if acc is not None:
                out = T.add(acc, out)
        return out

    def params(self):
        out = self.embed.params("dec.embed")
        for i, blk in enumerate(self.blocks):
            out += blk.params(f"dec.block{i}")
        out += self.feature_head.params("dec.feature_head")
        for i, (tap, body) in enumerate(zip(self.taps, self.body)):
            out += tap.params(f"dec.tap{i}") + body.params(f"dec.body{i}")
        out += self.final.params("dec.final")
        return out

    def buffers(self):
        out = []
        for i, body in enumerate(self.body):
            out += body.buffers(f"dec.body{i}")
        return out

    def layer_spec(self, n_kv):
        cfg = self.cfg
        n_q = (cfg.height // cfg.k) * (cfg.width // cfg.k)
        layers = [LinearCost(n_q, cfg.query_channels, cfg.d_model)]
        for _ in range(cfg.dec_blocks):
            layers += attention_block_cost(n_q, n_kv, cfg.d_model, cfg.heads,
                                           cfg.d_k, cfg.d_v)
        layers.append(LinearCost(n_q, cfg.d_model, cfg.feature_channels))
        layers += upsampling_cnn_cost(cfg.k, cfg.height, cfg.width,
                                      cfg.feature_channels, cfg.out_channels)
        return layers


class PixelDecoder:
    """Baseline head: one cross-attention query per pixel, MLP to the outputs.

    ``chunk`` bounds how many pixel queries run through attention at once;
    rows are independent, so chunking changes memory use, not results.
    """

    def __init__(self, cfg, rng):
        self.cfg = cfg
        self.embed = Linear(rng, cfg.query_channels, cfg.d_model)
        self.blocks = [AttnBlock(cfg.mha, rng) for _ in range(cfg.dec_blocks)]
        self.head1 = Linear(rng, cfg.d_model, 2 * cfg.d_model)
        self.head2 = Linear(rng, 2 * cfg.d_model, cfg.out_channels)

    def __call__(self, z, intrinsics, pose, training, chunk=None):
        cfg = self.cfg
        grid = PatchGrid(cfg.height, cfg.width, 1)
        q = build_queries(intrinsics, pose, grid, cfg.n_freq_origin, cfg.n_freq_dir,
                          cfg.scene_radius)
        flops.count_queries("decoder", grid.n_patches)
        n = grid.n_patches
        chunk = n if chunk is None else chunk
        rows = []
        with flops.stage("decoder_attn"):
            for lo in range(0, n, chunk):
                x = self.embed(T.Tensor(q.data[lo:lo + chunk]))
                for blk in self.blocks:
                    x = blk(x, z)
                rows.append(self.head2(T.leaky_relu(self.head1(x))))
        out = rows[0] if len(rows) == 1 else T.concat(rows, axis=0)
        return T.reshape(T.transpose(out, (1, 0)),
                         (cfg.out_channels, cfg.height, cfg.width))

    def params(self):
        out = self.embed.params("dec.embed")
        for i, blk in enumerate(self.blocks):
            out += blk.params(f"dec.block{i}")
        return out + self.head1.params("dec.head1") + self.head2.params("dec.head2")

    def buffers(self):
        return []

    def layer_spec(self, n_kv):
        cfg = self.cfg
        n_q = cfg.height * cfg.width
        layers = [LinearCost(n_q, cfg.query_channels, cfg.d_model)]
        for _ in range(cfg.dec_blocks):
            layers += attention_block_cost(n_q, n_kv, cfg.d_model, cfg.heads,
                                           cfg.d_k, cfg.d_v)
        layers += [LinearCost(n_q, cfg.d_model, 2 * cfg.d_model),
                   LinearCost(n_q, 2 * cfg.d_model, cfg.out_channels)]
        return layers


DECODERS = {"raypatch": RayPatchDecoder, "pixel": PixelDecoder}


class LightFieldModel:
    """Encoder plus one decoder variant, all weights drawn from one seeded stream."""

    def __init__(self, cfg, decoder="raypatch"):
        if decoder not in DECODERS:
            raise ModelConfigError(f"unknown decoder {decoder!r}")
        self.cfg = cfg
        self.decoder_kind = decoder
        rng = np.random.default_rng(cfg.seed)
        self.encoder = Encoder(cfg, rng)
        self.decoder = DECODERS[decoder](cfg, rng)
        names = [n for n, _ in self.named_parameters()]
        if len(names) != len(set(names)):
            raise AssertionError("duplicate parameter names")

    def encode(self, views, training=False):
        return self.encoder(views, training)

    def decode(self, z, intrinsics, pose, training=False, **kw):
        return self.decoder(z, intrinsics, pose, training, **kw)

    def named_parameters(self):
        return self.encoder.params() + self.decoder.params()

    def named_buffers(self):
        return self.encoder.buffers() + self.decoder.buffers()


# ---------------------------------------------------------------------------
# outputs and losses
# ---------------------------------------------------------------------------

def split_output(out):
    """[4, h, w] model output -> (rgb [3, h, w], log_depth [h, w])."""
    c, h, w = out.shape
    rgb = T.reshape(T.take(out, np.arange(3 * h * w)), (3, h, w))
    logd = T.reshape(T.take(out, np.arange(3 * h * w, 4 * h * w)), (h, w))
    return rgb, logd


def loss_rgb(pred, target):
    diff = T.sub(pred, T.Tensor(np.asarray(target, dtype=np.float64)))
    return T.mean_all(T.mul(diff, diff))


def loss_depth(pred_log, depth_target):
    """Mean absolute log-depth error over pixels with valid depth, else None."""
    d = np.asarray(depth_target, dtype=np.float64).reshape(-1)
    idx = np.flatnonzero(np.isfinite(d))
    if idx.size == 0:
        return None
    pred_rows = T.take(pred_log, idx)
    target_rows = T.Tensor(np.log(d[idx]))
    return T.mean_all(T.absolute(T.sub(pred_rows, target_rows)))


def loss_total(out, image_target, depth_target):
    """Depth term plus RGB_WEIGHT times the RGB term; parts reported alongside."""
    rgb, logd = split_output(out)
    l_rgb = loss_rgb(rgb, image_target)
    l_d = loss_depth(logd, depth_target)
    total = T.mul(l_rgb, RGB_WEIGHT) if l_d is None else T.add(l_d, T.mul(l_rgb, RGB_WEIGHT))
    parts = {"rgb": l_rgb.item(), "depth": float("nan") if l_d is None else l_d.item()}
    return total, parts


def psnr(pred, target):
    """PSNR of the [0, 1]-clamped prediction, capped at PSNR_CAP dB."""
    p = np.clip(np.asarray(pred, dtype=np.float64), 0.0, 1.0)
    mse = float(np.mean((p - np.asarray(target, dtype=np.float64)) ** 2))
    if mse <= 10.0 ** (-PSNR_CAP / 10.0):
        return PSNR_CAP
    return 10.0 * math.log10(1.0 / mse)


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------

class Adam:
    """Adam with bias correction and a global gradient-norm clip."""

    def __init__(self, named_params, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8,
                 clip=1.0):
        self.params = list(named_params)
        self.lr, self.beta1, self.beta2, self.eps, self.clip = lr, beta1, beta2, eps, clip
        self.t = 0
        self.m = [np.zeros_like(p.data) for _, p in self.params]
        self.v = [np.zeros_like(p.data) for _, p in self.params]

    def step(self):
        self.t += 1
        norm = T.global_grad_norm([p for _, p in self.params])
        scale = 1.0 if norm <= self.clip else self.clip / norm
        for i, (_, p) in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad * scale
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            m_hat = self.m[i] / (1.0 - self.beta1 ** self.t)
            v_hat = self.v[i] / (1.0 - self.beta2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self):
        for _, p in self.params:
            p.grad = None


def scene_to_views(views):
    """ViewSample list -> (encoder inputs, supervision targets)."""
    inputs = [(v.image, v.intrinsics, v.pose) for v in views if v.role == 0]
    targets = [v for v in views if v.role == 1]
    return inputs, targets


def train_step(model, views, opt):
    """One optimization step on one scene; returns scalar metrics."""
    T.tape_clear()
    opt.zero_grad()
    inputs, targets = scene_to_views(views)
    z = model.encode(inputs, training=True)
    total = None
    metrics = {"rgb": 0.0, "depth": 0.0, "psnr": 0.0}
    for v in targets:
        out = model.decode(z, v.intrinsics, v.pose, training=True)
        l, parts = loss_total(out, v.image, v.depth)
        total = l if total is None else T.add(total, l)
        metrics["rgb"] += parts["rgb"] / len(targets)
        metrics["depth"] += parts["depth"] / len(targets)
        with T.no_grad():
            rgb, _ = split_output(out)
        metrics["psnr"] += psnr(rgb.data, v.image) / len(targets)
    total = T.mul(total, 1.0 / len(targets))
    if not np.isfinite(total.data):
        raise T.NumericError(f"loss diverged at step {opt.t + 1}")
    metrics["loss"] = total.item()
    T.backward(total)
    opt.step()
    return metrics


def evaluate(model, scenes):
    """Mean loss and PSNR over held-out scenes, no parameter updates."""
    agg = {"loss": 0.0, "psnr": 0.0}
    for views in scenes:
        inputs, targets = scene_to_views(views)
        with T.no_grad():
            z = model.encode(inputs, training=False)
            for v in targets:
                out = model.decode(z, v.intrinsics, v.pose, training=False)
                l, _ = loss_total(out, v.image, v.depth)
                rgb, _ = split_output(out)
                agg["loss"] += l.item() / len(targets) / len(scenes)
                agg["psnr"] += psnr(rgb.data, v.image) / len(targets) / len(scenes)
    return agg
