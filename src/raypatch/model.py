"""The light-field model: conv + attention encoder, two interchangeable decoders.

The encoder turns each input view into a token set (stride-2 convolutions
over image and per-pixel ray channels, then self-attention). The camera
origin's code is the same at every pixel, so the first convolution takes it
once per view, not as channels of the map. Decoding is
where the two variants differ:

* ``PixelDecoder`` cross-attends once per output pixel and maps each token
  to RGB + log-depth with a small MLP. This is the usual light-field head
  and its attention cost scales with the full pixel count.
* ``RayPatchDecoder`` cross-attends once per k x k patch (the ray through
  the patch center), then reconstructs pixels with a small upsampling CNN.
  Attention cost and peak attention memory drop by exactly k^2.

Every module prices itself: its ``cost`` lists the cost-model layers of the
tensor ops it executes, read from its own weight shapes. The encoder and
each decoder answer ``layer_spec()`` by walking their modules' ``cost``, so
the list mirrors the executed ops one for one. ``stage_flops`` sums those
lists into the ``flops.stage`` names the forward code runs under, so the
instrumented FLOP counter and the layer specs can be compared stage by stage.

``encode`` returns a ``Scene``: the token set plus each decoder block's keys
and values, projected once. Every view decoded from the scene reads them:
encode once, render many.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

from . import flops
from . import tensor as T
from .blocks import AttnBlock, Linear, uniform_init
from .costmodel import ConvCost, UpsampleCost, full_model_flops
from .geometry import build_queries, origin_code, query_dim, ray_feature_map

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
    seed: int = 0

    def __post_init__(self):
        # downsamplings: without a conv stage the encoder tokens are not d_model wide
        for name, low in (("height", 1), ("width", 1), ("heads", 1), ("d_k", 1), ("d_v", 1),
                          ("downsamplings", 1), ("feature_channels", 1), ("n_freq_origin", 0),
                          ("n_freq_dir", 0), ("enc_blocks", 0), ("dec_blocks", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ModelConfigError(f"{name} must be at least {low}, "
                                       f"got {getattr(self, name)}")
        if self.k < 1 or self.k & (self.k - 1):
            raise ModelConfigError(f"patch size must be a power of two, got {self.k}")
        if self.height % self.k or self.width % self.k:
            raise ModelConfigError(f"{self.k} does not divide {self.height}x{self.width}")
        step = 2 ** self.downsamplings
        if self.height % step or self.width % step:
            raise ModelConfigError(
                f"{self.downsamplings} stride-2 stages need dims divisible by {step}")
        if self.n_freq_origin + self.n_freq_dir < 1:
            # queries and the encoder's ray channels would be empty
            raise ModelConfigError("n_freq_origin + n_freq_dir must be at least 1, got "
                                   f"{self.n_freq_origin} + {self.n_freq_dir}")
        if self.feature_channels % self.k:
            # the upsampling CNN halves channels log2(k) times
            raise ModelConfigError(
                f"feature_channels {self.feature_channels} not divisible by k {self.k}")
        if self.d_model < step:  # the conv channel schedule halves d_model per stage
            raise ModelConfigError(f"d_model must be at least 2 ** downsamplings = {step}, "
                                   f"got {self.d_model}")

    def largest_field(self):
        """The size field furthest above its default, by ratio: the one to name
        when a valid config describes a model too large to allocate."""
        sizes = [f for f in fields(self) if f.default is not MISSING and f.name != "seed"]
        return max(sizes, key=lambda f: getattr(self, f.name) / f.default)

    @property
    def query_channels(self):
        return query_dim(self.n_freq_origin, self.n_freq_dir)

    def tokens_per_view(self):
        s = 4 ** self.downsamplings
        return (self.height * self.width) // s


class _Conv:
    """A 3x3 conv weight, tap-major [c_out, 3, 3, c_in] as conv2d reads it, and a stride."""

    def __init__(self, rng, c_in, c_out, stride):
        w = uniform_init(rng, c_in * 9, (c_out, c_in, 3, 3))  # the draw, reordered once
        self.w, self.stride = T.parameter(w.transpose(0, 2, 3, 1)), stride

    def cost(self, h, w, uniform=0):
        """The convolution of one call on an h x w map, the weight's last
        ``uniform`` input channels read from a vector (``conv2d(uniform=)``):
        its 9 taps at one output position."""
        c_out, c_in = self.w.shape[0], self.w.shape[3] - uniform
        layers = [ConvCost(h // self.stride, w // self.stride, c_in, c_out)]
        if uniform:
            layers.append(ConvCost(1, 1, uniform, c_out))
        return layers


class Conv3x3(_Conv):
    """Bare 3x3 convolution, linear output (image taps and heads)."""

    def __init__(self, rng, c_in, c_out, stride=1):
        super().__init__(rng, c_in, c_out, stride)
        self.b = T.parameter(np.zeros(c_out))

    def __call__(self, x):
        return T.conv2d(x, self.w, self.b, stride=self.stride)

    def params(self, prefix):
        return [(prefix + ".w", self.w), (prefix + ".b", self.b)]


class ConvBlock(_Conv):
    """3x3 convolution, instance norm, leaky-ReLU. The norm uses the statistics
    of the one map it is given, in training and at inference alike, so the block
    holds parameters only. The conv has no bias: the norm takes out a channel's mean."""

    def __init__(self, rng, c_in, c_out, stride=1):
        super().__init__(rng, c_in, c_out, stride)
        self.gamma = T.parameter(np.ones(c_out))
        self.beta = T.parameter(np.zeros(c_out))

    def __call__(self, x, uniform=None):
        x = T.conv2d(x, self.w, stride=self.stride, uniform=uniform)
        return T.leaky_relu(T.instance_norm(x, self.gamma, self.beta))

    def params(self, prefix):
        return [(prefix + ".conv.w", self.w), (prefix + ".gamma", self.gamma),
                (prefix + ".beta", self.beta)]


def _conv_channels(cfg):
    """Encoder channel schedule: double per stage, ending at d_model."""
    s = cfg.downsamplings
    return [cfg.d_model >> (s - 1 - i) for i in range(s)]


class Encoder:
    """Per view: conv downsampling over RGB + ray channels, then joint self-attention.

    The first conv's input channels are the image, the ray directions and the
    camera origin, in that order. The map holds the image and the directions;
    the origin's code, the same at every pixel, enters as ``conv2d``'s
    ``uniform`` vector. The weight is drawn with its channels in a query
    row's order (image, origin, direction) and reordered once, so a seed
    gives the same model whichever order the conv reads. A view's map is
    built in its own branch, so a serial encode holds one map at a time.
    """

    def __init__(self, cfg, rng):
        self.cfg = cfg
        c = 3 + cfg.query_channels
        self.convs = []
        for c_out in _conv_channels(cfg):
            self.convs.append(ConvBlock(rng, c, c_out, stride=2))
            c = c_out
        w = self.convs[0].w.data
        w[..., 3:] = np.roll(w[..., 3:], -6 * cfg.n_freq_origin, axis=3)
        self.blocks = [AttnBlock(cfg, rng) for _ in range(cfg.enc_blocks)]
        self._view_flops = full_model_flops(self._view_layers())

    def __call__(self, views):
        """views: list of (image [3,h,w], intrinsics, pose). Returns tokens [n, d].

        Each view is one ``tensor._branches`` branch, from the raw view to its
        tokens, in parallel without recording when large enough."""
        with flops.stage("encoder_conv"):
            tokens = T._branches(self._view_tokens, views, self._view_flops)
        z = tokens[0] if len(tokens) == 1 else T.concat(tokens, axis=0)
        with flops.stage("encoder_attn"):
            for blk in self.blocks:
                z = blk(z)
        return z

    def _view_tokens(self, image, intr, pose):
        """One view: its input map and origin code, then the conv stack -> tokens [n, d]."""
        cfg = self.cfg
        if np.shape(image) != (3, cfg.height, cfg.width):  # the copy below would broadcast
            raise ValueError(f"input image must be [3, {cfg.height}, {cfg.width}], "
                             f"got {list(np.shape(image))}")
        x = np.empty((3 + 6 * cfg.n_freq_dir, cfg.height, cfg.width))
        x[:3] = image
        ray_feature_map(intr, pose, cfg.height, cfg.width, cfg.n_freq_dir, out=x[3:])
        first, *rest = self.convs
        x = first(T.Tensor(x), uniform=origin_code(pose, cfg.n_freq_origin))
        for conv in rest:
            x = conv(x)
        c, hh, ww = x.shape
        return T.transpose(T.reshape(x, (c, hh * ww)))

    def params(self):
        out = []
        for i, conv in enumerate(self.convs):
            out += conv.params(f"enc.conv{i}")
        for i, blk in enumerate(self.blocks):
            out += blk.params(f"enc.block{i}")
        return out

    def _view_layers(self):
        """Layers of one view's conv stack."""
        cfg = self.cfg
        view, h, w = [], cfg.height, cfg.width
        uniform = 6 * cfg.n_freq_origin  # the first conv's origin channels
        for conv in self.convs:
            layers = conv.cost(h, w, uniform)
            view += layers
            h, w, uniform = layers[0].out_h, layers[0].out_w, 0
        return view

    def layer_spec(self, n_views):
        cfg = self.cfg
        layers = n_views * self._view_layers()
        n = n_views * cfg.tokens_per_view()
        for blk in self.blocks:  # self-attention projects its K/V every call
            layers += blk.mha.kv_cost(n) + blk.cost(n, n)
        return layers


class Scene(T.Tensor):
    """Encoder tokens [n, d_model] plus ``kv``, each decoder block's
    (K^T, V) of them from ``MultiHeadAttention.project_kv``.

    A scene is the token tensor: it shares the tokens' data and grad slot,
    so recorded decodes reach the encoder through it. The tokens and K/V
    are a snapshot of the weights at encode, recorded if the encode was.
    """

    __slots__ = ("kv",)

    def __init__(self, tokens, kv):
        self.data, self._slot, self.kv = tokens.data, tokens._slot, kv


class _QueryDecoder:
    """The decoders' shared front: one ray query per k x k patch, its embedding and
    the attention blocks. A subclass adds a head and prices it in ``_head_cost``."""

    def __init__(self, cfg, rng, k):
        self.cfg, self.k = cfg, k
        self.embed = Linear(rng, cfg.query_channels, cfg.d_model)
        self.blocks = [AttnBlock(cfg, rng) for _ in range(cfg.dec_blocks)]

    def scene(self, tokens):
        """The ``Scene`` of ``tokens``: each block's K/V, in stage decoder_attn."""
        with flops.stage("decoder_attn"):
            return Scene(tokens, [blk.mha.project_kv(tokens) for blk in self.blocks])

    def _attend(self, scene, intrinsics, pose, head):
        """The queries through embed, blocks and ``head``, in stage decoder_attn."""
        cfg = self.cfg
        q = build_queries(intrinsics, pose, cfg.height, cfg.width, self.k,
                          cfg.n_freq_origin, cfg.n_freq_dir)
        flops.count_queries("decoder", q.shape[0])
        with flops.stage("decoder_attn"):
            x = self.embed(q)
            for blk, kv in zip(self.blocks, scene.kv):
                x = blk(x, scene, kv)
            return head(x)

    def params(self):
        out = self.embed.params("dec.embed")
        for i, blk in enumerate(self.blocks):
            out += blk.params(f"dec.block{i}")
        return out

    def layer_spec(self, n_kv, n_views=1):
        """Layers of a scene of ``n_kv`` tokens and ``n_views`` decodes of it."""
        cfg = self.cfg
        n_q = (cfg.height // self.k) * (cfg.width // self.k)
        view = self.embed.cost(n_q)
        for blk in self.blocks:
            view += blk.cost(n_q, n_kv)
        kv = [layer for blk in self.blocks for layer in blk.mha.kv_cost(n_kv)]
        return kv + n_views * (view + self._head_cost(n_q))


class RayPatchDecoder(_QueryDecoder):
    """One query per patch, then a x2-per-block upsampling CNN back to pixels.

    Each CNN block taps its input with a linear conv into an accumulated
    output image (bilinearly doubled between scales) while the feature path
    is doubled with nearest neighbor and convolved to half the channels.
    With k = 1 the CNN degenerates to the final conv and the decoder queries
    every pixel directly.
    """

    def __init__(self, cfg, rng):
        super().__init__(cfg, rng, cfg.k)
        self.feature_head = Linear(rng, cfg.d_model, cfg.feature_channels)
        self.taps, self.body = [], []
        ch = cfg.feature_channels
        for _ in range(int(round(math.log2(cfg.k)))):
            self.taps.append(Conv3x3(rng, ch, OUT_CHANNELS))
            self.body.append(ConvBlock(rng, ch, ch // 2))
            ch //= 2
        self.final = Conv3x3(rng, ch, OUT_CHANNELS)

    def __call__(self, scene, intrinsics, pose):
        cfg = self.cfg
        feats = self._attend(scene, intrinsics, pose, self.feature_head)
        with flops.stage("decoder_cnn"):
            fmap = T.reshape(T.transpose(feats),
                             (cfg.feature_channels, cfg.height // cfg.k, cfg.width // cfg.k))
            acc = None
            for tap, body in zip(self.taps, self.body):
                pre = tap(fmap)
                acc = pre if acc is None else T.add(acc, pre)
                acc = T.upsample_bilinear2x(acc)
                fmap = body(T.upsample_nearest2x(fmap))
            out = self.final(fmap)
            if acc is not None:
                out = T.add(acc, out)
        return out

    def params(self):
        out = super().params() + self.feature_head.params("dec.feature_head")
        for i, (tap, body) in enumerate(zip(self.taps, self.body)):
            out += tap.params(f"dec.tap{i}") + body.params(f"dec.body{i}")
        out += self.final.params("dec.final")
        return out

    def _head_cost(self, n_q):
        cfg = self.cfg
        layers, h, w = self.feature_head.cost(n_q), cfg.height // cfg.k, cfg.width // cfg.k
        for tap, body in zip(self.taps, self.body):
            layers += tap.cost(h, w)
            h, w = 2 * h, 2 * w
            layers += [UpsampleCost(OUT_CHANNELS, h, w)] + body.cost(h, w)
        return layers + self.final.cost(h, w)


class PixelDecoder(_QueryDecoder):
    """Baseline head: one cross-attention query per pixel, MLP to the outputs.

    All h*w queries run through attention in one pass, so the decoder's
    logit matrices are [h*w, n_kv] per head.
    """

    def __init__(self, cfg, rng):
        super().__init__(cfg, rng, 1)
        self.head1 = Linear(rng, cfg.d_model, 2 * cfg.d_model)
        self.head2 = Linear(rng, 2 * cfg.d_model, OUT_CHANNELS)

    def __call__(self, scene, intrinsics, pose):
        cfg = self.cfg
        out = self._attend(scene, intrinsics, pose,
                           lambda x: self.head2(T.leaky_relu(self.head1(x))))
        return T.reshape(T.transpose(out), (OUT_CHANNELS, cfg.height, cfg.width))

    def params(self):
        return super().params() + self.head1.params("dec.head1") + self.head2.params("dec.head2")

    def _head_cost(self, n_q):
        return self.head1.cost(n_q) + self.head2.cost(n_q)


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

    def encode(self, views):
        """The ``Scene`` of the input views: tokens [n, d_model] and each
        decoder block's K/V of them.

        The scene is a snapshot of the current weights: after changing the
        weights, encode again to decode with them.
        """
        return self.decoder.scene(self.encoder(views))

    def decode(self, scene, intrinsics, pose):
        """Output [OUT_CHANNELS, h, w] of one target view of ``scene``, an ``encode`` result."""
        return self.decoder(scene, intrinsics, pose)

    def named_parameters(self):
        return self.encoder.params() + self.decoder.params()


def stage_flops(enc_spec, dec_spec):
    """FLOPs per ``flops.stage`` of the encode and decode that ``enc_spec`` and
    ``dec_spec`` price.

    Convolutions and upsamplings run in ``encoder_conv`` and ``decoder_cnn``;
    every other layer (projections, attention products, feed-forward, the
    query embedding and the heads) in ``encoder_attn`` and ``decoder_attn``.
    A stage without layers is left out, as ``flops.FlopCounter.by_stage``
    leaves out a stage that counted nothing.
    """
    stages = {}
    for spec, conv, attn in ((enc_spec, "encoder_conv", "encoder_attn"),
                             (dec_spec, "decoder_cnn", "decoder_attn")):
        for layer in spec:
            name = conv if isinstance(layer, (ConvCost, UpsampleCost)) else attn
            stages[name] = stages.get(name, 0.0) + layer.flops()
    return stages


# ---------------------------------------------------------------------------
# outputs and losses
# ---------------------------------------------------------------------------

OUT_CHANNELS = 4  # RGB + log depth, the layout split_output cuts


def split_output(out):
    """[OUT_CHANNELS, h, w] model output -> (rgb [3, h, w], log_depth [h, w])."""
    rgb, logd = T.split(out, [3, 1], axis=0)
    return rgb, T.reshape(logd, out.shape[1:])


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

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
GRAD_CLIP = 1.0  # largest global gradient norm an Adam step uses


class Adam:
    """Adam with bias correction and a global gradient-norm clip.

    The moment arrays are allocated once and updated in place. Reallocated
    each step, they lived through the next step wherever the heap had room,
    at times above the freed temporaries of the last one, which then could
    not go back to the system: peak RSS of a run moved by the size of the
    largest transient array (35 MiB at 128x128) from one process to the next.
    """

    def __init__(self, named_params, lr):
        self.params = list(named_params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for _, p in self.params]
        self.v = [np.zeros_like(p.data) for _, p in self.params]

    def step(self):
        """One update; a gradient norm that is not finite raises ``NumericError``
        before any parameter or moment changes."""
        norm = T.global_grad_norm([p for _, p in self.params])
        if not math.isfinite(norm):
            raise T.NumericError("the gradient norm is not finite")
        self.t += 1
        scale = 1.0 if norm <= GRAD_CLIP else GRAD_CLIP / norm
        for (_, p), m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            g = p.grad * scale
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            m_hat = m / (1.0 - ADAM_BETA1 ** self.t)
            v_hat = v / (1.0 - ADAM_BETA2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

    def zero_grad(self):
        for _, p in self.params:
            p.grad = None


def scene_to_views(views):
    """ViewSample list -> (encoder inputs, supervision targets): view 0 is the
    encoder input, the rest are targets."""
    return [(v.image, v.intrinsics, v.pose) for v in views[:1]], views[1:]


def train_step(model, views, opt):
    """One optimization step on one scene; returns scalar metrics."""
    T.tape_clear()
    opt.zero_grad()
    inputs, targets = scene_to_views(views)
    z = model.encode(inputs)
    total = None
    metrics = {"rgb": 0.0, "depth": 0.0, "psnr": 0.0}
    for v in targets:
        out = model.decode(z, v.intrinsics, v.pose)
        l, parts = loss_total(out, v.image, v.depth)
        total = l if total is None else T.add(total, l)
        metrics["rgb"] += parts["rgb"] / len(targets)
        metrics["depth"] += parts["depth"] / len(targets)
        metrics["psnr"] += psnr(out.data[:3], v.image) / len(targets)
    total = T.mul(total, 1.0 / len(targets))
    if not np.isfinite(total.data):
        raise T.NumericError("the loss is not finite")
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
            z = model.encode(inputs)
            for v in targets:
                out = model.decode(z, v.intrinsics, v.pose)
                l, _ = loss_total(out, v.image, v.depth)
                agg["loss"] += l.item() / len(targets) / len(scenes)
                agg["psnr"] += psnr(out.data[:3], v.image) / len(targets) / len(scenes)
    return agg
