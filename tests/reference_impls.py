"""Independent reference implementations used as test oracles.

Everything here is written in the most literal way possible (explicit loops,
textbook formulas) and must stay decoupled from the package internals: these
functions define what the fast implementations are checked against.
"""

import warnings

import numpy as np

from raypatch import datasynth as ds
from raypatch import tensor as T
from raypatch.costmodel import AttnProductCost, ConvCost, LinearCost, UpsampleCost
from raypatch.geometry import patch_centers, unproject


def matmul_loops(a, b):
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def softmax_rows_naive(x):
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        e = np.array([np.exp(v) for v in x[i]])
        out[i] = e / e.sum()
    return out


def layer_norm_naive(x, gamma, beta, eps=1e-5):
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        row = x[i]
        mu = row.mean()
        var = ((row - mu) ** 2).mean()
        out[i] = gamma * (row - mu) / np.sqrt(var + eps) + beta
    return out


def leaky_relu_naive(x, slope=0.2):
    """Element by element: x where x >= 0 (so also at -0.0), else slope * x."""
    out = np.empty_like(x)
    for i, v in enumerate(x.flat):
        out.flat[i] = v if v >= 0 else slope * v
    return out


def leaky_relu_backward_naive(x, g, slope=0.2):
    """Input gradient for output gradient g: g where x >= 0, else slope * g."""
    out = np.empty_like(g)
    for i, (v, gv) in enumerate(zip(x.flat, g.flat)):
        out.flat[i] = gv if v >= 0 else slope * gv
    return out


def instance_norm_naive(x, gamma, beta, eps=1e-5):
    """Per-channel loop over a [c, h, w] map: each channel normalized with its
    own mean and biased variance, then scaled and shifted."""
    out = np.zeros_like(x)
    for ch in range(x.shape[0]):
        plane = x[ch]
        mu = plane.mean()
        var = ((plane - mu) ** 2).mean()
        out[ch] = gamma[ch] * (plane - mu) / np.sqrt(var + eps) + beta[ch]
    return out


def conv2d_loops(x, w, b=None, stride=1):
    """Direct 6-loop 3x3 convolution of x [c_in, h, w] with w [c_out, 3, 3, c_in],
    zero padding 1."""
    c_in, h, wd = x.shape
    c_out = w.shape[0]
    oh = (h - 1) // stride + 1
    ow = (wd - 1) // stride + 1
    out = np.zeros((c_out, oh, ow))
    for co in range(c_out):
        for oy in range(oh):
            for ox in range(ow):
                acc = 0.0
                for ci in range(c_in):
                    for ky in range(3):
                        for kx in range(3):
                            iy = oy * stride + ky - 1
                            ix = ox * stride + kx - 1
                            if 0 <= iy < h and 0 <= ix < wd:
                                acc += x[ci, iy, ix] * w[co, ky, kx, ci]
                out[co, oy, ox] = acc
        if b is not None:
            out[co] += b[co]
    return out


def conv2d_grads_loops(x, w, g, stride=1):
    """Gradients (dx, dw, db) of sum(g * conv2d_loops(x, w, b, stride)), by
    the same six loops: each in-range product x * w passes g to both."""
    c_in, h, wd = x.shape
    c_out, oh, ow = g.shape
    dx, dw = np.zeros_like(x), np.zeros_like(w)
    for co in range(c_out):
        for oy in range(oh):
            for ox in range(ow):
                for ci in range(c_in):
                    for ky in range(3):
                        for kx in range(3):
                            iy = oy * stride + ky - 1
                            ix = ox * stride + kx - 1
                            if 0 <= iy < h and 0 <= ix < wd:
                                dx[ci, iy, ix] += g[co, oy, ox] * w[co, ky, kx, ci]
                                dw[co, ky, kx, ci] += g[co, oy, ox] * x[ci, iy, ix]
    return dx, dw, g.sum(axis=(1, 2))


def upsample_nearest2x_loops(x):
    c, h, w = x.shape
    out = np.zeros((c, 2 * h, 2 * w))
    for ci in range(c):
        for i in range(2 * h):
            for j in range(2 * w):
                out[ci, i, j] = x[ci, i // 2, j // 2]
    return out


def upsample_bilinear2x_loops(x):
    """Half-pixel-center bilinear doubling, edge clamped, from the formula."""
    c, h, w = x.shape
    out = np.zeros((c, 2 * h, 2 * w))

    def sample(img, fy, fx):
        fy = min(max(fy, 0.0), img.shape[0] - 1.0)
        fx = min(max(fx, 0.0), img.shape[1] - 1.0)
        y0, x0 = int(np.floor(fy)), int(np.floor(fx))
        y1, x1 = min(y0 + 1, img.shape[0] - 1), min(x0 + 1, img.shape[1] - 1)
        ay, ax = fy - y0, fx - x0
        top = (1 - ax) * img[y0, x0] + ax * img[y0, x1]
        bot = (1 - ax) * img[y1, x0] + ax * img[y1, x1]
        return (1 - ay) * top + ay * bot

    for ci in range(c):
        for i in range(2 * h):
            for j in range(2 * w):
                out[ci, i, j] = sample(x[ci], (i + 0.5) / 2 - 0.5, (j + 0.5) / 2 - 0.5)
    return out


def attention_single_head_naive(q, k, v):
    """softmax(q k^T / sqrt(d_k)) v with the naive row softmax."""
    d_k = q.shape[1]
    logits = matmul_loops(q, k.T) / np.sqrt(d_k)
    return matmul_loops(softmax_rows_naive(logits), v)


def attention_heads_naive(q, k, v, heads):
    """Head h on column block h of q, k and v by ``attention_single_head_naive``,
    the heads' outputs side by side."""
    d_k, d_v = q.shape[1] // heads, v.shape[1] // heads
    ck = [slice(h * d_k, (h + 1) * d_k) for h in range(heads)]
    cv = [slice(h * d_v, (h + 1) * d_v) for h in range(heads)]
    return np.concatenate([attention_single_head_naive(q[:, a], k[:, a], v[:, b])
                           for a, b in zip(ck, cv)], axis=1)


def fourier_encode_naive(v, n_freq):
    """Per component: [sin(2^0 pi v), cos(2^0 pi v), ..., sin(2^{F-1} pi v), cos(...)]."""
    out = []
    for comp in v:
        for f in range(n_freq):
            arg = (2.0 ** f) * np.pi * comp
            out.append(np.sin(arg))
            out.append(np.cos(arg))
    return np.array(out)


def unproject_pixel_naive(u, v, fx, fy, cx, cy, rot):
    """Pixel (u, v) -> unit world ray through the camera rotation."""
    d_cam = np.array([(u - cx) / fx, (v - cy) / fy, 1.0])
    d_world = rot @ d_cam
    return d_world / np.linalg.norm(d_world)


def project(intrinsics, pose, points):
    """World points -> (pixels [n, 2], camera-frame depth [n]), one point at a time.

    The inverse of unprojection composed with travel along the ray; points
    behind the camera get negative depth.
    """
    pixels, depth = [], []
    for p in np.asarray(points, dtype=np.float64).reshape(-1, 3):
        cam = pose.rotation.T @ (p - pose.origin)
        pixels.append([intrinsics.fx * cam[0] / cam[2] + intrinsics.cx,
                       intrinsics.fy * cam[1] / cam[2] + intrinsics.cy])
        depth.append(cam[2])
    return np.array(pixels), np.array(depth)


def trace_ray_scalar(spec, origin, direction, floor_radius=4.0):
    """One ray against every primitive with textbook formulas: (t, hit_id).

    hit_id follows the package convention: object index, len(objects) for the
    floor, -1 for a miss.
    """
    import math

    best_t, best_id = math.inf, -1
    for idx, obj in enumerate(spec.objects):
        if hasattr(obj, "radius"):
            oc = origin - obj.center
            b = float(oc @ direction)
            c = float(oc @ oc) - obj.radius ** 2
            disc = b * b - c
            if disc < 0:
                continue
            for t in (-b - math.sqrt(disc), -b + math.sqrt(disc)):
                if 1e-9 < t < best_t:
                    best_t, best_id = t, idx
                    break
        else:
            near, far = -math.inf, math.inf
            ok = True
            for ax in range(3):
                if direction[ax] == 0.0:
                    if not (obj.lo[ax] < origin[ax] < obj.hi[ax]):
                        ok = False
                        break
                    continue
                t1 = (obj.lo[ax] - origin[ax]) / direction[ax]
                t2 = (obj.hi[ax] - origin[ax]) / direction[ax]
                near = max(near, min(t1, t2))
                far = min(far, max(t1, t2))
            if not ok or near > far or far <= 1e-9:
                continue
            t = near if near > 1e-9 else far
            if t < best_t:
                best_t, best_id = t, idx
    if spec.floor_color is not None and direction[2] != 0.0:
        t = -origin[2] / direction[2]
        if 1e-9 < t < best_t:
            hit = origin + t * direction
            if hit[0] ** 2 + hit[1] ** 2 <= floor_radius ** 2:
                best_t, best_id = t, len(spec.objects)
    return best_t, best_id


def render_view_masked(spec, intrinsics, pose, height, width):
    """One view ray-cast the plain way: (image [3, h, w], depth [h, w]), float32.

    The camera origin is tiled to one row per ray, each box's slab bounds are
    stacked and reduced with nanmin/nanmax, and hits, normals and albedo are
    scattered through one boolean mask per object. The package renders the
    same bits with one broadcast origin; the scene constants are its own.
    """
    dirs = unproject(intrinsics, pose, patch_centers(height, width, 1))
    origins = np.tile(pose.origin, (dirs.shape[0], 1))
    best_t = np.full(dirs.shape[0], np.inf)
    best_id = np.full(dirs.shape[0], -1, dtype=np.int64)
    hits = [_sphere_t_masked(obj, origins, dirs) if hasattr(obj, "radius")
            else _box_t_masked(obj, origins, dirs) for obj in spec.objects]
    if spec.floor_color is not None:
        with np.errstate(divide="ignore", invalid="ignore"):
            t = -origins[:, 2] / dirs[:, 2]
            px = origins[:, 0] + t * dirs[:, 0]
            py = origins[:, 1] + t * dirs[:, 1]
        ok = np.isfinite(t) & (t > 1e-9) & (px * px + py * py <= ds.FLOOR_RADIUS ** 2)
        hits.append(np.where(ok, t, np.inf))
    for idx, t in enumerate(hits):
        closer = t < best_t
        best_t[closer] = t[closer]
        best_id[closer] = idx
    points = origins + dirs * np.where(np.isfinite(best_t), best_t, 0.0)[:, None]

    colors = np.empty((dirs.shape[0], 3))
    colors[:] = ds.BACKGROUND
    hit = best_id >= 0
    if hit.any():
        albedo = np.empty((dirs.shape[0], 3))
        normals = np.zeros_like(points)
        for idx, obj in enumerate(spec.objects):
            sel = best_id == idx
            albedo[sel] = obj.color
            if not sel.any():
                continue
            if hasattr(obj, "radius"):
                normals[sel] = (points[sel] - obj.center) / obj.radius
            else:
                rel = (points[sel] - (obj.lo + obj.hi) / 2.0) / ((obj.hi - obj.lo) / 2.0)
                face = np.argmax(np.abs(rel), axis=1)
                nv = np.zeros((sel.sum(), 3))
                nv[np.arange(sel.sum()), face] = np.sign(rel[np.arange(sel.sum()), face])
                normals[sel] = nv
        floor = best_id == len(spec.objects)
        if spec.floor_color is not None:
            albedo[floor] = spec.floor_color
        normals[floor] = [0.0, 0.0, 1.0]
        lambert = np.maximum(0.0, normals @ (-ds.LIGHT_DIR))
        shade_f = ds.AMBIENT + (1.0 - ds.AMBIENT) * lambert
        colors[hit] = albedo[hit] * shade_f[hit, None]
    image = colors.reshape(height, width, 3).transpose(2, 0, 1)
    depth = np.where(np.isfinite(best_t), best_t, np.nan).reshape(height, width)
    return image.astype(np.float32), depth.astype(np.float32)


def _sphere_t_masked(sph, origins, dirs):
    oc = origins - sph.center
    b = np.einsum("ij,ij->i", oc, dirs)
    disc = b * b - (np.einsum("ij,ij->i", oc, oc) - sph.radius ** 2)
    hit = disc >= 0.0
    sq = np.sqrt(np.where(hit, disc, 0.0))
    t = np.where(-b - sq > 1e-9, -b - sq, -b + sq)
    return np.where(hit & (t > 1e-9), t, np.inf)


def _box_t_masked(box, origins, dirs):
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (box.lo - origins) / dirs
        t2 = (box.hi - origins) / dirs
    with warnings.catch_warnings():  # all-nan slabs: an origin on both faces
        warnings.simplefilter("ignore", RuntimeWarning)
        near = np.nanmin(np.stack([t1, t2]), axis=0).max(axis=1)
        far = np.nanmax(np.stack([t1, t2]), axis=0).min(axis=1)
    inside = (origins > box.lo).all(axis=1) & (origins < box.hi).all(axis=1)
    t = np.where(near > 1e-9, near, far)
    ok = (near <= far) & (far > 1e-9) & (np.isfinite(t) | inside)
    return np.where(ok, t, np.inf)


# ---------------------------------------------------------------------------
# reference full-size architectures for the published FLOP comparisons
# ---------------------------------------------------------------------------
#
# Priced in the package's per-layer vocabulary, which the tests check
# separately, with closed forms of their own: the package's modules price
# themselves, and sharing that code would move both sides together.
# Hyperparameters below are calibrated reconstructions of the published
# models (several details are not public); totals land in the documented
# ratio bands rather than on exact per-model GFLOPs.

SRT_REF = dict(d_model=768, heads=12, d_k=64, d_v=64, ff_hidden=1536, enc_blocks=10,
               dec_blocks=2, conv_channels=(96, 192, 384), ray_channels=120, f=128)

DEFINE_REF = dict(d_model=512, latents=2048, enc_blocks=4, heads=8, d_k=64, d_v=64,
                  ff_hidden=1024, dec_heads=1, dec_d_k=256, dec_d_v=256, f=128,
                  conv_channels=(64, 128, 256, 512))


def attention_layers(n_q, n_kv, d_model, heads, d_k, d_v):
    """Q, K and V projections, the two products and the output projection."""
    return [LinearCost(n_q, d_model, heads * d_k), LinearCost(n_kv, d_model, heads * d_k),
            LinearCost(n_kv, d_model, heads * d_v), AttnProductCost(heads, n_q, n_kv, d_k, d_v),
            LinearCost(n_q, heads * d_v, d_model)]


def transformer_block_layers(n_q, n_kv, p):
    """Attention, then a two-layer feed-forward of width ``p["ff_hidden"]``."""
    d, hidden = p["d_model"], p["ff_hidden"]
    return (attention_layers(n_q, n_kv, d, p["heads"], p["d_k"], p["d_v"])
            + [LinearCost(n_q, d, hidden), LinearCost(n_q, hidden, d)])


def upsampling_cnn_layers(k, height, width, f, c_out):
    """log2(k) blocks from the (height // k) x (width // k) patch grid, then a
    final conv to ``c_out``. Block: a c_out tap conv, the tap image bilinearly
    doubled, and a conv from ch to ch / 2 at twice the size. The grid need not
    divide the image: 120 // 16 = 7 rows end at 112, after 4 blocks."""
    layers, h, w, ch = [], height // k, width // k, f
    while k > 1:
        layers += [ConvCost(h, w, ch, c_out), UpsampleCost(c_out, 2 * h, 2 * w),
                   ConvCost(2 * h, 2 * w, ch, ch // 2)]
        h, w, ch, k = 2 * h, 2 * w, ch // 2, k // 2
    return layers + [ConvCost(h, w, ch, c_out)]


def reference_srt_layers(height, width, k=1, n_views=1):
    """SRT-style encoder + decoder at full scale; k > 1 switches to patch queries."""
    p = SRT_REF
    layers = []
    h, w = height, width
    c_in = 3 + p["ray_channels"]
    for ch in p["conv_channels"]:  # stride-2 conv stack
        h, w = h // 2, w // 2
        layers.append(ConvCost(h, w, c_in, ch))
        c_in = ch
    tokens = n_views * h * w
    layers.append(LinearCost(h * w, c_in, p["d_model"]))  # 1x1 conv to token width
    for _ in range(p["enc_blocks"]):
        layers += transformer_block_layers(tokens, tokens, p)
    n_q = height * width // (k * k)
    for _ in range(p["dec_blocks"]):
        layers += transformer_block_layers(n_q, tokens, p)
    if k > 1:
        layers.append(LinearCost(n_q, 120, p["d_model"]))   # query embed
        layers.append(LinearCost(n_q, p["d_model"], p["f"]))  # feature head
        layers += upsampling_cnn_layers(k, height, width, p["f"], c_out=3)
    else:
        layers.append(LinearCost(n_q, p["d_model"], 3))     # rgb head
    return layers


def reference_define_layers(height, width, k=1, n_views=2, in_h=128, in_w=192):
    """Perceiver-style encoder with a fixed latent set + one-block decoder."""
    p = DEFINE_REF
    layers = []
    h, w = in_h, in_w
    c_in = 3
    for ch in p["conv_channels"]:  # conv front end, run once per input view
        h, w = h // 2, w // 2
        layers.append(ConvCost(h, w, c_in, ch))
        c_in = ch
    layers = layers * n_views
    in_tokens = n_views * h * w
    lat = p["latents"]
    # cross-attend input tokens into the latent set, then latent self-attention
    layers += transformer_block_layers(lat, in_tokens, p)
    for _ in range(p["enc_blocks"]):
        layers += transformer_block_layers(lat, lat, p)
    # single cross-attention decode stage, no feed-forward
    n_q = height * width // (k * k)
    layers += attention_layers(n_q, lat, p["d_model"], p["dec_heads"],
                               p["dec_d_k"], p["dec_d_v"])
    if k > 1:
        layers.append(LinearCost(n_q, 120, p["d_model"]))
        layers.append(LinearCost(n_q, p["d_model"], p["f"]))
        layers += upsampling_cnn_layers(k, height, width, p["f"], c_out=4)
    else:
        layers.append(LinearCost(n_q, p["d_model"], 4))     # rgb-d head
    return layers


def sum_all(x):
    """Sum of every element of ``x`` as a scalar tensor, from public ops: the
    scalar that a gradient check or a test's backward starts from."""
    return T.mul(T.mean_all(x), float(x.size))


def grad_check(f, x, step=1e-6):
    """Compare autodiff and central finite-difference gradients of ``f`` at ``x``.

    ``f`` must map the leaf tensor ``x`` to a scalar Tensor. Returns the worst
    relative error max_i |g_ad[i] - g_fd[i]| / max(1, |g_fd[i]|).
    """
    if not (1e-7 <= step <= 1e-4):
        raise ValueError(f"grad_check step {step} outside [1e-7, 1e-4]")
    if not isinstance(x, T.Tensor):
        raise TypeError("grad_check differentiates w.r.t. a Tensor leaf")
    x.requires_grad = True
    x.grad = None
    T.tape_clear()
    y = f(x)
    if y.shape != ():
        raise T.DimensionError("grad_check target must return a scalar")
    T.backward(y)
    if x.grad is None:
        raise RuntimeError("f(x) does not depend on x")
    g_ad = x.grad.reshape(-1).copy()
    x.grad = None

    flat = x.data.reshape(-1)
    g_fd = np.empty_like(g_ad)
    with T.no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            y_hi = float(f(x).data)
            flat[i] = orig - step
            y_lo = float(f(x).data)
            flat[i] = orig
            g_fd[i] = (y_hi - y_lo) / (2.0 * step)
    err = np.abs(g_ad - g_fd) / np.maximum(1.0, np.abs(g_fd))
    return float(err.max())
