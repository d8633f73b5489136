"""Minimal reverse-mode autodiff over float64 numpy arrays.

Design:
  * every value is a ``Tensor`` wrapping a C-contiguous float64 ndarray;
  * executed ops append ``(output, backward_fn)`` records to a module-level
    tape, so the backward pass replays the tape in exact reverse execution
    order and visits each node once;
  * one tape per training step: ``backward`` consumes and frees it;
  * no broadcasting beyond explicit bias adds — shape mismatches raise
    ``DimensionError`` instead of silently broadcasting.

The op set is exactly what the patch-ray model needs: matrix product,
row softmax, layer/batch norm, 3x3 convolution (stride 1 or 2), 2x nearest
and bilinear upsampling, and elementwise glue.
"""

from __future__ import annotations

import math

import numpy as np

from . import flops


class DimensionError(ValueError):
    """Shape or rank mismatch in a tensor op."""


class NumericError(ArithmeticError):
    """NaN/Inf or domain violation encountered in numeric code."""


# --------------------------------------------------------------------------
# tape machinery
# --------------------------------------------------------------------------

_tape: list | None = []  # None while gradient recording is disabled


class no_grad:
    """Context manager disabling gradient recording (for eval and benchmarks)."""

    def __enter__(self):
        global _tape
        self._saved = _tape
        _tape = None
        return self

    def __exit__(self, *exc):
        global _tape
        _tape = self._saved
        return False


def _recording():
    return _tape is not None


def _record(out, backward_fn):
    if _tape is not None and out.requires_grad:
        _tape.append((out, backward_fn))


def tape_clear():
    global _tape
    if _tape is not None:
        _tape = []


class Tensor:
    """A float64 ndarray plus gradient bookkeeping."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)  # 0-d stays 0-d: it is always contiguous
        self.data = arr
        # recording disabled -> the result is detached, like torch.no_grad
        self.requires_grad = bool(requires_grad) and _recording()
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def parameter(data):
    """Wrap ``data`` as a trainable leaf."""
    t = Tensor(data)
    t.requires_grad = True  # leaves stay trainable even if created under no_grad
    return t


def _accumulate(t, g):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g.copy() if isinstance(g, np.ndarray) else np.asarray(g, dtype=np.float64)
    else:
        t.grad += g


def backward(loss):
    """Reverse-mode sweep from scalar ``loss`` through the recorded tape.

    Consumes the tape: records are freed afterwards, so each recorded graph
    supports exactly one backward call. Ops whose outputs the loss never
    used contribute nothing (their output grad stays ``None``).
    """
    global _tape
    if _tape is None:
        raise RuntimeError("backward() called inside no_grad")
    if loss.shape != ():
        raise DimensionError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise RuntimeError("loss does not require grad; nothing to differentiate")
    nodes, _tape = _tape, []
    loss.grad = np.asarray(1.0)
    for out, fn in reversed(nodes):
        if out.grad is not None:
            fn(out.grad)


# --------------------------------------------------------------------------
# elementwise ops and reductions
# --------------------------------------------------------------------------

def _as_scalar(x):
    return isinstance(x, (int, float, np.floating, np.integer))


def add(a, b):
    """Elementwise sum; scalar second operand allowed, no other broadcasting."""
    if _as_scalar(b):
        out = Tensor(a.data + float(b), requires_grad=a.requires_grad)
        _record(out, lambda g: _accumulate(a, g))
        return out
    if a.shape != b.shape:
        raise DimensionError(f"add shape mismatch: {a.shape} vs {b.shape}")
    out = Tensor(a.data + b.data, requires_grad=a.requires_grad or b.requires_grad)

    def bwd(g):
        _accumulate(a, g)
        _accumulate(b, g)

    _record(out, bwd)
    return out


def sub(a, b):
    if a.shape != b.shape:
        raise DimensionError(f"sub shape mismatch: {a.shape} vs {b.shape}")
    out = Tensor(a.data - b.data, requires_grad=a.requires_grad or b.requires_grad)

    def bwd(g):
        _accumulate(a, g)
        _accumulate(b, -g)

    _record(out, bwd)
    return out


def mul(a, b):
    """Elementwise (same-shape) or tensor-by-scalar product."""
    if _as_scalar(b):
        s = float(b)
        out = Tensor(a.data * s, requires_grad=a.requires_grad)
        _record(out, lambda g: _accumulate(a, g * s))
        return out
    if a.shape != b.shape:
        raise DimensionError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    out = Tensor(a.data * b.data, requires_grad=a.requires_grad or b.requires_grad)

    def bwd(g):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    _record(out, bwd)
    return out


def bias_add_rows(x, b):
    """[n, d] + [d]: the one sanctioned broadcast, for linear layers."""
    if x.data.ndim != 2 or b.data.ndim != 1 or x.shape[1] != b.shape[0]:
        raise DimensionError(f"bias_add_rows: {x.shape} + {b.shape}")
    out = Tensor(x.data + b.data[None, :], requires_grad=x.requires_grad or b.requires_grad)

    def bwd(g):
        _accumulate(x, g)
        _accumulate(b, g.sum(axis=0))

    _record(out, bwd)
    return out


def leaky_relu(x, slope=0.2):
    mask = x.data >= 0
    out = Tensor(np.where(mask, x.data, slope * x.data), requires_grad=x.requires_grad)
    _record(out, lambda g: _accumulate(x, np.where(mask, g, slope * g)))
    return out


def absolute(x):
    out = Tensor(np.abs(x.data), requires_grad=x.requires_grad)
    sign = np.sign(x.data)
    _record(out, lambda g: _accumulate(x, g * sign))
    return out


def sum_all(x):
    out = Tensor(x.data.sum(), requires_grad=x.requires_grad)
    shape = x.shape
    _record(out, lambda g: _accumulate(x, np.full(shape, float(g))))
    return out


def mean_all(x):
    n = x.size
    out = Tensor(x.data.mean(), requires_grad=x.requires_grad)
    shape = x.shape
    _record(out, lambda g: _accumulate(x, np.full(shape, float(g) / n)))
    return out


def take(x, indices):
    """Gather flat ``indices`` from ``x`` into a 1-D tensor (masked-loss plumbing)."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise DimensionError("take expects a flat index vector")
    out = Tensor(x.data.reshape(-1)[idx], requires_grad=x.requires_grad)
    shape = x.shape

    def bwd(g):
        full = np.zeros(shape, dtype=np.float64).reshape(-1)
        np.add.at(full, idx, g)
        _accumulate(x, full.reshape(shape))

    _record(out, bwd)
    return out


def concat(tensors, axis=0):
    tensors = list(tensors)
    if not tensors:
        raise DimensionError("concat of empty list")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    out = Tensor(out_data, requires_grad=any(t.requires_grad for t in tensors))
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(sl)])

    _record(out, bwd)
    return out


def reshape(x, shape):
    out = Tensor(x.data.reshape(shape), requires_grad=x.requires_grad)
    old = x.shape
    _record(out, lambda g: _accumulate(x, g.reshape(old)))
    return out


def transpose(x, axes):
    axes = tuple(axes)
    if sorted(axes) != list(range(x.data.ndim)):
        raise DimensionError(f"transpose axes {axes} invalid for rank {x.data.ndim}")
    out = Tensor(np.ascontiguousarray(x.data.transpose(axes)), requires_grad=x.requires_grad)
    inverse = tuple(np.argsort(axes))
    _record(out, lambda g: _accumulate(x, np.ascontiguousarray(g.transpose(inverse))))
    return out


# --------------------------------------------------------------------------
# dense ops
# --------------------------------------------------------------------------

def matmul(a, b):
    """[m, k] @ [k, n]."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError("matmul expects two rank-2 tensors")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner dims: {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data, requires_grad=a.requires_grad or b.requires_grad)
    flops.add_flops(2.0 * a.shape[0] * a.shape[1] * b.shape[1])

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    _record(out, bwd)
    return out


def linear(x, w, b=None):
    """x[n, d_in] @ w[d_in, d_out] (+ b)."""
    y = matmul(x, w)
    if b is not None:
        y = bias_add_rows(y, b)
    return y


def softmax_rows(x):
    """Row-wise softmax of a [n, m] tensor, max-subtracted for stability."""
    if x.data.ndim != 2:
        raise DimensionError("softmax_rows expects rank 2")
    if not np.all(np.isfinite(x.data)):
        raise NumericError("softmax_rows: non-finite input")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)
    out = Tensor(y, requires_grad=x.requires_grad)

    def bwd(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        _accumulate(x, (g - dot) * y)

    _record(out, bwd)
    return out


def layer_norm(x, gamma, beta, eps=1e-5):
    """Normalize each row of [n, d] to zero mean / unit variance, then affine."""
    if x.data.ndim != 2:
        raise DimensionError("layer_norm expects rank 2")
    d = x.shape[1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError("layer_norm affine params must be [d]")
    mu = x.data.mean(axis=1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Tensor(xhat * gamma.data[None, :] + beta.data[None, :],
                 requires_grad=x.requires_grad or gamma.requires_grad or beta.requires_grad)

    def bwd(g):
        if gamma.requires_grad:
            _accumulate(gamma, (g * xhat).sum(axis=0))
        if beta.requires_grad:
            _accumulate(beta, g.sum(axis=0))
        if x.requires_grad:
            gx = g * gamma.data[None, :]
            # d/dx of (x - mu) * inv with mu, inv functions of the row
            term = gx - gx.mean(axis=1, keepdims=True) \
                - xhat * (gx * xhat).mean(axis=1, keepdims=True)
            _accumulate(x, term * inv)

    _record(out, bwd)
    return out


class BatchNormState:
    """Running statistics for one batch-norm layer (part of model state)."""

    def __init__(self, channels, momentum=0.9, eps=1e-5):
        self.running_mean = np.zeros(channels, dtype=np.float64)
        self.running_var = np.ones(channels, dtype=np.float64)
        self.momentum = momentum
        self.eps = eps


def batch_norm(x, gamma, beta, state, training):
    """Per-channel normalization of a [c, h, w] map.

    Train mode normalizes with the current map's spatial statistics and
    updates ``state`` as running = momentum * running + (1 - momentum) * batch
    (biased variance throughout). Eval mode normalizes with the stored
    running statistics.
    """
    if x.data.ndim != 3:
        raise DimensionError("batch_norm expects [c, h, w]")
    c = x.shape[0]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError("batch_norm affine params must be [c]")
    eps = state.eps
    if training:
        mu = x.data.mean(axis=(1, 2))
        xc = x.data - mu[:, None, None]
        var = (xc * xc).mean(axis=(1, 2))
        m = state.momentum
        state.running_mean = m * state.running_mean + (1.0 - m) * mu
        state.running_var = m * state.running_var + (1.0 - m) * var
    else:
        mu = state.running_mean
        var = state.running_var
        xc = x.data - mu[:, None, None]
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv[:, None, None]
    out = Tensor(xhat * gamma.data[:, None, None] + beta.data[:, None, None],
                 requires_grad=x.requires_grad or gamma.requires_grad or beta.requires_grad)
    n = x.shape[1] * x.shape[2]

    def bwd(g):
        if gamma.requires_grad:
            _accumulate(gamma, (g * xhat).sum(axis=(1, 2)))
        if beta.requires_grad:
            _accumulate(beta, g.sum(axis=(1, 2)))
        if x.requires_grad:
            gx = g * gamma.data[:, None, None]
            if training:
                # batch statistics depend on x
                term = gx - gx.mean(axis=(1, 2), keepdims=True) \
                    - xhat * (gx * xhat).mean(axis=(1, 2), keepdims=True)
                _accumulate(x, term * inv[:, None, None])
            else:
                _accumulate(x, gx * inv[:, None, None])

    _record(out, bwd)
    return out


def conv2d(x, w, b=None, stride=1):
    """3x3 convolution of [c_in, h, w] with [c_out, c_in, 3, 3], zero padding 1.

    Stride 1 keeps the spatial size; stride 2 halves it (ceil). Implemented
    as im2col + one matrix product so the work lands in BLAS.
    """
    if x.data.ndim != 3 or w.data.ndim != 4:
        raise DimensionError("conv2d expects x[c,h,w], w[c_out,c_in,3,3]")
    c_out, c_in, kh, kw = w.shape
    if (kh, kw) != (3, 3):
        raise DimensionError("conv2d kernel must be 3x3")
    if c_in != x.shape[0]:
        raise DimensionError(f"conv2d channels: x has {x.shape[0]}, w expects {c_in}")
    if stride not in (1, 2):
        raise DimensionError("conv2d stride must be 1 or 2")
    h, wd = x.shape[1], x.shape[2]
    oh = (h - 1) // stride + 1
    ow = (wd - 1) // stride + 1
    xp = np.pad(x.data, ((0, 0), (1, 1), (1, 1)))
    cols = np.empty((c_in, 3, 3, oh, ow), dtype=np.float64)
    for ky in range(3):
        for kx in range(3):
            cols[:, ky, kx] = xp[:, ky:ky + stride * oh:stride, kx:kx + stride * ow:stride]
    mat = cols.reshape(c_in * 9, oh * ow)
    wmat = w.data.reshape(c_out, c_in * 9)
    out_data = (wmat @ mat).reshape(c_out, oh, ow)
    if b is not None:
        if b.shape != (c_out,):
            raise DimensionError("conv2d bias must be [c_out]")
        out_data = out_data + b.data[:, None, None]
    req = x.requires_grad or w.requires_grad or (b is not None and b.requires_grad)
    out = Tensor(out_data, requires_grad=req)
    flops.add_flops(2.0 * c_out * c_in * 9 * oh * ow)

    def bwd(g):
        gmat = g.reshape(c_out, oh * ow)
        if b is not None and b.requires_grad:
            _accumulate(b, g.sum(axis=(1, 2)))
        if w.requires_grad:
            _accumulate(w, (gmat @ mat.T).reshape(w.shape))
        if x.requires_grad:
            dcols = (wmat.T @ gmat).reshape(c_in, 3, 3, oh, ow)
            dxp = np.zeros_like(xp)
            for ky in range(3):
                for kx in range(3):
                    dxp[:, ky:ky + stride * oh:stride, kx:kx + stride * ow:stride] += dcols[:, ky, kx]
            _accumulate(x, dxp[:, 1:-1, 1:-1])

    _record(out, bwd)
    return out


def upsample_nearest2x(x):
    """[c, h, w] -> [c, 2h, 2w] by pixel duplication."""
    if x.data.ndim != 3:
        raise DimensionError("upsample_nearest2x expects [c, h, w]")
    out = Tensor(x.data.repeat(2, axis=1).repeat(2, axis=2), requires_grad=x.requires_grad)
    c, h, w = x.shape

    def bwd(g):
        _accumulate(x, g.reshape(c, h, 2, w, 2).sum(axis=(2, 4)))

    _record(out, bwd)
    return out


def _bilinear_axis_weights(n_out, n_in):
    # half-pixel centers: out i samples input at (i + 0.5)/2 - 0.5, edge-clamped
    src = (np.arange(n_out) + 0.5) / 2.0 - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    i0 = np.floor(src).astype(np.intp)
    i1 = np.minimum(i0 + 1, n_in - 1)
    a = src - i0
    return i0, i1, a


def upsample_bilinear2x(x):
    """[c, h, w] -> [c, 2h, 2w], half-pixel-center bilinear with edge clamping."""
    if x.data.ndim != 3:
        raise DimensionError("upsample_bilinear2x expects [c, h, w]")
    c, h, w = x.shape
    r0, r1, ra = _bilinear_axis_weights(2 * h, h)
    c0, c1, ca = _bilinear_axis_weights(2 * w, w)
    rows = (1.0 - ra)[None, :, None] * x.data[:, r0, :] + ra[None, :, None] * x.data[:, r1, :]
    out_data = (1.0 - ca)[None, None, :] * rows[:, :, c0] + ca[None, None, :] * rows[:, :, c1]
    out = Tensor(out_data, requires_grad=x.requires_grad)
    # priced as 4 MACs (two lerps) per output element
    flops.add_flops(8.0 * c * (2 * h) * (2 * w))

    def bwd(g):
        drows = np.zeros((c, 2 * h, w), dtype=np.float64)
        np.add.at(drows, (slice(None), slice(None), c0), g * (1.0 - ca)[None, None, :])
        np.add.at(drows, (slice(None), slice(None), c1), g * ca[None, None, :])
        dx = np.zeros((c, h, w), dtype=np.float64)
        np.add.at(dx, (slice(None), r0), drows * (1.0 - ra)[None, :, None])
        np.add.at(dx, (slice(None), r1), drows * ra[None, :, None])
        _accumulate(x, dx)

    _record(out, bwd)
    return out


# --------------------------------------------------------------------------
# gradient checking
# --------------------------------------------------------------------------

def grad_check(f, x, step=1e-6):
    """Compare autodiff and central finite-difference gradients of ``f`` at ``x``.

    ``f`` must map the leaf tensor ``x`` to a scalar Tensor. Returns the worst
    relative error max_i |g_ad[i] - g_fd[i]| / max(1, |g_fd[i]|).
    """
    if not (1e-7 <= step <= 1e-4):
        raise ValueError(f"grad_check step {step} outside [1e-7, 1e-4]")
    if not isinstance(x, Tensor):
        raise TypeError("grad_check differentiates w.r.t. a Tensor leaf")
    x.requires_grad = True
    x.grad = None
    tape_clear()
    y = f(x)
    if y.shape != ():
        raise DimensionError("grad_check target must return a scalar")
    backward(y)
    if x.grad is None:
        raise RuntimeError("f(x) does not depend on x")
    g_ad = x.grad.reshape(-1).copy()
    x.grad = None

    flat = x.data.reshape(-1)
    g_fd = np.empty_like(g_ad)
    with no_grad():
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


def global_grad_norm(params):
    """L2 norm over the concatenated gradients of ``params`` (None grads count as 0)."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    return math.sqrt(total)
