"""Minimal reverse-mode autodiff over float64 numpy arrays.

Design:
  * every value is a ``Tensor`` wrapping a C-contiguous float64 ndarray;
  * executed ops append ``(output, backward_fn)`` records to a module-level
    tape, so the backward pass replays the tape in exact reverse execution
    order and visits each node once;
  * one tape per training step: ``backward`` pops each record as it runs it,
    so a record's closure, the forward arrays only it holds and the output's
    gradient are freed as the sweep passes them; afterwards only leaves
    (parameters, ``grad_check`` inputs) hold a ``.grad``;
  * gradients are handed over, not copied, by one rule: an op passes
    ``owned=True`` to ``_accumulate`` only for an array it just allocated
    and gives to exactly one input. Views (``reshape``, ``concat``,
    ``split``), one array given to two inputs (``add``) and what may be the
    incoming gradient itself (``transpose``) are copied when they are an
    input's first gradient;
  * a record keeps only the arrays its backward reads. A ``conv2d`` record
    keeps the im2col matrix, which it builds without a padded copy of the
    input, and keeps the input only if the input needs a gradient.
    ``matmul(a, b, scale=s)`` multiplies the fresh product by ``s`` in place,
    so a scaled product (attention's logits) is one array, not two;
  * no broadcasting beyond explicit bias adds — shape mismatches raise
    ``DimensionError`` instead of silently broadcasting.

The op set is exactly what the patch-ray model needs: matrix product,
row softmax, layer/batch norm, 3x3 convolution (stride 1 or 2), 2x nearest
and bilinear upsampling, and elementwise glue.

Allocator: importing this module (so importing ``raypatch``) sets glibc's
``mallopt`` thresholds for the whole process: arrays up to 32 MiB come from
the heap instead of a fresh ``mmap``, and up to 64 MiB of freed heap top is
kept instead of being returned to the system. A train step frees its
activations during backward; with the defaults the next step faulted the
same pages back in, about 6,000 minor faults per ``pixel`` step at the CLI
default config and 1,450 per ``raypatch`` step, against 0-3 with these
thresholds. Where there is no glibc ``mallopt`` nothing is set. No
arithmetic depends on it.
"""

from __future__ import annotations

import ctypes
import itertools
import math

import numpy as np

from . import flops


LEAKY_SLOPE = 0.2  # leaky_relu's slope below 0
NORM_EPS = 1e-5     # added to the variance by layer_norm and batch_norm
BN_MOMENTUM = 0.9   # weight of the old value in batch_norm's running statistics

M_TRIM_THRESHOLD = -1          # glibc mallopt parameter numbers (malloc.h)
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 32 << 20  # glibc's maximum: smaller blocks come from the heap
TRIM_THRESHOLD_BYTES = 64 << 20  # free heap top kept before trimming it back


def _keep_heap_pages():
    """Raise glibc's mmap and trim thresholds so that freed activations stay
    mapped for the next step; a no-op without glibc's ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


_keep_heap_pages()


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


def _accumulate(t, g, owned=False):
    """Add ``g`` into ``t.grad``. ``owned``: ``g`` is a fresh array that no one
    else holds, so a first gradient may be stored as it is instead of copied.
    A numpy scalar (the product of a 0-d gradient) is stored as a 0-d array."""
    if not t.requires_grad:
        return
    if t.grad is not None:
        t.grad += g
    elif owned and isinstance(g, np.ndarray):
        t.grad = g
    else:
        t.grad = g.copy() if isinstance(g, np.ndarray) else np.asarray(g, dtype=np.float64)


def backward(loss):
    """Reverse-mode sweep from scalar ``loss`` through the recorded tape.

    Consumes the tape: each record is popped before its backward runs and
    the output's gradient is taken off it, so both are freed as soon as the
    sweep has passed them, and each recorded graph supports exactly one
    backward call. Afterwards only leaves hold a ``.grad``. Ops whose outputs
    the loss never used contribute nothing.
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
    while nodes:
        out, fn = nodes.pop()
        g, out.grad = out.grad, None
        if g is not None:
            fn(g)


# --------------------------------------------------------------------------
# elementwise ops and reductions
# --------------------------------------------------------------------------

def _as_scalar(x):
    return isinstance(x, (int, float, np.floating, np.integer))


def add(a, b):
    """Elementwise sum of two same-shape tensors; no broadcasting."""
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
        _accumulate(b, -g, owned=True)

    _record(out, bwd)
    return out


def mul(a, b):
    """Elementwise (same-shape) or tensor-by-scalar product."""
    if _as_scalar(b):
        s = float(b)
        out = Tensor(a.data * s, requires_grad=a.requires_grad)
        _record(out, lambda g: _accumulate(a, g * s, owned=True))
        return out
    if a.shape != b.shape:
        raise DimensionError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    out = Tensor(a.data * b.data, requires_grad=a.requires_grad or b.requires_grad)

    def bwd(g):
        _accumulate(a, g * b.data, owned=True)
        _accumulate(b, g * a.data, owned=True)

    _record(out, bwd)
    return out


def leaky_relu(x):
    # for 0 < LEAKY_SLOPE < 1 the larger of x and LEAKY_SLOPE * x is the branch
    out = Tensor(np.maximum(x.data, LEAKY_SLOPE * x.data), requires_grad=x.requires_grad)
    _record(out, lambda g: _accumulate(x, g * np.where(x.data >= 0, 1.0, LEAKY_SLOPE),
                                       owned=True))
    return out


def absolute(x):
    out = Tensor(np.abs(x.data), requires_grad=x.requires_grad)
    sign = np.sign(x.data)
    _record(out, lambda g: _accumulate(x, g * sign, owned=True))
    return out


def sum_all(x):
    out = Tensor(x.data.sum(), requires_grad=x.requires_grad)
    shape = x.shape
    _record(out, lambda g: _accumulate(x, np.full(shape, float(g)), owned=True))
    return out


def mean_all(x):
    n = x.size
    out = Tensor(x.data.mean(), requires_grad=x.requires_grad)
    shape = x.shape
    _record(out, lambda g: _accumulate(x, np.full(shape, float(g) / n), owned=True))
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
        _accumulate(x, full.reshape(shape), owned=True)

    _record(out, bwd)
    return out


def _cuts(sizes, axis):
    """Index tuples of consecutive blocks of ``sizes`` along (non-negative) ``axis``."""
    ends = itertools.accumulate(sizes)
    return [(slice(None),) * axis + (slice(end - n, end),) for n, end in zip(sizes, ends)]


def concat(tensors, axis=0):
    tensors = list(tensors)
    if not tensors:
        raise DimensionError("concat of empty list")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    out = Tensor(out_data, requires_grad=any(t.requires_grad for t in tensors))
    cuts = _cuts([t.shape[axis] for t in tensors], axis % out_data.ndim)

    def bwd(g):
        for t, cut in zip(tensors, cuts):
            _accumulate(t, g[cut])

    _record(out, bwd)
    return out


def split(x, sizes, axis=0):
    """Cut ``x`` along ``axis`` into parts of ``sizes``: the inverse of ``concat``."""
    if min(sizes, default=-1) < 0 or sum(sizes) != x.shape[axis]:
        raise DimensionError(f"split sizes {sizes} do not add up to axis {axis} of {x.shape}")
    cuts = _cuts(sizes, axis % x.data.ndim)
    parts = [Tensor(x.data[cut], requires_grad=x.requires_grad) for cut in cuts]

    def bwd(cut, g):  # each part's gradient goes into its slice of one buffer, x.grad
        if x.grad is None:
            x.grad = np.zeros(x.shape)
        x.grad[cut] += g

    for part, cut in zip(parts, cuts):
        _record(part, lambda g, cut=cut: bwd(cut, g))
    return parts


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

def _product(name, x, w, b, scale=None):
    """x[n, d_in] @ w[d_in, d_out] (+ b[d_out] on every row, or times
    ``scale``) as one tape op."""
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise DimensionError(f"{name} expects two rank-2 tensors")
    if x.shape[1] != w.shape[0]:
        raise DimensionError(f"{name} inner dims: {x.shape} @ {w.shape}")
    if b is not None and b.shape != (w.shape[1],):
        raise DimensionError(f"{name} bias {b.shape} for output width {w.shape[1]}")
    y = x.data @ w.data
    flops.add_flops(2.0 * x.shape[0] * x.shape[1] * w.shape[1])
    if b is not None:
        y += b.data
    if scale is not None:
        y *= scale
    req = x.requires_grad or w.requires_grad or (b is not None and b.requires_grad)
    out = Tensor(y, requires_grad=req)

    def bwd(g):
        if scale is not None:
            g = g * scale  # what a separate mul op's backward handed over
        if b is not None and b.requires_grad:
            _accumulate(b, g.sum(axis=0), owned=True)
        if x.requires_grad:
            _accumulate(x, g @ w.data.T, owned=True)
        if w.requires_grad:
            _accumulate(w, x.data.T @ g, owned=True)

    _record(out, bwd)
    return out


def matmul(a, b, scale=None):
    """[m, k] @ [k, n], times the number ``scale`` if one is given.

    The scale is applied in place to the fresh product, so a scaled product
    holds one array, not two; forward and gradients are bit-equal to
    ``mul(matmul(a, b), scale)``."""
    return _product("matmul", a, b, None, scale)


def linear(x, w, b=None):
    """x[n, d_in] @ w[d_in, d_out] (+ b[d_out] on every row), one tape op."""
    return _product("linear", x, w, b)


def softmax_rows(x):
    """Row-wise softmax of a [n, m] tensor, max-subtracted for stability."""
    if x.data.ndim != 2:
        raise DimensionError("softmax_rows expects rank 2")
    if not np.all(np.isfinite(x.data)):
        raise NumericError("softmax_rows: non-finite input")
    # shift, exponentiate and normalize in one logit-sized buffer
    y = x.data - x.data.max(axis=1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=1, keepdims=True)
    out = Tensor(y, requires_grad=x.requires_grad)

    def bwd(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        gx = g - dot
        gx *= y
        _accumulate(x, gx, owned=True)

    _record(out, bwd)
    return out


def layer_norm(x, gamma, beta):
    """Normalize each row of [n, d] to zero mean / unit variance, then affine."""
    if x.data.ndim != 2:
        raise DimensionError("layer_norm expects rank 2")
    d = x.shape[1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError("layer_norm affine params must be [d]")
    mu = x.data.mean(axis=1, keepdims=True)
    xhat = x.data - mu  # centred, then scaled in place
    var = (xhat * xhat).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    xhat *= inv
    y = xhat * gamma.data
    y += beta.data
    out = Tensor(y, requires_grad=x.requires_grad or gamma.requires_grad or beta.requires_grad)

    def bwd(g):
        if gamma.requires_grad:
            _accumulate(gamma, (g * xhat).sum(axis=0), owned=True)
        if beta.requires_grad:
            _accumulate(beta, g.sum(axis=0), owned=True)
        if x.requires_grad:
            gx = g * gamma.data
            # d/dx of (x - mu) * inv with mu, inv functions of the row
            term = gx - gx.mean(axis=1, keepdims=True)
            term -= xhat * (gx * xhat).mean(axis=1, keepdims=True)
            term *= inv
            _accumulate(x, term, owned=True)

    _record(out, bwd)
    return out


class BatchNormState:
    """Running statistics for one batch-norm layer (part of model state)."""

    def __init__(self, channels):
        self.running_mean = np.zeros(channels, dtype=np.float64)
        self.running_var = np.ones(channels, dtype=np.float64)


def batch_norm(x, gamma, beta, state, training):
    """Per-channel normalization of a [c, h, w] map.

    Train mode normalizes with the current map's spatial statistics and
    updates ``state`` as running = m * running + (1 - m) * batch, m = BN_MOMENTUM
    (biased variance throughout). Eval mode normalizes with the stored
    running statistics.
    """
    if x.data.ndim != 3:
        raise DimensionError("batch_norm expects [c, h, w]")
    c = x.shape[0]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError("batch_norm affine params must be [c]")
    if training:
        mu = x.data.mean(axis=(1, 2))
        xhat = x.data - mu[:, None, None]  # centred, then scaled in place
        var = (xhat * xhat).mean(axis=(1, 2))
        m = BN_MOMENTUM
        state.running_mean = m * state.running_mean + (1.0 - m) * mu
        state.running_var = m * state.running_var + (1.0 - m) * var
    else:
        mu = state.running_mean
        var = state.running_var
        xhat = x.data - mu[:, None, None]
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    xhat *= inv[:, None, None]
    y = xhat * gamma.data[:, None, None]
    y += beta.data[:, None, None]
    out = Tensor(y, requires_grad=x.requires_grad or gamma.requires_grad or beta.requires_grad)

    def bwd(g):
        if gamma.requires_grad:
            _accumulate(gamma, (g * xhat).sum(axis=(1, 2)), owned=True)
        if beta.requires_grad:
            _accumulate(beta, g.sum(axis=(1, 2)), owned=True)
        if x.requires_grad:
            gx = g * gamma.data[:, None, None]
            if training:
                # batch statistics depend on x
                term = gx - gx.mean(axis=(1, 2), keepdims=True)
                term -= xhat * (gx * xhat).mean(axis=(1, 2), keepdims=True)
                gx = term
            gx *= inv[:, None, None]
            _accumulate(x, gx, owned=True)

    _record(out, bwd)
    return out


def _conv_taps(n_in, n_out, stride):
    """For each of the 3 kernel offsets along one axis: (lo, hi, src), where
    outputs lo:hi read inputs ``src`` and the outputs outside lo:hi read the
    zero padding."""
    taps = []
    for k in range(3):
        lo = 1 if k == 0 else 0  # output 0 of offset 0 reads the padding
        hi = min(n_out, (n_in - k) // stride + 1)
        first = k - 1 + stride * lo
        taps.append((lo, hi, slice(first, first + stride * (hi - lo), stride)))
    return taps


def conv2d(x, w, b=None, stride=1):
    """3x3 convolution of [c_in, h, w] with [c_out, c_in, 3, 3], zero padding 1.

    Stride 1 keeps the spatial size; stride 2 halves it (ceil). Implemented
    as im2col + one matrix product so the work lands in BLAS. The im2col
    matrix is built from ``x`` without a padded copy: each tap copies its
    in-range window and zeroes its border strips. The tape record keeps the
    matrix (the weight gradient reads it) and keeps ``x`` only if ``x`` needs
    a gradient.
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
    if b is not None and b.shape != (c_out,):
        raise DimensionError("conv2d bias must be [c_out]")
    h, wd = x.shape[1], x.shape[2]
    oh = (h - 1) // stride + 1
    ow = (wd - 1) // stride + 1
    row_taps, col_taps = _conv_taps(h, oh, stride), _conv_taps(wd, ow, stride)
    taps = [(ky, kx, row_taps[ky], col_taps[kx]) for ky in range(3) for kx in range(3)]
    cols = np.empty((c_in, 3, 3, oh, ow), dtype=np.float64)
    for ky, kx, (r0, r1, src_r), (c0, c1, src_c) in taps:
        tap = cols[:, ky, kx]
        tap[:, r0:r1, c0:c1] = x.data[:, src_r, src_c]
        tap[:, :r0] = 0.0
        tap[:, r1:] = 0.0
        tap[:, :, :c0] = 0.0
        tap[:, :, c1:] = 0.0
    mat = cols.reshape(c_in * 9, oh * ow)
    wmat = w.data.reshape(c_out, c_in * 9)
    out_data = (wmat @ mat).reshape(c_out, oh, ow)
    if b is not None:
        out_data += b.data[:, None, None]
    req = x.requires_grad or w.requires_grad or (b is not None and b.requires_grad)
    out = Tensor(out_data, requires_grad=req)
    flops.add_flops(2.0 * c_out * c_in * 9 * oh * ow)
    src = x if x.requires_grad else None  # the record holds x only to hand it a gradient

    def bwd(g):
        gmat = g.reshape(c_out, oh * ow)
        if b is not None and b.requires_grad:
            _accumulate(b, g.sum(axis=(1, 2)), owned=True)
        if w.requires_grad:
            _accumulate(w, (gmat @ mat.T).reshape(w.shape), owned=True)
        if src is not None:
            dcols = (wmat.T @ gmat).reshape(c_in, 3, 3, oh, ow)
            dx = np.zeros((c_in, h, wd), dtype=np.float64)
            for ky, kx, (r0, r1, src_r), (c0, c1, src_c) in taps:
                dx[:, src_r, src_c] += dcols[:, ky, kx, r0:r1, c0:c1]
            _accumulate(src, dx, owned=True)

    _record(out, bwd)
    return out


def upsample_nearest2x(x):
    """[c, h, w] -> [c, 2h, 2w] by pixel duplication."""
    if x.data.ndim != 3:
        raise DimensionError("upsample_nearest2x expects [c, h, w]")
    out = Tensor(x.data.repeat(2, axis=1).repeat(2, axis=2), requires_grad=x.requires_grad)
    c, h, w = x.shape

    def bwd(g):
        _accumulate(x, g.reshape(c, h, 2, w, 2).sum(axis=(2, 4)), owned=True)

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
        _accumulate(x, dx, owned=True)

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
