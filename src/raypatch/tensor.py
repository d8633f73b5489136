"""Minimal reverse-mode autodiff over float64 numpy arrays.

Design:
  * every value is a ``Tensor`` wrapping a C-contiguous float64 ndarray. A
    tensor that needs a gradient also carries a grad slot, a one-field
    object its gradient accumulates in; a tensor that needs none carries no
    slot, so code run under ``no_grad`` allocates nothing for gradients;
  * executed ops append ``(slot, backward_fn)`` records to a module-level
    tape, ``slot`` being the output's, so the backward pass replays the tape
    in exact reverse execution order and visits each node once;
  * records and closures hold gradient slots, never tensors. A closure
    captures its inputs' slots plus only the arrays its backward reads, so
    an op's output array lives only as long as the forward code or a
    backward that reads it holds it. ``mul`` keeps each input's array only
    for the other input's gradient and ``linear``/``matmul`` likewise;
    ``leaky_relu`` keeps the boolean sign mask of its input; ``softmax_rows``
    keeps its own output; ``attention`` keeps each head's probabilities and
    its inputs, not its logits or output; ``layer_norm`` and
    ``instance_norm`` keep ``xhat`` and ``inv``; ``conv2d`` keeps its phase
    maps (the zero-padded input split by stride phase, about the input's
    size, for the weight gradient) and the weight's columns of the input
    (for the input gradient); ``split``, ``reshape``, ``take`` and the
    upsamplings keep shapes and indices only;
  * one tape per training step: ``backward`` pops each record as it runs it,
    so a record's closure, the forward arrays only it holds and the output's
    gradient are freed as the sweep passes them; afterwards only leaves
    (parameters, and tensors a caller marked ``requires_grad``) hold a ``.grad``;
  * gradients are handed over, not copied, by one rule: an op passes
    ``owned=True`` to ``_accumulate`` only for an array it just allocated
    and gives to exactly one input. Views (``reshape``, ``concat``,
    ``split``), one array given to two inputs (``add``) and what may be the
    incoming gradient itself (``transpose``) are copied when they are an
    input's first gradient;
  * no broadcasting beyond explicit bias adds — shape mismatches raise
    ``DimensionError`` instead of silently broadcasting.

The op set is exactly what the patch-ray model needs: matrix product,
row softmax, multi-head scaled-dot attention (all heads in one op), layer
norm, instance norm (each channel of one [c, h, w] map normalized with its
own statistics), 3x3 convolution (stride 1 or 2; w is [c_out, 3, 3, c_in],
whose last input channels may read one constant vector at every pixel), 2x
nearest and bilinear upsampling, and elementwise glue.

Allocator: importing this module (so importing ``raypatch``) sets glibc's
``mallopt`` thresholds for the whole process: arrays up to 32 MiB come from
the heap instead of a fresh ``mmap``, and up to 64 MiB of freed heap top is
kept instead of being returned to the system. A train step frees its
activations during backward; with the defaults the next step faulted the
same pages back in, about 6,000 minor faults per ``pixel`` step at the CLI
default config and 1,450 per ``raypatch`` step, against 0-3 with these
thresholds. ``M_ARENA_MAX`` is 1: the branch workers (below) allocate from
the one main heap instead of an arena each, which held the ``render``
benchmark's peak RSS at 247-249 MiB against 260-262. Where there is no
glibc ``mallopt`` nothing is set. No arithmetic depends on it.

Branches: without gradient recording, ``_branches`` runs independent chains
of ops (``attention``'s heads, K and V projections, encoder views from the
raw view to its tokens) on the caller's thread and on CPUs that BLAS leaves
idle, when each chain has at least ``BRANCH_FLOPS``. Each chain runs the ops
it runs serially, so results are bit-identical; recorded calls run serially,
so the tape order is the serial one.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from . import flops


LEAKY_SLOPE = 0.2  # leaky_relu's slope below 0
_LEAKY_FACTORS = np.array([LEAKY_SLOPE, 1.0])  # leaky_relu's derivative, indexed by x >= 0
NORM_EPS = 1e-5     # added to each row's variance by layer_norm and instance_norm

M_TRIM_THRESHOLD = -1          # glibc mallopt parameter numbers (malloc.h)
M_MMAP_THRESHOLD = -3
M_ARENA_MAX = -8
MMAP_THRESHOLD_BYTES = 32 << 20  # glibc's maximum: smaller blocks come from the heap
TRIM_THRESHOLD_BYTES = 64 << 20  # free heap top kept before trimming it back


def _keep_heap_pages():
    """Raise glibc's mmap and trim thresholds so that freed activations stay
    mapped for the next step, and keep every thread on one arena; a no-op
    without glibc's ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)
    mallopt(M_ARENA_MAX, 1)


_keep_heap_pages()

# Smallest branch, in FLOPs, that ``_branches`` hands to a worker. Below it
# the hand-over costs more than the overlap saves (see README, "Branches").
BRANCH_FLOPS = 2e7


def _blas_threads():
    """The thread count of numpy's OpenBLAS, or None where it cannot be read."""
    core = np._core if int(np.__version__.split(".")[0]) >= 2 else np.core
    try:
        lib = ctypes.CDLL(core._multiarray_umath.__file__)
    except OSError:
        return None
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads"):
        get = getattr(lib, name, None)
        if get is not None:
            get.restype = ctypes.c_int
            return get()
    return None


def _spare_workers():
    """CPUs this process may run on that BLAS leaves idle: 0 where the BLAS
    thread count is unknown."""
    blas = _blas_threads()
    return 0 if blas is None else max(len(os.sched_getaffinity(0)) - blas, 0)


_SPARE = _spare_workers()
_pool = None  # the branch workers, started on first use


def _branches(fn, args, flops_each):
    """``[fn(*a) for a in args]``, the branches shared between the caller's
    thread and up to ``_SPARE`` workers when gradients are not recorded, there
    is a spare CPU and each branch has at least ``BRANCH_FLOPS``
    (``flops_each``); serially otherwise.

    Each thread takes the next branch not yet taken, so the results are the
    serial ones, in order. Workers run under the caller's numpy error state.
    If a branch raises, the others still finish before the error is raised.
    """
    lanes = min(_SPARE + 1, len(args))
    if _tape is not None or lanes < 2 or flops_each < BRANCH_FLOPS:
        return [fn(*a) for a in args]
    global _pool
    if _pool is None:
        _pool = ThreadPoolExecutor(max_workers=_SPARE, thread_name_prefix="raypatch-branch")
    results, order, err = [None] * len(args), itertools.count(), np.geterr()

    def lane():
        with np.errstate(**err):
            for i in order:
                if i >= len(args):
                    return
                results[i] = fn(*args[i])

    futures = [_pool.submit(lane) for _ in range(lanes - 1)]
    try:
        lane()
    finally:
        for f in futures:
            f.cancel()  # a lane not started yet would find no branch left
        wait(futures)
    for f in futures:
        if not f.cancelled():
            f.result()  # a worker's error
    return results


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


def _record(out, backward_fn):
    """Append ``out``'s record; only outputs made while recording carry a slot."""
    if out._slot is not None:
        _tape.append((out._slot, backward_fn))


def tape_clear():
    global _tape
    if _tape is not None:
        _tape = []


class _Slot:
    """Where backward gathers one tensor's gradient. Records and closures hold
    slots, not tensors, so holding a gradient keeps no data array alive."""

    __slots__ = ("grad",)

    def __init__(self):
        self.grad = None


class Tensor:
    """A float64 ndarray plus, if it needs a gradient, a grad slot."""

    __slots__ = ("data", "_slot")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)  # 0-d stays 0-d: it is always contiguous
        self.data = arr
        # recording disabled -> the result is detached, like torch.no_grad
        self._slot = _Slot() if requires_grad and _tape is not None else None

    @property
    def requires_grad(self):
        return self._slot is not None

    @requires_grad.setter
    def requires_grad(self, value):
        if not value:
            self._slot = None
        elif self._slot is None:
            self._slot = _Slot()

    @property
    def grad(self):
        return None if self._slot is None else self._slot.grad

    @grad.setter
    def grad(self, g):
        if self._slot is not None:
            self._slot.grad = g
        elif g is not None:
            raise RuntimeError("cannot set the gradient of a tensor that needs none")

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


def _accumulate(slot, g, owned=False):
    """Add ``g`` into ``slot.grad``; a ``None`` slot (an input that needs no
    gradient) takes nothing. ``owned``: ``g`` is a fresh array that no one
    else holds, so a first gradient may be stored as it is instead of copied.
    A numpy scalar (the product of a 0-d gradient) is stored as a 0-d array."""
    if slot is None:
        return
    if slot.grad is not None:
        slot.grad += g
    elif owned and isinstance(g, np.ndarray):
        slot.grad = g
    else:
        slot.grad = g.copy() if isinstance(g, np.ndarray) else np.asarray(g, dtype=np.float64)


def backward(loss):
    """Reverse-mode sweep from scalar ``loss`` through the recorded tape.

    Consumes the tape: each record is popped before its backward runs and
    the gradient is taken out of the output's slot, so both are freed as soon
    as the sweep has passed them, and each recorded graph supports exactly
    one backward call. Afterwards only leaves hold a ``.grad``. Ops whose
    outputs the loss never used contribute nothing.
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
        slot, fn = nodes.pop()
        g, slot.grad = slot.grad, None
        if g is not None:
            fn(g)


# --------------------------------------------------------------------------
# elementwise ops and reductions
# --------------------------------------------------------------------------

def _as_scalar(x):
    return isinstance(x, (int, float, np.floating, np.integer))


def _slot_of(t):
    """The grad slot of an optional input (a bias may be ``None``)."""
    return None if t is None else t._slot


def add(a, b):
    """Elementwise sum of two same-shape tensors; no broadcasting."""
    if a.shape != b.shape:
        raise DimensionError(f"add shape mismatch: {a.shape} vs {b.shape}")
    sa, sb = a._slot, b._slot
    out = Tensor(a.data + b.data, requires_grad=sa is not None or sb is not None)

    def bwd(g):
        _accumulate(sa, g)
        _accumulate(sb, g)

    _record(out, bwd)
    return out


def sub(a, b):
    if a.shape != b.shape:
        raise DimensionError(f"sub shape mismatch: {a.shape} vs {b.shape}")
    sa, sb = a._slot, b._slot
    out = Tensor(a.data - b.data, requires_grad=sa is not None or sb is not None)

    def bwd(g):
        _accumulate(sa, g)
        _accumulate(sb, -g, owned=True)

    _record(out, bwd)
    return out


def mul(a, b):
    """Elementwise (same-shape) or tensor-by-scalar product."""
    sa = a._slot
    if _as_scalar(b):
        s = float(b)
        out = Tensor(a.data * s, requires_grad=sa is not None)
        _record(out, lambda g: _accumulate(sa, g * s, owned=True))
        return out
    if a.shape != b.shape:
        raise DimensionError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    sb = b._slot
    out = Tensor(a.data * b.data, requires_grad=sa is not None or sb is not None)
    # each input's array is kept only for the other input's gradient
    a_data = a.data if sb is not None else None
    b_data = b.data if sa is not None else None

    def bwd(g):
        if sa is not None:
            _accumulate(sa, g * b_data, owned=True)
        if sb is not None:
            _accumulate(sb, g * a_data, owned=True)

    _record(out, bwd)
    return out


def leaky_relu(x):
    # for 0 < LEAKY_SLOPE < 1 the larger of x and LEAKY_SLOPE * x is the branch
    sx = x._slot
    out = Tensor(np.maximum(x.data, LEAKY_SLOPE * x.data), requires_grad=sx is not None)
    if out._slot is not None:
        positive = x.data >= 0  # one byte per element instead of x's eight
        _record(out, lambda g: _accumulate(
            sx, g * np.take(_LEAKY_FACTORS, positive.view(np.uint8)), owned=True))
    return out


def absolute(x):
    sx = x._slot
    out = Tensor(np.abs(x.data), requires_grad=sx is not None)
    sign = np.sign(x.data)
    _record(out, lambda g: _accumulate(sx, g * sign, owned=True))
    return out


def mean_all(x):
    sx, shape, n = x._slot, x.shape, x.size
    out = Tensor(x.data.mean(), requires_grad=sx is not None)
    _record(out, lambda g: _accumulate(sx, np.full(shape, float(g) / n), owned=True))
    return out


def take(x, indices):
    """Gather flat ``indices`` from ``x`` into a 1-D tensor (masked-loss plumbing)."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise DimensionError("take expects a flat index vector")
    sx, shape = x._slot, x.shape
    out = Tensor(x.data.reshape(-1)[idx], requires_grad=sx is not None)

    def bwd(g):
        full = np.zeros(shape, dtype=np.float64).reshape(-1)
        np.add.at(full, idx, g)
        _accumulate(sx, full.reshape(shape), owned=True)

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
    slots = [t._slot for t in tensors]
    out = Tensor(out_data, requires_grad=any(s is not None for s in slots))
    cuts = _cuts([t.shape[axis] for t in tensors], axis % out_data.ndim)

    def bwd(g):
        for slot, cut in zip(slots, cuts):
            _accumulate(slot, g[cut])

    _record(out, bwd)
    return out


def split(x, sizes, axis=0):
    """Cut ``x`` along ``axis`` into parts of ``sizes``: the inverse of ``concat``."""
    if min(sizes, default=-1) < 0 or sum(sizes) != x.shape[axis]:
        raise DimensionError(f"split sizes {sizes} do not add up to axis {axis} of {x.shape}")
    cuts = _cuts(sizes, axis % x.data.ndim)
    sx, shape = x._slot, x.shape
    parts = [Tensor(x.data[cut], requires_grad=sx is not None) for cut in cuts]

    def bwd(cut, g):  # each part's gradient goes into its slice of one buffer, x's
        if sx.grad is None:
            sx.grad = np.zeros(shape)
        sx.grad[cut] += g

    for part, cut in zip(parts, cuts):
        _record(part, lambda g, cut=cut: bwd(cut, g))
    return parts


def reshape(x, shape):
    sx, old = x._slot, x.shape
    out = Tensor(x.data.reshape(shape), requires_grad=sx is not None)
    _record(out, lambda g: _accumulate(sx, g.reshape(old)))
    return out


def transpose(x):
    if x.data.ndim != 2:
        raise DimensionError(f"transpose expects rank 2, got {x.data.ndim}")
    sx = x._slot
    out = Tensor(np.ascontiguousarray(x.data.T), requires_grad=sx is not None)
    _record(out, lambda g: _accumulate(sx, np.ascontiguousarray(g.T)))
    return out


# --------------------------------------------------------------------------
# dense ops
# --------------------------------------------------------------------------

def _product(name, x, w, b):
    """x[n, d_in] @ w[d_in, d_out] (+ b[d_out] on every row) as one tape op.
    The record keeps ``x`` only for ``w``'s gradient and ``w`` only for ``x``'s."""
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
    sx, sw, sb = x._slot, w._slot, _slot_of(b)
    out = Tensor(y, requires_grad=sx is not None or sw is not None or sb is not None)
    x_data = x.data if sw is not None else None
    w_data = w.data if sx is not None else None

    def bwd(g):
        if sb is not None:
            _accumulate(sb, g.sum(axis=0), owned=True)
        if sx is not None:
            _accumulate(sx, g @ w_data.T, owned=True)
        if sw is not None:
            _accumulate(sw, x_data.T @ g, owned=True)

    _record(out, bwd)
    return out


def matmul(a, b):
    """[m, k] @ [k, n]."""
    return _product("matmul", a, b, None)


def linear(x, w, b=None):
    """x[n, d_in] @ w[d_in, d_out] (+ b[d_out] on every row), one tape op."""
    return _product("linear", x, w, b)


def _softmax_rows_grad(g, y):
    """The logits' gradient, a fresh array, given the gradient ``g`` of the
    row softmax ``y``: (g - rowsum(g * y)) * y."""
    dot = (g * y).sum(axis=1, keepdims=True)
    gx = g - dot
    gx *= y
    return gx


def softmax_rows(x):
    """Row-wise softmax of a [n, m] tensor, max-subtracted for stability.

    The record keeps the output, not the input: the logits are freed once
    the caller drops them."""
    if x.data.ndim != 2:
        raise DimensionError("softmax_rows expects rank 2")
    if not np.all(np.isfinite(x.data)):
        raise NumericError("softmax_rows: non-finite input")
    # shift, exponentiate and normalize in one logit-sized buffer
    y = x.data - x.data.max(axis=1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=1, keepdims=True)
    sx = x._slot
    out = Tensor(y, requires_grad=sx is not None)
    _record(out, lambda g: _accumulate(sx, _softmax_rows_grad(g, y), owned=True))
    return out


def attention(q, k_t, v, heads):
    """Multi-head scaled-dot attention as one tape op.

    q [n_q, heads * d_k], k_t [heads * d_k, n_kv] (the keys transposed) and
    v [n_kv, heads * d_v] -> [n_q, heads * d_v]. Head h reads column block h
    of q and v and row block h of k_t, and writes column block h of the
    output: softmax(q_h k_t[h] / sqrt(d_k)) v_h. Each head's logits pass
    through ``softmax_rows``, looked up at call time, so a wrapper of it sees
    one [n_q, n_kv] logit matrix per head. The heads run as ``_branches``.
    The FLOPs are added once per call, 2 * heads * n_q * n_kv * (d_k + d_v),
    what ``AttnProductCost`` prices.

    Every block is read in place. The keys come transposed because
    OpenBLAS's small-matrix kernels round a transposed operand differently
    from an untransposed one: a row block of k_t is the operand that
    ``matmul(q_h, k_t[h])`` and its gradient hand to BLAS, so the op is
    bit-equal to the per-head composition (split, ``matmul``,
    ``softmax_rows``, ``matmul``, ``concat``), and a caller that keeps the
    keys keeps them transposed instead of transposing them per call.

    The record keeps each head's probabilities, and of q, k_t and v what the
    gradients read; it keeps neither the logits nor the output. Without
    recording, a head's probabilities are freed inside that head and the
    output is joined after the last head.
    """
    if q.data.ndim != 2 or k_t.data.ndim != 2 or v.data.ndim != 2:
        raise DimensionError("attention expects rank-2 q, k_t and v")
    if q.shape[1] != k_t.shape[0]:
        raise DimensionError(f"attention query width {q.shape[1]} != key width {k_t.shape[0]}")
    if k_t.shape[1] != v.shape[0]:
        raise DimensionError(f"attention key count {k_t.shape[1]} != value count {v.shape[0]}")
    if heads < 1 or q.shape[1] % heads or v.shape[1] % heads:
        raise DimensionError(
            f"attention widths {q.shape[1]} and {v.shape[1]} do not split into {heads} heads")
    (n_q, w_k), (n_kv, w_v) = q.shape, v.shape
    d_k, d_v = w_k // heads, w_v // heads
    scale = 1.0 / np.sqrt(d_k)
    blocks = [(slice(h * d_k, (h + 1) * d_k), slice(h * d_v, (h + 1) * d_v))
              for h in range(heads)]
    sq, sk, sv = q._slot, k_t._slot, v._slot
    recorded = _tape is not None and (sq is not None or sk is not None or sv is not None)

    def head(bk, bv):
        logits = q.data[:, bk] @ k_t.data[bk]
        logits *= scale
        p = softmax_rows(Tensor(logits)).data
        del logits  # freed before the head's output is allocated
        return p if recorded else None, p @ v.data[:, bv]

    head_flops = 2.0 * n_q * n_kv * (d_k + d_v)
    probs, outs = zip(*_branches(head, blocks, head_flops))
    flops.add_flops(heads * head_flops)
    out = Tensor(np.concatenate(outs, axis=1), requires_grad=recorded)
    del outs
    q_data = q.data if sk is not None else None
    kt_data = k_t.data if sq is not None else None
    v_data = v.data if sq is not None or sk is not None else None

    def bwd(g):
        gq = np.empty((n_q, w_k)) if sq is not None else None
        gk = np.empty((w_k, n_kv)) if sk is not None else None
        gv = np.empty((n_kv, w_v)) if sv is not None else None
        for (bk, bv), p in zip(blocks, probs):
            if sv is not None:
                gv[:, bv] = p.T @ g[:, bv]
            if v_data is None:
                continue
            dl = _softmax_rows_grad(g[:, bv] @ v_data[:, bv].T, p)
            dl *= scale
            if sq is not None:
                gq[:, bk] = dl @ kt_data[bk].T
            if sk is not None:
                gk[bk] = q_data[:, bk].T @ dl
        _accumulate(sq, gq, owned=True)
        _accumulate(sk, gk, owned=True)
        _accumulate(sv, gv, owned=True)

    _record(out, bwd)
    return out


def _standardize_rows(x2):
    """(xhat, inv) of a [n, m] array: each row minus its mean, times ``inv``,
    the inverse root of its biased variance plus NORM_EPS ([n, 1])."""
    mu = x2.mean(axis=1, keepdims=True)
    xhat = x2 - mu  # centred, then scaled in place
    var = (xhat * xhat).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    xhat *= inv
    return xhat, inv


def _standardize_rows_grad(gx, xhat, inv):
    """Gradient of the rows given ``gx``, the gradient of ``xhat``: the
    derivative of (x - mu) * inv with mu and inv functions of the row. Returns
    a fresh array."""
    term = gx - gx.mean(axis=1, keepdims=True)
    term -= xhat * (gx * xhat).mean(axis=1, keepdims=True)
    term *= inv
    return term


def layer_norm(x, gamma, beta):
    """Normalize each row of [n, d] to zero mean / unit variance, then affine.

    The record keeps ``xhat`` and ``inv``, not the input or the output."""
    if x.data.ndim != 2:
        raise DimensionError("layer_norm expects rank 2")
    d = x.shape[1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError("layer_norm affine params must be [d]")
    xhat, inv = _standardize_rows(x.data)
    y = xhat * gamma.data
    y += beta.data
    sx, sg, sb = x._slot, gamma._slot, beta._slot
    out = Tensor(y, requires_grad=sx is not None or sg is not None or sb is not None)
    g_data = gamma.data if sx is not None else None  # read only for x's gradient

    def bwd(g):
        if sg is not None:
            _accumulate(sg, (g * xhat).sum(axis=0), owned=True)
        if sb is not None:
            _accumulate(sb, g.sum(axis=0), owned=True)
        if sx is not None:
            _accumulate(sx, _standardize_rows_grad(g * g_data, xhat, inv), owned=True)

    _record(out, bwd)
    return out


def instance_norm(x, gamma, beta):
    """Normalize each channel of a [c, h, w] map with that map's own spatial
    mean and biased variance, then a per-channel affine.

    The statistics are the map's own in every call, so there is no running
    state and no train/eval mode. The channels are the rows of the map seen
    as [c, h*w]. The record keeps ``xhat`` and ``inv``, not the input or the
    output.
    """
    if x.data.ndim != 3:
        raise DimensionError("instance_norm expects [c, h, w]")
    shape = x.shape
    c = shape[0]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError("instance_norm affine params must be [c]")
    xhat, inv = _standardize_rows(x.data.reshape(c, -1))
    y = xhat * gamma.data[:, None]
    y += beta.data[:, None]
    sx, sg, sb = x._slot, gamma._slot, beta._slot
    out = Tensor(y.reshape(shape),
                 requires_grad=sx is not None or sg is not None or sb is not None)
    g_data = gamma.data if sx is not None else None  # read only for x's gradient

    def bwd(g):
        g = g.reshape(c, -1)
        if sg is not None:
            _accumulate(sg, (g * xhat).sum(axis=1), owned=True)
        if sb is not None:
            _accumulate(sb, g.sum(axis=1), owned=True)
        if sx is not None:
            gx = _standardize_rows_grad(g * g_data[:, None], xhat, inv)
            _accumulate(sx, gx.reshape(shape), owned=True)

    _record(out, bwd)
    return out


def _phase_cuts(n_in, stride):
    """For each phase p along one axis of n_in inputs: (dst, src), where
    phase positions ``dst`` hold inputs ``src``. Phase position i is padded
    position stride * i + p, so position 0 of phase 0 is the zero padding."""
    cuts = []
    for p in range(stride):
        lo = 1 if p == 0 else 0
        src = range(stride * lo + p - 1, n_in, stride)
        cuts.append((slice(lo, lo + len(src)), slice(src.start, None, stride)))
    return cuts


def _tap_runs(stride, pw, c_in):
    """The 9 taps in runs of one product each: (weight columns, map rows,
    flat offset). Tap t = 3 * ky + kx owns weight columns t * c_in onward and
    reads phase map m = stride * (ky % stride) + kx % stride (rows m * c_in
    onward) from offset pw * (ky // stride) + kx // stride. A run is
    consecutive taps with one offset and consecutive maps (kx = 0, 1 at
    stride 2), so its weights and its windows are one slice each."""
    runs = []
    for ky in range(3):
        for kx in range(3):
            t, m = 3 * ky + kx, stride * (ky % stride) + kx % stride
            off = pw * (ky // stride) + kx // stride
            if runs and runs[-1][2] == off and runs[-1][1].stop == m * c_in:
                cols, rows, _ = runs[-1]
                runs[-1] = (slice(cols.start, cols.stop + c_in),
                            slice(rows.start, rows.stop + c_in), off)
            else:
                runs.append((slice(t * c_in, (t + 1) * c_in),
                             slice(m * c_in, (m + 1) * c_in), off))
    return runs


def _edge_runs(n_in, n_out, stride):
    """The output positions along one axis of a 3x3 conv in runs that read the
    same taps inside the input: (positions, taps), ``taps`` a 0/1 mask over
    the 3 taps. Only the first and the last position can lose a tap to the
    zero padding, so there are at most three runs (n_out >= 1)."""
    cuts = sorted({0, 1, n_out - 1, n_out})
    runs = []
    for lo, hi in zip(cuts, cuts[1:]):
        src = stride * lo + np.arange(3) - 1
        runs.append((slice(lo, hi), ((src >= 0) & (src < n_in)).astype(np.float64)))
    return runs


def _edge_blocks(h, w, stride):
    """The at most nine blocks of output positions of a 3x3 conv over an h x w
    input in which the same taps fall inside the input: (rows, columns,
    taps), ``taps`` a 0/1 [9] mask in tap order 3 * ky + kx."""
    oh, ow = (h - 1) // stride + 1, (w - 1) // stride + 1
    return [(ys, xs, np.outer(row_taps, col_taps).reshape(9))
            for ys, row_taps in _edge_runs(h, oh, stride)
            for xs, col_taps in _edge_runs(w, ow, stride)]


def conv2d(x, w, b=None, stride=1, uniform=None):
    """3x3 convolution of [c_in, h, w] with [c_out, 3, 3, c_in], zero padding 1.

    Stride 1 keeps the spatial size; stride 2 halves it (ceil). The input is
    zero-padded once into stride x stride phase maps: map (py, px) holds the
    padded input's rows py, py + stride, ... and columns px, px + stride,
    ..., as [c_in, oh + 2 // stride, pw] with pw = ow + 2 // stride, stored
    flat with a zero tail of 2 // stride. On an output grid pw columns wide,
    tap (ky, kx) reads one contiguous window of one map, so the output is the
    sum over the taps of ``w[:, ky, kx, :] @ window``, cropped to ow columns.
    The weight is tap-major, so its [c_out, 9 * c_in] view is read uncopied.
    Taps that share a window offset and read consecutive maps (stride 2: kx
    = 0 and 1) are one product over the stacked maps, so stride 1 runs 9
    BLAS products and stride 2 runs 6, and no im2col matrix is built. The
    grid's pw - ow extra columns cost (pw - ow) / ow more arithmetic, which
    the FLOP counter leaves out: it adds 2 * c_out * c_in * 9 * oh * ow, what
    ``ConvCost`` prices.

    ``uniform``: a constant vector o [n_u] that the weight's last n_u input
    channels read at every pixel, as if x had n_u more channels each filled
    with one entry of o (no gradient flows to it). Such a map, zero-padded, adds
    ``u[:, ky, kx] = w[:, ky, kx, -n_u:] @ o`` for every tap that falls inside
    the input, so its term is one matrix-vector product and a sum of u over
    the taps in range, which differ only at the border: at most nine runs of
    output positions (``_edge_blocks``), each added in place. The counter adds
    2 * c_out * n_u * 9 for it, ``ConvCost(1, 1, n_u, c_out)``. The weight's
    columns of x are then a copy, made once per call.

    Backward reads the same windows. With ``g`` widened to the grid by zero
    columns, ``dW[:, ky, kx, :] = g @ window.T``, and ``w[:, ky, kx, :].T @ g``
    is added into the window of the maps' gradient, out of which ``x``'s is
    read. The uniform channels' ``dW[:, ky, kx, -n_u:]`` is the sum of g over
    the positions where tap (ky, kx) is in range, times o. The tape record
    keeps the phase maps (about the size of ``x``) only for the weight
    gradient and the weight only for the input gradient; it keeps neither
    ``x`` nor the output.
    """
    if x.data.ndim != 3 or w.data.ndim != 4:
        raise DimensionError("conv2d expects x[c,h,w], w[c_out,3,3,c_in]")
    c_out, kh, kw, c_in = w.shape
    if (kh, kw) != (3, 3):
        raise DimensionError("conv2d kernel must be 3x3")
    o = np.zeros(0) if uniform is None else np.asarray(uniform, dtype=np.float64)
    if o.ndim != 1:
        raise DimensionError(f"conv2d uniform must be a vector, got shape {o.shape}")
    c_x, n_u = x.shape[0], o.shape[0]
    if c_x + n_u != c_in:
        extra = f" and uniform {n_u}" if n_u else ""
        raise DimensionError(f"conv2d channels: x has {c_x}{extra}, w expects {c_in}")
    if stride not in (1, 2):
        raise DimensionError("conv2d stride must be 1 or 2")
    if b is not None and b.shape != (c_out,):
        raise DimensionError("conv2d bias must be [c_out]")
    h, wd = x.shape[1], x.shape[2]
    oh, ow = (h - 1) // stride + 1, (wd - 1) // stride + 1
    ph, pw = oh + 2 // stride, ow + 2 // stride
    n = oh * pw
    maps_shape = (stride * stride * c_x, ph * pw + 2 // stride)
    # (map, (dst, src) rows, (dst, src) columns) of each phase map
    cuts = [(stride * py + px, rows, cols)
            for py, rows in enumerate(_phase_cuts(h, stride))
            for px, cols in enumerate(_phase_cuts(wd, stride))]
    maps = np.empty(maps_shape, dtype=np.float64)
    maps[:, ph * pw:] = 0.0
    grids = maps[:, :ph * pw].reshape(stride * stride, c_x, ph, pw)
    for m, (r_dst, r_src), (c_dst, c_src) in cuts:
        grid = grids[m]
        grid[:, r_dst, c_dst] = x.data[:, r_src, c_src]
        grid[:, :r_dst.start] = 0.0
        grid[:, r_dst.stop:] = 0.0
        grid[:, :, :c_dst.start] = 0.0
        grid[:, :, c_dst.stop:] = 0.0
    runs = _tap_runs(stride, pw, c_x)
    # column (3 * ky + kx) * c_x + ci; a view of w.data without uniform channels
    w_cols = w.data[..., :c_x].reshape(c_out, 9 * c_x)
    (cols, rows, off), *rest = runs
    acc = w_cols[:, cols] @ maps[rows, off:off + n]
    for cols, rows, off in rest:
        acc += w_cols[:, cols] @ maps[rows, off:off + n]
    out_data = acc.reshape(c_out, oh, pw)[:, :, :ow].copy()
    if b is not None:
        out_data += b.data[:, None, None]
    blocks = _edge_blocks(h, wd, stride) if n_u else []
    if blocks:
        u = (w.data[..., c_x:] @ o).reshape(c_out, 9)  # each tap's term
        for ys, xs, taps in blocks:
            out_data[:, ys, xs] += (u @ taps)[:, None, None]
    sx, sw, sb = x._slot, w._slot, _slot_of(b)
    out = Tensor(out_data, requires_grad=sx is not None or sw is not None or sb is not None)
    flops.add_flops(2.0 * c_out * 9 * (c_x * oh * ow + n_u))
    maps_kept = maps if sw is not None else None
    w_kept = w_cols if sx is not None else None

    def bwd(g):
        if sb is not None:
            _accumulate(sb, g.sum(axis=(1, 2)), owned=True)
        g_ext = np.zeros((c_out, oh, pw), dtype=np.float64)
        g_ext[:, :, :ow] = g
        g_ext = g_ext.reshape(c_out, n)
        if sw is not None:
            dw_cols = np.empty((c_out, 9 * c_x), dtype=np.float64)
            for cols, rows, off in runs:
                np.matmul(g_ext, maps_kept[rows, off:off + n].T, out=dw_cols[:, cols])
            dw = dw_cols.reshape(c_out, 3, 3, c_x)
            if blocks:
                tap_sums = np.zeros((c_out, 9))  # g summed where each tap is in range
                for ys, xs, taps in blocks:
                    tap_sums += np.outer(g[:, ys, xs].sum(axis=(1, 2)), taps)
                dw = np.concatenate([dw, (tap_sums[:, :, None] * o).reshape(c_out, 3, 3, n_u)],
                                    axis=3)
            _accumulate(sw, dw, owned=True)
        if sx is not None:
            dmaps = np.zeros(maps_shape, dtype=np.float64)
            for cols, rows, off in runs:
                dmaps[rows, off:off + n] += w_kept[:, cols].T @ g_ext
            dgrids = dmaps[:, :ph * pw].reshape(stride * stride, c_x, ph, pw)
            dx = np.empty((c_x, h, wd), dtype=np.float64)
            for m, (r_dst, r_src), (c_dst, c_src) in cuts:
                dx[:, r_src, c_src] = dgrids[m, :, r_dst, c_dst]
            _accumulate(sx, dx, owned=True)

    _record(out, bwd)
    return out


def upsample_nearest2x(x):
    """[c, h, w] -> [c, 2h, 2w] by pixel duplication."""
    if x.data.ndim != 3:
        raise DimensionError("upsample_nearest2x expects [c, h, w]")
    sx = x._slot
    out = Tensor(x.data.repeat(2, axis=1).repeat(2, axis=2), requires_grad=sx is not None)
    c, h, w = x.shape

    def bwd(g):
        _accumulate(sx, g.reshape(c, h, 2, w, 2).sum(axis=(2, 4)), owned=True)

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
    sx = x._slot
    out = Tensor(out_data, requires_grad=sx is not None)
    # priced as 4 MACs (two lerps) per output element
    flops.add_flops(8.0 * c * (2 * h) * (2 * w))

    def bwd(g):
        drows = np.zeros((c, 2 * h, w), dtype=np.float64)
        np.add.at(drows, (slice(None), slice(None), c0), g * (1.0 - ca)[None, None, :])
        np.add.at(drows, (slice(None), slice(None), c1), g * ca[None, None, :])
        dx = np.zeros((c, h, w), dtype=np.float64)
        np.add.at(dx, (slice(None), r0), drows * (1.0 - ra)[None, :, None])
        np.add.at(dx, (slice(None), r1), drows * ra[None, :, None])
        _accumulate(sx, dx, owned=True)

    _record(out, bwd)
    return out


def global_grad_norm(params):
    """L2 norm over the concatenated gradients of ``params`` (None grads count as 0)."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    return math.sqrt(total)
