"""Dense float32 tensors with reverse-mode automatic differentiation.

A :class:`Tape` records every operation executed while it is active; calling
:func:`backward` on a scalar loss walks the recording once in reverse and
accumulates gradients into the ``grad`` field of every ``requires_grad`` leaf.
Tapes are single-use: ``backward`` consumes the tape, releasing what each
node saved as it goes, and a second call is rejected. Gradients add across
fan-out and across successive backward passes, so callers must zero them
between optimizer steps.

A node holds a gradient sink for each input, not the input: the node that
made the input, if that node is on the same tape; else the input itself, if
it is a leaf that requires grad; else ``None``. The sink is fixed when the
input is recorded, so ``requires_grad`` is read then, not at ``backward``.
A node's backward rule closes over the arrays it reads and nothing else, so
an input that no rule reads is freed as soon as its caller drops it. The
data-movement ops, ``add``, ``sub``, ``scale`` and ``mean`` keep no array;
``softmax`` keeps its output, and ``layer_norm`` its centred input, each
row's deviation and its gain. ``mul``, ``matmul``, ``gelu``, ``leaky_relu``
and ``clamp`` keep their input arrays; ``gelu`` keeps its ``Phi(x)`` too,
and ``leaky_relu`` and ``clamp`` keep no mask and recompute it. ``conv3d``
keeps its input and weight and rebuilds its im2col patch matrices in
backward; ``quantize.fake_quant`` keeps its input, scale and zero-point and
rebuilds the pre-clip value and the codes. Both skip ``x``'s gradient, and
no other, when ``x`` does not require grad. No conv pads its input: a patch
matrix holds zeros where a tap reads outside it (:func:`sample_patches`).

Each array is scanned for NaN/Inf once. Every arithmetic op scans its
output, raises :class:`~qsci.errors.NumericError` on a non-finite value and
marks the result (:attr:`Tensor.scanned`). The data-movement ops
(``reshape``, ``transpose``, ``concat``, the pixel shuffles) scan
nothing; their output is marked only if every input is. A quantizer,
whose clip would hide an infinity, scans an unmarked input itself (see
:mod:`qsci.quantize`). Data is not changed in place once an op has read
it, so a mark stays true; assigning new data clears it.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

import numpy as np
from scipy.special import erf

from .errors import NumericError, ShapeError

_INV_SQRT2 = 1.0 / np.sqrt(2.0).astype(np.float32)
_INV_SQRT2PI = np.float32(1.0 / np.sqrt(2.0 * np.pi))


class Node:
    """One recorded operation: the gradient sink of each input (its node on
    this tape, a leaf that requires grad, or ``None``; see the module
    docstring) and the rule mapping the output gradient to input gradients
    (aligned with ``inputs``, ``None`` allowed)."""

    __slots__ = ("tape", "index", "inputs", "backward_fn", "name")

    def __init__(self, tape, index, inputs, backward_fn, name):
        self.tape = tape
        self.index = index
        self.inputs = inputs
        self.backward_fn = backward_fn
        self.name = name


class Tape:
    """Ordered recording of forward operations (a valid topological order).

    Use as a context manager; nesting pushes/pops the active tape.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self.consumed = False

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        if not _TAPE_STACK or _TAPE_STACK[-1] is not self:
            raise RuntimeError("tape stack corrupted: exiting a tape that is not the innermost")
        _TAPE_STACK.pop()
        return False

    def record(self, out: "Tensor", inputs: Sequence["Tensor"], backward_fn, name: str):
        node = Node(self, len(self.nodes), tuple(self._sink(t) for t in inputs),
                    backward_fn, name)
        self.nodes.append(node)
        out.node = node

    def _sink(self, t: "Tensor"):
        """Where the gradient of input ``t`` goes: its node on this tape, a
        leaf that requires grad, or nowhere (``None``)."""
        if t.node is not None:
            return t.node if t.node.tape is self else None
        return t if t.requires_grad else None


_TAPE_STACK: list[Tape] = []


def active_tape() -> Optional[Tape]:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class Tensor:
    """A dense float32 array, optionally participating in the active tape.
    Made from another Tensor, it shares that tensor's array but not its
    tape node or scan mark."""

    __slots__ = ("data", "requires_grad", "grad", "node", "_scanned")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data, dtype=np.float32)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self.node: Optional[Node] = None
        self._scanned = None

    @property
    def scanned(self) -> bool:
        """Whether the current ``data`` is known to hold no NaN/Inf."""
        return self._scanned is self.data

    def mark_scanned(self):
        self._scanned = self.data

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def zero_grad(self):
        self.grad = None

    def accumulate_grad(self, g: np.ndarray):
        if self.grad is None:
            self.grad = np.asarray(g, dtype=np.float32)
        else:
            self.grad = self.grad + g

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar; scalars are promoted to constant tensors
    def __add__(self, other):
        return add(self, _coerce(other))

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __mul__(self, other):
        return mul(self, _coerce(other))


def _coerce(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float32))


def _scan(arr: np.ndarray, name: str):
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite value produced by op '{name}'")


def _finish(out_data: np.ndarray, inputs: Sequence[Tensor], backward_fn, name: str,
            scan: bool = True) -> Tensor:
    """Wrap an op result and record it on the tape. An arithmetic op's result
    is scanned for non-finite values and marked; a data-movement op's
    (``scan`` off) is marked only if every input is."""
    if scan:
        _scan(out_data, name)
    out = Tensor(out_data)
    if scan or all(t.scanned for t in inputs):
        out.mark_scanned()
    out.requires_grad = any(t.requires_grad for t in inputs)
    tape = active_tape()
    if tape is not None and out.requires_grad:
        tape.record(out, inputs, backward_fn, name)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise suite
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    a_shape, b_shape = a.shape, b.shape

    def bwd(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _finish(out, (a, b), bwd, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data
    a_shape, b_shape = a.shape, b.shape

    def bwd(g):
        return _unbroadcast(g, a_shape), _unbroadcast(-g, b_shape)

    return _finish(out, (a, b), bwd, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    a_data, b_data = a.data, b.data
    out = a_data * b_data

    def bwd(g):
        return _unbroadcast(g * b_data, a_data.shape), _unbroadcast(g * a_data, b_data.shape)

    return _finish(out, (a, b), bwd, "mul")


def scale(x: Tensor, s: float) -> Tensor:
    s = float(s)
    out = x.data * np.float32(s)

    def bwd(g):
        return (g * np.float32(s),)

    return _finish(out, (x,), bwd, "scale")


def leaky_relu(x: Tensor) -> Tensor:
    """``x`` where positive, else ``x * 0.01``. As the slope lies in [0, 1],
    that is ``max(x, x * 0.01)``, bit for bit, signed zeros included."""
    ns = np.float32(0.01)
    xd = x.data
    out = np.maximum(xd, xd * ns)

    def bwd(g):
        return (np.where(xd > 0, g, g * ns),)

    return _finish(out, (x,), bwd, "leaky_relu")


def _gelu_cdf(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + erf(x * _INV_SQRT2))


def gelu(x: Tensor) -> Tensor:
    """``x * Phi(x)`` in the exact erf form; derivative ``Phi(x) + x * phi(x)``.
    A non-finite input raises NumericError and warns nothing, although
    ``-inf * Phi(-inf)`` is ``-inf * 0``."""
    xd = x.data
    with np.errstate(invalid="ignore"):
        cdf = _gelu_cdf(xd)
        out = xd * cdf

    def bwd(g):
        pdf = _INV_SQRT2PI * np.exp(-0.5 * xd * xd)
        return (g * (cdf + xd * pdf),)

    return _finish(out, (x,), bwd, "gelu")


def clamp(x: Tensor, lo: float, hi: float) -> Tensor:
    xd = x.data
    out = np.clip(xd, lo, hi)

    def bwd(g):
        return (g * ((xd >= lo) & (xd <= hi)),)

    return _finish(out, (x,), bwd, "clamp")


def mean(x: Tensor) -> Tensor:
    """The float32 mean of every element, as a one-element tensor."""
    out = x.data.mean(dtype=np.float32)
    count, shape = x.size, x.shape

    def bwd(g):
        return (np.broadcast_to(g.reshape(()) / count, shape).astype(np.float32),)

    return _finish(np.asarray(out), (x,), bwd, "mean")


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float) -> Tensor:
    """``(x - mu) / sqrt(var + eps) * gain + bias`` over the last axis, as
    one tape node with the bits of the nine-op chain ``mean, sub, mul, mean,
    add, sqrt, div, mul, add``: the forward runs its float32 steps in place,
    the backward its numpy operations in its order, fan-out sums included.
    The input is listed twice among the node's inputs, so its gradient
    reaches the tape as the chain's did: through the subtraction, then the
    mean. The tape keeps the centred input, each row's deviation and the
    gain's array. The variance (for an overflowing square) and the output
    are scanned; a non-finite input raises NumericError and warns nothing."""
    c = x.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        mu = x.data.mean(axis=-1, keepdims=True, dtype=np.float32)
        xc = x.data - mu
        out = np.multiply(xc, xc)
        std = out.mean(axis=-1, keepdims=True, dtype=np.float32)
    _scan(std, "layer_norm")
    std += np.float32(eps)
    np.sqrt(std, out=std)
    np.divide(xc, std, out=out)
    out *= gain.data
    out += bias.data
    gain_data, bias_shape = gain.data, bias.shape

    def bwd(g):
        dbias = _unbroadcast(g, bias_shape)
        dgain = _unbroadcast(g * (xc / std), gain_data.shape)
        dxc = g * gain_data
        dstd = _unbroadcast(-dxc * xc / (std * std), std.shape)
        dxc /= std
        dstd *= 0.5 / std
        # the square's two operands each pass the mean's gradient times xc
        dsq = (np.broadcast_to(dstd, xc.shape) / c).astype(np.float32)
        dsq *= xc
        dxc += dsq
        dxc += dsq
        dmu = _unbroadcast(-dxc, std.shape)
        return dxc, (np.broadcast_to(dmu, xc.shape) / c).astype(np.float32), dgain, dbias

    return _finish(out, (x, x, gain, bias), bwd, "layer_norm")


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------

def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = x.data.reshape(shape)
    in_shape = x.shape

    def bwd(g):
        return (g.reshape(in_shape),)

    return _finish(out, (x,), bwd, "reshape", scan=False)


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = np.argsort(axes)
    out = np.ascontiguousarray(x.data.transpose(axes))

    def bwd(g):
        return (np.ascontiguousarray(g.transpose(inv)),)

    return _finish(out, (x,), bwd, "transpose", scan=False)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = list(tensors)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return _finish(out, tensors, bwd, "concat", scan=False)


def pixel_shuffle_spatial(x: Tensor, r: int) -> Tensor:
    """Rearrange [N, C*r*r, T, H, W] -> [N, C, T, H*r, W*r].

    Channel index decomposes as ``c*(r*r) + i*r + j`` with (i, j) the offsets
    inside each r x r output block. Pure permutation, so exactly invertible.
    """
    out = _shuffle_fwd(x.data, r)

    def bwd(g):
        return (_shuffle_inv(g, r),)

    return _finish(out, (x,), bwd, "pixel_shuffle_spatial", scan=False)


def pixel_unshuffle_spatial(x: Tensor, r: int) -> Tensor:
    """Inverse of :func:`pixel_shuffle_spatial`: space to channel."""
    out = _shuffle_inv(x.data, r)

    def bwd(g):
        return (_shuffle_fwd(g, r),)

    return _finish(out, (x,), bwd, "pixel_unshuffle_spatial", scan=False)


def _shuffle_fwd(a: np.ndarray, r: int) -> np.ndarray:
    if a.ndim != 5:
        raise ShapeError(f"pixel shuffle expects a 5-D tensor, got {a.ndim}-D")
    n, crr, t, h, w = a.shape
    if crr % (r * r) != 0:
        raise ShapeError(f"channel extent {crr} not divisible by r^2={r * r}")
    c = crr // (r * r)
    a = a.reshape(n, c, r, r, t, h, w)
    a = a.transpose(0, 1, 4, 5, 2, 6, 3)
    return np.ascontiguousarray(a).reshape(n, c, t, h * r, w * r)


def _shuffle_inv(a: np.ndarray, r: int) -> np.ndarray:
    if a.ndim != 5:
        raise ShapeError(f"pixel unshuffle expects a 5-D tensor, got {a.ndim}-D")
    n, c, t, hr, wr = a.shape
    if hr % r != 0 or wr % r != 0:
        raise ShapeError(f"spatial extents ({hr},{wr}) not divisible by r={r}")
    h, w = hr // r, wr // r
    a = a.reshape(n, c, t, h, r, w, r)
    a = a.transpose(0, 1, 4, 6, 2, 3, 5)
    return np.ascontiguousarray(a).reshape(n, c * r * r, t, h, w)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError("matmul operands must have at least 2 dimensions")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(
            f"matmul inner extents differ: {a.shape[-1]} (last axis of a) vs "
            f"{b.shape[-2]} (second-to-last axis of b)"
        )
    a_data, b_data = a.data, b.data
    out = a_data @ b_data

    def bwd(g):
        ga = _unbroadcast(g @ np.swapaxes(b_data, -1, -2), a_data.shape)
        gb = _unbroadcast(np.swapaxes(a_data, -1, -2) @ g, b_data.shape)
        return ga, gb

    return _finish(out, (a, b), bwd, "matmul")


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    shifted = x.data - _reduce_last(np.maximum, x.data)
    e = np.exp(shifted)
    out = e / _reduce_last(np.add, e)

    def bwd(g):
        dot = _reduce_last(np.add, g * out)
        return ((g - dot) * out,)

    return _finish(out, (x,), bwd, "softmax")


def _reduce_last(ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(a, -1, keepdims=True)``, bit for bit. Over a last
    axis shorter than 8, numpy folds left to right (its pairwise sum runs
    sequentially below 8 elements), a sum starting from its identity 0, so
    that ``-0.0`` terms sum to ``+0.0``. This folds the same way over
    slices, without numpy's per-row reduction loop."""
    n = a.shape[-1]
    if n >= 8:
        return ufunc.reduce(a, axis=-1, keepdims=True)
    out = a[..., :1] + np.float32(0) if ufunc is np.add else a[..., :1].copy()
    for k in range(1, n):
        ufunc(out, a[..., k:k + 1], out=out)
    return out


# ---------------------------------------------------------------------------
# 3-D convolution (cross-correlation), im2col + GEMM
# ---------------------------------------------------------------------------

def conv3d_output_shape(in_shape, w_shape, stride, padding):
    """Standard floor formula; raises on incompatible extents, naming the axis."""
    n, c, t, h, w = in_shape
    o, c2, kt, kh, kw = w_shape
    if c != c2:
        raise ShapeError(f"conv3d channel axis mismatch: input has {c}, weight expects {c2}")
    dims = []
    for name, ext, k, s, p in (
        ("temporal", t, kt, stride[0], padding[0]),
        ("height", h, kh, stride[1], padding[1]),
        ("width", w, kw, stride[2], padding[2]),
    ):
        span = ext + 2 * p - k
        if span < 0:
            raise ShapeError(
                f"conv3d {name} axis too small: extent {ext} with padding {p} "
                f"cannot fit kernel {k}"
            )
        dims.append(span // s + 1)
    return (n, o, dims[0], dims[1], dims[2])


def axis_windows(n, n_out, k, stride, pad) -> list:
    """``(out_window, in_window)`` of each tap ``j`` along one axis of
    extent ``n``, zero-padded by ``pad``, as slices: the outputs whose tap
    ``j`` reads inside the unpadded input, and the input elements they read;
    None for a tap that reads only padding."""
    windows = []
    for j in range(k):
        lo = max(0, -((j - pad) // stride))                # first output reading index >= 0
        hi = min(n_out, (n - 1 + pad - j) // stride + 1)   # one past the last reading index < n
        start = lo * stride + j - pad
        windows.append((slice(lo, hi), slice(start, start + (hi - lo - 1) * stride + 1, stride))
                       if lo < hi else None)
    return windows


def tap_windows(in_dims, kshape, stride, padding, out_dims) -> list:
    """``(k, out_window, in_window)`` of each kernel tap ``k``, row-major
    over (kt, kh, kw), as slice triples over the last three axes
    (:func:`axis_windows` of each axis). A tap that reads only padding is
    left out."""
    axes = [axis_windows(*axis) for axis in zip(in_dims, out_dims, kshape, stride, padding)]
    return [(k, tuple(w[0] for w in tap), tuple(w[1] for w in tap))
            for k, tap in enumerate(itertools.product(*axes)) if all(tap)]


def sample_patches(x: np.ndarray, kshape, stride, padding):
    """Yield the [C*k3, P] patch matrix of each sample of ``x`` [N,C,T,H,W]
    in order, for a conv zero-padded by ``padding``, built into one reused
    buffer: each matrix is valid until the next.

    The input is never padded. The buffer starts as zeros, and each tap
    copies only the window it reads inside the input, so what a tap reads
    over the padding stays zero for every sample.
    """
    out_dims = conv3d_output_shape(x.shape, (1, x.shape[1]) + kshape, stride, padding)[2:]
    windows = tap_windows(x.shape[2:], kshape, stride, padding, out_dims)
    buf = np.zeros((x.shape[1], int(np.prod(kshape))) + out_dims, dtype=x.dtype)
    flat = buf.reshape(buf.shape[0] * buf.shape[1], -1)
    for xi in x:
        for k, dst, src in windows:
            buf[:, k][(...,) + dst] = xi[(...,) + src]
        yield flat


def conv3d(x: Tensor, w: Tensor, bias: Tensor, stride=(1, 1, 1), padding=(0, 0, 0)) -> Tensor:
    """Cross-correlation of [N,C,T,H,W] input with [O,C,kt,kh,kw] kernels,
    plus a per-output-channel ``bias``.

    Each sample is one GEMM against its patch matrix (:func:`sample_patches`;
    for an unpadded 1x1x1 unit-stride kernel, a view of the input). The tape
    keeps only the input and weight arrays: the backward pass rebuilds each
    sample's patch matrix the same way and sums the per-sample weight
    gradients in sample order, so the result is bit for bit that of one
    batched GEMM and an axis-0 sum. The input gradient scatter-adds the
    transposed GEMM back into the input, tap by tap, or is itself a conv
    (see below), one GEMM per sample. For an input that does not require
    grad when the conv is recorded, it is ``None`` and neither is built.
    """
    stride = tuple(int(s) for s in stride)
    padding = tuple(int(p) for p in padding)
    n, o, to, ho, wo = conv3d_output_shape(x.shape, w.shape, stride, padding)
    c, kt, kh, kw = w.shape[1:]
    pt, ph, pw = padding
    k3 = kt * kh * kw
    p_count = to * ho * wo
    geometry = ((kt, kh, kw), stride, padding)

    xd, wd = x.data, w.data
    need_dx = x.requires_grad
    w2 = wd.reshape(o, c * k3)
    unit_stride = stride == (1, 1, 1)
    if unit_stride and k3 == 1 and not any(padding):
        patches = xd.reshape(n, c, p_count)   # the kernel sees each voxel once
        out = w2 @ patches
    else:
        patches = None
        out = np.empty((n, o, p_count), dtype=np.float32)
        for i, patches_i in enumerate(sample_patches(xd, *geometry)):
            np.matmul(w2, patches_i, out=out[i])
    out = out.reshape(n, o, to, ho, wo)
    out += bias.data.reshape(1, o, 1, 1, 1)

    # the input gradient of a unit-stride conv is itself a conv of the
    # (re-padded) output gradient with the channel-transposed flipped kernel,
    # which beats the scatter-add path when o <= c
    dx_as_conv = (unit_stride and o <= c and k3 > 1
                  and pt <= kt - 1 and ph <= kh - 1 and pw <= kw - 1)

    def bwd(g):
        gm = g.reshape(n, o, p_count)
        each = patches if patches is not None else sample_patches(xd, *geometry)
        terms = (gi @ pi.T for gi, pi in zip(gm, each))
        dw = next(terms)
        for term in terms:
            dw += term
        dw = dw.reshape(wd.shape)
        if not need_dx:
            dx = None
        elif patches is not None:
            # channel GEMM: the patch gradient is the input gradient
            dx = (w2.T @ gm).reshape(xd.shape)
        elif dx_as_conv:
            wflip = wd[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4).reshape(c, o * k3)
            dx = np.empty(xd.shape, dtype=np.float32)
            for dx_i, gpatches_i in zip(dx, sample_patches(
                    g, (kt, kh, kw), (1, 1, 1), (kt - 1 - pt, kh - 1 - ph, kw - 1 - pw))):
                np.matmul(wflip, gpatches_i, out=dx_i.reshape(c, -1))
        else:
            dpatch = (w2.T @ gm).reshape(n, c, k3, to, ho, wo)
            dx = np.zeros(xd.shape, dtype=xd.dtype)
            for k, dst, src in tap_windows(xd.shape[2:], (kt, kh, kw), stride, padding,
                                            (to, ho, wo)):
                dx[(...,) + src] += dpatch[:, :, k][(...,) + dst]
        return dx, dw, g.sum(axis=(0, 2, 3, 4))

    return _finish(out, (x, w, bias), bwd, "conv3d")


# ---------------------------------------------------------------------------
# backward driver
# ---------------------------------------------------------------------------

def backward(loss: Tensor):
    """Accumulate d(loss)/d(leaf) into ``grad`` of every requires_grad leaf.

    The loss must be a scalar produced on a live tape; the tape is consumed.
    """
    if loss.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss.node is None:
        raise ValueError("loss is detached: no tape recorded its computation")
    tape = loss.node.tape
    if tape.consumed:
        raise RuntimeError("tape already consumed by a previous backward()")
    tape.consumed = True

    slots: list[Optional[np.ndarray]] = [None] * len(tape.nodes)
    slots[loss.node.index] = np.ones_like(loss.data)

    for node in reversed(tape.nodes):
        g = slots[node.index]
        slots[node.index] = None
        # drop the rule and its saved arrays once used (or never needed),
        # so the step's activations are freed by reference counting as the
        # walk passes them
        backward_fn, sinks = node.backward_fn, node.inputs
        node.backward_fn = node.inputs = None
        if g is None:
            continue
        grads = backward_fn(g)
        for sink, gin in zip(sinks, grads):
            if gin is None or sink is None:
                continue
            if isinstance(sink, Node):
                idx = sink.index
                if slots[idx] is None:
                    slots[idx] = np.asarray(gin, dtype=np.float32)
                else:
                    slots[idx] = slots[idx] + gin
            else:
                sink.accumulate_grad(np.asarray(gin, dtype=np.float32))
    tape.nodes.clear()
