"""Dense float32 tensors with reverse-mode automatic differentiation.

A :class:`Tape` records every operation executed while it is active; calling
:func:`backward` on a scalar loss walks the recording once in reverse and
accumulates gradients into the ``grad`` field of every ``requires_grad`` leaf.
Tapes are single-use: ``backward`` consumes the tape, releasing what each
node saved as it goes, and a second call is rejected. Gradients add across fan-out and across successive backward passes,
so callers must zero them between optimizer steps.

Every forward op checks its output for NaN/Inf and raises
:class:`~qsci.errors.NumericError` on the first non-finite value.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
from scipy.special import erf

from .errors import NumericError, ShapeError

# Toggle for the per-op NaN/Inf scan (kept on by default; tests rely on it).
FINITE_CHECKS = True

_INV_SQRT2 = 1.0 / np.sqrt(2.0).astype(np.float32)
_INV_SQRT2PI = np.float32(1.0 / np.sqrt(2.0 * np.pi))


class Node:
    """One recorded operation: its inputs and the rule mapping the output
    gradient to input gradients (aligned with ``inputs``, ``None`` allowed)."""

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
        popped = _TAPE_STACK.pop()
        assert popped is self, "tape stack corrupted"
        return False

    def record(self, out: "Tensor", inputs: Sequence["Tensor"], backward_fn, name: str):
        node = Node(self, len(self.nodes), tuple(inputs), backward_fn, name)
        self.nodes.append(node)
        out.node = node


_TAPE_STACK: list[Tape] = []


def active_tape() -> Optional[Tape]:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class Tensor:
    """A dense float32 array, optionally participating in the active tape."""

    __slots__ = ("data", "requires_grad", "grad", "node", "name")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        arr = np.asarray(data, dtype=np.float32)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self.node: Optional[Node] = None
        self.name = name

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

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar; scalars are promoted to constant tensors
    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def _coerce(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float32))


def _finish(out_data: np.ndarray, inputs: Sequence[Tensor], backward_fn, name: str) -> Tensor:
    """Wrap an op result, scan for non-finite values, and record on the tape."""
    if FINITE_CHECKS and not np.isfinite(out_data).all():
        raise NumericError(f"non-finite value produced by op '{name}'")
    out = Tensor(out_data)
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

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _finish(out, (a, b), bwd, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _finish(out, (a, b), bwd, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def bwd(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _finish(out, (a, b), bwd, "mul")


def div(a: Tensor, b: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        out = a.data / b.data

    def bwd(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return _finish(out, (a, b), bwd, "div")


def scale(x: Tensor, s: float) -> Tensor:
    s = float(s)
    out = x.data * np.float32(s)

    def bwd(g):
        return (g * np.float32(s),)

    return _finish(out, (x,), bwd, "scale")


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    ns = np.float32(negative_slope)
    pos = x.data > 0
    out = np.where(pos, x.data, x.data * ns)

    def bwd(g):
        return (np.where(pos, g, g * ns),)

    return _finish(out, (x,), bwd, "leaky_relu")


def gelu(x: Tensor) -> Tensor:
    # exact erf form; derivative is Phi(x) + x * phi(x)
    cdf = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))
    out = (x.data * cdf).astype(np.float32)

    def bwd(g):
        pdf = _INV_SQRT2PI * np.exp(-0.5 * x.data * x.data)
        return ((g * (cdf + x.data * pdf)).astype(np.float32),)

    return _finish(out, (x,), bwd, "gelu")


def sqrt(x: Tensor) -> Tensor:
    out = np.sqrt(x.data)

    def bwd(g):
        return (g * (0.5 / out),)

    return _finish(out, (x,), bwd, "sqrt")


def clamp(x: Tensor, lo: float, hi: float) -> Tensor:
    out = np.clip(x.data, lo, hi)
    mask = (x.data >= lo) & (x.data <= hi)

    def bwd(g):
        return (g * mask,)

    return _finish(out, (x,), bwd, "clamp")


def sum_(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = x.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g.reshape(()), x.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, x.shape).copy(),)

    return _finish(np.asarray(out), (x,), bwd, "sum")


def mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = x.data.mean(axis=axis, keepdims=keepdims, dtype=np.float32)
    if axis is None:
        count = x.data.size
    elif isinstance(axis, tuple):
        count = int(np.prod([x.data.shape[a] for a in axis]))
    else:
        count = x.data.shape[axis]

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g.reshape(()) / count, x.shape).astype(np.float32),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return ((np.broadcast_to(gg, x.shape) / count).astype(np.float32),)

    return _finish(np.asarray(out), (x,), bwd, "mean")


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------

def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = x.data.reshape(shape)

    def bwd(g):
        return (g.reshape(x.shape),)

    return _finish(out, (x,), bwd, "reshape")


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = np.argsort(axes)
    out = np.ascontiguousarray(x.data.transpose(axes))

    def bwd(g):
        return (np.ascontiguousarray(g.transpose(inv)),)

    return _finish(out, (x,), bwd, "transpose")


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis; gradient zero-pads the complement."""
    if start < 0 or start + length > x.shape[axis]:
        raise ShapeError(
            f"narrow [{start}:{start + length}] out of range for axis {axis} "
            f"of extent {x.shape[axis]}"
        )
    idx = tuple(slice(None) if a != axis else slice(start, start + length)
                for a in range(x.data.ndim))
    out = np.ascontiguousarray(x.data[idx])

    def bwd(g):
        gx = np.zeros_like(x.data)
        gx[idx] = g
        return (gx,)

    return _finish(out, (x,), bwd, "narrow")


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = list(tensors)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return _finish(out, tensors, bwd, "concat")


def pixel_shuffle_spatial(x: Tensor, r: int) -> Tensor:
    """Rearrange [N, C*r*r, T, H, W] -> [N, C, T, H*r, W*r].

    Channel index decomposes as ``c*(r*r) + i*r + j`` with (i, j) the offsets
    inside each r x r output block. Pure permutation, so exactly invertible.
    """
    out = _shuffle_fwd(x.data, r)

    def bwd(g):
        return (_shuffle_inv(g, r),)

    return _finish(out, (x,), bwd, "pixel_shuffle_spatial")


def pixel_unshuffle_spatial(x: Tensor, r: int) -> Tensor:
    """Inverse of :func:`pixel_shuffle_spatial`: space to channel."""
    out = _shuffle_inv(x.data, r)

    def bwd(g):
        return (_shuffle_fwd(g, r),)

    return _finish(out, (x,), bwd, "pixel_unshuffle_spatial")


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
    out = a.data @ b.data

    def bwd(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return ga, gb

    return _finish(out, (a, b), bwd, "matmul")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return ((g - dot) * out,)

    return _finish(out, (x,), bwd, "softmax")


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


def _kernel_slices(kshape, stride, out_dims):
    """Padded-input slice per kernel offset, row-major over (kt, kh, kw)."""
    kt, kh, kw = kshape
    st, sh, sw = stride
    to, ho, wo = out_dims
    slices = []
    for it in range(kt):
        for ih in range(kh):
            for iw in range(kw):
                slices.append((slice(it, it + to * st, st),
                               slice(ih, ih + ho * sh, sh),
                               slice(iw, iw + wo * sw, sw)))
    return slices


def conv_patches(x: np.ndarray, kshape, stride, padding, out_dims) -> np.ndarray:
    """[N, C, T, H, W] input -> [N, C*kt*kh*kw, P] patch matrix of the input
    zero-padded by ``padding`` on both sides of each spatial axis.

    A 1x1x1 unit-stride kernel sees every voxel once, so its patch matrix is
    a view of the (padded) input and a conv is a plain channel GEMM.
    """
    if any(padding):
        pt, ph, pw = padding
        x = np.pad(x, ((0, 0), (0, 0), (pt, pt), (ph, ph), (pw, pw)))
    n, c = x.shape[:2]
    if tuple(kshape) == (1, 1, 1) and tuple(stride) == (1, 1, 1):
        return x.reshape(n, c, -1)
    to, ho, wo = out_dims
    k3 = int(np.prod(kshape))
    buf = np.empty((n, c, k3, to, ho, wo), dtype=x.dtype)
    for k, sl in enumerate(_kernel_slices(kshape, stride, out_dims)):
        buf[:, :, k] = x[:, :, sl[0], sl[1], sl[2]]
    return buf.reshape(n, c * k3, to * ho * wo)


def conv3d(x: Tensor, w: Tensor, bias: Optional[Tensor] = None,
           stride=(1, 1, 1), padding=(0, 0, 0)) -> Tensor:
    """Cross-correlation of [N,C,T,H,W] input with [O,C,kt,kh,kw] kernels.

    Implemented as one GEMM against a patch matrix assembled per kernel
    offset (for a 1x1x1 unit-stride kernel, the input itself); the backward
    pass reuses the patch matrix for the weight gradient and scatter-adds the
    transposed GEMM back into the padded input.
    """
    stride = tuple(int(s) for s in stride)
    padding = tuple(int(p) for p in padding)
    n, o, to, ho, wo = conv3d_output_shape(x.shape, w.shape, stride, padding)
    c, kt, kh, kw = w.shape[1:]
    pt, ph, pw = padding
    k3 = kt * kh * kw
    p_count = to * ho * wo

    patches = conv_patches(x.data, (kt, kh, kw), stride, padding, (to, ho, wo))
    w2 = w.data.reshape(o, c * k3)
    out = (w2 @ patches).reshape(n, o, to, ho, wo)
    if bias is not None:
        out = out + bias.data.reshape(1, o, 1, 1, 1)

    inputs = (x, w) if bias is None else (x, w, bias)
    t, h, wd = x.shape[2:]
    crop = (slice(None), slice(None), slice(pt, pt + t), slice(ph, ph + h), slice(pw, pw + wd))
    # the input gradient of a unit-stride conv is itself a conv of the
    # (re-padded) output gradient with the channel-transposed flipped kernel,
    # which beats the scatter-add path when o <= c
    unit_stride = stride == (1, 1, 1)
    dx_as_conv = (unit_stride and o <= c and k3 > 1
                  and pt <= kt - 1 and ph <= kh - 1 and pw <= kw - 1)

    def bwd(g):
        gm = g.reshape(n, o, p_count)
        dw = np.matmul(gm, patches.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
        if unit_stride and k3 == 1:
            # channel GEMM: the patch gradient is the padded-input gradient
            dx = (w2.T @ gm).reshape(n, c, to, ho, wo)[crop]
        elif dx_as_conv:
            wflip = w.data[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
            gpatches = conv_patches(g, (kt, kh, kw), (1, 1, 1),
                                    (kt - 1 - pt, kh - 1 - ph, kw - 1 - pw), (t, h, wd))
            dx = (wflip.reshape(c, o * k3) @ gpatches).reshape(x.shape)
        else:
            dpatch = (w2.T @ gm).reshape(n, c, k3, to, ho, wo)
            dxp = np.zeros((n, c, t + 2 * pt, h + 2 * ph, wd + 2 * pw), dtype=x.data.dtype)
            for k, sl in enumerate(_kernel_slices((kt, kh, kw), stride, (to, ho, wo))):
                dxp[:, :, sl[0], sl[1], sl[2]] += dpatch[:, :, k]
            dx = dxp[crop]
        if bias is None:
            return dx, dw
        return dx, dw, g.sum(axis=(0, 2, 3, 4))

    return _finish(out, inputs, bwd, "conv3d")


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
        # drop the rule and its saved arrays once used (or never needed):
        # this breaks the tensor -> node -> rule -> tensor cycles, so the
        # step's activations are freed by reference counting
        backward_fn, inputs = node.backward_fn, node.inputs
        node.backward_fn = node.inputs = None
        if g is None:
            continue
        grads = backward_fn(g)
        for inp, gin in zip(inputs, grads):
            if gin is None:
                continue
            if inp.node is not None and inp.node.tape is tape:
                idx = inp.node.index
                if slots[idx] is None:
                    slots[idx] = np.asarray(gin, dtype=np.float32)
                else:
                    slots[idx] = slots[idx] + gin
            elif inp.requires_grad:
                inp.accumulate_grad(np.asarray(gin, dtype=np.float32))
    tape.nodes.clear()
