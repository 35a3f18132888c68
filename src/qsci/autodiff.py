"""Dense float32 tensors with reverse-mode automatic differentiation.

A :class:`Tape` records every operation executed while it is active; calling
:func:`backward` on a scalar loss walks the recording once in reverse and
accumulates gradients into the ``grad`` field of every ``requires_grad`` leaf.
Tapes are single-use: ``backward`` consumes the tape, releasing what each
node saved as it goes, and a second call is rejected. A node or leaf holds
its gradient in its ``grad`` field: the first to reach it is cast to
float32, and later ones add to it in reverse record order, across fan-out
and successive backward passes, so callers zero them between steps.

A node holds a gradient sink for each input, not the input: the node that
made the input, if that node is on the same tape; else the input itself, if
it is a leaf that requires grad; else ``None``. The sink is fixed when the
input is recorded, so ``requires_grad`` is read then, not at ``backward``.
A node's backward rule closes over the arrays it reads and nothing else, so
an input that no rule reads is freed as soon as its caller drops it. The
data-movement ops and ``add`` keep no array; ``softmax`` and ``leaky_relu``
keep their outputs, ``layer_norm`` its centred input, each row's deviation
and its gain, and ``training.mse_loss`` the difference of its operands.
``gelu`` and ``clamp`` keep their input arrays, ``gelu`` its ``Phi(x)`` too
(recomputing ``erf`` costs time), but a ``gelu`` computed once per key of a
table (a quantized layer's accumulators) keeps only its looked-up
derivative; ``leaky_relu`` and ``clamp`` keep no mask and recompute it.
``quantize.fake_quant``, whose nodes remain only in the attention core,
keeps its input, scale and zero-point, rebuilds the pre-clip value and the
codes in backward, and gives its recorded output a :attr:`Tensor.rebuild`
of its array. ``matmul`` keeps each operand's rebuild if it has one, else
its array (:func:`_reader`), so the tape keeps no dequantized operand; the
attention core's transposed query and key operands have no rebuild and are
kept. ``linear`` and ``conv3d`` record a value their caller computed (a
layer's code-domain forward) and compute none. Each of their operands is a
Tensor, kept as ``matmul`` keeps one, or a quantized operand
(:class:`~qsci.quantize.Operand`), part of the same node, which keeps its
input array, scale and zero-point: the backward computes the operand's
pre-clip value and codes once, and from them its dequantized array and its
straight-through gradients. ``conv3d`` builds its im2col patch matrices in
backward only, padding no input (:func:`sample_patches`). It and
``fake_quant`` skip ``x``'s gradient, and no other, when ``x`` does not
require grad; a quantized operand's array still gets its gradient, which
its scale and zero-point need.

Each array is scanned for NaN/Inf once. Every arithmetic op scans its
output, raises :class:`~qsci.errors.NumericError` on a non-finite value and
marks the result (:attr:`Tensor.scanned`). The data-movement ops
(``reshape``, ``transpose``, ``concat``) scan nothing; their output is
marked only if every input is. A quantizer, whose clip would hide an
infinity, scans an unmarked input itself (see :mod:`qsci.quantize`). Data
is not changed in place once an op has read it, so a mark stays true;
assigning new data clears it.
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
    docstring), the rule mapping the output gradient to input gradients
    (aligned with ``inputs``, ``None`` allowed), and ``grad``, the gradient
    that has reached the node, held until the backward walk passes it."""

    __slots__ = ("tape", "inputs", "backward_fn", "name", "grad")

    def __init__(self, tape, inputs, backward_fn, name):
        self.tape = tape
        self.inputs = inputs
        self.backward_fn = backward_fn
        self.name = name
        self.grad: Optional[np.ndarray] = None


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
        node = Node(self, tuple(self._sink(t) for t in inputs), backward_fn, name)
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
    tape node, scan mark or rebuild.

    ``rebuild`` is ``None`` except on a ``fake_quant`` output recorded on a
    tape, where it is a zero-argument function that recomputes ``data``, bit
    for bit, from what that node keeps anyway (see :func:`_reader`)."""

    __slots__ = ("data", "requires_grad", "grad", "node", "rebuild", "_scanned")

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
        self.rebuild = None
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

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar for adding two tensors
    def __add__(self, other):
        return add(self, other)


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


def _reader(t: Tensor):
    """A zero-argument function that gives ``t``'s array in backward: its
    rebuild, if it has one, so that a rule keeps no dequantized copy; else a
    closure over the array."""
    if t.rebuild is not None:
        return t.rebuild
    data = t.data
    return lambda: data


def _operand(t):
    """(tensors, read) of an operand of :func:`linear` or :func:`conv3d`:
    the Tensors whose gradients the node gives for it, and a zero-argument
    function that gives, in backward, the operand's array and the map from
    that array's gradient to theirs. A Tensor is its own only tensor, read
    through :func:`_reader`, and its gradient is passed on; a quantized
    operand (:class:`~qsci.quantize.Operand`) gives its own."""
    if isinstance(t, Tensor):
        read = _reader(t)
        return (t,), lambda: (read(), lambda g: (g,))
    return t.tensors, t.read


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


def leaky_relu(x: Tensor) -> Tensor:
    """``x`` where positive, else ``x * 0.01``. As the slope lies in [0, 1],
    that is ``max(x, x * 0.01)``, bit for bit, signed zeros included. The
    tape keeps the output: ``out > 0`` is ``x > 0`` for every finite ``x``,
    as a zero or an underflow to ``-0.0`` fails both."""
    ns = np.float32(0.01)
    xd = x.data
    out = np.maximum(xd, xd * ns)

    def bwd(g):
        return (np.where(out > 0, g, g * ns),)

    return _finish(out, (x,), bwd, "leaky_relu")


def _gelu_cdf(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + erf(x * _INV_SQRT2))


def _gelu_slope(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """GELU's derivative ``Phi(x) + x * phi(x)``, where ``cdf`` is ``Phi(x)``."""
    pdf = _INV_SQRT2PI * np.exp(-0.5 * x * x)
    return cdf + x * pdf


def gelu(x: Tensor, table=None) -> Tensor:
    """``x * Phi(x)`` in the exact erf form; derivative ``Phi(x) + x * phi(x)``.
    A non-finite input raises NumericError and warns nothing, although
    ``-inf * Phi(-inf)`` is ``-inf * 0``. The tape keeps ``x`` and ``Phi(x)``.

    ``table``, if given, is ``(keys, slots)`` with ``keys.take(slots)``
    equal to ``x``'s array, bit for bit: one key per accumulator value of a
    quantized layer, say. The value and the derivative are then computed
    once per key, by the same float32 elementwise ops, and looked up, so
    both keep their bits, and the tape keeps only the looked-up derivative.
    """
    keys = x.data if table is None else table[0]
    with np.errstate(invalid="ignore"):
        cdf = _gelu_cdf(keys)
        out = keys * cdf
        if table is None:
            def bwd(g):
                return (g * _gelu_slope(keys, cdf),)
        else:
            slope = _gelu_slope(keys, cdf).take(table[1])
            out = out.take(table[1])

            def bwd(g):
                return (g * slope,)

    return _finish(out, (x,), bwd, "gelu")


def clamp(x: Tensor, lo: float, hi: float) -> Tensor:
    xd = x.data
    out = np.clip(xd, lo, hi)

    def bwd(g):
        return (g * ((xd >= lo) & (xd <= hi)),)

    return _finish(out, (x,), bwd, "clamp")


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


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` over broadcast batch axes; the tape keeps each operand
    through :func:`_reader`."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError("matmul operands must have at least 2 dimensions")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(
            f"matmul inner extents differ: {a.shape[-1]} (last axis of a) vs "
            f"{b.shape[-2]} (second-to-last axis of b)"
        )
    read_a, read_b = _reader(a), _reader(b)

    def bwd(g):
        return _matmul_grads(g, read_a(), read_b())

    return _finish(a.data @ b.data, (a, b), bwd, "matmul")


def linear(x, w, bias: Tensor, out: np.ndarray) -> Tensor:
    """The tape node of ``x @ w + bias``, whose value ``out`` the caller
    computed; it computes no forward. Its backward runs the ops of
    :func:`matmul`'s rule and :func:`add`'s, so its gradients have their
    bits. ``x`` and ``w`` are Tensors or quantized operands
    (:func:`_operand`); the node's inputs are their tensors, then
    ``bias``."""
    (x_in, read_x), (w_in, read_w) = _operand(x), _operand(w)
    bias_shape = bias.shape

    def bwd(g):
        (xd, x_grads), (wd, w_grads) = read_x(), read_w()
        dx, dw = _matmul_grads(g, xd, wd)
        return x_grads(dx) + w_grads(dw) + (_unbroadcast(g, bias_shape),)

    return _finish(out, x_in + w_in + (bias,), bwd, "linear")


def _matmul_grads(g: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple:
    """The gradients of ``a @ b``'s operands for its output gradient ``g``."""
    return (_unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape),
            _unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape))


def softmax(x: Tensor, scale: float) -> Tensor:
    """Softmax over the last axis of ``x * float32(scale)``, its gradient the
    softmax gradient times ``float32(scale)``: the float32 steps, in order,
    and so the bits of a scaling node followed by a softmax node."""
    s = np.float32(scale)
    xs = x.data * s
    e = np.exp(xs - _reduce_last(np.maximum, xs))
    out = e / _reduce_last(np.add, e)

    def bwd(g):
        dot = _reduce_last(np.add, g * out)
        return ((g - dot) * out * s,)

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
# 3-D convolution (cross-correlation): geometry, patches and the tape node
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


def conv3d(x, w, bias: Tensor, out: np.ndarray, stride, padding) -> Tensor:
    """The tape node of a cross-correlation of [N,C,T,H,W] input with
    [O,C,kt,kh,kw] kernels plus a per-output-channel ``bias``, whose value
    ``out`` the caller computed; it computes no forward.

    ``x`` and ``w`` are Tensors or quantized operands (:func:`_operand`),
    and the node's inputs are their tensors, then ``bias``; the tape keeps
    only what they keep. The backward pass builds each sample's patch matrix
    (:func:`sample_patches`; for an unpadded 1x1x1 unit-stride kernel, a
    view of the input) and sums the per-sample weight gradients in sample
    order, so the result is bit for bit that of one batched GEMM and an
    axis-0 sum. The input gradient scatter-adds the transposed GEMM back
    into the input, tap by tap, or is itself a conv (see below), one GEMM
    per sample; for an input that does not require grad when the conv is
    recorded, it is ``None`` and neither is built.
    """
    stride = tuple(int(s) for s in stride)
    padding = tuple(int(p) for p in padding)
    n, o, to, ho, wo = conv3d_output_shape(x.shape, w.shape, stride, padding)
    c, kt, kh, kw = w.shape[1:]
    pt, ph, pw = padding
    k3 = kt * kh * kw
    p_count = to * ho * wo
    geometry = ((kt, kh, kw), stride, padding)
    (x_in, read_x), (w_in, read_w) = _operand(x), _operand(w)
    need_dx = x.requires_grad
    unit_stride = stride == (1, 1, 1)
    pointwise = unit_stride and k3 == 1 and not any(padding)

    # the input gradient of a unit-stride conv is itself a conv of the
    # (re-padded) output gradient with the channel-transposed flipped kernel,
    # which beats the scatter-add path when o <= c
    dx_as_conv = (unit_stride and o <= c and k3 > 1
                  and pt <= kt - 1 and ph <= kh - 1 and pw <= kw - 1)

    def bwd(g):
        (xd, x_grads), (wd, w_grads) = read_x(), read_w()
        w2 = wd.reshape(o, c * k3)
        gm = g.reshape(n, o, p_count)
        each = xd.reshape(n, c, p_count) if pointwise else sample_patches(xd, *geometry)
        terms = (gi @ pi.T for gi, pi in zip(gm, each))
        dw = next(terms)
        for term in terms:
            dw += term
        dw = dw.reshape(wd.shape)
        if not need_dx:
            dx = None
        elif pointwise:
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
        return x_grads(dx) + w_grads(dw) + (g.sum(axis=(0, 2, 3, 4)),)

    return _finish(out, x_in + w_in + (bias,), bwd, "conv3d")


# ---------------------------------------------------------------------------
# backward driver
# ---------------------------------------------------------------------------

def backward(loss: Tensor):
    """Accumulate d(loss)/d(leaf) into ``grad`` of every requires_grad leaf.

    The loss must be a scalar produced on a live tape; the tape is consumed.
    A sink's first gradient is cast to float32, and later ones add to it in
    reverse record order, whether the sink is a node or a leaf.
    """
    if loss.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss.node is None:
        raise ValueError("loss is detached: no tape recorded its computation")
    tape = loss.node.tape
    if tape.consumed:
        raise RuntimeError("tape already consumed by a previous backward()")
    tape.consumed = True

    loss.node.grad = np.ones_like(loss.data)
    for node in reversed(tape.nodes):
        # drop the gradient, the rule and its saved arrays once used (or
        # never needed), so the step's activations are freed by reference
        # counting as the walk passes them
        g, backward_fn, sinks = node.grad, node.backward_fn, node.inputs
        node.grad = node.backward_fn = node.inputs = None
        if g is None:
            continue
        for sink, gin in zip(sinks, backward_fn(g)):
            if gin is None or sink is None:
                continue
            gin = np.asarray(gin, dtype=np.float32)
            sink.grad = gin if sink.grad is None else sink.grad + gin
    tape.nodes.clear()
