"""Independent plain-numpy forward pass used as the float reference oracle.

Deliberately avoids the package's tensor engine: convolutions are computed
one kernel tap at a time with explicit window sums, attention and
normalization with direct formulas. Only suitable for tiny shapes. SSIM
applies the full 2-D Gaussian window with ``scipy.signal.convolve2d``,
frame by frame.
:func:`dequantize` maps codes back to real values with a quantizer's scale
and zero-point.

Two helpers are built on engine nodes (``autodiff._finish``) instead:
:func:`sum_`, the weighted full-reduction loss that gradient tests
backpropagate from, and :func:`layer_norm_ops`, the chain of ops whose bits
the engine's one-node ``layer_norm`` must keep.
"""

import numpy as np
from scipy.signal import convolve2d
from scipy.special import erf


def conv3d(x, w, b, stride=(1, 1, 1), padding=(0, 0, 0)):
    """Float64 cross-correlation plus a per-output-channel bias ``b``."""
    out = _tap_sum(np.asarray(x, np.float64), np.asarray(w, np.float64), stride, padding)
    if b is not None:
        out += b.reshape(1, -1, 1, 1, 1)
    return out


def _tap_sum(x, w, stride, padding):
    """Cross-correlation in the dtype of ``x`` and ``w``, one kernel tap at a
    time: each tap's strided window of the zero-padded input, contracted
    over channels with that tap's weights (no patch matrix anywhere)."""
    n, c, t, h, wd = x.shape
    o, _, kt, kh, kw = w.shape
    st, sh, sw = stride
    pt, ph, pw = padding
    xp = np.zeros((n, c, t + 2 * pt, h + 2 * ph, wd + 2 * pw), dtype=x.dtype)
    xp[:, :, pt:pt + t, ph:ph + h, pw:pw + wd] = x
    to = (t + 2 * pt - kt) // st + 1
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (wd + 2 * pw - kw) // sw + 1
    out = np.zeros((n, o, to, ho, wo), dtype=x.dtype)
    for it in range(kt):
        for ih in range(kh):
            for iw in range(kw):
                window = xp[:, :, it:it + to * st:st, ih:ih + ho * sh:sh, iw:iw + wo * sw:sw]
                out += np.einsum("nctij,oc->notij", window, w[:, :, it, ih, iw])
    return out


def leaky_relu(x, slope=0.01):
    return np.where(x > 0, x, x * slope)


def leaky_relu_grad(x, g, slope=0.01):
    """Upstream gradient ``g`` through :func:`leaky_relu` at ``x``."""
    return np.where(x > 0, g, g * slope)


def gelu(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def layer_norm(tok, gain, bias, eps=1e-5):
    mu = tok.mean(axis=-1, keepdims=True)
    xc = tok - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    return xc / np.sqrt(var + eps) * gain + bias


def sum_(x, w=None):
    """The sum of every element of a Tensor times the fixed weight array
    ``w`` (ones if None), as one tape node whose gradient is ``g * w``."""
    import qsci.autodiff as ad

    w = np.ones(x.shape, np.float32) if w is None else np.asarray(w, np.float32)
    out = (x.data * w).sum()

    def bwd(g):
        return (g.reshape(()) * w,)

    return ad._finish(np.asarray(out), (x,), bwd, "sum")


def dequantize(codes, q):
    """Real values ``codes * alpha + z`` of a quantizer's integer codes."""
    alpha, z = np.float32(q.alpha.data[0]), np.float32(q.z.data[0])
    return (np.asarray(codes, dtype=np.float32) * alpha + z).astype(np.float32)


def layer_norm_ops(x, gain, bias, eps=1e-5):
    """LayerNorm over the last axis of a Tensor as nine ops, each its own
    tape node: mean, sub, mul, mean, add, sqrt, div, mul, add. All but the
    engine's ``add`` are built here."""
    import qsci.autodiff as ad

    def sub(a, b):
        a_shape, b_shape = a.shape, b.shape

        def bwd(g):
            return ad._unbroadcast(g, a_shape), ad._unbroadcast(-g, b_shape)

        return ad._finish(a.data - b.data, (a, b), bwd, "sub")

    def mul(a, b):
        a_data, b_data = a.data, b.data

        def bwd(g):
            return (ad._unbroadcast(g * b_data, a_data.shape),
                    ad._unbroadcast(g * a_data, b_data.shape))

        return ad._finish(a_data * b_data, (a, b), bwd, "mul")

    def mean(t):
        out = t.data.mean(axis=-1, keepdims=True, dtype=np.float32)
        count = t.data.shape[-1]

        def bwd(g):
            return ((np.broadcast_to(g, t.shape) / count).astype(np.float32),)

        return ad._finish(np.asarray(out), (t,), bwd, "mean")

    def sqrt(t):
        out = np.sqrt(t.data)

        def bwd(g):
            return (g * (0.5 / out),)

        return ad._finish(out, (t,), bwd, "sqrt")

    def div(a, b):
        with np.errstate(divide="ignore", invalid="ignore"):
            out = a.data / b.data

        def bwd(g):
            ga = ad._unbroadcast(g / b.data, a.shape)
            gb = ad._unbroadcast(-g * a.data / (b.data * b.data), b.shape)
            return ga, gb

        return ad._finish(out, (a, b), bwd, "div")

    xc = sub(x, mean(x))
    var = mean(mul(xc, xc))
    normed = div(xc, sqrt(var + ad.Tensor(eps)))
    return mul(normed, gain) + bias


def softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def pixel_shuffle(x, r):
    n, crr, t, h, w = x.shape
    c = crr // (r * r)
    out = np.zeros((n, c, t, h * r, w * r), dtype=x.dtype)
    for ci in range(c):
        for i in range(r):
            for j in range(r):
                out[:, ci, :, i::r, j::r] = x[:, ci * r * r + i * r + j]
    return out


def pixel_unshuffle(x, r):
    n, c, hr_t, hr, wr = x.shape[0], x.shape[1], x.shape[2], x.shape[3], x.shape[4]
    h, w = hr // r, wr // r
    out = np.zeros((n, c * r * r, hr_t, h, w), dtype=x.dtype)
    for ci in range(c):
        for i in range(r):
            for j in range(r):
                out[:, ci * r * r + i * r + j] = x[:, ci, :, i::r, j::r]
    return out


class StraightThrough:
    """The quantizers of :func:`forward` as functions of their parameters.

    Each site, such as ``fem.conv_a.aq``, maps ``x`` to
    ``alpha * (clip(v) + c) + z`` with ``v = (x - z) / alpha`` in float64
    and ``z = 0`` for a weight quantizer, which has none. ``c`` is fixed at
    the site's first call, to ``code - clip(v)`` with the site's ``code``
    from the engine, so that there the value is the engine's dequantized
    code. Elsewhere the function is smooth but at the clip edges, and its
    derivatives are the straight-through gradient of ``x`` (Bengio et al.,
    arXiv 1308.3432) and the LSQ gradients of ``alpha`` and ``z`` (Esser et
    al., arXiv 1902.08153). ``sites`` maps each site to its (bits, codes).
    ``pre_clip`` holds each site's ``v`` of the last call."""

    def __init__(self, sites):
        self.sites = sites
        self.offsets = {}
        self.pre_clip = {}

    def __call__(self, site, x, p):
        bits, codes = self.sites[site]
        alpha, z = p[site + ".alpha"], p.get(site + ".z", 0.0)
        v = self.pre_clip[site] = (x - z) / alpha
        clipped = np.clip(v, -(1 << (bits - 1)), (1 << (bits - 1)) - 1)
        return alpha * (clipped + self.offsets.setdefault(site, codes - clipped)) + z


def _identity(site, x, p):
    return x


def linear(tok, p, name, quant):
    return (quant(name + ".aq", tok, p) @ quant(name + ".wq", p[name + ".weight"], p)
            + p[name + ".bias"])


def conv(x, p, name, quant, **geometry):
    return conv3d(quant(name + ".aq", x, p), quant(name + ".wq", p[name + ".weight"], p),
                  p[name + ".bias"], **geometry)


def attention(tok, p, prefix, heads, quant):
    """tok: [B, T, C]; p: parameter dict; prefix like 'block0.cf0.attn.'."""
    bsz, t, c = tok.shape
    d = c // heads
    q = linear(tok, p, prefix + "q_proj", quant)
    k = linear(tok, p, prefix + "k_proj", quant)
    v = linear(tok, p, prefix + "v_proj", quant)
    if prefix + "beta_q" in p:
        q = q + p[prefix + "beta_q"]
        k = k + p[prefix + "beta_k"]

    def split(m):
        return m.reshape(bsz, t, heads, d).transpose(0, 2, 1, 3)

    qh = split(quant(prefix + "qq", q, p))
    kh = split(quant(prefix + "kq", k, p))
    logits = qh @ kh.transpose(0, 1, 3, 2) / np.sqrt(d)
    probs = quant(prefix + "pq", softmax(logits), p)
    mixed = (probs @ split(v)).transpose(0, 2, 1, 3).reshape(bsz, t, c)
    return linear(mixed, p, prefix + "out_proj", quant)


def cformer_block(x, p, prefix, heads, quant):
    n, c, t, h, w = x.shape
    conv_branch = leaky_relu(conv(x, p, prefix + "conv", quant, padding=(1, 1, 1)))
    tok = x.transpose(0, 3, 4, 2, 1).reshape(n * h * w, t, c)
    tok = layer_norm(tok, p[prefix + "norm.gain"], p[prefix + "norm.bias"])
    att = attention(tok, p, prefix + "attn.", heads, quant)
    attn_branch = att.reshape(n, h, w, t, c).transpose(0, 4, 3, 1, 2)
    fused = conv(np.concatenate([conv_branch, attn_branch], axis=1), p, prefix + "fuse", quant)
    hidden = gelu(conv(fused, p, prefix + "mlp_in", quant))
    return x + conv(hidden, p, prefix + "mlp_out", quant)


def forward(stack, p, cfg, quant=_identity):
    """Full reference forward; returns [B, T, H, W]. ``quant(site, x, p)``
    is each quantizer site's function (:class:`StraightThrough`), by
    default the identity, as at 32 bits."""
    x = stack.astype(np.float64)
    n, _, t, h, w = x.shape

    h1 = conv(x, p, "fem.conv_a", quant, padding=(1, 1, 1))
    if cfg.use_fem_shortcuts:
        h1 = h1 + conv(x, p, "fem.short_a", quant)
    h1 = leaky_relu(h1)
    h2 = conv(h1, p, "fem.conv_b", quant, stride=(1, 2, 2), padding=(1, 1, 1))
    if cfg.use_fem_shortcuts:
        h2 = h2 + conv(pixel_unshuffle(h1, 2), p, "fem.short_b", quant)
    feat = leaky_relu(h2)

    for bi in range(cfg.resdnet_blocks):
        skip = feat
        for ki in range(cfg.cformer_per_block):
            feat = cformer_block(feat, p, f"block{bi}.cf{ki}.", cfg.heads, quant)
        feat = skip + conv(feat, p, f"block{bi}.tail", quant)

    u = conv(feat, p, "vrm.conv_up", quant, padding=(0, 1, 1))
    if cfg.use_vrm_shortcuts:
        u = u + conv(feat, p, "vrm.short_up", quant)
    u = leaky_relu(pixel_shuffle(u, 2))
    y = conv(u, p, "vrm.conv_out", quant, padding=(0, 1, 1))
    if cfg.use_vrm_shortcuts:
        y = y + conv(u, p, "vrm.short_out", quant)
    base = x[:, 0:1]
    return np.clip(y + base, 0.0, 1.0).reshape(n, t, h, w)


def int_conv3d(x, w, stride=(1, 1, 1), padding=(0, 0, 0)):
    """Integer cross-correlation of code tensors in int64 arithmetic (no
    float anywhere)."""
    return _tap_sum(np.asarray(x).astype(np.int64), np.asarray(w).astype(np.int64),
                    stride, padding)


def int_linear(x, w):
    """[..., in] int64 codes times [in, out] int64 codes."""
    return np.asarray(x).astype(np.int64) @ np.asarray(w).astype(np.int64)


def fake_quant_masked(x, alpha, z, bits, g):
    """Fake quantization with explicit clip masks and a nested ``np.where``
    for the scale gradient: (out, dx, dalpha, dz) for upstream gradient ``g``,
    float32 throughout (the formula the mask-free version must reproduce)."""
    q_n, q_p = 1 << (bits - 1), (1 << (bits - 1)) - 1
    v = (x - np.float32(z)) / np.float32(alpha)
    lo = v < -q_n
    hi = v > q_p
    mid = ~(lo | hi)
    codes = np.rint(np.clip(v, -q_n, q_p)).astype(np.float32)
    out = codes * np.float32(alpha) + np.float32(z)
    dx = g * mid
    field = np.where(mid, codes - v, np.where(hi, np.float32(q_p), np.float32(-q_n)))
    dalpha = np.array([(g * field).sum()], dtype=np.float32)
    dz = np.array([(g * ~mid).sum()], dtype=np.float32)
    return out, dx, dalpha, dz


def conv3d_im2col(x, w, b, g, stride=(1, 1, 1), padding=(0, 0, 0)):
    """General im2col route of a float32 conv for any kernel: zero-pad, copy
    one patch slab per kernel tap, one GEMM; backward scatter-adds the
    transposed GEMM into a zero buffer of the padded input.
    Returns (out, dx, dw, db) for upstream gradient ``g``."""
    n, c, t, h, wd = x.shape
    o, _, kt, kh, kw = w.shape
    st, sh, sw = stride
    pt, ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (pt, pt), (ph, ph), (pw, pw)))
    to = (t + 2 * pt - kt) // st + 1
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (wd + 2 * pw - kw) // sw + 1
    taps = [(slice(a, a + to * st, st), slice(bb, bb + ho * sh, sh), slice(d, d + wo * sw, sw))
            for a in range(kt) for bb in range(kh) for d in range(kw)]
    buf = np.empty((n, c, len(taps), to, ho, wo), dtype=x.dtype)
    for k, sl in enumerate(taps):
        buf[:, :, k] = xp[:, :, sl[0], sl[1], sl[2]]
    patches = buf.reshape(n, c * len(taps), to * ho * wo)
    w2 = w.reshape(o, -1)
    out = (w2 @ patches).reshape(n, o, to, ho, wo) + b.reshape(1, o, 1, 1, 1)
    gm = g.reshape(n, o, -1)
    dw = np.matmul(gm, patches.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    dpatch = (w2.T @ gm).reshape(n, c, len(taps), to, ho, wo)
    dxp = np.zeros_like(xp)
    for k, sl in enumerate(taps):
        dxp[:, :, sl[0], sl[1], sl[2]] += dpatch[:, :, k]
    dx = dxp[:, :, pt:pt + t, ph:ph + h, pw:pw + wd]
    return out, dx, dw, g.sum(axis=(0, 2, 3, 4))


def conv3d_dx_as_conv(w, g, in_shape, padding=(0, 0, 0)):
    """Input gradient of a unit-stride float32 conv as a conv of the
    re-padded output gradient ``g`` with the channel-transposed, flipped
    kernel: one batched im2col GEMM over the whole batch."""
    o, c, kt, kh, kw = w.shape
    n, _, t, h, wd = in_shape
    pad = (kt - 1 - padding[0], kh - 1 - padding[1], kw - 1 - padding[2])
    gp = np.pad(g, ((0, 0), (0, 0)) + tuple((p, p) for p in pad))
    taps = [(a, bb, d) for a in range(kt) for bb in range(kh) for d in range(kw)]
    buf = np.empty((n, o, len(taps), t, h, wd), dtype=g.dtype)
    for k, (a, bb, d) in enumerate(taps):
        buf[:, :, k] = gp[:, :, a:a + t, bb:bb + h, d:d + wd]
    wflip = w[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
    return (wflip.reshape(c, -1) @ buf.reshape(n, o * len(taps), -1)).reshape(in_shape)


def padded_patches(x, kshape, stride=(1, 1, 1), padding=(0, 0, 0)):
    """[N, C*k3, P] patch matrices of a conv: zero-pad the input with
    ``np.pad``, then copy one strided slab per kernel tap, row-major over
    (kt, kh, kw)."""
    n, c, t, h, wd = x.shape
    kt, kh, kw = kshape
    st, sh, sw = stride
    pt, ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (pt, pt), (ph, ph), (pw, pw)))
    to = (t + 2 * pt - kt) // st + 1
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (wd + 2 * pw - kw) // sw + 1
    taps = [(a, bb, d) for a in range(kt) for bb in range(kh) for d in range(kw)]
    buf = np.empty((n, c, len(taps), to, ho, wo), dtype=x.dtype)
    for k, (a, bb, d) in enumerate(taps):
        buf[:, :, k] = xp[:, :, a:a + to * st:st, bb:bb + ho * sh:sh, d:d + wo * sw:sw]
    return buf.reshape(n, c * len(taps), -1)


def ssim(a, b, size=11, sigma=1.5, k1=0.01, k2=0.03):
    """SSIM with the full 2-D Gaussian window, one ``convolve2d`` per moment
    map and frame; 3-D stacks are the mean of their per-frame scores."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim == 3:
        return float(np.mean([ssim(fa, fb, size, sigma, k1, k2) for fa, fb in zip(a, b)]))
    coords = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g = np.exp(-(coords ** 2) / (2.0 * sigma ** 2))
    win = np.outer(g, g)
    win /= win.sum()
    c1, c2 = k1 ** 2, k2 ** 2
    mu_a = convolve2d(a, win, mode="valid")
    mu_b = convolve2d(b, win, mode="valid")
    var_a = convolve2d(a * a, win, mode="valid") - mu_a * mu_a
    var_b = convolve2d(b * b, win, mode="valid") - mu_b * mu_b
    cov = convolve2d(a * b, win, mode="valid") - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


def pack_weights_loop(codes, bits):
    """Bit-pack signed codes into uint64 words one field slot at a time:
    slot ``s`` of word ``i`` holds code ``i * (64 // bits) + s``, LSB first."""
    ints = np.rint(np.asarray(codes).reshape(-1)).astype(np.int64)
    per_word = 64 // bits
    words = np.zeros(-(-ints.size // per_word), dtype=np.uint64)
    fields = (ints & ((1 << bits) - 1)).astype(np.uint64)
    for slot in range(per_word):
        chunk = fields[slot::per_word]
        words[: chunk.size] |= chunk << np.uint64(slot * bits)
    return words


def unpack_weights_loop(words, bits, count):
    """Inverse of :func:`pack_weights_loop`, one field slot at a time; int64."""
    per_word = 64 // bits
    words = np.asarray(words, dtype=np.uint64)
    mask = np.uint64((1 << bits) - 1)
    out = np.empty(words.size * per_word, dtype=np.int64)
    for slot in range(per_word):
        out[slot::per_word] = ((words >> np.uint64(slot * bits)) & mask).astype(np.int64)
    out = out[:count]
    return np.where(out >= 1 << (bits - 1), out - (1 << bits), out)
