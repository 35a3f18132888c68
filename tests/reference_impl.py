"""Independent plain-numpy forward pass used as the float reference oracle.

Deliberately avoids the package's tensor engine: convolutions are computed
per output voxel with explicit window sums, attention and normalization with
direct formulas. Only suitable for tiny shapes.
"""

import numpy as np
from scipy.special import erf


def conv3d(x, w, b, stride=(1, 1, 1), padding=(0, 0, 0)):
    n, c, t, h, wd = x.shape
    o, _, kt, kh, kw = w.shape
    st, sh, sw = stride
    pt, ph, pw = padding
    xp = np.zeros((n, c, t + 2 * pt, h + 2 * ph, wd + 2 * pw), dtype=np.float64)
    xp[:, :, pt:pt + t, ph:ph + h, pw:pw + wd] = x
    to = (t + 2 * pt - kt) // st + 1
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (wd + 2 * pw - kw) // sw + 1
    out = np.zeros((n, o, to, ho, wo), dtype=np.float64)
    for ni in range(n):
        for oi in range(o):
            for ti in range(to):
                for hi in range(ho):
                    for wi in range(wo):
                        window = xp[ni, :, ti * st:ti * st + kt,
                                    hi * sh:hi * sh + kh, wi * sw:wi * sw + kw]
                        out[ni, oi, ti, hi, wi] = np.sum(window * w[oi])
    if b is not None:
        out += b.reshape(1, o, 1, 1, 1)
    return out


def leaky_relu(x, slope=0.01):
    return np.where(x > 0, x, x * slope)


def gelu(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def layer_norm(tok, gain, bias, eps=1e-5):
    mu = tok.mean(axis=-1, keepdims=True)
    xc = tok - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    return xc / np.sqrt(var + eps) * gain + bias


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


def attention(tok, p, prefix, heads):
    """tok: [B, T, C]; p: parameter dict; prefix like 'block0.cf0.attn.'."""
    bsz, t, c = tok.shape
    d = c // heads
    q = tok @ p[prefix + "q_proj.weight"] + p[prefix + "q_proj.bias"]
    k = tok @ p[prefix + "k_proj.weight"] + p[prefix + "k_proj.bias"]
    v = tok @ p[prefix + "v_proj.weight"] + p[prefix + "v_proj.bias"]
    if prefix + "beta_q" in p:
        q = q + p[prefix + "beta_q"]
        k = k + p[prefix + "beta_k"]

    def split(m):
        return m.reshape(bsz, t, heads, d).transpose(0, 2, 1, 3)

    qh, kh, vh = split(q), split(k), split(v)
    logits = qh @ kh.transpose(0, 1, 3, 2) / np.sqrt(d)
    probs = softmax(logits)
    mixed = (probs @ vh).transpose(0, 2, 1, 3).reshape(bsz, t, c)
    return mixed @ p[prefix + "out_proj.weight"] + p[prefix + "out_proj.bias"]


def cformer_block(x, p, prefix, heads):
    n, c, t, h, w = x.shape
    conv_branch = leaky_relu(conv3d(x, p[prefix + "conv.weight"], p[prefix + "conv.bias"],
                                    padding=(1, 1, 1)))
    tok = x.transpose(0, 3, 4, 2, 1).reshape(n * h * w, t, c)
    tok = layer_norm(tok, p[prefix + "norm.gain"], p[prefix + "norm.bias"])
    att = attention(tok, p, prefix + "attn.", heads)
    attn_branch = att.reshape(n, h, w, t, c).transpose(0, 4, 3, 1, 2)
    fused = conv3d(np.concatenate([conv_branch, attn_branch], axis=1),
                   p[prefix + "fuse.weight"], p[prefix + "fuse.bias"])
    hidden = gelu(conv3d(fused, p[prefix + "mlp_in.weight"], p[prefix + "mlp_in.bias"]))
    return x + conv3d(hidden, p[prefix + "mlp_out.weight"], p[prefix + "mlp_out.bias"])


def forward(stack, p, cfg):
    """Full reference forward for a 32-bit config; returns [B, T, H, W]."""
    x = stack.astype(np.float64)
    n, _, t, h, w = x.shape

    h1 = conv3d(x, p["fem.conv_a.weight"], p["fem.conv_a.bias"], padding=(1, 1, 1))
    if cfg.use_fem_shortcuts:
        h1 = h1 + conv3d(x, p["fem.short_a.weight"], p["fem.short_a.bias"])
    h1 = leaky_relu(h1)
    h2 = conv3d(h1, p["fem.conv_b.weight"], p["fem.conv_b.bias"],
                stride=(1, 2, 2), padding=(1, 1, 1))
    if cfg.use_fem_shortcuts:
        h2 = h2 + conv3d(pixel_unshuffle(h1, 2), p["fem.short_b.weight"],
                         p["fem.short_b.bias"])
    feat = leaky_relu(h2)

    for bi in range(cfg.resdnet_blocks):
        skip = feat
        for ki in range(cfg.cformer_per_block):
            feat = cformer_block(feat, p, f"block{bi}.cf{ki}.", cfg.heads)
        feat = skip + conv3d(feat, p[f"block{bi}.tail.weight"], p[f"block{bi}.tail.bias"])

    u = conv3d(feat, p["vrm.conv_up.weight"], p["vrm.conv_up.bias"], padding=(0, 1, 1))
    if cfg.use_vrm_shortcuts:
        u = u + conv3d(feat, p["vrm.short_up.weight"], p["vrm.short_up.bias"])
    u = leaky_relu(pixel_shuffle(u, 2))
    y = conv3d(u, p["vrm.conv_out.weight"], p["vrm.conv_out.bias"], padding=(0, 1, 1))
    if cfg.use_vrm_shortcuts:
        y = y + conv3d(u, p["vrm.short_out.weight"], p["vrm.short_out.bias"])
    base = x[:, 0:1]
    return np.clip(y + base, 0.0, 1.0).reshape(n, t, h, w)


def int_conv3d(x, w, stride=(1, 1, 1), padding=(0, 0, 0)):
    """Integer cross-correlation of code tensors in int64 arithmetic, one
    kernel tap at a time (no float and no patch matrix anywhere)."""
    x = np.asarray(x).astype(np.int64)
    w = np.asarray(w).astype(np.int64)
    n, c, t, h, wd = x.shape
    o, _, kt, kh, kw = w.shape
    st, sh, sw = stride
    pt, ph, pw = padding
    xp = np.zeros((n, c, t + 2 * pt, h + 2 * ph, wd + 2 * pw), dtype=np.int64)
    xp[:, :, pt:pt + t, ph:ph + h, pw:pw + wd] = x
    to = (t + 2 * pt - kt) // st + 1
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (wd + 2 * pw - kw) // sw + 1
    out = np.zeros((n, o, to, ho, wo), dtype=np.int64)
    for it in range(kt):
        for ih in range(kh):
            for iw in range(kw):
                window = xp[:, :, it:it + to * st:st, ih:ih + ho * sh:sh, iw:iw + wo * sw:sw]
                out += np.einsum("nctij,oc->notij", window, w[:, :, it, ih, iw])
    return out


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
