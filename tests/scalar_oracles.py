"""Scalar-loop reference implementations used as oracles by the test suite.

Everything here is written with plain Python loops and math functions on
purpose: no numpy vectorization, no code shared with the package kernels.
Slow and obviously correct beats fast.
"""

import math


def linear_ref(x, w, b):
    n, din = x.shape
    dout = w.shape[1]
    out = [[0.0] * dout for _ in range(n)]
    for r in range(n):
        for c in range(dout):
            acc = float(b[c]) if b is not None else 0.0
            for k in range(din):
                acc += float(x[r, k]) * float(w[k, c])
            out[r][c] = acc
    return out


def layer_norm_ref(x, gain, bias, eps=1e-6):
    n, d = x.shape
    out = [[0.0] * d for _ in range(n)]
    for r in range(n):
        mu = sum(float(x[r, k]) for k in range(d)) / d
        var = sum((float(x[r, k]) - mu) ** 2 for k in range(d)) / d
        s = math.sqrt(var + eps)
        for k in range(d):
            out[r][k] = (float(x[r, k]) - mu) / s * float(gain[k]) + float(bias[k])
    return out


def group_norm_ref(grid, groups, gain, bias, eps=1e-6):
    h, w, c = grid.shape
    gc = c // groups
    out = [[[0.0] * c for _ in range(w)] for _ in range(h)]
    for g in range(groups):
        vals = []
        for y in range(h):
            for x in range(w):
                for k in range(g * gc, (g + 1) * gc):
                    vals.append(float(grid[y, x, k]))
        mu = sum(vals) / len(vals)
        var = sum((v - mu) ** 2 for v in vals) / len(vals)
        s = math.sqrt(var + eps)
        for y in range(h):
            for x in range(w):
                for k in range(g * gc, (g + 1) * gc):
                    out[y][x][k] = (float(grid[y, x, k]) - mu) / s * float(gain[k]) + float(
                        bias[k]
                    )
    return out


def softmax_ref(x):
    n, d = x.shape
    out = [[0.0] * d for _ in range(n)]
    for r in range(n):
        peak = max(float(x[r, k]) for k in range(d))
        exps = [math.exp(float(x[r, k]) - peak) for k in range(d)]
        total = sum(exps)
        for k in range(d):
            out[r][k] = exps[k] / total
    return out


def gelu_ref(x):
    flat = x.reshape(-1)
    return [0.5 * float(v) * (1.0 + math.erf(float(v) / math.sqrt(2.0))) for v in flat]


def bilinear_resize_ref(fmap, out_h, out_w):
    """Edge-clamped bilinear resample at pixel centers."""
    h, w, c = fmap.shape
    out = [[[0.0] * c for _ in range(out_w)] for _ in range(out_h)]
    for oy in range(out_h):
        for ox in range(out_w):
            sy = (oy + 0.5) * h / out_h - 0.5
            sx = (ox + 0.5) * w / out_w - 0.5
            y0 = math.floor(sy)
            x0 = math.floor(sx)
            ty = sy - y0
            tx = sx - x0
            for k in range(c):
                def at(yy, xx):
                    yy = min(max(yy, 0), h - 1)
                    xx = min(max(xx, 0), w - 1)
                    return float(fmap[yy, xx, k])

                top = at(y0, x0) * (1 - tx) + at(y0, x0 + 1) * tx
                bot = at(y0 + 1, x0) * (1 - tx) + at(y0 + 1, x0 + 1) * tx
                out[oy][ox][k] = top * (1 - ty) + bot * ty
    return out


def bilinear_sample_ref(fmap, points):
    """Zero-padded bilinear taps at normalized (x, y) points."""
    h, w, c = fmap.shape
    out = []
    for p in range(points.shape[0]):
        x = float(points[p, 0]) * w - 0.5
        y = float(points[p, 1]) * h - 0.5
        x0 = math.floor(x)
        y0 = math.floor(y)
        tx = x - x0
        ty = y - y0
        row = [0.0] * c
        for dy in (0, 1):
            for dx in (0, 1):
                yy, xx = y0 + dy, x0 + dx
                if 0 <= yy < h and 0 <= xx < w:
                    wgt = (tx if dx else 1 - tx) * (ty if dy else 1 - ty)
                    for k in range(c):
                        row[k] += wgt * float(fmap[yy, xx, k])
        out.append(row)
    return out


def conv2d_ref(grid, kernel, bias, stride, pad):
    """kernel laid out [kh, kw, cin, cout]; explicit zero padding."""
    h, w, cin = grid.shape
    kh, kw, _, cout = kernel.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    out = [[[0.0] * cout for _ in range(ow)] for _ in range(oh)]
    for oy in range(oh):
        for ox in range(ow):
            for co in range(cout):
                acc = float(bias[co]) if bias is not None else 0.0
                for dy in range(kh):
                    for dx in range(kw):
                        yy = oy * stride + dy - pad
                        xx = ox * stride + dx - pad
                        if 0 <= yy < h and 0 <= xx < w:
                            for ci in range(cin):
                                acc += float(grid[yy, xx, ci]) * float(
                                    kernel[dy, dx, ci, co]
                                )
                out[oy][ox][co] = acc
    return out


def reference_points_ref(grid_h, grid_w):
    pts = []
    for i in range(grid_h):
        for j in range(grid_w):
            pts.append([(j + 0.5) / grid_w, (i + 0.5) / grid_h])
    return pts
