"""Independent reference implementations used as test oracles.

Everything here is written in the most literal way possible (explicit loops,
textbook formulas) and must stay decoupled from the package internals: these
functions define what the fast implementations are checked against.
"""

import numpy as np


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


def conv2d_loops(x, w, b=None, stride=1):
    """Direct 6-loop 3x3 convolution, zero padding 1."""
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
                                acc += x[ci, iy, ix] * w[co, ci, ky, kx]
                out[co, oy, ox] = acc
        if b is not None:
            out[co] += b[co]
    return out


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
