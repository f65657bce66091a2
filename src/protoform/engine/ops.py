"""The operator set.

Shapes follow numpy broadcasting where noted.  Integer arguments
(embedding ids, class targets, boolean masks) are plain ndarrays, not
Tensors; gradients flow only through real-valued inputs.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor
from .rng import philox
from .tensor import EngineError, ShapeError, Tensor, accumulate, make_node


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `g` down to `shape` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def matmul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = np.matmul(a.data, b.data)
    except ValueError:
        raise ShapeError(f"matmul: shapes {a.data.shape} x {b.data.shape} do not conform")

    def bwd(g):
        accumulate(a, _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape))
        accumulate(b, _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape))

    return make_node(out, "matmul", (a, b), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine layer ``x @ w + b`` with ``x`` (..., k) and ``w`` (k, n).

    With grad mode off the leading axes collapse into one 2-D GEMM, where
    numpy runs a 3-D ``x`` as one product per leading index.  The two can
    differ in the last bit, so training, with grad mode on, keeps the
    batched product and its bytes.
    """
    try:
        k, n = w.data.shape
        if tensor._GRAD_ENABLED:
            xw = np.matmul(x.data, w.data)
        else:
            xw = np.matmul(x.data.reshape(-1, k), w.data).reshape(*x.data.shape[:-1], n)
        xw += b.data
    except ValueError:
        raise ShapeError(f"linear: {x.data.shape} x {w.data.shape} + {b.data.shape} do not conform")

    def bwd(g):
        # collapse the leading axes into one GEMM per side
        g2 = g.reshape(-1, n)
        accumulate(x, np.matmul(g2, w.data.T).reshape(x.data.shape))
        accumulate(w, np.matmul(x.data.reshape(-1, k).T, g2))
        accumulate(b, _unbroadcast(g, b.data.shape), own=g.shape != b.data.shape)

    return make_node(xw, "linear", (x, w, b), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.data.shape} + {b.data.shape} do not broadcast")

    def bwd(g):
        ga = _unbroadcast(g, a.data.shape)
        accumulate(a, ga, own=ga is not g)
        gb = _unbroadcast(g, b.data.shape)
        accumulate(b, gb, own=gb is not g)

    return make_node(out, "add", (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.data.shape} * {b.data.shape} do not broadcast")

    def bwd(g):
        accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return make_node(out, "mul", (a, b), bwd)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def bwd(g):
        accumulate(a, g * s)

    return make_node(a.data * s, "scale", (a,), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    try:
        out = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: {a.data.shape} -> {tuple(shape)}")

    def bwd(g):
        accumulate(a, g.reshape(a.data.shape))

    return make_node(out, "reshape", (a,), bwd)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(a.data.ndim)):
        raise ShapeError(f"transpose: axes {axes} invalid for shape {a.data.shape}")
    inv = tuple(np.argsort(axes))

    def bwd(g):
        accumulate(a, np.ascontiguousarray(g.transpose(inv)))

    return make_node(np.ascontiguousarray(a.data.transpose(axes)), "transpose", (a,), bwd)


def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ShapeError(
            f"embedding_lookup: id out of range for table with {table.data.shape[0]} rows"
        )
    out = table.data[ids]

    def bwd(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.data.shape[1]))
        accumulate(table, gt)

    return make_node(out, "embedding_lookup", (table,), bwd)


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    y = a.data - np.max(a.data, axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(-1, keepdims=True)

    def bwd(g):
        t = g * y
        dot = np.sum(t, axis=-1, keepdims=True)
        np.subtract(g, dot, out=t)
        t *= y
        accumulate(a, t)

    return make_node(y, "softmax", (a,), bwd)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalization over the last axis, then the affine ``xhat * gain + bias``.

    ``np.mean(d * d)`` on ``d = a - mean`` is ``np.var``'s own arithmetic,
    so the variance has its bits without a second subtraction."""
    mu = np.mean(a.data, axis=-1, keepdims=True)
    xhat = a.data - mu
    var = np.mean(xhat * xhat, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat *= inv
    out = xhat * gain.data
    out += bias.data

    def bwd(g):
        accumulate(bias, _unbroadcast(g, bias.data.shape), own=g.shape != bias.data.shape)
        ga = g * gain.data
        gm = np.mean(ga, axis=-1, keepdims=True)
        t = ga * xhat
        gx = np.mean(t, axis=-1, keepdims=True)
        np.multiply(xhat, gx, out=t)
        ga -= gm
        ga -= t
        ga *= inv
        accumulate(a, ga)
        # last, since a gain shaped like g adopts t
        accumulate(gain, _unbroadcast(np.multiply(g, xhat, out=t), gain.data.shape))

    return make_node(out, "layer_norm", (a, gain, bias), bwd)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)

    def bwd(g):
        accumulate(a, g * (a.data > 0))

    return make_node(out, "relu", (a,), bwd)


def dropout(a: Tensor, p: float, key: tuple) -> Tensor:
    """Inverted dropout with a counter-based mask.

    ``key`` is a tuple of ints, conventionally (run seed, dropout-site id,
    step); the mask is a pure function of it, so replaying a step
    reproduces the mask exactly.  ``p == 0`` (eval mode) is the identity
    and returns ``a`` itself.  The node keeps the boolean mask, not a float copy.

    The mask is ``philox(*key).random(shape, dtype=np.float32) >= p`` read
    off the raw words behind that draw: float i is ``(w_i >> 8) / 2**24`` for
    32-bit word i (the low half of each 64-bit output first), so it reaches
    ``float32(p)`` exactly when ``w_i >= k << 8``, ``k = ceil(float32(p) * 2**24)``.
    ``(a * keep) * s`` has the bits of ``a * where(keep, s, 0)``, even where
    ``a * s`` overflows.
    """
    if p == 0.0:
        return a
    if not 0.0 <= p < 1.0:
        raise EngineError(f"dropout: p={p} outside [0, 1)")
    n = a.data.size
    raw = philox(*key).bit_generator.random_raw((n + 1) // 2)
    words = raw.astype("<u8", copy=False).view("<u4")[:n]
    # where p rounds to 1 in float32, k << 8 is 2**32 and no word reaches it
    k = math.ceil(float(np.float32(p)) * 2**24)
    keep = (words >= k << 8).reshape(a.data.shape)
    s = a.data.dtype.type(1.0 / (1.0 - p))

    def bwd(g):
        ga = g * keep
        ga *= s
        accumulate(a, ga)

    out = a.data * keep
    out *= s
    return make_node(out, "dropout", (a,), bwd)


def masked_fill(a: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Replace entries where ``mask`` is True with ``value`` (often -inf)."""
    mask = np.asarray(mask, dtype=bool)
    try:
        out = np.where(mask, a.data.dtype.type(value), a.data)
    except ValueError:
        raise ShapeError(f"masked_fill: mask {mask.shape} does not broadcast to {a.data.shape}")

    def bwd(g):
        accumulate(a, _unbroadcast(np.where(mask, 0.0, g), a.data.shape))

    return make_node(out, "masked_fill", (a,), bwd)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean token-level cross entropy over positions whose target is not
    the padding id 0; those positions contribute nothing, gradient included.

    ``logits``: (..., V); ``targets``: integer array of shape ``logits.shape[:-1]``.
    """
    targets = np.asarray(targets)
    if targets.shape != logits.data.shape[:-1]:
        raise ShapeError(
            f"cross_entropy: targets {targets.shape} vs logits {logits.data.shape}"
        )
    keep = targets != 0
    count = int(keep.sum())
    if count == 0:
        raise EngineError("cross_entropy: every target position is ignored")
    x = logits.data
    m = np.max(x, axis=-1, keepdims=True)
    lse = m[..., 0] + np.log(np.sum(np.exp(x - m), axis=-1))
    safe_targets = np.where(keep, targets, 0)
    picked = np.take_along_axis(x, safe_targets[..., None], axis=-1)[..., 0]
    nll = (lse - picked) * keep
    loss = np.array(nll.sum() / count)

    def bwd(g):
        p = np.exp(x - m)
        p /= p.sum(axis=-1, keepdims=True)
        np.put_along_axis(
            p, safe_targets[..., None],
            np.take_along_axis(p, safe_targets[..., None], axis=-1) - 1.0, axis=-1,
        )
        p *= (keep / count)[..., None]
        accumulate(logits, p * g)

    return make_node(loss, "cross_entropy", (logits,), bwd)


_DISPATCH = {
    "matmul": matmul,
    "linear": linear,
    "add": add,
    "mul": mul,
    "scale": scale,
    "reshape": reshape,
    "transpose": transpose,
    "embedding_lookup": embedding_lookup,
    "softmax": softmax,
    "layer_norm": layer_norm,
    "relu": relu,
    "dropout": dropout,
    "masked_fill": masked_fill,
    "cross_entropy": cross_entropy,
}

OP_KINDS = tuple(_DISPATCH)
