"""Finite-difference verification of every operator's backward pass, in float64.

Each check builds the op's node once and hands its backward closure a seed
gradient directly: a fixed random weight over the output, or ones for a
scalar output, so the closure returns the gradient of ``sum(out * weight)``.
Central differences of that sum, taken in numpy, are the reference; no
other op builds a node.
"""

from __future__ import annotations

import numpy as np

from .ops import _DISPATCH, OP_KINDS
from .rng import philox
from .tensor import Tensor, no_grad

EPSILON = 1e-5
TOLERANCE = 1e-4


def _case(kind: str, seed: int):
    """Inputs and attrs for one op; sizes kept small so FD stays cheap."""
    rng = philox(0xC0FFEE, seed)

    def t(*shape):
        return Tensor(rng.uniform(-1.0, 1.0, shape), requires_grad=True, dtype=np.float64)

    if kind == "matmul":
        return [t(3, 4), t(4, 2)], {}
    if kind == "linear":
        return [t(2, 3, 4), t(4, 5), t(5)], {}
    if kind == "add":
        return [t(3, 4), t(4)], {}
    if kind == "mul":
        return [t(3, 4), t(3, 1)], {}
    if kind == "scale":
        return [t(5)], {"s": 1.7}
    if kind == "reshape":
        return [t(2, 6)], {"shape": (3, 4)}
    if kind == "transpose":
        return [t(2, 3, 4)], {"axes": (1, 0, 2)}
    if kind == "embedding_lookup":
        return [t(7, 4)], {"ids": philox(1, seed).integers(0, 7, size=(2, 3))}
    if kind == "softmax":
        return [t(3, 5)], {}
    if kind == "layer_norm":
        return [t(2, 8), t(8), t(8)], {}
    if kind == "relu":
        x = t(4, 4)
        # keep sample away from the kink so central differences are valid
        x.data = np.where(np.abs(x.data) < 0.05, 0.2 * np.sign(x.data) + 0.2, x.data)
        return [x], {}
    if kind == "dropout":
        return [t(3, 4)], {"p": 0.3, "key": (11, seed, 0)}
    if kind == "dropout_matmul":
        return [t(2, 3, 4), t(2, 4, 3)], {"p": 0.3, "key": (11, seed, 0)}
    if kind == "masked_fill":
        mask = philox(2, seed).random((3, 4)) < 0.4
        return [t(3, 4)], {"mask": mask, "value": 0.7}
    if kind == "cross_entropy":
        targets = philox(3, seed).integers(1, 6, size=(2, 3))
        targets[0, 0] = 0  # one ignored position
        return [t(2, 3, 6)], {"targets": targets}
    raise ValueError(f"no grad-check case for op kind {kind!r}")


def central_difference(loss, flat: np.ndarray, i: int) -> float:
    """Central-difference slope of ``loss()`` along ``flat[i]``, which is restored."""
    orig = flat[i]
    flat[i] = orig + EPSILON
    f_plus = loss()
    flat[i] = orig - EPSILON
    f_minus = loss()
    flat[i] = orig
    return (f_plus - f_minus) / (2 * EPSILON)


def grad_check(kind: str, seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients.

    The relative error uses an absolute floor of 1e-3 in the denominator so
    legitimately-zero gradients compare on absolute terms.
    """
    inputs, attrs = _case(kind, seed)
    out = _DISPATCH[kind](*inputs, **attrs)
    shape = out.data.shape
    weight = np.ones(shape) if out.data.size == 1 else philox(4, seed).uniform(0.5, 1.5, shape)
    out.node.backward(weight)
    analytic = [x.grad if x.grad is not None else np.zeros_like(x.data)
                for x in inputs]

    def loss() -> float:
        return float(np.sum(_DISPATCH[kind](*inputs, **attrs).data * weight))

    worst = 0.0
    with no_grad():
        for x, a in zip(inputs, analytic):
            flat = x.data.reshape(-1)
            for i in range(flat.size):
                numeric = central_difference(loss, flat, i)
                ai = a.reshape(-1)[i]
                err = abs(ai - numeric) / max(abs(ai), abs(numeric), 1e-3)
                worst = max(worst, err)
    return worst


def run_suite(seeds=(0, 1, 2)) -> dict[str, float]:
    """Per-op worst relative error across the given seeds."""
    return {kind: max(grad_check(kind, s) for s in seeds) for kind in OP_KINDS}
