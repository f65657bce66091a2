"""Dense tensors with reverse-mode automatic differentiation.

A ``Tensor`` is an array plus, when gradients flow through it, a ``Node``:
the graph vertex that holds the gradient, the input nodes and the backward
closure, but no array.  Each differentiable op's closure captures only the
arrays or shapes its own backward reads, so an intermediate that no
backward reads (a ``scale`` or ``relu`` output, a residual sum) is freed as
soon as the forward code drops its Tensor.  ``backward`` walks the nodes in
reverse topological order and releases each interior node as it goes, so
after the pass only leaves hold ``.grad`` and a graph can be walked once.
Gradients accumulate additively across fan-out.  Everything is
single-threaded and, for a fixed seed, bitwise deterministic.
"""

from __future__ import annotations

import numpy as np


class EngineError(Exception):
    """Raised for invalid engine usage (non-scalar loss, NaN grads, ...)."""


class ShapeError(EngineError):
    """Raised when operand shapes do not conform; names the op and shapes."""


_DTYPE = np.float64
_DTYPES = {"float64": np.float64, "float32": np.float32}


def set_default_dtype(name: str) -> None:
    """Select the float width for newly created tensors.

    64-bit is the default; 32-bit halves memory and roughly doubles GEMM
    throughput at the cost of gradient-check headroom.
    """
    global _DTYPE
    if name not in _DTYPES:
        raise EngineError(f"unknown dtype {name!r}; choose float64 or float32")
    _DTYPE = _DTYPES[name]


def default_dtype():
    return _DTYPE


_GRAD_ENABLED = True


class no_grad:
    """Context manager: ops inside build no backward graph (eval mode)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


class Node:
    """A graph vertex: the gradient, the nodes of the inputs that take one,
    the backward closure (``None`` at a leaf) and the gradient's dtype.  It
    holds no array of the forward pass; the closure holds what it reads."""

    __slots__ = ("grad", "parents", "backward", "dtype")

    def __init__(self, dtype, parents=(), backward=None):
        self.grad = None
        self.parents = parents
        self.backward = backward
        self.dtype = dtype


# the closure of a node that an earlier ``backward`` has walked
_RELEASED = object()


class Tensor:
    """A dense real array, plus its graph node if gradients flow through it."""

    __slots__ = ("data", "node")

    def __init__(self, data, requires_grad: bool = False, *, dtype=None):
        self.data = np.asarray(data, dtype=dtype or _DTYPE)
        self.node = Node(self.data.dtype) if requires_grad else None

    @property
    def grad(self):
        return None if self.node is None else self.node.grad

    @grad.setter
    def grad(self, g):
        if self.node is not None:
            self.node.grad = g
        elif g is not None:
            raise EngineError("tensor does not require gradients")


def make_node(data: np.ndarray, op: str, parents, backward) -> Tensor:
    """Wrap the result of op kind ``op``; it gets a node, with ``backward``,
    iff grad mode is on and a parent has one."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.node = None
    if _GRAD_ENABLED:
        nodes = tuple(p.node for p in parents if p.node is not None)
        if nodes:
            out.node = Node(data.dtype, nodes, backward)
    return out


def _toposort(root: Node) -> list[Node]:
    """Iterative DFS; every parent precedes its consumer in the result."""
    order: list[Node] = []
    seen: set[Node] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for p in node.parents:
            if p not in seen:
                stack.append((p, False))
    return order


def accumulate(node: Node | None, g: np.ndarray, own: bool = True) -> None:
    """Add `g` into node.grad; nothing for an input without a node.

    ``own=True`` promises `g` is freshly allocated by the caller (or a view
    no other parent will adopt), so the first accumulation can adopt it
    without copying.  Pass ``own=False`` when `g` may be handed to several
    parents.
    """
    if node is None:
        return
    if node.grad is None:
        if own and g.dtype == node.dtype:
            node.grad = g
        else:
            node.grad = np.array(g, dtype=node.dtype)
    else:
        node.grad += g


def backward(loss: Tensor) -> None:
    """Reverse pass from a scalar loss; adds into ``.grad`` of every leaf
    that requires gradients.  Each interior node is released once its
    closure has run (gradient, closure and parent links dropped), so what
    the closures hold is freed as the walk goes; a second ``backward``
    through a released graph raises ``EngineError``."""
    if loss.data.size != 1:
        raise EngineError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if loss.node is None:
        raise EngineError("loss does not require gradients")
    order = _toposort(loss.node)
    if any(node.backward is _RELEASED for node in order):
        raise EngineError("graph already released by an earlier backward")
    loss.node.grad = np.ones_like(loss.data)
    while order:
        node = order.pop()
        if node.backward is not None:
            if node.grad is not None:
                node.backward(node.grad)
            node.grad = None
            node.backward = _RELEASED
            node.parents = ()


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None
