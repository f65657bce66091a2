"""Dense tensors with reverse-mode automatic differentiation.

Each differentiable operation returns a new ``Tensor`` holding its inputs
and a backward closure; the implicit DAG formed by these links is walked
in reverse topological order by ``backward``, which releases each interior
node as it goes, so after the pass only leaves hold ``.grad`` and a graph
can be walked once.  Gradients accumulate additively across fan-out.
Everything is single-threaded and, for a fixed seed, bitwise deterministic.
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


class Tensor:
    """A dense real array plus the bookkeeping for reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, *, dtype=None):
        self.data = np.asarray(data, dtype=dtype or _DTYPE)
        self.grad = None
        self.requires_grad = requires_grad
        self.op = "leaf"
        self._parents = ()
        self._backward = None


def make_node(data: np.ndarray, op: str, parents, backward) -> Tensor:
    """Wrap an op result; tracks gradients iff any parent does."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    out.op = op
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward = backward
    else:
        out._parents = ()
        out._backward = None
    return out


def _toposort(root: Tensor) -> list[Tensor]:
    """Iterative DFS; every parent precedes its consumer in the result."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def accumulate(t: Tensor, g: np.ndarray, own: bool = True) -> None:
    """Add `g` into t.grad.

    ``own=True`` promises `g` is freshly allocated by the caller (or a view
    no other parent will adopt), so the first accumulation can adopt it
    without copying.  Pass ``own=False`` when `g` may be handed to several
    parents.
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        if own and g.dtype == t.data.dtype:
            t.grad = g
        else:
            t.grad = np.array(g, dtype=t.data.dtype)
    else:
        t.grad += g


def backward(loss: Tensor) -> None:
    """Reverse pass from a scalar loss; adds into ``.grad`` of every leaf
    that requires gradients.  Each interior node is released once its
    closure has run (gradient, closure and parent links dropped), so the
    step's activations are freed as the walk goes; a second ``backward``
    through a released graph raises ``EngineError``."""
    if loss.data.size != 1:
        raise EngineError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise EngineError("loss does not require gradients")
    order = _toposort(loss)
    if any(node._backward is None and node.op != "leaf" for node in order):
        raise EngineError("graph already released by an earlier backward")
    loss.grad = np.ones_like(loss.data)
    while order:
        node = order.pop()
        if node._backward is not None:
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = node._backward = None
            node._parents = ()


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None
