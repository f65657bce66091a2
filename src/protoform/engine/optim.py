"""Adam with decoupled weight decay."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import EngineError, Tensor


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """Per-parameter moment estimates keyed by parameter name."""

    weight_decay: float = 0.0
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict[str, Tensor], state: AdamState, lr: float) -> None:
    """One Adam update from each parameter's ``.grad``, with bias
    correction, then decoupled weight decay.

    Parameters without a gradient this step keep their moments but still
    decay.  Clears every gradient once all are applied.  Mutates ``params``
    and ``state`` in place, and neither when a gradient is not finite.
    """
    if lr <= 0:
        raise EngineError(f"adam_step: lr must be positive, got {lr}")
    for name, p in params.items():
        g = p.grad
        if g is not None and not np.all(np.isfinite(g)):
            raise EngineError(
                f"adam_step: non-finite gradient for {name!r} at step {state.step + 1} "
                f"(|g|max={np.abs(g[np.isfinite(g)]).max() if np.isfinite(g).any() else 'nan'})"
            )
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for name, p in params.items():
        g = p.grad
        if g is not None:
            if name not in state.m:
                state.m[name] = np.zeros_like(p.data)
                state.v[name] = np.zeros_like(p.data)
            m = state.m[name]
            v = state.v[name]
            m *= BETA1
            m += (1 - BETA1) * g
            v *= BETA2
            v += (1 - BETA2) * (g * g)
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
        if state.weight_decay:
            p.data -= lr * state.weight_decay * p.data
    # after the last update: freeing each gradient among the updates'
    # temporaries made the allocator return pages and fault them in again,
    # which cost batch-1 training ~17% of its throughput
    for p in params.values():
        p.grad = None
