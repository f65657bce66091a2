"""Reverse-mode autodiff over dense numpy arrays, plus the optimizer,
gradient checker, and checkpoint I/O used by the reconstructor."""

from .checkpoint import load_checkpoint, save_checkpoint
from .gradcheck import TOLERANCE, grad_check, run_suite
from .ops import (
    OP_KINDS,
    add,
    cross_entropy,
    dropout,
    dropout_matmul,
    embedding_lookup,
    layer_norm,
    linear,
    masked_fill,
    matmul,
    mul,
    relu,
    reshape,
    scale,
    softmax,
    transpose,
)
from .optim import AdamState, adam_step
from .rng import DetRng, philox
from .tensor import (
    EngineError,
    ShapeError,
    Tensor,
    backward,
    default_dtype,
    no_grad,
    set_default_dtype,
    zero_grads,
)
