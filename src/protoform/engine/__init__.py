"""Reverse-mode autodiff over dense numpy arrays, plus the optimizer,
gradient checker, and checkpoint I/O used by the reconstructor."""

from .checkpoint import load_checkpoint, save_checkpoint
from .gradcheck import TOLERANCE, grad_check, run_suite
from .ops import (
    OP_KINDS,
    add,
    cross_entropy,
    dropout,
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
from .rng import DetRng, mix64, philox, stable_hash
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

__all__ = [
    "AdamState", "DetRng", "EngineError", "OP_KINDS",
    "ShapeError", "Tensor", "TOLERANCE", "adam_step", "add", "backward",
    "cross_entropy", "default_dtype", "dropout", "embedding_lookup", "grad_check",
    "layer_norm", "linear", "load_checkpoint", "masked_fill", "matmul", "mix64",
    "mul", "no_grad", "philox", "relu", "reshape", "run_suite", "save_checkpoint",
    "scale", "set_default_dtype", "softmax", "stable_hash", "transpose",
    "zero_grads",
]
