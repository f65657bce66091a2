"""Parameter checkpoints.

One file: an ASCII manifest (one line per tensor: name, shape, byte
offset into the payload, element count), a line reading ``end``, then the
raw payload of little-endian 64-bit reals.  Values are stored as float64
regardless of the engine's active dtype.
"""

from __future__ import annotations

import numpy as np

from .tensor import EngineError

MAGIC = "PROTOFORM-CKPT v1"


def save_checkpoint(path: str, tensors: dict[str, np.ndarray]) -> None:
    lines = [MAGIC]
    offset = 0
    blobs = []
    for name in tensors:
        if any(ch.isspace() for ch in name):
            raise EngineError(f"checkpoint: tensor name {name!r} contains whitespace")
        arr = np.asarray(tensors[name], dtype="<f8")
        shape = ",".join(str(d) for d in arr.shape) or "scalar"
        lines.append(f"tensor {name} {shape} {offset} {arr.size}")
        blobs.append(arr.tobytes())
        offset += arr.size * 8
    lines.append("end")
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("ascii"))
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path: str) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        raw = fh.read()
    head, sep, _ = raw.partition(b"\nend\n")
    if not sep:
        raise EngineError(f"checkpoint {path}: missing manifest terminator")
    start = len(head) + len(sep)   # where the payload begins in ``raw``
    try:
        lines = head.decode("ascii").splitlines()
    except UnicodeDecodeError:
        raise EngineError(f"checkpoint {path}: manifest is not ASCII")
    if not lines or lines[0] != MAGIC:
        raise EngineError(f"checkpoint {path}: bad magic")
    out: dict[str, np.ndarray] = {}
    for line in lines[1:]:
        try:
            kind, name, shape_s, offset_s, count_s = line.split(" ")
            shape = () if shape_s == "scalar" else tuple(int(d) for d in shape_s.split(","))
            offset, count = int(offset_s), int(count_s)
        except ValueError:
            raise EngineError(f"checkpoint {path}: malformed manifest line {line!r}")
        if kind != "tensor" or min(shape + (offset, count)) < 0 or int(np.prod(shape)) != count:
            raise EngineError(f"checkpoint {path}: unexpected manifest line {line!r}")
        if start + offset + 8 * count > len(raw):
            raise EngineError(
                f"checkpoint {path}: tensor {name!r} runs past the end of the "
                f"{len(raw) - start}-byte payload (truncated file?)"
            )
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=start + offset)
        if not np.isfinite(arr).all():
            raise EngineError(f"checkpoint {path}: tensor {name!r} holds a NaN or an infinity")
        out[name] = arr.reshape(shape).copy()
    return out
