"""Named-tensor checkpoint files.

Textual container with a format-version header.  Values are written as
C99 hex float literals, so a save/load cycle is bitwise exact:

    simxfer-checkpoint 1
    <name> <d1,d2,...>
    <hex values, space separated, row-major>
    ...
"""

from __future__ import annotations

import numpy as np

from .data import read_lines
from .errors import DataError

FORMAT_HEADER = "simxfer-checkpoint 1"


def save_checkpoint(path, tensors: dict[str, np.ndarray]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write(FORMAT_HEADER + "\n")
        for name in sorted(tensors):
            arr = np.asarray(tensors[name], dtype=np.float64)
            shape = ",".join(str(d) for d in arr.shape) or "scalar"
            out.write(f"{name} {shape}\n")
            out.write(" ".join(v.hex() for v in arr.reshape(-1).tolist()) + "\n")


def load_checkpoint(path) -> dict[str, np.ndarray]:
    lines = read_lines(path, "checkpoint")
    if not lines or lines[0] != FORMAT_HEADER:
        raise DataError(f"{path}: not a checkpoint file (missing '{FORMAT_HEADER}' header)")
    tensors: dict[str, np.ndarray] = {}
    i = 1
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        try:
            name, shape_text = lines[i].rsplit(" ", 1)
            if name in tensors:  # keeping either value would hide the other
                raise DataError(f"{path}: duplicate checkpoint entry {name!r} at line {i + 1}")
            shape = () if shape_text == "scalar" else tuple(int(d) for d in shape_text.split(","))
            if any(d < 0 for d in shape):  # reshape would infer a -1 dimension
                raise ValueError(f"negative dimension in shape {shape_text}")
            values = np.array([float.fromhex(v) for v in lines[i + 1].split()], dtype=np.float64)
            if not np.isfinite(values).all():  # nan/inf would poison every prediction
                raise ValueError("non-finite value")
            tensors[name] = values.reshape(shape)
        except (ValueError, IndexError) as exc:
            raise DataError(f"{path}: malformed checkpoint entry at line {i + 1}") from exc
        i += 2
    return tensors
