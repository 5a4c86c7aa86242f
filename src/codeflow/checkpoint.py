"""Named-tensor binary checkpoints.

Layout: magic "GCB1", u32 LE config-JSON byte length, config JSON (UTF-8),
u32 LE tensor count, then per tensor: u16 LE name length, name bytes,
u8 dtype code (0 = float32), u8 ndim, ndim x u32 LE dims, row-major
little-endian float32 payload. Tensors are written in sorted name order.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import DataError
from .model import ModelConfig, ModelParams, param_shapes, parameter_count

MAGIC = b"GCB1"
_DTYPE_F32 = 0


class CheckpointError(DataError):
    pass


def save_checkpoint(path, params: ModelParams) -> None:
    path = Path(path)
    names = sorted(params.tensors)
    chunks = [MAGIC]
    config_bytes = json.dumps(params.config.to_dict(), sort_keys=True).encode("utf-8")
    chunks.append(struct.pack("<I", len(config_bytes)))
    chunks.append(config_bytes)
    chunks.append(struct.pack("<I", len(names)))
    for name in names:
        data = np.ascontiguousarray(params.tensors[name].data, dtype="<f4")
        name_bytes = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(name_bytes)))
        chunks.append(name_bytes)
        chunks.append(struct.pack("<BB", _DTYPE_F32, data.ndim))
        chunks.append(struct.pack(f"<{data.ndim}I", *data.shape))
        chunks.append(data.tobytes())
    path.write_bytes(b"".join(chunks))


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise CheckpointError("truncated checkpoint")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path) -> ModelParams:
    r = _Reader(Path(path).read_bytes())
    if r.take(4) != MAGIC:
        raise CheckpointError("bad magic bytes")
    (config_len,) = r.unpack("<I")
    config_bytes = r.take(config_len)
    try:
        config = ModelConfig.from_dict(json.loads(config_bytes.decode("utf-8")))
    except (AttributeError, TypeError, ValueError, OverflowError) as e:
        raise CheckpointError(f"bad model config: {e}") from e
    needed = parameter_count(config)
    if 4 * needed > len(r.buf) - r.pos:  # before `param_shapes`, whose table grows with the config
        raise CheckpointError(f"config needs {needed} parameters, more than the file holds")
    expected = param_shapes(config)
    (count,) = r.unpack("<I")
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = r.unpack("<H")
        name = r.take(name_len).decode("utf-8", errors="replace")
        dtype_code, ndim = r.unpack("<BB")
        if dtype_code != _DTYPE_F32:
            raise CheckpointError(f"unknown dtype code {dtype_code}")
        shape = tuple(r.unpack(f"<{ndim}I")) if ndim else ()
        if name not in expected:
            raise CheckpointError(f"unexpected tensor {name!r}")
        if name in arrays:
            raise CheckpointError(f"tensor {name!r} is listed twice")
        if shape != expected[name]:
            raise CheckpointError(f"tensor {name!r} has shape {shape}, expected {expected[name]}")
        arrays[name] = np.frombuffer(r.take(math.prod(shape) * 4), dtype="<f4").reshape(shape)
        if not np.isfinite(arrays[name]).all():
            raise CheckpointError(f"tensor {name!r} holds a non-finite value")
    if r.pos != len(r.buf):
        raise CheckpointError(f"{len(r.buf) - r.pos} trailing bytes after the last tensor")
    missing = sorted(set(expected) - set(arrays))
    if missing:
        raise CheckpointError(f"missing tensors: {missing[:5]}")
    params = ModelParams(config, np.zeros(needed, dtype=np.float32))
    for name, t in params.tensors.items():
        t.data[...] = arrays[name]
    return params
