"""Binary checkpoints: a model's config and its flat parameter store under one sha256.

Layout: magic "GCB2", u32 LE config-JSON byte length, config JSON (UTF-8),
`ModelParams.flat` as little-endian float32 in the store's own order, then
the sha256 of every byte before it. The file follows the store's layout, so
a change to that layout must change the magic.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import DataError
from .model import ModelConfig, ModelParams, parameter_count

MAGIC = b"GCB2"
_DIGEST_SIZE = hashlib.sha256().digest_size


class CheckpointError(DataError):
    pass


def save_checkpoint(path, params: ModelParams) -> None:
    config = json.dumps(params.config.to_dict(), sort_keys=True).encode("utf-8")
    body = b"".join([MAGIC, len(config).to_bytes(4, "little"), config, np.asarray(params.flat, dtype="<f4").tobytes()])
    Path(path).write_bytes(body + hashlib.sha256(body).digest())


def load_checkpoint(path) -> ModelParams:
    blob = Path(path).read_bytes()
    if blob[:4] == b"GCB1":
        raise CheckpointError(f"{path} is a GCB1 checkpoint, a format this version no longer reads")
    if blob[:4] != MAGIC:
        raise CheckpointError("bad magic bytes")
    body, digest = blob[:-_DIGEST_SIZE], blob[-_DIGEST_SIZE:]
    if hashlib.sha256(body).digest() != digest:
        raise CheckpointError(f"{path} fails its sha256 check: the file is corrupted or truncated")
    end = 8 + int.from_bytes(body[4:8], "little")
    try:
        config = ModelConfig.from_dict(json.loads(body[8:end].decode("utf-8")))
    except (AttributeError, TypeError, ValueError, OverflowError, RecursionError) as e:
        raise CheckpointError(f"bad model config: {e}") from e
    needed = parameter_count(config)
    if len(body) - end != 4 * needed:
        raise CheckpointError(f"config needs {needed} parameters, but the file holds {len(body) - end} bytes of them")
    params = ModelParams(config, np.frombuffer(body, dtype="<f4", offset=end).astype(np.float32))
    for name, t in params.tensors.items():
        if not np.isfinite(t.data).all():
            raise CheckpointError(f"tensor {name!r} holds a non-finite value")
    return params
