"""Model checkpointing: save/load parameter state as .npz archives."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.tensor.nn import Module

_META_KEY = "__checkpoint_meta__"


def _encode_json(payload: dict) -> np.ndarray:
    return np.frombuffer(json.dumps(payload).encode("utf-8"), dtype=np.uint8).copy()


def _decode_json(array: np.ndarray) -> dict:
    return json.loads(bytes(array).decode("utf-8"))


def save_checkpoint(model: Module, path: Union[str, Path], **metadata) -> Path:
    """Write the model's ``state_dict`` (plus JSON metadata) to ``path``.

    Metadata values must be JSON-serialisable (epoch counters, accuracy,
    dataset names ...).  Returns the resolved path (``.npz`` appended
    if missing).
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    state = model.state_dict()
    if _META_KEY in state:
        raise ValueError(f"parameter name {_META_KEY!r} is reserved")
    payload = dict(state)
    payload[_META_KEY] = _encode_json(metadata)
    np.savez(path, **payload)
    return path


def load_checkpoint(model: Module, path: Union[str, Path]) -> dict:
    """Load parameters from ``path`` into ``model``; returns metadata.

    Raises ``KeyError``/``ValueError`` on parameter-name, shape or
    dtype mismatches (delegated to :meth:`Module.load_state_dict`).
    """
    path = Path(path)
    with np.load(path) as archive:
        state = {k: archive[k] for k in archive.files if k != _META_KEY}
        metadata = (
            _decode_json(archive[_META_KEY])
            if _META_KEY in archive.files
            else {}
        )
    model.load_state_dict(state)
    return metadata
