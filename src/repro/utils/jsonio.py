"""Machine-readable output helpers shared by the CLI and benchmarks.

Every command/benchmark that supports ``--json PATH`` funnels its result
dictionary through :func:`write_json`, so the serialisation rules live
in one place: NaN (the out-of-memory marker) becomes the string
``"OOM"`` (JSON has no NaN), numpy scalars/arrays decay to plain Python
numbers/lists, and tuples become lists.

Records that must survive a JSON cycle *exactly* (ops bundles, scaling
events) are dataclasses deriving :class:`Record`: the dataclass fields
are the payload layout -- :func:`to_payload` writes them in declaration
order, :func:`from_payload` reads them back through the field type
hints -- so a field is declared once and nowhere else.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from typing import Dict, Optional, Union, get_args, get_origin, get_type_hints

import numpy as np


def jsonable(value):
    """A JSON-serialisable copy of ``value``; NaN -> ``"OOM"``."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        value = float(value)
    if isinstance(value, float) and value != value:
        return "OOM"
    return value


def write_json(path: Optional[str], payload: Dict, quiet: bool = False) -> None:
    """Write ``payload`` to ``path`` (no-op when ``path`` is falsy)."""
    if not path:
        return
    with open(path, "w") as fh:
        json.dump(jsonable(payload), fh, indent=2)
    if not quiet:
        print(f"json written to {path}")


def to_payload(record) -> Dict[str, object]:
    """Plain-JSON dict of a dataclass ``record``, in field order.

    Tuples become lists, dict keys strings, nested records payloads; a
    class-level ``type_tag`` is written first under ``"type"``.  Scalars
    pass through untouched (JSON floats round-trip via ``repr``).
    """
    payload: Dict[str, object] = {}
    tag = getattr(record, "type_tag", None)
    if tag is not None:
        payload["type"] = tag
    for f in fields(record):
        payload[f.name] = _encode(getattr(record, f.name))
    return payload


def _encode(value):
    if is_dataclass(value):
        return to_payload(value)
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return value


def from_payload(cls, payload: Dict[str, object]):
    """Inverse of :func:`to_payload`, driven by ``cls``'s type hints.

    Keys the payload omits fall back to the field defaults; a payload
    whose ``"type"`` differs from ``cls.type_tag`` is rejected.
    """
    tag = getattr(cls, "type_tag", None)
    if tag is not None and payload.get("type") != tag:
        raise ValueError(
            f"payload type {payload.get('type')!r} is not {tag!r}"
        )
    hints = get_type_hints(cls)
    return cls(**{
        f.name: _decode(hints[f.name], payload[f.name])
        for f in fields(cls) if f.init and f.name in payload
    })


def _decode(hint, value):
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:  # Optional[X]
        if value is None:
            return None
        (hint,) = [a for a in args if a is not type(None)]
        return _decode(hint, value)
    if origin is tuple:
        if args[-1] is Ellipsis:
            return tuple(_decode(args[0], v) for v in value)
        return tuple(_decode(a, v) for a, v in zip(args, value))
    if origin is list:
        return [_decode(args[0], v) for v in value]
    if origin is dict:
        return {args[0](k): _decode(args[1], v) for k, v in value.items()}
    if is_dataclass(hint):
        return from_payload(hint, value)
    if hint in (int, float, bool, str):
        return hint(value)
    return value  # ``object`` / ``Any``: already plain


class Record:
    """Mixin giving a dataclass ``to_dict`` / ``from_dict`` off its fields."""

    def to_dict(self) -> Dict[str, object]:
        return to_payload(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]):
        return from_payload(cls, payload)
