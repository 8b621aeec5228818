"""Small shared utilities."""

from repro.utils.formatting import format_seconds, format_bytes, render_table
from repro.utils.jsonio import (
    Record,
    from_payload,
    jsonable,
    to_payload,
    write_json,
)
from repro.utils.rng import derive_rng, derive_seed_sequence, derive_uniform

__all__ = [
    "format_seconds",
    "format_bytes",
    "render_table",
    "Record",
    "from_payload",
    "jsonable",
    "to_payload",
    "write_json",
    "derive_rng",
    "derive_seed_sequence",
    "derive_uniform",
]
