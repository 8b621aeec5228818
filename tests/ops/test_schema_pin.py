"""Bundle layout pin: the ordered key paths of every problem's bundle.

``tests/data/golden_ops_schema.json`` was recorded at the commit
*before* the record codec replaced the hand-written ``to_dict`` methods
(``PYTHONPATH=src python tests/ops/test_schema_pin.py --write``).  It
holds key paths only -- no values -- so it does not depend on the numpy
version; value-level identity is what ``test_replay.py`` checks.
Re-record only for an intended bundle-schema change (which also bumps
``SCHEMA_VERSION``).
"""

import json
import os
import sys

from repro.ops import bundle_from_result, list_problems, run_problem

GOLDEN = os.path.join(
    os.path.dirname(__file__), "..", "data", "golden_ops_schema.json"
)


def key_paths(value, prefix=""):
    """Ordered key paths of a JSON value.

    A dict contributes each key (in insertion order) followed by its
    value's paths; a list contributes the paths of each *distinct*
    element shape, in first-seen order, under ``prefix[]``.
    """
    out = []
    if isinstance(value, dict):
        for k, v in value.items():
            out.append(f"{prefix}.{k}" if prefix else str(k))
            out.extend(key_paths(v, out[-1]))
    elif isinstance(value, list):
        seen = []
        for element in value:
            shape = key_paths(element, prefix + "[]")
            if shape and shape not in seen:
                seen.append(shape)
        for shape in seen:
            out.extend(shape)
    return out


def current_schema(runs=None):
    runs = runs or {
        p.name: run_problem(p, seed=0, mitigate=True)
        for p in list_problems()
    }
    return {
        name: key_paths(bundle_from_result(runs[name]))
        for name in sorted(runs)
    }


def test_key_paths_keep_order_and_distinct_list_shapes():
    value = {"b": 1, "a": [{"x": 1}, {"y": {"z": 2}}, {"x": 3}], "c": [1, 2]}
    assert key_paths(value) == [
        "b", "a", "a[].x", "a[].y", "a[].y.z", "c",
    ]


def test_every_bundle_keeps_the_recorded_key_paths(mitigated_runs):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    schema = current_schema(mitigated_runs)
    assert sorted(schema) == sorted(golden)
    for name in golden:
        assert schema[name] == golden[name], name


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_schema_pin.py --write")
    with open(GOLDEN, "w") as fh:
        json.dump(current_schema(), fh, indent=1)
        fh.write("\n")
    print(f"wrote {GOLDEN}")
