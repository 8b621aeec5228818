"""Every traced entry point the repo benchmark names still exists.

``benchmarks/e2e/layers.py:TARGETS`` lists, as ``"module:attr"``
strings, the functions and methods the benchmark's traced pass wraps; a
target that no longer resolves fails that pass.  The benchmark only
runs in the CI ``e2e`` job, so a rename under ``src/`` would get past
tier-1: this test reads the file (it is not importable from here -- it
imports its sibling ``tracer`` by bare name) and resolves every string
the way the tracer does.
"""

import ast
import importlib
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e" / "layers.py"


def _target_paths():
    tree = ast.parse(LAYERS.read_text())
    prefixes = {
        node.targets[0].id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    }

    def text(node):
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            return prefixes[node.id]
        assert isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
        return text(node.left) + text(node.right)

    return [
        text(node.args[0])
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "Target"
    ]


PATHS = _target_paths()


def test_the_target_list_was_found():
    assert len(PATHS) >= 40
    assert len(set(PATHS)) == len(PATHS)


@pytest.mark.parametrize("path", PATHS)
def test_trace_target_resolves(path):
    module_name, _, qualname = path.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attr = qualname.split(".")
    for name in classes:
        owner = getattr(owner, name)
    # The tracer patches the attribute where it is defined, so an
    # inherited method must be named on the class that defines it.
    assert attr in vars(owner), f"{path}: not defined on {owner!r}"
    assert callable(getattr(owner, attr))


def test_server_keeps_the_khop_closure_binding_the_tracer_test_patches():
    """``benchmarks/e2e/test_tracer.py`` checks that a ``from`` import
    binding is patched too, on ``repro.serving.server.khop_closure``."""
    from repro.graph import khop
    from repro.serving import server

    assert server.khop_closure is khop.khop_closure
