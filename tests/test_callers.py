"""Every library definition has a caller outside ``tests/``.

A function, class or method that only tests reach is code the system
does not run: it has to be read, kept working and covered, and it
describes behaviour no command, benchmark or example has.  This test
keeps it out: every module-level function or class and every method
under ``src/repro`` must be named somewhere in ``src/``,
``benchmarks/`` or ``examples/`` -- as a name or an attribute, outside
its own ``def`` or ``class`` body.  ``__all__`` lists, imports (so
package re-exports) and other strings do not count, and neither do
dunder methods, which Python calls itself.  The search reads names
from the syntax tree, so an attribute of the same name on another
object still counts; ``python tests/test_callers.py`` prints the file
and line of each definition's callers for review.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
SEARCHED = ("src", "benchmarks", "examples")
TRACED = ROOT / "benchmarks" / "e2e" / "layers.py"


def _traced_targets():
    """``benchmarks/e2e/layers.py``'s ``Target("module:attr")`` paths,
    as qualified names below ``repro``."""
    tree = ast.parse(TRACED.read_text())
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
        return text(node.left) + text(node.right)

    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "Target"
        ):
            module, _, attr = text(node.args[0]).partition(":")
            yield f"{module.removeprefix('repro.')}.{attr}"


# Definitions kept although nothing outside tests/ names them; a
# package's name exempts everything in it.
EXEMPT = {
    # benchmarks/e2e/ is frozen, and its traced pass fails on a target
    # that does not resolve (limited_bfs_in, neighbors_of_set,
    # choose_batch and the core.ops chain have no other caller).
    **{name: "a benchmarks/e2e tracer target" for name in _traced_targets()},
    # The docs/api.md check in tests/test_cli_golden.py reads it.
    "cli.main.command_examples": "docs/api.md lists its output",
}


def _modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        yield ".".join(parts), path


def _span(node):
    start = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return start, node.end_lineno


def _definitions():
    """``{qualified name: (path, (first, last line))}`` of every
    module-level function or class and every non-dunder method."""
    found = {}
    for module, path in _modules():
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            found[f"{module}.{node.name}"] = (path, _span(node))
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    found[f"{module}.{node.name}.{item.name}"] = (
                        path, _span(item),
                    )
    return found


def _named_by_getattr(node) -> bool:
    """A ``getattr(obj, "name", ...)`` call, which reads ``name``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "getattr"
        and len(node.args) >= 2
        and isinstance(node.args[1], ast.Constant)
        and isinstance(node.args[1].value, str)
    )


def _references():
    """``{name: [(path, line), ...]}`` of every name, attribute and
    ``getattr`` string in the searched trees."""
    refs = {}
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif _named_by_getattr(node):
                    name = node.args[1].value
                else:
                    continue
                refs.setdefault(name, []).append((path, node.lineno))
    return refs


def _exemption(name: str):
    """The reason ``name`` is exempt, or None."""
    while name:
        if name in EXEMPT:
            return EXEMPT[name]
        name = name.rpartition(".")[0]
    return None


DEFINITIONS = _definitions()
NAMES = sorted(DEFINITIONS)
CHECKED = [name for name in NAMES if _exemption(name) is None]


@pytest.fixture(scope="module")
def references():
    return _references()


def _callers(name: str, refs) -> list:
    """``file:line`` of every place outside its own body that names it."""
    path, (first, last) = DEFINITIONS[name]
    return [
        f"{where.relative_to(ROOT)}:{line}"
        for where, line in refs.get(name.rsplit(".", 1)[1], ())
        if not (where == path and first <= line <= last)
    ]


def test_exemptions_name_real_definitions():
    modules = {module for module, _ in _modules()}
    assert set(EXEMPT) <= set(NAMES) | modules


@pytest.mark.parametrize("name", CHECKED)
def test_definition_has_a_caller(name, references):
    assert _callers(name, references), (
        f"{name} is named only in tests/: delete it with its tests"
    )


if __name__ == "__main__":
    REFS = _references()
    for NAME in NAMES:
        CALLERS = _callers(NAME, REFS)
        REASON = _exemption(NAME)
        NOTE = f" (exempt: {REASON})" if REASON else ""
        print(f"{NAME}{NOTE}: {', '.join(CALLERS[:3]) or '-'}")
