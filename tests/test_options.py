"""Every library option has a caller that sets it.

A defaulted parameter or a config field is an option: each one doubles
the configurations the tests must cover.  One that no code outside
``tests/`` sets to another value is a constant in disguise, so it
belongs in the code as a named constant instead.  This test keeps it
that way for the whole package.  It reads the options from the syntax
tree of ``src/repro``:

- every defaulted parameter of a public ``def``: a module-level
  function, a method of a public class, or the ``__init__`` a public
  class runs (its own or an inherited one);
- every field of the config dataclasses in ``CONFIGS``.  Other
  dataclasses are records whose fields the code fills in, so their
  fields are not options.

Each option must be set somewhere in ``src/``, ``benchmarks/`` or
``examples/``: as a keyword ``name=value`` on any call, as a positional
argument of a call to its own function or class (``cls(...)`` inside
the class counts), as a ``"name": value`` dict key (which catches
``**kwargs`` dicts) or as a ``("name", value)`` pair (which catches
grids splatted as ``**{knob: value}``).  A value that only passes an
option through (``name`` where that is the enclosing function's own
option, ``self.name``, ``config.name``) or spells its default literally
does not count; ``args.name``, a command-line flag, does.  A keyword of the same name on another call still counts;
``python tests/test_options.py`` prints the file and line of each
option's setters for review.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
SEARCHED = ("src", "benchmarks", "examples")

# The dataclasses whose fields configure a run; every other dataclass
# is a record whose fields the code fills in.
CONFIGS = {
    "cache.budget.CacheConfig",
    "serving.server.ServingConfig",
    "serving.slo.SLOConfig",
    "serving.fleet.FleetConfig",
    "serving.autoscaler.AutoscalerConfig",
    "resilience.recovery.RecoveryPolicy",
    "serving.workload.WorkloadConfig",
    "cluster.network.NetworkProfile",
    "comm.scheduler.CommOptions",
    "ops.detectors.DetectionPipeline",
    "ops.problem.OpsProblem",
}

# Options kept although they may lack a setter of their own; a class's
# name exempts all of its fields.
EXEMPT = {
    # Every ops bundle records the detector thresholds and the problem
    # spec it ran, and tests/ops/test_schema_pin.py fixes that layout.
    "DetectionPipeline": "recorded in every ops bundle",
    "OpsProblem": "recorded in every ops bundle",
    # A safety bound on recoveries per run; the CLI reads it.
    "RecoveryPolicy.max_recoveries": "a safety bound the CLI reports",
    # The console-script entry point (pyproject's [project.scripts])
    # calls main() with no arguments.
    "main.argv": "the console script passes no argv",
    # benchmarks/e2e/ is frozen until ROADMAP item 1(c) re-pins it, and
    # it passes optimizer="adam", the only optimiser there is.
    "DistributedTrainer.optimizer": "benchmarks/e2e passes it",
}


def _modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        yield ".".join(parts), path


def _public(name: str) -> bool:
    return not name.startswith("_") or name == "__init__"


def _is_static(node: ast.FunctionDef) -> bool:
    return any(
        isinstance(deco, ast.Name) and deco.id == "staticmethod"
        for deco in node.decorator_list
    )


class Option:
    """One option: its name, the callee a positional setter calls, its
    position there, and its default's syntax tree (None if required)."""

    def __init__(self, qualname, name, callee, index, default):
        self.qualname = qualname
        self.name = name
        self.callee = callee
        self.index = index
        self.default = default


def _parameters(qualname, callee, func, method):
    """The defaulted parameters of ``func`` (``self`` / ``cls`` of a
    method skipped)."""
    args = func.args
    positional = args.posonlyargs + args.args
    if method and not _is_static(func):
        positional = positional[1:]
    defaults = [None] * (len(positional) - len(args.defaults)) + list(
        args.defaults
    )
    for index, (arg, default) in enumerate(zip(positional, defaults)):
        if default is not None:
            yield Option(
                f"{qualname}.{arg.arg}", arg.arg, callee, index, default
            )
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield Option(f"{qualname}.{arg.arg}", arg.arg, None, None, default)


def _fields(name, node):
    """Every field of a config dataclass, required ones included."""
    index = 0
    for item in node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(
            item.target, ast.Name
        ):
            field = item.target.id
            yield Option(f"{name}.{field}", field, name, index, item.value)
            index += 1


def _init(module, node, classes):
    """The ``__init__`` a class runs: its own or the nearest package
    base class's (a base resolves in its own module first)."""
    while node is not None:
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                return item
        base = next(
            (b.id for b in node.bases if isinstance(b, ast.Name)), None
        )
        candidates = classes.get(base, {})
        if module not in candidates and len(candidates) == 1:
            module = next(iter(candidates))
        node = candidates.get(module)
    return None


def discover(trees):
    """``{name: Option}`` of the ``(module, tree)`` pairs, named
    ``Class.field``, ``Class.param`` (of its ``__init__``, inherited
    ones included), ``Class.method.param`` or ``function.param``."""
    trees = list(trees)
    classes = {}  # {name: {module: node}}
    for module, tree in trees:
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, {})[module] = node
    found = []
    for module, tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _public(node.name):
                    found += _parameters(node.name, node.name, node, False)
            elif isinstance(node, ast.ClassDef) and _public(node.name):
                name = node.name
                if f"{module}.{name}" in CONFIGS:
                    found += _fields(name, node)
                    continue
                init = _init(module, node, classes)
                if init is not None:
                    found += _parameters(name, name, init, True)
                for item in node.body:
                    if (
                        isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and _public(item.name)
                        and item.name != "__init__"
                    ):
                        found += _parameters(
                            f"{name}.{item.name}", item.name, item, True
                        )
    options = {option.qualname: option for option in found}
    assert len(options) == len(found), "two options share a name"
    return options


def _exemption(name: str):
    """The reason ``name`` is exempt, or None."""
    while name:
        if name in EXEMPT:
            return EXEMPT[name]
        name = name.rpartition(".")[0]
    return None


OPTIONS = discover(
    (module, ast.parse(path.read_text())) for module, path in _modules()
)
NAMES = sorted(OPTIONS)
CHECKED = [name for name in NAMES if _exemption(name) is None]


def _literal(node):
    if node is None:
        return None, False
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return None, False
    return value, True


def _no_effect(setting, option) -> bool:
    """A value that passes ``option`` through or spells its default."""
    value = setting.value
    if isinstance(value, ast.Name) and value.id == option.name:
        return value.id in setting.parameters
    if isinstance(value, ast.Attribute) and value.attr == option.name:
        return not (
            isinstance(value.value, ast.Name) and value.value.id == "args"
        )
    given, ok = _literal(value)
    default, has_default = _literal(option.default)
    return ok and has_default and type(given) is type(default) and (
        given == default
    )


class Setting:
    """One place that may set an option: the option's name, the
    callee (for positional arguments), the value's syntax tree and the
    parameter names of the function it sits in."""

    def __init__(self, name, callee, index, value, where, parameters):
        self.name = name
        self.callee = callee
        self.index = index
        self.value = value
        self.where = where
        self.parameters = parameters


def _callee(func, classes):
    if isinstance(func, ast.Name):
        if func.id == "cls" and classes:
            return classes[-1]
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _options_of(func) -> frozenset:
    """The names of ``func``'s defaulted parameters."""
    args = func.args
    positional = args.posonlyargs + args.args
    return frozenset(
        [a.arg for a in positional[len(positional) - len(args.defaults):]]
        + [
            a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None
        ]
    )


def settings(tree, where):
    """Every keyword, positional argument, ``"name": value`` key and
    ``("name", value)`` pair in ``tree``, as :class:`Setting` rows."""
    found = []

    def visit(node, classes, parameters):
        if isinstance(node, ast.ClassDef):
            classes = classes + [node.name]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            parameters = _options_of(node)

        def add(name, callee, index, value):
            found.append(Setting(
                name, callee, index, value, f"{where}:{node.lineno}",
                parameters,
            ))

        if isinstance(node, ast.Call):
            for keyword in node.keywords:
                if keyword.arg is not None:
                    add(keyword.arg, None, None, keyword.value)
            callee = _callee(node.func, classes)
            for index, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    break
                add(None, callee, index, arg)
        elif isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if isinstance(key, ast.Constant) and isinstance(
                    key.value, str
                ):
                    add(key.value, None, None, value)
        elif (
            isinstance(node, ast.Tuple)
            and len(node.elts) == 2
            and isinstance(node.elts[0], ast.Constant)
            and isinstance(node.elts[0].value, str)
        ):
            add(node.elts[0].value, None, None, node.elts[1])
        for child in ast.iter_child_nodes(node):
            visit(child, classes, parameters)

    visit(tree, [], frozenset())
    return found


def index(rows):
    """``(by_name, by_callee)``: :class:`Setting` rows keyed by the
    option name they set, or by ``(callee, position)``."""
    by_name, by_callee = {}, {}
    for setting in rows:
        if setting.name is not None:
            by_name.setdefault(setting.name, []).append(setting)
        else:
            by_callee.setdefault(
                (setting.callee, setting.index), []
            ).append(setting)
    return by_name, by_callee


def _source_settings():
    return index(
        setting
        for top in SEARCHED
        for path in sorted((ROOT / top).rglob("*.py"))
        for setting in settings(
            ast.parse(path.read_text()), path.relative_to(ROOT)
        )
    )


@pytest.fixture(scope="module")
def source_settings():
    return _source_settings()


def setters(option: Option, indexed) -> list:
    """``file:line`` of every place that sets ``option`` to a value."""
    by_name, by_callee = indexed
    candidates = list(by_name.get(option.name, ()))
    if option.callee is not None:
        candidates += by_callee.get((option.callee, option.index), ())
    return [
        setting.where for setting in candidates
        if not _no_effect(setting, option)
    ]


# Each line marked "# set" is one the search must count as setting
# knob's ``size``; no other line may count.
FIXTURE = """
def knob(rows, size=4):
    return rows


class Box:
    def __init__(self, size=4):
        self.size = size

    def grow(self):
        return knob([], size=self.size)


def callers(size=4):
    knob([], size=8)  # set
    knob([], 16)  # set
    knob(rows=[], **{"size": 32})  # set
    grid = [("size", 64)]  # set
    knob([], size=4)
    knob([], 4)
    knob([], size=size)
    return grid
"""


def test_fence_counts_every_setter_form_and_no_other():
    tree = ast.parse(FIXTURE)
    option = discover([("fixture", tree)])["knob.size"]
    found = setters(option, index(settings(tree, "fixture")))
    expected = {
        f"fixture:{number}"
        for number, line in enumerate(FIXTURE.splitlines(), 1)
        if line.endswith("# set")
    }
    assert len(expected) == 4
    assert sorted(found) == sorted(expected)


def test_exemptions_name_real_options():
    for exempt in EXEMPT:
        assert any(
            name == exempt or name.startswith(exempt + ".") for name in NAMES
        ), exempt


@pytest.mark.parametrize("name", CHECKED)
def test_option_has_a_setter(name, source_settings):
    assert setters(OPTIONS[name], source_settings), (
        f"{name} is never set outside tests/: make it a named constant"
    )


if __name__ == "__main__":
    INDEXED = _source_settings()
    for NAME in NAMES:
        SETTERS = setters(OPTIONS[NAME], INDEXED)
        REASON = _exemption(NAME)
        NOTE = f" (exempt: {REASON})" if REASON else ""
        print(f"{NAME}{NOTE}: {', '.join(map(str, SETTERS[:3])) or '-'}")
