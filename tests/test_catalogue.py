"""Every function, public method and module-level constant of the package
is reached from the package itself or from the benchmark harness, so a
theorem check that only its own test calls cannot hide from ``quadgeo
verify``, and no private helper or constant outlives its last reader.

The scan is by name: a definition counts as reached when its name appears
as an ``ast.Name`` or ``ast.Attribute`` anywhere in ``src/quadgeo`` outside
its own body, or anywhere in ``perfbench/``.  Click commands are reached
through the command-line group.

No module of the package or of the tests imports a name it never uses;
no linter is installed, so the same ``ast`` scan checks that too."""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "quadgeo"

#: unreached on purpose, with the reason
ALLOWED = {
    "malfatti.orbit": "reference closure that the tests compare solution_states with",
    "touch.FeuerbachReport.tangent_count": "acceptance criterion AC1 counts tangencies with it",
}


def _names(node):
    """Every ``ast.Name`` id and ``ast.Attribute`` attr under ``node``."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _is_click_command(fn):
    return any(
        isinstance(d, ast.Call)
        and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in fn.decorator_list
    )


def _definitions(tree):
    """(qualified name, name, node) of module-level functions, public
    methods of module-level classes and module-level constants (dunders
    aside)."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, node
        elif isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                    yield f"{node.name}.{m.name}", m.name, m
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and not t.id.startswith("__"):
                    yield t.id, t.id, node


def unreached():
    trees = {
        p.stem: ast.parse(p.read_text(encoding="utf-8"))
        for p in sorted(PACKAGE.glob("*.py"))
    }
    package = sum((_names(t) for t in trees.values()), Counter())
    bench = set()
    for p in sorted((ROOT / "perfbench").rglob("*.py")):
        bench |= set(_names(ast.parse(p.read_text(encoding="utf-8"))))
    out = []
    for module, tree in trees.items():
        for qualname, name, node in _definitions(tree):
            if name in bench or (
                isinstance(node, ast.FunctionDef) and _is_click_command(node)
            ):
                continue
            if package[name] == _names(node)[name]:   # named only inside itself
                out.append(f"{module}.{qualname}")
    return sorted(out)


def test_every_public_definition_is_reached():
    assert unreached() == sorted(ALLOWED)


def unused_imports(path):
    """Names that ``path`` imports (``__future__`` aside) but never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    return sorted(imported - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)})


def test_no_unused_imports():
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    found = {p.relative_to(ROOT).as_posix(): unused_imports(p) for p in paths}
    assert {p: names for p, names in found.items() if names} == {}
