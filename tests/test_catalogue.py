"""Every function, public method, module-level constant and dataclass
field of the package is reached from the package itself or from the
benchmark harness, so a theorem check that only its own test calls cannot
hide from ``quadgeo verify``, no private helper or constant outlives its
last reader, and no result carries a field that only tests read.

The scan is by name: a definition counts as reached when its name appears
as an ``ast.Name`` or ``ast.Attribute`` anywhere in ``src/quadgeo`` outside
its own body, or anywhere in ``perfbench/``.  Click commands are reached
through the command-line group.  A field of a module-level ``@dataclass``
counts as reached when its name is read as an ``ast.Attribute`` anywhere in
``src/quadgeo`` or ``perfbench/``; a keyword argument at construction is not
a read.

No module of the package or of the tests imports a name it never uses;
no linter is installed, so the same ``ast`` scan checks that too.

Every float decision goes through ``kernel.vanishes``: outside
``kernel.py`` no module holds a ``1e-`` literal or a ``*_TOL`` name, or uses
``DEFAULT_EPS`` other than to import it or as the bound of a ``<``/``<=``
on a returned r/m, save the sites of ``TOLERANCE_SITES``.

How an exact point is stored is the kernel's decision alone: outside
``kernel.py`` no module names ``_TriplePoint`` or reads an attribute ``_t``;
``kernel._hom`` gives any point's triple, and outside ``kernel.py`` no
module applies ``float()`` to an ``.x`` or ``.y`` attribute:
``kernel.float_xy`` reads a point's floats, from the triple of an exact
one.

A module of the package imports private (``_``-prefixed) names from
``kernel`` only: a helper that two modules share is public, or a kernel
primitive."""

import ast
import io
import pathlib
import tokenize
from collections import Counter

ROOT = pathlib.Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "quadgeo"

#: unreached on purpose, with the reason
ALLOWED = {}


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


def _is_dataclass(cls):
    """Decorated ``@dataclass`` or ``@dataclass(...)``."""
    for d in cls.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _fields(tree):
    """(qualified name, name) of the fields of module-level dataclasses."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for f in node.body:
                if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name):
                    yield f"{node.name}.{f.target.id}", f.target.id


def _attributes(tree):
    return {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def unreached():
    trees = {
        p.stem: ast.parse(p.read_text(encoding="utf-8"))
        for p in sorted(PACKAGE.glob("*.py"))
    }
    bench_trees = [
        ast.parse(p.read_text(encoding="utf-8"))
        for p in sorted((ROOT / "perfbench").rglob("*.py"))
    ]
    package = sum((_names(t) for t in trees.values()), Counter())
    bench = set().union(*map(_names, bench_trees))
    read = set().union(*map(_attributes, [*trees.values(), *bench_trees]))
    out = []
    for module, tree in trees.items():
        for qualname, name, node in _definitions(tree):
            if name in bench or (
                isinstance(node, ast.FunctionDef) and _is_click_command(node)
            ):
                continue
            if package[name] == _names(node)[name]:   # named only inside itself
                out.append(f"{module}.{qualname}")
        out += [f"{module}.{q}" for q, name in _fields(tree) if name not in read]
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


#: (module, token) -> (count, reason): the tolerance-like tokens allowed
#: outside kernel.py, whose own 1e-15 in ``_normalize_abc`` picks a sign, not
#: a residual bound
TOLERANCE_SITES = {
    ("cli_figures.py", "1e-12"): (
        1, "the star-of-David side spread: a tighter check on the closed "
        "form's r/m, as no false miss shows at DEFAULT_EPS"),
    ("morley.py", "DEFAULT_EPS"): (
        1, "_SIN_FLOOR, DEFAULT_EPS^(2/3): the floor of the sine in the "
        "lighthouse n-gons' conditioning, a factor of a magnitude"),
}


def tolerance_tokens(path):
    """The ``1e-`` literals, ``*_TOL`` names and uses of ``DEFAULT_EPS``
    (outside imports and the right side of ``<`` or ``<=``) of a module, as
    a Counter of their text."""
    toks = list(tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline))
    found = Counter()
    in_import = False
    prev = start = None   # the last significant token, and its type
    for tok in toks:
        if tok.type == tokenize.NEWLINE:
            in_import = False
        elif tok.string in ("import", "from") and start in (
            None, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT
        ):
            in_import = True
        if tok.type == tokenize.NUMBER and tok.string.lower().startswith("1e-"):
            found[tok.string] += 1
        elif tok.type == tokenize.NAME and tok.string.endswith("_TOL"):
            found[tok.string] += 1
        elif tok.string == "DEFAULT_EPS" and not in_import and prev not in ("<", "<="):
            found["DEFAULT_EPS"] += 1
        if tok.type not in (tokenize.NL, tokenize.COMMENT):
            prev, start = tok.string, tok.type
    return found


def test_float_decisions_go_through_vanishes():
    found = {
        (path.name, text): count
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "kernel.py"
        for text, count in tolerance_tokens(path).items()
    }
    assert found == {site: count for site, (count, _) in TOLERANCE_SITES.items()}


def test_no_float_rational_reconstruction():
    # a rational fact is computed exactly, not guessed from a float
    found = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if "limit_denominator" in {
            n.attr for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(n, ast.Attribute)
        }
    ]
    assert found == []


def storage_names(tree):
    """The ``_TriplePoint`` names (imported, read or as an attribute) and
    ``._t`` reads of a module, sorted."""
    found = []
    for n in ast.walk(tree):
        name = (
            n.id if isinstance(n, ast.Name)
            else n.name if isinstance(n, ast.alias)
            else n.attr if isinstance(n, ast.Attribute)
            else None
        )
        if name == "_TriplePoint" or (name == "_t" and isinstance(n, ast.Attribute)):
            found.append(name)
    return sorted(found)


def test_point_storage_stays_in_kernel():
    probe = "from .kernel import _TriplePoint\n_t = 0\nkernel._TriplePoint\np._t\n"
    assert storage_names(ast.parse(probe)) == ["_TriplePoint", "_TriplePoint", "_t"]
    found = {
        path.name: storage_names(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "kernel.py"
    }
    assert {name: hits for name, hits in found.items() if hits} == {}


def coordinate_floats(tree):
    """The line of each ``float()`` call on an ``.x`` or ``.y`` attribute."""
    return [
        n.lineno
        for n in ast.walk(tree)
        if isinstance(n, ast.Call)
        and isinstance(n.func, ast.Name) and n.func.id == "float"
        and len(n.args) == 1
        and isinstance(n.args[0], ast.Attribute) and n.args[0].attr in ("x", "y")
    ]


def test_point_floats_come_from_kernel():
    probe = "float(p.x) + float(c.center.y) + float(p.x - q.x) + float(r2) + float(p.z)\n"
    assert coordinate_floats(ast.parse(probe)) == [1, 1]
    found = {
        path.name: coordinate_floats(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "kernel.py"
    }
    assert {name: hits for name, hits in found.items() if hits} == {}


def private_imports(tree):
    """(module, name) of each private name imported from a module other than
    ``kernel``, sorted."""
    return sorted(
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module not in ("kernel", "__future__")
        for alias in node.names
        if alias.name.startswith("_")
    )


def test_private_names_come_from_kernel_only():
    probe = "from .kernel import _hom\nfrom .touch import _perspector, Line\n"
    assert private_imports(ast.parse(probe)) == [("touch", "_perspector")]
    found = {
        path.name: private_imports(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: hits for name, hits in found.items() if hits} == {}
