"""The package keeps only what its callers run.

Every public module-level function and public method in ``src/cstardyn``
must be referenced outside its own definition in ``src/``, ``scripts/`` or
``perfbench/``, or be on ``ALLOWED``: the paper-facing operations and views
that only the tests call.  References are resolved by module: a function
counts as read where its module's name, or the name it was imported as, is
read, and a method where an attribute of its name is read on anything but
an outside module (numpy, say) or a name annotated with one of its types.
A read of ``self.<name>`` inside a class body of the package counts only for
that class's own member.  An import does not count as a reference, so a
re-export from ``__init__`` keeps nothing alive.

An attribute read on a value of unknown type still counts for every public
method of that name: ``system.action.apply`` in ``multiplier`` reads
``GroupAction.apply`` and also keeps ``hilbmod.Sectionalization.apply``,
which only the tests call, and ``list.index`` would keep alive any public
method called ``index``.
"""

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cstardyn"
CALLERS = ("src", "scripts", "perfbench")

ALLOWED = {
    # ROADMAP item 10: `cstardyn decompose` prints the equivariant map sigma
    "cocycle.equivariant_maps",
    # ROADMAP item 10 (the Banach-Stone form) and ACCEPTANCE 6
    "cocycle.banach_stone_extract",
    # ROADMAP item 10: the cyclic-vector column of `decompose`
    "equivrep.is_cyclic",
    # ROADMAP item 10 and ACCEPTANCE 9: the center of the crossed product
    "crossed.center_dimension",
    # ACCEPTANCE 9: commutative systems give commutative crossed products
    "crossed.is_commutative",
    # ROADMAP item 9 (its residual bound is on the mutant list): Lambda's inverse
    "crossed.fourier_coefficients",
    # ROADMAP item 6: the norm interval of the `pd` report
    "multiplier.norm_bounds",
    # ROADMAP item 6 and ACCEPTANCE 7: truncation of a regular coefficient
    "multiplier.truncate_realization",
    # ROADMAP item 6 and ACCEPTANCE 7: the regular witness realization
    "multiplier.realize_via_regular",
    # ROADMAP item 9 (test_tolerance pins its bounds): modules presented abstractly
    "hilbmod.sectionalize",
    # the module's C^n-valued inner product, whose laws test_hilbmod pins
    "hilbmod.inner_product",
    # a section's vector per fiber, the paper's form of it, which the
    # section-store tests of test_fibers read
    "hilbmod.ModuleVector.components",
}


def public_definitions() -> dict:
    """``module.name`` (``module.Class.name`` for a method) of every public
    function and method, mapped to (file, first line, last line)."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                members = [(f"{module}.{node.name}", node)]
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                methods = (sub for sub in node.body if isinstance(sub, ast.FunctionDef))
                members = [(f"{module}.{node.name}.{sub.name}", sub) for sub in methods]
            else:
                continue
            for name, item in members:
                if not item.name.startswith("_"):
                    out[name] = (path, item.lineno, item.end_lineno)
    return out


def _bindings(tree: ast.AST, own: str | None):
    """What the names of one file stand for: ``modules`` maps a name to the
    package module it is bound to (None for an outside module), ``defs`` a
    name to the ``module.name`` of the package definition it was imported
    as or, in the package module ``own``, defined as at top level, and
    ``outside`` holds the parameters annotated with an outside module's
    type."""
    modules, defs, outside = {}, {}, set()
    if own is not None:
        defs.update({node.name: f"{own}.{node.name}" for node in tree.body if isinstance(node, ast.FunctionDef)})
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                modules[alias.asname or top] = "" if top == "cstardyn" and alias.asname is None else None
        elif isinstance(node, ast.ImportFrom):
            package = node.level > 0 or (node.module or "").split(".")[0] == "cstardyn"
            source = (node.module or "").removeprefix("cstardyn").strip(".")
            for alias in node.names:
                name = alias.asname or alias.name
                if not package:
                    modules[name] = None
                elif source:
                    defs[name] = f"{source}.{alias.name}"
                else:
                    modules[name] = alias.name
        elif isinstance(node, ast.arg) and node.annotation is not None:
            root = node.annotation
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and modules.get(root.id, "") is None:
                outside.add(node.arg)
    return modules, defs, outside


def references() -> dict:
    """Every reference in the caller trees, resolved by module, mapped to
    the (file, line) of each occurrence: ``module.name`` for a package
    function read by its imported or defining name or through its module,
    and ``.name`` for an attribute read on anything else, which may be a
    method; attributes of outside modules and of names annotated with their
    types are left out."""
    out = {}
    for tree in CALLERS:
        for path in sorted((ROOT / tree).rglob("*.py")):
            own = path.stem if path.parent == PACKAGE else None
            for ref, line in file_references(ast.parse(path.read_text()), own):
                out.setdefault(ref, []).append((path, line))
    return out


def file_references(parsed: ast.AST, own: str | None) -> list:
    """The resolved references of one parsed file, as (reference, line).  A
    ``self.<name>`` read in a class body of the package module ``own`` is
    ``own.Class.name``; elsewhere it names no package member."""
    modules, defs, outside = _bindings(parsed, own)
    owner = {}  # id of a self.<name> read -> its innermost enclosing class
    for cls in (node for node in ast.walk(parsed) if isinstance(node, ast.ClassDef)):
        for node in ast.walk(cls):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "self":
                owner[id(node)] = cls.name
    out = []
    for node in ast.walk(parsed):
        if isinstance(node, ast.Name) and node.id in defs:
            ref = defs[node.id]
        elif id(node) in owner:
            if own is None:
                continue
            ref = f"{own}.{owner[id(node)]}.{node.attr}"
        elif isinstance(node, ast.Attribute):
            base = node.value.id if isinstance(node.value, ast.Name) else None
            if base in outside or (base in modules and modules[base] is None):
                continue
            ref = f"{modules[base]}.{node.attr}" if modules.get(base) else f".{node.attr}"
        else:
            continue
        out.append((ref, node.lineno))
    return out


def unreferenced() -> set:
    refs = references()
    lonely = set()
    for name, (path, first, last) in public_definitions().items():
        module, *owner, attr = name.split(".")
        uses = refs.get(name, []) + (refs.get(f".{attr}", []) if owner else [])
        if all(p == path and first <= line <= last for p, line in uses):
            lonely.add(name)
    return lonely


def test_every_public_definition_has_a_caller():
    assert sorted(unreferenced() - ALLOWED) == []


def test_references_resolve_by_module():
    """A numpy function or an ndarray attribute spelled like a package name
    is no reference to it; the package name read through its module, under
    the name it was imported as, or as an attribute of a package object is,
    and ``self.<name>`` reads only its own class's member."""
    source = """
import numpy as np
from cstardyn import multiplier as mm
from cstardyn.hilbmod import module_norm as norm

def f(res: np.ndarray, v):
    np.multiply(res, res)
    res.flat
    return mm.multiply, norm(v), v.components
"""
    refs = {ref for ref, _ in file_references(ast.parse(source), None)}
    assert refs == {"multiplier.multiply", "hilbmod.module_norm", ".components"}

    # self.rep in a class body of a package module reads that class's own
    # member, not a method of that name on another class; outside the
    # package it names no package member
    source = """
class CyclicVector:
    def check(self, other):
        return self.rep, other.basis
"""
    refs = {ref for ref, _ in file_references(ast.parse(source), "equivrep")}
    assert refs == {"equivrep.CyclicVector.rep", ".basis"}
    assert {ref for ref, _ in file_references(ast.parse(source), None)} == {".basis"}


def test_allowlist_is_current():
    """Each allowed name still exists and still has no caller; one that
    gains a caller leaves the list."""
    assert sorted(ALLOWED - set(public_definitions())) == []
    assert sorted(ALLOWED - unreferenced()) == []


def test_imports_are_stdlib_numpy_or_the_package():
    """The package depends on numpy alone: every import in ``src/cstardyn``
    names the standard library, numpy or the package itself, so that a
    module installed here but not in a clean environment (scipy, say) cannot
    slip in."""
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top not in ("numpy", "cstardyn"):
                    foreign.append(f"{path.name}:{node.lineno}: {name}")
    assert foreign == []


def test_every_import_is_read():
    """No module imports a name it never reads: every name bound by an
    import in ``src/`` (re-exports in ``__init__`` aside), ``scripts/`` or
    ``tests/`` appears as a name somewhere in the same file."""
    unread = []
    for tree in ("src", "scripts", "tests"):
        for path in sorted((ROOT / tree).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            parsed = ast.parse(path.read_text())
            read = {node.id for node in ast.walk(parsed) if isinstance(node, ast.Name)}
            for node in ast.walk(parsed):
                if isinstance(node, ast.Import):
                    bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    bound = [alias.asname or alias.name for alias in node.names]
                else:
                    continue
                unread += [f"{path.relative_to(ROOT)}:{node.lineno}: {name}" for name in bound if name not in read]
    assert unread == []
