"""The package keeps only what its callers run.

Every public module-level function and public method in ``src/cstardyn``
must be referenced, by name or attribute, outside its own definition in
``src/``, ``scripts/`` or ``perfbench/``, or be on ``ALLOWED``: the
paper-facing operations and views that only the tests call.  An import does
not count as a reference, so a re-export from ``__init__`` keeps nothing
alive.
"""

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cstardyn"
CALLERS = ("src", "scripts", "perfbench")

ALLOWED = {
    # equivariant maps and the Banach-Stone factorization
    "cocycle.equivariant_maps",
    "cocycle.banach_stone_extract",
    # groups, modules and representations
    "core.direct_product",
    "generators.relabeled_system",
    "hilbmod.inner_product",
    "hilbmod.direct_sum",
    "hilbmod.sectionalize",
    "equivrep.is_cyclic",
    # the crossed product: integrated form, coefficients, structure, dense views
    "crossed.integrated_form",
    "crossed.fourier_coefficients",
    "crossed.center_dimension",
    "crossed.is_commutative",
    "crossed.ReducedCrossedProduct.mult_table",
    "crossed.ReducedCrossedProduct.adjoint_table",
    "crossed.ReducedCrossedProduct.gram_coords",
    # the cyclic examples' vectors and targets
    "cyclic_examples.sigma_example_vectors",
    "cyclic_examples.matrix_unit_target",
    # multipliers: algebra, norms, realizations and the criterion's pieces
    "multiplier.zero_multiplier",
    "multiplier.multiply",
    "multiplier.from_group_function",
    "multiplier.group_function_is_positive_definite",
    "multiplier.pd_criterion_matrix",
    "multiplier.evaluate_sample_witness",
    "multiplier.norm_bounds",
    "multiplier.truncate_realization",
    "multiplier.realize_via_regular",
    # reading a report
    "reporting.CheckReport.max_residual",
    "reporting.CheckReport.residual_of",
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


def references() -> dict:
    """Every name and attribute read in the caller trees, mapped to the
    (file, line) of each occurrence."""
    out = {}
    for tree in CALLERS:
        for path in sorted((ROOT / tree).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.Name, ast.Attribute)):
                    name = node.id if isinstance(node, ast.Name) else node.attr
                    out.setdefault(name, []).append((path, node.lineno))
    return out


def unreferenced() -> set:
    refs = references()
    lonely = set()
    for name, (path, first, last) in public_definitions().items():
        uses = refs.get(name.rsplit(".", 1)[-1], [])
        if all(p == path and first <= line <= last for p, line in uses):
            lonely.add(name)
    return lonely


def test_every_public_definition_has_a_caller():
    assert sorted(unreferenced() - ALLOWED) == []


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
