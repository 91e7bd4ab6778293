"""Run the standing mutant list: each mutant must be killed by its tests.

Each row of ``MUTANTS`` names a source file under ``src/cstardyn``, an exact
fragment of it, the fragment's replacement and the test files that must
catch the change.  The script copies ``src``, ``tests`` and
``pyproject.toml`` into a temporary directory once, checks that the named
tests pass there unmutated, and then applies one mutant at a time, running
its tests with ``pytest -x`` as tier-1 runs them, so that an error while
collecting a test module counts as a failure.  It fails when a fragment is
not found exactly once (a refactor must port its mutants), when a mutated
file does not compile, and when a mutant's tests still pass.

    python3 scripts/run_mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TOLERANCE = ["tests/test_tolerance.py"]
FIBERS = ["tests/test_fibers.py"]

# (name, file, fragment, replacement, test files)
MUTANTS = [
    (
        "cocycle_equivalent trace bound x10",
        "cocycle.py",
        "<= bound * d:",
        "<= 10 * bound * d:",
        TOLERANCE,
    ),
    (
        "cocycle_equivalent residual bound x10",
        "cocycle.py",
        "if not fibers.intertwining_residual(w, u1, u2, action.src).max(initial=0.0) <= bound:",
        "if not fibers.intertwining_residual(w, u1, u2, action.src).max(initial=0.0) <= 10 * bound:",
        TOLERANCE,
    ),
    (
        "gns_from_pd slack x10",
        "equivrep.py",
        "if gap > order * n * DEFAULT_TOL * scale(multiplier.stack):",
        "if gap > 10 * order * n * DEFAULT_TOL * scale(multiplier.stack):",
        TOLERANCE,
    ),
    (
        "unitarily_equivalent bound x10",
        "equivrep.py",
        "bound = DEFAULT_TOL * scale(r1.rho_stack, r1.v_stack, r2.rho_stack, r2.v_stack)",
        "bound = 10 * DEFAULT_TOL * scale(r1.rho_stack, r1.v_stack, r2.rho_stack, r2.v_stack)",
        TOLERANCE,
    ),
    (
        "_check_projection_rep bound x10",
        "hilbmod.py",
        "bound = DEFAULT_TOL * scale(blocks)",
        "bound = 10 * DEFAULT_TOL * scale(blocks)",
        TOLERANCE,
    ),
    (
        "example deviation bound x10",
        "cli.py",
        "bound = args.tol * scale(*(t.stack for t in family))",
        "bound = 10 * args.tol * scale(*(t.stack for t in family))",
        TOLERANCE,
    ),
    (
        "block_rows padding index off by one",
        "fibers.py",
        "+ i, dims.max(initial=0))",
        "+ i, dims.max(initial=0) - 1)",
        FIBERS,
    ),
    (
        "stack without its padding check",
        "fibers.py",
        "        if (mats[~inside] != 0).any():\n"
        '            raise ValueError("padded stack has nonzero entries outside the fiber matrices")\n',
        "",
        FIBERS,
    ),
]


def pytest(where: Path, tests: list[str]) -> int:
    env = dict(os.environ, PYTHONPATH=str(where / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
    command += tests
    return subprocess.run(command, cwd=where, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def compiles(source: str, path: Path) -> bool:
    try:
        compile(source, str(path), "exec")
    except SyntaxError:
        return False
    return True


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        where = Path(tmp)
        shutil.copytree(ROOT / "src", where / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", where / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", where)
        all_tests = sorted({t for *_, tests in MUTANTS for t in tests})
        if pytest(where, all_tests) != 0:
            print(f"the named tests fail unmutated: {' '.join(all_tests)}")
            return 1
        for name, file, fragment, replacement, tests in MUTANTS:
            path = where / "src" / "cstardyn" / file
            original = path.read_text()
            found = original.count(fragment)
            mutated = original.replace(fragment, replacement)
            if found != 1:
                verdict = f"fragment found {found} times in {file}"
            elif not compiles(mutated, path):
                verdict = "mutated file does not compile"
            else:
                path.write_text(mutated)
                try:
                    code = pytest(where, tests)
                finally:
                    path.write_text(original)
                verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"pytest exit code {code}")
            print(f"{verdict}: {name}", flush=True)
            if verdict != "killed":
                failures.append(name)
    print(f"{len(MUTANTS) - len(failures)} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
