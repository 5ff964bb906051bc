"""The package's import order: each module imports only modules below it.

Every intra-package import counts, at module level or inside a function.
The test modules import no other test module: what they share comes from
tests/reference.py.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).parent
PACKAGE = TESTS.parent / "src" / "conseq"

# lowest first
ORDER = (
    "errors",
    "language",
    "rules",
    "engine",
    "fileformat",
    "operators",
    "csystems",
    "sampling",
    "propositional",
    "scenarios",
    "cli",
    "__init__",
    "__main__",
)


def _imported_modules(tree):
    """The package modules a parsed module imports, wherever it imports
    them; an absolute import of the package counts as "conseq", which
    has no place in the order."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module is None:  # from . import x
                yield from (alias.name for alias in node.names)
            else:  # from .x import y
                yield node.module
        elif isinstance(node, ast.ImportFrom):
            if node.module.split(".")[0] == "conseq":
                yield "conseq"
        elif isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "conseq" for alias in node.names):
                yield "conseq"


def test_every_module_has_a_place_in_the_order():
    assert sorted(p.stem for p in PACKAGE.glob("*.py")) == sorted(ORDER)


def test_every_package_import_points_down():
    upward = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for target in _imported_modules(tree):
            if target not in ORDER or ORDER.index(target) >= ORDER.index(path.stem):
                upward.append(f"{path.stem} -> {target}")
    assert upward == []


def test_no_test_module_imports_another():
    test_modules = {p.stem for p in TESTS.glob("test_*.py")}
    crossing = []
    for path in sorted(TESTS.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            crossing += [f"{path.stem} -> {name}" for name in names if name.split(".")[0] in test_modules]
    assert crossing == []
