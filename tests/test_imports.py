"""The package has no runtime dependencies: `pyproject.toml` lists none, and
every absolute import in `src/angk0` must name a standard-library module.
sympy and hypothesis are for the tests and benches only."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "angk0"


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    outside = [f"{path.name}: {name}" for path in files for name in absolute_imports(path)
               if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
