"""The package has no runtime dependencies: `pyproject.toml` lists none, and
every absolute import in `src/angk0` must name a standard-library module.
sympy and hypothesis are for the tests and benches only.  Inside the
package, `import angk0` leaves the CLI unloaded, and `presentations` imports
none of the modules that return its report type."""

import ast
import subprocess
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


def test_package_import_leaves_the_cli_unloaded():
    # `import angk0` is the library; the CLI and its argument parser load
    # only when asked for.
    code = "import sys, angk0; print(sorted(m for m in sys.modules if m.startswith('angk0.')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    loaded = ast.literal_eval(proc.stdout)
    assert "angk0.presentations" in loaded
    assert "angk0.cli" not in loaded


def sibling_imports(path):
    """The package modules a file imports.  The test above allows no
    absolute `angk0` import, so relative imports are all of them."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                yield node.module.split(".")[0]
            else:
                yield from (alias.name for alias in node.names)


def test_presentations_sit_below_the_layers_that_report_to_them():
    # tensor, embeddings and classify import ViolationReport from
    # presentations, so an import back would make the layers a cycle
    names = set(sibling_imports(PACKAGE / "presentations.py"))
    assert "lattices" in names
    assert not names & {"tensor", "embeddings", "classify"}
