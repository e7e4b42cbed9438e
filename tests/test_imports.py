"""The package needs nothing beyond the standard library and numpy.

scipy, mpmath and sympy may be installed next to it, but the package
declares only numpy, so an import of anything else would break a clean
install.  The modules are read with ast, not imported, so an import inside a
function or behind a branch counts too.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "coefbound"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def _imported_roots(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_every_module_is_checked():
    assert {p.name for p in PACKAGE.glob("*.py")} >= {"oracle.py", "schwarz.py", "cli.py"}


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_imports_only_the_stdlib_and_numpy(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = [(line, root) for line, root in _imported_roots(tree) if root not in ALLOWED]
    assert not foreign, f"{path.name} imports {foreign}"


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_no_module_imports_a_name_it_never_uses(path):
    # __init__.py imports to re-export; a line marked "# noqa" keeps a name
    # on purpose (oracle.py keeps sample_param_arrays for bench/spans.py)
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                # an alias knows its own line, so one name of a parenthesized import can be marked
                if "# noqa" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"
