"""The package needs nothing beyond the standard library and numpy, and
loads each submodule on first use.

scipy, mpmath and sympy may be installed next to it, but the package
declares only numpy, so an import of anything else would break a clean
install.  The modules are read with ast, not imported, so an import inside a
function or behind a branch counts too.

The package exports its names lazily, and the commands that compute
nothing with numpy (bound, table, roots, --help, a usage error) run
without importing it; a fresh interpreter checks that.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coefbound
from coefbound import bounds, lemmas, oracle

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


def test_every_export_is_the_object_of_the_submodule_that_defines_it():
    assert coefbound.__all__ == list(coefbound._EXPORTS)
    for name, module in coefbound._EXPORTS.items():
        value = getattr(importlib.import_module(f"coefbound.{module}"), name)
        assert getattr(coefbound, name) is value, name
        if hasattr(value, "__module__"):  # a constant has no defining module to name
            assert value.__module__ == f"coefbound.{module}", name


def test_dir_lists_every_export():
    assert set(coefbound.__all__) <= set(dir(coefbound))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        coefbound.no_such_name
    assert not hasattr(coefbound, "no_such_name")


def test_the_numpy_free_base_is_shared_not_copied():
    assert lemmas.a_sequence_closed is bounds.a_sequence_closed
    assert oracle.DEFAULT_BUDGET is bounds.DEFAULT_BUDGET
    assert oracle.DEFAULT_SEED is bounds.DEFAULT_SEED
    assert oracle.DEFAULT_TOL is bounds.DEFAULT_TOL
    assert oracle.record_dict is bounds.record_dict


#: Run in a fresh interpreter: prints one JSON list of [what ran, exit code,
#: numpy imported after it], so each step is checked on its own.
_STEPS = """
import contextlib, io, json, sys
steps = []
import coefbound
steps.append(["import coefbound", sorted(m for m in sys.modules if m.startswith("coefbound.")), "numpy" in sys.modules])
import coefbound.cli as cli
steps.append(["import coefbound.cli", None, "numpy" in sys.modules])
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    steps.append([argv, code, "numpy" in sys.modules])
print(json.dumps(steps))
"""


def test_only_verify_and_report_import_numpy():
    numpy_free = [
        ["bound", "--class", "convex", "--n", "4", "--lambda", "1"],
        ["bound", "--class", "starlike", "--which", "d43", "--lambda", "1", "--p", "1.5"],
        ["table", "--class", "starlike", "--lambda", "0.5,1", "--format", "csv"],
        ["roots"],
        ["--help"],
        ["bound", "--class", "convex", "--n", "2", "--lambda", "5"],
    ]
    # the last step loads numpy, so a check that never sees it cannot pass
    verify = ["verify", "--claim", "thm3.1-a2", "--lambda", "0.5", "--budget", "1000"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _STEPS, json.dumps(numpy_free + [verify])],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout)
    assert steps[:2] == [["import coefbound", [], False], ["import coefbound.cli", None, False]]
    assert steps[2:] == [[argv, code, False] for argv, code in zip(numpy_free, [0, 0, 0, 0, 0, 2])] + [
        [verify, 0, True]
    ]
