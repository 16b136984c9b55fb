"""Every name the library defines is read by code that runs it.

A top-level function or class of ``src/budgetcontracts``, or a public
method of one of its classes, must be named somewhere in ``src/``,
``scripts/``, ``perfbench/`` or ``tests/test_acceptance.py``: as an
identifier, an attribute, an imported name or a word of a string that is
not a docstring (the benchmark's tracer names its targets in strings).
Code that only the other tests read belongs in the tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "budgetcontracts"
READERS = [*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").rglob("*.py"),
           *(ROOT / "perfbench").rglob("*.py"),
           ROOT / "tests" / "test_acceptance.py"]

# name -> why it stays without a reader in the code above
ALLOWED = {
    "rewards.is_gross_substitutes":
        "the exact check behind the oracles' function_class declarations, "
        "which the greedy demand trusts; the tests run it on every family",
}


def _docstrings(tree):
    """The ids of the string constants that are docstrings or other bare
    string statements."""
    return {id(node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)}


def _names_read(path):
    tree = ast.parse(path.read_text(), str(path))
    skip = _docstrings(tree)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in skip:
            names.update(re.findall(r"\w+", node.value))
    return names


def _defined(path):
    """(qualified name, name) of each top-level function and class, and of
    each public method of a top-level class."""
    module = path.stem
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) \
                        and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item.name


def test_every_defined_name_has_a_reader():
    read = set().union(*map(_names_read, READERS))
    defined = [d for path in sorted(PACKAGE.glob("*.py")) for d in _defined(path)]
    assert len(defined) > 100  # the scan sees the package
    unread = sorted(qual for qual, name in defined if name not in read)
    assert unread == sorted(ALLOWED)
