"""Every name the library defines is read by code that runs it.

A top-level function or class of ``src/budgetcontracts``, or a public
method of one of its classes, must be named somewhere in ``src/``,
``scripts/``, ``perfbench/`` or ``tests/test_acceptance.py``: as an
identifier, an attribute, an imported name or a word of a string that is
not a docstring (the benchmark's tracer names its targets in strings).
Code that only the other tests read belongs in the tests.  Nor does a
module of the package import a name it never reads.
"""

import ast
import itertools
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


def _unread_imports(path):
    """The names a module binds by import and never reads as a name,
    ``__all__`` counting as a reading of the names it lists and a string
    annotation as the expression it spells."""
    tree = ast.parse(path.read_text(), str(path))
    quoted = [ast.parse(note.value, mode="eval") for node in ast.walk(tree)
              for note in (getattr(node, "annotation", None),
                           getattr(node, "returns", None))
              if isinstance(note, ast.Constant) and isinstance(note.value, str)]
    bound, read = set(), set()
    for node in itertools.chain(*map(ast.walk, [tree, *quoted])):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(c.value for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant))
    return bound - read


def test_every_imported_name_is_read():
    unread = [f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
              for name in sorted(_unread_imports(path))]
    assert unread == []


def _only_raises_not_implemented(node):
    body = node.body if isinstance(node.body, list) else [node.body]
    return len(body) == 1 and isinstance(body[0], ast.Raise) and \
        "NotImplementedError" in ast.unparse(body[0])


def _unread_parameters(path):
    """(function, parameter) for each parameter of a function or lambda
    that its body never reads, bar those of an abstract body (one that only
    raises ``NotImplementedError``) and those named with a leading ``_``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)) \
                or _only_raises_not_implemented(node):
            continue
        args = node.args
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {name.id for statement in body for name in ast.walk(statement)
                if isinstance(name, ast.Name)
                and not isinstance(name.ctx, ast.Store)}
        for param in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                      args.vararg, args.kwarg):
            if param and not param.arg.startswith("_") \
                    and param.arg not in read:
                yield (f"{path.stem}.{getattr(node, 'name', 'lambda')}"
                       f":{node.lineno}", param.arg)


def test_every_parameter_is_read():
    unread = [u for path in sorted(PACKAGE.glob("*.py"))
              for u in _unread_parameters(path)]
    assert unread == []
