"""The package raises its own errors, never a bare builtin one.

Every ``raise`` in ``src/budgetcontracts`` names ``ModelError`` or one of
its subclasses, so a caller catches every domain error by one base and the
CLI reports each as its JSON error object.  Two kinds of raise may name a
builtin exception: ``NotImplementedError`` in an abstract hook, and a raise
inside a ``try`` that catches it, where the handler turns it into a package
error (as ``core.parse_integer`` does with ``TypeError``).
"""

import ast
import builtins
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "budgetcontracts"


def _builtin(node):
    """The builtin exception class a name node names, else None."""
    cls = getattr(builtins, node.id, None) if isinstance(node, ast.Name) else None
    return cls if isinstance(cls, type) and issubclass(cls, BaseException) \
        else None


def _caught(handler):
    """The builtin classes an ``except`` clause catches (a bare one: all)."""
    if handler.type is None:
        return [BaseException]
    names = handler.type.elts if isinstance(handler.type, ast.Tuple) \
        else [handler.type]
    return [cls for cls in map(_builtin, names) if cls]


def _raises(path):
    """(where, builtin class or None, caught) for each raise in ``path``:
    ``caught`` the builtin classes that the handlers of the ``try`` blocks
    around it catch."""
    tree = ast.parse(path.read_text(), str(path))
    caught = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Try):
            handled = [cls for h in node.handlers for cls in _caught(h)]
            for sub in (s for stmt in node.body for s in ast.walk(stmt)):
                caught.setdefault(id(sub), []).extend(handled)
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield (f"{path.stem}:{node.lineno}", _builtin(exc),
                   caught.get(id(node), []))


def test_src_raises_no_builtin_exception():
    raises = [r for path in sorted(PACKAGE.glob("*.py")) for r in _raises(path)]
    assert len(raises) > 100  # the scan sees the package
    assert [f"{where} {cls.__name__}" for where, cls, caught in raises
            if cls is not None and cls is not NotImplementedError
            and not any(issubclass(cls, c) for c in caught)] == []
