"""Every private name the package defines is used in the package: a helper
or an attribute that a refactor leaves behind fails here."""

import ast
import collections
import pathlib

import miniwfl

SOURCES = sorted(pathlib.Path(miniwfl.__file__).parent.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _definitions(tree: ast.Module):
    """(name, node) of each private module-level function, class and
    constant, of each private method, and of each private attribute written
    on ``self``, in ``tree``."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    yield from ((node.attr, node) for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store) and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self")
    for node in tree.body:
        if isinstance(node, functions + (ast.ClassDef,)):
            if _private(node.name):
                yield node.name, node
            if isinstance(node, ast.ClassDef):
                yield from ((item.name, item) for item in node.body
                            if isinstance(item, functions)
                            and _private(item.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            yield from ((name.id, node) for target in targets
                        for name in ast.walk(target)
                        if isinstance(name, ast.Name) and _private(name.id))


def _references(node: ast.AST) -> collections.Counter:
    """How often each name is read below ``node``, as a name or an
    attribute."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
        and isinstance(n.ctx, ast.Load))


def unused_private_names(sources: dict) -> list:
    """``module:name`` of each private definition in ``sources`` (module ->
    source text) that no code outside the definition itself reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = sum((_references(tree) for tree in trees.values()),
               collections.Counter())
    return sorted({f"{module}:{name}" for module, tree in trees.items()
                   for name, node in _definitions(tree)
                   if read[name] == _references(node)[name]})


def test_package_uses_every_private_name():
    assert unused_private_names(
        {path.name: path.read_text(encoding="utf-8")
         for path in SOURCES}) == []


def test_unused_private_name_scan():
    assert unused_private_names({
        "a.py": "_LIMIT = 3\n"
                "_UNUSED = 4\n"
                "def _walk(n):\n"
                "    return _walk(n - 1) if n else _LIMIT\n"
                "class _Helper:\n"
                "    def __init__(self):\n"
                "        self._kept, self._written = [], None\n"
                "        self._written = 0\n"
                "    def _used(self): return self._kept\n"
                "    def _left(self): return self._used()\n"
                "    def __len__(self): return 0\n",
        "b.py": "from .a import _Helper\n"
                "_Helper()\n",
    }) == ["a.py:_UNUSED", "a.py:_left", "a.py:_walk", "a.py:_written"]
