"""Every top-level name under ``src/logicad`` is used somewhere else in
``src/``, and no module there reads another module's underscore name.

A top-level function, class or constant, or a method of a top-level class,
fails this test when its name occurs in no ``Name`` or ``Attribute`` node of
``src/logicad/*.py`` outside its own definition.  Code that only the tests
call therefore fails; so does a name that is only imported.  Dunder methods
are exempt, since Python calls them.

The check matches by name alone, not by binding.  So a use of another object
with the same name hides dead code: ``encoder.encode`` would pass because of
``str.encode``, and ``EncoderParams.zeros_like`` because of ``np.zeros_like``.

An underscore name (``_x``, not a dunder) is private to its module.  Another
module reads it by ``module._x`` through a package module it imported, under
its own name or an alias, or by ``from .module import _x``.

A name that a module-level import binds in ``src/logicad/*.py`` or
``tests/*.py`` must be read in its own file; ``from __future__`` imports
bind none.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "logicad"
TESTS = Path(__file__).resolve().parent

# Names kept without a caller in src/, as ``module.qualname``.
ALLOWED = {
    "__init__.__version__",
    # numpy's BitGenerator (PCG64) calls it to seed itself
    "seeding._GeneratedState.generate_state",
}


def _references(node: ast.AST) -> Counter:
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
    return refs


def _assigned_names(node: ast.stmt) -> list[str]:
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _definitions(module: str, tree: ast.Module):
    """(qualified name, name, defining node) of each checked definition."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield f"{module}.{node.name}", node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for name in _assigned_names(node):
                yield f"{module}.{name}", name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if (isinstance(member, defs[:2])
                        and not member.name.startswith("__")):
                    yield (f"{module}.{node.name}.{member.name}", member.name,
                           member)


def unreferenced(src: Path = SRC) -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for qualname, name, node in _definitions(module, tree):
            if everywhere[name] - _references(node)[name] <= 0:
                found.append(qualname)
    return found


def test_every_top_level_name_is_used_elsewhere_in_src():
    assert sorted(set(unreferenced()) - ALLOWED) == []


def test_the_allowlist_names_only_names_without_a_caller():
    # an allowed name that gains a caller leaves the list
    assert ALLOWED <= set(unreferenced())


def test_the_check_finds_dead_code_in_a_small_package(tmp_path):
    (tmp_path / "a.py").write_text(
        "LIMIT = 3\n"
        "UNUSED = 4\n"
        "def used():\n    return LIMIT\n"
        "def only_itself(n):\n    return only_itself(n - 1) if n else 0\n"
        "class Box:\n"
        "    def __init__(self):\n        self.size = used()\n"
        "    def grow(self):\n        return self.size + 1\n"
        "    def spare(self):\n        return 0\n"
    )
    (tmp_path / "b.py").write_text(
        "from .a import Box, UNUSED\n"
        "def main():\n    return Box().grow()\n"
        "main()\n"
    )
    # imported only, called only by itself, never called
    assert sorted(unreferenced(tmp_path)) == [
        "a.Box.spare", "a.UNUSED", "a.only_itself"]


PACKAGE = "logicad"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _imports_from_package(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == PACKAGE


def private_reads(src: Path = SRC) -> list[str]:
    """``file:line: code`` of each read of another module's underscore name."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = set()  # the names this file binds to package modules
        reads = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and _imports_from_package(node):
                for alias in node.names:
                    if _private(alias.name):
                        reads.append((node.lineno, f"from {'.' * node.level}"
                                      f"{node.module or ''} import {alias.name}"))
                    elif node.module is None or node.module == PACKAGE:
                        modules.add(alias.asname or alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == PACKAGE:
                        modules.add(alias.asname or PACKAGE)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and _private(node.attr)):
                continue
            owner = node.value
            while isinstance(owner, ast.Attribute):  # logicad.scenarios._x
                owner = owner.value
            if isinstance(owner, ast.Name) and owner.id in modules:
                reads.append((node.lineno, ast.unparse(node)))
        found += [f"{path.name}:{line}: {code}" for line, code in sorted(reads)]
    return found


def test_no_module_reads_another_modules_underscore_name():
    assert private_reads() == []


def test_the_check_finds_private_reads_in_a_small_package(tmp_path):
    (tmp_path / "a.py").write_text(
        "_HIDDEN = 1\n"
        "PUBLIC = 2\n"
        "def _helper():\n    return _HIDDEN\n"
    )
    (tmp_path / "b.py").write_text(
        "from . import a\n"
        "from . import a as alias\n"
        "from .a import PUBLIC, _helper\n"
        "class Box:\n"
        "    def __init__(self):\n        self._own = a.PUBLIC + a.__doc__\n"
        "    def size(self):\n        return self._own + a._HIDDEN\n"
        "def spare():\n    return alias._helper() + _helper()\n"
    )
    # its own names, an attribute of an object, a public name and a dunder pass
    assert private_reads(tmp_path) == [
        "b.py:3: from .a import _helper",
        "b.py:8: a._HIDDEN",
        "b.py:10: alias._helper",
    ]


def _module_imports(body: list[ast.stmt]):
    """The import statements of a module body, also under ``if``/``try``."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            yield from _module_imports(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            yield from _module_imports(
                node.body + node.orelse + node.finalbody
                + [stmt for handler in node.handlers for stmt in handler.body])


def unused_imports(paths) -> list[str]:
    """``file:line: name`` of each module-level import its file never reads."""
    found = []
    for path in sorted(paths):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in _module_imports(tree.body):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    found.append(f"{path.name}:{node.lineno}: {name}")
    return found


def test_every_module_level_import_is_read_in_its_file():
    assert unused_imports([*SRC.glob("*.py"), *TESTS.glob("*.py")]) == []


def test_the_check_finds_unused_imports_in_a_small_package(tmp_path):
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as codec\n"
        "from typing import TYPE_CHECKING, Optional\n"
        "if TYPE_CHECKING:\n    from .b import Box\n"
        "try:\n    import numpy\nexcept ImportError:\n    numpy = None\n"
        "def size(box: Box) -> int:\n"
        "    import sys\n"
        "    return len(os.sep)\n"
    )
    # read by attribute, by annotation, or bound inside a function: all pass
    assert unused_imports([tmp_path / "a.py"]) == [
        "a.py:3: codec", "a.py:4: Optional", "a.py:8: numpy"]
