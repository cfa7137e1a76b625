"""Every top-level name under ``src/logicad`` is used somewhere else in ``src/``.

A top-level function, class or constant, or a method of a top-level class,
fails this test when its name occurs in no ``Name`` or ``Attribute`` node of
``src/logicad/*.py`` outside its own definition.  Code that only the tests
call therefore fails; so does a name that is only imported.  Dunder methods
are exempt, since Python calls them.

The check matches by name alone, not by binding.  So a use of another object
with the same name hides dead code: ``encoder.encode`` would pass because of
``str.encode``, and ``EncoderParams.zeros_like`` because of ``np.zeros_like``.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "logicad"

# Names kept without a caller in src/, as ``module.qualname``.
ALLOWED = {"__init__.__version__"}


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
