"""Every function, class and method of the runtime has a reader in the runtime.

Code that only tests read belongs in tests/oracles.py, not in src/qtwist.
A definition counts as read when its name occurs as an ast.Name or an
ast.Attribute somewhere in src/qtwist outside its own body.  String
literals are not readers (the label "+corrupt" does not read corrupt), nor
are the re-exports of qtwist/__init__.py, which are import aliases and
__all__ strings.  Dunders are called by Python itself and are exempt.
"""

import ast
import pathlib
from collections import Counter

import qtwist

SOURCES = sorted(pathlib.Path(qtwist.__file__).parent.glob("*.py"))

# qualified name -> why it stays without a runtime reader
ALLOWED = {
    "params.ParameterSet.generic": "the paper's ring with every parameter free; tests build it",
    "report.Report.failures": "the failing records of a report; tests read witnesses through it",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(module, tree):
    """(qualified name, node) of each top-level function and class and each method."""
    for node in tree.body:
        if isinstance(node, _DEFS):
            yield "%s.%s" % (module, node.name), node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _DEFS[:2]):
                    yield "%s.%s.%s" % (module, node.name, item.name), item


def _names(node):
    """Every name read as an ast.Name or an ast.Attribute under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def unread_definitions(sources):
    """Qualified names of the definitions in sources that nothing else names."""
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sources}
    everywhere = Counter(name for tree in trees.values() for name in _names(tree))
    unread = []
    for module, tree in trees.items():
        for qualname, node in _definitions(module, tree):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if everywhere[node.name] == sum(name == node.name for name in _names(node)):
                unread.append(qualname)
    return sorted(unread)


def test_every_runtime_definition_has_a_runtime_reader():
    assert len(SOURCES) > 10
    unread = unread_definitions(SOURCES)
    assert len(ALLOWED) <= 3
    missing = sorted(set(unread) - set(ALLOWED))
    assert not missing, "read only outside src/qtwist; move to tests/oracles.py: %s" % missing
    stale = sorted(set(ALLOWED) - set(unread))
    assert not stale, "allow-list entries that now have a runtime reader: %s" % stale


def test_string_literals_and_own_bodies_are_not_readers(tmp_path):
    """A label that spells a name, a recursive call and a re-export read nothing."""
    (tmp_path / "__init__.py").write_text("from .mod import helper, kept\n__all__ = ['helper']\n")
    (tmp_path / "mod.py").write_text(
        "def helper(n):\n"
        "    return helper(n - 1) if n else 'x+helper'\n"
        "\n"
        "def kept():\n"
        "    return 1\n"
        "\n"
        "class Box:\n"
        "    def __len__(self):\n"
        "        return kept()\n"
        "\n"
        "    def unused(self):\n"
        "        return self\n"
        "\n"
        "LABEL = Box\n"
    )
    sources = sorted(tmp_path.glob("*.py"))
    assert unread_definitions(sources) == ["mod.Box.unused", "mod.helper"]
