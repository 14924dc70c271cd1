"""Every name a runtime module imports is read in that module.

A name counts as read when it occurs as an ast.Name that is loaded
somewhere in the module (a call, an attribute base, an annotation).
qtwist/__init__.py is exempt, since its imports are the package's
re-exports, and so is the compiler directive `from __future__ import
annotations`.
"""

import ast
import pathlib

import qtwist

SOURCES = sorted(pathlib.Path(qtwist.__file__).parent.glob("*.py"))

# module.name -> why the import stays without a reader in its module
ALLOWED = {
    "twistmap.relations_of": "bench/tests checks that the tracer rebinds this imported copy",
}


def unused_imports(sources):
    """module.name of each name a module of sources imports and never reads."""
    unused = []
    for path in sources:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name != "annotations" and name not in read:
                        unused.append("%s.%s" % (path.stem, name))
    return sorted(unused)


def test_every_runtime_import_is_read():
    assert len(SOURCES) > 10
    unused = unused_imports(SOURCES)
    missing = sorted(set(unused) - set(ALLOWED))
    assert not missing, "imported and never read; delete the import: %s" % missing
    stale = sorted(set(ALLOWED) - set(unused))
    assert not stale, "allow-list entries that are now read: %s" % stale


def test_imports_are_read_only_by_loads(tmp_path):
    """A string, an attribute and an assignment of the same spelling read
    nothing; an annotation, an attribute base and a local import's use do."""
    (tmp_path / "__init__.py").write_text("from .mod import kept\n")
    (tmp_path / "mod.py").write_text(
        "from __future__ import annotations\n"
        "\n"
        "import json\n"
        "import os.path\n"
        "from fractions import Fraction\n"
        "from operator import add, mul as times\n"
        "from typing import Sequence\n"
        "\n"
        "LABEL = 'add'\n"
        "\n"
        "def kept(x: Sequence):\n"
        "    import math\n"
        "    times = 2\n"
        "    return os.path.join(math.pi, Fraction(2), x.json)\n"
    )
    sources = sorted(tmp_path.glob("*.py"))
    assert unused_imports(sources) == ["mod.add", "mod.json", "mod.times"]
