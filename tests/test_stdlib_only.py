"""The qtwist runtime imports nothing outside the Python standard library."""

import ast
import pathlib
import sys

import qtwist

SOURCES = sorted(pathlib.Path(qtwist.__file__).parent.glob("*.py"))


def _absolute_imports(tree):
    """(line, top-level module name) of every absolute import in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_runtime_imports_only_the_standard_library():
    assert len(SOURCES) > 10
    outside = [
        "%s:%d imports %s" % (path.name, line, name)
        for path in SOURCES
        for line, name in _absolute_imports(ast.parse(path.read_text(), str(path)))
        if name not in sys.stdlib_module_names
    ]
    assert not outside, outside


def test_only_the_report_reads_the_clock():
    """Report owns the campaign clock: no other runtime module imports time."""
    readers = sorted(
        path.name
        for path in SOURCES
        for _, name in _absolute_imports(ast.parse(path.read_text(), str(path)))
        if name == "time"
    )
    assert readers == ["report.py"], readers
