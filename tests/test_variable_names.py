"""Ring variables are addressed by name outside qtwist.coeffring, and the
packed monomial layout stays inside it.

Every other module declares a variable through Context.laurent / sign,
reads its generator with ctx[name] and keys substitutions by name; the Var
records and the context's index bookkeeping stay inside coeffring.  A
monomial is an int there, which other modules build and read only through
Context.mono and Context.mono_exps and only add, subtract or scale: none of
them names the layout's helpers or shifts bits.  The twist characters are
built in params, so twistmap and presentations only add and scale their
packed columns and call neither.
"""

import ast
import pathlib

import qtwist
from qtwist import coeffring

SOURCES = sorted(pathlib.Path(qtwist.__file__).parent.glob("*.py"))
RECORD_ATTRIBUTES = {"vars", "sign_indices"}
PACKED_HELPERS = {"_W", "_HALF", "_MASK", "_LIMIT", "_reduced", "_sign_digits"}


def _record_uses(tree):
    """(line, what) of every use of Var or of a context's variable records."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "Var":
            yield node.lineno, "Var"
        elif isinstance(node, ast.Attribute) and node.attr in RECORD_ATTRIBUTES | {"Var"}:
            yield node.lineno, "." + node.attr
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "Var":
                    yield node.lineno, "import Var"


def test_only_coeffring_addresses_variable_records():
    assert len(SOURCES) > 10
    found = [
        "%s:%d uses %s" % (path.name, line, what)
        for path in SOURCES
        if path.name != "coeffring.py"
        for line, what in _record_uses(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, found


def _packed_layout_uses(tree):
    """(line, what) of every use of the packed layout: a helper named,
    imported or read as an attribute, or a bit shift, which reads or builds
    digits."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in PACKED_HELPERS:
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute) and node.attr in PACKED_HELPERS:
            yield node.lineno, "." + node.attr
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in PACKED_HELPERS:
                    yield node.lineno, "import " + alias.name
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, (ast.LShift, ast.RShift)):
            yield node.lineno, "a bit shift"


def test_only_coeffring_knows_the_packed_monomial_layout():
    assert PACKED_HELPERS <= set(vars(coeffring)) | set(dir(coeffring.Context()))
    assert list(_packed_layout_uses(ast.parse("from .coeffring import _W\nm = ctx._reduced(m << 64)")))
    found = [
        "%s:%d uses %s" % (path.name, line, what)
        for path in SOURCES
        if path.name != "coeffring.py"
        for line, what in _packed_layout_uses(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, found


def test_twistmap_and_presentations_build_no_monomial():
    """The characters' packed columns come from params.twist_character, so
    the map and the relation builders never build or decode a monomial."""
    assert {path.name for path in SOURCES} >= {"twistmap.py", "presentations.py"}
    found = [
        "%s:%d uses .%s" % (path.name, node.lineno, node.attr)
        for path in SOURCES
        if path.name in ("twistmap.py", "presentations.py")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr in ("mono", "mono_exps")
    ]
    assert not found, found
