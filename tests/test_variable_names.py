"""Ring variables are addressed by name outside qtwist.coeffring.

Every other module declares a variable through Context.laurent / sign,
reads its generator with ctx[name] and keys substitutions by name; the Var
records and the context's index bookkeeping stay inside coeffring.
"""

import ast
import pathlib

import qtwist

SOURCES = sorted(pathlib.Path(qtwist.__file__).parent.glob("*.py"))
RECORD_ATTRIBUTES = {"vars", "sign_indices"}


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
