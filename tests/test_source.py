import ast
import doctest
import importlib
import pkgutil
from pathlib import Path

import threebraid


def _library_nodes():
    """(file:line, node) for every AST node of src/threebraid/*.py."""
    package = Path(threebraid.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            yield f"{path.name}:{getattr(node, 'lineno', 0)}", node


def test_no_assert_statements_in_the_library():
    """Theorem checks raise explicitly, so they survive ``python -O``."""
    found = [where for where, node in _library_nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_floating_point_in_the_library():
    """Arithmetic stays exact: no float literals and no use of ``float``."""
    found = [where for where, node in _library_nodes()
             if (isinstance(node, ast.Constant)
                 and isinstance(node.value, (float, complex)))
             or (isinstance(node, ast.Name) and node.id == "float")]
    assert found == []


def test_no_bare_assertion_errors_in_the_library():
    """Failed checks raise TheoremViolation, which names them as such."""
    def raised(node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return getattr(exc, "id", None)

    found = [where for where, node in _library_nodes()
             if isinstance(node, ast.Raise) and raised(node) == "AssertionError"]
    assert found == []


def test_docstring_examples_hold():
    """Every example in the library's docstrings runs and gives its output."""
    names = ["threebraid"] + [f"threebraid.{info.name}" for info
                              in pkgutil.iter_modules(threebraid.__path__)]
    attempted = 0
    for name in names:
        result = doctest.testmod(importlib.import_module(name))
        assert result.failed == 0, name
        attempted += result.attempted
    assert attempted >= 5
