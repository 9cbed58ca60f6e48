import ast
import doctest
import importlib
import pkgutil
from pathlib import Path

import threebraid


def _library_trees():
    """(file name, AST) for every module of src/threebraid/*.py."""
    package = Path(threebraid.__file__).parent
    for path in sorted(package.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def _library_nodes():
    """(file:line, node) for every AST node of src/threebraid/*.py."""
    for name, tree in _library_trees():
        for node in ast.walk(tree):
            yield f"{name}:{getattr(node, 'lineno', 0)}", node


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


def test_no_private_names_across_library_modules():
    """No module imports, or reads as an attribute, an underscore name of a
    sibling module: what one module uses of another is public."""
    found = []
    for name, tree in _library_trees():
        siblings = set()    # local names bound to sibling modules
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or not (
                    node.level or node.module.split(".")[0] == "threebraid"):
                continue
            for alias in node.names:
                if node.module in (None, "threebraid"):
                    siblings.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    found.append(f"{name}:{node.lineno} {alias.name}")
        found.extend(f"{name}:{node.lineno} {node.value.id}.{node.attr}"
                     for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute)
                     and isinstance(node.value, ast.Name)
                     and node.value.id in siblings
                     and node.attr.startswith("_"))
    assert found == []
