import ast
from pathlib import Path

import threebraid


def test_no_assert_statements_in_the_library():
    """Theorem checks raise explicitly, so they survive ``python -O``."""
    package = Path(threebraid.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
