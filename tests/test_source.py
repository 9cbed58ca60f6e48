import ast
import doctest
import importlib
import pkgutil
import sys
from pathlib import Path

import threebraid
from conftest import clear_library_caches
from test_cli import run_golden


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


def _names_in(node):
    """Every name a node reads: bare names, attribute names, imported names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def _reached_from_cli():
    """The qualified names of the library's module-level definitions, and
    of those a CLI command can reach.

    A closure of name references from cli.py: a definition is reached when
    reached code names it (as a bare name, an attribute or an import),
    whatever module it is in, so a shared name errs on the side of reached.
    """
    definitions = {}
    for file, tree in _library_trees():
        if file in ("cli.py", "__init__.py", "__main__.py"):
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = [t.id for t in (node.targets if isinstance(
                    node, ast.Assign) else [node.target])
                           if isinstance(t, ast.Name)]
            else:
                continue
            for name in targets:
                definitions.setdefault(name, []).append(
                    (f"{file[:-3]}.{name}", node))
    cli = dict(_library_trees())["cli.py"]
    todo, seen, reached = list(_names_in(cli)), set(), set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for qualified, node in definitions.get(name, ()):
            reached.add(qualified)
            todo.extend(_names_in(node))
    return ({qualified for defs in definitions.values()
             for qualified, _ in defs}, reached)


def test_library_names_no_command_reaches():
    """The module-level definitions that no CLI command can reach.

    Library code that no command reaches must be wired in, moved to the
    tests, or listed here.
    """
    defined, reached = _reached_from_cli()
    assert defined - reached == {
        # the staircase check, read by perfbench (ROADMAP item 7)
        "expansions.orthogonal_marked_structure", "expansions.BlockStructure",
        "expansions._staircase_ok", "expansions._block_candidates",
        "expansions._marks_ok", "expansions.no_orthogonal_completion",
    }


def test_package_exports_are_reached_from_cli():
    """Every name the package exports is one a command reaches, but for
    the two public names of the staircase check."""
    _, reached = _reached_from_cli()
    reached_names = {qualified.split(".")[1] for qualified in reached}
    init = dict(_library_trees())["__init__.py"]
    exported = {alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert exported - reached_names == {"no_orthogonal_completion",
                                        "orthogonal_marked_structure"}


def _library_functions():
    """'file:qualified name' of every function and method the library
    defines, nested ones included, named as their code objects name them."""
    found = set()

    def walk(node, file, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.add(f"{file}:{prefix}{child.name}")
                walk(child, file, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, file, f"{prefix}{child.name}.")
            else:
                walk(child, file, prefix)

    for file, tree in _library_trees():
        walk(tree, file, "")
    return found


# What no golden command runs, with the reason each is kept.
NO_COMMAND_RUNS = {
    "expansions.py:orthogonal_marked_structure":
        "the staircase check; perfbench's partials batch runs it (ROADMAP 1c)",
    "expansions.py:_block_candidates": "part of the staircase check",
    "expansions.py:_staircase_ok": "part of the staircase check",
    "expansions.py:_marks_ok": "part of the staircase check",
    "expansions.py:no_orthogonal_completion":
        "the blockade over fresh layers; perfbench's partials batch runs it",
    "embed.py:PipelineReport.from_json":
        "the u1 certificate reader README documents (ROADMAP item 3)",
    "embed.py:_same": "PipelineReport.from_json's type-strict comparison",
    "braid.py:AltBraidWord.from_json": "reads the word of a u1 certificate",
    "braid.py:_json_pairs": "AltBraidWord.from_json's list-of-pairs check",
    "forms.py:DTable.from_json":
        "the dtable document reader README documents (ROADMAP item 3)",
    "cli.py:main": "the console-script entry point around cli.run",
    "forms.py:NonCyclicCokernel.__init__":
        "no golden command meets a non-cyclic cokernel",
}


def test_library_functions_no_command_runs(capsys, tmp_path, monkeypatch,
                                           g87_matrix):
    """Every golden command runs in process under a profile hook, from cold
    caches; the library functions and methods that never run are pinned.

    Library code that no command runs must be wired in, moved to the tests,
    or listed in NO_COMMAND_RUNS with its reason.
    """
    package = Path(threebraid.__file__).parent
    clear_library_caches()
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    monkeypatch.chdir(tmp_path)
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        run_golden(capsys, g87_matrix)
    finally:
        sys.setprofile(previous)
    ran = {f"{Path(code.co_filename).name}:{code.co_qualname}"
           for code in codes if Path(code.co_filename).parent == package}
    assert _library_functions() - ran == set(NO_COMMAND_RUNS)
