"""Every top-level import in the package is used by its module.

No linter ships with the toolkit, so this parses each module with ast:
a name bound by a top-level import must be read somewhere in the
module, in code or in a string annotation, or be listed in __all__.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "sdckws"


def imported_names(tree):
    """Names bound by the module's top-level imports, by line."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def used_names(tree):
    """Names the module reads, in code or string annotations, or exports."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(
            node, "returns", None)
        if (isinstance(annotation, ast.Constant)
                and isinstance(annotation.value, str)):
            used |= used_names(ast.parse(annotation.value))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_top_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = [f"{name} (line {line})"
              for name, line in imported_names(tree).items() if name not in used]
    assert unused == []


def test_an_unused_import_is_caught():
    tree = ast.parse("import os\nimport sys\nimport re\n"
                     "from json import dumps, loads\n__all__ = ['re']\n"
                     "def f(x: 'sys.Foo'):\n    return loads('os')\n")
    assert set(imported_names(tree)) - used_names(tree) == {"os", "dumps"}
