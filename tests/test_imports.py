"""Every module imports only names it uses (no linter ships with the package)."""

import ast
from pathlib import Path

import tourlyn

PACKAGE = Path(tourlyn.__file__).parent


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_caught():
    assert unused_imports("import os\nfrom math import exp, log\nlog(2)\n") == [
        (1, "os"), (2, "exp"),
    ]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


def test_no_module_imports_an_unused_name():
    # __init__.py re-exports what it imports
    found = {
        path.name: unused_imports(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: hits for name, hits in found.items() if hits} == {}
