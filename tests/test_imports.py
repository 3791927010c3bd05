"""Every module imports only names it uses, and every private function has a
caller (no linter ships with the package)."""

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


def uncalled_private_functions(sources):
    """(module, name) of each private module-level function that no module
    of `sources` (name -> source) refers to outside the function's own body."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    refs = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs[node.id] = refs.get(node.id, 0) + 1
            elif isinstance(node, ast.Attribute):
                refs[node.attr] = refs.get(node.attr, 0) + 1
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    refs[alias.name] = refs.get(alias.name, 0) + 1
    found = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            # a recursive call is not a caller
            own = sum(
                1 for sub in ast.walk(node) if isinstance(sub, ast.Name) and sub.id == node.name
            )
            if refs.get(node.name, 0) == own:
                found.append((name, node.name))
    return sorted(found)


def test_uncalled_private_functions_are_caught():
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _dead(n):\n    return _dead(n - 1)\n",
        "b.py": "from a import _used\n\ndef public():\n    _used()\n\ndef __dir__():\n    pass\n",
    }
    assert uncalled_private_functions(sources) == [("a.py", "_dead")]
    assert uncalled_private_functions({"c.py": "def _f():\n    pass\nKEY = _f\n"}) == []


def test_every_private_function_has_a_caller():
    # callers are looked for in the package only; tests do not count
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert uncalled_private_functions(sources) == []
