"""Every module imports only names it uses, every private function has a
caller (no linter ships with the package), and the module-level caches are
the five whose key spaces are bounded."""

import ast
import importlib
import random
from pathlib import Path

import tourlyn
from tourlyn.construction import context, point_densities, random_params
from tourlyn.solver import default_params, probe_ball, solve
from tourlyn.tournamentons import density, random_step_tournamenton
from tourlyn.tournaments import enumerate_exact

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


MODULE_CACHES = {
    "construction.context",
    "tournaments._canonical_order",
    "tournaments._reps_up_to",
    "flagalg._product_cache",
    "flagalg._express_cache",
}


def module_caches():
    """module.name -> every module-level cache of the package: the lru
    wrappers defined in a module, and its dicts named _*_cache."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module("tourlyn." + path.stem)
        for name, value in vars(module).items():
            own = getattr(value, "__module__", None) == module.__name__
            if (own and hasattr(value, "cache_info")) or (
                isinstance(value, dict) and name.startswith("_") and name.endswith("_cache")
            ):
                found["%s.%s" % (path.stem, name)] = value
    return found


def cache_sizes(caches):
    return {
        name: cache.cache_info().currsize if hasattr(cache, "cache_info") else len(cache)
        for name, cache in caches.items()
    }


def long_run_slice(seed):
    """A probe, round trips at fresh t, and densities in fresh tournamentons."""
    rng = random.Random(seed)
    ctx = context(4)
    centre = [float(x) for x in point_densities(ctx, default_params(ctx))]
    probe_ball(ctx, centre, 1e-7, 2, seed=seed)
    for _ in range(20):
        p = random_params(ctx, rng)
        solve(ctx, point_densities(ctx, p), t=p.t)
    for _ in range(20):
        W = random_step_tournamenton(rng)
        for T in enumerate_exact(4):
            density(T, W)


def test_module_caches_are_the_five_and_stop_growing():
    # every cache of a W or a t lives on its object; the module-level ones
    # are keyed on a bounded space (k, labelled tournaments, class pairs),
    # so once it is covered a longer run adds nothing to them
    caches = module_caches()
    assert set(caches) == MODULE_CACHES
    long_run_slice(1)
    before = cache_sizes(caches)
    long_run_slice(2)
    assert cache_sizes(caches) == before
