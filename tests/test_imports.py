"""Every module, the tests' included, imports only names it uses; every
function and method of the package has a caller in the package or the
benchmark (no linter ships with the package); and the module-level
caches are eight: the seven whose key spaces are bounded, and the lru of
assignment tables, held to its bound."""

import ast
import importlib
import importlib.util
import random
from pathlib import Path

from oracles import random_tournament

import tourlyn
from tourlyn import solver, tournaments
from tourlyn.construction import context, point_densities, random_params
from tourlyn.solver import default_params, probe_ball, solve
from tourlyn.tournamentons import density, random_step_tournamenton
from tourlyn.tournaments import canonicalize, enumerate_exact

PACKAGE = Path(tourlyn.__file__).parent
TESTS = Path(__file__).resolve().parent
BENCHMARK = TESTS.parent / "perfbench"


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
    # the package's modules and the tests'; __init__.py re-exports what it
    # imports
    found = {
        "%s/%s" % (path.parent.name, path.name): unused_imports(path.read_text())
        for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: hits for name, hits in found.items() if hits} == {}


def name_counts(trees, strings=False):
    """(names, attributes): how often the trees refer to each name as a
    name or an imported name, and as an attribute.  With `strings`, a string
    constant refers to its last component too (a function or method looked
    up by its name): a dotted one such as "Class.method" as an attribute,
    any other as a name."""
    names, attributes = {}, {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs, found = names, [node.id]
            elif isinstance(node, ast.Attribute):
                refs, found = attributes, [node.attr]
            elif isinstance(node, ast.ImportFrom):
                refs, found = names, [alias.name for alias in node.names]
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                _, dot, last = node.value.rpartition(".")
                refs, found = (attributes if dot else names), [last]
            else:
                continue
            for name in found:
                refs[name] = refs.get(name, 0) + 1
    return names, attributes


def definitions(tree):
    """(qualified name, node) of each module-level function of the tree and
    of each method of its module-level classes, as "Class.method"."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield "%s.%s" % (node.name, sub.name), sub


def uncalled_functions(sources, private, lookups=None):
    """(module, qualified name) of each private (or, with private False,
    public) module-level function and method, dunders excepted, that no
    module of `sources` (name -> source) refers to outside its own body,
    nor any module of `lookups`, which may also name it in a string
    (name_counts).  A function is referred to by its name or an attribute
    of its name; a method only by an attribute, or a dotted string, of its
    name, so a function of the same name calls no method."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    names, attributes = name_counts(trees.values())
    looked_up = name_counts(map(ast.parse, (lookups or {}).values()), True)
    for total, counts in zip((names, attributes), looked_up):
        for name, count in counts.items():
            total[name] = total.get(name, 0) + count
    found = []
    for name, tree in trees.items():
        for qualified, node in definitions(tree):
            if node.name.startswith("__") or node.name.startswith("_") != private:
                continue
            method = "." in qualified
            # a recursive call, f(...) or self.f(...), is not a caller
            own = sum(
                1 for sub in ast.walk(node)
                if (isinstance(sub, ast.Name) and sub.id == node.name and not method)
                or (isinstance(sub, ast.Attribute) and sub.attr == node.name)
            )
            refs = attributes.get(node.name, 0) + (0 if method else names.get(node.name, 0))
            if refs == own:
                found.append((name, qualified))
    return sorted(found)


def test_uncalled_private_functions_are_caught():
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _dead(n):\n    return _dead(n - 1)\n",
        "b.py": "from a import _used\n\ndef public():\n    _used()\n\ndef __dir__():\n    pass\n",
    }
    assert uncalled_functions(sources, private=True) == [("a.py", "_dead")]
    assert uncalled_functions({"c.py": "def _f():\n    pass\nKEY = _f\n"}, private=True) == []
    # methods too: one that only calls itself is uncalled
    methods = (
        "class C:\n    def __init__(self):\n        self._used()\n\n"
        "    def _used(self):\n        pass\n\n"
        "    def _dead(self, n):\n        return self._dead(n - 1)\n"
    )
    assert uncalled_functions({"d.py": methods}, private=True) == [("d.py", "C._dead")]


def test_every_private_function_has_a_caller():
    # callers are looked for in the package only; tests do not count
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert uncalled_functions(sources, private=True) == []


def test_uncalled_public_functions_are_caught():
    sources = {
        "a.py": "def used():\n    pass\n\ndef looked_up():\n    pass\n\n"
                "def dead(n):\n    return dead(n - 1)\n",
        "b.py": "from a import used\n\ndef caller():\n    used()\n\nlater = caller\n",
    }
    lookups = {"bench.py": "TRACED = [('a', 'looked_up')]\n"}
    assert uncalled_functions(sources, private=False, lookups=lookups) == [("a.py", "dead")]
    # a string names a function only outside the package
    assert uncalled_functions(sources, private=False) == [("a.py", "dead"), ("a.py", "looked_up")]
    # methods: a dotted lookup names one by its last component, an
    # attribute anywhere in the package calls one, dunders are exempt; a
    # bare name calls none, so P.dead is uncalled beside the function dead,
    # which b.py calls, and P.looked_up beside the looked-up function
    sources["c.py"] = (
        "class P:\n    def __eq__(self, other):\n        return True\n\n"
        "    def traced(self):\n        pass\n\n"
        "    def used(self):\n        pass\n\n"
        "    def unused(self):\n        pass\n\n"
        "    def dead(self):\n        pass\n\n"
        "    def looked_up(self):\n        pass\n\n\nP().used()\n"
    )
    sources["b.py"] += "dead(3)\n"
    lookups["bench.py"] += "ROWS = [('c', 'P.traced')]\n"
    assert uncalled_functions(sources, private=False, lookups=lookups) == [
        ("c.py", "P.dead"), ("c.py", "P.looked_up"), ("c.py", "P.unused"),
    ]


def test_every_public_function_has_a_caller():
    # a caller is another function of the package, or the benchmark, which
    # also looks functions up by name; the tests do not count (their tools
    # and oracles live in tests/oracles.py)
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    lookups = {path.name: path.read_text() for path in sorted(BENCHMARK.glob("*.py"))}
    assert uncalled_functions(sources, private=False, lookups=lookups) == []


def benchmark_reads():
    """The "module.attr" paths perfbench reads from the package: each
    attribute workloads.py takes from a tourlyn module it imports, each
    TRACED path of tracing.py ("Class.method" ones included), and map_sum
    in each module of tracing.py's MAP_SUM_FROM."""
    tree = ast.parse((BENCHMARK / "workloads.py").read_text())
    modules = {
        alias.asname or alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "tourlyn"
        for alias in node.names
    }
    reads = {
        "%s.%s" % (node.value.id, node.attr) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    spec = importlib.util.spec_from_file_location("tracing", BENCHMARK / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    reads.update("%s.%s" % traced for traced in tracing.TRACED)
    reads.update("%s.map_sum" % module for module in tracing.MAP_SUM_FROM)
    return reads


def unresolved(paths):
    """The paths "module.attr.attr..." that do not resolve in the package."""
    missing = []
    for path in sorted(paths):
        module, *attrs = path.split(".")
        value = importlib.import_module("tourlyn." + module)
        for attr in attrs:
            value = getattr(value, attr, None)
        if value is None:
            missing.append(path)
    return missing


def test_what_the_benchmark_reads_resolves():
    # a benchmark run stops with an AttributeError on a name the package
    # dropped, which no other test would notice: construction's map_sum,
    # say, which only the trace of `run.py --trace 1` looks up
    reads = benchmark_reads()
    assert {"construction.map_sum", "tournamentons.map_sum", "poly.Polynomial.evaluate",
            "tournaments._canonical_order", "solver.SolveOptions"} <= reads
    assert unresolved(reads) == []
    assert unresolved(["construction.no_such_name", "poly.Polynomial.no_such"]) == [
        "construction.no_such_name", "poly.Polynomial.no_such",
    ]


MODULE_CACHES = {
    "construction.context",
    "tournaments._canonical_order",
    "tournaments._reps_up_to",
    "flagalg._product_cache",
    "flagalg._express_cache",
    "words.DEFAULT_ORDER._by_size",
    "words.DEFAULT_ORDER._rank_of",
    "tournamentons._assignment_counts",
}


def module_caches():
    """module.name -> every module-level cache of the package: the lru
    wrappers defined in a module, its dicts named _*_cache, and, as
    module.name.attribute, every dict held by a module-level object of a
    class the module defines."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module("tourlyn." + path.stem)
        for name, value in vars(module).items():
            own = getattr(value, "__module__", None) == module.__name__
            if (own and hasattr(value, "cache_info")) or (
                isinstance(value, dict) and name.startswith("_") and name.endswith("_cache")
            ):
                found["%s.%s" % (path.stem, name)] = value
            elif type(value).__module__ == module.__name__:
                for attribute, held in getattr(value, "__dict__", {}).items():
                    if isinstance(held, dict):
                        found["%s.%s.%s" % (path.stem, name, attribute)] = held
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


def test_module_caches_are_the_eight_and_stop_growing():
    # every cache of a W or a t lives on its object; seven module-level
    # ones are keyed on a bounded space (k, labelled tournaments, class
    # pairs), so once it is covered a longer run adds nothing to them.  The
    # eighth, the assignment counts, is keyed on W's block shape too, which
    # random tournamentons do not cover: it is held to its lru bound
    caches = module_caches()
    assert set(caches) == MODULE_CACHES
    counts = caches.pop("tournamentons._assignment_counts")
    long_run_slice(1)
    before = cache_sizes(caches)
    long_run_slice(2)
    assert cache_sizes(caches) == before
    assert 0 < counts.cache_info().currsize <= counts.cache_info().maxsize


def test_clearing_the_canonical_cache_forgets_every_form():
    # the benchmark clears _canonical_order before each timed batch, so a
    # tournament seen before must then be searched again, nothing else
    # holding its canonical form
    T = random_tournament(random.Random(3), 6)
    C = canonicalize(T)
    tournaments._canonical_order.cache_clear()
    misses = tournaments._canonical_order.cache_info().misses
    assert canonicalize(T) == C
    assert tournaments._canonical_order.cache_info().misses == misses + 1
    assert set(module_caches()) == MODULE_CACHES


def test_float_kernels_are_built_once_per_context(monkeypatch):
    # the solver's kernels live on the context, compiled at its first solve
    # (not by context(k), which a fresh instance here stands in for), and
    # adding them left the module-level caches as they were
    calls = []
    compile_kernels = solver._compile_kernels
    monkeypatch.setattr(
        solver, "_compile_kernels", lambda *args: calls.append(1) or compile_kernels(*args)
    )
    ctx = context.__wrapped__(4)
    assert "_float_kernels" not in vars(ctx)
    x0 = [float(x) for x in point_densities(ctx, default_params(ctx))]
    caches = module_caches()
    before = cache_sizes(caches)
    for radius in (0.0, 1e-7, 1e-4):
        solve(ctx, solver._ball_point(random.Random(5), x0, radius))
    assert len(calls) == 1 and ctx._float_kernels is ctx._float_kernels
    assert set(caches) == MODULE_CACHES and cache_sizes(caches) == before
