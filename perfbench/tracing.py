"""Per-layer call counters, installed from outside the package.

Each traced function is replaced, in every ``tourlyn`` module namespace that
binds it (and on its class, for methods), by a wrapper that adds to
aggregated counters: calls, total time and self time.  There are no per-call
spans, so hot calls such as ``Polynomial.evaluate_float`` cost one counter
update each.  Self time is a call's duration minus the time spent in traced
calls it made; total time counts only the outermost call of a recursive
function, so it never exceeds the wall time it covers.

Counting only happens while ``Tracer.active`` is true, so input generation
and correctness checks between the timed calls stay out of the table.  Calls
made during set-up are reported apart from those of the timed loop, and the
latter per item of work, so that neither grows with how many items a run of
fixed length fits in.
"""

import sys
import time

# (module, attribute path) of every traced function.  map_sum is traced once
# per calling module: construction binds it for the W_k polynomials, and
# tournamentons.density looks it up in its own module.
TRACED = (
    ("tournaments", "canonicalize"),
    ("tournaments", "enumerate_exact"),
    ("words", "word_of"),
    ("flagalg", "product"),
    ("flagalg", "express"),
    ("poly", "Polynomial.evaluate_float"),
    ("poly", "Polynomial.evaluate"),
    ("poly", "Polynomial.partial_derivative"),
    ("poly", "det_rational"),
    ("poly", "solve_linear"),
    ("tournamentons", "density"),
    ("tournamentons", "sample"),
    ("construction", "build"),
    ("construction", "density_s_poly"),
    ("construction", "jacobian_at"),
    ("solver", "solve"),
)
MAP_SUM_FROM = {
    "construction": "tournamentons.map_sum.from_construction",
    "tournamentons": "tournamentons.map_sum.from_density",
}
KEYS = tuple("%s.%s" % t for t in TRACED) + tuple(MAP_SUM_FROM.values())


def package_modules():
    return {
        name.partition(".")[2]: mod for name, mod in sys.modules.items()
        if name.startswith("tourlyn.")
    }


def rebind(owner, attr, value):
    """Set owner.attr; returns the undo record."""
    record = [(owner, attr, getattr(owner, attr))]
    setattr(owner, attr, value)
    return record


def rebind_everywhere(original, replacement):
    """Replace every module-level binding of original in the package."""
    records = []
    for mod in [sys.modules["tourlyn"]] + list(package_modules().values()):
        for attr, value in list(vars(mod).items()):
            if value is original:
                records += rebind(mod, attr, replacement)
    return records


def undo(records):
    for owner, attr, value in reversed(records):
        setattr(owner, attr, value)


class Tracer:
    def __init__(self):
        self.active = False
        self.calls = dict.fromkeys(KEYS, 0)
        self.setup_calls = dict.fromkeys(KEYS, 0)
        self.total = dict.fromkeys(KEYS, 0.0)
        self.self_time = dict.fromkeys(KEYS, 0.0)
        self._depth = dict.fromkeys(KEYS, 0)
        # one [child seconds] cell per traced call in progress
        self._stack = []
        self._undo = []

    def wrap(self, key, fn):
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            cell = [0.0]
            tracer._stack.append(cell)
            tracer._depth[key] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                tracer._stack.pop()
                tracer._depth[key] -= 1
                tracer.calls[key] += 1
                tracer.self_time[key] += elapsed - cell[0]
                if not tracer._depth[key]:
                    tracer.total[key] += elapsed
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed

        return traced

    def install(self):
        """Wrap every traced function wherever the package binds it."""
        for mod_name, path in TRACED:
            key = "%s.%s" % (mod_name, path)
            owner = package_modules()[mod_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                self._undo += rebind(cls, attr, self.wrap(key, getattr(cls, attr)))
            else:
                original = getattr(owner, path)
                self._undo += rebind_everywhere(original, self.wrap(key, original))
        for mod_name, key in MAP_SUM_FROM.items():
            mod = package_modules()[mod_name]
            self._undo += rebind(mod, "map_sum", self.wrap(key, mod.map_sum))

    def uninstall(self):
        undo(self._undo)
        self._undo = []

    def end_setup(self):
        """Counts every call so far as a set-up call."""
        self.setup_calls = dict(self.calls)

    def metrics(self, wall_s, items):
        """Per-function set-up calls, timed-loop calls per item, and total
        and self time as shares of wall_s."""
        out = {}
        for key in KEYS:
            out[key + ".setup_calls"] = (self.setup_calls[key], "count")
            out[key + ".calls_per_item"] = (
                (self.calls[key] - self.setup_calls[key]) / items, "calls/item")
            out[key + ".total_share"] = (self.total[key] / wall_s, "ratio")
            out[key + ".self_share"] = (self.self_time[key] / wall_s, "ratio")
        return out

    def table(self):
        """Rows (key, set-up calls, timed-loop calls, total s, self s) for the
        human-readable report."""
        return [
            (key, self.setup_calls[key], self.calls[key] - self.setup_calls[key],
             self.total[key], self.self_time[key])
            for key in KEYS if self.calls[key]
        ]
