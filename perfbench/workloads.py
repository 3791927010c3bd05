"""The three benchmark workloads.

Each workload is a closed loop with one caller: it generates the next input
from its seeded generator (untimed), times the library calls on it, checks
the output (untimed), and repeats until the run's seconds are used up.  No
item repeats inside a run, so the caches keyed on items (densities,
s-polynomials, products, express polynomials) do not turn a timed call into
a dictionary lookup.  The one shared input is the default ``t`` of the
``solve-k4`` ball targets: the first ball solve computes its polynomials and
every later one reuses them.  Inputs that are small enough to repeat, the
labelled tournaments that ``flag-algebra`` canonicalizes, are kept from
hitting what set-up or earlier batches cached by emptying the canonical-form
and product caches, outside the clock, before every batch and every group of
draws; the canonical-form lookups that remain inside timed blocks are
counted (``Clock.canonical_hits``).

A workload returns a ``Result``; every time in it is scaled to the reference
speed.  ``items`` counts the workload's units of work (solves, k = 5 points,
flag batches), and ``peak_rss_mb`` is the peak resident set once
``RSS_AFTER_ITEMS`` of them are done, so that it does not grow with how many
items a run fits in.  ``failed``
counts operations whose check failed; ``wrong`` counts those whose output
was wrong rather than missing (a singular k = 5 Jacobian minor failed, but
claimed nothing false).  ``notes`` records solver outcomes that are
measured rather than failed: a round trip that ends without converging, or
a converged solve whose exact error misses the tolerance (the known solver
defects that ``solver.<kind>.solved_frac`` counts).  ``metrics`` holds the three workload
timings reported as ``primary_s``, ``secondary_s`` and
``throughput_per_s``; ``details`` holds the same numbers, and a few more,
under workload-specific names.
"""

import math
import resource
import statistics
import time
from dataclasses import dataclass, field

from reference import NOMINAL_S, Reference
from tourlyn import construction, flagalg, poly, solver, tournamentons, tournaments, words
from tourlyn.rational import ZERO, Q

# exact-k5 letters: one of each size, always including the costliest one
K5_LETTERS = ("3:101", "4:111101", "5:1111111101")

# ball targets alternate between the ends of the range: at 1e-7 around the
# default densities every target converges, at 1e-4 almost none does (at
# 1e-6 and 1e-5 about half do, which would make the tail differ run to run)
BALL_RADII = (1e-7, 1e-4)
SOLVE_KINDS = ("round_trip", "ball")
STATUSES = ("converged", "singular-jacobian", "domain-violation", "no-convergence")

FLAG_MAX_N = 6
# every batch ends with FLAG_GROUPS groups of draws, FLAG_DRAWS_PER_N per size
FLAG_SAMPLE_N = (4, 5, 6)
FLAG_DRAWS_PER_N = 32
FLAG_GROUPS = 8
# every batch multiplies one fresh pair of each size combination listed; there
# are 24 ordered (1, 5) and (2, 5) pairs, so a run ends after 24 batches
FLAG_PRODUCT_SIZES = ((1, 5), (1, 6), (2, 5))

# items done when peak_rss_mb is read: about a quarter of what a 40-s run
# of the seed commit completes (220-350 solves, 14-17 batches, 1 point)
RSS_AFTER_ITEMS = {"solve-k4": 64, "exact-k5": 1, "flag-algebra": 4}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class Result:
    rss_after: int
    items: int = 0
    peak_rss_mb: float = None
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    clock: object = None
    metrics: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def fail(self, message, wrong=True):
        self.failed += 1
        if wrong:
            self.wrong += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def note(self, message):
        if len(self.notes) < 20:
            self.notes.append(message)

    def item_done(self):
        self.items += 1
        if self.items == self.rss_after:
            self.peak_rss_mb = peak_rss_mb()

    def finish(self, clock):
        self.clock = clock
        if self.peak_rss_mb is None:
            self.peak_rss_mb = peak_rss_mb()


class Clock:
    """Times library calls, scaled to the reference speed (see reference.py),
    and switches the tracer on only around them.  ``canonical_hits`` counts
    the canonical-form cache lookups that timed calls answered from the cache."""

    def __init__(self, tracer, reference_samples=1):
        self.tracer = tracer
        self.samples = reference_samples
        self.reference = Reference()
        self.references = []
        self.busy_s = 0.0
        self.raw_busy_s = 0.0
        self.canonical_hits = 0
        self._before = None

    def __enter__(self):
        if self._before is None:
            self._before = self._measure_reference()
        if self.tracer is not None:
            self.tracer.active = True
        self._hits = tournaments._canonical_order.cache_info().hits
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        raw = time.perf_counter() - self._start
        if self.tracer is not None:
            self.tracer.active = False
        self.canonical_hits += tournaments._canonical_order.cache_info().hits - self._hits
        after = self._measure_reference()
        self.elapsed = raw * NOMINAL_S / ((self._before + after) / 2)
        self._before = after
        self.busy_s += self.elapsed
        self.raw_busy_s += raw
        return False

    def _measure_reference(self):
        # long calls are bracketed by only two references, so a stall
        # during one reference sample would skew them: take a median
        r = statistics.median(self.reference.measure() for _ in range(self.samples))
        self.references.append(r)
        return r


def p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


# -- set-up: what a user pays before the first call ------------------------

def setup(workload):
    """Returns the state the workload needs; setup_s times exactly this."""
    if workload == "solve-k4":
        return {"ctx": construction.context(4)}
    if workload == "exact-k5":
        return {"ctx": construction.context(5)}
    classes = [T for n in range(1, FLAG_MAX_N + 1) for T in tournaments.enumerate_exact(n)]
    return {
        "classes": classes,
        "letters": words.enumerate_lyndon(FLAG_MAX_N),
        "polys": {T: flagalg.express(T) for T in classes},
    }


# -- solve-k4 ---------------------------------------------------------------

def _uncached_densities(ctx, params):
    # targets come from the same sum density() uses, without filling its
    # cache: a round trip recovers params exactly, and a cached target would
    # let the solver's own exact verification skip its work
    W = construction.build(ctx, params)
    measures = [b.measure for b in W.blocks]
    kinds = [b.diagonal for b in W.blocks]
    return [tournamentons.map_sum(T, measures, kinds, W.cross, ZERO) for T in ctx.lyndon_seq]


def _ball_point(rng, x0, radius):
    while True:
        d = [rng.gauss(0.0, 1.0) for _ in x0]
        norm = math.sqrt(sum(v * v for v in d))
        if norm == 0:
            continue
        r = radius * rng.random() ** (1.0 / len(x0))
        point = [x + r * v / norm for x, v in zip(x0, d)]
        if all(0.0 < p < 1.0 for p in point):
            return point


def _check_converged(res, ctx, rep, kind, targets, tolerance):
    """True when the solve verifies.  Recomputes the densities at the
    reported rational s through density_s_poly, not the build + density
    route the solver verifies with.  The report's own exact values must
    match them, else the output is wrong and the solve fails.  They must
    also meet the tolerance; the solver declares convergence on floats and
    reports the exact errors next to it, so a miss is a noted solver
    outcome, counted in solved_frac, not a false claim."""
    point = {poly.s_var(j): s for j, s in enumerate(rep.s_rational, start=1)}
    values = [construction.density_s_poly(ctx, i, rep.t).evaluate(point)
              for i in range(1, ctx.ell + 1)]
    if [Q(v["achieved"]) for v in rep.verification] != values:
        res.fail("%s solve reports exact densities that do not match s" % kind)
        return False
    error = max(abs(v - x) for v, x in zip(values, targets))
    if error > Q(tolerance):
        res.note("%s solve converged but misses the tolerance exactly: %.3g"
                 % (kind, error))
        return False
    return True


def solver_stats():
    return {kind: {"solves": 0, "attempts": 0, "iterations": 0, "verified": 0, "status": {}}
            for kind in SOLVE_KINDS}


def solver_counters(stats):
    """Per-layer solver metrics from SolveReport fields, split by target
    kind, each per solve of that kind; zero for workloads that do not solve.
    ``solved_frac`` is the share that converged and passed the exact checks."""
    out = {}
    for kind, s in stats.items():
        k = "solver.%s." % kind
        n = max(s["solves"], 1)
        out[k + "attempts_per_solve"] = (s["attempts"] / n, "attempts/solve")
        out[k + "iterations_per_solve"] = (s["iterations"] / n, "iters/solve")
        for status in STATUSES:
            out[k + "status." + status] = (s["status"].get(status, 0) / n, "ratio")
        out[k + "solved_frac"] = (s["verified"] / n, "ratio")
    return out


def run_solve_k4(state, rng, seconds, tracer):
    ctx = state["ctx"]
    tolerance = solver.SolveOptions().tolerance
    x0 = [float(x) for x in _uncached_densities(ctx, solver.default_params(ctx))]
    res = Result(RSS_AFTER_ITEMS["solve-k4"])
    clock = Clock(tracer)
    stats = solver_stats()
    times = {kind: [] for kind in SOLVE_KINDS}
    # ball solves at the largest radius, which almost all use every attempt
    far = []
    used_t = set()
    deadline = time.perf_counter() + seconds
    n = 0
    while n < 2 * len(BALL_RADII) or time.perf_counter() < deadline:
        kind = SOLVE_KINDS[n % 2]
        if kind == "round_trip":
            params = construction.random_params(ctx, rng)
            while params.t in used_t:
                params = construction.random_params(ctx, rng)
            used_t.add(params.t)
            targets = _uncached_densities(ctx, params)
            with clock:
                rep = solver.solve(ctx, targets, t=params.t)
        else:
            radius = BALL_RADII[n // 2 % len(BALL_RADII)]
            point = _ball_point(rng, x0, radius)
            targets = [Q(x) for x in point]
            with clock:
                rep = solver.solve(ctx, point)
            if radius == max(BALL_RADII):
                far.append(clock.elapsed)
        n += 1
        times[kind].append(clock.elapsed)
        res.attempted += 1
        s = stats[kind]
        s["solves"] += 1
        s["attempts"] += rep.attempts
        s["iterations"] += rep.iterations
        s["status"][rep.status] = s["status"].get(rep.status, 0) + 1
        if rep.converged:
            s["verified"] += _check_converged(res, ctx, rep, kind, targets, tolerance)
        elif kind == "round_trip":
            res.note("round trip ended %s: %s" % (rep.status, rep.detail))
        res.item_done()
    every = times["round_trip"] + times["ball"]
    res.finish(clock)
    res.metrics = {
        "primary_s": statistics.median(times["round_trip"]),
        # the p90 of all solves falls inside the far-ball mode, and a median
        # of that mode is the steadier figure for the same cost
        "secondary_s": statistics.median(far),
        "throughput_per_s": len(every) / clock.busy_s,
    }
    res.counters = solver_counters(stats)
    res.details = {
        "solves": len(every),
        "solve_p50_s": statistics.median(every),
        "round_trip_p50_s": res.metrics["primary_s"],
        "ball_p50_s": statistics.median(times["ball"]),
        "far_ball_p50_s": res.metrics["secondary_s"],
        "solve_p90_s": p90(every),
        "solves_per_s": res.metrics["throughput_per_s"],
        "solved_frac": stats["ball"]["verified"] / stats["ball"]["solves"],
        "round_trip_solved_frac":
            stats["round_trip"]["verified"] / stats["round_trip"]["solves"],
        "ball_targets_share_default_t": True,
    }
    return res


# -- exact-k5 ---------------------------------------------------------------

def run_exact_k5(state, rng, seconds, tracer):
    ctx = state["ctx"]
    codes = [tournaments.encode(T) for T in ctx.lyndon_seq]
    idx = [codes.index(code) + 1 for code in K5_LETTERS]
    res = Result(RSS_AFTER_ITEMS["exact-k5"])
    clock = Clock(tracer, reference_samples=25)
    density_s, jacobian_s = [], []
    seen_t = set()
    deadline = time.perf_counter() + seconds
    while not density_s or time.perf_counter() < deadline:
        params = construction.random_params(ctx, rng)
        if params.t in seen_t:
            continue
        seen_t.add(params.t)
        point = {poly.s_var(j): s for j, s in enumerate(params.s, start=1)}
        # one timed block per letter, so the reference is measured between them
        with clock:
            W = construction.build(ctx, params)
        spent = clock.elapsed
        values = []
        for i in idx:
            with clock:
                values.append(tournamentons.density(ctx.lyndon_seq[i - 1], W))
            spent += clock.elapsed
        density_s.append(spent)
        # one Jacobian row per letter: its s-polynomial and all ell partials
        spent = 0.0
        polys, rows = [], []
        for i in idx:
            with clock:
                p = construction.density_s_poly(ctx, i, params.t)
                rows.append([p.partial_derivative(poly.s_var(j)).evaluate(point)
                             for j in range(1, ctx.ell + 1)])
            polys.append(p)
            spent += clock.elapsed
        with clock:
            det = poly.det_rational([[row[j - 1] for j in idx] for row in rows])
        jacobian_s.append(spent + clock.elapsed)
        res.attempted += 2 * len(idx) + 1
        for code, value, p in zip(K5_LETTERS, values, polys):
            if p.evaluate(point) != value:
                res.fail("%s: build + density and density_s_poly disagree" % code)
        if det == 0:
            res.fail("Jacobian minor is singular at the sampled point", wrong=False)
        res.item_done()
    res.finish(clock)
    res.metrics = {
        "primary_s": statistics.median(density_s),
        "secondary_s": statistics.median(jacobian_s),
        "throughput_per_s": 2 * len(idx) * len(density_s) / clock.busy_s,
    }
    res.details = {
        "points": len(density_s),
        "letters": list(K5_LETTERS),
        "density_point_s": res.metrics["primary_s"],
        "jacobian_point_s": res.metrics["secondary_s"],
    }
    return res


# -- flag-algebra -----------------------------------------------------------

def random_flag_tournamenton(rng):
    """Three blocks, one with the half diagonal, every cross entry strictly
    between 0 and 1, so no cross factor prunes the density walk."""
    kinds = [tournamentons.HALF_KIND] + [tournamentons.TRANSITIVE_KIND] * 2
    rng.shuffle(kinds)
    weights = [rng.randint(1, 8) for _ in kinds]
    B = len(kinds)
    cross = [[ZERO] * B for _ in range(B)]
    for i in range(B):
        for j in range(i + 1, B):
            den = rng.randint(2, 12)
            cross[i][j] = Q(rng.randint(1, den - 1), den)
            cross[j][i] = 1 - cross[i][j]
    blocks = [(Q(w, sum(weights)), kind) for w, kind in zip(weights, kinds)]
    return tournamentons.step_tournamenton(blocks, cross)


def _fresh_pair(rng, sizes, used):
    n1, n2 = sizes
    for _ in range(1000):
        pair = (rng.choice(tournaments.enumerate_exact(n1)),
                rng.choice(tournaments.enumerate_exact(n2)))
        if rng.random() < 0.5:
            pair = pair[::-1]
        if pair not in used:
            used.add(pair)
            return pair
    return None


def _product_ok(T1, T2, combo, D):
    n = T1.n + T2.n
    if n <= FLAG_MAX_N:
        return sum((c * D[S] for S, c in combo.items()), ZERO) == D[T1] * D[T2]
    # density stops at 6 vertices: check the mass and the canonical support
    return (sum(combo.values()) == 2 ** (T1.n * T2.n)
            and all(S.n == n and tournaments.canonicalize(S) == S for S in combo))


def _forget_canonical_forms():
    """Empties the caches a repeated labelled tournament would hit; called
    outside the clock."""
    tournaments._canonical_order.cache_clear()
    flagalg._product_cache.clear()


def run_flag_algebra(state, rng, seconds, tracer):
    classes, polys, letters = state["classes"], state["polys"], state["letters"]
    by_size = {}
    for T in classes:
        by_size.setdefault(T.n, set()).add(T)
    res = Result(RSS_AFTER_ITEMS["flag-algebra"])
    clock = Clock(tracer, reference_samples=3)
    batch_s, density_s, group_s = [], [], []
    used_pairs = set()
    sample_seed = rng.getrandbits(32)
    draws = 0
    deadline = time.perf_counter() + seconds
    while not batch_s or time.perf_counter() < deadline:
        pairs = [_fresh_pair(rng, sizes, used_pairs) for sizes in FLAG_PRODUCT_SIZES]
        if None in pairs:
            break
        W = random_flag_tournamenton(rng)
        _forget_canonical_forms()
        with clock:
            D = {T: tournamentons.density(T, W) for T in classes}
        density_s.append(clock.elapsed)
        with clock:
            point = {poly.x_var(tournaments.encode(S)): D[S] for S in letters}
            expressed = {T: polys[T].evaluate(point) for T in classes}
            products = [flagalg.product(T1, T2) for T1, T2 in pairs]
        batch_s.append(density_s[-1] + clock.elapsed)
        res.attempted += len(classes) + len(pairs)
        for T in classes:
            if expressed[T] != D[T]:
                res.fail("express(%s) disagrees with density" % tournaments.encode(T))
        for (T1, T2), combo in zip(pairs, products):
            if not _product_ok(T1, T2, combo, D):
                res.fail("product identity fails for %s x %s"
                         % (tournaments.encode(T1), tournaments.encode(T2)))
        for _ in range(FLAG_GROUPS):
            group = []
            _forget_canonical_forms()
            with clock:
                for n in FLAG_SAMPLE_N:
                    for _ in range(FLAG_DRAWS_PER_N):
                        group.append(tournaments.canonicalize(
                            tournamentons.sample(W, n, sample_seed + draws)))
                        draws += 1
            group_s.append(clock.elapsed)
            res.attempted += len(group)
            for C in group:
                if C not in by_size[C.n]:
                    res.fail("sampled class %s is not enumerated" % tournaments.encode(C))
        res.item_done()
    res.finish(clock)
    res.metrics = {
        "primary_s": statistics.median(batch_s),
        "secondary_s": statistics.median(density_s),
        # median over groups: a group is short enough that one stall skews a sum
        "throughput_per_s": draws / len(group_s) / statistics.median(group_s),
    }
    res.details = {
        "batches": len(batch_s),
        "flag_batch_s": res.metrics["primary_s"],
        "class_densities_s": res.metrics["secondary_s"],
        "samples_per_s": res.metrics["throughput_per_s"],
        "samples_per_s_mean": draws / sum(group_s),
    }
    return res


WORKLOADS = {
    "solve-k4": run_solve_k4,
    "exact-k5": run_exact_k5,
    "flag-algebra": run_flag_algebra,
}
