"""Damped Newton inversion of the density map s -> (t(T_i, W_k(s, t)))_i.

The t-parameters stay fixed and only s moves, which keeps the system
square with the certified ell x ell Jacobian.  Each solve reads t
through one construction.TView, made once per solve at an explicit t and
once per context at the default t: the integer s-forms of its letters,
which the Newton loop reads as one flat tuple of float coefficients N /
scale, and the row sums as R_i / D (its floats).  An attempt is one
damped Newton run in log coordinates, floats only: the step solves J d =
log x - log G (J the Jacobian of log G in log s), moves s_j to s_j
exp(lam d_j) and halves lam until the merit, the largest relative error,
drops.  The float side runs in three kernels,
straight-line code that _compile_kernels generates from the letters'
s-monomials, once per context (WkContext._float_kernels): the values and
merit at the start, the direction d, and a step's backtracking, so that
an iteration is two compiled calls.  Row i of J, s_j dG_i/ds_j / G_i, is
the Euler row of G_i's terms, and direction solves for d by a pivoted
Gauss-Jordan elimination unrolled over ell (_elimination).  A damped
trial is one pass inside step, values and merit together, emitted by the
same lines as the values kernel; it stops at the first component whose
relative error reaches the current merit, where the trial is rejected.
The kernels' arithmetic is construction.value_and_euler's bit for bit;
that generic pass is jacobian_at's (integer s-forms at s = A / L) and
the kernels' test oracle.
Log coordinates are scale-free, which this map needs: target components
differ by orders of magnitude (densities scale like s^n), and greedy
descent walks into boundary basins it cannot leave.
A run stops after ITERATION_CAP steps, at MERIT_FLOOR, on a stall or when
no damped step helps, and is float-converged when the absolute residual
meets the tolerance, however it stopped.

Newton alone is local, so the starts do the global work: rescalings of
the base point s_i = 1/(2 ell r_i), r_i the sum of t-row i, by every
combination of GRID_FACTORS up to GRID_MAX components and uniformly
above.  The starts are built and run one at a time in grid order, and
the distinct end points of their runs are the attempts.

A solve reads each target once (_as_target), into the (numerator,
denominator) ints of its exact value, a float's by float.as_integer_ratio,
the one float-to-exact crossing, which also reads the Newton end points;
the refusals and _finish read those ints, so past its inputs a solve
builds Q only for its report's s_rational and t.

`converged` means exactly verified: a float-converged attempt is read at
its exact binary value, s = A / L (float.as_integer_ratio per coordinate,
L the lcm of the denominators), as soon as its run ends, in Python ints,
with no Fraction arithmetic on the way: the open-domain test is
construction.integer_point's, and each density is one integer sum of the
s-form over scale * L^n_i, reduced by one gcd: construction.form_values,
which point_densities reads too, and which the tests hold to build +
density.  Its error from the target is one int true division, correctly
rounded, so abs(float(x - g)) bit for bit; Q is built only for the
coordinates of a point that is in the domain.  So a report's s_rational
is exactly its s.  The first attempt whose point is in the domain and
meets the tolerance is the report; the remaining starts are never built.
Of several preimages near the target the report is the earliest start's,
not necessarily the one of least merit.  When no attempt verifies, the
report is the attempt of least merit.

Floats are not trusted with singularity either: a float-singular Jacobian
is reported as singular-jacobian only if the exact one at the reported
point, construction.jacobian_of_forms on the solve's s-forms, is.  A
run's SolveReport gets its final status in one function, _finish, which
verifies it; a float-singular run is classified only if it is the one
reported.

Failure modes are data; input errors, a boundary or below-float-range
target among them, raise DomainError.  A report's status is one of

    converged          -- the reported rational point meets the tolerance
                          exactly;
    unreachable        -- at k = 4, the target violates the inequality of
                          construction.unreachable, so it is outside the
                          image of W_4(s, t) over the whole domain; decided
                          before any Newton run;
    unreachable-at-t   -- proved that no s in the domain attains the target
                          at this t (construction.unreachable_at_t, k = 4
                          and 5); decided before any Newton run;
    singular-jacobian  -- the exact Jacobian at the reported iterate is
                          singular;
    no-convergence     -- the runs stalled, hit the iteration cap or found no
                          admissible damped step, or the reported end point
                          lies outside the open domain or misses the
                          tolerance exactly.

Only converged, unreachable and unreachable-at-t are proved verdicts on
the target; the other failures say what the solver did, not that the
target is unattained.
"""

import linecache
import random
from dataclasses import dataclass, field
from itertools import product
from math import exp, isfinite, log
from numbers import Integral, Real

from .construction import (
    TView, WkParams, _length, form_values, integer_point, jacobian_of_forms, unreachable,
    unreachable_at_t,
)
from .errors import DomainError
from .poly import det_rational
from .rational import Q, as_q

MIN_STEP = 2.0 ** -20

ITERATION_CAP = 80
MERIT_FLOOR = 1e-12
# per-component grid factors blow up as GRID^ell; above GRID_MAX components
# only uniform rescalings of the base start are tried
GRID_FACTORS = (1.0, 0.25, 0.0625)
GRID_MAX = 4
LADDER_DEPTH = 11


@dataclass
class SolveOptions:
    """The absolute max-norm tolerance a converged solve meets exactly, at
    the rational point it reports."""

    tolerance: float = 1e-10

    def __post_init__(self):
        tol = self.tolerance
        if isinstance(tol, bool) or not (isinstance(tol, Real) and isfinite(tol) and tol > 0):
            raise DomainError("tolerance must be a finite positive number, got %r" % (tol,))


@dataclass
class SolveReport:
    """The one record of a Newton run: _newton fills the float fields, solve
    t, attempts and runs, and _finish the exact fields and final status.
    residual_history holds the merit (the largest relative error, which
    solve sorts by), not the absolute residual."""

    status: str
    s: tuple
    s_rational: tuple = ()
    t: tuple = ()
    iterations: int = 0
    residual: float = float("inf")
    residual_history: list = field(default_factory=list)
    verification: list = field(default_factory=list)
    detail: str = ""
    attempts: int = 1
    runs: int = 1
    trace: list = field(default_factory=list)

    @property
    def converged(self):
        return self.status == "converged"


def default_params(ctx):
    """s_i = 1/(2 ell), t_{i,j} = 1/n_i; inside the domain by construction,
    the used measure being exactly 1/2, so not checked again."""
    s = tuple(Q(1, 2 * ctx.ell) for _ in range(ctx.ell))
    t = tuple(tuple(Q(1, n) for _ in range(n)) for n in ctx.sizes)
    return WkParams(s, t)


def _as_target(x):
    """A target's exact value as (numerator, denominator) ints in lowest
    terms, the denominator positive: a float's exact binary value
    (float.as_integer_ratio), anything else read by as_q.  Python ints
    whatever Q is, so that the exact side's arithmetic stays in them."""
    if isinstance(x, float):
        if not isfinite(x):
            raise DomainError("target %r is not a finite number" % x)
        return x.as_integer_ratio()
    x = as_q(x)
    return int(x.numerator), int(x.denominator)


def _rational_point(s_floats, D, R):
    """The float point s at its exact binary value, A / L with L the lcm
    of the denominators of float.as_integer_ratio: (s as Q, A, L), or None
    when construction.integer_point puts it outside the open domain."""
    ratios = [x.as_integer_ratio() for x in s_floats]
    try:
        A, L, _ = integer_point(ratios, D, R)
    except DomainError:
        return None
    return tuple(Q(p, q) for p, q in ratios), A, L


def _compile_kernels(k, monomials):
    """The float kernels of _newton for the context of k, from its letters'
    s-monomials (per letter, the ((j, e), ...) of its s-form's terms), each
    one straight-line function, compiled once (WkContext._float_kernels).
    Each takes the solve's coefficients c, the N / scale floats of every
    letter in s-form term order, as one flat tuple; the source is made of
    the monomials' indices and exponents only, and is registered with
    linecache under a per-k filename, so that tracebacks and profiles show
    its lines.

    values(c, x, s, bound) -- the values at s, floored at 1e-300 to keep
        logs finite, and their merit, the largest relative error in max()'s
        order; None as soon as one relative error reaches `bound`, which the
        merit then cannot drop below (a NaN bound stops nothing).  Relative
        errors, as the absolute max-norm is blind to a 1e-5 target next to a
        1e-3 one, and descent on it walks into boundary basins where the
        small component is never met.
    direction(c, s, G, log_targets) -- the Newton direction d of J d =
        l - log G, or None when J is float-singular: J is the log-Jacobian,
        entry (i, j) the Euler sum s_j dG_i/ds_j, the sum of e_j times each
        term, over G_i (0.0 where s_j is absent), and the solve is
        _elimination's.
    step(c, x, s, d, row_sums, merit) -- one Newton step's backtracking:
        for lam = 1, 1/2, ... down to MIN_STEP, the trial s_j exp(lam d_j),
        the clamp of max(min(lam d_j, 30), -30) written as comparisons (NaN
        passing through) and the domain sum 0 + v_0 r_0 + v_1 r_1 + ...,
        plain float additions left to right from int 0 (uncompensated,
        unlike sum() of floats from Python 3.12 on); a trial inside the
        domain runs values' own lines, at the current merit as the bound.
        Returns (trial, values, merit, lam) of the first trial that lowers
        the merit, None when none does.

    The arithmetic is value_and_euler's, bit for bit: a term is
    ((c * s_j1 ** e1) * s_j2 ** e2) ... in monomial order, each power taken
    once per pass, sums run left to right from the first term (0.0 + x is
    x for these positive terms), and an Euler contribution is e * term."""
    ell = len(monomials)

    def names(prefix, n):
        # "x0, x1, ..., x(n-1),": an unpacking target, a tuple or a list, even at n = 1
        return ", ".join("%s%d" % (prefix, i) for i in range(n)) + ","

    # per letter, its terms as (index into c, monomial)
    letters, count = [], 0
    for letter in monomials:
        letters.append([(count + a, mono) for a, mono in enumerate(letter)])
        count += len(letter)

    def powers(point, terms, done):
        for _, mono in terms:
            for j, e in mono:
                if (j, e) not in done:
                    done.add((j, e))
                    yield "p%d_%d = %s%d ** %d" % (j, e, point, j, e)

    def term(m, mono):
        return " * ".join(["c%d" % m] + ["p%d_%d" % je for je in mono])

    def trial(point, bound, reject):
        # the values pass at point0, point1, ..., letter by letter, each
        # letter's powers taken when it first needs them; `reject` runs at
        # the first relative error reaching `bound`, else m is the merit
        lines, done = [], set()
        for i, terms in enumerate(letters):
            lines += powers(point, terms, done)
            lines += [
                "g%d = %s" % (i, " + ".join(term(m, mono) for m, mono in terms)),
                "if g%d < 1e-300:" % i,
                "    g%d = 1e-300" % i,
                "e%d = abs(x%d - g%d) / x%d" % (i, i, i, i),
                "if e%d >= %s:" % (i, bound),
                "    " + reject,
            ]
            lines += ["m = e0"] if i == 0 else ["if e%d > m:" % i, "    m = e%d" % i]
        return lines

    head = ["%s = c" % names("c", count), "%s = s" % names("s", ell)]
    values = head + ["%s = x" % names("x", ell)] + trial("s", "bound", "return None")
    values.append("return [%s], m" % names("g", ell))

    direction = head + ["%s = G" % names("g", ell), "%s = log_targets" % names("l", ell)]
    direction += powers("s", [pair for terms in letters for pair in terms], set())
    direction += ["t%d = %s" % (m, term(m, mono)) for terms in letters for m, mono in terms]
    for i, terms in enumerate(letters):
        for j in range(ell):
            euler = ["%d * t%d" % (e, m) for m, mono in terms for jj, e in mono if jj == j]
            direction.append(
                "a%d_%d = %s" % (i, j, "(%s) / g%d" % (" + ".join(euler), i) if euler else "0.0")
            )
        direction.append("b%d = l%d - log(g%d)" % (i, i, i))
    direction += _elimination(ell)

    lams, lam = [], 1.0
    while lam >= MIN_STEP:
        lams.append(lam)
        lam /= 2
    step = head + ["%s = x" % names("x", ell), "%s = d" % names("d", ell),
                   "%s = row_sums" % names("r", ell), "for lam in %r:" % (tuple(lams),)]
    for j in range(ell):
        step += ["    z = lam * d%d" % j, "    if z > 30.0:", "        z = 30.0",
                 "    elif z < -30.0:", "        z = -30.0", "    v%d = s%d * exp(z)" % (j, j)]
    step.append("    if 0 + %s < 1.0:" % " + ".join("v%d * r%d" % (j, j) for j in range(ell)))
    step += ["        " + line for line in trial("v", "merit", "continue")]
    step += [
        "        if m < merit:",
        "            return [%s], [%s], m, lam" % (names("v", ell), names("g", ell)),
        "return None",
    ]
    source = "\n".join(
        "def %s:\n%s\n" % (signature, "\n".join("    " + line for line in body))
        for signature, body in (
            ("values(c, x, s, bound)", values),
            ("direction(c, s, G, log_targets)", direction),
            ("step(c, x, s, d, row_sums, merit)", step),
        )
    )
    filename = "<float kernels, k = %d>" % k
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {"exp": exp, "log": log}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["values"], namespace["direction"], namespace["step"]


def _elimination(n):
    """The lines of a Gauss-Jordan solve of the n x n system held in the
    locals a{i}_{j} (the matrix) and b{i} (the right-hand side), unrolled
    over n, ending in `return [b0, ..., b(n-1)]`, or in `return None` when
    singular.  At step c the pivot is the first largest |a{r}_{c}| of rows
    c..n-1, singular when under 1e-300; the swap exchanges columns c..n of
    rows c and p, the pivot row is divided from column c on, and every
    other row whose entry f in column c is nonzero loses f times it.  No
    step reads a column left of its own, so column c is not written once
    its step has read it."""
    lines = []
    for c in range(n):
        # per row, its live variables at step c: columns c..n-1, then b
        rows = [["a%d_%d" % (r, j) for j in range(c, n)] + ["b%d" % r] for r in range(n)]
        lines += ["p = %d" % c, "big = abs(a%d_%d)" % (c, c)]
        for r in range(c + 1, n):
            lines += ["z = abs(a%d_%d)" % (r, c), "if z > big:", "    p, big = %d, z" % r]
        lines += ["if big < 1e-300:", "    return None"]
        for r in range(c + 1, n):
            lines += [
                "%s p == %d:" % ("if" if r == c + 1 else "elif", r),
                "    %s = %s" % (", ".join(rows[c] + rows[r]), ", ".join(rows[r] + rows[c])),
            ]
        lines.append("piv = a%d_%d" % (c, c))
        lines += ["%s = %s / piv" % (v, v) for v in rows[c][1:]]
        for r in range(n):
            if r != c:
                lines += ["f = a%d_%d" % (r, c), "if f:"]
                lines += [
                    "    %s = %s - f * %s" % (v, v, w) for v, w in zip(rows[r][1:], rows[c][1:])
                ]
    lines.append("return [%s]" % ", ".join("b%d" % r for r in range(n)))
    return lines


def _residual(targets, values):
    return max(abs(x - g) for x, g in zip(targets, values))


def _newton(kernels, c, row_sums, targets_f, log_targets, s, tolerance, want_trace):
    """One damped Newton run in log coordinates from the point s, a grid
    start and so inside the open domain, on floats only; returns its
    SolveReport, not yet verified.  kernels are the
    context's values, direction and step (_compile_kernels), c the solve's
    flat coefficient tuple, row_sums the row sums of t, for the domain
    test, and log_targets the logs of targets_f, taken once per solve.

    Each iteration is two kernel calls: direction solves for the step with
    the log-Jacobian, and step backtracks along it, its accepted trial
    carrying every value.  Halving backtracks on the merit, while the run
    is converged when the absolute residual meets the tolerance, however it
    stopped.  Otherwise it keeps the reason the run stopped; a
    float-singular Jacobian stops it with the status "float-singular",
    which _finish decides exactly.
    """
    values, direction, step = kernels
    trace = []
    G, merit = values(c, targets_f, s, float("nan"))
    history = [merit]
    status, detail = "no-convergence", "iteration cap reached"
    for it in range(1, ITERATION_CAP + 1):
        if merit <= MERIT_FLOOR:
            detail = "merit floor reached"
            break
        # crawling down a canyon converges never and costs plenty; a start
        # this bad is cheaper to abandon than to nurse
        if len(history) >= 11 and history[-1] > 0.95 * history[-11]:
            detail = "stalled: relative progress under 5% across 10 iterations"
            break
        d = direction(c, s, G, log_targets)
        if d is None:
            status, detail = "float-singular", ""
            break
        accepted = step(c, targets_f, s, d, row_sums, merit)
        if accepted is None:
            detail = "no admissible damped step reduced the residual"
            break
        s, G, merit, lam = accepted
        history.append(merit)
        if want_trace:
            trace.append(
                {"iteration": it, "s": list(s), "residual": _residual(targets_f, G),
                 "merit": merit, "step": lam}
            )
    residual = _residual(targets_f, G)
    if residual <= tolerance:
        status, detail = "converged", ""
    return SolveReport(
        status, tuple(s), iterations=len(history) - 1, residual=residual,
        residual_history=history, detail=detail, trace=trace,
    )


def _finish(view, targets, tolerance, report):
    """Verifies a run exactly and decides its final status, the one place
    that does.  targets are the (numerator, denominator) ints of each
    letter's target, as _as_target reads them.  The run's end point is
    verified at _rational_point, where the exact Jacobian decides a
    float-singular run.  A converged or float-singular run with no rational
    point, or a converged one that misses the tolerance there, ends
    no-convergence; other runs keep their status, so finishing twice
    changes nothing.

    Each value is gn / gd in lowest terms, construction.form_values on the
    s-forms of view, the solve's TView, and its error from the target x =
    xn / xd is |xn gd - gn xd| / (xd gd) in int true division, correctly
    rounded: abs(float(x - g)) bit for bit."""
    point = _rational_point(report.s, view.D, view.R)
    if point is None:
        if report.status in ("converged", "float-singular"):
            what = "solution" if report.converged else "iterate"
            report.status, report.detail = "no-convergence", what + " rounds outside the open domain"
        return report
    s, A, L = point
    letters = view.letters
    report.s_rational, report.verification = s, [
        {"target": "%d/%d" % (xn, xd), "achieved": "%d/%d" % (gn, gd),
         "abs_error": abs(xn * gd - gn * xd) / (xd * gd)}
        for (gn, gd), (xn, xd) in zip(form_values(letters, A, L), targets)
    ]
    if report.status == "float-singular":
        if det_rational(jacobian_of_forms(letters, A, L)) == 0:
            report.status = "singular-jacobian"
            report.detail = "exact Jacobian is singular at the rounded iterate"
        else:
            report.status = "no-convergence"
            report.detail = "float Jacobian singular; the exact one is not"
    elif report.converged:
        error = max(v["abs_error"] for v in report.verification)
        if error > tolerance:
            report.status, report.detail = "no-convergence", (
                "exact error %.3g at the rounded solution exceeds the tolerance %.3g"
                % (error, tolerance)
            )
    return report


def _grid(row_sums):
    """The grid starts, each built when it is drawn: rescalings of the base
    point, per component up to GRID_MAX components and uniformly above.
    A start has s_j > 0 and s_j r_j = f_j / (2 ell), f_j <= 1, up to
    rounding, so sum_j s_j r_j is about 1/2 at most: every start lies
    inside the open domain for the finite, nonzero row sums r_j that
    construction.TView.floats admits."""
    ell = len(row_sums)
    base = [1.0 / (2 * ell * rs) for rs in row_sums]
    if ell > GRID_MAX:
        combos = ((f,) * ell for f in GRID_FACTORS)
    else:
        combos = product(GRID_FACTORS, repeat=ell)
    for combo in combos:
        yield [f * b for f, b in zip(combo, base)]


def _repeats(s, reports):
    """Whether the end point s is one of the reports' end points, each
    coordinate within 1e-9 + 1e-6 |b| of theirs (a NaN is never within)."""
    for seen in reports:
        for a, b in zip(s, seen.s):
            if not abs(a - b) <= 1e-9 + 1e-6 * abs(b):
                break
        else:
            return True
    return False


def solve(ctx, x_target, t=None, options=None, want_trace=False):
    """Find s with density(T_i, W_k(s, t)) = x_target_i to the tolerance.

    x_target entries may be floats, converted exactly, or exact rationals
    read by rational.as_q.  An x_target that is not a sequence or has the
    wrong length, or an entry that is NaN, infinite or malformed, not
    strictly inside (0, 1), the open region the construction parameterizes,
    or below the float range (it rounds to 0.0), raises DomainError before
    any Newton run.  Every other target then meets the exact test
    construction.unreachable_at_t, and one it refuses at this t is
    reported unreachable-at-t, or unreachable when construction.unreachable,
    run only then, refuses it for every t; its detail is the inequality.
    Such early reports have attempts = runs = iterations = 0.  A t whose
    s-form coefficients leave the float range, or whose row sums would let
    a power in the float kernels overflow, is a DomainError raised by
    construction.TView.floats, before any target is read, whatever the
    target.

    All that depends on t alone is read from its construction.TView: at
    the default t (t None) the one kept on the context, made by the first
    solve there, and at an explicit t a new one per call.  So a solve at
    the default t reads no t, and does only the work of its target.

    Newton runs go from the grid starts in order and each new
    float-converged end point is verified at once, at its exact binary
    value, by the integer s-forms (its `verification`); the first that
    verifies is the report.  A float-converged attempt that misses ends
    no-convergence, its detail giving the exact error there, and the next
    start runs.  A float-singular Jacobian ends a run.
    _finish decides the status: a float-converged run's as soon as it ends,
    any other run's only if it is reported, so a float-singular run costs an
    exact Jacobian only then.  `attempts` counts the distinct end points up
    to the report; when none verifies, every start has run and the report
    is the attempt of best merit (the last of its residual_history).
    `runs` counts the Newton runs.  `trace` holds the reported attempt's
    Newton steps when want_trace is set.  t is an exact input, read by
    rational.as_q: a float in t is a DomainError.
    """
    tolerance = (options or SolveOptions()).tolerance
    view = ctx._default_view if t is None else TView(ctx, t)
    c, row_sums = view.floats
    t = view.t
    if _length(x_target, "targets") != ctx.ell:
        raise DomainError("expected %d targets, got %d" % (ctx.ell, len(x_target)))
    targets = [_as_target(x) for x in x_target]
    if any(not 0 < n < d for n, d in targets):
        raise DomainError("target not strictly inside (0,1)")
    # the float given, or n / d in int true division: float(Q(n, d)) bit for bit
    targets_f = [x if isinstance(x, float) else n / d for x, (n, d) in zip(x_target, targets)]
    if 0.0 in targets_f:
        raise DomainError("target below the float range (under 5e-324): it rounds to 0.0")
    detail = unreachable_at_t(view, targets)
    if detail:
        why = unreachable(ctx, targets)
        status = "unreachable" if why else "unreachable-at-t"
        return SolveReport(status, (), t=t, detail=why or detail, attempts=0, runs=0)
    log_targets = [log(x) for x in targets_f]
    kernels = ctx._float_kernels

    reports = []
    runs = 0
    for start in _grid(row_sums):
        rep = _newton(kernels, c, row_sums, targets_f, log_targets, start, tolerance, want_trace)
        rep.t = t
        runs += 1
        # starts that end at the same point are one attempt
        if _repeats(rep.s, reports):
            continue
        reports.append(rep)
        if rep.converged and _finish(view, targets, tolerance, rep).converged:
            rep.attempts, rep.runs = len(reports), runs
            return rep
    reports.sort(key=lambda r: r.residual_history[-1])
    best = reports[0]
    best.attempts, best.runs = len(reports), runs
    return _finish(view, targets, tolerance, best)


def _ball_point(rng, x0, radius):
    """Uniform draw from the ball of the given radius around x0 intersected
    with (0,1)^ell; radius 0 returns x0 itself.  Draws from the ball are
    rejected until one lands inside (0,1)^ell.  When 1,000 of them miss (a
    centre close to the faces in many coordinates, as at k = 5), draws from
    the box [max(0, c - r), min(1, c + r)]^ell, which holds that set, are
    rejected instead until one lies in both: uniform on the same set."""
    ell = len(x0)
    if radius == 0:
        return list(x0)
    for _ in range(1000):
        direction = [rng.gauss(0.0, 1.0) for _ in range(ell)]
        norm = sum(d * d for d in direction) ** 0.5
        if norm == 0:
            continue
        r = radius * rng.random() ** (1.0 / ell)
        point = [x + r * d / norm for x, d in zip(x0, direction)]
        if all(0.0 < p < 1.0 for p in point):
            return point
    low = [max(0.0, x - radius) for x in x0]
    high = [min(1.0, x + radius) for x in x0]
    for _ in range(10 ** 6):
        point = [a + (b - a) * rng.random() for a, b in zip(low, high)]
        if (all(0.0 < p < 1.0 for p in point)
                and sum((p - x) ** 2 for p, x in zip(point, x0)) <= radius * radius):
            return point
    raise DomainError("could not sample a point inside (0,1)^ell")


def probe_ball(ctx, x0, eps, samples, seed=0):
    """Empirical solvability rate on the eps-ball around x0.

    Runs solve, at the default t and tolerance, on `samples` uniform draws
    from B_eps(x0) intersected with (0,1)^ell, for eps and then dyadic
    halvings of it (LADDER_DEPTH radii at most), stopping at the first
    radius where every draw converges; the draws come from
    random.Random(seed).  Reports per-radius success fractions and status
    counts, the rate at eps, and the largest tested radius with a perfect
    score (None if there is none).  Failures count toward the rate; they
    are not exceptions.  The status counts keep unreachable,
    unreachable-at-t and the failures with no verdict apart.  A centre
    that is not a sequence, of the wrong length or not a real point of
    (0,1)^ell, an eps not a finite real >= 0, or samples not a positive
    integer (a bool is neither) is a DomainError, raised before any draw.
    """
    if _length(x0, "x0") != ctx.ell:
        raise DomainError("expected %d coordinates, got %d" % (ctx.ell, len(x0)))
    if not all(isinstance(x, Real) and isfinite(x) for x in x0):
        raise DomainError("x0 coordinates must be finite numbers, got %r" % (list(x0),))
    if not all(0.0 < x < 1.0 for x in x0):
        raise DomainError("the centre x0 = %r lies outside (0,1)^ell" % (list(x0),))
    if isinstance(eps, bool) or not (isinstance(eps, Real) and eps >= 0 and isfinite(eps)):
        raise DomainError("eps must be nonnegative and finite, got %r" % (eps,))
    if isinstance(samples, bool) or not (isinstance(samples, Integral) and samples >= 1):
        raise DomainError("samples must be a positive integer, got %r" % (samples,))
    # descend dyadically from the requested radius; once a radius scores
    # perfectly there is nothing left to learn from smaller ones
    radii = [eps] if eps == 0 else [eps / (2 ** d) for d in range(LADDER_DEPTH)]
    rng = random.Random(seed)
    per_radius = []
    for radius in radii:
        statuses = {}
        hits = 0
        for _ in range(samples):
            point = _ball_point(rng, x0, radius)
            rep = solve(ctx, point)
            statuses[rep.status] = statuses.get(rep.status, 0) + 1
            if rep.converged:
                hits += 1
        per_radius.append(
            {"radius": radius, "success_rate": hits / samples, "statuses": statuses}
        )
        if hits == samples:
            break
    return {
        "x0": list(x0),
        "eps": eps,
        "samples": samples,
        "per_radius": per_radius,
        "success_rate": per_radius[0]["success_rate"],
        "best_radius": radius if hits == samples else None,
    }
