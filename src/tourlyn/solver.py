"""Damped Newton inversion of the density map s -> (t(T_i, W_k(s, t)))_i.

The t-parameters stay fixed and only s moves, which keeps the system
square with the certified ell x ell Jacobian.  Each solve takes the
integer s-forms of construction.s_forms once; the Newton loop reads them
as float terms N / scale, the row sums as R_i / D.  An attempt is one
damped Newton run in log coordinates, floats only: the step solves
J d = log x - log G (J the Jacobian of log G in log s), moves s_j to
s_j exp(lam d_j) and halves lam until the merit, the largest relative
error, drops.  Row i of J, s_j dG_i/ds_j / G_i, comes from the pass that
gives G_i (construction.value_and_euler).  A damped trial is one fused
pass, values and merit together, that stops at the first component whose
relative error reaches the current merit, where the trial is rejected.
Log coordinates are scale-free, which this map needs: target components
differ by orders of magnitude (densities scale like s^n), and greedy
descent walks into boundary basins it cannot leave.
A run stops after ITERATION_CAP steps, at MERIT_FLOOR, on a stall or when
no damped step helps, and is float-converged when the absolute residual
meets the tolerance, however it stopped.

Newton alone is local, so the starts do the global work: rescalings of
the base point s_i = 1/(2 ell r_i), r_i the sum of t-row i, by every
combination of GRID_FACTORS up to GRID_MAX components and uniformly
above.  The starts run one at a time in grid order, and the distinct end
points of their runs are the attempts.

`converged` means exactly verified: a float-converged attempt is rounded
to rationals s = A / L (continued fraction, denominator <= 10^6) as soon
as its run ends.  The open-domain test is in integers, and each density
is one integer sum of the s-form over scale * L^n_i, the exact value of
construction.point_densities (the tests' oracle for this check).  Where
that rounding misses the tolerance or leaves the domain (near a simple
rational it snaps onto it, and a component below 5e-7 rounds to 0), the
float's exact binary value is verified instead.  The first attempt whose
rational point is in the domain and meets the tolerance is the report; the
remaining starts never run.  A failed report keeps the 10^6 rounding
whenever it is in the domain.  Of several preimages near the target the
report is the earliest start's, not necessarily the one of least merit.
When no attempt verifies, the report is the attempt of least merit.

Floats are not trusted with singularity either: a float-singular Jacobian
is reported as singular-jacobian only if the exact one at the rounded
iterate, construction.jacobian_at, is.  A run's SolveReport gets its final
status in one function, _finish, which verifies it; a float-singular run
is classified only if it is the one reported.  Failure modes are data, not
exceptions: reports carry a status out of converged / singular-jacobian /
domain-violation / no-convergence.
"""

import random
from dataclasses import dataclass, field
from itertools import product
from math import exp, isfinite, lcm, log
from numbers import Integral, Real

from .construction import WkParams, jacobian_at, s_forms, value_and_euler
from .errors import DomainError
from .poly import det_rational
from .rational import ONE, Q, ZERO, as_q, fmt_q, q_from_float

MIN_STEP = 2.0 ** -20
RATIONALIZE_DENOMINATOR = 10 ** 6

ITERATION_CAP = 80
MERIT_FLOOR = 1e-12
# per-component grid factors blow up as GRID^ell; above GRID_MAX components
# only uniform rescalings of the base start are tried
GRID_FACTORS = (1.0, 0.25, 0.0625)
GRID_MAX = 4
LADDER_DEPTH = 11
ATTEMPT_CAP = 12


@dataclass
class SolveOptions:
    """The absolute max-norm tolerance a converged solve meets exactly, at
    the rational point it reports."""

    tolerance: float = 1e-10

    def __post_init__(self):
        if not self.tolerance > 0:
            raise DomainError("tolerance must be positive, got %r" % self.tolerance)


@dataclass
class SolveReport:
    """The one record of a Newton run: _newton fills the float fields, solve
    t, attempts and runs, and _finish the exact fields and final status."""

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
    if isinstance(x, float):
        if not isfinite(x):
            raise DomainError("target %r is not a finite number" % x)
        return q_from_float(x)
    return as_q(x)


def _rational_points(s_floats, D, R):
    """The rational points s = A / L (L the lcm of the denominators) that
    stand for the float point s, in order of preference: its rounding to
    denominators of at most RATIONALIZE_DENOMINATOR, then its exact binary
    value; those in the open domain, every A_j > 0 and sum A_i R_i < L D."""
    if any(x <= 0 for x in s_floats):
        return
    for max_denominator in (RATIONALIZE_DENOMINATOR, None):
        s = tuple(q_from_float(x, max_denominator) for x in s_floats)
        L = lcm(*(q.denominator for q in s))
        A = [q.numerator * (L // q.denominator) for q in s]
        if min(A) > 0 and sum(a * r for a, r in zip(A, R)) < L * D:
            yield s, A, L


def _values_and_merit(fpolys, targets_f, s, bound):
    """The values at s, floored at 1e-300 to keep logs finite, and their
    merit, the largest relative error in max()'s order; None as soon as one
    relative error reaches `bound`, which the merit then cannot drop below
    (a NaN bound stops nothing).  Relative errors, as the absolute max-norm
    is blind to a 1e-5 target next to a 1e-3 one, and descent on it walks
    into boundary basins where the small component is never met."""
    values = []
    merit = None
    for terms, x in zip(fpolys, targets_f):
        g = 0.0
        for c, mono in terms:
            for j, e in mono:
                c *= s[j] ** e
            g += c
        if g < 1e-300:
            g = 1e-300
        err = abs(x - g) / x
        if err >= bound:
            return None
        if merit is None or err > merit:
            merit = err
        values.append(g)
    return values, merit


def _residual(targets, values):
    return max(abs(x - g) for x, g in zip(targets, values))


def _float_solve(A, b):
    """Gaussian elimination with partial pivoting, the first largest entry
    of a column its pivot; None when singular."""
    n = len(b)
    M = [row + [bv] for row, bv in zip(A, b)]
    for c in range(n):
        p, big = c, abs(M[c][c])
        for r in range(c + 1, n):
            if abs(M[r][c]) > big:
                p, big = r, abs(M[r][c])
        if big < 1e-300:
            return None
        M[c], M[p] = M[p], M[c]
        piv = M[c][c]
        M[c] = [v / piv for v in M[c]]
        for r in range(n):
            if r != c and M[r][c]:
                f = M[r][c]
                M[r] = [v - f * w for v, w in zip(M[r], M[c])]
    return [M[r][n] for r in range(n)]


def _newton(fpolys, row_sums, targets_f, start, tolerance, want_trace):
    """One damped Newton run in log coordinates from `start`, on floats
    only; returns its SolveReport, not yet verified.  fpolys are the float
    term lists of the s-polynomials and row_sums the row sums of t, for the
    domain test.

    A trial is one loop over the components for the damped point and its
    domain sum, then the fused pass, _values_and_merit, stopped by the
    current merit; an accepted trial has every value.  Halving backtracks
    on the merit, while the run is converged when the absolute residual
    meets the tolerance, however it stopped.  Otherwise it keeps the reason
    the run stopped; a float-singular Jacobian stops it with the status
    "float-singular", which _finish decides exactly.
    """
    s = [float(x) for x in start]
    if not (all(x > 0.0 for x in s) and sum(a * b for a, b in zip(s, row_sums)) < 1.0):
        return SolveReport(
            "domain-violation", tuple(s), detail="initial point outside the open domain"
        )
    trace = []
    log_targets = [log(x) for x in targets_f]
    G, merit = _values_and_merit(fpolys, targets_f, s, float("nan"))
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
        # G holds the floored values at s, bit for bit those of this pass
        Jlog = [[v / g for v in value_and_euler(terms, s)[1]] for terms, g in zip(fpolys, G)]
        d = _float_solve(Jlog, [lx - log(g) for lx, g in zip(log_targets, G)])
        if d is None:
            status, detail = "float-singular", ""
            break
        lam, accepted = 1.0, None
        while lam >= MIN_STEP:
            # the clamp of max(min(lam d_j, 30), -30), NaN passing through,
            # and the domain sum from int 0 in order, as sum() adds
            trial, used = [], 0
            for v, dd, rs in zip(s, d, row_sums):
                z = lam * dd
                if z > 30.0:
                    z = 30.0
                elif z < -30.0:
                    z = -30.0
                v *= exp(z)
                trial.append(v)
                used += v * rs
            if used < 1.0:
                out = _values_and_merit(fpolys, targets_f, trial, merit)
                if out is not None and out[1] < merit:
                    accepted = (trial, *out, lam)
                    break
            lam /= 2
        if accepted is None:
            status, detail = "domain-violation", "no admissible damped step reduced the residual"
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


def _finish(ctx, forms, targets, tolerance, report):
    """Verifies a run exactly and decides its final status, the one place
    that does.  The first of _rational_points is the report's point, where
    the exact Jacobian decides a float-singular run; a converged run that
    misses there tries the float's exact binary value next.  A converged or
    float-singular run with no rational point is a domain-violation; other
    runs keep their status, so finishing twice changes nothing."""
    _, D, R, letters = forms
    error = None
    for s, A, L in _rational_points(report.s, D, R):
        values = [Q(value_and_euler(terms, A)[0], scale * L ** n) for scale, n, terms in letters]
        verification = [
            {"target": fmt_q(x), "achieved": fmt_q(g), "abs_error": abs(float(x - g))}
            for x, g in zip(targets, values)
        ]
        if error is None:
            report.s_rational, report.verification = s, verification
            error = max(v["abs_error"] for v in verification)
            if report.status == "float-singular":
                if det_rational(jacobian_at(ctx, WkParams(s, report.t))) == 0:
                    report.status = "singular-jacobian"
                    report.detail = "exact Jacobian is singular at the rounded iterate"
                else:
                    report.status = "no-convergence"
                    report.detail = "float Jacobian singular; the exact one is not"
            if report.status != "converged" or error <= tolerance:
                return report
        elif max(v["abs_error"] for v in verification) <= tolerance:
            # the rounding missed; the float's exact binary value meets it
            report.s_rational, report.verification = s, verification
            return report
    if error is not None:
        report.status, report.detail = "no-convergence", (
            "exact error %.3g at the rounded solution exceeds the tolerance %.3g"
            % (error, tolerance)
        )
    elif report.status in ("converged", "float-singular"):
        what = "solution" if report.converged else "iterate"
        report.status = "domain-violation"
        report.detail = what + " rounds outside the open domain"
    return report


def _grid(row_sums):
    """The grid starts: rescalings of the base point, per component up to
    GRID_MAX components and uniformly above."""
    ell = len(row_sums)
    base = [1.0 / (2 * ell * rs) for rs in row_sums]
    if ell > GRID_MAX:
        return [[f * b for b in base] for f in GRID_FACTORS]
    return [
        [f * b for f, b in zip(combo, base)]
        for combo in product(GRID_FACTORS, repeat=ell)
    ]


def solve(ctx, x_target, t=None, s0=None, options=None, want_trace=False):
    """Find s with density(T_i, W_k(s, t)) = x_target_i to the tolerance.

    x_target entries may be floats or rationals; floats convert exactly,
    and NaN or infinite ones raise DomainError, as does an s0 or x_target
    of the wrong length or an s0 entry float() refuses.  Entries must lie
    strictly inside (0, 1): boundary targets are not in the open region
    the construction parameterizes, and are reported as domain-violation
    without iterating.

    With no explicit s0, Newton runs go from the grid starts in order and
    each new float-converged end point is verified at once, at the rational
    points of the module docstring, by the integer s-forms (its
    `verification`); the first that verifies is the report.  An explicit s0 is honored exactly: one run
    from that point, no restarts.  A float-converged attempt that misses
    ends no-convergence, its detail giving the exact error of the rounding,
    and the next start runs.  A float-singular Jacobian ends a run.
    _finish decides the status: a float-converged run's as soon as it ends,
    any other run's only if it is reported, so a float-singular run costs an
    exact Jacobian only then.  `attempts` counts the distinct end points up
    to the report; when none verifies, every start has run and the report
    is the attempt of best merit (the last of its residual_history), with
    `attempts` capped at ATTEMPT_CAP.  `runs` counts the Newton runs.
    `trace` holds the reported attempt's Newton steps when want_trace is
    set.  t and the non-float targets are exact inputs, read by
    rational.as_q: a float in t or a malformed target is a DomainError.
    """
    tolerance = (options or SolveOptions()).tolerance
    forms = s_forms(ctx, default_params(ctx).t if t is None else t)
    t, D, R, letters = forms
    if len(x_target) != ctx.ell:
        raise DomainError("expected %d targets, got %d" % (ctx.ell, len(x_target)))
    if s0 is not None:
        if len(s0) != ctx.ell:
            raise DomainError("expected %d start components, got %d" % (ctx.ell, len(s0)))
        for x in s0:
            try:
                float(x)
            except (TypeError, ValueError):
                raise DomainError("start component %r is not a number" % (x,)) from None
    targets = [_as_target(x) for x in x_target]
    if any(not (ZERO < x < ONE) for x in targets):
        return SolveReport(
            "domain-violation", tuple(s0 or ()), t=t,
            detail="target not strictly inside (0,1)", attempts=0, runs=0,
        )
    targets_f = [float(x) for x in targets]
    # int true division rounds correctly: bit for bit float(Q(N, scale))
    fpolys = [[(N / scale, mono) for N, mono in terms] for scale, _, terms in letters]
    row_sums = [r / D for r in R]

    reports = []
    runs = 0
    for start in _grid(row_sums) if s0 is None else [s0]:
        rep = _newton(fpolys, row_sums, targets_f, start, tolerance, want_trace)
        rep.t = t
        runs += 1
        # starts that end at the same point are one attempt
        if any(
            all(abs(a - b) <= 1e-9 + 1e-6 * abs(b) for a, b in zip(rep.s, seen.s))
            for seen in reports
        ):
            continue
        reports.append(rep)
        if rep.converged and _finish(ctx, forms, targets, tolerance, rep).converged:
            rep.attempts, rep.runs = len(reports), runs
            return rep
    reports.sort(key=lambda r: r.residual_history[-1] if r.residual_history else float("inf"))
    best = reports[0]
    best.attempts, best.runs = min(len(reports), ATTEMPT_CAP), runs
    return _finish(ctx, forms, targets, tolerance, best)


def _ball_point(rng, x0, radius):
    """Uniform draw from the ball of the given radius around x0, rejected
    until it lands inside (0,1)^ell; radius 0 returns x0 itself."""
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
    are not exceptions.  A centre of the wrong length or not a real point
    of (0,1)^ell, an eps not a finite real >= 0, or samples not a positive
    integer is a DomainError, raised before any draw.
    """
    if len(x0) != ctx.ell:
        raise DomainError("expected %d coordinates, got %d" % (ctx.ell, len(x0)))
    if not all(isinstance(x, Real) and isfinite(x) for x in x0):
        raise DomainError("x0 coordinates must be finite numbers, got %r" % (list(x0),))
    if not all(0.0 < x < 1.0 for x in x0):
        raise DomainError("the centre x0 = %r lies outside (0,1)^ell" % (list(x0),))
    if not (isinstance(eps, Real) and eps >= 0 and isfinite(eps)):
        raise DomainError("eps must be nonnegative and finite, got %r" % (eps,))
    if not (isinstance(samples, Integral) and samples >= 1):
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
