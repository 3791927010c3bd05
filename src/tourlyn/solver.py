"""Damped Newton inversion of the density map s -> (t(T_i, W_k(s, t)))_i.

The t-parameters stay fixed and only s moves, which keeps the system
square with the certified ell x ell Jacobian.  The finishing iteration is
damped Newton with the step J^{-1}(x - G): float iterates, the Jacobian
evaluated exactly at a rational rounding of each iterate
(continued-fraction, denominator <= 10^6) so singularity detection never
trusts floating point, halving line search, and a converged report
re-verifies the densities exactly at the rounded solution through the
independent build-then-density path.  The s-polynomials and their ell^2
partial derivatives are taken once per solve; every exact Jacobian is
those derivatives evaluated at the rounded iterate.

Newton alone is local, and this map is nastier than it looks: target
components routinely differ by two orders of magnitude (letter sizes
differ, and densities scale like s^n), some components barely react to
their own variable, and greedy descent walks into boundary basins it
cannot leave.  Initialization therefore does the global work.  Candidate
starts are rescalings of the base point s_i = 1/(2 ell r_i), r_i the sum
of t-row i: each component scaled by a factor from GRID_FACTORS, every
combination up to GRID_MAX components and the uniform rescalings above.
Each candidate is polished by a damped Newton phase in log coordinates
(scale-free, so the two-orders-of-magnitude spread is invisible to it);
the distinct polished points, best merit first and at most ATTEMPT_CAP of
them, are handed to the exact-Jacobian finisher.  The report counts the
candidates tried as attempts.

Failure modes are data, not exceptions: reports carry a status out of
converged / singular-jacobian / domain-violation / no-convergence.
"""

import random
from dataclasses import dataclass, field
from itertools import product
from math import exp, log

from .construction import build, check_t, density_s_poly, make_params
from .errors import DomainError
from .poly import s_var, solve_linear
from .rational import ONE, Q, ZERO, fmt_q, q_from_float
from .tournamentons import density

MIN_STEP = 2.0 ** -20
RATIONALIZE_DENOMINATOR = 10 ** 6

POLISH_ITERATIONS = 80
# per-component grid factors blow up as GRID^ell; above GRID_MAX components
# only uniform rescalings of the base start are tried
GRID_FACTORS = (1.0, 0.25, 0.0625)
GRID_MAX = 4
LADDER_DEPTH = 11
ATTEMPT_CAP = 12


@dataclass
class SolveOptions:
    tolerance: float = 1e-10
    max_iterations: int = 100
    min_step: float = MIN_STEP
    rationalize_denominator: int = RATIONALIZE_DENOMINATOR

    def __post_init__(self):
        if self.tolerance <= 0:
            raise DomainError("tolerance must be positive")
        if self.max_iterations < 1:
            raise DomainError("need at least one iteration")


@dataclass
class SolveReport:
    status: str
    s: tuple
    s_rational: tuple
    t: tuple
    iterations: int
    residual: float
    residual_history: list
    verification: list
    detail: str = ""
    attempts: int = 1
    trace: list = field(default_factory=list)

    @property
    def converged(self):
        return self.status == "converged"


def default_params(ctx):
    """s_i = 1/(2 ell), t_{i,j} = 1/n_i; always inside the domain since the
    used measure is exactly 1/2."""
    s = tuple(Q(1, 2 * ctx.ell) for _ in range(ctx.ell))
    t = tuple(tuple(Q(1, n) for _ in range(n)) for n in ctx.sizes)
    return make_params(ctx, s, t)


def _as_target(x):
    if isinstance(x, float):
        return q_from_float(x)
    return Q(x)


def _rationalize(ctx, s_floats, t, denominator):
    if any(x <= 0 for x in s_floats):
        return None
    s_rat = tuple(q_from_float(x, denominator) for x in s_floats)
    try:
        return make_params(ctx, s_rat, t)
    except DomainError:
        return None


def _exact_densities(ctx, params):
    W = build(ctx, params)
    return [density(T, W) for T in ctx.lyndon_seq]


def _float_densities(polys, s):
    point = {s_var(j): v for j, v in enumerate(s, start=1)}
    return [p.evaluate_float(point) for p in polys]


def _in_domain(s, row_sums):
    return all(x > 0.0 for x in s) and sum(a * b for a, b in zip(s, row_sums)) < 1.0


def _residual(targets, values):
    return max(abs(x - g) for x, g in zip(targets, values))


def _merit(targets, values):
    # relative errors: the absolute max-norm is blind to small components
    # (a 1e-5 target next to a 1e-3 one), and greedy descent on it walks
    # into boundary basins where the small component can never be met
    return max(abs(x - g) / x for x, g in zip(targets, values))


def _float_solve(A, b):
    """Gaussian elimination with partial pivoting; None when singular."""
    n = len(b)
    M = [row[:] + [bv] for row, bv in zip(A, b)]
    for c in range(n):
        p = max(range(c, n), key=lambda r: abs(M[r][c]))
        if abs(M[p][c]) < 1e-300:
            return None
        M[c], M[p] = M[p], M[c]
        piv = M[c][c]
        M[c] = [v / piv for v in M[c]]
        for r in range(n):
            if r != c and M[r][c]:
                f = M[r][c]
                M[r] = [v - f * w for v, w in zip(M[r], M[c])]
    return [M[r][n] for r in range(n)]


def _log_polish(polys, dpolys, row_sums, targets_f, s_init):
    """Damped Newton in log coordinates, floats only.

    Scale-free: multiplying a target or a variable by a constant does not
    change the geometry, so the wild spread of target magnitudes that
    cripples naive descent disappears.  Used purely as initialization for
    the exact-Jacobian finisher; its own stalls are not failures.
    """
    ell = len(s_init)
    s = list(s_init)
    G = [max(g, 1e-300) for g in _float_densities(polys, s)]
    merit = _merit(targets_f, G)
    history = [merit]
    for _ in range(POLISH_ITERATIONS):
        if merit <= 1e-12:
            break
        # crawling down a canyon converges never and costs plenty; a start
        # this bad is cheaper to abandon than to nurse
        if len(history) >= 11 and history[-1] > 0.95 * history[-11]:
            break
        point = {s_var(j + 1): v for j, v in enumerate(s)}
        Jlog = [
            [s[j] * dpolys[i][j].evaluate_float(point) / G[i] for j in range(ell)]
            for i in range(ell)
        ]
        rhs = [log(x) - log(g) for x, g in zip(targets_f, G)]
        d = _float_solve(Jlog, rhs)
        if d is None:
            break
        lam, accepted = 1.0, None
        while lam >= MIN_STEP:
            trial = [v * exp(max(min(lam * dd, 30.0), -30.0)) for v, dd in zip(s, d)]
            if sum(a * b for a, b in zip(trial, row_sums)) < 1.0:
                trial_G = [max(g, 1e-300) for g in _float_densities(polys, trial)]
                trial_merit = _merit(targets_f, trial_G)
                if trial_merit < merit:
                    accepted = (trial, trial_G, trial_merit)
                    break
            lam /= 2
        if accepted is None:
            break
        s, G, merit = accepted
        history.append(merit)
    return s


def _starts(ctx, polys, dpolys, row_sums, targets_f):
    """Deduplicated candidate starts for the finisher, best merit first."""
    ell = ctx.ell
    base = [1.0 / (2 * ell * rs) for rs in row_sums]
    if ell <= GRID_MAX:
        raw = [
            [f * b for f, b in zip(combo, base)]
            for combo in product(GRID_FACTORS, repeat=ell)
        ]
    else:
        raw = [[f * b for b in base] for f in GRID_FACTORS]
    polished = []
    for cand in raw:
        refined = _log_polish(polys, dpolys, row_sums, targets_f, cand)
        for _, seen in polished:
            if all(abs(a - b) <= 1e-9 + 1e-6 * abs(b) for a, b in zip(refined, seen)):
                break
        else:
            polished.append(
                (_merit(targets_f, _float_densities(polys, refined)), refined)
            )
    polished.sort(key=lambda r: r[0])
    return [s for _, s in polished[:ATTEMPT_CAP]]


def _attempt(ctx, targets_f, t, polys, dpolys, row_sums, start, opts, want_trace):
    """One damped Newton run from `start`; returns a result dict.

    The step is always the full Newton direction J^{-1}(x - G); halving
    backtracks on the scaled merit (max relative error), while convergence
    is declared on the absolute max-norm the tolerance speaks about.
    Scaling the rows of the system does not change the Newton direction,
    only which trial points count as progress.
    """
    s = [float(x) for x in start]
    trace = []

    def done(status, iters, res, history, detail=""):
        params = _rationalize(ctx, s, t, opts.rationalize_denominator)
        if status == "converged" and params is None:
            # the float iterate met the tolerance but its rounding left the
            # open domain; without a rational point there is nothing to verify
            status, detail = "domain-violation", "solution rounds outside the open domain"
        return {
            "status": status, "s": s, "params": params, "iterations": iters,
            "residual": res, "history": history, "trace": trace, "detail": detail,
        }

    if not _in_domain(s, row_sums):
        return {
            "status": "domain-violation", "s": s, "params": None,
            "iterations": 0, "residual": float("inf"), "history": [],
            "trace": trace, "detail": "initial point outside the open domain",
        }
    G = _float_densities(polys, s)
    res = _residual(targets_f, G)
    merit = _merit(targets_f, G)
    history = [merit]
    for it in range(1, opts.max_iterations + 1):
        if res <= opts.tolerance:
            return done("converged", it - 1, res, history)
        # each iteration below costs an exact Jacobian; bail out of crawls
        # (near-stationary merit over a window) before paying for the next
        if len(history) >= 9 and history[-1] > 0.99 * history[-9]:
            return done(
                "no-convergence", it - 1, res, history,
                "stalled: relative progress under 1% across 8 iterations",
            )
        params = _rationalize(ctx, s, t, opts.rationalize_denominator)
        if params is None:
            return done(
                "domain-violation", it - 1, res, history,
                "iterate rounds outside the open domain",
            )
        point = {s_var(j): v for j, v in enumerate(params.s, start=1)}
        J = [[d.evaluate(point) for d in row] for row in dpolys]
        rhs = [q_from_float(x - g) for x, g in zip(targets_f, G)]
        delta = solve_linear(J, rhs)
        if delta is None:
            return done(
                "singular-jacobian", it - 1, res, history,
                "exact Jacobian is singular at the current iterate",
            )
        delta_f = [float(d) for d in delta]
        lam = 1.0
        accepted = None
        while lam >= opts.min_step:
            trial = [a + lam * d for a, d in zip(s, delta_f)]
            if _in_domain(trial, row_sums):
                trial_G = _float_densities(polys, trial)
                trial_merit = _merit(targets_f, trial_G)
                if trial_merit < merit:
                    accepted = (trial, trial_G, trial_merit, lam)
                    break
            lam /= 2
        if accepted is None:
            return done(
                "domain-violation", it - 1, res, history,
                "no admissible damped step reduced the residual",
            )
        s, G, merit, lam = accepted
        res = _residual(targets_f, G)
        history.append(merit)
        if want_trace:
            trace.append(
                {"iteration": it, "s": list(s), "residual": res,
                 "merit": merit, "step": lam}
            )
    if res <= opts.tolerance:
        return done("converged", opts.max_iterations, res, history)
    return done(
        "no-convergence", opts.max_iterations, res, history, "iteration cap reached"
    )


def solve(ctx, x_target, t=None, s0=None, options=None, want_trace=False):
    """Find s with density(T_i, W_k(s, t)) = x_target_i to the tolerance.

    x_target entries may be floats or rationals; floats convert exactly.
    Entries must lie strictly inside (0, 1) - boundary targets are not in
    the open region the construction parameterizes, and are reported as
    domain-violation without iterating.

    With no explicit s0, initialization is automatic (grid rescalings of
    the base point refined by a log-coordinate Newton phase, see the
    module docstring) and candidates are tried until the finisher
    converges.  An explicit s0 is honored exactly: one attempt from that
    point, no refinement, no restarts.
    """
    opts = options or SolveOptions()
    defaults = default_params(ctx)
    if t is None:
        t = defaults.t
    else:
        try:
            t = tuple(tuple(Q(x) for x in row) for row in t)
        except (TypeError, ValueError) as e:
            raise DomainError("malformed t: %s" % e) from None
    check_t(ctx, t)
    if len(x_target) != ctx.ell:
        raise DomainError("expected %d targets, got %d" % (ctx.ell, len(x_target)))
    targets = [_as_target(x) for x in x_target]
    targets_f = [float(x) for x in targets]

    def report(outcome, attempts):
        params = outcome["params"]
        verification = []
        if params is not None:
            G = _exact_densities(ctx, params)
            verification = [
                {
                    "target": fmt_q(x),
                    "achieved": fmt_q(g),
                    "abs_error": abs(float(x - g)),
                }
                for x, g in zip(targets, G)
            ]
        return SolveReport(
            status=outcome["status"],
            s=tuple(outcome["s"]),
            s_rational=tuple(params.s) if params is not None else (),
            t=t,
            iterations=outcome["iterations"],
            residual=outcome["residual"],
            residual_history=outcome["history"],
            verification=verification,
            detail=outcome["detail"],
            attempts=attempts,
            trace=outcome["trace"],
        )

    if any(not (ZERO < x < ONE) for x in targets):
        return report(
            {
                "status": "domain-violation", "s": tuple(s0 or ()), "params": None,
                "iterations": 0, "residual": float("inf"), "history": [],
                "trace": [], "detail": "target not strictly inside (0,1)",
            },
            attempts=0,
        )

    polys = [density_s_poly(ctx, i, t) for i in range(1, ctx.ell + 1)]
    dpolys = [
        [p.partial_derivative(s_var(j + 1)) for j in range(ctx.ell)] for p in polys
    ]
    row_sums = [float(sum(row, ZERO)) for row in t]

    if s0 is not None:
        outcome = _attempt(
            ctx, targets_f, t, polys, dpolys, row_sums, s0, opts, want_trace
        )
        return report(outcome, attempts=1)

    outcome = None
    attempts = 0
    for start in _starts(ctx, polys, dpolys, row_sums, targets_f):
        attempts += 1
        outcome = _attempt(
            ctx, targets_f, t, polys, dpolys, row_sums, start, opts, want_trace
        )
        if outcome["status"] == "converged":
            break
    return report(outcome, attempts)


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


def probe_ball(ctx, x0, eps, samples, seed=0, t=None, options=None):
    """Empirical solvability rate on the eps-ball around x0.

    Runs solve on `samples` uniform draws from B_eps(x0) intersected with
    (0,1)^ell, for eps and a few dyadic shrinkings, and reports per-radius
    success fractions plus the largest tested radius with a perfect score.
    Failures count toward the rate; they are not exceptions.
    """
    if len(x0) != ctx.ell:
        raise DomainError("expected %d coordinates, got %d" % (ctx.ell, len(x0)))
    if eps < 0:
        raise DomainError("eps must be nonnegative")
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
            rep = solve(ctx, point, t=t, options=options)
            statuses[rep.status] = statuses.get(rep.status, 0) + 1
            if rep.converged:
                hits += 1
        per_radius.append(
            {"radius": radius, "success_rate": hits / samples, "statuses": statuses}
        )
        if hits == samples:
            break
    best = None
    for row in per_radius:
        if row["success_rate"] == 1.0:
            best = max(best, row["radius"]) if best is not None else row["radius"]
    return {
        "x0": list(x0),
        "eps": eps,
        "samples": samples,
        "per_radius": per_radius,
        "success_rate": per_radius[0]["success_rate"],
        "best_radius": best,
    }
