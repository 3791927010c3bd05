"""Target-hitting: Newton round trips, boundary handling, ball probes."""

import dataclasses
import math
import random

import pytest

from tourlyn import construction
from tourlyn.construction import (
    WkParams,
    check_domain,
    context,
    density_s_poly,
    jacobian_at,
    make_params,
    point_densities,
    random_params,
    s_forms,
    value_and_euler,
)
from tourlyn.errors import DomainError
from tourlyn.poly import s_var
from tourlyn import solver
from tourlyn.rational import Q, fmt_q, q_from_float
from tourlyn.solver import (
    SolveOptions,
    default_params,
    probe_ball,
    solve,
)
from tourlyn.tournamentons import density
from tourlyn.construction import build


def exact_densities(ctx, p):
    W = build(ctx, p)
    return [density(T, W) for T in ctx.lyndon_seq]


def test_analytic_three_vertex_solution():
    # at default t the one density is s^3/9, so the target 1/16 pins
    # s = (9/16)^(1/3)
    ctx = context(3)
    rep = solve(ctx, [Q(1, 16)])
    assert rep.converged
    assert abs(rep.s[0] - (9 / 16) ** (1 / 3)) < 1e-9


def test_round_trips_recover_reachable_targets():
    rng = random.Random(61)
    for k, draws in ((3, 5), (4, 3)):
        ctx = context(k)
        for _ in range(draws):
            p = random_params(ctx, rng)
            targets = exact_densities(ctx, p)
            rep = solve(ctx, targets, t=p.t)
            assert rep.converged, rep.detail
            assert rep.residual <= 1e-10
            assert max(v["abs_error"] for v in rep.verification) <= 1e-8


def test_report_shape_and_rationalization():
    ctx = context(3)
    rep = solve(ctx, [Q(1, 16)])
    assert rep.status == "converged"
    assert len(rep.s) == 1 and len(rep.s_rational) == 1
    assert rep.s_rational[0].denominator <= 10 ** 6
    # the initializer may land within tolerance on its own, so zero Newton
    # iterations is a legitimate outcome
    assert rep.iterations >= 0
    assert rep.residual <= 1e-10
    assert rep.residual_history and rep.residual_history[-1] <= rep.residual_history[0]
    assert rep.attempts >= 1
    # verification is computed from the exact rationalized parameters
    assert rep.verification[0]["target"] == "1/16"


def test_boundary_targets_refused_without_iterating():
    ctx = context(3)
    for bad in ([Q(0)], [Q(1)], [Q(2)], [0.0], [-0.25]):
        rep = solve(ctx, bad)
        assert rep.status == "domain-violation"
        assert rep.iterations == 0 and rep.attempts == 0
        assert not rep.converged


def test_wrong_target_count():
    with pytest.raises(DomainError):
        solve(context(4), [Q(1, 16)])


@pytest.mark.parametrize(
    "s0", [[0.1, 0.1], [0.1] * 4, ["abc", 0.1, 0.1], [0.1, None, 0.1], [0.1, 0.1, "1/2"]]
)
def test_wrong_start_length(s0):
    ctx = context(4)
    x0 = [float(x) for x in exact_densities(ctx, default_params(ctx))]
    with pytest.raises(DomainError, match="expected 3 start components|is not a number"):
        solve(ctx, x0, s0=s0)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_float_targets(x):
    with pytest.raises(DomainError, match="not a finite number"):
        solve(context(3), [x])


@pytest.mark.parametrize("x", ["abc", None, "1/0"])
def test_malformed_exact_targets(x):
    with pytest.raises(DomainError, match="not an exact rational"):
        solve(context(3), [x])


@pytest.mark.parametrize("shape", ["short", "long", "zero"])
def test_malformed_t_refused_before_polynomial_work(monkeypatch, shape):
    ctx = context(4)
    t = default_params(ctx).t
    bad = {
        "short": t[:1],
        "long": t + (t[0],),
        "zero": ((Q(0),) + t[0][1:],) + t[1:],
    }[shape]

    def no_polynomials(*args):
        raise AssertionError("a letter's polynomial reached with a malformed t")

    # s_forms checks t before it reads any letter's polynomial
    monkeypatch.setattr(construction, "_letter", no_polynomials)
    with pytest.raises(DomainError):
        solve(ctx, [Q(1, 100), Q(1, 50), Q(3, 100)], t=bad)


def test_explicit_start_is_single_attempt():
    ctx = context(3)
    rep = solve(ctx, [Q(1, 16)], s0=[0.8])
    assert rep.converged and rep.attempts == 1
    # a start outside the domain stays a single, failed attempt
    rep2 = solve(ctx, [Q(1, 16)], s0=[5.0])
    assert rep2.attempts == 1
    assert not rep2.converged


def test_failed_solve_reports_its_best_attempt():
    # a k = 4 ball target that no attempt reaches: the report is the
    # attempt of least merit over all grid starts, not the last one tried
    ctx = context(4)
    p = default_params(ctx)
    x0 = [float(x) for x in exact_densities(ctx, p)]
    x = solver._ball_point(random.Random(7), x0, 1e-4)
    rep = solve(ctx, x)
    assert not rep.converged and rep.attempts == solver.ATTEMPT_CAP
    row_sums = [float(sum(row)) for row in p.t]
    best = min(
        solve(ctx, x, s0=start).residual_history[-1] for start in solver._grid(row_sums)
    )
    assert rep.residual_history[-1] == best


def test_options_validation():
    for bad in (0, -1e-3, math.nan):
        with pytest.raises(DomainError):
            SolveOptions(tolerance=bad)
    ctx = context(3)
    rep = solve(ctx, [Q(1, 16)], options=SolveOptions(tolerance=1e-6))
    assert rep.converged and rep.residual <= 1e-6


def test_converged_means_verified():
    # the float iterate meets 1e-13, but its rounding to denominators of at
    # most 10^6 misses it in the exact densities
    ctx = context(3)
    rep = solve(ctx, [Q(1, 16)], options=SolveOptions(tolerance=1e-13))
    error = max(v["abs_error"] for v in rep.verification)
    if rep.converged:
        assert error <= 1e-13
    else:
        assert rep.status == "no-convergence"
        assert "exact error %.3g" % error in rep.detail


def test_trace_collection():
    # start far from the root so Newton actually has to iterate
    ctx = context(3)
    rep = solve(ctx, [Q(1, 16)], s0=[0.3], want_trace=True)
    assert rep.converged
    assert rep.trace, "trace requested but empty"
    for step in rep.trace:
        assert set(step) == {"iteration", "s", "residual", "merit", "step"}
        assert len(step["s"]) == ctx.ell
    merits = [step["merit"] for step in rep.trace]
    assert all(a > b for a, b in zip(merits, merits[1:]))


def test_probe_ball_three_vertex_full_rate():
    ctx = context(3)
    x0 = [float(x) for x in exact_densities(ctx, default_params(ctx))]
    out = probe_ball(ctx, x0, eps=1e-3, samples=10, seed=1)
    assert out["success_rate"] == 1.0
    assert out["best_radius"] == 1e-3
    assert len(out["per_radius"]) == 1  # perfect at the top rung, no descent
    assert out["per_radius"][0]["statuses"] == {"converged": 10}


def test_probe_ball_four_vertex_small_radius():
    ctx = context(4)
    x0 = [float(x) for x in exact_densities(ctx, default_params(ctx))]
    out = probe_ball(ctx, x0, eps=1e-7, samples=8, seed=5)
    assert out["success_rate"] == 1.0
    assert len(out["per_radius"]) == 1


def test_probe_ball_descends_until_perfect():
    ctx = context(3)
    x0 = [float(x) for x in exact_densities(ctx, default_params(ctx))]
    out = probe_ball(ctx, x0, eps=1e-3, samples=4, seed=2)
    radii = [row["radius"] for row in out["per_radius"]]
    assert all(radii[i] == 2 * radii[i + 1] for i in range(len(radii) - 1))
    assert out["best_radius"] == radii[-1]
    assert sum(out["per_radius"][0]["statuses"].values()) == 4


def test_probe_ball_zero_radius():
    ctx = context(3)
    x0 = [float(x) for x in exact_densities(ctx, default_params(ctx))]
    out = probe_ball(ctx, x0, eps=0, samples=2, seed=3)
    assert out["per_radius"] == [
        {"radius": 0, "success_rate": 1.0, "statuses": {"converged": 2}}
    ]
    assert out["best_radius"] == 0


def test_probe_ball_rejections():
    ctx = context(3)
    with pytest.raises(DomainError):
        probe_ball(ctx, [0.1, 0.2], eps=1e-3, samples=1)
    for eps in (-1e-3, math.nan, math.inf):
        with pytest.raises(DomainError, match="eps must be nonnegative"):
            probe_ball(ctx, [0.1], eps=eps, samples=1)
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="x0 coordinates must be finite"):
            probe_ball(ctx, [x], eps=1e-3, samples=1)
    for x in (2.0, 1.0, 0.0, -0.5):
        with pytest.raises(DomainError, match="centre x0 .* outside"):
            probe_ball(ctx, [x], eps=1e-3, samples=1)
    for x in ("a", None, "0.5"):
        with pytest.raises(DomainError, match="x0 coordinates must be finite"):
            probe_ball(ctx, [x], eps=1e-3, samples=1)
    for eps in ("abc", "1e-3", None):
        with pytest.raises(DomainError, match="eps must be nonnegative"):
            probe_ball(ctx, [0.1], eps=eps, samples=1)
    for samples in (0, -2, 2.5, "3", 3.0, None):
        with pytest.raises(DomainError, match="samples must be a positive integer"):
            probe_ball(ctx, [0.1], eps=1e-3, samples=samples)


def test_default_params_use_half_the_measure():
    for k in (3, 4, 5):
        ctx = context(k)
        assert check_domain(ctx, default_params(ctx)) == Q(1, 2)


def integer_terms(q, scale):
    # a polynomial in s with coefficients over `scale`, as integer s-form terms
    terms = [(c * scale, tuple((v[1] - 1, e) for v, e in mono)) for mono, c in q.terms.items()]
    assert all(N.denominator == 1 for N, _ in terms)
    return [(int(N), mono) for N, mono in terms]


def float_terms(scale, terms):
    # the float terms solve builds from an integer s-form
    return [(N / scale, mono) for N, mono in terms]


def test_float_terms_match_evaluate_float_bit_for_bit():
    # the Newton loop's float terms, N / scale from the integer s-forms,
    # stand in for evaluate_float and must give the very same floats,
    # partial derivatives (e_j N over the same scale) included
    rng = random.Random(67)
    ctx = context(4)
    p = random_params(ctx, rng)
    for i, (scale, _, form) in enumerate(s_forms(ctx, p.t)[3], start=1):
        poly = density_s_poly(ctx, i, p.t)
        assert integer_terms(poly, scale) == form
        for q in [poly] + [poly.partial_derivative(s_var(j)) for j in (1, 2, 3)]:
            terms = float_terms(scale, integer_terms(q, scale))
            for _ in range(5):
                s = [rng.uniform(0.01, 0.2) for _ in range(ctx.ell)]
                point = {s_var(j): v for j, v in enumerate(s, start=1)}
                assert value_and_euler(terms, s)[0] == q.evaluate_float(point)


def test_default_point_converges_from_the_first_start():
    # the first grid start at the default t is the default s itself, so a
    # radius-0 target there verifies after one run and no other start runs
    ctx = context(4)
    x0 = [float(x) for x in exact_densities(ctx, default_params(ctx))]
    rep = solve(ctx, x0)
    assert rep.converged
    assert rep.runs == 1 and rep.attempts == 1


def test_report_is_the_first_grid_start_that_verifies():
    # this k = 4 round trip has two preimages; the best-merit end point is
    # the other one, and the report is the preimage of the earliest start
    ctx = context(4)
    p = random_params(ctx, random.Random(10))
    targets = exact_densities(ctx, p)
    rep = solve(ctx, targets, t=p.t)
    assert rep.converged
    row_sums = [float(sum(row)) for row in p.t]
    singles = [solve(ctx, targets, t=p.t, s0=start) for start in solver._grid(row_sums)]
    first = next(i for i, one in enumerate(singles) if one.converged)
    assert first > 0 and rep.runs == first + 1
    assert rep.s == singles[first].s
    assert rep.s_rational == singles[first].s_rational
    preimages = [one.s for one in singles if one.converged]
    assert any(max(abs(a - b) for a, b in zip(s, rep.s)) > 1e-3 for s in preimages)


def test_failed_solve_runs_every_grid_start():
    ctx = context(4)
    p = default_params(ctx)
    x0 = [float(x) for x in exact_densities(ctx, p)]
    x = solver._ball_point(random.Random(7), x0, 1e-4)
    rep = solve(ctx, x)
    assert not rep.converged
    row_sums = [float(sum(row)) for row in p.t]
    assert rep.runs == len(solver._grid(row_sums))


def test_verification_is_the_chain_dp_at_the_rounded_point():
    # the solver checks through its s-polynomials; point_densities, the
    # chain DP over the rational block measures, is the oracle
    rng = random.Random(73)
    reports = []
    for k in (3, 4):
        ctx = context(k)
        x0 = [float(x) for x in exact_densities(ctx, default_params(ctx))]
        for _ in range(2):
            p = random_params(ctx, rng)
            reports.append((ctx, solve(ctx, point_densities(ctx, p), t=p.t)))
        reports.append((ctx, solve(ctx, solver._ball_point(rng, x0, 1e-4))))
        # the float loop cannot meet this tolerance: a failed report that
        # still carries its verification
        reports.append((ctx, solve(ctx, x0, options=SolveOptions(tolerance=1e-40))))
    assert {rep.converged for _, rep in reports} == {True, False}
    for ctx, rep in reports:
        assert rep.verification
        exact = point_densities(ctx, make_params(ctx, rep.s_rational, rep.t))
        assert [v["achieved"] for v in rep.verification] == [fmt_q(g) for g in exact]


def test_tiny_component_keeps_its_rational_point():
    # s = 4.48e-7 is below half the fixed 1e-6 grid, which would round it
    # to 0 and leave the report without a point to verify
    ctx = context(3)
    rep = solve(ctx, [1e-20])
    assert rep.converged, rep.detail
    (s,), (q,) = rep.s, rep.s_rational
    assert s < 5e-7 and abs(float(q) - s) <= 1e-6 * s
    assert rep.verification and rep.verification[0]["abs_error"] <= 1e-10


def test_log_jacobian_rows_come_from_the_value_pass():
    # one pass over a polynomial's float terms gives G, bit for bit as
    # evaluate_float, and s_j dG/ds_j as the sum of e_j times each term
    rng = random.Random(79)
    for k in (3, 4, 5):
        ctx = context(k)
        for _ in range(2):
            p = random_params(ctx, rng)
            s = [float(x) for x in p.s]
            point = {s_var(j): v for j, v in enumerate(s, start=1)}
            for i, (scale, _, terms) in enumerate(s_forms(ctx, p.t)[3], start=1):
                poly = density_s_poly(ctx, i, p.t)
                value, row = value_and_euler(float_terms(scale, terms), s)
                assert value == poly.evaluate_float(point)
                for j, entry in enumerate(row):
                    partial = poly.partial_derivative(s_var(j + 1))
                    expected = s[j] * partial.evaluate_float(point)
                    assert abs(entry - expected) <= 1e-12 * abs(expected)


def test_fused_pass_stops_exactly_where_the_trial_fails():
    # a line-search trial is one pass over the polynomials that stops at
    # the first relative error reaching the bound (the current merit): an
    # accepted trial has evaluate_float's values, floored, and the trial
    # fails exactly when the full max relative error is >= the bound; the
    # scale 1e-120 takes every value under the floor
    rng = random.Random(89)
    for k in (3, 4, 5):
        ctx = context(k)
        for scale in (1.0, 1.0, 1.0, 1e-120):
            p = random_params(ctx, rng)
            polys = [density_s_poly(ctx, i, p.t) for i in range(1, ctx.ell + 1)]
            fpolys = [float_terms(scale, terms) for scale, _, terms in s_forms(ctx, p.t)[3]]
            s = [float(x) * rng.uniform(0.8, 1.2) * scale for x in p.s]
            point = {s_var(j): v for j, v in enumerate(s, start=1)}
            values = [max(q.evaluate_float(point), 1e-300) for q in polys]
            targets = [g * rng.uniform(0.5, 2.0) for g in values]
            errors = [abs(x - g) / x for x, g in zip(targets, values)]
            full = max(errors)
            bounds = [full / 2, full, math.nextafter(full, math.inf), 2 * full, errors[0], math.nan]
            for bound in bounds:
                out = solver._values_and_merit(fpolys, targets, s, bound)
                assert (out is not None and out[1] < bound) == (full < bound)
                if out is not None:
                    assert out == (values, full)
            # no polynomial after the first one whose error reaches the
            # bound is evaluated: this one would raise
            poison = [(1.0, ((len(s), 1),))]
            bad = solver._values_and_merit(fpolys + [poison], targets + [0.5], s, errors[0])
            assert bad is None


def _float_singular_report(monkeypatch):
    # every Newton run stops at its start on a float-singular Jacobian,
    # which the exact Jacobian at the start's rational point then decides
    ctx = context(4)
    p = random_params(ctx, random.Random(83))
    monkeypatch.setattr(solver, "_float_solve", lambda A, b: None)
    return solve(ctx, exact_densities(ctx, p), t=p.t)


def test_float_singular_jacobian_that_is_exactly_regular(monkeypatch):
    rep = _float_singular_report(monkeypatch)
    assert rep.status == "no-convergence"
    assert rep.detail == "float Jacobian singular; the exact one is not"
    assert rep.iterations == 0 and rep.attempts == solver.ATTEMPT_CAP


def test_exactly_singular_jacobian_is_reported(monkeypatch):
    seen = []

    def dependent_rows(ctx, params):
        seen.append(params.s)
        J = jacobian_at(ctx, params)
        return J[:-1] + [J[0]]

    monkeypatch.setattr(solver, "jacobian_at", dependent_rows)
    rep = _float_singular_report(monkeypatch)
    assert rep.status == "singular-jacobian"
    assert rep.detail == "exact Jacobian is singular at the rounded iterate"
    # decided at the rational point the report carries
    assert rep.s_rational in seen


def test_ball_targets_near_a_simple_rational_converge():
    # the default k = 3 point is s = 1/2; within about 3e-8 of it the 10^6
    # rounding snaps back onto 1/2 and misses the tolerance, so these
    # solves verify the float's exact binary value
    ctx = context(3)
    x0 = [float(x) for x in exact_densities(ctx, default_params(ctx))]
    rng = random.Random(5)
    reps = [solve(ctx, solver._ball_point(rng, x0, 1e-8)) for _ in range(20)]
    assert [rep.status for rep in reps] == ["converged"] * 20
    assert any(rep.s_rational[0].denominator > 10 ** 6 for rep in reps)
    for rep in reps:
        assert max(v["abs_error"] for v in rep.verification) <= 1e-10


def test_one_exact_jacobian_per_float_singular_solve(monkeypatch):
    # only the reported run is classified, at the rational point it carries
    seen = []

    def counted(ctx, params):
        seen.append(params.s)
        return jacobian_at(ctx, params)

    monkeypatch.setattr(solver, "jacobian_at", counted)
    rep = _float_singular_report(monkeypatch)
    assert rep.runs == 27 and seen == [rep.s_rational]


def test_tracing_does_not_change_a_report():
    rng = random.Random(61)
    cases = []
    for k in (3, 4):
        ctx = context(k)
        x0 = [float(x) for x in point_densities(ctx, default_params(ctx))]
        for _ in range(2):
            p = random_params(ctx, rng)
            cases.append((ctx, point_densities(ctx, p), {"t": p.t}))
        for radius in (1e-7, 1e-4):
            cases.append((ctx, solver._ball_point(rng, x0, radius), {}))
    ctx = context(4)
    x0 = [float(x) for x in point_densities(ctx, default_params(ctx))]
    cases.append((ctx, x0, {"s0": [0.05, 0.1, 0.08]}))
    for ctx, x, kwargs in cases:
        traced = solve(ctx, x, want_trace=True, **kwargs)
        assert dataclasses.replace(traced, trace=[]) == solve(ctx, x, **kwargs)


def test_integer_domain_test_at_the_boundary():
    # the default k = 4 t has row sums 1, so s = (1/2, 1/4, 1/4) uses
    # exactly the measure 1 and lies on the boundary of the open domain
    ctx = context(4)
    _, D, R, _ = s_forms(ctx, default_params(ctx).t, ())
    assert list(solver._rational_points([0.5, 0.25, 0.25], D, R)) == []
    # the next float below: its 10^6 rounding snaps back onto the boundary,
    # its exact binary value is the one point inside
    below = math.nextafter(0.25, 0.0)
    ((s, A, L),) = solver._rational_points([0.5, 0.25, below], D, R)
    assert s == (Q(1, 2), Q(1, 4), q_from_float(below)) and L == 2 ** 55
    assert [Q(a, L) for a in A] == list(s)
    # the next point below on the 10^6 grid is inside
    (s, _, _), _ = solver._rational_points([0.5, 0.25, 0.249999], D, R)
    assert s == (Q(1, 2), Q(1, 4), Q(249999, 10 ** 6))
    # a component that the 10^6 rounding takes to 0 is refused there
    ((s, _, _),) = solver._rational_points([0.5, 0.25, 1e-7], D, R)
    assert s[2] == q_from_float(1e-7)


def test_integer_domain_test_agrees_with_check_domain():
    # float points within about 1e-6 of the boundary, some with a component
    # that rounds to 0: _rational_points keeps exactly the roundings that
    # check_domain accepts
    rng = random.Random(103)
    outcomes = set()
    for k in (3, 4, 5):
        ctx = context(k)
        for _ in range(100):
            t, D, R, _ = s_forms(ctx, random_params(ctx, rng).t, ())
            s = [rng.uniform(1e-8, 1.0) if rng.random() < 0.9 else rng.uniform(1e-9, 1e-6)
                 for _ in range(ctx.ell)]
            used = sum(x * float(sum(row)) for x, row in zip(s, t))
            s = [x / used * (1 + rng.uniform(-2e-6, 2e-6)) for x in s]
            kept = []
            for max_denominator in (solver.RATIONALIZE_DENOMINATOR, None):
                q = tuple(q_from_float(x, max_denominator) for x in s)
                try:
                    check_domain(ctx, WkParams(q, t))
                except DomainError:
                    outcomes.add("out")
                    continue
                outcomes.add("in")
                kept.append(q)
            assert [q for q, _, _ in solver._rational_points(s, D, R)] == kept
    assert outcomes == {"in", "out"}


def test_seeded_reports_are_pinned(monkeypatch):
    # recorded before the solver's exact side moved to integer s-forms:
    # k = 3 and 4 round trips, ball targets at 1e-7 and 1e-4, and a
    # float-singular solve; floats as float.hex
    def fields(rep):
        return (rep.status, [float.hex(x) for x in rep.s], [fmt_q(q) for q in rep.s_rational],
                [(v["target"], v["achieved"], float.hex(v["abs_error"]))
                 for v in rep.verification],
                rep.detail, rep.attempts, rep.runs)

    rng = random.Random(97)
    got = []
    for k in (3, 4):
        ctx = context(k)
        x0 = [float(x) for x in point_densities(ctx, default_params(ctx))]
        p = random_params(ctx, rng)
        got.append(fields(solve(ctx, point_densities(ctx, p), t=p.t)))
        for radius in (1e-7, 1e-4):
            got.append(fields(solve(ctx, solver._ball_point(rng, x0, radius))))
    ctx = context(4)
    p = random_params(ctx, rng)
    monkeypatch.setattr(solver, "_float_solve", lambda A, b: None)
    got.append(fields(solve(ctx, point_densities(ctx, p), t=p.t)))
    assert got == [
        ("converged", ["0x1.0000000000001p-2"],
         ["1/4"],
         [
             ("1/448",
              "1/448",
              "0x0.0p+0"),
         ],
         "", 1, 1),
        ("converged", ["0x1.ffffdcbcafb4bp-2"],
         ["475774/951549"],
         [
             ("8006374095375577/576460752303423488",
              "107696630396984824/7754181835585699341",
              "0x1.308ae09d8e8acp-46"),
         ],
         "", 1, 1),
        ("converged", ["0x1.0069a1f1d29a4p-1"],
         ["379995/758767"],
         [
             ("8045176528425979/576460752303423488",
              "6096648225388875/436842921984403663",
              "0x1.768a82cb85e89p-44"),
         ],
         "", 1, 1),
        ("converged", ["0x1.c71c71c71c6efp-7", "0x1.5555555555554p-3", "0x1.8618618618696p-6"],
         ["1/72", "1/6", "1/42"],
         [
             ("78672463459/11292874661376000",
              "78672463459/11292874661376000",
              "0x0.0p+0"),
             ("7437677/26404963200",
              "7437677/26404963200",
              "0x0.0p+0"),
             ("1567717/216040608000",
              "1567717/216040608000",
              "0x0.0p+0"),
         ],
         "", 10, 10),
        ("converged", ["0x1.50d1ae92bccc6p-3", "0x1.5ac0bdafc2977p-3", "0x1.512a6b2e3930dp-3"],
         ["82633/502443", "165766/979051", "12661/76905"],
         [
             ("2283981309072297/73786976294838206464",
              "4947656296281160995637805407520894758101211697085045219281243/159840448961198111"
              "900882523266172840169098412806333844474547520000",
              "0x1.2eefccce305bbp-50"),
             ("2687442238298811/2305843009213693952",
              "1846633329215693946200363269947776835933824723/158442346860008055417176599803588"
              "9960883913208000",
              "0x1.1ae6f955b880bp-45"),
             ("3082739825299009/18446744073709551616",
              "26134512518395803306783234509377074495037/15638577734780536170152328013438558123"
              "8240000",
              "0x1.17f939a2a8778p-47"),
         ],
         "", 1, 1),
        ("no-convergence", ["0x1.76266755a4dc0p-5", "0x1.5eff1cefbcd6ep-6", "0x1.2ee0e667db4cbp-2"],
         ["31217/683495", "14141/660081", "230424/779039"],
         [
             ("3340815183293207/73786976294838206464",
              "1184491119734047180706123086782229223868693711036089146724182598032187/263700426"
              "89566602384854935080328474649558946960512838184039742687453880000",
              "0x1.80dc7dce5fcb9p-22"),
             ("5444102800454063/4611686018427387904",
              "15292870428030081958978323095724319740896569103004229/12504542553055362649224951"
              "282600766106658296899279956000",
              "0x1.6460cad7f1286p-15"),
             ("1519948222193483/9223372036854775808",
              "111512672705203291854678793170657097504743493/6516379164559668288028116978118291"
              "93621620459855",
              "0x1.a90ad5a35d116p-18"),
         ],
         "stalled: relative progress under 5% across 10 iterations", 12, 27),
        ("no-convergence", ["0x1.904ea1bb327c3p-4", "0x1.1111111111111p-5", "0x1.4a5294a5294a4p-6"],
         ["56/573", "1/30", "5/248"],
         [
             ("22852736684801/9476282528122798080",
              "6119546630954281/2134970329895202816000",
              "0x1.e84d28ad3cffbp-22"),
             ("42156731/296751071232",
              "54094231009501/478263962790144000",
              "0x1.e5cb1347a62bbp-16"),
             ("2313652823/160245578465280",
              "125339719/51067017216000",
              "0x1.921ba7fce6d7ap-17"),
         ],
         "float Jacobian singular; the exact one is not", 12, 27),
    ]
