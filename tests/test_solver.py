"""Target-hitting: Newton round trips, boundary handling, ball probes."""

import dataclasses
import inspect
import itertools
import math
import random
import traceback
from fractions import Fraction

import pytest

from tourlyn import construction
from tourlyn.construction import (
    context,
    density_s_poly,
    make_params,
    point_densities,
    random_params,
    value_and_euler,
)
from tourlyn.errors import DomainError
from tourlyn.poly import s_var
from tourlyn import solver
from tourlyn.rational import Q, fmt_q
from tourlyn.solver import (
    SolveOptions,
    default_params,
    probe_ball,
    solve,
)
from tourlyn.tournamentons import density
from tourlyn.tournaments import encode
from tourlyn.construction import build


def exact_densities(ctx, p):
    W = build(ctx, p)
    return [density(T, W) for T in ctx.lyndon_seq]


def pairs(x):
    # exact targets as the (numerator, denominator) ints that solve reads
    return [(q.numerator, q.denominator) for q in x]


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
    # the rational point is the exact value of the float s, not a rounding
    assert rep.s_rational == (Q(*rep.s[0].as_integer_ratio()),)
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
        with pytest.raises(DomainError, match=r"^target not strictly inside \(0,1\)$"):
            solve(ctx, bad)


def test_target_below_the_float_range_refused_without_iterating():
    # inside (0, 1), but its float is 0.0, whose log the Newton run needs
    with pytest.raises(DomainError, match=r"^target below the float range \(under 5e-324\)"):
        solve(context(3), [Q(1, 10 ** 400)])


def test_certified_draws_are_unreachable_without_a_run(monkeypatch):
    # acceptance 9's 50 draws at k = 4 (probe seed 0, eps 1e-4): the 11 that
    # violate 96 t(c)^3 >= t(b)^4 are refused before any Newton run
    ctx = context(4)
    x0 = [float(x) for x in point_densities(ctx, default_params(ctx))]
    rng = random.Random(0)
    draws = [solver._ball_point(rng, x0, 1e-4) for _ in range(50)]
    verdicts = [construction.unreachable(ctx, [v.as_integer_ratio() for v in x]) for x in draws]
    certified = [(x, why) for x, why in zip(draws, verdicts) if why]
    assert len(certified) == 11
    probed = probe_ball(ctx, x0, 1e-4, samples=50, seed=0)
    # counted apart: 11 refused for every t, 27 more at the default t, and
    # the 7 runs that fail without a verdict
    assert probed["per_radius"][0]["statuses"] == {
        "converged": 5, "unreachable": 11, "unreachable-at-t": 27, "no-convergence": 7,
    }

    def no_run(*args):
        raise AssertionError("a Newton run started for a certified unreachable target")

    monkeypatch.setattr(solver, "_newton", no_run)
    for x, why in certified:
        rep = solve(ctx, x)
        assert rep.status == "unreachable" and not rep.converged
        assert rep.attempts == rep.runs == rep.iterations == 0
        assert rep.detail == why
        assert why.startswith("violates 96 t(4:110111)^3 >= t(3:101)^4: ")


def test_refused_draws_do_not_converge_when_run(monkeypatch):
    # the refusals are sound on acceptance 9's 38 refused draws at k = 4
    # (probe seed 0, eps 1e-4): with the exact power-sum test bypassed,
    # every one runs Newton and none converges
    ctx = context(4)
    x0 = [float(x) for x in point_densities(ctx, default_params(ctx))]
    rng = random.Random(0)
    draws = [solver._ball_point(rng, x0, 1e-4) for _ in range(50)]
    refused = [x for x in draws if solve(ctx, x).status in ("unreachable", "unreachable-at-t")]
    assert len(refused) == 38
    monkeypatch.setattr(solver, "unreachable_at_t", lambda view, x: None)
    for x in refused:
        rep = solve(ctx, x)
        assert rep.runs > 0 and not rep.converged


def test_unreachable_is_decided_exactly_at_the_bound():
    # 96 (3/128)^3 = (3/16)^4 = 81/65536: on the bound, which W_4 may meet
    ctx = context(4)
    assert construction.unreachable(ctx, pairs([Q(3, 128), Q(3, 16), Q(1, 2)])) is None
    below = Q(3, 128) - Q(1, 10 ** 30)
    # a float test sees no difference from the point on the bound
    assert float(below) == 3 / 128
    assert construction.unreachable(ctx, pairs([below, Q(3, 16), Q(1, 2)])) == (
        "violates 96 t(4:110111)^3 >= t(3:101)^4: %s < 81/65536" % fmt_q(96 * below ** 3)
    )
    rep = solve(ctx, [below, Q(3, 16), Q(1, 2)])
    assert rep.status == "unreachable" and rep.attempts == rep.runs == 0
    # just below the bound at c = 6/11^4, b = 12/11^3, where floats put
    # the pair above it
    c, b = Q(6, 11 ** 4) - Q(1, 10 ** 40), Q(12, 11 ** 3)
    assert 96 * float(c) ** 3 > float(b) ** 4
    assert construction.unreachable(ctx, pairs([c, b, Q(1, 2)])) is not None
    # the bound is a theorem at k = 4 only
    assert construction.unreachable(context(3), [(1, 10 ** 9)]) is None


def test_no_seeded_w4_point_violates_the_bound():
    ctx = context(4)
    rng = random.Random(211)
    points = [default_params(ctx)] + [random_params(ctx, rng) for _ in range(100)]
    for p in points:
        x = point_densities(ctx, p)
        assert 96 * x[0] ** 3 >= x[1] ** 4
        assert construction.unreachable(ctx, pairs(x)) is None


def test_w5_round_trip_below_the_k4_bound_is_not_unreachable():
    # the densities of c = 4:110111 and b = 3:101 at this W_5 point violate
    # 96 t(c)^3 >= t(b)^4, which holds on W_4 only
    ctx = context(5)
    p = random_params(ctx, random.Random(3))
    x = point_densities(ctx, p)
    names = [encode(T) for T in ctx.lyndon_seq]
    c, b = names.index("4:110111"), names.index("3:101")
    assert 96 * x[c] ** 3 < x[b] ** 4
    rep = solve(ctx, x, t=p.t)
    assert rep.status != "unreachable" and rep.runs > 0


def power_sum_ends(ctx, t):
    # (min_m w_m, sum_m w_m) of the pair (3:101, 4:110111), from the
    # s-polynomials at t: t(3:101) = sum_m beta_m s_m^3 and t(4:110111) =
    # sum_m gamma_m s_m^4
    (i, j, p, _), = [pair for pair in ctx._power_sums if pair[2] == 3]
    beta, gamma = ({mono[0][0]: c for mono, c in density_s_poly(ctx, n + 1, t).terms.items()}
                   for n in (i, j))
    w = [beta[v] ** 4 / gamma[v] ** 3 for v in beta]
    return min(w), sum(w), beta, gamma


def target_with_ratio(ctx, ratio, u=Q(1, 100)):
    # t(3:101) = ratio u^3, t(4:110111) = ratio u^4: t(3:101)^4 /
    # t(4:110111)^3 is exactly `ratio`; every other letter's target is 1/2
    x = [Q(1, 2)] * ctx.ell
    (i, j, _, _), = [pair for pair in ctx._power_sums if pair[2] == 3]
    x[i], x[j] = ratio * u ** 3, ratio * u ** 4
    return x


def refusal(ctx, x, t=None):
    t = default_params(ctx).t if t is None else t
    return construction.unreachable_at_t(construction.TView(ctx, t), pairs(x))


def test_power_sum_pairs_are_found_from_the_monomials():
    names = {k: [(encode(context(k).lyndon_seq[i]), encode(context(k).lyndon_seq[j]), p)
                 for i, j, p, _ in context(k)._power_sums] for k in (3, 4, 5)}
    assert names[3] == []
    assert names[4] == [("3:101", "4:110111", 3)]
    assert sorted(names[5]) == [("3:101", "4:110111", 3), ("4:110111", "5:1110110111", 4),
                                ("4:110111", "5:1110111111", 4)]
    # k = 4: all three copies, in copy order
    assert context(4)._power_sums[0][3] == ((3, 0), (4, 1), (5, 2))


def test_target_at_the_attained_upper_end_is_not_refused():
    # s proportional to beta/gamma attains the ratio sum_m w_m exactly
    ctx = context(4)
    t = random_params(ctx, random.Random(5)).t
    low, high, beta, gamma = power_sum_ends(ctx, t)
    direction = [beta[s_var(m)] / gamma[s_var(m)] for m in range(1, 4)]
    used = sum(d * sum(row) for d, row in zip(direction, t))
    p = make_params(ctx, [d / (2 * used) for d in direction], t)
    x = point_densities(ctx, p)
    assert x[1] ** 4 / x[0] ** 3 == high > low
    assert refusal(ctx, x, t) is None
    rep = solve(ctx, x, t=t)
    assert rep.runs > 0 and rep.converged


def test_targets_at_or_beyond_the_ends_are_refused(monkeypatch):
    def no_run(*args):
        raise AssertionError("a Newton run started for a target refused at t")

    monkeypatch.setattr(solver, "_newton", no_run)
    ctx = context(4)
    low, high, _, _ = power_sum_ends(ctx, default_params(ctx).t)
    assert (float(low), float(high)) == (20.25, 68.25)
    above = target_with_ratio(ctx, high + Q(1, 10 ** 20))
    at_low = target_with_ratio(ctx, low)
    assert refusal(ctx, above) == (
        "violates t(3:101)^4 / t(4:110111)^3 <= sum_m w_m at this t: %s > %s"
        % (fmt_q(high + Q(1, 10 ** 20)), fmt_q(high)))
    assert refusal(ctx, at_low) == (
        "violates t(3:101)^4 / t(4:110111)^3 > min_m w_m at this t: %s <= %s"
        % (fmt_q(low), fmt_q(low)))
    for x in (above, at_low):
        rep = solve(ctx, x)
        assert rep.status == "unreachable-at-t" and not rep.converged
        assert rep.attempts == rep.runs == rep.iterations == 0
        assert rep.detail == refusal(ctx, x)
        # the all-t bound holds for these, so the label stays at t
        assert construction.unreachable(ctx, pairs(x)) is None


def test_targets_near_the_ends_are_decided_exactly(monkeypatch):
    # within 1e-12 of either end floats cannot tell; the exact test decides,
    # and it is the one test: every solve calls it once, refused or not
    ctx = context(4)
    low, high, _, _ = power_sum_ends(ctx, default_params(ctx).t)
    calls = []

    def exact_test(*args):
        calls.append(construction.unreachable_at_t(*args))
        return calls[-1]

    monkeypatch.setattr(solver, "unreachable_at_t", exact_test)
    nudge = Q(1, 10 ** 13)
    for end, outside, inside in ((high, 1 + nudge, 1 - nudge), (low, 1 - nudge, 1 + nudge)):
        for factor, refused in ((outside, True), (inside, False)):
            x = target_with_ratio(ctx, end * factor)
            calls.clear()
            rep = solve(ctx, x, options=SolveOptions(tolerance=1e-3))
            assert len(calls) == 1 and (calls[0] is not None) == refused
            assert (rep.status == "unreachable-at-t") == refused and (rep.runs == 0) == refused
    # 1e-6 inside either end, and at the default point, as well
    for ratio in (low * (1 + Q(1, 10 ** 6)), high * (1 - Q(1, 10 ** 6))):
        calls.clear()
        solve(ctx, target_with_ratio(ctx, ratio), options=SolveOptions(tolerance=1e-3))
        assert calls == [None]
    calls.clear()
    x0 = point_densities(ctx, default_params(ctx))
    assert solve(ctx, x0).converged and calls == [None]


def test_t_beyond_the_float_range_is_decided_exactly():
    # at t = 10^-30 the coefficients' powers underflow as floats, and the
    # exact test decides in integers; the interval is invariant under
    # scaling t, so the verdicts are those at the default t
    ctx = context(4)
    tiny = [[Q(1, 10 ** 30)] * n for n in ctx.sizes]
    statuses = []
    for x in ([Q(1, 1000), Q(1, 10), Q(1, 100)], [Q(1, 1000), Q(1, 100), Q(1, 100)]):
        rep, ref = solve(ctx, x, t=tiny), solve(ctx, x)
        assert (rep.status, rep.detail, rep.runs) == (ref.status, ref.detail, 0)
        statuses.append(rep.status)
    assert statuses == ["unreachable", "unreachable-at-t"]


def fraction_verdicts(ctx, t):
    # the details of construction.unreachable and unreachable_at_t at t,
    # written in Fractions and printed by fmt_q: the bound's two values, and
    # each pair's interval from density_s_poly's coefficients
    intervals = []
    for i, j, p, _ in ctx._power_sums:
        beta, gamma = ({mono[0][0]: Fraction(c) for mono, c in terms}
                       for terms in (density_s_poly(ctx, n + 1, t).terms.items() for n in (i, j)))
        w = [beta[v] ** (p + 1) / gamma[v] ** p for v in beta]
        names = encode(ctx.lyndon_seq[i]), p + 1, encode(ctx.lyndon_seq[j]), p
        intervals.append((i, j, p, names, min(w), sum(w)))

    def verdicts(x):
        x = [Fraction(v) for v in x]
        bound = None
        if ctx.k == 4 and 96 * x[0] ** 3 < x[1] ** 4:
            bound = "violates 96 t(4:110111)^3 >= t(3:101)^4: %s < %s" % (
                fmt_q(96 * x[0] ** 3), fmt_q(x[1] ** 4))
        for i, j, p, names, low, high in intervals:
            ratio = x[i] ** (p + 1) / x[j] ** p
            if ratio > high:
                end, sign, value = "<= sum_m w_m", ">", high
            elif ratio <= low:
                end, sign, value = "> min_m w_m", "<=", low
            else:
                continue
            return bound, end, "violates t(%s)^%d / t(%s)^%d %s at this t: %s %s %s" % (
                names + (end, fmt_q(ratio), sign, fmt_q(value)))
        return bound, None, None

    return verdicts


def test_refusal_details_match_the_fraction_formulas():
    # the refusals read the targets as the (numerator, denominator) ints of
    # solve and print each value reduced by one gcd; the text is what the
    # Fraction formulas print, for float and exact targets, seeded and
    # default t, at both ends of the interval, and in solve's reports
    rng = random.Random(283)
    seen = set()
    for k, radius, seeded in ((4, 1e-4, 4), (5, 1e-6, 2)):
        ctx = context(k)
        for p in [default_params(ctx)] + [random_params(ctx, rng) for _ in range(seeded)]:
            t = p.t
            view = construction.TView(ctx, t)
            verdicts = fraction_verdicts(ctx, t)
            x0 = [float(v) for v in point_densities(ctx, p)]
            draws = [solver._ball_point(rng, x0, radius) for _ in range(12)]
            draws += [[Fraction(v).limit_denominator(10 ** 9) for v in x] for x in draws[:6]]
            # just outside either end of the pair (3:101, 4:110111)
            low, high, _, _ = power_sum_ends(ctx, t)
            draws += [target_with_ratio(ctx, end) for end in (high * (1 + Q(1, 10 ** 6)), low)]
            for x in draws:
                bound, end, at_t = verdicts(x)
                ints = [Fraction(v).as_integer_ratio() for v in x]
                assert construction.unreachable(ctx, ints) == bound
                assert construction.unreachable_at_t(view, ints) == at_t
                if at_t is None:
                    continue
                rep = solve(ctx, x, t=t)
                status = "unreachable" if bound else "unreachable-at-t"
                assert (rep.status, rep.detail, rep.runs) == (status, bound or at_t, 0)
                seen.add((k, status, end))
    upper, lower = "<= sum_m w_m", "> min_m w_m"
    assert seen == {(4, "unreachable", upper), (4, "unreachable-at-t", upper),
                    (4, "unreachable-at-t", lower), (5, "unreachable-at-t", upper),
                    (5, "unreachable-at-t", lower)}


def test_no_seeded_round_trip_is_refused(monkeypatch):
    # a W_k point's densities satisfy the interval at its own t, and the
    # all-t test runs only on refused targets, so never on these
    def no_all_t_test(*args):
        raise AssertionError("the all-t test ran on a target that was not refused")

    monkeypatch.setattr(solver, "unreachable", no_all_t_test)
    rng = random.Random(223)
    for k, draws in ((4, 40), (5, 4)):
        ctx = context(k)
        for _ in range(draws):
            p = random_params(ctx, rng)
            x = point_densities(ctx, p)
            assert refusal(ctx, x, p.t) is None
            rep = solve(ctx, x, t=p.t)
            assert rep.runs > 0 and not rep.status.startswith("unreachable")


def test_wrong_target_count():
    with pytest.raises(DomainError):
        solve(context(4), [Q(1, 16)])
    # targets that are not a sequence are malformed, as such a t is
    for x in (0.0625, None):
        with pytest.raises(DomainError, match="malformed targets"):
            solve(context(3), x)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_float_targets(x):
    with pytest.raises(DomainError, match="not a finite number"):
        solve(context(3), [x])


@pytest.mark.parametrize("x", ["abc", None, "1/0"])
def test_malformed_exact_targets(x):
    with pytest.raises(DomainError, match="not an exact rational"):
        solve(context(3), [x])


@pytest.mark.parametrize("shape", ["short", "long", "zero", "no rows", "None row"])
def test_malformed_t_refused_before_polynomial_work(monkeypatch, shape):
    ctx = context(4)
    t = default_params(ctx).t
    bad = {
        "short": t[:1],
        "long": t + (t[0],),
        "zero": ((Q(0),) + t[0][1:],) + t[1:],
        "no rows": 5,
        "None row": [None],
    }[shape]

    def no_polynomials(*args):
        raise AssertionError("a letter's polynomial reached with a malformed t")

    # TView checks t before it reads any letter's polynomial
    monkeypatch.setattr(construction, "_letter", no_polynomials)
    with pytest.raises(DomainError):
        solve(ctx, [Q(1, 100), Q(1, 50), Q(3, 100)], t=bad)


@pytest.mark.parametrize(
    "status, detail",
    [("converged", "solution"), ("float-singular", "iterate")],
)
def test_a_run_ending_on_the_boundary_is_no_convergence(status, detail):
    # s = (1/2, 1/4, 1/4) uses the whole measure at the default t, and a
    # coordinate 0.0 (as from underflow) is 0 exactly, so neither is a
    # rational point of the open domain
    ctx = context(4)
    t = default_params(ctx).t
    view = construction.TView(ctx, t)
    targets = [(1, 100), (1, 50), (3, 100)]
    for end in ((0.5, 0.25, 0.25), (0.0, 0.25, 0.25)):
        assert solver._rational_point(end, view.D, view.R) is None
        rep = solver.SolveReport(status, end, t=t)
        rep = solver._finish(view, targets, 1e-10, rep)
        assert rep.status == "no-convergence"
        assert rep.detail == detail + " rounds outside the open domain"
        assert rep.s_rational == () and rep.verification == []


def not_refused(ctx, x, t):
    # the precondition of a test that needs Newton runs on the target x
    view = construction.TView(ctx, t)
    return construction.unreachable_at_t(view, [v.as_integer_ratio() for v in x]) is None


def single_start(monkeypatch, start):
    # solve runs from `start` alone: _grid yields it and nothing else
    monkeypatch.setattr(solver, "_grid", lambda row_sums: iter([start]))


def single_start_solves(monkeypatch, ctx, x, t=None):
    # one solve from each grid start alone, in grid order
    view = construction.TView(ctx, default_params(ctx).t if t is None else t)
    reports = []
    with monkeypatch.context() as patch:
        for start in solver._grid([r / view.D for r in view.R]):
            single_start(patch, start)
            reports.append(solve(ctx, x, t=t))
    return reports


def test_failed_solve_reports_its_best_attempt(monkeypatch):
    # a k = 4 ball target that no attempt reaches: the report is the
    # attempt of least merit over all grid starts, not the last one tried
    ctx = context(4)
    p = default_params(ctx)
    x0 = [float(x) for x in exact_densities(ctx, p)]
    x = solver._ball_point(random.Random(3), x0, 1e-4)
    assert not_refused(ctx, x, p.t)
    rep = solve(ctx, x)
    runs = single_start_solves(monkeypatch, ctx, x)
    assert rep.residual_history[-1] == min(run.residual_history[-1] for run in runs)
    # attempts are the distinct end points of all 27 runs, uncapped
    distinct = []
    for run in runs:
        if not solver._repeats(run.s, distinct):
            distinct.append(run)
    assert not rep.converged and rep.runs == len(runs) == 27
    assert rep.attempts == len(distinct) > 12


def test_options_validation():
    for bad in (0, -1e-3, math.nan, math.inf, -math.inf, True, False, "abc", None):
        with pytest.raises(DomainError, match="tolerance must be a finite positive number"):
            SolveOptions(tolerance=bad)
    ctx = context(3)
    rep = solve(ctx, [Q(1, 16)], options=SolveOptions(tolerance=1e-6))
    assert rep.converged and rep.residual <= 1e-6


def test_converged_means_verified():
    # at a tolerance near the float noise the exact densities at the float
    # iterate decide: it converges only if they meet it
    ctx = context(3)
    rep = solve(ctx, [Q(1, 16)], options=SolveOptions(tolerance=1e-13))
    error = max(v["abs_error"] for v in rep.verification)
    if rep.converged:
        assert error <= 1e-13
    else:
        assert rep.status == "no-convergence"
        assert "exact error %.3g" % error in rep.detail


def test_trace_collection(monkeypatch):
    # start far from the root so Newton actually has to iterate
    ctx = context(3)
    single_start(monkeypatch, [0.3])
    rep = solve(ctx, [Q(1, 16)], want_trace=True)
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


def test_ball_points_at_k5_lie_in_the_ball_and_the_cube():
    # the k = 5 centre has coordinates down to 6.2e-11, so nearly every draw
    # from the ball leaves (0,1)^11 and the box draws take over
    ctx = context(5)
    x0 = [float(x) for x in exact_densities(ctx, default_params(ctx))]
    rng = random.Random(11)
    for radius in (1e-4, 1e-7):
        for _ in range(4):
            x = solver._ball_point(rng, x0, radius)
            assert all(0.0 < p < 1.0 for p in x)
            assert sum((p - c) ** 2 for p, c in zip(x, x0)) <= radius * radius


def test_ball_points_near_a_corner_are_uniform():
    # at a corner of (0,1)^11 the set is an orthant of the ball, 2^-11 of
    # it, so most draws come from the box; uniform there, (|x - c| / r)^11
    # is uniform on (0, 1)
    x0, radius = [1e-12] * 11, 0.01
    rng = random.Random(3)
    u = []
    for _ in range(50):
        x = solver._ball_point(rng, x0, radius)
        assert all(0.0 < p < 1.0 for p in x)
        u.append((math.dist(x, x0) / radius) ** 11)
    assert max(u) <= 1.0 and abs(sum(u) / len(u) - 0.5) < 0.15


def test_probe_ball_rejections():
    ctx = context(3)
    with pytest.raises(DomainError):
        probe_ball(ctx, [0.1, 0.2], eps=1e-3, samples=1)
    for x0 in (0.01, None):
        with pytest.raises(DomainError, match="malformed x0"):
            probe_ball(ctx, x0, eps=1e-3, samples=1)
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
    for eps in ("abc", "1e-3", None, True, False):
        with pytest.raises(DomainError, match="eps must be nonnegative"):
            probe_ball(ctx, [0.1], eps=eps, samples=1)
    for samples in (0, -2, 2.5, "3", 3.0, None, True, False):
        with pytest.raises(DomainError, match="samples must be a positive integer"):
            probe_ball(ctx, [0.1], eps=1e-3, samples=samples)


def test_default_params_use_half_the_measure():
    for k in (3, 4, 5):
        ctx = context(k)
        assert build(ctx, default_params(ctx)).blocks[-1].measure == Q(1, 2)


def integer_terms(q, scale):
    # a polynomial in s with coefficients over `scale`, as integer s-form terms
    terms = [(c * scale, tuple((v[1] - 1, e) for v, e in mono)) for mono, c in q.terms.items()]
    assert all(N.denominator == 1 for N, _ in terms)
    return tuple((int(N), mono) for N, mono in terms)


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
    for i, (scale, _, form) in enumerate(construction.TView(ctx, p.t).letters, start=1):
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


def test_report_is_the_first_grid_start_that_verifies(monkeypatch):
    # this k = 4 round trip has two preimages; the best-merit end point is
    # the other one, and the report is the preimage of the earliest start
    ctx = context(4)
    p = random_params(ctx, random.Random(10))
    targets = exact_densities(ctx, p)
    rep = solve(ctx, targets, t=p.t)
    assert rep.converged
    singles = single_start_solves(monkeypatch, ctx, targets, t=p.t)
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
    x = solver._ball_point(random.Random(3), x0, 1e-4)
    assert not_refused(ctx, x, p.t)
    rep = solve(ctx, x)
    assert not rep.converged
    row_sums = [float(sum(row)) for row in p.t]
    assert rep.runs == len(list(solver._grid(row_sums)))


def test_grid_starts_lie_inside_the_open_domain():
    # the invariant that lets _newton take its start unchecked: every grid
    # start, read exactly, passes the integer domain test (s_j > 0 and
    # sum_j s_j r_j < 1), at the default t and at seeded t
    rng = random.Random(229)
    for k, count in ((3, 3), (4, 27), (5, 3)):
        ctx = context(k)
        for t in [default_params(ctx).t] + [random_params(ctx, rng).t for _ in range(40)]:
            view = construction.TView(ctx, t)
            D, R = view.D, view.R
            starts = list(solver._grid([r / D for r in R]))
            assert len(starts) == count
            for start in starts:
                construction.integer_point([x.as_integer_ratio() for x in start], D, R)


def scaled_t(ctx, factor):
    return [[v * factor for v in row] for row in default_params(ctx).t]


@pytest.mark.parametrize(
    "k, factor",
    [
        # at k = 3 every t entry is 1/3 times the factor; these crashed:
        # a power in the values kernel overflowed
        (3, Q(3, 10 ** 110)), (3, Q(3, 10 ** 200)),
        # the grid start was infinite
        (3, Q(3, 10 ** 310)),
        # a row sum rounded to 0.0
        (3, Q(3, 10 ** 330)),
        # a coefficient N / scale beyond the float range
        (4, Q(10 ** 400)),
        # no run overflowed, but s_1^3 can in the domain: (1 / r_1)^3 is
        # 2.96e308, above 2^1023
        (3, Q(3, 2 * 10 ** 103)),
    ],
)
def test_t_outside_the_float_range_is_refused_before_any_run(monkeypatch, k, factor):
    ctx = context(k)
    x = point_densities(ctx, default_params(ctx))

    def no_run(*args):
        raise AssertionError("a Newton run started at a t outside the float range")

    monkeypatch.setattr(solver, "_newton", no_run)
    with pytest.raises(DomainError, match="outside the float range of the solver"):
        solve(ctx, x, t=scaled_t(ctx, factor))


def test_t_outside_the_float_range_raises_whatever_the_target():
    # construction.TView.floats refuses the t before any target is read,
    # so a boundary target, one below the float range and a refused one
    # (here unreachable-at-t, then unreachable) raise as any other does
    ctx3, ctx4 = context(3), context(4)
    cases = [
        (ctx3, [Q(0)]), (ctx3, [Q(1, 10 ** 400)]),
        (ctx4, [Q(1, 1000), Q(1, 100), Q(1, 100)]), (ctx4, [Q(1, 1000), Q(1, 10), Q(1, 100)]),
    ]
    for ctx, x in cases:
        with pytest.raises(DomainError, match="outside the float range of the solver"):
            solve(ctx, x, t=scaled_t(ctx, Q(3, 10 ** 310)))


def test_t_near_the_float_range_still_converges():
    # at 10^-103 every power stays finite: (1 / r_1)^3 = 3.7e307 < 2^1023
    ctx = context(3)
    for factor in (Q(3, 10 ** 30), Q(3, 10 ** 103)):
        rep = solve(ctx, [Q(1, 16)], t=scaled_t(ctx, factor))
        assert rep.converged


def test_verification_is_build_and_density_at_the_rounded_point():
    # the solver checks through its s-polynomials; build + density, which
    # integrates W over all its blocks, unfactored, is the oracle
    rng = random.Random(73)
    reports = []
    for k in (3, 4):
        ctx = context(k)
        x0 = [float(x) for x in exact_densities(ctx, default_params(ctx))]
        for _ in range(2):
            p = random_params(ctx, rng)
            reports.append((ctx, solve(ctx, exact_densities(ctx, p), t=p.t)))
        reports.append((ctx, solve(ctx, solver._ball_point(rng, x0, 1e-4))))
        # the float loop cannot meet this tolerance: a failed report that
        # still carries its verification
        reports.append((ctx, solve(ctx, x0, options=SolveOptions(tolerance=1e-40))))
    assert {rep.converged for _, rep in reports} == {True, False}
    for ctx, rep in reports:
        if rep.status == "unreachable":
            # refused before any run, so there is no point to verify
            assert rep.s_rational == () and rep.verification == []
            continue
        assert rep.verification
        exact = exact_densities(ctx, make_params(ctx, rep.s_rational, rep.t))
        assert [v["achieved"] for v in rep.verification] == [fmt_q(g) for g in exact]


def test_verification_entries_match_the_fraction_formulas():
    # each entry's strings and error, from _finish's ints, against the
    # formulas it replaced: fmt_q of the target and of build + density's
    # value at the rounded point, and abs(float(x - g)), bit for bit
    rng = random.Random(131)
    statuses, details = set(), set()
    for k in (3, 4):
        ctx = context(k)
        x0 = [float(x) for x in exact_densities(ctx, default_params(ctx))]
        cases = []
        for _ in range(6):
            p = random_params(ctx, rng)
            cases.append((exact_densities(ctx, p), p.t, None))
        for radius in (1e-7, 1e-4):
            cases += [(solver._ball_point(rng, x0, radius), None, None) for _ in range(4)]
        cases.append((x0, None, SolveOptions(tolerance=1e-40)))
        if k == 4:
            # a far-ball target whose runs find no admissible damped step
            x = solver._ball_point(random.Random(35), x0, 1e-4)
            assert not_refused(ctx, x, default_params(ctx).t)
            cases.append((x, None, None))
        for x, t, options in cases:
            rep = solve(ctx, x, t=t, options=options)
            if not rep.verification:
                continue
            statuses.add(rep.status)
            details.add(rep.detail)
            exact = exact_densities(ctx, make_params(ctx, rep.s_rational, rep.t))
            assert [(v["target"], v["achieved"], float.hex(v["abs_error"]))
                    for v in rep.verification] == [
                (fmt_q(Q(xi)), fmt_q(g), float.hex(abs(float(Q(xi) - g))))
                for xi, g in zip(x, exact)
            ]
    assert {"converged", "no-convergence"} <= statuses
    assert "no admissible damped step reduced the residual" in details


def test_a_first_start_solve_builds_one_start_and_one_point(monkeypatch):
    # a k = 4 round trip that verifies after its first run draws one grid
    # combination, and builds Q only for the coordinates of the point it
    # reports: no other start, and no exact value in Q
    ctx = context(4)
    p = random_params(ctx, random.Random(1))
    targets = point_densities(ctx, p)
    drawn, built = [], []

    def counted_product(*args, **kwargs):
        for combo in itertools.product(*args, **kwargs):
            drawn.append(combo)
            yield combo

    def counted_Q(*args):
        built.append(args)
        return Q(*args)

    monkeypatch.setattr(solver, "product", counted_product)
    monkeypatch.setattr(solver, "Q", counted_Q)
    rep = solve(ctx, targets, t=p.t)
    assert rep.converged and rep.runs == 1
    assert drawn == [(1.0,) * ctx.ell]
    assert built == [(q.numerator, q.denominator) for q in rep.s_rational]


def test_tiny_component_keeps_its_rational_point():
    # a tiny s = 4.48e-7 is verified at its own exact value, however small
    ctx = context(3)
    rep = solve(ctx, [1e-20])
    assert rep.converged, rep.detail
    (s,), (q,) = rep.s, rep.s_rational
    assert s < 5e-7 and q == Q(*s.as_integer_ratio())
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
            for i, (scale, _, terms) in enumerate(construction.TView(ctx, p.t).letters, start=1):
                poly = density_s_poly(ctx, i, p.t)
                value, row = value_and_euler(float_terms(scale, terms), s)
                assert value == poly.evaluate_float(point)
                for j, entry in enumerate(row):
                    partial = poly.partial_derivative(s_var(j + 1))
                    expected = s[j] * partial.evaluate_float(point)
                    assert abs(entry - expected) <= 1e-12 * abs(expected)


def coefficients(forms):
    # the flat coefficient tuple solve passes to the context's kernels
    return tuple(N / scale for scale, _, terms in forms for N, _ in terms)


class Poison:
    # a coefficient that no kernel may multiply
    def __mul__(self, other):
        raise AssertionError("a letter after the one that stopped the pass was evaluated")


def test_values_kernel_stops_exactly_where_the_trial_fails():
    # a line-search trial is one pass over the letters that stops at the
    # first relative error reaching the bound (the current merit): an
    # accepted trial has evaluate_float's values, floored, and the trial
    # fails exactly when the full max relative error is >= the bound; the
    # scale 1e-120 takes every value under the floor
    rng = random.Random(89)
    for k in (3, 4, 5):
        ctx = context(k)
        values, _, step = ctx._float_kernels
        # a step along d = 0 with no domain to leave: every trial is s itself
        zero = [0.0] * ctx.ell
        for scale in (1.0, 1.0, 1.0, 1e-120):
            p = random_params(ctx, rng)
            polys = [density_s_poly(ctx, i, p.t) for i in range(1, ctx.ell + 1)]
            forms = construction.TView(ctx, p.t).letters
            c = coefficients(forms)
            s = [float(x) * rng.uniform(0.8, 1.2) * scale for x in p.s]
            point = {s_var(j): v for j, v in enumerate(s, start=1)}
            values_f = [max(q.evaluate_float(point), 1e-300) for q in polys]
            targets = [g * rng.uniform(0.5, 2.0) for g in values_f]
            errors = [abs(x - g) / x for x, g in zip(targets, values_f)]
            full = max(errors)
            bounds = [full / 2, full, math.nextafter(full, math.inf), 2 * full, errors[0], math.nan]
            for bound in bounds:
                out = values(c, targets, s, bound)
                assert (out is not None and out[1] < bound) == (full < bound)
                if out is not None:
                    assert out == (values_f, full)
            # no letter after the first one whose error reaches the bound is
            # evaluated: a poisoned coefficient in the next letter's slot,
            # in values and in each of step's trials alike
            start = 0
            for i, (_, _, terms) in enumerate(forms[:-1]):
                start += len(terms)
                poisoned = c[:start] + (Poison(),) + c[start + 1:]
                assert values(poisoned, targets, s, errors[i]) is None
                assert step(poisoned, targets, s, zero, zero, errors[i]) is None
                with pytest.raises(AssertionError, match="was evaluated"):
                    values(poisoned, targets, s, math.nan)
                with pytest.raises(AssertionError, match="was evaluated"):
                    step(poisoned, targets, s, zero, zero, math.nan)


def test_kernels_match_value_and_euler_bit_for_bit():
    # values are value_and_euler's totals over the float terms, floored;
    # direction is the copying elimination of J d = l - log G, row i of J
    # the Euler row over G_i; an accepted step has values' floats at its
    # trial; all bit for bit
    rng = random.Random(107)
    for k in (3, 4, 5):
        ctx = context(k)
        values, direction, step = ctx._float_kernels
        for scale in (1.0, 1.0, 1.0, 1e-120):
            p = random_params(ctx, rng)
            forms = construction.TView(ctx, p.t).letters
            c = coefficients(forms)
            s = [float(x) * rng.uniform(0.5, 1.5) * scale for x in p.s]
            expected = [value_and_euler(float_terms(sc, terms), s) for sc, _, terms in forms]
            G = [max(g, 1e-300) for g, _ in expected]
            targets = [rng.uniform(0.01, 0.5) for _ in G]
            merit = max(abs(x - g) / x for x, g in zip(targets, G))
            got_G, got_merit = values(c, targets, s, math.nan)
            assert [float.hex(g) for g in got_G] == [float.hex(g) for g in G]
            assert float.hex(got_merit) == float.hex(merit)
            logs = [math.log(x) for x in targets]
            d = elimination_oracle(
                [[v / g for v in row] for (_, row), g in zip(expected, G)],
                [lx - math.log(g) for lx, g in zip(logs, G)],
            )
            got = direction(c, s, G, logs)
            assert (got is None) == (d is None)
            if d is not None:
                assert [float.hex(x) for x in got] == [float.hex(x) for x in d]
            # a step with no domain to leave and no merit to beat takes lam = 1
            d = [rng.uniform(-0.1, 0.1) for _ in s]
            trial, trial_G, trial_merit, lam = step(c, targets, s, d, [0.0] * ctx.ell, math.inf)
            assert lam == 1.0 and trial == [x * math.exp(dx) for x, dx in zip(s, d)]
            assert (trial_G, trial_merit) == values(c, targets, trial, math.nan)
            if scale < 1:
                assert G == [1e-300] * ctx.ell


def elimination_oracle(A, b):
    # the elimination solve used before it worked in place, kept verbatim
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


def compiled_elimination(n):
    # the kernels' elimination lines compiled on their own, the matrix and
    # right-hand side unpacked into the locals they work on
    head = ["%s, = A[%d]" % (", ".join("a%d_%d" % (i, j) for j in range(n)), i) for i in range(n)]
    head.append("%s, = b" % ", ".join("b%d" % i for i in range(n)))
    body = "".join("    %s\n" % line for line in head + solver._elimination(n))
    namespace = {}
    exec("def eliminate(A, b):\n" + body, namespace)
    return namespace["eliminate"]


def random_system(rng, n, kind):
    A = [[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)]
    b = [rng.uniform(-1.0, 1.0) for _ in range(n)]
    if kind == 1:
        # badly scaled rows and columns
        rows = [10.0 ** rng.randint(-150, 150) for _ in range(n)]
        cols = [10.0 ** rng.randint(-150, 150) for _ in range(n)]
        A = [[v * rows[i] * cols[j] for j, v in enumerate(row)] for i, row in enumerate(A)]
    elif kind == 2 and n > 1:
        # singular: a repeated row, a zero column or a combination
        i, j = rng.sample(range(n), 2)
        how = rng.choice(("row", "column", "combination"))
        if how == "row":
            A[i] = list(A[j])
        elif how == "column":
            for row in A:
                row[j] = 0.0
        else:
            A[i] = [0.5 * u + 0.25 * v for u, v in zip(A[j], A[(j + 1) % n])]
    elif kind == 3:
        # entries of the Jacobians' kind: nonnegative, some exact zeros
        A = [[0.0 if rng.random() < 0.3 else rng.uniform(0.0, 5.0) for _ in row] for row in A]
    elif kind == 4:
        # small integers: ties for the pivot, zero multipliers, and signed
        # zeros that a zero multiplier's update would flip
        A = [[rng.choice((-2.0, -1.0, 0.0, 1.0, 2.0)) for _ in row] for row in A]
        b = [rng.choice((-0.0, 0.0, -1.0, 1.0)) for _ in b]
    return A, b


def test_elimination_lines_match_the_copying_elimination():
    # unrolled on locals and touching only the columns from the pivot on,
    # the elimination gives the very same floats, and None on the same
    # matrices; n = 11 is the k = 5 Jacobian's size
    rng = random.Random(109)
    systems = [random_system(rng, rng.randint(1, 6), trial % 4) for trial in range(600)]
    systems += [random_system(rng, 11, trial % 5) for trial in range(50)]
    systems += [random_system(rng, rng.randint(2, 6), 4) for _ in range(200)]
    eliminate = {n: compiled_elimination(n) for n in (1, 2, 3, 4, 5, 6, 11)}
    outcomes = set()
    for A, b in systems:
        expected = elimination_oracle([list(row) for row in A], list(b))
        got = eliminate[len(b)](A, b)
        outcomes.add(expected is None)
        if expected is None:
            assert got is None
        else:
            assert [float.hex(x) for x in got] == [float.hex(x) for x in expected]
    assert outcomes == {True, False}


def test_kernel_sources_are_registered_for_tracebacks():
    # each kernel's lines are readable under its context's filename, so a
    # traceback through a kernel shows the line that raised
    ctx = context(4)
    values, direction, step = ctx._float_kernels
    for kernel, signature in ((values, "values(c, x, s, bound)"),
                              (direction, "direction(c, s, G, log_targets)"),
                              (step, "step(c, x, s, d, row_sums, merit)")):
        assert kernel.__code__.co_filename == "<float kernels, k = 4>"
        assert inspect.getsource(kernel).startswith("def %s:\n" % signature)
    with pytest.raises(AssertionError) as info:
        direction((Poison(),) * 10, [0.1] * 3, [0.1] * 3, [0.0] * 3)
    assert traceback.extract_tb(info.value.__traceback__)[-2].line == "t0 = c0 * p0_4"


def float_singular(monkeypatch, ctx):
    # every direction the context's kernels solve for is float-singular
    values, _, step = ctx._float_kernels
    monkeypatch.setitem(vars(ctx), "_float_kernels", (values, lambda c, s, G, l: None, step))


def _float_singular_report(monkeypatch):
    # every Newton run stops at its start on a float-singular Jacobian,
    # which the exact Jacobian at the start's rational point then decides
    ctx = context(4)
    p = random_params(ctx, random.Random(83))
    float_singular(monkeypatch, ctx)
    return solve(ctx, exact_densities(ctx, p), t=p.t)


def test_float_singular_jacobian_that_is_exactly_regular(monkeypatch):
    rep = _float_singular_report(monkeypatch)
    assert rep.status == "no-convergence"
    assert rep.detail == "float Jacobian singular; the exact one is not"
    # every run ends at its own start, so each is a distinct attempt
    assert rep.iterations == 0 and rep.attempts == rep.runs == 27


def test_exactly_singular_jacobian_is_reported(monkeypatch):
    seen = []

    def dependent_rows(forms, A, L):
        seen.append(tuple(Q(a, L) for a in A))
        J = construction.jacobian_of_forms(forms, A, L)
        return J[:-1] + [J[0]]

    monkeypatch.setattr(solver, "jacobian_of_forms", dependent_rows)
    rep = _float_singular_report(monkeypatch)
    assert rep.status == "singular-jacobian"
    assert rep.detail == "exact Jacobian is singular at the rounded iterate"
    # decided at the rational point the report carries
    assert rep.s_rational in seen


def test_ball_targets_near_a_simple_rational_converge():
    # the default k = 3 point is s = 1/2; targets within about 3e-8 of its
    # densities converge, each verified at the exact value of its float s,
    # not at a simple rational nearby
    ctx = context(3)
    x0 = [float(x) for x in exact_densities(ctx, default_params(ctx))]
    rng = random.Random(5)
    reps = [solve(ctx, solver._ball_point(rng, x0, 1e-8)) for _ in range(20)]
    assert [rep.status for rep in reps] == ["converged"] * 20
    assert all(rep.s_rational == (Q(*rep.s[0].as_integer_ratio()),) for rep in reps)
    for rep in reps:
        assert max(v["abs_error"] for v in rep.verification) <= 1e-10


@pytest.mark.parametrize("k, trips", [(3, 4), (4, 4), (5, 2)])
def test_every_report_is_verified_at_the_exact_value_of_its_s(monkeypatch, k, trips):
    # whatever its status, a report that carries a point carries its float
    # s read exactly, and a converged one meets the tolerance there: round
    # trips, ball draws and a float-singular solve
    ctx = context(k)
    rng = random.Random(167 + k)
    x0 = [float(x) for x in point_densities(ctx, default_params(ctx))]
    reports = []
    for _ in range(trips):
        p = random_params(ctx, rng)
        reports.append(solve(ctx, point_densities(ctx, p), t=p.t))
    for radius in (0.0, 1e-7, 1e-4):
        reports += [solve(ctx, solver._ball_point(rng, x0, radius)) for _ in range(4)]
    float_singular(monkeypatch, ctx)
    p = random_params(ctx, rng)
    reports.append(solve(ctx, point_densities(ctx, p), t=p.t))
    assert reports[-1].detail == "float Jacobian singular; the exact one is not"
    for rep in reports:
        if rep.runs:
            assert rep.s_rational == tuple(Q(*x.as_integer_ratio()) for x in rep.s)
        if rep.converged:
            assert max(v["abs_error"] for v in rep.verification) <= 1e-10
    assert any(rep.converged for rep in reports)


def test_one_exact_jacobian_per_float_singular_solve(monkeypatch):
    # only the reported run is classified, at the rational point it carries
    seen = []

    def counted(forms, A, L):
        seen.append(tuple(Q(a, L) for a in A))
        return construction.jacobian_of_forms(forms, A, L)

    monkeypatch.setattr(solver, "jacobian_of_forms", counted)
    rep = _float_singular_report(monkeypatch)
    assert rep.runs == 27 and seen == [rep.s_rational]


def test_tracing_does_not_change_a_report(monkeypatch):
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
    for ctx, x, kwargs in cases:
        traced = solve(ctx, x, want_trace=True, **kwargs)
        assert dataclasses.replace(traced, trace=[]) == solve(ctx, x, **kwargs)
    # and from a start off the grid
    ctx = context(4)
    x0 = [float(x) for x in point_densities(ctx, default_params(ctx))]
    single_start(monkeypatch, [0.05, 0.1, 0.08])
    traced = solve(ctx, x0, want_trace=True)
    assert traced.trace and dataclasses.replace(traced, trace=[]) == solve(ctx, x0)


def test_integer_domain_test_at_the_boundary():
    # the default k = 4 t has row sums 1, so s = (1/2, 1/4, 1/4) uses
    # exactly the measure 1 and lies on the boundary of the open domain
    ctx = context(4)
    view = construction.TView(ctx, default_params(ctx).t)
    D, R = view.D, view.R
    assert solver._rational_point([0.5, 0.25, 0.25], D, R) is None
    # the next float below, read at its exact binary value, is inside
    below = math.nextafter(0.25, 0.0)
    s, A, L = solver._rational_point([0.5, 0.25, below], D, R)
    assert s == (Q(1, 2), Q(1, 4), Q(*below.as_integer_ratio())) and L == 2 ** 55
    assert [Q(a, L) for a in A] == list(s)


def in_open_domain(s, t):
    # the open domain as a Fraction sum, the oracle of the integer test
    s = [Fraction(x) for x in s]
    used = sum(x * sum(Fraction(y) for y in row) for x, row in zip(s, t))
    return all(x > 0 for x in s) and used < 1


def test_integer_domain_test_agrees_with_check_domain():
    # float points within about 1e-6 of the boundary, some with a tiny
    # component: _rational_point keeps exactly the points that the Fraction
    # sum, and make_params, accept
    rng = random.Random(103)
    outcomes = set()
    for k in (3, 4, 5):
        ctx = context(k)
        for _ in range(100):
            view = construction.TView(ctx, random_params(ctx, rng).t)
            t, D, R = view.t, view.D, view.R
            s = [rng.uniform(1e-8, 1.0) if rng.random() < 0.9 else rng.uniform(1e-9, 1e-6)
                 for _ in range(ctx.ell)]
            used = sum(x * float(sum(row)) for x, row in zip(s, t))
            s = [x / used * (1 + rng.uniform(-2e-6, 2e-6)) for x in s]
            q = tuple(Q(*x.as_integer_ratio()) for x in s)
            point = solver._rational_point(s, D, R)
            try:
                make_params(ctx, q, t)
            except DomainError:
                assert not in_open_domain(q, t) and point is None
                outcomes.add("out")
                continue
            assert in_open_domain(q, t) and point[0] == q
            outcomes.add("in")
    assert outcomes == {"in", "out"}


def test_seeded_reports_are_pinned(monkeypatch):
    # k = 3 and 4 round trips, ball targets at 1e-7 and 1e-4, and a
    # float-singular solve; floats as float.hex.  The failed reports'
    # attempts are uncapped counts of distinct end points.  Status, s,
    # detail, attempts and runs were recorded before the solver's exact
    # side moved to integer s-forms; s_rational and verification since
    # each end point is verified at its own exact value.
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
    float_singular(monkeypatch, ctx)
    got.append(fields(solve(ctx, point_densities(ctx, p), t=p.t)))
    assert got == [
        ("converged", ["0x1.0000000000001p-2"],
         ["4503599627370497/18014398509481984"],
         [
             ("1/448",
              "91343852333181493234959112999792471369131753473/4092204584526528170970317531605592"
              "4550366111203328",
              "0x1.b6db6db6db6ddp-60"),
         ],
         "", 1, 1),
        ("converged", ["0x1.ffffdcbcafb4bp-2"],
         ["9007189788916555/18014398509481984"],
         [
             ("8006374095375577/576460752303423488",
              "730748514791131033050685415899779561156963653875/526140589439125050553326539777861"
              "88707613571547136",
              "0x1.eb012499c6ad5p-62"),
         ],
         "", 1, 1),
        ("converged", ["0x1.0069a1f1d29a4p-1"],
         ["1127714661026409/2251799813685248"],
         [
             ("8045176528425979/576460752303423488",
              "159351138362519506308890616670059164754592881/114179815416476790484662877555959610"
              "91061972992",
              "0x1.550cbcd9ec66bp-57"),
         ],
         "", 1, 1),
        ("converged", ["0x1.c71c71c71c6efp-7", "0x1.5555555555554p-3", "0x1.8618618618696p-6"],
         [
             "8006399337547503/576460752303423488",
             "1501199875790165/9007199254740992",
             "3431314001806155/144115188075855872",
         ],
         [
             ("78672463459/11292874661376000",
              "114029882582208214749121390367251348734737524175736991559379840746814993/163681816"
              "36048501078280267002976193563033050038399288754223442449162410393600",
              "0x1.71c6a7749b99dp-68"),
             ("7437677/26404963200",
              "5193518921717812196246688643782038688757824027760773/18437836976042725327123862670"
              "402157365412955063771463680",
              "0x1.50b5a038d5f80p-65"),
             ("1567717/216040608000",
              "964099826745837496227791993882488876723033635593097264264985065297/132858617175718"
              "352908119050348832739959683847714279941186878591308136448",
              "0x1.4f84590d3d31bp-67"),
         ],
         "", 10, 10),
        ("converged", ["0x1.50d1ae92bccc6p-3", "0x1.5ac0bdafc2977p-3", "0x1.512a6b2e3930dp-3"],
         [
             "2962691871598179/18014398509481984",
             "6100141429500279/36028797018963968",
             "5931481686053645/36028797018963968",
         ],
         [
             ("2283981309072297/73786976294838206464",
              "26704339382738729267938621547752437637310234229936491190004047411/8627182933488204"
              "73429344482784628181556388621521298319395315527974912",
              "0x1.57dd439b9b60bp-71"),
             ("2687442238298811/2305843009213693952",
              "3488499472853181265241822828173094337805612258191/29931553532536891764811465374029"
              "47624255349848014848",
              "0x1.2fd9b5989cc47p-62"),
             ("3082739825299009/18446744073709551616",
              "72086868834235040720863556885464405966077060977639516335837768383/4313591466744102"
              "36714672241392314090778194310760649159697657763987456",
              "0x1.2895f6209a32dp-62"),
         ],
         "", 1, 1),
        ("no-convergence", ["0x1.76266755a4dc0p-5", "0x1.5eff1cefbcd6ep-6", "0x1.2ee0e667db4cbp-2"],
         [
             "102845572802871/2251799813685248",
             "3087398174844599/144115188075855872",
             "5328295197258955/18014398509481984",
         ],
         [
             ("3340815183293207/73786976294838206464",
              "1046294030417878436076098101155105676319082261471125480594509934257/23293393920418"
              "152782592301035184960902022492781075054623673519255322624",
              "0x1.80dc7db8354e1p-22"),
             ("5444102800454063/4611686018427387904",
              "32945262184113102834201890349511468715586284007023/2693839817928320258833031883662"
              "6528618298148632133632",
              "0x1.6460cadb6e160p-15"),
             ("1519948222193483/9223372036854775808",
              "27681406802753620697629855323267590941649487807068520445017068519/1617596800029038"
              "38768002090522117784041822866535243434886621661495296",
              "0x1.a90ad5a836ee9p-18"),
         ],
         "stalled: relative progress under 5% across 10 iterations", 26, 27),
        ("no-convergence", ["0x1.904ea1bb327c3p-4", "0x1.1111111111111p-5", "0x1.4a5294a5294a4p-6"],
         [
             "7042277951350723/72057594037927936",
             "4803839602528529/144115188075855872",
             "1452774073345321/72057594037927936",
         ],
         [
             ("22852736684801/9476282528122798080",
              "116322499247521213744238962020759866168226464562594313927671281686571/405822685191"
              "28515070116364470188909660412520756361872944355642435939860480",
              "0x1.e84d28ad3cff3p-22"),
             ("42156731/296751071232",
              "37916703680420856598969177680223570693474182052293/3352333995644131877658884121891"
              "30133916599182977662976",
              "0x1.e5cb1347a62bfp-16"),
             ("2313652823/160245578465280",
              "4743132428039901661293040487000833885917430503764853024927187888003/19324889771013"
              "57860481731641437567126686310512207708235445506782663802880",
              "0x1.921ba7fce6d7ap-17"),
         ],
         "float Jacobian singular; the exact one is not", 27, 27),
    ]


def test_default_t_solve_equals_the_explicit_default_t():
    # the default t is read once per context, an explicit t once per call:
    # both give the same report, field for field, whatever its status
    statuses = set()
    for k in (3, 4, 5):
        ctx = context(k)
        t = default_params(ctx).t
        x0 = [float(v) for v in point_densities(ctx, default_params(ctx))]
        rng = random.Random(27)
        targets = [solver._ball_point(rng, x0, radius)
                   for radius in (0.0, 1e-7, 1e-4, 1e-3) for _ in range(6)]
        for n, x in enumerate(targets):
            rep = solve(ctx, x, want_trace=n % 2 == 1)
            assert repr(vars(rep)) == repr(vars(solve(ctx, x, t=t, want_trace=n % 2 == 1)))
            statuses.add(rep.status if rep.converged or rep.runs == 0 else "failed run")
        # and the same input errors
        for x in ([Q(0)] + x0[1:], [Q(1)] + x0[1:], [Q(1, 10 ** 400)] + x0[1:]):
            for t_given in (None, t):
                with pytest.raises(DomainError, match="not strictly inside|below the float range"):
                    solve(ctx, x, t=t_given)
    assert statuses == {"converged", "unreachable", "unreachable-at-t", "failed run"}


def test_default_t_view_is_made_once_per_context(monkeypatch):
    # the default t's view lives on the context, made at the first point
    # read or solve there (not by context(k), which a fresh instance here
    # stands in for).  Probe's centre, point_densities at the default t,
    # reads it too, so the centre, a probe and the solves after them form
    # each letter once; keeping it left the module-level caches as they were
    from test_imports import MODULE_CACHES, cache_sizes, module_caches

    ctx = context.__wrapped__(4)
    assert "_default_view" not in vars(ctx)
    made, formed = [], []

    class Counted(construction.TView):
        def __init__(self, *args):
            made.append(1)
            super().__init__(*args)

        def form(self, i):
            formed.append(i)
            return super().form(i)

    monkeypatch.setattr(construction, "TView", Counted)
    x0 = [float(x) for x in point_densities(ctx, default_params(ctx))]
    # point_densities' reading of t, and the default view it finds equal
    assert len(made) == 2 and isinstance(ctx._default_view, Counted)
    caches = module_caches()
    before = cache_sizes(caches)
    probe_ball(ctx, x0, 1e-7, 2, seed=5)
    views = []
    for radius in (0.0, 1e-7, 1e-4, 1e-3):
        solve(ctx, solver._ball_point(random.Random(5), x0, radius))
        views.append(ctx._default_view)
    assert len(made) == 2 and all(view is views[0] for view in views)
    assert sorted(formed) == list(range(1, ctx.ell + 1))
    assert set(caches) == MODULE_CACHES and cache_sizes(caches) == before


def test_an_explicit_t_is_read_once_and_a_point_forms_no_letter(monkeypatch):
    # a solve at an explicit t reads it into one TView; reading a point
    # for make_params or build forms no letter, so a fresh context (not
    # context(k)'s) keeps its polynomials unbuilt until the s-forms are
    # needed, here by point_densities or jacobian_at
    ctx = context(4)
    p = random_params(ctx, random.Random(31))
    x = point_densities(ctx, p)
    made = []

    class Counted(construction.TView):
        def __init__(self, *args):
            made.append(1)
            super().__init__(*args)

    with monkeypatch.context() as patch:
        patch.setattr(solver, "TView", Counted)
        assert solve(ctx, x, t=p.t).converged
    assert len(made) == 1
    for reader in (point_densities, construction.jacobian_at):
        fresh = context.__wrapped__(4)
        make_params(fresh, p.s, p.t)
        build(fresh, p)
        assert "_letters" not in vars(fresh)
        reader(fresh, p)
        assert "_letters" in vars(fresh)
