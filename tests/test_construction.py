"""The blow-up family: contexts, exact densities two ways, Jacobians."""

import random

import pytest

from tourlyn.construction import (
    WkParams,
    block_labels,
    build,
    certify_det_nonzero,
    check_domain,
    context,
    context_to_json,
    density_s_poly,
    det_polynomial,
    jacobian_at,
    jacobian_symbolic,
    make_params,
    params_from_json,
    params_to_json,
    point_densities,
    random_params,
    symbolic_density,
    unique_full_t_monomial,
)
from tourlyn.errors import BudgetError, DomainError
from tourlyn.poly import Polynomial, det_rational, s_var, t_var, uniform_degrees, var_name
from tourlyn.rational import Q, fmt_q
from tourlyn.solver import default_params
from tourlyn.tournamentons import TRANSITIVE_KIND, density, map_sum, validate
from tourlyn.tournaments import parse, strongly_connected_components


def test_context_shapes():
    for k, ell, N in ((3, 1, 3), (4, 3, 11), (5, 11, 51)):
        ctx = context(k)
        assert (ctx.ell, ctx.N) == (ell, N)
        assert sum(ctx.sizes) == N
        assert all(3 <= n <= k for n in ctx.sizes)
    for bad in (2, 6):
        with pytest.raises(DomainError):
            context(bad)


def test_context_json():
    data = context_to_json(context(4))
    assert data["k"] == 4 and data["ell"] == 3 and data["N"] == 11
    assert len(data["words"]) == 3 and len(data["tournaments"]) == 3
    assert data["blocks"] == block_labels(context(4))
    assert data["blocks"][-1] == "I_0" and len(data["blocks"]) == 12


def test_host_tournament_is_the_laid_out_direct_sum():
    from tourlyn.tournaments import are_isomorphic, induced

    for k in (3, 4, 5):
        ctx = context(k)
        host = ctx.host
        assert host.n == ctx.N
        off = 0
        for T in ctx.lyndon_seq:
            block = induced(host, tuple(range(off, off + T.n)))
            assert are_isomorphic(block, T)
            off += T.n
        # every earlier block beats every later one
        parts = strongly_connected_components(host)
        flat = [v for part in parts for v in part]
        assert sorted(flat) == list(range(ctx.N))
        assert [H for H, _ in ctx.parts] == list(parts)


def test_build_is_a_valid_tournamenton():
    for k in (3, 4):
        ctx = context(k)
        p = default_params(ctx)
        W = build(ctx, p)
        validate(W)
        assert len(W.blocks) == ctx.N + 1
        assert density(parse("1:"), W) == 1


def test_check_domain_returns_the_remainder():
    ctx = context(3)
    p = default_params(ctx)
    # s = 1/2, t = (1/3, 1/3, 1/3): used measure 1/2, remainder 1/2
    assert check_domain(ctx, p) == Q(1, 2)


def test_check_domain_rejections():
    ctx = context(3)
    with pytest.raises(DomainError, match="s-values"):
        make_params(ctx, [Q(1, 2), Q(1, 2)], [(Q(1, 3),) * 3])
    with pytest.raises(DomainError, match="lengths"):
        make_params(ctx, [Q(1, 2)], [(Q(1, 3),) * 2])
    with pytest.raises(DomainError, match="positive"):
        make_params(ctx, [Q(0)], [(Q(1, 3),) * 3])
    with pytest.raises(DomainError, match="positive"):
        make_params(ctx, [Q(1, 2)], [(Q(1, 3), Q(1, 3), Q(-1, 3))])
    with pytest.raises(DomainError, match="domain"):
        make_params(ctx, [Q(1)], [(Q(1, 3),) * 3])  # used measure exactly 1


def test_density_two_routes_agree():
    # the closed-form polynomial and the generic tournamenton integrator
    # compute the same exact rationals; at k = 5 only the letters on at
    # most four vertices, since the integrator's unfactored walk over the
    # 52 blocks of W takes up to 0.6 s per five-vertex letter there (about
    # 2.6 s for all eight)
    rng = random.Random(31)
    for k, draws, max_n in ((3, 3, 3), (4, 3, 4), (5, 1, 4)):
        ctx = context(k)
        for _ in range(draws):
            p = random_params(ctx, rng)
            W = build(ctx, p)
            point = {s_var(j): p.s[j - 1] for j in range(1, ctx.ell + 1)}
            for i, T in enumerate(ctx.lyndon_seq, start=1):
                if T.n <= max_n:
                    assert density_s_poly(ctx, i, p.t).evaluate(point) == density(T, W)


def test_chain_dp_equals_the_unfactored_walk():
    # the oracle: one map_sum over all N host blocks, ignoring the host's
    # strong parts, with the cross matrix read off the host tournament
    for k in (3, 4):
        ctx = context(k)
        host = ctx.host
        cross = [[host.out[u] >> v & 1 for v in range(ctx.N)] for u in range(ctx.N)]
        measures = [
            Polynomial.var(s_var(i)) * Polynomial.var(t_var(i, j))
            for i, n in enumerate(ctx.sizes, start=1) for j in range(1, n + 1)
        ]
        for i, T in enumerate(ctx.lyndon_seq, start=1):
            unfactored = map_sum(
                T, measures, [TRANSITIVE_KIND] * ctx.N, cross, Polynomial.zero()
            )
            assert symbolic_density(ctx, i).terms == unfactored.terms


def test_five_vertex_symbolic_densities():
    ctx = context(5)
    polys = [symbolic_density(ctx, i) for i in range(1, ctx.ell + 1)]
    assert [len(p.terms) for p in polys] == [
        135, 1, 135, 1, 1, 1, 112, 30, 2100, 584, 8382,
    ]
    p = random_params(ctx, random.Random(59))
    point = {s_var(j): v for j, v in enumerate(p.s, start=1)}
    for i, row in enumerate(p.t, start=1):
        for j, v in enumerate(row, start=1):
            point[t_var(i, j)] = v
    assert [q.evaluate(point) for q in polys] == point_densities(ctx, p)


def test_four_vertex_symbolic_term_order():
    # s_forms, and through it density_s_poly and the solver's float terms,
    # follows the polynomial's term order, so the order is pinned too
    def written(mono, c):
        return "*".join([fmt_q(c)] + [var_name(v) + ("^%d" % e if e > 1 else "")
                                      for v, e in mono])

    ctx = context(4)
    assert [[written(m, c) for m, c in symbolic_density(ctx, i).terms.items()]
            for i in range(1, ctx.ell + 1)] == [
        ["1/2*s1^4*t1_1*t1_2^2*t1_4", "1/1*s1^4*t1_1*t1_2*t1_3*t1_4",
         "1/2*s1^4*t1_1*t1_3^2*t1_4", "1/2*s1^4*t1_1*t1_2*t1_4^2",
         "1/2*s1^4*t1_1*t1_3*t1_4^2", "1/2*s1^4*t1_1^2*t1_2*t1_4",
         "1/2*s1^4*t1_1^2*t1_3*t1_4", "1/2*s2^4*t2_1*t2_2^2*t2_3",
         "1/2*s2^4*t2_1*t2_2*t2_3^2", "1/2*s2^4*t2_1^2*t2_2*t2_3",
         "1/2*s3^4*t3_2*t3_3^2*t3_4", "1/2*s3^4*t3_2*t3_3*t3_4^2",
         "1/2*s3^4*t3_2^2*t3_3*t3_4"],
        ["3/1*s1^3*t1_1*t1_2*t1_4", "3/1*s1^3*t1_1*t1_3*t1_4",
         "3/1*s2^3*t2_1*t2_2*t2_3", "3/1*s3^3*t3_2*t3_3*t3_4"],
        ["3/1*s1*s2^3*t1_1*t2_1*t2_2*t2_3", "3/1*s1*s2^3*t1_2*t2_1*t2_2*t2_3",
         "3/1*s1*s2^3*t1_3*t2_1*t2_2*t2_3", "3/1*s1*s2^3*t1_4*t2_1*t2_2*t2_3",
         "3/1*s1*s3^3*t1_1*t3_2*t3_3*t3_4", "3/1*s1*s3^3*t1_2*t3_2*t3_3*t3_4",
         "3/1*s1*s3^3*t1_3*t3_2*t3_3*t3_4", "3/1*s1*s3^3*t1_4*t3_2*t3_3*t3_4",
         "3/1*s2*s3^3*t2_1*t3_2*t3_3*t3_4", "3/1*s2*s3^3*t2_2*t3_2*t3_3*t3_4",
         "3/1*s2*s3^3*t2_3*t3_2*t3_3*t3_4", "3/1*s3^4*t3_1*t3_2*t3_3*t3_4"],
    ]


def test_point_densities_match_build_and_density():
    rng = random.Random(61)
    for k, draws, max_n in ((3, 3, 3), (4, 3, 4), (5, 1, 4)):
        ctx = context(k)
        for _ in range(draws):
            p = random_params(ctx, rng)
            W = build(ctx, p)
            for T, value in zip(ctx.lyndon_seq, point_densities(ctx, p)):
                if T.n <= max_n:
                    assert value == density(T, W)
    # used measure exactly 1: outside the open domain
    with pytest.raises(DomainError, match="domain"):
        point_densities(context(3), WkParams(s=(Q(1),), t=((Q(1, 3),) * 3,)))


def test_symbolic_density_matches_bound_t_route():
    rng = random.Random(37)
    for k in (3, 4):
        ctx = context(k)
        p = random_params(ctx, rng)
        point = {s_var(j): p.s[j - 1] for j in range(1, ctx.ell + 1)}
        for i, row in enumerate(p.t, start=1):
            for j, v in enumerate(row, start=1):
                point[t_var(i, j)] = v
        spoint = {s_var(j): p.s[j - 1] for j in range(1, ctx.ell + 1)}
        for i, T in enumerate(ctx.lyndon_seq, start=1):
            full = symbolic_density(ctx, i).evaluate(point)
            bound = density_s_poly(ctx, i, p.t).evaluate(spoint)
            assert full == bound


def test_density_s_poly_is_the_substitution_term_for_term():
    # the solver's float terms follow the dict order, so it is compared too;
    # one t has large coprime denominators and entries above 1
    rng = random.Random(71)
    primes = (1000003, 999983, 1000033, 999979, 1000037)
    for k in (3, 4, 5):
        ctx = context(k)
        wild = tuple(
            tuple(Q(primes[(i + j) % 5] + 7 * i + j, primes[(i + 2 * j) % 5])
                  for j in range(n))
            for i, n in enumerate(ctx.sizes)
        )
        for t in (random_params(ctx, rng).t, default_params(ctx).t, wild):
            assign = {t_var(i, j): v
                      for i, row in enumerate(t, start=1) for j, v in enumerate(row, start=1)}
            for i in range(1, ctx.ell + 1):
                ours = density_s_poly(ctx, i, t).terms
                oracle = symbolic_density(ctx, i).substitute(assign).terms
                assert list(ours.items()) == list(oracle.items())


def test_density_polys_are_posynomials():
    # no map reaches the remainder block (the targets have no sink), so the
    # slack polynomial never enters and every coefficient stays positive
    for k in (3, 4):
        ctx = context(k)
        t = default_params(ctx).t
        for i in range(1, ctx.ell + 1):
            p = density_s_poly(ctx, i, t)
            assert all(c > 0 for c in p.terms.values())
            assert uniform_degrees(p, kinds=("s",)) == (ctx.sizes[i - 1],)


def test_symbolic_density_is_bihomogeneous():
    for k in (3, 4):
        ctx = context(k)
        for i, n in enumerate(ctx.sizes, start=1):
            p = symbolic_density(ctx, i)
            assert uniform_degrees(p) == (n, n)
            assert all(c > 0 for c in p.terms.values())


def test_three_vertex_symbolic_closed_forms():
    ctx = context(3)
    s1 = Polynomial.var(s_var(1))
    t11, t12, t13 = (Polynomial.var(t_var(1, j)) for j in (1, 2, 3))
    assert symbolic_density(ctx, 1) == 3 * s1 ** 3 * t11 * t12 * t13
    det = det_polynomial(jacobian_symbolic(ctx))
    assert det == 9 * s1 ** 2 * t11 * t12 * t13


def test_full_t_monomial_shape_and_coefficients():
    # det(J) keeps exactly one monomial with every t present, of shape
    # prod_i s_i^(n_i - 1) prod_ij t_ij; its coefficient certifies det != 0
    mono3, coeff3 = unique_full_t_monomial(context(3))
    assert coeff3 == 9
    mono4, coeff4 = unique_full_t_monomial(context(4))
    assert coeff4 == 432
    with pytest.raises(BudgetError):
        unique_full_t_monomial(context(5))


def test_jacobian_two_routes_agree():
    rng = random.Random(41)
    for k in (3, 4):
        ctx = context(k)
        sym = jacobian_symbolic(ctx)
        for _ in range(2):
            p = random_params(ctx, rng)
            point = {s_var(j): p.s[j - 1] for j in range(1, ctx.ell + 1)}
            for i, row in enumerate(p.t, start=1):
                for j, v in enumerate(row, start=1):
                    point[t_var(i, j)] = v
            J = jacobian_at(ctx, p)
            for i in range(ctx.ell):
                for j in range(ctx.ell):
                    assert sym[i][j].evaluate(point) == J[i][j]
    # at k = 5 the symbolic Jacobian is too dear; jacobian_at's Euler rows
    # are checked against the derivatives of the fixed-t s-polynomials
    ctx = context(5)
    p = random_params(ctx, rng)
    point = {s_var(j): v for j, v in enumerate(p.s, start=1)}
    assert jacobian_at(ctx, p) == [
        [density_s_poly(ctx, i, p.t).partial_derivative(s_var(j)).evaluate(point)
         for j in range(1, ctx.ell + 1)]
        for i in range(1, ctx.ell + 1)
    ]


def test_jacobian_matches_finite_differences():
    rng = random.Random(43)
    h = 1e-6
    for k in (3, 4):
        ctx = context(k)
        p = random_params(ctx, rng)
        J = jacobian_at(ctx, p)
        polys = [density_s_poly(ctx, i, p.t) for i in range(1, ctx.ell + 1)]
        s0 = [float(x) for x in p.s]
        for i in range(ctx.ell):
            for j in range(ctx.ell):
                up = dict(enumerate(s0)); up[j] += h
                dn = dict(enumerate(s0)); dn[j] -= h
                f = lambda pt: polys[i].evaluate_float(
                    {s_var(m + 1): pt[m] for m in range(ctx.ell)}
                )
                fd = (f(up) - f(dn)) / (2 * h)
                assert abs(fd - float(J[i][j])) <= 1e-5 * max(1.0, abs(float(J[i][j])))


def test_certify_det_nonzero():
    for k in (3, 4):
        cert = certify_det_nonzero(context(k), trials=10, seed=5)
        assert cert["det"] != 0
        assert 1 <= cert["trials_used"] <= 10
        again = certify_det_nonzero(context(k), trials=10, seed=5)
        assert again["det"] == cert["det"] and again["point"] == cert["point"]
    with pytest.raises(DomainError):
        certify_det_nonzero(context(3), trials=0, seed=1)


def test_certified_points_have_nonsingular_jacobians():
    ctx = context(4)
    cert = certify_det_nonzero(ctx, trials=10, seed=9)
    assert det_rational(jacobian_at(ctx, cert["point"])) == cert["det"]


def test_random_params_stay_in_domain():
    rng = random.Random(47)
    for k in (3, 4, 5):
        ctx = context(k)
        for _ in range(5):
            p = random_params(ctx, rng)
            assert check_domain(ctx, p) > 0
    a = random_params(context(4), random.Random(8))
    b = random_params(context(4), random.Random(8))
    assert a == b


def test_params_json_round_trip():
    ctx = context(4)
    p = random_params(ctx, random.Random(53))
    assert params_from_json(ctx, params_to_json(p)) == p
    with pytest.raises(DomainError):
        params_from_json(ctx, {"s": ["1/2"]})
    with pytest.raises(DomainError):
        params_from_json(ctx, {"t": [["1/3"]]})


def test_symbolic_density_budgets():
    with pytest.raises(DomainError):
        symbolic_density(context(3), 2)
