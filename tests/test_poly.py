"""Exact polynomial arithmetic and the fraction-free linear algebra."""

import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import evaluate_oracle, substitute, uniform_degrees

from tourlyn.errors import DomainError
from tourlyn.poly import (
    Polynomial,
    det_rational,
    poly_to_json,
    s_var,
    solve_linear,
    t_var,
    x_var,
)
from tourlyn.rational import ONE, Q, ZERO

S1, S2, T11 = s_var(1), s_var(2), t_var(1, 1)

rationals = st.builds(Q, st.integers(-6, 6), st.integers(1, 5))

monomials = st.lists(
    st.tuples(st.sampled_from([S1, S2, T11]), st.integers(1, 3)),
    max_size=3,
    unique_by=lambda p: p[0],
).map(tuple)


def finished(terms):
    # the dict Polynomial takes: sorted monomials, equal ones merged, no
    # zero coefficient
    merged = {}
    for mono, c in terms:
        mono = tuple(sorted(mono))
        merged[mono] = merged.get(mono, ZERO) + c
    return Polynomial({mono: c for mono, c in merged.items() if c})


polys = st.lists(st.tuples(monomials, rationals), max_size=5).map(finished)

points = st.fixed_dictionaries({S1: rationals, S2: rationals, T11: rationals})


def det_cofactor(M):
    """Laplace expansion along the first row; the slow reference."""
    n = len(M)
    if n == 0:
        return ONE
    if n == 1:
        return Q(M[0][0])
    total = ZERO
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in M[1:]]
        term = Q(M[0][j]) * det_cofactor(minor)
        total += term if j % 2 == 0 else -term
    return total


@given(polys, polys, polys)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + Polynomial.zero() == p
    assert p * Polynomial.const(1) == p
    assert p + (-1) * p == Polynomial.zero()


@given(polys, polys, points)
def test_evaluation_is_a_ring_homomorphism(p, q, pt):
    assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)
    assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)


@given(polys, points)
def test_evaluate_float_tracks_exact(p, pt):
    exact = p.evaluate(pt)
    approx = p.evaluate_float({v: float(x) for v, x in pt.items()})
    assert abs(approx - float(exact)) <= 1e-9 * (1.0 + abs(float(exact)))


def test_evaluate_is_the_term_by_term_oracle():
    # seeded polynomials whose coefficients and point values have mixed
    # denominators, at points whose values are ints, Qs and "p/q" strings;
    # the zero polynomial and a constant at any point, and the same error
    # for unassigned variables
    rng = random.Random(17)
    variables = [S1, S2, T11, x_var("3:101"), x_var("4:111101")]
    denominators = (1, 2, 3, 7, 12, 97, 101, 2 ** 40 + 15)
    for _ in range(300):
        p = finished(
            (tuple((v, rng.randint(1, 4)) for v in rng.sample(variables, rng.randint(0, 3))),
             Q(rng.randint(-60, 60), rng.choice(denominators)))
            for _ in range(rng.randint(0, 9)))
        point = {}
        for v in variables:
            x = Q(rng.randint(-30, 30), rng.choice(denominators))
            point[v] = rng.choice((x, "%d/%d" % (x.numerator, x.denominator),
                                   rng.randint(-5, 5)))
        value = p.evaluate(point)
        assert type(value) is Q and value == evaluate_oracle(p, point)
    for point in ({}, {S1: "2/3"}):
        assert Polynomial.zero().evaluate(point) == evaluate_oracle(Polynomial.zero(), point) == 0
        assert Polynomial.const(Q(-5, 7)).evaluate(point) == Q(-5, 7)
    p = Polynomial.var(T11) * Polynomial.var(S1) + Polynomial.var(S2) * Q(1, 3)
    for evaluate in (p.evaluate, lambda point: evaluate_oracle(p, point)):
        with pytest.raises(DomainError, match="^unassigned variables: s1, t1_1$"):
            evaluate({S2: 1})


@given(polys, polys)
def test_derivative_product_rule(p, q):
    for v in (S1, T11):
        lhs = (p * q).partial_derivative(v)
        rhs = p.partial_derivative(v) * q + p * q.partial_derivative(v)
        assert lhs == rhs


def test_derivative_power_rule():
    for n in range(1, 6):
        p = Polynomial.var(S1) ** n
        want = Polynomial.const(n) * Polynomial.var(S1) ** (n - 1)
        assert p.partial_derivative(S1) == want
    assert Polynomial.const(7).partial_derivative(S1) == Polynomial.zero()
    assert Polynomial.var(S2).partial_derivative(S1) == Polynomial.zero()


@given(polys, points)
def test_substitute_then_evaluate(p, pt):
    partial = substitute(p, {S1: pt[S1]})
    assert S1 not in partial.variables()
    assert partial.evaluate(pt) == p.evaluate(pt)


def test_pow_and_division_edges():
    p = Polynomial.var(S1) + 1
    assert p ** 0 == Polynomial.const(1)
    assert p ** 3 == p * p * p
    with pytest.raises(DomainError):
        p ** -1
    with pytest.raises(ZeroDivisionError):
        p / 0
    assert (p * 6) / 3 == p * 2


def test_uniform_degrees():
    p = Polynomial.var(S1) ** 2 * Polynomial.var(T11) + Polynomial.var(S2) ** 2 * Polynomial.var(T11)
    assert uniform_degrees(p) == (2, 1)
    q = p + Polynomial.var(S1)
    assert uniform_degrees(q) is None
    assert uniform_degrees(Polynomial.zero()) is None


def test_json_round_trip_x_vars():
    p = Polynomial.var(x_var("3:101")) ** 2 * Polynomial.const(Q(-1, 3)) + 1
    data = poly_to_json(p)
    assert any(
        item["monomial"] and item["monomial"][0]["var"] == "3:101" for item in data
    )


@settings(max_examples=30)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_det_matches_cofactor_expansion(M):
    assert det_rational(M) == det_cofactor(M)


def test_det_edges():
    assert det_rational([]) == 1
    assert det_rational([[Q(1), Q(0)], [Q(0), Q(1)]]) == 1
    # rank-deficient: second row is a multiple of the first
    assert det_rational([[Q(1), Q(2)], [Q(2), Q(4)]]) == 0
    with pytest.raises(DomainError):
        det_rational([[Q(1), Q(2)]])


def test_det_is_multiplicative():
    A = [[Q(1), Q(2), Q(0)], [Q(3), Q(1, 2), Q(1)], [Q(0), Q(1), Q(4)]]
    B = [[Q(2), Q(0), Q(1)], [Q(1), Q(1), Q(0)], [Q(0), Q(3), Q(1, 3)]]
    AB = [[sum(A[i][k] * B[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    assert det_rational(AB) == det_rational(A) * det_rational(B)


def test_det_alternates_under_row_swap():
    A = [[Q(1), Q(2), Q(3)], [Q(0), Q(1), Q(5)], [Q(2), Q(0), Q(1)]]
    for perm in permutations(range(3)):
        inversions = sum(perm[i] > perm[j] for i in range(3) for j in range(i + 1, 3))
        sign = -1 if inversions % 2 else 1
        assert det_rational([A[i] for i in perm]) == sign * det_rational(A)


def test_solve_linear_recovers_solution():
    M = [[Q(2), Q(1), Q(0)], [Q(1), Q(3), Q(1)], [Q(0), Q(1), Q(1, 2)]]
    x = [Q(1, 3), Q(-2), Q(5)]
    rhs = [sum(M[i][j] * x[j] for j in range(3)) for i in range(3)]
    assert solve_linear(M, rhs) == x


def test_solve_linear_singular_returns_none():
    M = [[Q(1), Q(2)], [Q(2), Q(4)]]
    assert solve_linear(M, [Q(1), Q(2)]) is None
