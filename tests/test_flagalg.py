"""Formal products, the reduction lemma, and density polynomials."""

import random

import pytest

from oracles import completion_counts_oracle, random_tournament, relabel

from tourlyn.errors import BudgetError, DomainError
from tourlyn.flagalg import (
    dimension,
    express,
    lemma_reduce,
    lincomb_to_json,
    multi_product,
    product,
    product_lincomb,
)
from tourlyn.poly import Polynomial, x_var
from tourlyn.rational import ONE, Q, ZERO, fmt_q
from tourlyn.tournamentons import density, random_step_tournamenton, sample
from tourlyn.tournaments import (
    Tournament,
    canonicalize,
    encode,
    enumerate_exact,
    parse,
    transitive,
)
from tourlyn.words import LetterOrder, is_lyndon_tournament, tournament_less, word_of


def densities_of_letters(W, k):
    from tourlyn.words import enumerate_lyndon

    return {x_var(encode(T)): density(T, W) for T in enumerate_lyndon(k)}


def test_product_mass_and_coefficients():
    # coefficients count cross-edge orientations, so they sum to 2^(n1*n2)
    C3 = parse("3:101")
    combo = product(parse("1:"), C3)
    assert sum(combo.values()) == 8
    assert all(c > 0 for c in combo.values())
    assert all(T.n == 4 for T in combo)
    assert all(encode(T) == encode(canonicalize(T)) for T in combo)


def test_product_commutes():
    C3 = parse("3:101")
    I2 = transitive(2)
    assert product(C3, I2) == product(I2, C3)


def test_product_mirrors_density():
    rng = random.Random(5)
    pairs = [(transitive(2), parse("3:101")), (parse("1:"), transitive(3)),
             (parse("3:101"), parse("3:101")), (transitive(2), transitive(2))]
    for T1, T2 in pairs:
        combo = product(T1, T2)
        for _ in range(4):
            W = random_step_tournamenton(rng)
            lhs = density(T1, W) * density(T2, W)
            rhs = sum(c * density(S, W) for S, c in combo.items())
            assert lhs == rhs


def test_product_is_the_completion_oracle():
    # every size pair up to 7 vertices in both orders, on seeded classes
    # given relabelled, against every completion canonicalized on its own
    rng = random.Random(61)

    def shuffled(T):
        perm = list(range(T.n))
        rng.shuffle(perm)
        return relabel(T, perm)

    for n in range(2, 8):
        for n1 in range(1, n // 2 + 1):
            A = shuffled(rng.choice(enumerate_exact(n1)))
            B = shuffled(rng.choice(enumerate_exact(n - n1)))
            for T1, T2 in ((A, B), (B, A)):
                want = completion_counts_oracle(T1, T2)
                assert product(T1, T2) == {C: Q(c) for C, c in want.items()}


def test_multi_product_associates():
    a, b, c = parse("1:"), transitive(2), parse("3:101")
    left = product_lincomb(product(a, b), {canonicalize(c): ONE})
    right = product_lincomb({canonicalize(a): ONE}, product(b, c))
    assert multi_product([a, b, c]) == left == right


def test_product_budget_and_empty():
    with pytest.raises(BudgetError):
        product(transitive(4), transitive(4))
    with pytest.raises(BudgetError):
        multi_product([transitive(4), transitive(4)])
    with pytest.raises(DomainError):
        multi_product([])


def test_lemma_reduce_postconditions():
    for n in range(2, 6):
        for T in enumerate_exact(n):
            if is_lyndon_tournament(T):
                continue
            gamma, alphas = lemma_reduce(T)
            assert gamma > 0
            for S in alphas:
                assert S.n == T.n
                assert tournament_less(S, T)
                assert alphas[S] != 0


def test_lemma_reduce_refuses_lyndon():
    with pytest.raises(DomainError):
        lemma_reduce(parse("3:101"))


def test_lemma_reduce_density_identity():
    from tourlyn.words import cfl_factorize, tournament_of

    rng = random.Random(17)
    targets = [T for n in (3, 4) for T in enumerate_exact(n) if not is_lyndon_tournament(T)]
    for T in targets:
        gamma, alphas = lemma_reduce(T)
        factors = [tournament_of(f) for f in cfl_factorize(word_of(T))]
        for _ in range(3):
            W = random_step_tournamenton(rng)
            prod = ONE
            for F in factors:
                prod *= density(F, W)
            want = gamma * prod + sum(a * density(S, W) for S, a in alphas.items())
            assert density(T, W) == want


def test_express_base_cases():
    assert express(parse("1:")) == Polynomial.const(1)
    C3 = parse("3:101")
    assert express(C3) == Polynomial.var(x_var(encode(C3)))


def test_express_transitive_three():
    # the one non-trivial reduction small enough to check by hand:
    # t(I3) = 1/6 - (1/3) t(C3)
    p = express(transitive(3))
    pt = {x_var(encode(parse("3:101"))): ZERO}
    assert p.evaluate(pt) == Q(1, 6)
    assert p.partial_derivative(x_var(encode(parse("3:101")))) == Polynomial.const(Q(-1, 3))


def test_express_variables_are_lyndon_only():
    for n in range(2, 6):
        for T in enumerate_exact(n):
            p = express(T)
            for v in p.variables():
                S = parse(v[1])
                assert is_lyndon_tournament(S)
                assert 2 <= S.n <= T.n


def test_express_evaluates_to_density():
    rng = random.Random(23)
    for _ in range(5):
        W = random_step_tournamenton(rng)
        point = densities_of_letters(W, 5)
        for n in range(1, 6):
            for T in enumerate_exact(n):
                assert express(T).evaluate(point) == density(T, W)


def test_express_evaluates_to_density_on_six_vertices():
    # k = 6 is the first k where the upper bound says more than
    # normalization: 56 classes, 13 of them not Lyndon, and every class's
    # density is its express polynomial at the letters' densities
    classes = enumerate_exact(6)
    assert len(classes) == 56
    assert sum(not is_lyndon_tournament(T) for T in classes) == 13
    rng = random.Random(61)
    for _ in range(2):
        W = random_step_tournamenton(rng)
        point = densities_of_letters(W, 6)
        for T in classes:
            assert express(T).evaluate(point) == density(T, W)


def test_dimension_values():
    assert dimension(3) == 1
    assert dimension(4) == 3
    assert dimension(5) == 11
    assert dimension(6) == 54


def test_dimension_tie_break_invariant():
    from tourlyn.words import enumerate_lyndon

    desc = LetterOrder("desc")
    for k in (3, 4, 5, 6):
        assert dimension(k) == len(enumerate_lyndon(k, desc))


def test_dimension_bounds():
    with pytest.raises(DomainError):
        dimension(1)
    with pytest.raises(BudgetError):
        dimension(7)


def test_lincomb_json_round_trip():
    combo = product(parse("3:101"), transitive(2))
    data = lincomb_to_json(combo)
    assert data == sorted(data, key=lambda item: item["tournament"])
    assert {item["tournament"]: item["coeff"] for item in data} == {
        encode(T): fmt_q(c) for T, c in combo.items()
    }


def test_product_support_contains_both_factors():
    from itertools import combinations

    from tourlyn.tournaments import are_isomorphic, induced

    T1, T2 = parse("3:101"), transitive(2)
    for S in product(T1, T2):
        def has_copy(F):
            return any(
                are_isomorphic(induced(S, vs), F) for vs in combinations(range(S.n), F.n)
            )

        assert has_copy(T1) and has_copy(T2)


def test_unchecked_tournaments_pass_validation():
    # canonical forms, product keys, enumerated classes and sample draws are
    # built without the constructor's checks; the checks accept each one
    def assert_valid(T):
        assert Tournament(T.n, T.out) == T

    rng = random.Random(71)
    for n in range(1, 8):
        for _ in range(40):
            assert_valid(canonicalize(random_tournament(rng, n)))
    for n in range(1, 7):
        for C in enumerate_exact(n):
            assert_valid(C)
    fives = enumerate_exact(5)
    for T1, T2 in ((parse("1:"), parse("3:101")), (transitive(2), fives[3]),
                   (parse("1:"), enumerate_exact(6)[17]), (transitive(2), fives[-1])):
        for C in product(T1, T2):
            assert_valid(C)
    W = random_step_tournamenton(random.Random(72))
    for seed in range(60):
        assert_valid(sample(W, 1 + seed % 7, seed))
