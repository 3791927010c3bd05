"""Formal rational combinations of tournaments: the product that mirrors
densities, the reduction of a non-Lyndon tournament to strictly smaller
ones, and the induction that writes any density as a polynomial in the
densities of non-trivial Lyndon tournaments.

The product T1 x T2 is the sum of the classes that the 2^(|T1||T2|)
orientations of the cross edges complete T1 + T2 to, each with the number
of orientations reaching it; its defining property is t(T1 x T2, W) =
t(T1, W) t(T2, W) for every tournamenton W, which the test suite checks
exactly on random step tournamentons.  As in Razborov's flag algebras, a
coefficient is an induced-subflag count: a class C is reached by |Aut A|
|Aut B| N_{A,B}(C) / |Aut C| orientations, A and B the canonical forms of
T1 and T2 and N_{A,B}(C) the number of ways to split C's vertices into a
copy of A and a copy of B.  product reads the counts off one table per
size pair (tournaments.split_counts) and orders the pair first, since it
commutes, so that there are at most 12 tables.

For a non-Lyndon T, multiplying out the tournaments of the CFL factors of
w(T) gives sum_S beta_S * S in which T itself carries a positive
coefficient and every other support element is strictly smaller in the
three-stage tournament order.  Solving for T yields gamma = 1/beta_T and
alpha_S = -beta_S/beta_T, and the induction over < then produces the
density polynomial p_T: p is x_T for non-trivial Lyndon T, the constant 1
for the single vertex, and gamma * prod x_{T_i} + sum alpha_S p_S
otherwise.
"""

from .errors import BudgetError, DomainError
from .poly import Polynomial, x_var
from .rational import ONE, ZERO, Q, fmt_q
from .tournaments import automorphism_count, canonicalize, encode, split_counts
from .words import (
    cfl_factorize,
    enumerate_lyndon,
    is_lyndon_tournament,
    tournament_of,
    word_of,
)

PRODUCT_MAX = 7
EXPRESS_MAX = 6

_product_cache = {}


def product(T1, T2):
    """LinComb of the classes C that the cross orientations of T1 + T2
    complete to, each with the number of orientations reaching it: |Aut A|
    |Aut B| N_{A,B}(C) / |Aut C|, A and B the canonical forms, read off the
    split table of the size pair (tournaments.split_counts), kept per pair.

    A split S of C with an isomorphism onto each side is one bijection
    from T1 + T2's vertices to C's, and each completion reaching C is
    reached by |Aut C| of them."""
    if T1.n + T2.n > PRODUCT_MAX:
        raise BudgetError("product is budgeted to %d total vertices" % PRODUCT_MAX)
    if T1.n > T2.n:
        # the product commutes: (5, 2) reads (2, 5)'s table
        T1, T2 = T2, T1
    key = (canonicalize(T1), canonicalize(T2))
    if key in _product_cache:
        return dict(_product_cache[key])
    A, B = key
    sides = automorphism_count(A) * automorphism_count(B)
    result = {C: Q(sides * N // aut) for C, N, aut in zip(*split_counts(A.n, B.n)[key])}
    _product_cache[key] = result
    return dict(result)


def product_lincomb(combo1, combo2):
    out = {}
    for T, c1 in combo1.items():
        for S, c2 in combo2.items():
            for R, c3 in product(T, S).items():
                v = out.get(R, ZERO) + c1 * c2 * c3
                if v == 0:
                    out.pop(R, None)
                else:
                    out[R] = v
    return out


def multi_product(parts):
    parts = list(parts)
    if not parts:
        raise DomainError("multi_product of nothing")
    if sum(p.n for p in parts) > PRODUCT_MAX:
        raise BudgetError("multi_product is budgeted to %d total vertices" % PRODUCT_MAX)
    combo = {canonicalize(parts[0]): ONE}
    for P in parts[1:]:
        combo = product_lincomb(combo, {canonicalize(P): ONE})
    return combo


def lemma_reduce(T):
    """gamma and alphas with t(T) = gamma * prod t(T_i) + sum alpha_S t(S).

    T_i are the tournaments of the CFL factors of w(T); every alpha key is
    strictly smaller than T in the three-stage order and has |T| vertices.
    """
    if T.n > EXPRESS_MAX:
        raise BudgetError("lemma_reduce is budgeted to %d vertices" % EXPRESS_MAX)
    C = canonicalize(T)
    if is_lyndon_tournament(C):
        raise DomainError("%s is Lyndon; nothing to reduce" % encode(C))
    factors = cfl_factorize(word_of(C))
    combo = multi_product([tournament_of(f) for f in factors])
    beta_T = combo.get(C)
    if not beta_T:
        raise AssertionError("CFL product lost its own concatenation %s" % encode(C))
    gamma = ONE / beta_T
    alphas = {}
    for S, b in combo.items():
        if S != C:
            alphas[S] = -b / beta_T
    return gamma, alphas


_express_cache = {}


def express(T):
    """The density polynomial p_T in variables x_S, S non-trivial Lyndon."""
    if T.n > EXPRESS_MAX:
        raise BudgetError("express is budgeted to %d vertices" % EXPRESS_MAX)
    C = canonicalize(T)
    if C in _express_cache:
        return _express_cache[C]
    if C.n == 1:
        p = Polynomial.const(1)
    elif is_lyndon_tournament(C):
        p = Polynomial.var(x_var(encode(C)))
    else:
        gamma, alphas = lemma_reduce(C)
        p = Polynomial.const(gamma)
        for f in cfl_factorize(word_of(C)):
            part = tournament_of(f)
            if part.n > 1:
                p = p * Polynomial.var(x_var(encode(part)))
        # recursion terminates: every alpha key is strictly smaller under <
        for S in sorted(alphas, key=encode):
            p = p + alphas[S] * express(S)
    _express_cache[C] = p
    return p


def dimension(k):
    """Number of non-trivial Lyndon tournaments on at most k vertices."""
    if k < 2:
        raise DomainError("need k >= 2")
    if k > EXPRESS_MAX:
        raise BudgetError("dimension is budgeted to k <= %d" % EXPRESS_MAX)
    return len(enumerate_lyndon(k))


def lincomb_to_json(combo):
    return [
        {"tournament": encode(T), "coeff": fmt_q(c)}
        for T, c in sorted(combo.items(), key=lambda kv: encode(kv[0]))
    ]
