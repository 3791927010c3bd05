"""Test tools and independent oracles that no code of the package calls.

Each is written from its definition, not from the package's fast path, and
its docstring names the tests that use it.
"""

from math import comb

from tourlyn.poly import Polynomial
from tourlyn.rational import Q
from tourlyn.tournamentons import TRANSITIVE_KIND, step_tournamenton
from tourlyn.tournaments import Tournament, canonicalize, encode, single_vertex


def random_tournament(rng, n):
    """Uniform over labeled tournaments on n vertices (not over classes).

    The random inputs of test_tournaments.py (canonical search, isomorphism,
    strong parts), test_tournamentons.py (density invariance, map_sum),
    test_unchecked_tournaments_pass_validation (test_flagalg.py) and
    test_clearing_the_canonical_cache_forgets_every_form (test_imports.py)."""
    out = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                out[i] |= 1 << j
            else:
                out[j] |= 1 << i
    return Tournament(n, out)


def relabel(T, perm):
    """The tournament in which new vertex p is old vertex perm[p]: p beats q
    exactly when perm[p] beats perm[q], read edge by edge, so that it is
    independent of the bit walk of tournaments._relabeled_out behind
    canonicalize.  The brute-force canonical forms and automorphism counts
    of test_tournaments.py, test_are_isomorphic_vs_relabeling and
    test_canonical_search_matches_the_parent_search, and
    test_density_is_isomorphism_invariant (test_tournamentons.py)."""
    n = T.n
    if sorted(perm) != list(range(n)):
        raise ValueError("perm must be a permutation of 0..%d" % (n - 1))
    out = [
        sum(1 << q for q in range(n) if T.out[perm[p]] >> perm[q] & 1) for p in range(n)
    ]
    return Tournament(n, out)


def completion_counts_oracle(T1, T2):
    """{canonical class: number of cross orientations} for T1 + T2 (T2's
    vertices after T1's), each of the 2^(n1 n2) completions canonicalized
    on its own: the loop that tournaments.completion_counts keys by score
    relabelings.  test_product_is_the_completion_oracle (test_flagalg.py),
    test_completion_counts_are_the_oracle_s_on_labelled_inputs and, through
    enumeration_oracle, test_enumeration_is_the_completion_oracle
    (test_tournaments.py)."""
    n1, n2 = T1.n, T2.n
    n = n1 + n2
    pairs = [(u, n1 + v) for u in range(n1) for v in range(n2)]
    base = [T1.out[u] for u in range(n1)] + [T2.out[v] << n1 for v in range(n2)]
    acc = {}
    for mask in range(1 << len(pairs)):
        out = list(base)
        for idx, (u, w) in enumerate(pairs):
            if mask >> idx & 1:
                out[u] |= 1 << w
            else:
                out[w] |= 1 << u
        C = canonicalize(Tournament._trusted(n, out))
        acc[C] = acc.get(C, 0) + 1
    return acc


def enumeration_oracle(n):
    """The classes on n vertices, ascending by encoding: every class on
    n - 1 extended by one vertex in every way, through
    completion_counts_oracle.  test_enumeration_is_the_completion_oracle
    (test_tournaments.py)."""
    classes = [single_vertex()]
    for _ in range(n - 1):
        seen = set()
        for R in classes:
            seen.update(completion_counts_oracle(R, single_vertex()))
        classes = sorted(seen, key=encode)
    return classes


def is_transitive(T):
    """Whether the out-degrees are 0, 1, ..., n - 1, which holds exactly for
    the transitive tournament; test_transitive_properties."""
    return sorted(bin(m).count("1") for m in T.out) == list(range(T.n))


def single_transitive():
    """The one-block step tournamenton with the transitive kernel: the
    density anchors of test_tournamentons.py and acceptance item 10's
    sampling test."""
    return step_tournamenton([(1, TRANSITIVE_KIND)], [[0]])


def uniform_degrees(p, kinds=("s", "t")):
    """(degree in the kind-1 variables, in the kind-2 ones, ...) when every
    monomial of p agrees; None otherwise (the zero polynomial included).
    test_uniform_degrees (test_poly.py), test_density_polys_are_posynomials
    and test_symbolic_density_is_bihomogeneous (test_construction.py)."""
    result = None
    for mono in p.terms:
        degs = tuple(sum(e for v, e in mono if v[0] == k) for k in kinds)
        if result is None:
            result = degs
        elif result != degs:
            return None
    return result


def shuffle_coefficient_sum(words):
    """What the coefficients of a shuffle of the words sum to: the
    multinomial of their lengths.  test_shuffle_commutes_and_has_right_mass
    and test_multi_shuffle_associates (test_words.py)."""
    total = 0
    prod = 1
    for w in words:
        total += len(w)
        prod *= comb(total, len(w))
    return prod


def substitute(p, assignment):
    """The polynomial p with some variables replaced by rationals, the rest
    left symbolic, its terms in the order of p's.  The oracle of
    construction.TView.letters in
    test_density_s_poly_is_the_substitution_term_for_term
    (test_construction.py), held to evaluate in
    test_substitute_then_evaluate (test_poly.py)."""
    terms = {}
    for mono, c in p.terms.items():
        rest = []
        for v, e in mono:
            if v in assignment:
                c *= Q(assignment[v]) ** e
            else:
                rest.append((v, e))
        # equal monomials merge where the first of them stands, and a sum
        # that reaches zero is dropped
        rest = tuple(rest)
        total = terms.get(rest, 0) + c
        if total:
            terms[rest] = total
        else:
            terms.pop(rest, None)
    return Polynomial(terms)


class ContractMeasure:
    """A measure that wraps a rational and defines only the operations of
    the ring contract in tournamentons.map_sum's docstring: + with another
    measure or the int 0 on either side, * with a measure or an int on the
    right, ** an int p >= 1, / a positive int, and == and != between
    measures.  Anything else (a float, a Fraction, an int on the left of *,
    an ordering, a truth test) is a TypeError, so a use outside the
    contract cannot pass unnoticed.  The measures of
    test_map_sum_and_the_chain_dp_need_only_the_ring_contract
    (test_tournamentons.py)."""

    __slots__ = ("value",)
    __hash__ = None

    def __init__(self, value):
        self.value = Q(value)

    def _other(self, other):
        if type(other) is not ContractMeasure:
            raise TypeError("outside the ring contract: %r" % (other,))
        return other.value

    def __add__(self, other):
        if type(other) is int and other == 0:
            return self
        return ContractMeasure(self.value + self._other(other))

    def __radd__(self, other):
        if type(other) is int and other == 0:
            return self
        raise TypeError("outside the ring contract: %r + a measure" % (other,))

    def __mul__(self, other):
        if type(other) is int:
            return ContractMeasure(self.value * other)
        return ContractMeasure(self.value * self._other(other))

    def __pow__(self, p):
        if type(p) is not int or p < 1:
            raise TypeError("outside the ring contract: ** %r" % (p,))
        return ContractMeasure(self.value ** p)

    def __truediv__(self, n):
        if type(n) is not int or n <= 0:
            raise TypeError("outside the ring contract: / %r" % (n,))
        return ContractMeasure(self.value / n)

    def __eq__(self, other):
        return self.value == self._other(other)

    def __ne__(self, other):
        return self.value != self._other(other)

    def __bool__(self):
        raise TypeError("outside the ring contract: a measure has no truth value")
