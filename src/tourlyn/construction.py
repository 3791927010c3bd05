"""The blow-up family W_k(s, t) and its Jacobian certification.

Let T_1, ..., T_ell be the non-trivial Lyndon tournaments on at most k
vertices in decreasing word order, n_i = |T_i|, N = sum n_i.  W_k(s, t)
blows vertex v_{i,j} of the host T_1 + ... + T_ell (direct sum) up to an
interval I_{i,j} of measure s_i * t_{i,j}, keeps a remainder interval I_0
that everything beats, and puts the transitive kernel on every diagonal
block.  The parameter domain is s, t > 0 with sum_i s_i sum_j t_{i,j} < 1.

Densities of the T_i in W_k(s, t) have closed forms as polynomials,
obtained by summing over the maps f: V(T_i) -> V(host) whose edge images
are forward (or collapsed) and whose fibers are acyclic:

    t(T_i, W_k) = sum_f prod_{j,j'} (s_j t_{j,j'})^{c_{j,j'}} / c_{j,j'}!

with c_{j,j'} the fiber size over v_{j,j'}.  Maps touching I_0 contribute
nothing because no T_i has a sink, which is why the host excludes I_0.
Each polynomial is homogeneous of degree n_i in s and in t, and its
unique monomial containing every t_{i,j} of row i once is
|Aut(T_i)| * s_i^{n_i} * prod_j t_{i,j} (the injective maps onto T_i).

The Jacobian d t(T_i, W_k) / d s_j is evaluated exactly at rational
points; a nonzero determinant at one point certifies det as a nonzero
polynomial, which is the computable content of the inverse-function step.

The map-sum factors over the host's strong parts H_1, ..., H_M
(condensation order).  Every edge maps forward or collapses, so a strong
part of T_i lands inside one H_m, and the strong parts C_1, ..., C_P of
T_i land on non-decreasing host parts.  With F[0] = 1 and the host parts
taken in order, the chain DP

    F[b] += F[a] * map_sum(T_i[C_{a+1} .. C_b], blocks of H_m)

ends with F[P] = t(T_i, W_k); each inner map_sum runs on one host part
(at most k blocks).  The DP is generic over the measure algebra: with the
monomial s_j t_{j,j'} as the measure of host vertex v_{j,j'} it gives the
polynomial (once per context and letter), with the rationals s_j t_{j,j'}
the exact densities at a point (point_densities: probe's centre, and
the tests' oracle for the solver's check).  At fixed t, s_forms
substitutes t into the polynomial in integers, once for every letter: the
solver's float terms, its domain test and its exact check, the exact
Jacobian (jacobian_at) and density_s_poly all read these s-forms.

Everything above that depends on k alone is built once, by context(k):
the host, its strong parts with their cross submatrices, each letter's
runs of strong parts, and the block order (the WkContext fields).  The
letters' polynomials are kept on the context too, all made at the first
read; context is the module's one cache.  I_0 appears only in build().

build() + tournamentons.density is kept as an independent oracle: it
integrates the rational tournamenton over all N + 1 blocks, unfactored.
Besides `tourlyn build-wk`, which prints W, only the verify self-check of
the solver and these tests use it:
test_density_two_routes_agree, test_point_densities_match_build_and_density
and test_build_is_a_valid_tournamenton (test_construction.py), the
round trips and probe centres of test_solver.py, acceptance items 8
and 9, and the output checks of perfbench.
"""

import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import ceil, lcm

from .errors import BudgetError, DomainError, InconclusiveError
from .poly import Polynomial, det_rational, s_var, t_var
from .rational import ONE, ZERO, Q, as_q, fmt_q
from .tournaments import Tournament, direct_sum, encode, induced, strongly_connected_components
from .tournamentons import TRANSITIVE_KIND, map_sum, step_tournamenton
from .words import enumerate_lyndon, serialize_word, word_of


@dataclass(frozen=True, eq=False)
class WkContext:
    """Everything W_k depends on that is fixed by k; context(k) builds it
    once (one instance per k, so equality is identity).

    host  -- T_1 + ... + T_ell, vertex v_{i,j} at the index of block I_{i,j}
    cells -- the block order as 1-based (i, j) pairs (I_0 excluded)
    parts -- the host's strong parts in condensation order, each as its
             vertex indices and the 0/1 cross submatrix among them
    runs  -- per letter, runs[(a, b)] is T_i induced on its strong parts
             a+1..b, 0 <= a < b <= P
    """

    k: int
    lyndon_seq: tuple
    sizes: tuple
    N: int
    host: Tournament
    cells: tuple
    parts: tuple
    runs: tuple

    @property
    def ell(self):
        return len(self.lyndon_seq)

    @cached_property
    def _letters(self):
        """Per letter, _symbolic_density(self, i), all on first use."""
        return tuple(_symbolic_density(self, i) for i in range(1, self.ell + 1))


@dataclass(frozen=True)
class WkParams:
    s: tuple
    t: tuple


def _runs(T):
    parts = strongly_connected_components(T)
    return {
        (a, b): induced(T, [v for part in parts[a:b] for v in part])
        for b in range(1, len(parts) + 1) for a in range(b)
    }


@lru_cache(maxsize=None)
def context(k):
    if not 3 <= k <= 5:
        raise DomainError("context is defined for 3 <= k <= 5")
    seq = tuple(enumerate_lyndon(k))
    sizes = tuple(T.n for T in seq)
    host = direct_sum(seq)
    return WkContext(
        k=k, lyndon_seq=seq, sizes=sizes, N=sum(sizes), host=host,
        cells=tuple((i, j) for i, n in enumerate(sizes, start=1) for j in range(1, n + 1)),
        parts=tuple(
            (H, tuple(tuple(host.out[u] >> v & 1 for v in H) for u in H))
            for H in strongly_connected_components(host)
        ),
        runs=tuple(_runs(T) for T in seq),
    )


def make_params(ctx, s, t):
    s = tuple(as_q(x) for x in s)
    t = tuple(tuple(as_q(x) for x in row) for row in t)
    p = WkParams(s=s, t=t)
    check_domain(ctx, p)
    return p


def check_t(ctx, t):
    """Validate the shape of the t-parameters (row i has n_i entries) and
    that every entry is strictly positive."""
    if len(t) != ctx.ell or any(len(row) != n for row, n in zip(t, ctx.sizes)):
        raise DomainError("t rows must have lengths %s" % (ctx.sizes,))
    if any(x <= 0 for row in t for x in row):
        raise DomainError("all parameters must be strictly positive")


def check_domain(ctx, p):
    """Validate shapes and the open-domain condition; returns the remainder
    measure 1 - sum_i s_i sum_j t_{i,j} (the measure of I_0)."""
    if len(p.s) != ctx.ell:
        raise DomainError("expected %d s-values, got %d" % (ctx.ell, len(p.s)))
    check_t(ctx, p.t)
    if any(x <= 0 for x in p.s):
        raise DomainError("all parameters must be strictly positive")
    used = sum((si * sum(row, ZERO) for si, row in zip(p.s, p.t)), ZERO)
    slack = ONE - used
    if slack <= 0:
        raise DomainError(
            "domain violated: sum_i s_i sum_j t_ij = %s >= 1" % fmt_q(used)
        )
    return slack


def block_labels(ctx):
    """Human block names in order: I_{i,j} with 1-based indices, then I_0."""
    return ["I_%d_%d" % cell for cell in ctx.cells] + ["I_0"]


def build(ctx, p):
    slack = check_domain(ctx, p)
    blocks = [(p.s[i - 1] * p.t[i - 1][j - 1], TRANSITIVE_KIND) for i, j in ctx.cells]
    blocks.append((slack, TRANSITIVE_KIND))
    # the host's edges among the first N blocks, and every interval beating
    # the remainder I_0 at index N
    cross = [[ctx.host.out[u] >> v & 1 for v in range(ctx.N)] + [1] for u in range(ctx.N)]
    cross.append([0] * (ctx.N + 1))
    return step_tournamenton(blocks, cross)


def _chain_density(ctx, i, measures, one, zero):
    """t(T_i, W_k) by the chain DP over the host's strong parts (module
    docstring); measures[v] is the measure of host vertex v, in any algebra
    map_sum accepts, with `one` and `zero` its units."""
    runs = ctx.runs[i - 1]
    P = max(b for _, b in runs)
    F = [one] + [zero] * P
    for H, cross in ctx.parts:
        block_measures = [measures[v] for v in H]
        kinds = [TRANSITIVE_KIND] * len(H)
        # b descending: F[a] for a < b still holds the earlier host parts
        for b in range(P, 0, -1):
            for a in range(b):
                if F[a] == zero:
                    continue
                g = map_sum(runs[a, b], block_measures, kinds, cross, zero)
                if g != zero:
                    F[b] = F[b] + F[a] * g
    return F[P]


def symbolic_density(ctx, i):
    """t(T_i, W_k) as an exact polynomial in the s- and t-variables (i is
    1-based, matching the variable names).

    The chain DP with the monomial s_j t_{j,j'} as the measure of each of
    the N host blocks; I_0 is left out (no T_i has a sink).  Kept on the
    context with every other letter's (ctx._letters, filled on the
    first call): at k = 5 all eleven take under a second.
    """
    return _letter(ctx, i)[0]


def _letter(ctx, i):
    if not 1 <= i <= ctx.ell:
        raise DomainError("index i must be in 1..%d" % ctx.ell)
    return ctx._letters[i - 1]


def _symbolic_density(ctx, i):
    """The polynomial, and its integer form for s_forms: den (the lcm of
    its denominators), the s-monomials in term order, and per s-monomial as
    ((0-based s index, exponent), ...) the terms sharing it, each as
    (coefficient * den, ((cell index, exponent), ...) of its t-monomial)."""
    measures = [Polynomial.var(s_var(a)) * Polynomial.var(t_var(a, b)) for a, b in ctx.cells]
    poly = _chain_density(ctx, i, measures, Polynomial.const(1), Polynomial.zero())
    den = lcm(*(c.denominator for c in poly.terms.values()))
    cell = {t_var(a, b): m for m, (a, b) in enumerate(ctx.cells)}
    by_s = {}
    for mono, c in poly.terms.items():
        # variables sort s before t, so the s-part is a prefix
        s_part = tuple(f for f in mono if f[0][0] == "s")
        t_part = tuple((cell[v], e) for v, e in mono[len(s_part):])
        by_s.setdefault(s_part, []).append((int(c.numerator * (den // c.denominator)), t_part))
    return poly, den, tuple(by_s), tuple(
        (tuple((v[1] - 1, e) for v, e in s_part), tuple(terms)) for s_part, terms in by_s.items()
    )


def point_densities(ctx, p):
    """Exact t(T_i, W_k(s, t)) at p for every letter, in order: the chain
    DP with the rational block measures s_i t_{i,j}."""
    check_domain(ctx, p)
    measures = [p.s[i - 1] * p.t[i - 1][j - 1] for i, j in ctx.cells]
    return [_chain_density(ctx, i, measures, ONE, ZERO) for i in range(1, ctx.ell + 1)]


def s_forms(ctx, t_values, letters=None):
    """The s-polynomials at fixed t in Python ints (so N / scale rounds to
    the float nearest, whatever Q is), t read by as_q and checked once:
    (t, D, R, forms), D the common denominator of t, R_i / D the row sums,
    and per letter (every one, or the 1-based `letters`) the s-form
    (scale, n_i, [(N, ((j, e), ...)), ...]), G_i = sum N prod s_j^e / scale,
    j 0-based, scale = den * D^n_i, in Polynomial.substitute's term order.
    symbolic_density is homogeneous of degree n_i in t, so each s-monomial
    gets one positive integer N; it is also homogeneous of degree n_i in s,
    so at s = A / L, G_i is one integer sum over scale * L^n_i."""
    try:
        t = tuple(tuple(as_q(x) for x in row) for row in t_values)
    except TypeError as e:
        raise DomainError("malformed t: %s" % e) from None
    check_t(ctx, t)
    D = lcm(*(x.denominator for row in t for x in row))
    rows = [[int(x.numerator * (D // x.denominator)) for x in row] for row in t]
    scaled = [a for row in rows for a in row]
    forms = []
    for i in range(1, ctx.ell + 1) if letters is None else letters:
        _, den, _, by_s = _letter(ctx, i)
        terms = []
        for s_mono, t_terms in by_s:
            total = 0
            for a, t_part in t_terms:
                for m, e in t_part:
                    a *= scaled[m] ** e
                total += a
            terms.append((total, s_mono))
        forms.append((den * D ** ctx.sizes[i - 1], ctx.sizes[i - 1], terms))
    return t, D, [sum(row) for row in rows], forms


def density_s_poly(ctx, i, t_values):
    """t(T_i, W_k) with t bound to rationals and every s_j left symbolic:
    letter i's s-form as a Polynomial, coefficient N / scale per term."""
    _, _, _, ((scale, _, terms),) = s_forms(ctx, t_values, (i,))
    out = Polynomial()
    out.terms = dict(zip(_letter(ctx, i)[2], [Q(N, scale) for N, _ in terms]))
    return out


def jacobian_at(ctx, p):
    """Exact ell x ell matrix with entry (i, j) = d t(T_i, W_k)/d s_j at p:
    the Euler rows of one s_forms call at s = A / L, divided by s_j."""
    check_domain(ctx, p)
    L = lcm(*(x.denominator for x in p.s))
    A = [x.numerator * (L // x.denominator) for x in p.s]
    return [
        [Q(x, scale * L ** (n - 1) * a) for x, a in zip(value_and_euler(terms, A)[1], A)]
        for scale, n, terms in s_forms(ctx, p.t)[3]
    ]


def value_and_euler(terms, s):
    """An s-form's value at s and its Euler row s_j dG/ds_j (the sum of e_j
    times each term): over scale * L^n at s = A; evaluate_float's value bit
    for bit at float s and terms (same order; sums start at 0 * first N)."""
    total = terms[0][0] * 0
    row = [total] * len(s)
    for c, mono in terms:
        for j, e in mono:
            c *= s[j] ** e
        total += c
        for j, e in mono:
            row[j] += e * c
    return total, row


def jacobian_symbolic(ctx):
    """Entry (i,j) = d symbolic_density(i) / d s_j."""
    return [
        [symbolic_density(ctx, i).partial_derivative(s_var(j))
         for j in range(1, ctx.ell + 1)]
        for i in range(1, ctx.ell + 1)
    ]


def _permutations(items):
    if len(items) <= 1:
        yield list(items), 1
        return
    first = items[0]
    for rest, sign in _permutations(items[1:]):
        for pos in range(len(rest) + 1):
            yield rest[:pos] + [first] + rest[pos:], sign * (-1) ** pos


def det_polynomial(M):
    """Symbolic determinant by permutation expansion; fine for ell <= 3."""
    n = len(M)
    total = Polynomial.zero()
    for perm, sign in _permutations(list(range(n))):
        prod = Polynomial.const(sign)
        for i in range(n):
            prod = prod * M[i][perm[i]]
        total = total + prod
    return total


def unique_full_t_monomial(ctx):
    """The single monomial of det(J) containing every t-variable, with its
    coefficient.  Checks it is prod_i s_i^{n_i - 1} * prod t_{i,j}.

    k <= 4 only: det_polynomial expands over ell! permutations, and at
    k = 5 that is 11! products of large polynomials.
    """
    if ctx.k > 4:
        raise BudgetError("the full symbolic determinant is budgeted to k <= 4")
    det = det_polynomial(jacobian_symbolic(ctx))
    all_t = {t_var(i, j) for i, j in ctx.cells}
    hits = []
    for mono, coeff in det.terms.items():
        present = {v for v, _ in mono if v[0] == "t"}
        if present == all_t:
            hits.append((mono, coeff))
    if len(hits) != 1:
        raise AssertionError(
            "expected exactly one full-t monomial in det(J), found %d" % len(hits)
        )
    mono, coeff = hits[0]
    expected = dict.fromkeys(all_t, 1)
    for i, n in enumerate(ctx.sizes, start=1):
        if n - 1:
            expected[s_var(i)] = n - 1
    if dict(mono) != expected:
        raise AssertionError("full-t monomial has unexpected shape: %r" % (mono,))
    return mono, coeff


def random_params(ctx, rng, max_denominator=16):
    """Random rational point in the open domain with small entries: t from
    (0,1] with denominator <= max_denominator, then s scaled so that
    sum s_i (row sum) <= 1/2 automatically."""
    t = []
    for n in ctx.sizes:
        row = []
        for _ in range(n):
            den = rng.randint(1, max_denominator)
            num = rng.randint(1, den)
            row.append(Q(num, den))
        t.append(tuple(row))
    s = []
    for row in t:
        den = rng.randint(1, max_denominator)
        num = rng.randint(1, den)
        u = Q(num, den)
        cap = int(ceil(sum(row, ZERO)))
        s.append(u / (2 * ctx.ell * cap))
    return make_params(ctx, s, t)


def certify_det_nonzero(ctx, trials, seed, max_denominator=16):
    """First random point where det(jacobian) is nonzero, as a certificate
    that det(J) is not the zero polynomial."""
    if trials < 1:
        raise DomainError("need trials >= 1")
    rng = random.Random(seed)
    zeros = 0
    for trial in range(1, trials + 1):
        p = random_params(ctx, rng, max_denominator)
        d = det_rational(jacobian_at(ctx, p))
        if d != 0:
            return {"point": p, "det": d, "trials_used": trial}
        zeros += 1
    raise InconclusiveError(
        "determinant was zero at all %d sampled points; inconclusive "
        "(this does not show the polynomial is zero)" % zeros
    )


def params_to_json(p):
    return {
        "s": [fmt_q(x) for x in p.s],
        "t": [[fmt_q(x) for x in row] for row in p.t],
    }


def params_from_json(ctx, data):
    try:
        s = data["s"]
        t = data["t"]
    except (KeyError, TypeError) as e:
        raise DomainError("malformed params JSON: %s" % e) from None
    if not (isinstance(s, list) and isinstance(t, list) and all(isinstance(r, list) for r in t)):
        raise DomainError("malformed params JSON: s must be a list and t a list of lists")
    return make_params(ctx, s, t)


def context_to_json(ctx):
    return {
        "k": ctx.k,
        "ell": ctx.ell,
        "N": ctx.N,
        "sizes": list(ctx.sizes),
        "words": [serialize_word(word_of(T)) for T in ctx.lyndon_seq],
        "tournaments": [encode(T) for T in ctx.lyndon_seq],
        "blocks": block_labels(ctx),
    }
