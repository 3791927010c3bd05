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
the tests' oracle for the solver's check).  t has one reader, TView: it
reads and checks t, and at its first use substitutes t into every
letter's polynomial in integers (its letters, the s-forms).  A point
(s, t) has one reader, _read_point: it reads t through TView and tests
the domain in integers, and every function taking a point refuses a bad
one through it.  The s-forms are read by the solver (through the view's
float coefficients, its domain test and its exact check), by the exact
Jacobian (jacobian_at) and by density_s_poly.  The solver's float
kernels (values, the Newton direction with its elimination, and a step's
backtracking) are generated from the letters' s-monomials alone, so they
depend on k only and are kept on the context; value_and_euler is the
generic pass they unroll, and the one jacobian_at runs on the integer
s-forms.

The letters' polynomials also bound the image of the construction: at
k = 4 they imply 96 t(c)^3 >= t(b)^4 on the whole domain (unreachable,
with the proof).  At fixed t, two letters whose s-forms are power sums
P, Q of degrees p, p + 1 over the same copies of the host keep
P^(p+1) / Q^p inside the interval (min_m w_m, sum_m w_m], w_m =
beta_m^(p+1) / gamma_m^p from their coefficients (unreachable_at_t, with
the proof; the pairs are found once per context, WkContext._power_sums).
At k = 4 the interval's upper end is at most 96, so the fixed-t test
refuses all the first one does.  The solver refuses targets with both
before any Newton run: _inside_power_sums passes a target whose log ratio
lies inside the float ends of every interval by a margin, and only the
others meet the exact test.

All a solve reads of t, whatever its target, is one TView, each part
made at its first use: the s-forms, the float coefficients and the row
sums (a t beyond the solver's float range is refused there), each pair's
float ends, and at the first refusal its exact integer ends.  Both
tests read the targets as the solver does, one (numerator, denominator)
pair of ints per letter, and print their exact values from those ints.

Everything above that depends on k alone is built once, by context(k):
the letters' names, the host, its strong parts with their cross
submatrices, each letter's runs of strong parts, and the block order
(the WkContext fields).  Kept
on the context too, each made at its first use, are the letters'
polynomials (all at once), their power-sum pairs, the solver's float
kernels and the TView of the default t, which every solve at the default
t shares, so that such a solve reads no t.  context is the module's one
cache; what it keeps lives and dies with the context.  I_0 appears only
in build().

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
from math import ceil, gcd, lcm, log

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

    names -- the letters' encodings (tournaments.encode), in order
    host  -- T_1 + ... + T_ell, vertex v_{i,j} at the index of block I_{i,j}
    cells -- the block order as 1-based (i, j) pairs (I_0 excluded)
    parts -- the host's strong parts in condensation order, each as its
             vertex indices and the 0/1 cross submatrix among them
    runs  -- per letter, runs[(a, b)] is T_i induced on its strong parts
             a+1..b, 0 <= a < b <= P
    """

    k: int
    lyndon_seq: tuple
    names: tuple
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

    @cached_property
    def _power_sums(self):
        """The letter pairs of unreachable_at_t, each (i, j, p, copies): the
        s-forms of letters i and j (0-based) are single powers s_m^p and
        s_m^(p+1) over the same copies m, at least two, and copies holds
        each copy's term indices (a, b) into the concatenated terms of
        every letter's s-form, a of letter i's, b of letter j's."""
        powers, offset = [], 0
        for *_, by_s in self._letters:
            monos = [mono for mono, _ in by_s]
            single = all(len(mono) == 1 for mono in monos)
            powers.append({mono[0][0]: offset + a for a, mono in enumerate(monos)} if single else {})
            offset += len(monos)
        return tuple(
            (i, j, self.sizes[i], tuple((Pi[m], Pj[m]) for m in sorted(Pi)))
            for i, Pi in enumerate(powers) for j, Pj in enumerate(powers)
            if len(Pi) > 1 and self.sizes[j] == self.sizes[i] + 1 and Pi.keys() == Pj.keys()
        )

    @cached_property
    def _float_kernels(self):
        """The solver's straight-line float kernels for this k, (values,
        direction, step), compiled on first use from the letters'
        s-monomials (solver._compile_kernels, imported here because the
        solver imports this module)."""
        from .solver import _compile_kernels

        return _compile_kernels(
            self.k, tuple(tuple(m for m, _ in by_s) for *_, by_s in self._letters)
        )

    @cached_property
    def _default_view(self):
        """The TView of the default t (solver.default_params's, imported
        here as _float_kernels imports), made at the first solve there."""
        from .solver import default_params

        return TView(self, default_params(self).t)


@dataclass(frozen=True)
class WkParams:
    s: tuple
    t: tuple


FLOAT_RANGE = (
    "t is outside the float range of the solver: its s-form coefficients and row "
    "sums r_j must be finite floats with (1 / r_j)^%d < 2^1023"
)


class TView:
    """A W_k context at fixed t: the one reader of t.  The constructor reads
    t, ell rows, row i a sequence, not a string, of n_i positive entries
    read by as_q, and keeps

    ctx -- the context
    t   -- the rows as Q tuples
    D   -- the common denominator of t
    R   -- the row sums R_i / D, as the ints R_i

    the rest is made at its first use.  A solve makes one per explicit t,
    and WkContext._default_view keeps the default t's, which every solve
    there shares.  A plain class, not a dataclass: the package's import
    pays for every dataclass it defines."""

    def __init__(self, ctx, t_values):
        try:
            # a string row would pass as the integers of its characters
            if any(isinstance(row, str) for row in t_values):
                raise TypeError("a row is a string")
            t = tuple(tuple(as_q(x) for x in row) for row in t_values)
        except TypeError as e:
            raise DomainError("malformed t: %s" % e) from None
        if len(t) != ctx.ell or any(len(row) != n for row, n in zip(t, ctx.sizes)):
            raise DomainError("t rows must have lengths %s" % (ctx.sizes,))
        D = lcm(*(x.denominator for row in t for x in row))
        rows = [[int(x.numerator * (D // x.denominator)) for x in row] for row in t]
        if any(a <= 0 for row in rows for a in row):
            raise DomainError("all parameters must be strictly positive")
        self.ctx, self.t, self.D = ctx, t, D
        self.R = tuple([sum(row) for row in rows])
        # t's entries as integers over D, in cell order, for form
        self._scaled = [a for row in rows for a in row]

    @cached_property
    def letters(self):
        """Every letter's s-form at this t, form(i) for i in 1..ell."""
        return tuple(self.form(i) for i in range(1, self.ctx.ell + 1))

    def form(self, i):
        """Letter i's s-polynomial at this t in Python ints (so N / scale
        rounds to the float nearest, whatever Q is): (scale, n_i, ((N,
        ((j, e), ...)), ...)), G_i = sum N prod s_j^e / scale, j 0-based,
        scale = den * D^n_i, the s-monomials in the order they first appear
        among symbolic_density's terms.  symbolic_density is homogeneous of
        degree n_i in t, so each s-monomial gets one positive integer N; it
        is also homogeneous of degree n_i in s, so at s = A / L, G_i is one
        integer sum over scale * L^n_i.  An i outside 1..ell is refused by
        _letter."""
        _, den, by_s = _letter(self.ctx, i)
        scaled = self._scaled
        terms = []
        for s_mono, t_terms in by_s:
            total = 0
            for a, cells in t_terms:
                for m in cells:
                    a *= scaled[m]
                total += a
            terms.append((total, s_mono))
        n = self.ctx.sizes[i - 1]
        return den * self.D ** n, n, tuple(terms)

    @cached_property
    def floats(self):
        """(c, row_sums) for the solver's float kernels: c the float
        coefficients N / scale of every letter's terms, concatenated, and
        the row sums R_i / D, each with r_i^k > 2^-1023.  A t beyond that
        float range is a DomainError (FLOAT_RANGE)."""
        k = self.ctx.k
        try:
            # int true division rounds correctly: bit for bit float(Q(N, scale))
            c = tuple(N / scale for scale, _, terms in self.letters for N, _ in terms)
            row_sums = tuple(r / self.D for r in self.R)
        except OverflowError:
            raise DomainError(FLOAT_RANGE % k) from None
        # in the domain s_i < 1 / r_i, and no exponent of an s-form exceeds k
        # (letter i's is homogeneous of degree n_i <= k), so with (1 / r_i)^k <
        # 2^1023 no power the float kernels take overflows, and every grid
        # start is finite
        if not min(row_sums) > 2.0 ** (-1023 / k):
            raise DomainError(FLOAT_RANGE % k)
        return c, row_sums

    @cached_property
    def log_ends(self):
        """Per pair of ctx._power_sums, _log_ends of its interval (None
        where floats cannot place it)."""
        c = self.floats[0]
        return tuple(_log_ends(c, p, copies) for *_, p, copies in self.ctx._power_sums)

    @cached_property
    def exact_ends(self):
        """Per pair, the integers of unreachable_at_t that depend on t
        alone, (si, sj, U, V, n, g), made at its first refusal at this t:
        w_m = K n_m / g_m with n_m = N_beta^(p+1), g_m = N_gamma^p and K =
        sj / si, si and sj the scales to the powers p + 1 and p; sum_m n_m /
        g_m is U / V and n / g is the least n_m / g_m."""
        letters = self.letters
        flat = [N for _, _, terms in letters for N, _ in terms]
        ends = []
        for i, j, p, copies in self.ctx._power_sums:
            U, V, n, g = 0, 1, 0, 0
            for a, b in copies:
                n_m, g_m = flat[a] ** (p + 1), flat[b] ** p
                U, V = U * g_m + n_m * V, V * g_m
                if not g or n_m * g < n * g_m:
                    n, g = n_m, g_m
            ends.append((letters[i][0] ** (p + 1), letters[j][0] ** p, U, V, n, g))
        return tuple(ends)


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
        names=tuple(encode(T) for T in seq),
        cells=tuple((i, j) for i, n in enumerate(sizes, start=1) for j in range(1, n + 1)),
        parts=tuple(
            (H, tuple(tuple(host.out[u] >> v & 1 for v in H) for u in H))
            for H in strongly_connected_components(host)
        ),
        runs=tuple(_runs(T) for T in seq),
    )


def make_params(ctx, s, t):
    s, view, *_ = _read_point(ctx, WkParams(s, t))
    return WkParams(s, view.t)


def _read_point(ctx, p):
    """The one reader of a W_k point: s counted, t read by TView, s read by
    as_q and tested by integer_point.  Returns (s, view, A, L, slack), s =
    A / L, slack = 1 - sum_i s_i sum_j t_{i,j}."""
    if len(p.s) != ctx.ell:
        raise DomainError("expected %d s-values, got %d" % (ctx.ell, len(p.s)))
    view = TView(ctx, p.t)
    s = tuple(as_q(x) for x in p.s)
    D = view.D
    A, L, used = integer_point([(x.numerator, x.denominator) for x in s], D, view.R)
    return s, view, A, L, Q(L * D - used, L * D)


def integer_point(ratios, D, R):
    """The point s = A / L of the (numerator, denominator) pairs of its
    coordinates, L the lcm of the denominators, tested against the open
    domain in integers, t's row sums being R / D: every A_j > 0 and
    sum_i A_i R_i < L D.  Returns (A, L, used), used / (L D) the measure
    sum_i s_i sum_j t_ij; a point outside is a DomainError.  The one domain
    test of _read_point and the solver's rational points."""
    L = lcm(*(q for _, q in ratios))
    A = [p * (L // q) for p, q in ratios]
    if min(A) <= 0:
        raise DomainError("all parameters must be strictly positive")
    used = sum(a * r for a, r in zip(A, R))
    if used >= L * D:
        raise DomainError(
            "domain violated: sum_i s_i sum_j t_ij = %s >= 1" % fmt_q(Q(used, L * D))
        )
    return A, L, used


def block_labels(ctx):
    """Human block names in order: I_{i,j} with 1-based indices, then I_0."""
    return ["I_%d_%d" % cell for cell in ctx.cells] + ["I_0"]


def build(ctx, p):
    s, view, *_, slack = _read_point(ctx, p)
    t = view.t
    blocks = [(s[i - 1] * t[i - 1][j - 1], TRANSITIVE_KIND) for i, j in ctx.cells]
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
    """The polynomial, and its integer form for TView.form: den (the lcm
    of its denominators), and per s-monomial, in term order, as
    ((0-based s index, exponent), ...) the terms sharing it, each as
    (coefficient * den, the cell indices of its t-monomial, each repeated
    as often as its exponent, so that TView.form takes no power)."""
    measures = [Polynomial.var(s_var(a)) * Polynomial.var(t_var(a, b)) for a, b in ctx.cells]
    poly = _chain_density(ctx, i, measures, Polynomial.const(1), Polynomial.zero())
    den = lcm(*(c.denominator for c in poly.terms.values()))
    cell = {t_var(a, b): m for m, (a, b) in enumerate(ctx.cells)}
    by_s = {}
    for mono, c in poly.terms.items():
        # variables sort s before t, so the s-part is a prefix
        s_part = tuple(f for f in mono if f[0][0] == "s")
        t_part = tuple(cell[v] for v, e in mono[len(s_part):] for _ in range(e))
        by_s.setdefault(s_part, []).append((int(c.numerator * (den // c.denominator)), t_part))
    return poly, den, tuple(
        (tuple((v[1] - 1, e) for v, e in s_part), tuple(terms)) for s_part, terms in by_s.items()
    )


def point_densities(ctx, p):
    """Exact t(T_i, W_k(s, t)) at p for every letter, in order: the chain
    DP with the rational block measures s_i t_{i,j}.  Probe's centre, and
    the oracle of test_verification_is_the_chain_dp_at_the_rounded_point,
    test_verification_entries_match_the_fraction_formulas (test_solver.py)
    and test_five_vertex_symbolic_densities."""
    s, view, *_ = _read_point(ctx, p)
    t = view.t
    measures = [s[i - 1] * t[i - 1][j - 1] for i, j in ctx.cells]
    return [_chain_density(ctx, i, measures, ONE, ZERO) for i in range(1, ctx.ell + 1)]


def _fmt_ratio(n, d):
    """fmt_q(Q(n, d)) for ints n and d > 0, by one gcd and no Q: the
    exact values in the details of unreachable and unreachable_at_t."""
    g = gcd(n, d)
    return "%d/%d" % (n // g, d // g)


def unreachable(ctx, x):
    """Why the target densities x (per letter, its (numerator, denominator)
    ints, as solve reads them) are no
    point of W_4(s, t) for any (s, t) in the domain: the inequality
    96 t(c)^3 >= t(b)^4 they violate, with its exact values, c = 4:110111
    and b = 3:101 the first two letters of context(4).  None when x obeys
    it, and at every k but 4, where it is not a theorem (seeded W_5 points
    go below it).  The test is one comparison of integers.

    Proof.  In the block measures m_ij = s_i t_ij, symbolic_density gives

        t(c) = m11 m12 m13 m14 + 1/2 sum_D p_D sigma_D,
        t(b) = 3 sum_D p_D,

    D over the four cyclic block triples {11, 12, 14}, {11, 13, 14},
    {21, 22, 23} and {32, 33, 34}, p_D the product and sigma_D the sum of
    their measures (verify --level full checks this identity).  AM-GM gives
    sigma_D >= 3 p_D^(1/3), so t(c) >= 3/2 sum_D p_D^(4/3), and the power
    mean of the four p_D gives sum_D p_D^(4/3) >= 4^(-1/3) (sum_D p_D)^(4/3)
    = 4^(-1/3) (t(b)/3)^(4/3).  Cubing, t(c)^3 >= 27/8 * 1/4 * 3^-4 t(b)^4
    = t(b)^4 / 96."""
    if ctx.k != 4:
        return None
    (cn, cd), (bn, bd) = x[0], x[1]
    c3, b4 = 96 * cn ** 3, bn ** 4
    if c3 * bd ** 4 >= b4 * cd ** 3:
        return None
    return "violates 96 t(4:110111)^3 >= t(3:101)^4: %s < %s" % (
        _fmt_ratio(c3, cd ** 3), _fmt_ratio(b4, bd ** 4))


def unreachable_at_t(view, x):
    """Why the target densities x (int pairs, as unreachable's) are no
    point of W_k(s, t) for any s in the domain at the t of the TView
    `view`: the violated inequality with its exact values, or None.  Its
    pairs are those of view.ctx._power_sums: (3:101, 4:110111) at
    k = 4; that pair, (4:110111, 5:1110111111) and (4:110111,
    5:1110110111) at k = 5; none at k = 3.

    Proof.  A strong letter lands inside one copy of the host, so the
    s-forms of a pair are P = sum_m beta_m s_m^p and Q = sum_m gamma_m
    s_m^(p+1) over the same copies m (at least two), beta, gamma > 0 fixed
    by t.  With w_m = beta_m^(p+1) / gamma_m^p, every s > 0 has

        min_m w_m < P^(p+1) / Q^p <= sum_m w_m.

    Upper end: Hoelder with exponents p + 1 and (p + 1)/p, on the products
    beta_m s_m^p = (beta_m gamma_m^(-p/(p+1))) (gamma_m^(p/(p+1)) s_m^p),
    gives P <= (sum_m w_m)^(1/(p+1)) Q^(p/(p+1)), with equality at s
    proportional to beta/gamma; the ratio is invariant under scaling s, so
    the end is attained in the domain.  Lower end: with y_m = beta_m s_m^p
    > 0, Q = sum_m w_m^(-1/p) y_m^((p+1)/p) <= (min_m w_m)^(-1/p) sum_m
    y_m^((p+1)/p) < (min_m w_m)^(-1/p) P^((p+1)/p), the last step strict
    because x^((p+1)/p) is strictly superadditive on two or more positive
    terms.  At k = 4 the attained upper end is a point of W_4, so sum_m w_m
    <= 96 by unreachable, and this test refuses every target that one
    does (verify --level full checks it at 40 seeded t)."""
    names = view.ctx.names
    for (i, j, p, _), (si, sj, U, V, n, g) in zip(view.ctx._power_sums, view.exact_ends):
        # in integers, the ratio is K A / B (TView.exact_ends)
        q = p + 1
        (xin, xid), (xjn, xjd) = x[i], x[j]
        A = xin ** q * xjd ** p * si
        B = xid ** q * xjn ** p * sj
        if A * V > B * U:
            end, sign, value = "<= sum_m w_m", ">", _fmt_ratio(U * sj, V * si)
        elif A * g <= B * n:
            end, sign, value = "> min_m w_m", "<=", _fmt_ratio(n * sj, g * si)
        else:
            continue
        return "violates t(%s)^%d / t(%s)^%d %s at this t: %s %s %s" % (
            names[i], q, names[j], p, end, _fmt_ratio(A * sj, B * si), sign, value)
    return None


def _log_ends(c, p, copies):
    """The float ends of a pair's interval for _inside_power_sums, from the
    float coefficients c: log(min_m w_m) + 1e-9 and log(sum_m w_m) - 1e-9,
    w_m = c_a^(p+1) / c_b^p over the copies (a, b).  None unless the
    powers and every w_m are normal floats, where the margin is far above
    the float error."""
    low, high = float("inf"), 0.0
    try:
        for a, b in copies:
            x, y = c[a] ** (p + 1), c[b] ** p
            if x < 1e-300 or y < 1e-300:
                return None
            w = x / y
            high += w
            if w < low:
                low = w
    except OverflowError:
        return None
    if not (low > 1e-300 and high < 1e300):
        return None
    return log(low) + 1e-9, log(high) - 1e-9


def _inside_power_sums(view, log_targets):
    """The float pre-test of unreachable_at_t: whether floats place every
    pair's ratio P^(p+1) / Q^p inside its interval, strictly inside the
    view's log ends, so that the exact test need not run.  log_targets are
    the logs of the float targets.  A pair with no float ends fails it, so
    floats only ever send a target to the exact test, whose verdict alone
    refuses."""
    for (i, j, p, _), ends in zip(view.ctx._power_sums, view.log_ends):
        if ends is None:
            return False
        ratio = (p + 1) * log_targets[i] - p * log_targets[j]
        if not ends[0] < ratio < ends[1]:
            return False
    return True


def density_s_poly(ctx, i, t_values):
    """t(T_i, W_k) with t bound to rationals and every s_j left symbolic:
    letter i's s-form as a Polynomial, coefficient N / scale per term
    (TView.form, which forms that letter alone)."""
    scale, _, terms = TView(ctx, t_values).form(i)
    return Polynomial(
        {tuple((s_var(j + 1), e) for j, e in mono): Q(N, scale) for N, mono in terms}
    )


def jacobian_at(ctx, p):
    """Exact ell x ell matrix with entry (i, j) = d t(T_i, W_k)/d s_j at p,
    p read by _read_point, on the s-forms of its TView."""
    _, view, A, L, _ = _read_point(ctx, p)
    return jacobian_of_forms(view.letters, A, L)


def jacobian_of_forms(forms, A, L):
    """The exact core of jacobian_at, on s-forms already made: row i is the
    Euler row of s-form i at s = A / L, entry j divided by s_j.  The
    solver's singularity check calls it with the forms of its solve."""
    return [
        [Q(x, scale * L ** (n - 1) * a) for x, a in zip(value_and_euler(terms, A)[1], A)]
        for scale, n, terms in forms
    ]


def value_and_euler(terms, s):
    """An s-form's value at s and its Euler row s_j dG/ds_j (the sum of e_j
    times each term): over scale * L^n at s = A; evaluate_float's value bit
    for bit at float s and terms (same order; sums start at 0 * first N).
    The exact pass of jacobian_at; the solver's float kernels unroll it
    (values and step its totals, direction its Euler rows), and is their
    oracle, bit for bit, in test_kernels_match_value_and_euler_bit_for_bit
    and test_log_jacobian_rows_come_from_the_value_pass (test_solver.py)."""
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
    """Entry (i,j) = d symbolic_density(i) / d s_j; jacobian_at's oracle in
    test_jacobian_two_routes_agree."""
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


def random_params(ctx, rng):
    """Random rational point in the open domain with small entries: t from
    (0,1] with denominator <= 16, then s scaled so that sum s_i (row sum)
    <= 1/2 automatically."""
    t = []
    for n in ctx.sizes:
        row = []
        for _ in range(n):
            den = rng.randint(1, 16)
            num = rng.randint(1, den)
            row.append(Q(num, den))
        t.append(tuple(row))
    s = []
    for row in t:
        den = rng.randint(1, 16)
        num = rng.randint(1, den)
        u = Q(num, den)
        cap = int(ceil(sum(row, ZERO)))
        s.append(u / (2 * ctx.ell * cap))
    return make_params(ctx, s, t)


def certify_det_nonzero(ctx, trials, seed):
    """First random point where det(jacobian) is nonzero, as a certificate
    that det(J) is not the zero polynomial."""
    if trials < 1:
        raise DomainError("need trials >= 1")
    rng = random.Random(seed)
    zeros = 0
    for trial in range(1, trials + 1):
        p = random_params(ctx, rng)
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
        "tournaments": list(ctx.names),
        "blocks": block_labels(ctx),
    }
