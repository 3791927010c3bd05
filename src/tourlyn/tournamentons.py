"""Step tournamentons and exact densities.

A step tournamenton is a block-constant antisymmetric kernel on [0,1]:
an ordered list of blocks, each with a rational measure and a diagonal
kind (constant 1/2, or the transitive kernel that is 1 below the diagonal
within the block), plus a rational cross matrix F with F[b][c] + F[c][b]
= 1.  The density t(T, W) integrates the product of edge values over all
placements of T's vertices; with finitely many blocks this is a finite
sum over block assignments:

    t(T, W) = sum over f: V(T) -> blocks of
              prod over cross edges u->v of F[f(u)][f(v)]
            * prod over blocks b:  (transitive) m_b^p / p!  if the
              preimage induces an acyclic tournament, else 0
                                   (half)        m_b^p (1/2)^C(p,2)

where p = |preimage of b|.  The transitive factor is the volume of the
order-compatible region (each acyclic preimage has exactly one admissible
vertex order, hence the 1/p!); the half factor is the fair-coin mass over
all C(p,2) internal pairs.

map_sum evaluates the sum exactly in three parts: a walk that counts the
assignments, once per host shape; host tables of what depends only on the
host's numbers and the class size (_HostTables); and a sum for the class
that reads the counts and the tables and multiplies Python ints only
(_class_sum).

The walk (_assignment_counts) is a plain DFS over the assignments in
vertex order, keeping each placed vertex's block.  A vertex tries, in
ascending order, the blocks that no earlier vertex rules out by a zero
cross factor, and skips a transitive block whose preimage would turn
cyclic; this pruning keeps the 0/1 matrices of the blow-up construction
cheap even with dozens of blocks.  The acyclicity test is one bit of a
table made from the 2^n out-set unions (n <= 6 through density, n <= 5
in the construction's chain DP).  Each leaf adds 1 to the count of its
signature: its occupancy (p_0, ..., p_{B-1}) and, for every free pair
of blocks a < b (both cross entries nonzero), T's edges from a to b and
back.  A leaf's cross factors depend on it only through its
signature and its diagonal factors only through its occupancy, which
also fixes the number of cross edges C(n,2) - sum C(p_b,2) and so the
power of den to divide by.  On a 0/1 matrix no pair is free and the
signature is the occupancy.

The counts depend on T and on W's shape, not on W's numbers, so they are
kept in the module, in an lru_cache keyed on the labelled T, the blocks'
transitive flags and the zero pattern of the cross matrix (per block,
the bitmask of its nonzero entries), of at most ASSIGNMENT_TABLES
tables; _assignment_counts.cache_info() gives its hits, misses and
current size.  A table keeps its counts, its occupancy codes and, per
row, one id in arrays of the narrowest type that holds them; codes past
64 bits, those of a host with dozens of blocks, are kept as fixed-width
bytes (_WideInts) and read back with int.from_bytes.  An id stands for
the free pairs' numbers of its row in the signature index of the host
shape and class size (_SignatureIndex), which holds each pair's numbers
in its own column and grows as the tables of the shape meet new ones.
The indexes are the module's second cache, _signature_index, an lru of
at most SIGNATURE_INDEXES keyed on the class size and the shape; a
table keeps the index its ids point into, so an eviction from either
cache never pairs a table with a rebuilt index.

The host tables scale the cross matrix by den, the lcm of its entries'
denominators (den = 1 for a 0/1 matrix), tabulate the powers of each free
pair's two entries, weigh each id of an index once, the product of its
pairs' powers (extended in one pass when a class brings new ids), and
turn each occupancy, the first time a class meets it, into its
multiplier: one integer coefficient over the common denominator
den^C(n,2) n! 2^C(n,2) times the powers m_b^p of its measures.  The sum
for a class multiplies each row's count by its id's weight, one lookup
and one product per row, sums the rows of each occupancy and multiplies
the sum by the occupancy's multiplier.  The occupancies are summed in
the order the walk first reached them, which fixes the term order of the
polynomials construction.symbolic_density makes; map_sum divides the sum
by the denominator once per class.

density passes the measures as integers a_b over their lcm M, so for
rational measures the whole evaluation stays in ints; the sum is
homogeneous of degree n in the measures (every occupancy sums to n), so
density makes one rational of it, the sum over the denominator times
M^n.

W is frozen, so what is computed from its numbers is kept on it and goes
with it: its validation, sample's float view, the integer measures, and
density's host tables per class size (the free pairs' factor tables and
the weights of the ids met so far, the fixed pairs, the powers of den
and of the measures, the denominator and the multipliers met so far),
which every class of that size on W reads.  A density itself is not
kept: each call sums its class on the tables.  The assignment counts and
the signature indexes are kept in the module, as they serve every W of
a shape.
"""

import random
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, chain, islice, repeat
from math import factorial, lcm
from operator import mul

from .errors import BudgetError, DomainError
from .rational import ONE, ZERO, Q, as_q, fmt_q
from .tournaments import Tournament, canonicalize, enumerate_exact, automorphism_count

DENSITY_MAX = 6
# the tables _assignment_counts keeps: flag-algebra's 76 classes on its
# three block patterns take 228, the k <= 5 contexts' chain DP and W_k
# hosts 132
ASSIGNMENT_TABLES = 1024
# the signature indexes _signature_index keeps, one per host shape and
# class size: flag-algebra's three block patterns take 18
SIGNATURE_INDEXES = 256
HALF_KIND = "half"
TRANSITIVE_KIND = "transitive"


@dataclass(frozen=True)
class Block:
    measure: object
    diagonal: str


@dataclass(frozen=True)
class StepTournamenton:
    blocks: tuple
    cross: tuple

    @cached_property
    def _valid(self):
        """validate(self) once per W; a raise stores nothing, so it recurs."""
        validate(self)
        return True

    @cached_property
    def _host_tables(self):
        """density's _HostTables on this W, keyed by class size."""
        return {}

    @cached_property
    def _float_view(self):
        """What sample reads, converted from the Fractions once: the
        cumulative block bounds, the transitive flags and the cross
        matrix as floats."""
        bounds = []
        acc = 0.0
        for b in self.blocks:
            acc += float(b.measure)
            bounds.append(acc)
        transitive = [b.diagonal == TRANSITIVE_KIND for b in self.blocks]
        cross = [[float(f) for f in row] for row in self.cross]
        return bounds, transitive, cross

    @cached_property
    def _integer_measures(self):
        """What density reads: the lcm M of the measures' denominators
        and the measures as integers a_b = M * m_b."""
        M = lcm(*(b.measure.denominator for b in self.blocks))
        return M, [b.measure.numerator * (M // b.measure.denominator) for b in self.blocks]


def step_tournamenton(blocks, cross):
    """Build from (measure, kind) pairs and a cross matrix of B rows of B
    entries, B the number of blocks (any other shape is a DomainError);
    diagonal cross entries are forced to zero so equal tournamentons hash
    equally."""
    blks = tuple(Block(as_q(m), kind) for m, kind in blocks)
    B = len(blks)
    try:
        square = len(cross) == B and all(len(row) == B for row in cross)
    except TypeError as e:
        raise DomainError("malformed cross matrix: %s" % e) from None
    if not square:
        raise DomainError("malformed cross matrix: not %d rows of %d entries" % (B, B))
    rows = []
    for i in range(B):
        row = [as_q(cross[i][j]) if i != j else ZERO for j in range(B)]
        rows.append(tuple(row))
    return StepTournamenton(blks, tuple(rows))


def constant_half():
    return step_tournamenton([(1, HALF_KIND)], [[0]])


def validate(W):
    """Check all invariants; the error message lists every violation."""
    problems = []
    B = len(W.blocks)
    if B == 0:
        problems.append("no blocks")
    total = ZERO
    for i, b in enumerate(W.blocks):
        if b.diagonal not in (HALF_KIND, TRANSITIVE_KIND):
            problems.append("block %d has unknown diagonal %r" % (i, b.diagonal))
        if not (0 < b.measure <= 1):
            problems.append("block %d measure %s outside (0,1]" % (i, fmt_q(b.measure)))
        total += b.measure
    if B and total != 1:
        problems.append("measures sum to %s, not 1" % fmt_q(total))
    for i in range(B):
        for j in range(B):
            if i == j:
                continue
            v = W.cross[i][j]
            if not (0 <= v <= 1):
                problems.append("cross[%d][%d] = %s outside [0,1]" % (i, j, fmt_q(v)))
        for j in range(i + 1, B):
            if W.cross[i][j] + W.cross[j][i] != 1:
                problems.append(
                    "cross[%d][%d] + cross[%d][%d] = %s, not 1"
                    % (i, j, j, i, fmt_q(W.cross[i][j] + W.cross[j][i]))
                )
    if problems:
        raise DomainError("; ".join(problems))


def map_sum(T, measures, kinds, cross, zero):
    """The module docstring's sum over block assignments, shared by
    density() and the construction module's chain DP.

    The ring contract, what map_sum and construction._chain_density need
    of the measures' type (ints, rationals and polynomials meet it), with
    x, y measures and `zero` one of them:

        x + y, and 0 + x and x + 0 for the int 0 (_class_sum starts its
            sum from it);
        x * y, and x * n for an int n;
        x ** p for an int p >= 1;
        x / n for a positive int n;
        == and != against zero.

    The cross entries are rationals or plain ints (the construction's 0/1
    matrix): anything with .numerator and .denominator.

    It builds the host tables for T's size (_HostTables), sums T on them
    (_class_sum) and divides the sum by the tables' denominator.  density
    makes the same two calls, but keeps the tables on W for every later
    class of that size, and makes its int sum one rational.
    """
    host = _HostTables(T.n, measures, kinds, cross)
    return (zero + _class_sum(T, host)) / host.denominator


class _HostTables:
    """What map_sum's evaluation reads that depends only on the host's
    numbers and the class size n, not on the class.

    With den the lcm of the cross entries' denominators and w[a][b] =
    den * F[a][b], an occupancy's integer weight is the sum over its
    signatures (_assignment_counts) of

        count * prod over free pairs a < b of w[a][b]^e * w[b][a]^g,

    e and g being T's edges from block a to block b and back; `factors`
    holds, per free pair, these products at the index e * S + g its number
    holds, and their product over the pairs is the cross weight of the
    signature's id, kept per signature index in `weights` (cross_weights).
    A pair with a zero entry has all of its p_a p_b edges on its nonzero
    side (or none, when both are zero), so it multiplies the weight by
    (w[a][b] + w[b][a])^(p_a p_b), which is 1 on a 0/1 matrix; `fixed`
    lists the pairs where it is not.  Over the common denominator
    `denominator` = den^C(n,2) n! 2^C(n,2) an occupancy is its integer
    weight times its multiplier

        fixed-pair powers * prod m_b^p_b * den^(sum C(p_b,2)) * n! 2^C(n,2)
        / prod d_b(p_b),

    with d_b(p) = p! for a transitive block and 2^C(p,2) for a half block;
    each occupancy's multiplier is made the first time a class meets it,
    and kept in `multipliers`.
    """

    def __init__(self, n, measures, kinds, cross):
        den = 1
        for row in cross:
            for f in row:
                den = lcm(den, f.denominator)
        # w[b][c]: the factor of an edge from block b to block c
        w = [[int(f.numerator) * (den // f.denominator) if b != c else 1
              for c, f in enumerate(row)] for b, row in enumerate(cross)]
        B = len(measures)
        self.n = n
        self.measures = measures
        self.transitive = tuple(kind == TRANSITIVE_KIND for kind in kinds)
        self.opened = tuple(sum(1 << c for c, f in enumerate(row) if f) for row in w)
        S = n * n // 4 + 1
        self.factors = []
        for a, b in _free_pairs(self.opened):
            forward = list(accumulate(repeat(w[a][b], S - 1), mul, initial=1))
            backward = list(accumulate(repeat(w[b][a], S - 1), mul, initial=1))
            self.factors.append([x * y for x in forward for y in backward])
        self.fixed = [(a, b, w[a][b] + w[b][a]) for a in range(B) for b in range(a + 1, B)
                      if not (w[a][b] and w[b][a]) and w[a][b] + w[b][a] != 1]
        pairs = n * (n - 1) // 2
        self.scale = factorial(n) << pairs
        self.den_powers = list(accumulate(repeat(den, pairs), mul, initial=1))
        self.denominator = self.den_powers[pairs] * self.scale
        self.powers = {}  # m_b^p at the slot b * (n + 1) + p, as needed
        self.multipliers = {}
        self.weights = {}  # _SignatureIndex -> the cross weights of its ids

    def cross_weights(self, index):
        """The cross weights of the ids of `index` (a _SignatureIndex of
        this host's shape and size), id by id: the list kept for that index,
        first extended in one pass by the ids it gained since."""
        weights = self.weights.get(index)
        if weights is None:
            weights = self.weights[index] = []
        start = len(weights)
        if start < len(index.ids):
            columns = iter(index.columns)
            new = map(self.factors[0].__getitem__, islice(next(columns), start, None))
            for factor, column in zip(self.factors[1:], columns):
                new = map(mul, new, map(factor.__getitem__, islice(column, start, None)))
            weights.extend(new)
        return weights

    def multiplier(self, code):
        """The multiplier of the occupancy with base-(n+1) code `code`;
        made and kept at the first call."""
        digit = self.n + 1
        transitive, powers, measures = self.transitive, self.powers, self.measures
        factor = 1
        for a, b, base in self.fixed:
            factor *= base ** (code // digit ** a % digit * (code // digit ** b % digit))
        inner = 0
        divisor = 1
        # the product of the measure powers, the measures on the left so a
        # Fraction or polynomial is the one whose method multiplies (n >= 1,
        # so some block is occupied)
        measured = None
        b = 0
        rest = code
        while rest:
            rest, p = divmod(rest, digit)
            if p:
                inside = p * (p - 1) // 2
                inner += inside
                divisor *= factorial(p) if transitive[b] else 1 << inside
                slot = b * digit + p
                power = powers.get(slot)
                if power is None:
                    power = powers[slot] = measures[b] ** p
                measured = power if measured is None else measured * power
            b += 1
        factor *= self.den_powers[inner] * (self.scale // divisor)
        self.multipliers[code] = multiplier = measured * factor
        return multiplier


def _class_sum(T, host):
    """T's sum on the host `host` (a _HostTables for T's size), the
    numerator over the host's denominator: each signature's count is
    multiplied by the cross weight of its id (_HostTables.cross_weights),
    one lookup and one product per row; each occupancy's rows
    are then summed, in the order the walk first reached the occupancies,
    which fixes the term order of the polynomials
    construction.symbolic_density makes, and each sum meets its
    occupancy's multiplier.  The sum starts from the int 0; the caller
    divides it by the denominator."""
    occupancies, counts, ids, index = _assignment_counts(T, host.transitive, host.opened)
    if index is None:
        rows = iter(counts)
    else:
        rows = map(mul, counts, map(host.cross_weights(index).__getitem__, ids))
    multipliers = host.multipliers
    # with free pairs each occupancy code is followed by its number of rows
    codes = iter(occupancies)
    acc = 0
    for code, size in zip(codes, codes if index is not None else repeat(1)):
        multiplier = multipliers.get(code)
        if multiplier is None:
            multiplier = host.multiplier(code)
        acc = acc + multiplier * sum(islice(rows, size))
    return acc


def _free_pairs(opened):
    """The pairs a < b of blocks with both cross entries nonzero, in
    order; opened[b] is the bitmask of the blocks c with F[b][c] != 0."""
    B = len(opened)
    return [(a, b) for a in range(B) for b in range(a + 1, B)
            if opened[a] >> b & 1 and opened[b] >> a & 1]


@lru_cache(maxsize=ASSIGNMENT_TABLES)
def _assignment_counts(T, transitive, opened):
    """The block assignments of T that map_sum sums over, counted by
    signature, on a host given by its shape alone: the blocks' transitive
    flags and, per block b, the bitmask opened[b] of the blocks c with
    F[b][c] != 0 (b's own bit set).  The signature of an assignment is its
    occupancy (p_0, ..., p_{B-1}) and, per free pair a < b (_free_pairs),
    the number e * S + g of T's e edges from block a to block b and g
    back, S = n^2 // 4 + 1 (e + g = p_a p_b < S).  The numbers do not
    depend on W's values, so one table serves every W of the shape.

    The DFS assigns vertices in order, recording each one's block in
    `assign`, and tries for each vertex, in ascending order, the blocks
    that no earlier vertex rules out by a zero cross factor and that leave
    a transitive preimage acyclic, which one bit of a table made from the
    2^n out-set unions decides; each leaf adds 1 to its signature's count.
    An occupancy is coded as the base-(n+1) number with digits p_b; with
    free pairs a signature is one int, the pairs' numbers in its low
    digits of `digit` bits and the occupancy above them, and a vertex
    placed in block b adds to it b's place and, per earlier vertex in a
    block c of a free pair with b, edge[b][c] if it beats that vertex and
    edge[c][b] if it loses to it.  With no free pair (a 0/1 matrix) the
    signature is the occupancy and the walk adds nothing else.

    Returns (occupancies, counts, ids, index).  With no free pair: the
    occupancy codes in the order the walk first reached them, their
    counts, no ids and no index.  With free pairs: each occupancy code in
    that order followed by its number of signatures, the signatures'
    counts grouped by occupancy in the same order, and per signature, in
    the counts' order, the id of its pairs' numbers in `index`, the
    _SignatureIndex of the shape and size, to which the walk first adds
    the numbers it has not met.  The table is shared by every caller on
    the shape: nothing may change it.
    """
    n = T.n
    B = len(transitive)
    out = T.out
    free = _free_pairs(opened)
    S = n * n // 4 + 1
    digit = 8 if S * S <= 1 << 8 else 16  # 16 bits hold S * S up to n = 31
    low = len(free) * digit
    place = [(n + 1) ** b << low for b in range(B)]
    # edge[b][c]: what an edge from a vertex in block b to one in block c
    # adds to the signature, S or 1 in the digit of its free pair
    edge = [[0] * B for _ in range(B)]
    for j, (a, c) in enumerate(free):
        edge[a][c] = S << digit * j
        edge[c][a] = 1 << digit * j
    # beaten[c]: the blocks b with F[b][c] != 0, those open to a vertex
    # beating one in block c
    beaten = [sum(1 << b for b in range(B) if opened[b] >> c & 1) for c in range(B)]
    # the earlier vertices each vertex beats, and those beating it
    beats = [[u for u in range(v) if out[v] >> u & 1] for v in range(n)]
    beaten_by = [[u for u in range(v) if out[u] >> v & 1] for v in range(n)]
    # outs[X]: the union of the out-sets of the vertices in X; bit X of
    # cyclic[v] is set when X + v would not be acyclic, for an acyclic X
    # of vertices before v: when one of v's out-neighbours in X beats one
    # of its in-neighbours there
    outs = [0] * (1 << n)
    for X in range(1, 1 << n):
        bit = X & -X
        outs[X] = outs[X ^ bit] | out[bit.bit_length() - 1]
    cyclic = [sum(1 << X for X in range(1 << v) if outs[out[v] & X] & X & ~out[v])
              for v in range(n)]
    assign = [0] * n  # each earlier vertex's block
    members = [0] * B  # bitmask of each block's preimage
    tally = {}  # signature -> its count

    def rec(v, sig):
        blocks = (1 << B) - 1
        for u in beats[v]:
            blocks &= beaten[assign[u]]
        for u in beaten_by[v]:
            blocks &= opened[assign[u]]
        while blocks:
            b = (blocks & -blocks).bit_length() - 1
            blocks &= blocks - 1
            pre = members[b]
            if transitive[b] and cyclic[v] >> pre & 1:
                continue
            sig2 = sig + place[b]
            if free:
                for u in beats[v]:
                    sig2 += edge[b][assign[u]]
                for u in beaten_by[v]:
                    sig2 += edge[assign[u]][b]
            if v == n - 1:
                tally[sig2] = tally.get(sig2, 0) + 1
            else:
                assign[v] = b
                members[b] = pre | 1 << v
                rec(v + 1, sig2)
                members[b] = pre

    rec(0, 0)

    if not free:
        return _packed(tally), _packed(tally.values()), (), None
    groups = {}
    for sig in tally:
        groups.setdefault(sig >> low, []).append(sig)
    rows = list(chain.from_iterable(groups.values()))
    index = _signature_index(n, transitive, opened)
    ids = index.ids
    mask, number = (1 << low) - 1, (1 << digit) - 1
    for sig in rows:
        key = sig & mask
        if key not in ids:
            ids[key] = len(ids)
            for j, column in enumerate(index.columns):
                column.append(key >> digit * j & number)
    return (
        _packed(chain.from_iterable(zip(groups, map(len, groups.values())))),
        _packed(map(tally.__getitem__, rows)),
        _packed(ids[sig & mask] for sig in rows),
        index,
    )


@lru_cache(maxsize=SIGNATURE_INDEXES)
def _signature_index(n, transitive, opened):
    """The _SignatureIndex of the host shape (transitive, opened) and the
    class size n, empty until _assignment_counts fills it."""
    return _SignatureIndex(len(_free_pairs(opened)))


class _SignatureIndex:
    """The free pairs' numbers met by the tables of one host shape and
    class size, each under one id: `ids` maps the numbers, packed as in
    a signature's low digits, to their id, given in the order they are
    first met, and `columns` holds, per free pair, that pair's number for
    each id.  A host weighs each id once (_HostTables.cross_weights), and
    every class of the size reads the weights.  A table keeps the index
    its ids point into, so a table made before an eviction from
    _signature_index never reads a rebuilt one's ids."""

    __slots__ = ("ids", "columns")

    def __init__(self, pairs):
        self.ids = {}
        # 16 bits hold a pair's number, as they hold a signature's digit
        self.columns = [array("H") for _ in range(pairs)]


def _packed(values):
    """The non-negative ints `values` in the narrowest array that holds
    them, or as _WideInts when none does (the occupancy codes of a host
    with dozens of blocks)."""
    values = list(values)
    top = max(values, default=0)
    for typecode in "BHIQ":
        if top >> 8 * array(typecode).itemsize == 0:
            return array(typecode, values)
    return _WideInts(values, (top.bit_length() + 7) // 8)


class _WideInts:
    """Non-negative ints past 64 bits, `width` little-endian bytes each in
    one bytes object; iterating reads them back with int.from_bytes."""

    __slots__ = ("data", "width")

    def __init__(self, values, width):
        self.data = b"".join(map(int.to_bytes, values, repeat(width), repeat("little")))
        self.width = width

    def __iter__(self):
        data, width, from_bytes = self.data, self.width, int.from_bytes
        return (from_bytes(data[i:i + width], "little") for i in range(0, len(data), width))


def density(T, W):
    """Exact density t(T, W)."""
    if T.n > DENSITY_MAX:
        raise BudgetError("density is budgeted to |T| <= %d" % DENSITY_MAX)
    W._valid
    C = canonicalize(T)
    # the sum is homogeneous of degree n in the measures, so it is summed
    # on the integers a_b, an int over the host's denominator times M^n
    M, numerators = W._integer_measures
    host = W._host_tables.get(C.n)
    if host is None:
        kinds = [b.diagonal for b in W.blocks]
        host = W._host_tables[C.n] = _HostTables(C.n, numerators, kinds, W.cross)
    return Q(_class_sum(C, host), host.denominator * M ** C.n)


def normalization_check(k, W):
    """Sum of (k!/|Aut(T)|) t(T,W) over all classes on k vertices; must be 1."""
    if k > DENSITY_MAX:
        raise BudgetError("normalization_check is budgeted to k <= %d" % DENSITY_MAX)
    total = ZERO
    for T in enumerate_exact(k):
        total += Q(factorial(k)) / automorphism_count(T) * density(T, W)
    return total


def sample(W, n, seed):
    """One random n-vertex tournament drawn from W; deterministic per seed.

    Each point draws a block (by measure) and a uniform position; the
    position only matters inside transitive blocks, but drawing it always
    keeps the randomness stream independent of block kinds.  Equal
    positions (a measure-zero event) fall back to a fair coin.
    """
    if n < 1:
        raise DomainError("need n >= 1")
    W._valid
    bounds, transitive, cross = W._float_view
    rng = random.Random(seed)
    pts = []
    for _ in range(n):
        r = rng.random()
        blk = 0
        while blk < len(bounds) - 1 and r >= bounds[blk]:
            blk += 1
        pts.append((blk, rng.random()))
    out = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            bi, pi = pts[i]
            bj, pj = pts[j]
            if bi == bj:
                if transitive[bi] and pi != pj:
                    i_beats = pi < pj
                else:
                    i_beats = rng.random() < 0.5
            else:
                i_beats = rng.random() < cross[bi][bj]
            if i_beats:
                out[i] |= 1 << j
            else:
                out[j] |= 1 << i
    return Tournament._trusted(n, out)


def random_step_tournamenton(rng, max_blocks=4):
    """Random valid tournamenton for property tests: 1..max_blocks blocks,
    integer-weight measures normalized to sum 1, rational cross entries
    with denominators at most 12."""
    B = rng.randint(1, max_blocks)
    weights = [rng.randint(1, 8) for _ in range(B)]
    tot = sum(weights)
    blocks = [
        (Q(w, tot), rng.choice((HALF_KIND, TRANSITIVE_KIND)))
        for w in weights
    ]
    cross = [[ZERO] * B for _ in range(B)]
    for i in range(B):
        for j in range(i + 1, B):
            den = rng.randint(1, 12)
            num = rng.randint(0, den)
            cross[i][j] = Q(num, den)
            cross[j][i] = ONE - cross[i][j]
    return step_tournamenton(blocks, cross)


def to_json(W):
    B = len(W.blocks)
    return {
        "blocks": [
            {"measure": fmt_q(b.measure), "diagonal": b.diagonal} for b in W.blocks
        ],
        "cross": [[fmt_q(W.cross[i][j]) for j in range(B)] for i in range(B)],
    }


def from_json(data):
    try:
        blocks = [(b["measure"], b["diagonal"]) for b in data["blocks"]]
        return step_tournamenton(blocks, data["cross"])
    except (KeyError, TypeError) as e:
        raise DomainError("malformed tournamenton JSON: %s" % e) from None
