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

map_sum evaluates the sum exactly by a DFS over the assignments that
multiplies Python ints only: the cross matrix scaled by den, the lcm of
its entries' denominators (den = 1 for the 0/1 matrices of the blow-up
construction).  The DFS prunes on zero cross factors and on cyclic
transitive preimages, so those matrices stay cheap even with dozens of
blocks; the acyclicity test is one lookup in a table of out-set unions
with 2^n entries (n <= 6 through density, n <= 5 in the construction's
chain DP).  The diagonal factors depend on the assignment only through
the occupancy (p_0, ..., p_{B-1}), which also fixes the number of cross
edges C(n,2) - sum C(p_b,2) and so the power of den to divide by; the
leaves' integer products are summed per occupancy, each occupancy becomes
one integer coefficient over the common denominator
den^C(n,2) n! 2^C(n,2) times the powers m_b^p of its measures, and the
sum is divided by that denominator once per call.

density passes the measures as integers a_b over their lcm M, so for
rational measures the whole walk stays in ints; the sum is homogeneous of
degree n in the measures (every occupancy sums to n), so density divides
the result by M^n once.

W is frozen, so what is computed from it is kept on it and goes with it:
its validation, sample's float view, the integer measures, and density's
results per canonical class.  The module keeps no cache of its own.
"""

import random
from dataclasses import dataclass
from functools import cached_property
from math import factorial, lcm

from .errors import BudgetError, DomainError
from .rational import ONE, ZERO, Q, as_q, fmt_q
from .tournaments import Tournament, canonicalize, enumerate_exact, automorphism_count

DENSITY_MAX = 6
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
    def _densities(self):
        """What density has computed on this W, keyed by canonical class."""
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
    """Build from (measure, kind) pairs and a cross matrix; diagonal cross
    entries are forced to zero so equal tournamentons hash equally."""
    blks = tuple(Block(as_q(m), kind) for m, kind in blocks)
    B = len(blks)
    rows = []
    for i in range(B):
        row = [as_q(cross[i][j]) if i != j else ZERO for j in range(B)]
        rows.append(tuple(row))
    return StepTournamenton(blks, tuple(rows))


def constant_half():
    return step_tournamenton([(1, HALF_KIND)], [[0]])


def single_transitive():
    return step_tournamenton([(1, TRANSITIVE_KIND)], [[0]])


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
    if len(W.cross) != B or any(len(row) != B for row in W.cross):
        problems.append("cross matrix is not %dx%d" % (B, B))
    else:
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
    density() and the construction module's chain DP: `measures` may be
    ints, rationals or polynomials, `cross` rationals or plain ints (the
    construction's 0/1 matrix); any number type with .denominator works.

    The DFS assigns vertices in order and multiplies the integers
    den * F[b][c] of the cross edges (rows with a unit diagonal, so a
    same-block pair multiplies by 1).  It tries for each vertex only the
    blocks that no earlier vertex rules out by a zero cross factor (a
    bitmask filter, skipped when F has no zero entry) and that keep a
    transitive preimage acyclic, which one lookup in a 2^n table of
    out-set unions decides.  The last vertex adds its products to the
    weight of its occupancy (p_0, ..., p_{B-1}) directly.  Over the common
    denominator D = den^C(n,2) n! 2^C(n,2) an occupancy is the integer
    weight * den^(sum C(p_b,2)) * n! 2^C(n,2) / prod d_b(p_b), with
    d_b(p) = p! for a transitive block and 2^C(p,2) for a half block,
    times the powers m_b^p (cached per (b, p)); the sum meets `zero` and
    D once, at the end.
    """
    n = T.n
    B = len(measures)
    out = T.out
    den = 1
    for row in cross:
        for f in row:
            den = lcm(den, f.denominator)
    # win[b][c]: the factor of an edge from block b to block c; lose[b][c]
    # = win[c][b], the factor of an edge into block b
    win = [[int(f * den) if b != c else 1 for c, f in enumerate(row)]
           for b, row in enumerate(cross)]
    lose = list(zip(*win))
    transitive = [kind == TRANSITIVE_KIND for kind in kinds]
    # an occupancy is coded as the base-(n+1) number with digits p_b
    place = [(n + 1) ** b for b in range(B)]
    # the blocks left open to v by an earlier vertex in block c that v
    # beats (opened_by_loser) or that beats v (opened_by_winner)
    opened_by_loser = [sum(1 << b for b in range(B) if win[b][c]) for c in range(B)]
    opened_by_winner = [sum(1 << b for b in range(B) if lose[b][c]) for c in range(B)]
    full = (1 << B) - 1
    sparse = any(mask != full for mask in opened_by_loser)
    # per vertex, the earlier vertices it beats and the ones beating it
    losers = [tuple(u for u in range(v) if out[v] >> u & 1) for v in range(n)]
    winners = [tuple(u for u in range(v) if out[u] >> v & 1) for v in range(n)]
    # outs[S]: the union of the out-sets of the vertices in S
    outs = [0] * (1 << n)
    for S in range(1, 1 << n):
        low = S & -S
        outs[S] = outs[S ^ low] | out[low.bit_length() - 1]
    assign = [0] * n
    members = [0] * B  # bitmask of each block's preimage
    weights = {}

    def rec(v, acc, code):
        below, above = losers[v], winners[v]
        blocks = full
        if sparse:
            for u in below:
                blocks &= opened_by_loser[assign[u]]
            for u in above:
                blocks &= opened_by_winner[assign[u]]
        last = v == n - 1
        while blocks:
            low = blocks & -blocks
            blocks ^= low
            b = low.bit_length() - 1
            pre = members[b]
            if transitive[b]:
                # an acyclic preimage stays acyclic with v iff none of v's
                # out-neighbours in it beats one of v's in-neighbours
                beaten = out[v] & pre
                if outs[beaten] & (pre ^ beaten):
                    continue
            acc2 = acc
            row, col = win[b], lose[b]
            for u in below:
                acc2 *= row[assign[u]]
            for u in above:
                acc2 *= col[assign[u]]
            if last:
                key = code + place[b]
                weights[key] = weights.get(key, 0) + acc2
            else:
                assign[v] = b
                members[b] = pre | 1 << v
                rec(v + 1, acc2, code + place[b])
                members[b] = pre

    rec(0, 1, 0)

    pairs = n * (n - 1) // 2
    scale = factorial(n) << pairs
    transitive_div = [factorial(p) for p in range(n + 1)]
    half_div = [1 << p * (p - 1) // 2 for p in range(n + 1)]
    divisors = [transitive_div if t else half_div for t in transitive]
    powers = {}
    acc = 0
    for code, term in weights.items():
        inner = 0
        divisor = 1
        b = 0
        while code:
            code, p = divmod(code, n + 1)
            if p:
                inner += p * (p - 1) // 2
                divisor *= divisors[b][p]
                if (b, p) not in powers:
                    powers[b, p] = measures[b] ** p
                term = term * powers[b, p]
            b += 1
        acc = acc + term * (den ** inner * (scale // divisor))
    return (zero + acc) / (den ** pairs * scale)


def density(T, W):
    """Exact density t(T, W)."""
    if T.n > DENSITY_MAX:
        raise BudgetError("density is budgeted to |T| <= %d" % DENSITY_MAX)
    W._valid
    C = canonicalize(T)
    if C not in W._densities:
        # the sum is homogeneous of degree n in the measures, so the walk
        # runs on the integers a_b and the result is divided by M^n once
        M, numerators = W._integer_measures
        kinds = [b.diagonal for b in W.blocks]
        W._densities[C] = map_sum(C, numerators, kinds, W.cross, ZERO) / M ** C.n
    return W._densities[C]


def normalization_check(k, W):
    """Sum of (k!/|Aut(T)|) t(T,W) over all classes on k vertices; must be 1."""
    if k > 5:
        raise BudgetError("normalization_check is budgeted to k <= 5")
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


def random_step_tournamenton(rng, max_blocks=4, max_denominator=12):
    """Random valid tournamenton for property tests: 1..max_blocks blocks,
    integer-weight measures normalized to sum 1, rational cross entries."""
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
            den = rng.randint(1, max_denominator)
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
        cross = data["cross"]
        if len(cross) != len(blocks) or any(len(row) != len(blocks) for row in cross):
            raise DomainError("cross matrix shape does not match block count")
        return step_tournamenton(blocks, cross)
    except (KeyError, TypeError) as e:
        raise DomainError("malformed tournamenton JSON: %s" % e) from None
