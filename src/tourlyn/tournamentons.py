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
blocks.  The diagonal factors depend on the assignment only through the
occupancy (p_0, ..., p_{B-1}), which also fixes the number of cross edges
C(n,2) - sum C(p_b,2) and so the power of den to divide by; the leaves'
integer products are summed per occupancy, and the rational (or
polynomial) measure factors are applied once per occupancy.
"""

import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import factorial, lcm

from .errors import BudgetError, DomainError
from .rational import HALF, ONE, ZERO, Q, as_q, fmt_q
from .tournaments import Tournament, canonicalize, enumerate_exact, automorphism_count

DENSITY_MAX = 6
# fixed bounds on the density and validation caches: a flag-algebra
# benchmark run stops after 24 batches of 76 classes, so it fills at most
# 1,824 density entries (solves verify through their s-polynomials and
# add no entries)
DENSITY_CACHE_SIZE = 4096
VALID_CACHE_SIZE = 1024
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

    # the lru caches hash W on every density and sample call, so hash
    # its Fractions once
    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self):
        return hash((self.blocks, self.cross))

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


@lru_cache(maxsize=VALID_CACHE_SIZE)
def _ensure_valid(W):
    # validate raises on a bad W, and lru_cache keeps no failed call
    validate(W)


def map_sum(T, measures, kinds, cross, zero):
    """The module docstring's sum over block assignments, shared by
    density() and the construction module's chain DP: `measures` may be
    rationals or polynomials, `cross` rationals or plain ints (the
    construction's 0/1 matrix); any number type with .denominator works.

    The DFS assigns vertices in order and multiplies the integers
    den * F[b][c] of the cross edges.  It tries for each vertex only the
    blocks that no earlier vertex rules out by a zero cross factor (a
    bitmask filter, skipped when F has no zero entry) and that keep a
    transitive preimage acyclic.  Each leaf adds its product to the weight
    of its occupancy (p_0, ..., p_{B-1}); an occupancy then contributes
    weight / den^(C(n,2) - sum C(p_b,2)) times the blocks' diagonal
    factors, each computed once per (b, p) used.
    """
    n = T.n
    B = len(measures)
    out = T.out
    den = 1
    for row in cross:
        for f in row:
            den = lcm(den, f.denominator)
    scaled = [[int(f * den) for f in row] for row in cross]
    transitive = [kind == TRANSITIVE_KIND for kind in kinds]
    # an occupancy is coded as the base-(n+1) number with digits p_b
    place = [(n + 1) ** b for b in range(B)]
    # reach[d][c]: the blocks left open to v by an earlier vertex in block
    # c, which beats v (d = 1: F[c][b] != 0) or loses to it (d = 0:
    # F[b][c] != 0); c itself stays open
    reach = [[sum(1 << b for b in range(B) if b == c or scaled[b][c]) for c in range(B)],
             [sum(1 << b for b in range(B) if b == c or scaled[c][b]) for c in range(B)]]
    full = (1 << B) - 1
    sparse = any(mask != full for mask in reach[0])
    assign = [0] * n
    members = [0] * B  # bitmask of each block's preimage
    weights = {}

    def rec(v, acc, code):
        if v == n:
            weights[code] = weights.get(code, 0) + acc
            return
        blocks = full
        if sparse:
            for u in range(v):
                blocks &= reach[out[u] >> v & 1][assign[u]]
        while blocks:
            low = blocks & -blocks
            blocks ^= low
            b = low.bit_length() - 1
            pre = members[b]
            if transitive[b]:
                # an acyclic preimage stays acyclic with v iff none of v's
                # out-neighbours in it beats one of v's in-neighbours
                beaten = out[v] & pre
                beating = pre ^ beaten
                while beaten and beating:
                    w = beaten & -beaten
                    if out[w.bit_length() - 1] & beating:
                        break
                    beaten ^= w
                if beaten and beating:
                    continue
            acc2 = acc
            row = scaled[b]
            for u in range(v):
                bu = assign[u]
                if bu != b:
                    acc2 *= scaled[bu][b] if out[u] >> v & 1 else row[bu]
            assign[v] = b
            members[b] = pre | 1 << v
            rec(v + 1, acc2, code + place[b])
            members[b] = pre

    rec(0, 1, 0)

    factors = {}
    total = zero
    for code, weight in weights.items():
        sizes = []
        for _ in range(B):
            code, p = divmod(code, n + 1)
            sizes.append(p)
        edges = n * (n - 1) // 2 - sum(p * (p - 1) // 2 for p in sizes)
        term = Q(weight, den ** edges)
        for b, p in enumerate(sizes):
            if not p:
                continue
            if (b, p) not in factors:
                if transitive[b]:
                    factors[b, p] = measures[b] ** p / factorial(p)
                else:
                    factors[b, p] = measures[b] ** p * HALF ** (p * (p - 1) // 2)
            term = term * factors[b, p]
        total = total + term
    return total


def density(T, W):
    """Exact density t(T, W)."""
    if T.n > DENSITY_MAX:
        raise BudgetError("density is budgeted to |T| <= %d" % DENSITY_MAX)
    _ensure_valid(W)
    return _canonical_density(canonicalize(T), W)


@lru_cache(maxsize=DENSITY_CACHE_SIZE)
def _canonical_density(C, W):
    measures = [b.measure for b in W.blocks]
    kinds = [b.diagonal for b in W.blocks]
    return map_sum(C, measures, kinds, W.cross, ZERO)


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
    _ensure_valid(W)
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
    except (KeyError, TypeError) as e:
        raise DomainError("malformed tournamenton JSON: %s" % e) from None
    if len(cross) != len(blocks) or any(len(row) != len(blocks) for row in cross):
        raise DomainError("cross matrix shape does not match block count")
    return step_tournamenton(blocks, cross)
