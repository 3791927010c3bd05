"""Labeled tournaments, canonical forms, and exact enumeration.

A tournament on vertices 0..n-1 orients every pair.  We store it as a tuple
of out-neighbor bitmasks and serialize it as "n:bits" where the bits run
over pairs (i, j) with i < j in lexicographic order and bit 1 means i beats
j.  The canonical form of a tournament is the relabeling whose bit string
is lexicographically largest; on a transitive tournament every bit is 1,
which is the main reason for preferring "largest" over "smallest".

Canonicalization does an individualization-refinement search: vertices are
placed one at a time from the first remaining cell, each placement
splitting the remaining ordered cells by out/in against the placed vertex
(out first).  Row p of the encoding (the bits of position p against the
later positions) is then fixed as soon as position p is placed: every later
cell is homogeneous against every placed vertex, so row p is 1 for each
vertex of an out-cell and 0 for each vertex of an in-cell, in cell order.
The search packs row p as the placed vertex's win count in each cell, a
few bits a cell.  Two paths whose rows agree so far have cells of the same
sizes (each row fixes the sizes of the next cells), so wherever two packed
rows are compared they order exactly as the bit rows do.  Siblings share
rows 0..p-1, so the largest encoding lies below a sibling whose row p is
largest: the search descends only into the siblings that tie for the
largest row (at the root, the vertices of maximum out-degree).  Against
the best leaf found it compares one packed row per depth, with a flag
saying whether the path so far ties the best leaf's rows or is already
above them, and drops a node whose row falls below the best leaf's while
the path ties.  Once every cell is a singleton the rest of the order is
forced, so the tail is placed in one loop, without branching, its rows
compared the same way.  Neither rule drops a leaf that ties the largest
encoding, so the search counts all of them; their number is |Aut(T)| (see
automorphism_count).

The strong parts are cuts of the score sequence (Landau): the condensation
is transitive, so a part boundary falls after m vertices exactly when those
m beat the other n - m, that is when their scores sum to C(m,2) + m(n - m).
Such m vertices score at least n - m each and the others at most n - m - 1,
so ties in the scores never straddle a cut: sorting by score and cutting
where the prefix sums meet that bound gives the parts in order.

Exact enumeration goes up to n = 7 (456 isomorphism classes); the counts
1, 1, 2, 4, 12, 56, 456 act as a built-in regression check elsewhere.
"""

from functools import lru_cache

from .errors import BudgetError, DomainError

ENUMERATION_MAX = 7


class Tournament:
    """Immutable labeled tournament; out[i] is the bitmask of j with i -> j."""

    __slots__ = ("n", "out", "_hash")

    def __init__(self, n, out):
        out = tuple(out)
        if n < 1:
            raise DomainError("a tournament needs at least one vertex")
        if len(out) != n:
            raise DomainError("expected %d out-masks, got %d" % (n, len(out)))
        full = (1 << n) - 1
        for i, m in enumerate(out):
            if m & ~full:
                raise DomainError("vertex %d has out-neighbors beyond %d vertices" % (i, n))
            if m >> i & 1:
                raise DomainError("vertex %d beats itself" % i)
        for i in range(n):
            for j in range(i + 1, n):
                ij = out[i] >> j & 1
                ji = out[j] >> i & 1
                if ij == ji:
                    raise DomainError(
                        "pair (%d, %d) is %s" % (i, j, "oriented both ways" if ij else "unoriented")
                    )
        self._fill(n, out)

    @classmethod
    def _trusted(cls, n, out):
        """A Tournament on masks built from an already valid tournament
        (a relabeling, a completion of cross edges, a draw), unchecked."""
        T = object.__new__(cls)
        T._fill(n, tuple(out))
        return T

    def _fill(self, n, out):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "out", out)
        object.__setattr__(self, "_hash", hash((n, out)))

    def __setattr__(self, name, value):
        raise AttributeError("Tournament is immutable")

    def __eq__(self, other):
        return isinstance(other, Tournament) and self.n == other.n and self.out == other.out

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Tournament(%r)" % encode(self)


def parse(text):
    """Parse "n:bits" into a labeled Tournament."""
    text = text.strip()
    head, sep, bits = text.partition(":")
    if not sep:
        raise DomainError("missing ':' in tournament encoding %r" % text)
    try:
        n = int(head)
    except ValueError:
        raise DomainError("bad vertex count in %r" % text) from None
    if n < 1:
        raise DomainError("vertex count must be positive in %r" % text)
    want = n * (n - 1) // 2
    if len(bits) != want:
        raise DomainError("encoding %r needs %d bits, has %d" % (text, want, len(bits)))
    if bits.strip("01"):
        raise DomainError("encoding %r has characters outside 0/1" % text)
    out = [0] * n
    pos = 0
    for i in range(n):
        for j in range(i + 1, n):
            if bits[pos] == "1":
                out[i] |= 1 << j
            else:
                out[j] |= 1 << i
            pos += 1
    return Tournament(n, out)


def encode(T):
    """Serialize as "n:bits" (inverse of parse on labeled tournaments)."""
    chunks = []
    for i in range(T.n):
        for j in range(i + 1, T.n):
            chunks.append("1" if T.out[i] >> j & 1 else "0")
    return "%d:%s" % (T.n, "".join(chunks))


def _relabeled_out(out, perm):
    bit = [0] * len(out)  # old vertex -> its new bit
    for p, v in enumerate(perm):
        bit[v] = 1 << p
    new = []
    for v in perm:
        m = out[v]
        mask = 0
        while m:
            low = m & -m
            mask |= bit[low.bit_length() - 1]
            m ^= low
        new.append(mask)
    return new


@lru_cache(maxsize=65536)
def _canonical_order(n, out):
    """(C, ties): the canonical form of the tournament with out-masks `out`,
    as a Tournament, and the number of search leaves that reach it.

    Cached on the labelled tournament, so canonicalizing one seen before
    returns the same C with no search and no relabeling."""
    width = n.bit_length()  # a cell holds at most n - 1 wins
    full = (1 << n) - 1
    best = [0] * n  # packed rows of the best leaf, by depth
    rows = [0] * n  # and of the current path
    prefix = [0] * n
    above = True  # the current path is above the best leaf (none yet)
    order = None
    ties = 0

    def place(cells, d):
        # Every call returns with `above` False: a tail leaves it False or
        # sets it False when its path becomes the best leaf, and a node
        # places at least one winner.  So each winner after the first starts
        # tied with the best leaf through row d, as it should: the earlier
        # siblings' subtrees either made a leaf below this prefix the best
        # or left the best leaf as it was.
        nonlocal above, order, ties
        if len(cells) == n - d:
            # every cell is a singleton: the order is forced, and a row is
            # one bit for each later vertex
            up = above
            for p, cell in enumerate(cells, d):
                prefix[p] = v = cell.bit_length() - 1
                ov = out[v]
                row = 0
                for later in cells[p - d + 1:]:
                    row = row << 1 | (later & ov > 0)
                if not up:
                    if row < best[p]:
                        return
                    up = row > best[p]
                rows[p] = row
            if up:
                best[:] = rows
                order = prefix[:]
                ties = 1
                # the path is now the best leaf
                above = False
            else:
                ties += 1
            return
        top = -1
        m = cells[0]
        while m:
            low = m & -m
            m ^= low
            ov = out[low.bit_length() - 1]
            row = 0
            for cell in cells:
                row = row << width | (cell & ov).bit_count()
            if row > top:
                top = row
                winners = [low]
            elif row == top:
                winners.append(low)
        if not above:
            # a leaf below beats or ties the best only if this row does
            if top < best[d]:
                return
            above = top > best[d]
        rows[d] = top
        for low in winners:
            v = low.bit_length() - 1
            ov = out[v]
            iv = full ^ ov ^ low
            nxt = []
            for cell in cells:
                a = cell & ov
                if a:
                    nxt.append(a)
                b = cell & iv
                if b:
                    nxt.append(b)
            prefix[d] = v
            place(nxt, d + 1)

    place([full], 0)
    return Tournament._trusted(n, _relabeled_out(out, order)), ties


def canonicalize(T):
    """The isomorphic copy with lexicographically largest encoding."""
    return _canonical_order(T.n, T.out)[0]


def is_canonical(T):
    return canonicalize(T) == T


def are_isomorphic(S, T):
    return S.n == T.n and canonicalize(S) == canonicalize(T)


def single_vertex():
    return Tournament(1, (0,))


def induced(T, verts):
    """Induced subtournament on the given vertices, in the order given."""
    verts = list(verts)
    if len(set(verts)) != len(verts):
        raise DomainError("repeated vertex in induced()")
    out = [0] * len(verts)
    for a, v in enumerate(verts):
        for b, w in enumerate(verts):
            if a != b and T.out[v] >> w & 1:
                out[a] |= 1 << b
    return Tournament(len(verts), out)


def direct_sum(parts):
    """Concatenate tournaments; every vertex of an earlier part beats every later one."""
    parts = list(parts)
    if not parts:
        raise DomainError("direct_sum of nothing")
    n = sum(p.n for p in parts)
    out = [0] * n
    base = 0
    for p in parts:
        later = ((1 << n) - 1) & ~((1 << (base + p.n)) - 1)
        for v in range(p.n):
            out[base + v] = (p.out[v] << base) | later
        base += p.n
    return Tournament(n, out)


def strongly_connected_components(T):
    """The strong parts of T in condensation order, a tuple of tuples of
    vertices in ascending order; every vertex of a part beats every vertex
    of each later part.  Cut from the score sequence (module docstring)."""
    n = T.n
    scores = [mask.bit_count() for mask in T.out]
    order = sorted(range(n), key=scores.__getitem__, reverse=True)
    parts, start, total = [], 0, 0
    for m, v in enumerate(order, start=1):
        total += scores[v]
        if total == m * (m - 1) // 2 + m * (n - m):
            parts.append(tuple(sorted(order[start:m])))
            start = m
    return tuple(parts)


def is_strongly_connected(T):
    return len(strongly_connected_components(T)) == 1


def transitive(n):
    """The transitive tournament: vertex i beats all j > i."""
    full = (1 << n) - 1
    return Tournament(n, tuple((full & ~((1 << (i + 1)) - 1)) for i in range(n)))


def automorphism_count(T):
    """|Aut(T)|: the number of canonical-search leaves that reach the
    canonical encoding.

    The orders that map T onto its canonical form are the first one
    composed with each automorphism, so there are |Aut(T)| of them.  Each
    is a leaf, because an automorphism maps the search tree onto itself
    (cells are defined by adjacency to the placed vertices), and pruning
    keeps every leaf that ties the best.
    """
    if T.n > ENUMERATION_MAX:
        raise BudgetError("automorphism_count is budgeted to n <= %d" % ENUMERATION_MAX)
    return _canonical_order(T.n, T.out)[1]


@lru_cache(maxsize=None)
def _reps_up_to(n):
    if n == 1:
        return (single_vertex(),)
    seen = {}
    for R in _reps_up_to(n - 1):
        for mask in range(1 << (n - 1)):
            out = list(R.out) + [mask]
            for j in range(n - 1):
                if not (mask >> j & 1):
                    out[j] |= 1 << (n - 1)
            C = canonicalize(Tournament._trusted(n, out))
            seen[C.out] = C
    return tuple(sorted(seen.values(), key=encode))


def enumerate_exact(n):
    """All isomorphism classes on n vertices, canonical, ascending by encoding."""
    if n < 1:
        raise DomainError("need n >= 1")
    if n > ENUMERATION_MAX:
        raise BudgetError("enumeration is budgeted to n <= %d" % ENUMERATION_MAX)
    return list(_reps_up_to(n))


def to_adjacency(T):
    """JSON-friendly {"n": ..., "edges": [[i, j], ...]} with i -> j edges sorted."""
    edges = []
    for i in range(T.n):
        for j in range(T.n):
            if T.out[i] >> j & 1:
                edges.append([i, j])
    return {"n": T.n, "edges": edges}
