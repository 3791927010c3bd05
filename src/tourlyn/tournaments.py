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
Siblings share rows 0..p-1, so the largest encoding lies below a sibling
whose row p is largest: the search descends only into the siblings that
tie for the largest row (at the root, the vertices of maximum out-degree),
and drops a node whose rows so far fall below those of the best leaf
found.  Neither rule drops a leaf that ties the largest encoding, so the
search returns the first such leaf in the order of the full tree and
counts all of them; their number is |Aut(T)| (see automorphism_count).

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

    def beats(self, i, j):
        return self.out[i] >> j & 1 == 1

    def out_degree(self, i):
        return bin(self.out[i]).count("1")


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


def relabel(T, perm):
    """Relabel so that old vertex perm[p] becomes new vertex p."""
    if sorted(perm) != list(range(T.n)):
        raise DomainError("perm must be a permutation of 0..%d" % (T.n - 1))
    return Tournament(T.n, _relabeled_out(T, perm))


def _relabeled_out(T, perm):
    pos = [0] * T.n
    for p, v in enumerate(perm):
        pos[v] = p
    out = [0] * T.n
    for v in range(T.n):
        m = T.out[v]
        while m:
            w = (m & -m).bit_length() - 1
            out[pos[v]] |= 1 << pos[w]
            m &= m - 1
    return out


@lru_cache(maxsize=65536)
def _canonical_order(n, out):
    """(order, ties): the first order in search order whose relabeling has
    the largest encoding, and the number of search leaves that reach it."""
    best = []  # rows of the best leaf, as ints
    found = [None, 0]  # its order, and the count of leaves equal to it
    prefix = []
    rows = []

    def place(cells):
        if not cells:
            if rows > best:
                best[:] = rows
                found[0] = tuple(prefix)
                found[1] = 1
            elif rows == best:
                found[1] += 1
            return
        first, rest = cells[0], cells[1:]
        top = -1
        winners = []
        m = first
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            ov = out[v]
            row = 0
            for cell in (first ^ low, *rest):
                size = cell.bit_count()
                wins = (cell & ov).bit_count()
                row = (row << size) | ((1 << wins) - 1) << (size - wins)
            if row > top:
                top = row
                winners = [v]
            elif row == top:
                winners.append(v)
        rows.append(top)
        # a leaf below beats or ties the best only if these rows do
        if rows >= best[:len(rows)]:
            for v in winners:
                ov = out[v]
                nxt = []
                for cell in (first ^ 1 << v, *rest):
                    if cell & ov:
                        nxt.append(cell & ov)
                    if cell & ~ov:
                        nxt.append(cell & ~ov)
                prefix.append(v)
                place(nxt)
                prefix.pop()
        rows.pop()

    place([(1 << n) - 1])
    return tuple(found)


def canonicalize(T):
    """The isomorphic copy with lexicographically largest encoding."""
    order, _ = _canonical_order(T.n, T.out)
    return Tournament._trusted(T.n, _relabeled_out(T, order))


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


def is_transitive(T):
    return sorted(T.out_degree(i) for i in range(T.n)) == list(range(T.n))


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


def random_tournament(rng, n):
    """Uniform over labeled tournaments on n vertices (not over classes)."""
    out = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                out[i] |= 1 << j
            else:
                out[j] |= 1 << i
    return Tournament(n, out)
