"""Labeled tournaments, canonical forms, and exact enumeration.

A tournament on vertices 0..n-1 orients every pair.  We store it as a tuple
of out-neighbor bitmasks and serialize it as "n:bits" where the bits run
over pairs (i, j) with i < j in lexicographic order and bit 1 means i beats
j.  The canonical form of a tournament is the relabeling whose bit string
is lexicographically largest; on a transitive tournament every bit is 1,
which is the main reason for preferring "largest" over "smallest".

Canonicalization does an individualization-refinement search: vertices are
placed one at a time, each placement splitting the remaining ordered cells
by out/in against the placed vertex (out first).  Position 0 is restricted
to vertices of maximum out-degree, since row 0 of the encoding is exactly
1^d 0^(n-1-d).  For n <= 7 this is instant.

Exact enumeration goes up to n = 7 (456 isomorphism classes); the counts
1, 1, 2, 4, 12, 56, 456 act as a built-in regression check elsewhere.
"""

from functools import lru_cache
from itertools import permutations

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


def _bits_tuple(n, out, order):
    # encoding bits of the relabeling that puts order[p] at position p
    bits = []
    for p in range(n):
        op = out[order[p]]
        for q in range(p + 1, n):
            bits.append(op >> order[q] & 1)
    return tuple(bits)


def relabel(T, perm):
    """Relabel so that old vertex perm[p] becomes new vertex p."""
    if sorted(perm) != list(range(T.n)):
        raise DomainError("perm must be a permutation of 0..%d" % (T.n - 1))
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
    return Tournament(T.n, out)


@lru_cache(maxsize=65536)
def _canonical_order(n, out):
    if n == 1:
        return (0,)
    best = [None, None]  # bits tuple, order

    def place(prefix, cells):
        if not cells:
            bits = _bits_tuple(n, out, prefix)
            if best[0] is None or bits > best[0]:
                best[0] = bits
                best[1] = tuple(prefix)
            return
        first = cells[0]
        for v in first:
            rest = [u for u in first if u != v]
            nxt = []
            for cell in ([rest] if rest else []) + cells[1:]:
                outs = [u for u in cell if out[v] >> u & 1]
                ins = [u for u in cell if not (out[v] >> u & 1)]
                if outs:
                    nxt.append(outs)
                if ins:
                    nxt.append(ins)
            prefix.append(v)
            place(prefix, nxt)
            prefix.pop()

    # row 0 of the encoding is 1^d 0^..., so only max out-degree can win
    scores = [bin(m).count("1") for m in out]
    top = max(scores)
    for v in range(n):
        if scores[v] != top:
            continue
        outs = [u for u in range(n) if out[v] >> u & 1]
        ins = [u for u in range(n) if u != v and not (out[v] >> u & 1)]
        cells = [c for c in (outs, ins) if c]
        place([v], cells)
    return best[1]


def canonicalize(T):
    """The isomorphic copy with lexicographically largest encoding."""
    order = _canonical_order(T.n, T.out)
    return relabel(T, order)


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


class SccDecomposition:
    """Strongly connected components in condensation order.

    parts[k] lists the vertices (ascending) of the k-th component; every
    vertex of parts[k] beats every vertex of parts[k+1], since the
    condensation of a tournament is transitive.
    """

    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = tuple(tuple(p) for p in parts)

    def __repr__(self):
        return "SccDecomposition(%r)" % (self.parts,)


def strongly_connected_components(T):
    n = T.n
    reach = [T.out[i] | (1 << i) for i in range(n)]
    for k in range(n):
        rk = reach[k]
        for i in range(n):
            if reach[i] >> k & 1:
                reach[i] |= rk
    comp = {}
    for i in range(n):
        key = None
        for j in comp:
            if reach[i] >> j & 1 and reach[j] >> i & 1:
                key = j
                break
        comp.setdefault(key if key is not None else i, []).append(i)
    # earlier components reach strictly more, so closure size sorts them
    parts = sorted(comp.values(), key=lambda p: -bin(reach[p[0]]).count("1"))
    return SccDecomposition(parts)


def is_strongly_connected(T):
    return len(strongly_connected_components(T).parts) == 1


def is_transitive(T):
    return sorted(T.out_degree(i) for i in range(T.n)) == list(range(T.n))


def transitive(n):
    """The transitive tournament: vertex i beats all j > i."""
    full = (1 << n) - 1
    return Tournament(n, tuple((full & ~((1 << (i + 1)) - 1)) for i in range(n)))


def automorphism_count(T):
    if T.n > ENUMERATION_MAX:
        raise BudgetError("automorphism_count is budgeted to n <= %d" % ENUMERATION_MAX)
    n = T.n
    if n == 1:
        return 1
    # group vertices by out-degree; automorphisms preserve it
    scores = [T.out_degree(i) for i in range(n)]
    count = 0
    for perm in permutations(range(n)):
        ok = True
        for i in range(n):
            if scores[perm[i]] != scores[i]:
                ok = False
                break
            for j in range(i + 1, n):
                if (T.out[i] >> j & 1) != (T.out[perm[i]] >> perm[j] & 1):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


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
            C = canonicalize(Tournament(n, out))
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
