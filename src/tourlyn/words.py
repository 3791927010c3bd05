"""Words over the alphabet of strongly connected tournaments.

The alphabet orders strongly connected tournaments by vertex count; ties at
equal count are broken by ascending canonical encoding.  The tie-break is a
documented free choice (any fixed order works; a reversed tie-break changes
which composite tournaments are Lyndon but not how many).  Rank 0 is the
single vertex ("a"), rank 1 the cyclic triangle ("b"), rank 2 the unique
strongly connected 4-tournament ("c"), ranks 3..8 the six 5-vertex strong
tournaments ("d1".."d6").

A tournament T decomposes uniquely as a direct sum of strongly connected
parts; w(T) is the word listing those parts.  On top of that we have the
usual Lyndon toolkit: lexicographic comparison, the Lyndon property (every
proper suffix strictly larger), Chen-Fox-Lyndon factorization by Duval's
scan, and shuffle products with integer multiplicities.  The three-stage
tournament order (vertex count, then number of components, then lex order
of words) lives here too.
"""

import re
from dataclasses import dataclass

from .errors import BudgetError, DomainError
from .tournaments import (
    ENUMERATION_MAX,
    canonicalize,
    direct_sum,
    encode,
    enumerate_exact,
    induced,
    is_strongly_connected,
    parse,
    strongly_connected_components,
)

_SIZE_PREFIX = {1: "a", 3: "b", 4: "c", 5: "d", 6: "e", 7: "f"}
_PREFIX_SIZE = {v: k for k, v in _SIZE_PREFIX.items()}

SHUFFLE_MAX = 12


@dataclass(frozen=True)
class Letter:
    rank: int
    tournament: object
    name: str

    @property
    def size(self):
        return self.tournament.n


class LetterOrder:
    """The fixed linear order on the alphabet; tie_break 'asc' is the default.

    'desc' reverses the order among equal-size letters only; word_of and
    enumerate_lyndon take it so tests can confirm which results are
    tie-break independent, and everything else reads DEFAULT_ORDER.
    """

    def __init__(self, tie_break="asc"):
        if tie_break not in ("asc", "desc"):
            raise DomainError("tie_break must be 'asc' or 'desc'")
        self.tie_break = tie_break
        self._by_size = {}
        self._rank_of = {}

    def letters_of_size(self, m):
        if m not in self._by_size:
            if m > ENUMERATION_MAX:
                raise BudgetError("alphabet is materialized only up to size %d" % ENUMERATION_MAX)
            strong = [T for T in enumerate_exact(m) if is_strongly_connected(T)]
            if self.tie_break == "desc":
                strong.reverse()
            self._by_size[m] = strong
        return self._by_size[m]

    def letter_of(self, T):
        """The Letter for a strongly connected tournament (any labeling)."""
        C = canonicalize(T)
        if C not in self._rank_of:
            if not is_strongly_connected(C):
                raise DomainError("%s is not strongly connected" % encode(C))
            base = sum(len(self.letters_of_size(m)) for m in range(1, C.n))
            same = self.letters_of_size(C.n)
            idx = same.index(C)
            prefix = _SIZE_PREFIX[C.n]
            name = prefix + (str(idx + 1) if len(same) > 1 else "")
            self._rank_of[C] = Letter(base + idx, C, name)
        return self._rank_of[C]

    def letter_by_name(self, name):
        m = re.fullmatch(r"([a-f])(\d*)", name)
        if not m:
            raise DomainError("bad letter name %r" % name)
        size = _PREFIX_SIZE[m.group(1)]
        same = self.letters_of_size(size)
        if not same:
            raise DomainError("no strongly connected tournament has %d vertices" % size)
        if len(same) == 1:
            if m.group(2):
                raise DomainError("letter %r takes no index" % m.group(1))
            return self.letter_of(same[0])
        if not m.group(2):
            raise DomainError(
                "letter %r is ambiguous: use %s1..%s%d" % (name, m.group(1), m.group(1), len(same))
            )
        idx = int(m.group(2))
        if not 1 <= idx <= len(same):
            raise DomainError("letter index out of range in %r" % name)
        return self.letter_of(same[idx - 1])


DEFAULT_ORDER = LetterOrder()


def sigma_rank(T):
    if T.n > ENUMERATION_MAX:
        raise BudgetError("sigma_rank is budgeted to %d vertices" % ENUMERATION_MAX)
    return DEFAULT_ORDER.letter_of(T).rank


class Word:
    """A non-empty sequence of letters; compared lexicographically by rank."""

    __slots__ = ("letters",)

    def __init__(self, letters):
        letters = tuple(letters)
        if not letters:
            raise DomainError("empty word")
        self.letters = letters

    @property
    def ranks(self):
        return tuple(l.rank for l in self.letters)

    @property
    def size(self):
        return sum(l.size for l in self.letters)

    def __len__(self):
        return len(self.letters)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Word(self.letters[i])
        return self.letters[i]

    def __eq__(self, other):
        return isinstance(other, Word) and self.ranks == other.ranks

    def __hash__(self):
        return hash(self.ranks)

    def __lt__(self, other):
        return self.ranks < other.ranks

    def __le__(self, other):
        return self.ranks <= other.ranks

    def __gt__(self, other):
        return self.ranks > other.ranks

    def __ge__(self, other):
        return self.ranks >= other.ranks

    def __add__(self, other):
        return Word(self.letters + other.letters)

    def __str__(self):
        return "".join(l.name for l in self.letters)

    def __repr__(self):
        return "Word(%s)" % self


def word_of(T, order=DEFAULT_ORDER):
    return Word(order.letter_of(induced(T, p)) for p in strongly_connected_components(T))


def tournament_of(w):
    """Canonical form of the direct sum of the word's letters."""
    return canonicalize(direct_sum([l.tournament for l in w.letters]))


def lex_compare(w1, w2):
    if w1.ranks < w2.ranks:
        return -1
    if w1.ranks > w2.ranks:
        return 1
    return 0


def is_lyndon(w):
    r = w.ranks
    return all(r[i:] > r for i in range(1, len(r)))


def cfl_factorize(w):
    """Chen-Fox-Lyndon factorization into non-increasing Lyndon factors (Duval)."""
    s = w.ranks
    n = len(s)
    out = []
    k = 0
    while k < n:
        i, j = k, k + 1
        while j < n and s[i] <= s[j]:
            i = k if s[i] < s[j] else i + 1
            j += 1
        step = j - i
        while k <= i:
            out.append(w[k : k + step])
            k += step
    return out


def shuffle(w1, w2):
    """All interleavings of w1 and w2 with multiplicities; Σ coeffs = C(n+m, n)."""
    if len(w1) + len(w2) > SHUFFLE_MAX:
        raise BudgetError("shuffle is budgeted to total length %d" % SHUFFLE_MAX)
    a, b = w1.letters, w2.letters
    memo = {}

    def rec(i, j):
        if (i, j) in memo:
            return memo[(i, j)]
        if i == len(a):
            res = {b[j:]: 1}
        elif j == len(b):
            res = {a[i:]: 1}
        else:
            res = {}
            for head, sub in ((a[i], rec(i + 1, j)), (b[j], rec(i, j + 1))):
                for tail, c in sub.items():
                    key = (head,) + tail
                    res[key] = res.get(key, 0) + c
        memo[(i, j)] = res
        return res

    return {Word(k): v for k, v in rec(0, 0).items()}


def multi_shuffle(words):
    """Iterated shuffle of several words; associative, so folding is safe."""
    words = list(words)
    if not words:
        raise DomainError("multi_shuffle of nothing")
    if sum(len(w) for w in words) > SHUFFLE_MAX:
        raise BudgetError("multi_shuffle is budgeted to total length %d" % SHUFFLE_MAX)
    combo = {words[0]: 1}
    for w in words[1:]:
        nxt = {}
        for u, cu in combo.items():
            for v, cv in shuffle(u, w).items():
                nxt[v] = nxt.get(v, 0) + cu * cv
        combo = nxt
    return combo


def tournament_sort_key(T):
    return (T.n, len(strongly_connected_components(T)), word_of(T).ranks)


def tournament_less(S, T):
    """Three-stage order: vertex count, then component count, then word lex order."""
    return tournament_sort_key(S) < tournament_sort_key(T)


def is_lyndon_tournament(T):
    return is_lyndon(word_of(T))


def enumerate_lyndon(k, order=DEFAULT_ORDER):
    """Non-trivial Lyndon tournaments on 2..k vertices, decreasing word order."""
    if k < 2:
        raise DomainError("need k >= 2")
    if k > 6:
        raise BudgetError("enumerate_lyndon is budgeted to k <= 6")
    found = []
    for n in range(2, k + 1):
        for T in enumerate_exact(n):
            w = word_of(T, order)
            if is_lyndon(w):
                found.append((w, T))
    found.sort(key=lambda p: p[0].ranks, reverse=True)
    return [T for _, T in found]


def serialize_word(w):
    """Short names when every letter is one of a, b, c; else letter encodings."""
    if all(l.size <= 4 for l in w.letters):
        return str(w)
    return ",".join(encode(l.tournament) for l in w.letters)


def parse_word(text):
    """Accepts short-name form ("aab", "d3ab") or comma-separated encodings."""
    text = text.strip()
    if not text:
        raise DomainError("empty word")
    if ":" in text:
        letters = []
        for enc in text.split(","):
            T = parse(enc)
            letters.append(DEFAULT_ORDER.letter_of(T))
        return Word(letters)
    pos = 0
    letters = []
    for m in re.finditer(r"([a-f])(\d*)", text):
        if m.start() != pos:
            raise DomainError("cannot parse word %r at position %d" % (text, pos))
        letters.append(DEFAULT_ORDER.letter_by_name(m.group(0)))
        pos = m.end()
    if pos != len(text):
        raise DomainError("cannot parse word %r at position %d" % (text, pos))
    return Word(letters)
