"""Enumeration, canonical forms, and decomposition against brute force.

The canonical form is pinned as the lexicographically largest encoding
over all relabelings, so small cases can be checked by trying every
permutation directly.
"""

import random
from itertools import permutations
from math import factorial

import pytest

from oracles import is_transitive, random_tournament, relabel

from tourlyn.errors import DomainError
from tourlyn.tournaments import (
    Tournament,
    _canonical_order,
    are_isomorphic,
    automorphism_count,
    canonicalize,
    direct_sum,
    encode,
    enumerate_exact,
    induced,
    is_canonical,
    is_strongly_connected,
    parse,
    single_vertex,
    strongly_connected_components,
    to_adjacency,
    transitive,
)

CLASS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 4, 5: 12, 6: 56}
STRONG_COUNTS = {1: 1, 2: 0, 3: 1, 4: 1, 5: 6, 6: 35}


def beats(T, i, j):
    return T.out[i] >> j & 1 == 1


def brute_canonical_encoding(T):
    return max(encode(relabel(T, perm)) for perm in permutations(range(T.n)))


def reaches(T, src):
    seen = {src}
    stack = [src]
    while stack:
        v = stack.pop()
        for w in range(T.n):
            if w not in seen and beats(T, v, w):
                seen.add(w)
                stack.append(w)
    return seen


def brute_strong(T):
    return all(len(reaches(T, v)) == T.n for v in range(T.n))


def test_parse_encode_round_trip():
    for text in ("1:", "2:1", "3:101", "4:111101", "5:1101010101"):
        assert encode(parse(text)) == text


def test_parse_rejects_malformed():
    for text in ("", "3:10", "3:1012", "0:", "3-101", ":101", "3:10a"):
        with pytest.raises(DomainError):
            parse(text)


def test_canonical_is_lex_max_over_relabelings():
    for n in (1, 2, 3, 4):
        for T in enumerate_exact(n):
            rng = random.Random(n)
            for _ in range(6):
                perm = list(range(n))
                rng.shuffle(perm)
                S = relabel(T, perm)
                assert encode(canonicalize(S)) == brute_canonical_encoding(S)


def test_canonical_sample_at_five_vertices():
    rng = random.Random(7)
    for _ in range(12):
        T = random_tournament(rng, 5)
        assert encode(canonicalize(T)) == brute_canonical_encoding(T)


def test_enumerate_class_counts():
    for n, want in CLASS_COUNTS.items():
        assert len(enumerate_exact(n)) == want


def test_enumerate_is_canonical_and_sorted():
    for n in (2, 3, 4, 5):
        classes = enumerate_exact(n)
        assert all(is_canonical(T) for T in classes)
        encs = [encode(T) for T in classes]
        assert encs == sorted(encs)
        assert len(set(encs)) == len(encs)


def test_orbit_sizes_cover_all_labeled_tournaments():
    # sum over classes of n!/|Aut| equals 2^C(n,2)
    fact = [1, 1, 2, 6, 24, 120]
    for n in (1, 2, 3, 4, 5):
        total = sum(fact[n] // automorphism_count(T) for T in enumerate_exact(n))
        assert total == 2 ** (n * (n - 1) // 2)


def test_strong_counts_match_brute_reachability():
    for n, want in STRONG_COUNTS.items():
        if n > 5:
            continue
        strong = [T for T in enumerate_exact(n) if is_strongly_connected(T)]
        assert len(strong) == want
        for T in enumerate_exact(n):
            assert is_strongly_connected(T) == brute_strong(T)


def test_class_counts_decompose_over_strong_sequences():
    """Every class is a unique direct sum of strong classes, so the class
    counting series is the sequence construction over the strong one."""
    t = {n: len(enumerate_exact(n)) for n in range(1, 7)}
    s = {
        n: sum(1 for T in enumerate_exact(n) if is_strongly_connected(T))
        for n in range(1, 7)
    }
    seq = {0: 1}
    for n in range(1, 7):
        seq[n] = sum(s[m] * seq[n - m] for m in range(1, n + 1))
    for n in range(1, 7):
        assert seq[n] == t[n]


def test_seven_vertex_counts():
    classes = enumerate_exact(7)
    assert len(classes) == 456
    assert sum(1 for T in classes if is_strongly_connected(T)) == 353


def test_are_isomorphic_vs_relabeling():
    rng = random.Random(3)
    for _ in range(20):
        T = random_tournament(rng, 5)
        perm = list(range(5))
        rng.shuffle(perm)
        assert are_isomorphic(T, relabel(T, perm))
    a, b = enumerate_exact(3)
    assert not are_isomorphic(a, b)


def test_automorphism_count_by_brute_force():
    for n in (2, 3, 4):
        for T in enumerate_exact(n):
            brute = sum(
                1 for perm in permutations(range(n))
                if encode(relabel(T, perm)) == encode(T)
            )
            assert automorphism_count(T) == brute


def brute_max_bits(T):
    # the largest encoding bit string over all relabelings, read straight
    # off the out-masks (relabel() validates each copy, too slow at n = 7)
    n = T.n
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    return max(
        "".join("1" if T.out[perm[p]] >> perm[q] & 1 else "0" for p, q in pairs)
        for perm in permutations(range(n))
    )


def labelled_tournaments(n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for bits in range(1 << len(pairs)):
        out = [0] * n
        for k, (i, j) in enumerate(pairs):
            if bits >> k & 1:
                out[i] |= 1 << j
            else:
                out[j] |= 1 << i
        yield Tournament(n, out)


def circulant(n, jumps):
    # vertex i beats i + d (mod n) for each d in jumps
    return Tournament(n, [sum(1 << (i + d) % n for d in jumps) for i in range(n)])


def rotational_regular(n):
    # every circulant whose jump set takes one of d, n - d for each d
    half = (n - 1) // 2
    for choice in range(1 << half):
        yield circulant(n, [d if choice >> (d - 1) & 1 else n - d for d in range(1, half + 1)])


def test_canonical_pruned_search_matches_brute_force():
    cases = [T for n in (1, 2, 3, 4) for T in labelled_tournaments(n)]
    rng = random.Random(29)
    for n, count in ((5, 40), (6, 20), (7, 8)):
        cases += [random_tournament(rng, n) for _ in range(count)]
    # the most tied searches: every vertex looks alike, so pruning cuts least
    cases += list(rotational_regular(5)) + list(rotational_regular(7))
    cases.append(circulant(7, (1, 2, 4)))  # the Paley tournament
    for T in cases:
        assert encode(canonicalize(T)) == "%d:%s" % (T.n, brute_max_bits(T))


def parent_canonical_order(n, out):
    """The search before rows were packed and compared per depth, kept
    verbatim as the oracle of the current one: (order, ties)."""
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


def test_canonical_search_matches_the_parent_search():
    # every labelled tournament to n = 5, seeded ones at 6 and 7 and past
    # enumeration at 8 and 9, and the most tied searches
    cases = [T for n in range(1, 6) for T in labelled_tournaments(n)]
    rng = random.Random(41)
    for n, count in ((6, 3000), (7, 3000), (8, 200), (9, 100)):
        cases += [random_tournament(rng, n) for _ in range(count)]
    cases += [T for n in (3, 5, 7, 9) for T in rotational_regular(n)]
    cases.append(circulant(7, (1, 2, 4)))
    for T in cases:
        order, ties = parent_canonical_order(T.n, T.out)
        assert canonicalize(T) == relabel(T, order)
        if T.n <= 7:
            assert automorphism_count(T) == ties
        else:
            assert _canonical_order(T.n, T.out)[1] == ties


def shuffled(T, rng):
    # a relabeled copy, so the search does not start from a canonical form
    perm = list(range(T.n))
    rng.shuffle(perm)
    return relabel(T, perm)


def test_automorphism_count_by_brute_force_up_to_five():
    rng = random.Random(31)
    for n in range(1, 6):
        for T in enumerate_exact(n):
            brute = sum(
                1 for perm in permutations(range(n))
                if all(beats(T, perm[i], perm[j]) == beats(T, i, j)
                       for i in range(n) for j in range(i + 1, n))
            )
            assert automorphism_count(T) == brute
            assert automorphism_count(shuffled(T, rng)) == brute


def test_orbit_sizes_cover_labelled_tournaments_on_six_and_seven():
    assert automorphism_count(circulant(7, (1, 2, 4))) == 21
    rng = random.Random(37)
    for n in (6, 7):
        classes = enumerate_exact(n)
        for copies in (classes, [shuffled(T, rng) for T in classes]):
            total = sum(factorial(n) // automorphism_count(T) for T in copies)
            assert total == 2 ** (n * (n - 1) // 2)


def test_transitive_properties():
    for n in (1, 2, 3, 4, 5):
        T = transitive(n)
        assert is_transitive(T)
        assert is_strongly_connected(T) == (n == 1)
        assert len(strongly_connected_components(T)) == n


def test_direct_sum_condensation_round_trip():
    rng = random.Random(11)
    strong3 = [T for T in enumerate_exact(3) if is_strongly_connected(T)]
    parts = [single_vertex(), strong3[0], single_vertex()]
    T = direct_sum(parts)
    assert T.n == 5
    dec = strongly_connected_components(T)
    assert [len(p) for p in dec] == [1, 3, 1]
    # condensation order: earlier parts beat later parts
    for a, pa in enumerate(dec):
        for pb in dec[a + 1:]:
            for v in pa:
                for w in pb:
                    assert beats(T, v, w)
    # induced components are the summands
    for part, orig in zip(dec, parts):
        assert are_isomorphic(induced(T, part), orig)
    del rng


def near_transitive(rng, n):
    """The transitive tournament with a few random arcs reversed, then
    relabeled at random: many small strong parts, in shuffled labels."""
    out = list(transitive(n).out)
    for _ in range(rng.randrange(n)):
        i, j = sorted(rng.sample(range(n), 2))
        out[i] ^= 1 << j
        out[j] ^= 1 << i
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(Tournament(n, out), perm)


def test_scc_on_random_tournaments_matches_brute_reachability():
    from tourlyn.construction import context

    rng = random.Random(23)
    cases = [random_tournament(rng, n) for n in range(1, 11) for _ in range(12)]
    cases += [near_transitive(rng, n) for n in range(2, 11) for _ in range(12)]
    cases += [context(k).host for k in (3, 4, 5)]
    for T in cases:
        dec = strongly_connected_components(T)
        assert sorted(v for p in dec for v in p) == list(range(T.n))
        assert all(p == tuple(sorted(p)) for p in dec)
        for p in dec:
            assert brute_strong(induced(T, p))
        # each part beats every later part, so no two parts merge
        for a in range(len(dec)):
            for b in range(a + 1, len(dec)):
                for v in dec[a]:
                    for w in dec[b]:
                        assert beats(T, v, w)
    assert max(len(strongly_connected_components(T)) for T in cases) >= 8


def test_induced_respects_vertex_order():
    T = parse("4:111101")
    S = induced(T, (1, 2, 3))
    assert encode(canonicalize(S)) == "3:101"
    with pytest.raises(DomainError):
        induced(T, (0, 0, 1))


def test_to_adjacency_edges_match_beats():
    T = parse("4:110111")
    adj = to_adjacency(T)
    assert adj["n"] == 4
    edges = set(map(tuple, adj["edges"]))
    for i in range(4):
        for j in range(4):
            if i != j:
                assert ((i, j) in edges) == beats(T, i, j)


def test_random_tournament_is_seed_deterministic():
    a = [encode(random_tournament(random.Random(5), 6)) for _ in range(3)]
    b = [encode(random_tournament(random.Random(5), 6)) for _ in range(3)]
    assert a == b


def test_tournament_rejects_bad_structure():
    with pytest.raises(DomainError):
        Tournament(2, [0b10, 0b01])  # oriented both ways
    with pytest.raises(DomainError):
        Tournament(2, [0b00, 0b00])  # unoriented pair
    with pytest.raises(DomainError):
        Tournament(2, [0b11, 0b00])  # self-loop bit
    with pytest.raises(DomainError):
        Tournament(0, [])
