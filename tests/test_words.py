"""Word layer: Lyndon words, CFL factorization, shuffles, letter order."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import shuffle_coefficient_sum

from tourlyn.errors import BudgetError, DomainError
from tourlyn.tournaments import enumerate_exact, parse, transitive
from tourlyn.words import (
    DEFAULT_ORDER,
    LetterOrder,
    Word,
    cfl_factorize,
    enumerate_lyndon,
    is_lyndon,
    is_lyndon_tournament,
    lex_compare,
    multi_shuffle,
    parse_word,
    serialize_word,
    shuffle,
    sigma_rank,
    tournament_less,
    tournament_of,
    word_of,
)

W = parse_word


def naive_is_lyndon(w):
    """Rotation characterization: strictly smaller than every proper rotation."""
    r = w.ranks
    return all(r < r[i:] + r[:i] for i in range(1, len(r)))


def all_nonincreasing_lyndon_factorizations(w):
    out = []

    def rec(start, acc):
        if start == len(w):
            out.append(list(acc))
            return
        for end in range(start + 1, len(w) + 1):
            f = w[start:end]
            if not naive_is_lyndon(f):
                continue
            if acc and not acc[-1] >= f:
                continue
            acc.append(f)
            rec(end, acc)
            acc.pop()

    rec(0, [])
    return out


two_letter_words = st.lists(st.sampled_from("ab"), min_size=1, max_size=8).map(
    lambda ls: W("".join(ls))
)


def test_lyndon_examples():
    assert is_lyndon(W("ab"))
    assert is_lyndon(W("aab"))
    assert not is_lyndon(W("abaabb"))
    assert is_lyndon(W("a"))
    assert not is_lyndon(W("aa"))
    assert not is_lyndon(W("ba"))
    assert not is_lyndon(W("abab"))


def test_cfl_golden():
    assert cfl_factorize(W("ababaab")) == [W("ab"), W("ab"), W("aab")]


def test_cfl_against_exhaustive_search():
    # every 2-letter word up to length 10 has exactly one factorization into
    # a non-increasing product of Lyndon words, and Duval finds it
    for n in range(1, 11):
        for mask in range(2 ** n):
            w = W("".join("ab"[(mask >> i) & 1] for i in range(n)))
            facts = all_nonincreasing_lyndon_factorizations(w)
            assert len(facts) == 1
            assert cfl_factorize(w) == facts[0]


@given(two_letter_words)
def test_is_lyndon_matches_rotation_characterization(w):
    assert is_lyndon(w) == naive_is_lyndon(w)


@given(two_letter_words)
def test_cfl_concatenates_back(w):
    parts = cfl_factorize(w)
    glued = parts[0]
    for p in parts[1:]:
        glued = glued + p
    assert glued == w
    assert all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1))


def test_shuffle_golden():
    got = shuffle(W("ab"), W("ac"))
    want = {W("aabc"): 2, W("aacb"): 2, W("abac"): 1, W("acab"): 1}
    assert got == want


@settings(max_examples=40)
@given(two_letter_words, two_letter_words)
def test_shuffle_commutes_and_has_right_mass(u, v):
    if len(u) + len(v) > 10:
        return
    uv = shuffle(u, v)
    assert uv == shuffle(v, u)
    assert sum(uv.values()) == shuffle_coefficient_sum([u, v])
    assert all(len(w) == len(u) + len(v) for w in uv)


def test_multi_shuffle_associates():
    u, v, w = W("ab"), W("a"), W("ba")
    folded = multi_shuffle([u, v, w])
    # fold the other way round
    right = {}
    for mid, c1 in shuffle(v, w).items():
        for out, c2 in shuffle(u, mid).items():
            right[out] = right.get(out, 0) + c1 * c2
    assert folded == right
    assert sum(folded.values()) == shuffle_coefficient_sum([u, v, w])


def test_shuffle_budget():
    long = W("a" * 7)
    with pytest.raises(BudgetError):
        shuffle(long, long)
    with pytest.raises(BudgetError):
        multi_shuffle([long, long])
    with pytest.raises(DomainError):
        multi_shuffle([])


def test_first_nine_letters():
    sizes = []
    names = []
    for rank in range(9):
        for m in (1, 3, 4, 5):
            for T in DEFAULT_ORDER.letters_of_size(m):
                L = DEFAULT_ORDER.letter_of(T)
                if L.rank == rank:
                    sizes.append(L.size)
                    names.append(L.name)
    assert sizes == [1, 3, 4, 5, 5, 5, 5, 5, 5]
    assert names == ["a", "b", "c", "d1", "d2", "d3", "d4", "d5", "d6"]


def test_sigma_rank_small():
    assert sigma_rank(parse("1:")) == 0
    assert sigma_rank(parse("3:101")) == 1
    strong4 = [T for T in enumerate_exact(4) if len(word_of(T)) == 1]
    assert len(strong4) == 1
    assert sigma_rank(strong4[0]) == 2


def test_word_of_tournament_of_round_trip():
    for n in range(1, 6):
        for T in enumerate_exact(n):
            assert tournament_of(word_of(T)) == T


def test_word_of_transitive_is_powers_of_a():
    assert str(word_of(transitive(4))) == "aaaa"
    assert str(word_of(parse("3:101"))) == "b"


def test_enumerate_lyndon_counts():
    assert len(enumerate_lyndon(3)) == 1
    assert len(enumerate_lyndon(4)) == 3
    assert len(enumerate_lyndon(5)) == 11


def test_enumerate_lyndon_is_sorted_decreasing():
    words = [word_of(T) for T in enumerate_lyndon(5)]
    assert all(words[i] > words[i + 1] for i in range(len(words) - 1))
    assert all(is_lyndon(w) for w in words)
    assert all(len(w) >= 2 or w.size >= 3 for w in words)  # non-trivial only


def test_enumerate_lyndon_tie_break_invariant_counts():
    desc = LetterOrder("desc")
    for k in (3, 4, 5):
        assert len(enumerate_lyndon(k, desc)) == len(enumerate_lyndon(k))


def test_enumerate_lyndon_bounds():
    with pytest.raises(DomainError):
        enumerate_lyndon(1)
    with pytest.raises(BudgetError):
        enumerate_lyndon(7)


def test_is_lyndon_tournament_agrees_with_word():
    for T in enumerate_exact(4):
        assert is_lyndon_tournament(T) == is_lyndon(word_of(T))


def test_tournament_less_stages():
    # vertex count first, then component count, then word order
    assert tournament_less(parse("3:101"), transitive(4))
    assert tournament_less(parse("4:110110"), transitive(4)) or tournament_less(
        transitive(4), parse("4:110110")
    )
    strong = [T for T in enumerate_exact(4) if len(word_of(T)) == 1][0]
    assert tournament_less(strong, transitive(4))  # 1 component < 4 components


def test_lex_compare_matches_rich_comparison():
    words = [W(s) for s in ("a", "ab", "aab", "b", "ba", "abab")]
    for u in words:
        for v in words:
            c = lex_compare(u, v)
            assert (c == -1) == (u < v)
            assert (c == 0) == (u == v)
            assert (c == 1) == (u > v)


def test_word_construction_and_slicing():
    w = W("aabba")
    assert len(w) == 5
    assert w.size == 1 + 1 + 3 + 3 + 1
    assert str(w[1:3]) == "ab"
    assert w[0].name == "a"
    with pytest.raises(DomainError):
        Word([])


def test_serialize_parse_round_trip_short_names():
    for text in ("a", "ab", "aacb", "bbc"):
        w = W(text)
        assert serialize_word(w) == text
        assert parse_word(serialize_word(w)) == w


def test_serialize_parse_round_trip_encodings():
    d_letters = DEFAULT_ORDER.letters_of_size(5)
    w = Word([DEFAULT_ORDER.letter_of(d_letters[2]), DEFAULT_ORDER.letter_of(parse("1:"))])
    s = serialize_word(w)
    assert ":" in s  # a 5-vertex letter forces the encoding form
    assert parse_word(s) == w
    assert parse_word("d3a") == w


def test_parse_word_rejections():
    for bad in ("", "z", "a b", "b2", "d", "d0", "d7", "2a"):
        with pytest.raises(DomainError):
            parse_word(bad)


def test_letter_order_rejects_unknown_tie_break():
    with pytest.raises(DomainError):
        LetterOrder("random")


def test_lyndon_counts_factor_the_class_counts():
    # unique factorisation: a tournament is a unique non-increasing product
    # of Lyndon ones, so prod_n (1 - x^n)^(-L_n), with L_1 = 1 for the single
    # vertex, has the class counts as its coefficients
    lyndon = Counter(T.n for T in enumerate_lyndon(6))
    lyndon[1] = 1
    series = [1] + [0] * 6
    for n, count in lyndon.items():
        # one factor 1 / (1 - x^n) at a time
        for _ in range(count):
            for d in range(n, 7):
                series[d] += series[d - n]
    counts = [len(enumerate_exact(n)) for n in range(1, 7)]
    assert series[1:] == counts == [1, 1, 2, 4, 12, 56]
