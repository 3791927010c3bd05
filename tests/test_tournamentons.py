"""Step tournamentons: validation, exact densities, sampling, serialization."""

import itertools
import random
from math import comb, factorial

import numpy as np
import pytest

from oracles import ContractMeasure, random_tournament, relabel, single_transitive

from tourlyn import construction
from tourlyn.errors import BudgetError, DomainError
from tourlyn.poly import Polynomial, s_var
from tourlyn.rational import ONE, Q, ZERO
from tourlyn.tournamentons import (
    HALF_KIND,
    TRANSITIVE_KIND,
    constant_half,
    density,
    from_json,
    map_sum,
    normalization_check,
    random_step_tournamenton,
    sample,
    step_tournamenton,
    to_json,
    validate,
)
from tourlyn.tournaments import (
    canonicalize,
    encode,
    enumerate_exact,
    parse,
    transitive,
)

C3 = parse("3:101")


def mc_density(T, W, draws, seed):
    """Continuum Monte Carlo estimate of t(T, W); the independent check on
    the exact block-assignment sum.  Each vertex gets one uniform, whose
    value fixes both its block and its position within the block."""
    rng = np.random.default_rng(seed)
    bounds = np.cumsum([float(b.measure) for b in W.blocks])
    x = rng.random((draws, T.n))
    blk = np.searchsorted(bounds, x, side="right")
    kinds = [b.diagonal for b in W.blocks]
    cross = np.array([[float(c) for c in row] for row in W.cross])
    prod = np.ones(draws)
    for u in range(T.n):
        for v in range(u + 1, T.n):
            win, lose = (u, v) if T.out[u] >> v & 1 else (v, u)
            same = blk[:, win] == blk[:, lose]
            factor = np.empty(draws)
            for b in range(len(W.blocks)):
                here = same & (blk[:, win] == b)
                if kinds[b] == TRANSITIVE_KIND:
                    factor[here] = (x[here, win] < x[here, lose]).astype(float)
                else:
                    factor[here] = 0.5
            diff = ~same
            factor[diff] = cross[blk[diff, win], blk[diff, lose]]
            prod *= factor
    return float(prod.mean())


def brute_force_map_sum(T, measures, kinds, cross, zero):
    """The module docstring's formula evaluated on each of the B**n block
    assignments in turn, with the diagonal factors taken per assignment."""
    total = zero
    for f in itertools.product(range(len(measures)), repeat=T.n):
        term = ONE
        for u, v in itertools.combinations(range(T.n), 2):
            if f[u] != f[v]:
                win, lose = (u, v) if T.out[u] >> v & 1 else (v, u)
                term = term * cross[f[win]][f[lose]]
        for b, m in enumerate(measures):
            pre = [v for v in range(T.n) if f[v] == b]
            p = len(pre)
            if kinds[b] == HALF_KIND:
                term = term * m ** p * Q(1, 2) ** comb(p, 2)
            elif sorted(sum(T.out[u] >> w & 1 for w in pre) for u in pre) == list(range(p)):
                term = term * m ** p / factorial(p)
            else:
                term = term * 0
        total = total + term
    return total


def assignment_table_oracle(T, transitive, opened):
    """What tournamentons._assignment_counts returns for T on the shape
    (transitive, opened), from the definition: every block assignment in
    itertools.product order (vertex 0 slowest, blocks ascending), those
    with a zero cross factor or a cyclic transitive preimage skipped, each
    signature counted where it is first reached.  Returns (occupancy codes,
    counts, one list of numbers per free pair); with free pairs each code
    is followed by its number of signatures and the signatures are
    grouped by occupancy, in the order the occupancies are first reached."""
    n, B = T.n, len(transitive)
    free = [(a, c) for a, c in itertools.combinations(range(B), 2)
            if opened[a] >> c & 1 and opened[c] >> a & 1]
    S = n * n // 4 + 1
    edges = [(u, v) for u in range(n) for v in range(n) if T.out[u] >> v & 1]
    tally = {}  # (occupancy code, the free pairs' numbers) -> count
    for f in itertools.product(range(B), repeat=n):
        if any(not opened[f[u]] >> f[v] & 1 for u, v in edges):
            continue
        preimages = [[v for v in range(n) if f[v] == b] for b in range(B)]
        if any(transitive[b] and sorted(sum(T.out[u] >> w & 1 for w in pre) for u in pre)
               != list(range(len(pre))) for b, pre in enumerate(preimages)):
            continue
        code = sum(len(pre) * (n + 1) ** b for b, pre in enumerate(preimages))
        numbers = tuple(S * sum(f[u] == a and f[v] == c for u, v in edges)
                        + sum(f[u] == c and f[v] == a for u, v in edges) for a, c in free)
        tally[code, numbers] = tally.get((code, numbers), 0) + 1
    if not free:
        return [code for code, _ in tally], list(tally.values()), []
    groups = {}
    for code, numbers in tally:
        groups.setdefault(code, []).append((code, numbers))
    codes = [x for code, rows in groups.items() for x in (code, len(rows))]
    rows = [row for group in groups.values() for row in group]
    return codes, [tally[row] for row in rows], [[numbers[j] for _, numbers in rows]
                                                  for j in range(len(free))]


def refine(W):
    """Split every block in half; densities must not move.  A lower
    transitive half-block beats the upper one outright, a half block
    splits into two halves joined by a fair coin."""
    blocks = []
    cross_of = []  # index of each sub-block's parent
    for i, b in enumerate(W.blocks):
        blocks.append((b.measure / 2, b.diagonal))
        blocks.append((b.measure / 2, b.diagonal))
        cross_of += [i, i]
    B = len(blocks)
    cross = [[ZERO] * B for _ in range(B)]
    for a in range(B):
        for c in range(B):
            if a == c:
                continue
            pa, pc = cross_of[a], cross_of[c]
            if pa != pc:
                cross[a][c] = W.cross[pa][pc]
            elif W.blocks[pa].diagonal == TRANSITIVE_KIND:
                cross[a][c] = ONE if a < c else ZERO
            else:
                cross[a][c] = Q(1, 2)
    return step_tournamenton(blocks, cross)


def test_validate_accepts_the_stock_kernels():
    validate(constant_half())
    validate(single_transitive())


def test_validate_rejections():
    bad_sum = step_tournamenton([(Q(1, 2), HALF_KIND), (Q(1, 4), HALF_KIND)], [[0, Q(1, 2)], [Q(1, 2), 0]])
    with pytest.raises(DomainError, match="sum"):
        validate(bad_sum)
    asym = step_tournamenton([(Q(1, 2), HALF_KIND), (Q(1, 2), HALF_KIND)], [[0, Q(1, 2)], [Q(1, 3), 0]])
    with pytest.raises(DomainError, match="not 1"):
        validate(asym)
    bad_kind = step_tournamenton([(1, "random")], [[0]])
    with pytest.raises(DomainError, match="diagonal"):
        validate(bad_kind)
    out_of_range = step_tournamenton([(Q(1, 2), HALF_KIND), (Q(1, 2), HALF_KIND)], [[0, 2], [-1, 0]])
    with pytest.raises(DomainError, match="outside"):
        validate(out_of_range)


def test_validate_collects_every_violation():
    W = step_tournamenton([(2, "weird")], [[0]])
    try:
        validate(W)
    except DomainError as e:
        msg = str(e)
        assert "diagonal" in msg and "outside" in msg and "sum" in msg
    else:
        raise AssertionError("expected a DomainError")


def test_density_anchor_values():
    assert density(C3, constant_half()) == Q(1, 8)
    assert density(transitive(2), constant_half()) == Q(1, 2)
    assert density(C3, single_transitive()) == 0
    assert density(transitive(4), single_transitive()) == Q(1, 24)
    assert density(parse("1:"), random_step_tournamenton(random.Random(1))) == 1


def test_density_on_constant_half_is_uniform():
    for n in range(1, 5):
        for T in enumerate_exact(n):
            assert density(T, constant_half()) == Q(1, 2 ** comb(n, 2))


def test_density_on_transitive_kernel():
    for n in range(1, 6):
        assert density(transitive(n), single_transitive()) == Q(1, factorial(n))
    for T in enumerate_exact(4):
        if T != transitive(4):
            assert density(T, single_transitive()) == 0


def test_density_is_isomorphism_invariant():
    rng = random.Random(7)
    W = random_step_tournamenton(rng)
    for _ in range(8):
        T = random_tournament(rng, 4)
        perm = list(range(4))
        rng.shuffle(perm)
        assert density(T, W) == density(relabel(T, perm), W)


def test_density_budget():
    with pytest.raises(BudgetError):
        density(transitive(7), constant_half())


def test_density_caches_live_on_each_tournamenton(monkeypatch):
    # each two-block W is fresh; what density, sample and validation keep of
    # it must go with it, so memory stays bounded however many Ws pass by
    import gc
    import weakref

    from tourlyn import tournamentons

    cross = [[0, Q(1, 3)], [Q(2, 3), 0]]
    refs = []
    for i in range(3000):
        m = Q(1, i + 3)
        W = step_tournamenton([(m, HALF_KIND), (1 - m, TRANSITIVE_KIND)], cross)
        density(C3, W)
        density(transitive(4), W)
        sample(W, 4, seed=i)
        refs.append(weakref.ref(W))
        refs += map(weakref.ref, W._host_tables.values())
    assert len(refs) == 9000
    del W
    gc.collect()
    assert sum(ref() is not None for ref in refs) == 0

    # a repeated density on one W, under any labelling, is equal and reads
    # the host tables of its size made at the first
    built = []
    host_tables = tournamentons._HostTables

    def counted(n, *args):
        built.append(n)
        return host_tables(n, *args)

    monkeypatch.setattr(tournamentons, "_HostTables", counted)
    W = random_step_tournamenton(random.Random(11))
    first = density(C3, W)
    assert density(C3, W) == density(parse("3:010"), W) == first
    assert built == [3]

    # a failed validation is not kept: every call raises again, and builds
    # no tables
    bad = step_tournamenton([(Q(1, 2), HALF_KIND), (Q(1, 4), HALF_KIND)],
                            [[0, Q(1, 2)], [Q(1, 2), 0]])
    for seed in range(3):
        with pytest.raises(DomainError, match="sum"):
            density(C3, bad)
        with pytest.raises(DomainError, match="sum"):
            sample(bad, 3, seed=seed)
    assert built == [3]


def test_map_sum_and_the_chain_dp_need_only_the_ring_contract():
    # measures that define only the contract's operations give the
    # rationals' values: map_sum on hosts mixing half and transitive blocks
    # with 0, 1 and fractional cross entries, and the chain DP at a seeded
    # W_4 point
    rng = random.Random(29)
    entries = [ZERO, ONE, Q(1, 97), Q(1, 2), Q(5, 12)]
    for trial in range(6):
        B = rng.randint(1, 4)
        measures = [Q(rng.randint(1, 9), 40) for _ in range(B)]
        kinds = [rng.choice((HALF_KIND, TRANSITIVE_KIND)) for _ in range(B)]
        cross = [[ZERO] * B for _ in range(B)]
        for i, j in itertools.combinations(range(B), 2):
            cross[i][j] = rng.choice(entries)
            cross[j][i] = 1 - cross[i][j]
        wrapped = list(map(ContractMeasure, measures))
        for T in [random_tournament(rng, rng.randint(1, 5)) for _ in range(4)]:
            got = map_sum(T, wrapped, kinds, cross, ContractMeasure(0))
            assert got.value == map_sum(T, measures, kinds, cross, ZERO)
    ctx = construction.context(4)
    p = construction.random_params(ctx, random.Random(43))
    measures = [p.s[i - 1] * p.t[i - 1][j - 1] for i, j in ctx.cells]
    wrapped = list(map(ContractMeasure, measures))
    for i in range(1, ctx.ell + 1):
        got = construction._chain_density(
            ctx, i, wrapped, ContractMeasure(1), ContractMeasure(0))
        assert got.value == construction._chain_density(ctx, i, measures, ONE, ZERO)
    # the measure refuses what the contract leaves out
    x = ContractMeasure(Q(1, 3))
    for outside in (lambda: 2 * x, lambda: x + 1, lambda: x - x, lambda: x < x,
                    lambda: bool(x), lambda: x ** 0, lambda: x / x, lambda: x == ZERO):
        with pytest.raises(TypeError):
            outside()


def test_map_sum_equals_the_per_assignment_formula():
    # 0 and 1 cross entries prune and pass through the walk; the coprime
    # denominators 97 and 101 make the common denominator of the integer
    # walk larger than any one entry's
    rng = random.Random(23)
    entries = [ZERO, ONE, Q(1, 97), Q(2, 101), Q(1, 2), Q(5, 12)]
    for trial in range(10):
        B = rng.randint(1, 4)
        weights = [rng.randint(1, 9) for _ in range(B)]
        blocks = [(Q(w, sum(weights)), HALF_KIND if b % 2 == trial % 2 else TRANSITIVE_KIND)
                  for b, w in enumerate(weights)]
        cross = [[ZERO] * B for _ in range(B)]
        for i, j in itertools.combinations(range(B), 2):
            cross[i][j] = rng.choice(entries)
            cross[j][i] = 1 - cross[i][j]
        W = step_tournamenton(blocks, cross)
        validate(W)
        measures = [blk.measure for blk in W.blocks]
        kinds = [blk.diagonal for blk in W.blocks]
        for T in [random_tournament(rng, rng.randint(1, 5)) for _ in range(6)]:
            assert map_sum(T, measures, kinds, W.cross, ZERO) == \
                brute_force_map_sum(T, measures, kinds, W.cross, ZERO)
    # measures over the coprime 97 and 101, so density walks on integers
    # over their lcm M and divides by M^n; map_sum on integers a_b is M^n
    # times map_sum on a_b / M; every cross entry strictly inside (0, 1)
    for trial in range(4):
        B = 2 + trial % 3
        measures = [Q(rng.randint(1, 30), 97 if b % 2 else 101) for b in range(B - 1)]
        measures.append(1 - sum(measures))
        blocks = [(m, HALF_KIND if b % 2 == trial % 2 else TRANSITIVE_KIND)
                  for b, m in enumerate(measures)]
        cross = [[ZERO] * B for _ in range(B)]
        for i, j in itertools.combinations(range(B), 2):
            den = rng.choice((101, 97, 12))
            cross[i][j] = Q(rng.randint(1, den - 1), den)
            cross[j][i] = 1 - cross[i][j]
        W = step_tournamenton(blocks, cross)
        validate(W)
        kinds = [blk.diagonal for blk in W.blocks]
        M = 97 * 101
        integers = [int(m * M) for m in measures]
        for n in range(1, 7):
            T = random_tournament(rng, n)
            assert density(T, W) == brute_force_map_sum(T, measures, kinds, W.cross, ZERO)
            assert map_sum(T, integers, kinds, W.cross, ZERO) == \
                M ** n * map_sum(T, [Q(a, M) for a in integers], kinds, W.cross, ZERO)


def test_map_sum_with_polynomial_measures_and_an_int_cross_matrix():
    rng = random.Random(31)
    for B in (2, 3, 4):
        host = random_tournament(rng, B)
        cross = [[host.out[i] >> j & 1 for j in range(B)] for i in range(B)]
        measures = [Polynomial.var(s_var(b)) for b in range(B)]
        kinds = [rng.choice((HALF_KIND, TRANSITIVE_KIND)) for _ in range(B)]
        for n in range(1, 5):
            for T in enumerate_exact(n):
                got = map_sum(T, measures, kinds, cross, Polynomial.zero())
                want = brute_force_map_sum(T, measures, kinds, cross, Polynomial.zero())
                assert got.terms == want.terms


def test_a_table_serves_every_w_of_its_shape():
    # the assignment counts depend on T, the block kinds and where the
    # cross matrix is zero, not on W's numbers: a second W of that shape
    # reads the first one's table, and a W differing in one kind or in one
    # zero entry gets its own; every density is the per-assignment formula
    from tourlyn import tournamentons

    counts = tournamentons._assignment_counts
    T = parse("5:1110111111")
    kinds = [HALF_KIND, TRANSITIVE_KIND, TRANSITIVE_KIND]

    def density_is_the_formula(measures, kinds, cross):
        W = step_tournamenton(zip(measures, kinds), cross)
        assert density(T, W) == brute_force_map_sum(T, measures, kinds, W.cross, ZERO)

    counts.cache_clear()
    density_is_the_formula([Q(1, 6), Q(1, 3), Q(1, 2)], kinds,
                           [[0, Q(1, 3), Q(2, 7)], [Q(2, 3), 0, Q(5, 8)], [Q(5, 7), Q(3, 8), 0]])
    assert counts.cache_info()[:2] == (0, 1)
    density_is_the_formula([Q(2, 5), Q(1, 5), Q(2, 5)], kinds,
                           [[0, Q(4, 9), Q(1, 11)], [Q(5, 9), 0, Q(1, 2)], [Q(10, 11), Q(1, 2), 0]])
    assert counts.cache_info()[:2] == (1, 1)
    density_is_the_formula([Q(2, 5), Q(1, 5), Q(2, 5)], [HALF_KIND] * 3,
                           [[0, Q(4, 9), Q(1, 11)], [Q(5, 9), 0, Q(1, 2)], [Q(10, 11), Q(1, 2), 0]])
    assert counts.cache_info()[:2] == (1, 2)
    density_is_the_formula([Q(2, 5), Q(1, 5), Q(2, 5)], kinds,
                           [[0, ONE, Q(1, 11)], [ZERO, 0, Q(1, 2)], [Q(10, 11), Q(1, 2), 0]])
    assert counts.cache_info()[:2] == (1, 3)


def test_polynomial_measures_read_a_table_made_at_rational_ones():
    from tourlyn import tournamentons

    counts = tournamentons._assignment_counts
    rng = random.Random(37)
    for B in (2, 3, 4):
        host = random_tournament(rng, B)
        cross = [[host.out[i] >> j & 1 for j in range(B)] for i in range(B)]
        kinds = [rng.choice((HALF_KIND, TRANSITIVE_KIND)) for _ in range(B)]
        measures = [Polynomial.var(s_var(b)) for b in range(B)]
        for T in enumerate_exact(4):
            map_sum(T, [Q(1, B)] * B, kinds, cross, ZERO)
            hits = counts.cache_info().hits
            got = map_sum(T, measures, kinds, cross, Polynomial.zero())
            assert counts.cache_info().hits == hits + 1
            assert got.terms == brute_force_map_sum(T, measures, kinds, cross, Polynomial.zero()).terms


def flag_host(rng, B):
    """The (measure, kind) pairs and cross matrix of a B-block host with
    both kinds and every cross entry strictly between 0 and 1, so every
    pair of blocks is free."""
    kinds = [HALF_KIND, TRANSITIVE_KIND] + [rng.choice((HALF_KIND, TRANSITIVE_KIND))
                                            for _ in range(B - 2)]
    rng.shuffle(kinds)
    weights = [rng.randint(1, 8) for _ in kinds]
    cross = [[ZERO] * B for _ in range(B)]
    for i, j in itertools.combinations(range(B), 2):
        den = rng.randint(2, 12)
        cross[i][j] = Q(rng.randint(1, den - 1), den)
        cross[j][i] = 1 - cross[i][j]
    return [(Q(w, sum(weights)), kind) for w, kind in zip(weights, kinds)], cross


def test_host_tables_serve_every_class_of_their_size_in_any_order():
    # density keeps one set of host tables per class size on W, made by
    # whichever class of that size comes first: all classes up to 6 taken
    # in ascending, descending and shuffled order, each on a fresh copy of
    # W, give equal densities, and a sample of them is the per-assignment
    # formula
    rng = random.Random(41)
    classes = [T for n in range(1, 7) for T in enumerate_exact(n)]
    for B in (3, 4, 3):
        blocks, cross = flag_host(rng, B)
        results = []
        for order in (classes, classes[::-1], rng.sample(classes, len(classes))):
            W = step_tournamenton(blocks, cross)
            results.append({T: density(T, W) for T in order})
        assert results[0] == results[1] == results[2]
        measures = [m for m, _ in blocks]
        kinds = [kind for _, kind in blocks]
        for T in rng.sample(classes, 4) + [random_tournament(rng, 6)]:
            assert results[0][canonicalize(T)] == brute_force_map_sum(T, measures, kinds, cross, ZERO)


def test_host_tables_of_one_size_leave_the_next_size_alone():
    # a 5-vertex class and then a 6-vertex one on one W equal the same
    # classes on fresh copies of W
    rng = random.Random(43)
    for _ in range(3):
        blocks, cross = flag_host(rng, 3)
        T5, T6 = rng.choice(enumerate_exact(5)), rng.choice(enumerate_exact(6))
        W = step_tournamenton(blocks, cross)
        assert [density(T5, W), density(T6, W)] == [
            density(T, step_tournamenton(blocks, cross)) for T in (T5, T6)]


def test_assignment_tables_are_the_oracle_table():
    # the walk's table is the per-assignment oracle's: the same occupancy
    # codes in the same first-reach order, the same rows per occupancy and
    # counts, and each free pair's numbers in its own column; on the W_k
    # host parts, a 12-block W_4 build, hosts mixing fixed and free pairs,
    # and 3-block hosts where every pair is free, with both block kinds
    from tourlyn import tournamentons
    from tourlyn.construction import build, context, random_params

    def opened_of(cross):
        return tuple(sum(1 << c for c, f in enumerate(row) if f or c == b)
                     for b, row in enumerate(cross))

    def agrees(T, transitive, opened):
        occupancies, counts, numbers = tournamentons._assignment_counts(T, transitive, opened)
        got = list(occupancies), list(counts), [list(column) for column in numbers]
        assert got == assignment_table_oracle(T, transitive, opened)

    rng = random.Random(53)
    for k in (3, 4, 5):
        ctx = context(k)
        for H, cross in ctx.parts:
            for runs in ctx.runs:
                for T in runs.values():
                    agrees(T, (True,) * len(H), opened_of(cross))
    ctx = context(4)
    W = build(ctx, random_params(ctx, rng))
    assert len(W.blocks) == 12
    for T in ctx.lyndon_seq + (random_tournament(rng, 4),):
        agrees(T, tuple(b.diagonal == TRANSITIVE_KIND for b in W.blocks), opened_of(W.cross))
    for n in range(1, 7):
        for B in (3, 4):
            transitive = tuple(rng.random() < 0.5 for _ in range(B))
            cross = [[0] * B for _ in range(B)]
            for a, c in itertools.combinations(range(B), 2):
                cross[a][c], cross[c][a] = rng.choice([(1, 0), (0, 1), (Q(1, 3), Q(2, 3))])
            agrees(random_tournament(rng, n), transitive, opened_of(cross))
        for transitive in ((True, False, True), (False, False, False), (True, True, True)):
            for T in rng.sample(enumerate_exact(n), min(4, len(enumerate_exact(n)))):
                agrees(T, transitive, (7, 7, 7))


def test_map_sum_on_eight_vertices_reads_sixteen_bit_numbers():
    # from 8 vertices on, S = n^2 // 4 + 1 = 17 and a free pair's number
    # e * S + g can pass 255, so the numbers are kept in 16-bit columns:
    # map_sum on hosts with a free pair is still the per-assignment formula
    from tourlyn import tournamentons

    rng = random.Random(67)
    tours = [transitive(8), random_tournament(rng, 8), random_tournament(rng, 8)]
    hosts = [
        ([Q(1, 3), Q(2, 3)], [HALF_KIND, TRANSITIVE_KIND], [[0, Q(2, 5)], [Q(3, 5), 0]]),
        ([Q(1, 2), Q(1, 2)], [HALF_KIND, HALF_KIND], [[0, Q(1, 7)], [Q(6, 7), 0]]),
    ]
    widest = 0
    for measures, kinds, cross in hosts:
        transitive_flags = tuple(kind == TRANSITIVE_KIND for kind in kinds)
        opened = tuple(sum(1 << c for c, f in enumerate(row) if f or c == b)
                       for b, row in enumerate(cross))
        for T in tours:
            assert map_sum(T, measures, kinds, cross, ZERO) == \
                brute_force_map_sum(T, measures, kinds, cross, ZERO)
            numbers = tournamentons._assignment_counts(T, transitive_flags, opened)[2]
            assert numbers and all(column.typecode == "H" for column in numbers)
            widest = max([widest] + [max(column) for column in numbers])
    assert widest > 255


def test_normalization():
    rng = random.Random(11)
    for _ in range(4):
        W = random_step_tournamenton(rng)
        for k in range(1, 5):
            assert normalization_check(k, W) == 1
    assert normalization_check(5, random_step_tournamenton(rng)) == 1
    # k = 6 reads every six-vertex class from one set of host tables
    assert normalization_check(6, step_tournamenton(*flag_host(random.Random(6), 4))) == 1
    with pytest.raises(BudgetError):
        normalization_check(7, constant_half())


def test_density_against_monte_carlo():
    rng = random.Random(19)
    Ws = [constant_half(), single_transitive(), random_step_tournamenton(rng)]
    targets = [C3, transitive(3), parse("4:110110")]
    for i, W in enumerate(Ws):
        for j, T in enumerate(targets):
            est = mc_density(T, W, 200_000, seed=100 + 10 * i + j)
            assert abs(est - float(density(T, W))) < 5e-3


def test_refinement_leaves_densities_alone():
    rng = random.Random(13)
    for _ in range(3):
        W = random_step_tournamenton(rng, max_blocks=3)
        W2 = refine(W)
        validate(W2)
        for n in range(1, 5):
            for T in enumerate_exact(n):
                assert density(T, W2) == density(T, W)


def test_sample_is_deterministic_and_valid():
    W = random_step_tournamenton(random.Random(3))
    a = sample(W, 5, seed=42)
    b = sample(W, 5, seed=42)
    assert a.n == 5 and a == b
    with pytest.raises(DomainError):
        sample(W, 0, seed=1)


def test_sample_from_transitive_kernel_is_transitive():
    from tourlyn.tournaments import canonicalize

    W = single_transitive()
    for s in range(20):
        assert canonicalize(sample(W, 5, seed=s)) == transitive(5)


def test_sample_frequencies_match_density():
    # P(sample at n=3 is a 3-cycle) = (3!/|Aut C3|) t(C3, W) = 2 t(C3, W)
    from tourlyn.tournaments import is_strongly_connected

    W = constant_half()
    draws = 4000
    hits = sum(is_strongly_connected(sample(W, 3, seed=s)) for s in range(draws))
    p = 2 * float(density(C3, W))
    sigma = (p * (1 - p) / draws) ** 0.5
    assert abs(hits / draws - p) < 4 * sigma


def test_json_round_trip():
    rng = random.Random(29)
    for _ in range(5):
        W = random_step_tournamenton(rng)
        assert from_json(to_json(W)) == W
    data = to_json(constant_half())
    assert data == {"blocks": [{"measure": "1/1", "diagonal": "half"}], "cross": [["0/1"]]}


def test_from_json_rejections():
    with pytest.raises(DomainError):
        from_json({"blocks": []})
    with pytest.raises(DomainError):
        from_json({"blocks": [{"measure": "1/1", "diagonal": "half"}], "cross": []})
    with pytest.raises(DomainError):
        from_json({"blocks": [{"measure": "1/1"}], "cross": [["0/1"]]})
    # a cross entry that is not a matrix, and a JSON array for the whole
    for data in ({"blocks": [{"measure": "1/1", "diagonal": "half"}], "cross": 5},
                 {"blocks": [{"measure": "1/1", "diagonal": "half"}], "cross": [5]},
                 [1, 2]):
        with pytest.raises(DomainError, match="malformed"):
            from_json(data)


def test_step_tournamenton_zeroes_the_diagonal():
    W = step_tournamenton([(Q(1, 2), HALF_KIND), (Q(1, 2), HALF_KIND)], [[7, Q(1, 3)], [Q(2, 3), 7]])
    assert W.cross[0][0] == 0 and W.cross[1][1] == 0
    validate(W)


def test_step_tournamenton_refuses_a_cross_matrix_of_another_shape():
    two = [(Q(1, 2), HALF_KIND), (Q(1, 2), TRANSITIVE_KIND)]
    one = [(1, HALF_KIND)]
    for blocks, cross in ((two, [[0]]), (two, [[0, Q(1, 2)]]), (one, [[0, 1], [0, 0]]), (one, 5)):
        with pytest.raises(DomainError, match="malformed cross matrix"):
            step_tournamenton(blocks, cross)


def test_sample_draws_are_pinned():
    # draws from a 3-block W with both diagonal kinds and rational cross
    # entries, recorded when sample still converted W on every draw
    W = step_tournamenton(
        [(Q(1, 5), TRANSITIVE_KIND), (Q(1, 2), HALF_KIND), (Q(3, 10), TRANSITIVE_KIND)],
        [[0, Q(1, 3), Q(2, 7)], [Q(2, 3), 0, Q(5, 8)], [Q(5, 7), Q(3, 8), 0]],
    )
    assert [encode(sample(W, 6, seed=s)) for s in (0, 1, 2, 3, 7, 11)] == [
        "6:100001000010010", "6:010001001111011", "6:100000001110110",
        "6:011100100101110", "6:101110110101000", "6:100100101101101",
    ]
