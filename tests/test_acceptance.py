"""Acceptance suite: the package's exit criteria, one test per item.

Each item times itself against its stated budget and reports one
PASS/FAIL line through the terminal-summary hook in conftest.  Every
tolerance is pinned here; nothing is deferred to later calibration.
"""

import functools
import random
import time
from math import comb, factorial

from conftest import ACCEPTANCE_RESULTS
from oracles import single_transitive

from tourlyn.construction import (
    context,
    jacobian_at,
    jacobian_symbolic,
    random_params,
    unique_full_t_monomial,
)
from tourlyn.construction import build as build_wk
from tourlyn.flagalg import dimension, express, product
from tourlyn.poly import Polynomial, det_rational, s_var, t_var, x_var
from tourlyn.rational import Q
from tourlyn.solver import default_params, probe_ball, solve
from tourlyn.tournamentons import (
    HALF_KIND,
    TRANSITIVE_KIND,
    constant_half,
    density,
    normalization_check,
    random_step_tournamenton,
    sample,
    step_tournamenton,
)
from tourlyn.tournaments import (
    Tournament,
    automorphism_count,
    canonicalize,
    encode,
    enumerate_exact,
    is_strongly_connected,
)
from tourlyn.words import (
    DEFAULT_ORDER,
    LetterOrder,
    cfl_factorize,
    enumerate_lyndon,
    is_lyndon,
    parse_word,
    shuffle,
)


def criterion(number, label, budget_seconds):
    """Record one summary line per item; overtime is a failure too."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            t0 = time.monotonic()
            ok = False
            try:
                fn()
                ok = True
            finally:
                elapsed = time.monotonic() - t0
                verdict = "PASS" if ok and elapsed <= budget_seconds else "FAIL"
                ACCEPTANCE_RESULTS.append(
                    "acceptance %2d (%s): %s (%.1fs)"
                    % (number, label, verdict, elapsed)
                )
            assert elapsed <= budget_seconds, (
                "item %d took %.1fs, budget %ds" % (number, elapsed, budget_seconds)
            )

        return wrapper

    return deco


@criterion(1, "enumeration", 5)
def test_acceptance_enumeration():
    assert [len(enumerate_exact(n)) for n in range(1, 6)] == [1, 1, 2, 4, 12]
    # brute oracle: canonicalize every labeled tournament and count classes
    for n in range(1, 6):
        seen = set()
        for mask in range(2 ** comb(n, 2)):
            out = [0] * n
            bit = 0
            for i in range(n):
                for j in range(i + 1, n):
                    if mask >> bit & 1:
                        out[i] |= 1 << j
                    else:
                        out[j] |= 1 << i
                    bit += 1
            seen.add(canonicalize(Tournament(n, out)))
        assert len(seen) == len(enumerate_exact(n))
        assert seen == set(enumerate_exact(n))
    strong = {n: [T for T in enumerate_exact(n) if is_strongly_connected(T)]
              for n in (3, 4)}
    assert len(strong[3]) == 1 and len(strong[4]) == 1
    sizes = [DEFAULT_ORDER.letter_of(T).size
             for m in (1, 3, 4, 5) for T in DEFAULT_ORDER.letters_of_size(m)]
    assert sizes[:9] == [1, 3, 4, 5, 5, 5, 5, 5, 5]


@criterion(2, "lyndon words", 5)
def test_acceptance_words():
    W = parse_word
    assert is_lyndon(W("ab")) and is_lyndon(W("aab"))
    assert not is_lyndon(W("abaabb"))
    assert cfl_factorize(W("ababaab")) == [W("ab"), W("ab"), W("aab")]
    assert shuffle(W("ab"), W("ac")) == {
        W("aabc"): 2, W("aacb"): 2, W("abac"): 1, W("acab"): 1,
    }

    def naive_lyndon(w):
        r = w.ranks
        return all(r < r[i:] + r[:i] for i in range(1, len(r)))

    def naive_cfl(w):
        # exhaustive search for the unique non-increasing Lyndon factorization
        hits = []

        def rec(start, acc):
            if start == len(w):
                hits.append(list(acc))
                return
            for end in range(start + 1, len(w) + 1):
                f = w[start:end]
                if naive_lyndon(f) and (not acc or acc[-1] >= f):
                    rec(end, acc + [f])

        rec(0, [])
        assert len(hits) == 1
        return hits[0]

    for n in range(1, 11):
        for mask in range(2 ** n):
            w = W("".join("ab"[(mask >> i) & 1] for i in range(n)))
            assert cfl_factorize(w) == naive_cfl(w)


@criterion(3, "dimension", 10)
def test_acceptance_dimension():
    assert dimension(3) == 1
    assert dimension(4) == 3
    assert dimension(5) == 11
    desc = LetterOrder("desc")
    for k in (3, 4, 5):
        assert len(enumerate_lyndon(k, desc)) == dimension(k)


@criterion(4, "density polynomials", 300)
def test_acceptance_density_polynomials():
    rng = random.Random(2024)
    lyndon = enumerate_lyndon(5)
    classes = [T for n in range(1, 6) for T in enumerate_exact(n)]
    for _ in range(25):
        W = random_step_tournamenton(rng)
        point = {x_var(encode(L)): density(L, W) for L in lyndon}
        for T in classes:
            assert express(T).evaluate(point) == density(T, W)


@criterion(5, "product identity", 120)
def test_acceptance_product_identity():
    rng = random.Random(77)
    classes = {n: enumerate_exact(n) for n in range(1, 6)}
    pool = [
        (T1, T2)
        for n1 in range(1, 6)
        for n2 in range(1, 6)
        if n1 + n2 <= 6
        for T1 in classes[n1]
        for T2 in classes[n2]
    ]
    pairs = rng.sample(pool, 50)
    Ws = [random_step_tournamenton(rng) for _ in range(10)]
    for T1, T2 in pairs:
        combo = product(T1, T2)
        for W in Ws:
            lhs = density(T1, W) * density(T2, W)
            assert lhs == sum(c * density(S, W) for S, c in combo.items())


@criterion(6, "normalization", 120)
def test_acceptance_normalization():
    rng = random.Random(99)
    for _ in range(20):
        W = random_step_tournamenton(rng)
        for k in range(1, 6):
            assert normalization_check(k, W) == 1


@criterion(7, "jacobian certification", 120)
def test_acceptance_jacobian():
    ctx3 = context(3)
    want = Polynomial.const(9) * Polynomial.var(s_var(1)) ** 2
    for j in (1, 2, 3):
        want = want * Polynomial.var(t_var(1, j))
    from tourlyn.construction import det_polynomial

    assert det_polynomial(jacobian_symbolic(ctx3)) == want
    ctx4 = context(4)
    rng = random.Random(11)
    for _ in range(5):
        p = random_params(ctx4, rng)
        assert det_rational(jacobian_at(ctx4, p)) != 0
    for ctx in (ctx3, ctx4):
        mono, coeff = unique_full_t_monomial(ctx)
        expected = {}
        for i, n in enumerate(ctx.sizes, start=1):
            expected[s_var(i)] = n - 1
            for j in range(1, n + 1):
                expected[t_var(i, j)] = 1
        assert dict(mono) == expected
        assert coeff != 0


@criterion(8, "newton round trips", 60)
def test_acceptance_solver():
    ctx3 = context(3)
    rep = solve(ctx3, [Q(1, 16)])
    assert rep.converged
    assert abs(rep.s[0] - (9 / 16) ** (1 / 3)) <= 1e-9
    rng = random.Random(404)
    for ctx, draws in ((ctx3, 20), (context(4), 10)):
        for _ in range(draws):
            p = random_params(ctx, rng)
            W = build_wk(ctx, p)
            targets = [density(T, W) for T in ctx.lyndon_seq]
            rep = solve(ctx, targets, t=p.t)
            assert rep.converged, rep.detail
            assert max(v["abs_error"] for v in rep.verification) <= 1e-8


@criterion(9, "solvable neighborhoods", 120)
def test_acceptance_probe():
    for k, eps in ((3, 1e-3), (4, 1e-4)):
        ctx = context(k)
        W = build_wk(ctx, default_params(ctx))
        x0 = [float(density(T, W)) for T in ctx.lyndon_seq]
        out = probe_ball(ctx, x0, eps, samples=50, seed=0)
        statuses = out["per_radius"][0]["statuses"]
        assert out["success_rate"] == 1.0, (
            "k=%d: success rate %.2f at eps=%g (every converged-or-not sample "
            "counted); the rate reaches 1.0 only at radius %s.  Statuses at "
            "eps: %s.  %d of the %d draws at eps are certified unreachable: "
            "they violate 96 t(4:110111)^3 >= t(3:101)^4, so they lie outside "
            "the image of W_4(s, t), which does not show that no tournament "
            "attains them.  %d more are unreachable at the default t: their "
            "t(3:101)^4 / t(4:110111)^3 lies outside the interval of "
            "construction.unreachable_at_t, so no s attains them at that t, "
            "which does not show that no other t does.  No verdict is proved "
            "for the other failures."
            % (k, out["success_rate"], eps, out["best_radius"],
               dict(sorted(statuses.items())), statuses.get("unreachable", 0), out["samples"],
               statuses.get("unreachable-at-t", 0))
        )


@criterion(10, "sampling frequencies", 180)
def test_acceptance_sampling():
    mixed = step_tournamenton(
        [(Q(1, 3), TRANSITIVE_KIND), (Q(2, 3), HALF_KIND)],
        [[0, Q(1, 4)], [Q(3, 4), 0]],
    )
    draws = 10 ** 5
    canon_memo = {}
    for wi, W in enumerate((constant_half(), single_transitive(), mixed)):
        for n in range(1, 5):
            counts = {}
            base = 10 ** 6 * (wi + 1) + 10 ** 4 * n
            for i in range(draws):
                T = sample(W, n, seed=base + i)
                C = canon_memo.get(T)
                if C is None:
                    C = canon_memo.setdefault(T, canonicalize(T))
                counts[C] = counts.get(C, 0) + 1
            for T in enumerate_exact(n):
                p = float(Q(factorial(n), automorphism_count(T)) * density(T, W))
                sigma = (p * (1 - p) / draws) ** 0.5
                freq = counts.get(T, 0) / draws
                assert abs(freq - p) <= 3 * sigma, (
                    "class %s under tournamenton %d at n=%d: frequency %.5f "
                    "vs probability %.5f (3 sigma = %.5f)"
                    % (encode(T), wi, n, freq, p, 3 * sigma)
                )
