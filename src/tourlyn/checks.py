"""Self-contained verification suites.

Each check recomputes a fact the rest of the package depends on and
compares against an independently known value: enumeration counts against
the literature, densities against the constant-half closed form, the
solver against the one case with a pencil-and-paper answer, and so on.
The fast level stays at k <= 4 and full adds the k = 5 material; both
run in seconds.
"""

import random
import time

from .errors import BudgetError
from .flagalg import dimension, express, product
from .poly import Polynomial, s_var, t_var, x_var
from .rational import ONE, Q, ZERO
from .construction import (
    build,
    certify_det_nonzero,
    context,
    jacobian_symbolic,
    random_params,
    unique_full_t_monomial,
)
from .solver import solve
from .tournaments import (
    encode,
    enumerate_exact,
    is_strongly_connected,
    parse,
    transitive,
)
from .tournamentons import (
    constant_half,
    density,
    normalization_check,
    random_step_tournamenton,
)
from .words import (
    DEFAULT_ORDER,
    cfl_factorize,
    enumerate_lyndon,
    is_lyndon,
    parse_word,
    serialize_word,
    shuffle,
)

CLASS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 4, 5: 12}
STRONG_COUNTS = {1: 1, 2: 0, 3: 1, 4: 1, 5: 6}
DIMENSIONS = {3: 1, 4: 3, 5: 11}


def _check_enumeration():
    for n, want in CLASS_COUNTS.items():
        got = len(enumerate_exact(n))
        if got != want:
            return False, "%d classes on %d vertices, expected %d" % (got, n, want)
    for n, want in STRONG_COUNTS.items():
        got = sum(1 for T in enumerate_exact(n) if is_strongly_connected(T))
        if got != want:
            return False, "%d strong classes on %d vertices, expected %d" % (got, n, want)
    sizes = [l.size for l in (DEFAULT_ORDER.letter_of(T)
                              for m in (1, 3, 4, 5)
                              for T in DEFAULT_ORDER.letters_of_size(m))][:9]
    if sizes != [1, 3, 4, 5, 5, 5, 5, 5, 5]:
        return False, "first nine letter sizes %s" % sizes
    return True, "counts 1,1,2,4,12; strong 1,0,1,1,6; letter sizes ok"


def _check_words():
    for text, want in (("ab", True), ("aab", True), ("abaabb", False)):
        if is_lyndon(parse_word(text)) is not want:
            return False, "lyndon(%s) != %s" % (text, want)
    factors = [serialize_word(f) for f in cfl_factorize(parse_word("ababaab"))]
    if factors != ["ab", "ab", "aab"]:
        return False, "cfl(ababaab) = %s" % factors
    combo = shuffle(parse_word("ab"), parse_word("ac"))
    got = {serialize_word(w): c for w, c in combo.items()}
    if got != {"aabc": 2, "aacb": 2, "abac": 1, "acab": 1}:
        return False, "ab shuffle ac = %s" % got
    return True, "lyndon flags, factorization, shuffle ok"


def _check_dimension():
    for k, want in DIMENSIONS.items():
        got = dimension(k)
        if got != want:
            return False, "dimension(%d) = %d, expected %d" % (k, got, want)
    return True, "dimensions 1, 3, 11"


def _check_half_density():
    got = density(parse("3:101"), constant_half())
    if got != Q(1, 8):
        return False, "cyclic triangle density %s in the constant half" % got
    return True, "labeled density 1/8 at constant half"


def _check_normalization(kmax, seeds):
    for seed in seeds:
        W = random_step_tournamenton(random.Random(seed))
        for k in range(1, kmax + 1):
            total = normalization_check(k, W)
            if total != ONE:
                return False, "sum over %d-vertex classes is %s (seed %d)" % (k, total, seed)
    return True, "weighted class sums equal 1 for k <= %d" % kmax


def _check_product_identity(seeds):
    rng = random.Random(4821)
    pool = [T for n in (1, 2, 3) for T in enumerate_exact(n)]
    for seed in seeds:
        W = random_step_tournamenton(random.Random(seed))
        for _ in range(4):
            T1, T2 = rng.choice(pool), rng.choice(pool)
            lhs = sum((c * density(S, W) for S, c in product(T1, T2).items()), ZERO)
            if lhs != density(T1, W) * density(T2, W):
                return False, "t(%s x %s) != t*t (seed %d)" % (encode(T1), encode(T2), seed)
    return True, "densities multiply under the flag product"


def _check_express(kmax, seeds):
    classes = [T for n in range(1, kmax + 1) for T in enumerate_exact(n)]
    letters = [T for T in enumerate_lyndon(kmax)]
    for seed in seeds:
        W = random_step_tournamenton(random.Random(seed))
        point = {x_var(encode(S)): density(S, W) for S in letters}
        for T in classes:
            if express(T).evaluate(point) != density(T, W):
                return False, "p_%s disagrees with the direct density (seed %d)" % (
                    encode(T), seed)
    return True, "density polynomials match direct densities for k <= %d" % kmax


def _check_certification():
    # k=3 closed form: the 1x1 Jacobian is 9 s^2 t1 t2 t3
    J = jacobian_symbolic(context(3))
    want = Polynomial.const(Q(9)) * Polynomial.var(s_var(1)) * Polynomial.var(s_var(1))
    for j in (1, 2, 3):
        want = want * Polynomial.var(t_var(1, j))
    if J[0][0] != want:
        return False, "symbolic k=3 Jacobian is %r" % J[0][0]
    lead3 = unique_full_t_monomial(context(3))[1]
    if lead3 == ZERO:
        return False, "k=3 full-t monomial coefficient vanished"
    cert = certify_det_nonzero(context(4), trials=20, seed=11)
    if cert["det"] == ZERO:
        return False, "k=4 determinant certificate is zero"
    return True, "k=3 closed form; k=4 det %s after %d trial(s)" % (
        cert["det"], cert["trials_used"])


def _check_solver():
    rep = solve(context(3), [Q(1, 16)])
    if not rep.converged:
        return False, "analytic case: %s (%s)" % (rep.status, rep.detail)
    if abs(rep.s[0] ** 3 - 9 / 16) > 1e-9:
        return False, "analytic case landed at s = %r" % rep.s[0]
    ctx = context(4)
    for seed in (1, 2):
        params = random_params(ctx, random.Random(seed))
        W = build(ctx, params)
        targets = [density(T, W) for T in ctx.lyndon_seq]
        rep = solve(ctx, targets, t=params.t)
        if not rep.converged:
            return False, "k=4 round trip seed %d: %s" % (seed, rep.status)
        worst = max(v["abs_error"] for v in rep.verification)
        if worst > 1e-8:
            return False, "k=4 round trip seed %d off by %g" % (seed, worst)
    return True, "analytic k=3 case and k=4 round trips ok"


def _check_five_normalization(seeds):
    for seed in seeds:
        W = random_step_tournamenton(random.Random(seed), max_blocks=2)
        if normalization_check(5, W) != ONE:
            return False, "5-vertex class sum differs from 1 (seed %d)" % seed
    return True, "5-vertex weighted class sum equals 1"


def _check_five_express(seed):
    W = random_step_tournamenton(random.Random(seed), max_blocks=2)
    point = {x_var(encode(S)): density(S, W) for S in enumerate_lyndon(5)}
    # the transitive class is never Lyndon, so it exercises the reduction
    T = transitive(5)
    if express(T).evaluate(point) != density(T, W):
        return False, "5-vertex density polynomial disagrees"
    return True, "5-vertex density polynomial matches the direct density"


def _check_five_certification():
    cert = certify_det_nonzero(context(5), trials=5, seed=3)
    return cert["det"] != ZERO, "k=5 det %s after %d trial(s)" % (
        cert["det"], cert["trials_used"])


def run_checks(level="fast", budget_seconds=None):
    """Run the named suite; returns {"level", "ok", "seconds", "checks"}."""
    fast = [
        ("enumeration", _check_enumeration),
        ("words", _check_words),
        ("dimension", _check_dimension),
        ("constant-half density", _check_half_density),
        ("normalization", lambda: _check_normalization(4, (101, 102, 103))),
        ("product identity", lambda: _check_product_identity((201, 202))),
        ("density polynomials", lambda: _check_express(4, (301, 302))),
        ("jacobian certification", _check_certification),
        ("solver", _check_solver),
    ]
    full = fast + [
        ("five-vertex normalization", lambda: _check_five_normalization((401,))),
        ("five-vertex density polynomial", lambda: _check_five_express(402)),
        ("five-vertex certification", _check_five_certification),
    ]
    suites = {"fast": fast, "full": full}
    if level not in suites:
        raise ValueError("level must be 'fast' or 'full'")
    started = time.time()
    results = []
    for name, fn in suites[level]:
        if budget_seconds is not None and time.time() - started > budget_seconds:
            raise BudgetError("verification exceeded %s seconds" % budget_seconds)
        t0 = time.time()
        ok, detail = fn()
        results.append(
            {"name": name, "ok": ok, "detail": detail,
             "seconds": round(time.time() - t0, 3)}
        )
    return {
        "level": level,
        "ok": all(r["ok"] for r in results),
        "seconds": round(time.time() - started, 3),
        "checks": results,
    }
