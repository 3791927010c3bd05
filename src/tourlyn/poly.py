"""Sparse multivariate polynomials over exact rationals, plus the little
exact linear algebra the package needs (fraction-free determinants and
linear solves).

Variables are plain tuples so they sort and hash without a class:
("s", i) and ("t", i, j) are the block parameters of the construction,
("x", enc) is the density variable of the tournament with canonical
encoding enc.  A monomial is a sorted tuple of (variable, exponent) pairs
with positive exponents; a polynomial is a dict monomial -> coefficient
with no zero coefficients stored.
"""

from .errors import DomainError
from .rational import ONE, ZERO, Q, as_q, fmt_q


def s_var(i):
    return ("s", i)


def t_var(i, j):
    return ("t", i, j)


def x_var(enc):
    return ("x", enc)


def var_name(v):
    # x-variables serialize as the bare tournament encoding; it contains ':'
    # so it can never collide with the s/t grammar
    if v[0] == "s":
        return "s%d" % v[1]
    if v[0] == "t":
        return "t%d_%d" % (v[1], v[2])
    return v[1]


def _mul_monomials(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


class Polynomial:
    __slots__ = ("terms",)

    def __init__(self, terms):
        # a finished dict monomial -> coefficient, kept as it is: sorted
        # monomials of positive exponents, no zero coefficient
        self.terms = terms

    @staticmethod
    def zero():
        return Polynomial({})

    @staticmethod
    def const(c):
        c = Q(c)
        return Polynomial({(): c} if c != 0 else {})

    @staticmethod
    def var(v):
        return Polynomial({((v, 1),): ONE})

    def variables(self):
        seen = set()
        for mono in self.terms:
            for v, _ in mono:
                seen.add(v)
        return sorted(seen)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.const(as_q(other))
        merged = dict(self.terms)
        for mono, c in other.terms.items():
            s = merged.get(mono, ZERO) + c
            if s == 0:
                merged.pop(mono, None)
            else:
                merged[mono] = s
        return Polynomial(merged)

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = Q(other)
            if c == 0:
                return Polynomial({})
            return Polynomial({m: k * c for m, k in self.terms.items()})
        acc = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _mul_monomials(m1, m2)
                s = acc.get(mono, ZERO) + c1 * c2
                if s == 0:
                    acc.pop(mono, None)
                else:
                    acc[mono] = s
        return Polynomial(acc)

    __rmul__ = __mul__

    def __truediv__(self, c):
        c = Q(c)
        if c == 0:
            raise ZeroDivisionError("polynomial divided by zero")
        return self * (ONE / c)

    def __pow__(self, k):
        if k < 0:
            raise DomainError("negative power")
        result = Polynomial.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def partial_derivative(self, v):
        acc = {}
        for mono, c in self.terms.items():
            d = dict(mono)
            e = d.get(v)
            if not e:
                continue
            if e == 1:
                del d[v]
            else:
                d[v] = e - 1
            key = tuple(sorted(d.items()))
            s = acc.get(key, ZERO) + c * e
            if s == 0:
                acc.pop(key, None)
            else:
                acc[key] = s
        return Polynomial(acc)

    def evaluate(self, point):
        """Exact evaluation; every variable present must be assigned."""
        missing = [v for v in self.variables() if v not in point]
        if missing:
            raise DomainError("unassigned variables: %s" % ", ".join(var_name(v) for v in missing))
        total = ZERO
        for mono, c in self.terms.items():
            val = c
            for v, e in mono:
                val *= Q(point[v]) ** e
            total += val
        return total

    def evaluate_float(self, point):
        """The value at a point of floats, term by term in float arithmetic.

        No production code calls it.  It stays in the package because the
        benchmark traces it by name (its ("poly",
        "Polynomial.evaluate_float") row of TRACED in perfbench/tracing.py),
        and it is the tests' float oracle for the solver's float side, in
        test_float_terms_match_evaluate_float_bit_for_bit,
        test_log_jacobian_rows_come_from_the_value_pass and
        test_values_kernel_stops_exactly_where_the_trial_fails
        (test_solver.py) and test_jacobian_matches_finite_differences
        (test_construction.py); test_evaluate_float_tracks_exact
        (test_poly.py) holds it to evaluate."""
        total = 0.0
        for mono, c in self.terms.items():
            val = float(c)
            for v, e in mono:
                val *= float(point[v]) ** e
            total += val
        return total

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono, c in sorted(self.terms.items()):
            head = fmt_q(c)
            names = ["%s^%d" % (var_name(v), e) if e > 1 else var_name(v) for v, e in mono]
            bits.append("*".join([head] + names) if names else head)
        return " + ".join(bits)


def poly_to_json(p):
    items = sorted(p.terms.items())
    return [
        {
            "monomial": [{"var": var_name(v), "exp": e} for v, e in mono],
            "coeff": fmt_q(c),
        }
        for mono, c in items
    ]


def det_rational(M):
    """Determinant by fraction-free (Bareiss) elimination; exact."""
    n = len(M)
    for row in M:
        if len(row) != n:
            raise DomainError("determinant needs a square matrix")
    if n == 0:
        return ONE
    A = [[Q(x) for x in row] for row in M]
    sign = 1
    prev = ONE
    for k in range(n - 1):
        if A[k][k] == 0:
            for r in range(k + 1, n):
                if A[r][k] != 0:
                    A[k], A[r] = A[r], A[k]
                    sign = -sign
                    break
            else:
                return ZERO
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) / prev
            A[i][k] = ZERO
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def solve_linear(M, rhs):
    """Exact solve of M x = rhs by Gaussian elimination; None when singular.
    No caller in the package: it stays while perfbench/tracing.py looks it
    up, until the benchmark change of ROADMAP items 1 and 11 deletes both."""
    n = len(M)
    A = [[Q(x) for x in row] + [Q(rhs[i])] for i, row in enumerate(M)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if A[r][col] != 0:
                piv = r
                break
        if piv is None:
            return None
        A[col], A[piv] = A[piv], A[col]
        inv = ONE / A[col][col]
        A[col] = [x * inv for x in A[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [a - f * b for a, b in zip(A[r], A[col])]
    return [A[i][n] for i in range(n)]
