"""Exact rational arithmetic.

Every exact number in this package is a ``Q``: gmpy2's mpq when gmpy2 is
installed, fractions.Fraction otherwise.  The two are interchangeable for
our purposes (arbitrary precision, hash-compatible, same operator surface);
mpq is preferred because its products and sums are cheaper (the
determinants and polynomial arithmetic); density's walk multiplies
Python ints, the block measures included, and meets Q only in the two
divisions that end each call.  Nothing else in the package may
construct rationals directly from floats: binary rounding artifacts must
stay out of exact pipelines, so float inputs go through one explicit,
clearly-labeled conversion, ratio_from_float, at the boundary that needs
one (the solver: its float targets, and the rounding of its iterates).
"""

from fractions import Fraction

from .errors import DomainError

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover - exercised only without gmpy2
    Q = Fraction

ZERO = Q(0)
ONE = Q(1)


def as_q(x):
    """Coerce an int, Fraction, Q, or 'p/q' string to Q; a Q comes back
    as it is.

    Floats are refused on purpose; see the module docstring.  Anything that
    is not an exact rational (a float, a bool, an unparsable string, a zero
    denominator, None) is a DomainError: JSON's true and false are not the
    numbers 1 and 0.
    """
    if isinstance(x, bool):
        raise DomainError("refusing to read bool %r as an exact rational" % (x,))
    if type(x) is Q:
        return x
    if isinstance(x, float):
        raise DomainError("refusing to coerce float %r to an exact rational" % (x,))
    try:
        return Q(x.strip() if isinstance(x, str) else x)
    except (TypeError, ValueError, ZeroDivisionError):
        raise DomainError("not an exact rational: %r" % (x,)) from None


def fmt_q(x):
    """Render as 'p/q' with the denominator always present ('3/1', '-1/3')."""
    q = Q(x)
    return "%d/%d" % (q.numerator, q.denominator)


def ratio_from_float(x, max_denominator=None):
    """The (numerator, denominator) ints of
    Fraction(x).limit_denominator(max_denominator), or of Fraction(x) when
    max_denominator is None: the same continued fraction, run on
    x.as_integer_ratio(), with the tie between the best lower and upper
    bounds decided by integer cross-multiplication (the closer one, the
    convergent p1 / q1 on a tie).  Both come out in lowest terms, the
    denominator positive."""
    n, d = x.as_integer_ratio()
    if max_denominator is None:
        return n, d
    if max_denominator < 1:
        raise ValueError("max_denominator should be at least 1")
    if d <= max_denominator:
        return n, d
    p0, q0, p1, q1 = 0, 1, 1, 0
    a, b = n, d
    while True:
        c = a // b
        q2 = q0 + c * q1
        if q2 > max_denominator:
            break
        p0, q0, p1, q1 = p1, q1, p0 + c * p1, q2
        a, b = b, a - c * b
    k = (max_denominator - q0) // q1
    # the semiconvergent (p0 + k p1) / (q0 + k q1) and the convergent
    # p1 / q1 differ from their neighbours by 1 / (q q'), so both are reduced
    p2, q2 = p0 + k * p1, q0 + k * q1
    if abs(p1 * d - n * q1) * q2 <= abs(p2 * d - n * q2) * q1:
        return p1, q1
    return p2, q2

