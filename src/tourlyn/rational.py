"""Exact rational arithmetic.

Every exact number in this package is a ``Q``: gmpy2's mpq when gmpy2 is
installed, fractions.Fraction otherwise.  The two are interchangeable for
our purposes (arbitrary precision, hash-compatible, same operator surface);
mpq is preferred because its products and sums are cheaper (the
determinants and polynomial arithmetic); density's evaluation multiplies
Python ints, the block measures included, and meets Q only in the one
rational that ends each call, as Polynomial.evaluate sums its terms'
integer numerators over one denominator.  Nothing else in the package may
construct rationals directly from floats: binary rounding artifacts must
stay out of exact pipelines, so a float crosses to exact in one place
only, float.as_integer_ratio, its exact binary value, at the boundary
that needs one (the solver: its float targets, and the end points of its
Newton runs).
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

