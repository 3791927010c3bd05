"""The float-to-exact crossing: ratio_from_float against Fraction."""

import math
import random
from fractions import Fraction

import pytest

from tourlyn.rational import ratio_from_float
from tourlyn.solver import RATIONALIZE_DENOMINATOR

LIMITS = (RATIONALIZE_DENOMINATOR, None) + tuple(range(1, 21))


def limited(x, max_denominator):
    # the oracle: Fraction's own limit_denominator
    f = Fraction(x)
    if max_denominator is not None:
        f = f.limit_denominator(max_denominator)
    return f.numerator, f.denominator


def seeded_floats(rng, n):
    for _ in range(n):
        kind = rng.random()
        if kind < 0.6:
            # across the exponent range, subnormals to the largest binade
            x = rng.random() * 2.0 ** rng.randint(-1074, 1023)
        elif kind < 0.7:
            x = rng.randint(1, 2 ** 52) * 2.0 ** -1074
        elif kind < 0.85:
            # the solver's range, 1e-9 to 1
            x = rng.uniform(1e-9, 1.0)
        else:
            # exact and near small-denominator values
            x = rng.randint(0, 60) / rng.randint(1, 40)
            x = x if rng.random() < 0.5 else math.nextafter(x, rng.choice((0.0, 2.0)))
        yield x if rng.random() < 0.7 else -x


def test_integer_core_matches_limit_denominator_on_seeded_floats():
    rng = random.Random(127)
    floats = list(seeded_floats(rng, 3000)) + [0.0, -0.0, 5e-324, -5e-324, math.ulp(0.0) * 2 ** 52]
    floats.append(1.7976931348623157e308)
    for x in floats:
        for max_denominator in LIMITS:
            expected = limited(x, max_denominator)
            assert ratio_from_float(x, max_denominator) == expected, (x, max_denominator)


def test_integer_core_breaks_ties_as_limit_denominator():
    # dyadic points, some halfway between the two nearest fractions of
    # denominator <= M: limit_denominator takes the convergent there, which
    # an integer comparison with the wrong sense or a strict one would miss
    ties = 0
    points = {Fraction(a, 2 ** j) for j in range(1, 6) for a in range(-2 ** (j + 1), 2 ** (j + 1))}
    for M in range(1, 21):
        for x in points:
            assert ratio_from_float(float(x), M) == limited(float(x), M)
            # the nearest fractions of each denominator q <= M
            near = {Fraction(math.floor(x * q) + d, q) for q in range(1, M + 1) for d in (0, 1)}
            best = min(abs(c - x) for c in near)
            ties += sum(abs(c - x) == best for c in near) > 1
    assert ties > 0


def test_integer_core_refuses_what_fraction_refuses():
    refusals = ((math.nan, ValueError), (math.inf, OverflowError), (-math.inf, OverflowError))
    for x, error in refusals:
        for max_denominator in (None, 10):
            with pytest.raises(error):
                Fraction(x).limit_denominator(max_denominator or 1)
            with pytest.raises(error):
                ratio_from_float(x, max_denominator)
    with pytest.raises(ValueError, match="max_denominator should be at least 1"):
        ratio_from_float(0.3, 0)
