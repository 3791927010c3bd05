"""A fixed piece of exact-arithmetic work that measures the machine's speed.

On a shared machine the same code can run twice as fast in one minute as
in the next, depending on what other tenants are running.  Every
timed call is bracketed by this reference work, and the call's duration is
scaled to the reference's nominal duration:

    scaled = raw * NOMINAL_S / (mean of the references just before and after)

The reference does what the package spends its time on (small ``Fraction``
products and sums stored into a dict) so that it slows down when the package
does, and it does not touch ``tourlyn``, so a change to the package moves
scaled times exactly as it moves raw ones.
"""

import random
import time
from fractions import Fraction

NOMINAL_S = 0.003
POOL = 4096
WALK = 700


class Reference:
    def __init__(self):
        rng = random.Random(0)
        self._pool = [Fraction(rng.randint(1, 1000), rng.randint(1, 1000)) for _ in range(POOL)]
        self._walk = [(rng.randrange(POOL), rng.randrange(POOL)) for _ in range(WALK)]

    def measure(self):
        """Seconds the reference work takes now."""
        start = time.perf_counter()
        pool = self._pool
        out = {}
        for k, (i, j) in enumerate(self._walk):
            out[k & 1023] = pool[i] * pool[j] + pool[j]
        return time.perf_counter() - start
