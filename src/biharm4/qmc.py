"""The Halton sequence in numpy, behind scipy.stats.qmc's `Halton` interface.

Point i of the d-dimensional Halton sequence (Halton 1960) has as its j-th
coordinate the radical inverse of i in the j-th prime base: the base-b
digits of i mirrored about the radix point.  The digits are summed least
significant first, with the place value divided down by the base after
each digit, exactly as scipy.stats.qmc does, so unscrambled points equal
scipy's bit for bit.

Unscrambled points are slices of one module-level, read-only table of the
sequence that grows on demand, so a draw costs a copy rather than a digit
loop.  Scrambled sampling is delegated to scipy.stats.qmc.Halton; only
then is scipy.stats imported.
"""

from __future__ import annotations

import numpy as np

_TABLE = np.zeros((0, 0))
_TABLE.flags.writeable = False


def _primes(d: int) -> list[int]:
    primes, k = [], 2
    while len(primes) < d:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


def _radical_inverse(index: np.ndarray, base: int) -> np.ndarray:
    out = np.zeros(len(index))
    q = index.copy()
    b2r = 1.0 / base
    while q.any():
        out += (q % base) * b2r     # finished indices add an exact 0.0
        b2r /= base
        q //= base
    return out


def _table(rows: int, d: int) -> np.ndarray:
    """The first `rows` points of the sequence in at least d dimensions."""
    global _TABLE
    table = _TABLE      # a concurrent grow may swap the global; this one stays big enough
    have_rows, have_d = table.shape
    if rows > have_rows or d > have_d:
        rows, d = max(rows, 2 * have_rows), max(d, have_d)
        index = np.arange(rows)
        table = np.column_stack([_radical_inverse(index, b) for b in _primes(d)])
        table.flags.writeable = False
        _TABLE = table
    return table


class Halton:
    """Halton points in [0, 1)^d, drawn in sequence by `random(n)`.

    The constructor takes scipy.stats.qmc.Halton's `d`, `scramble` and
    `seed`.  Unscrambled, the seed is unused and the points are the plain
    sequence from index 0, as in scipy.
    """

    def __init__(self, d: int, *, scramble: bool = True, seed=None):
        if int(d) < 1:
            raise ValueError(f"a Halton sequence needs d >= 1, got {d}")
        self.d = int(d)
        self.num_generated = 0
        self._scrambled = None
        if scramble:
            from scipy.stats import qmc

            self._scrambled = qmc.Halton(d=self.d, scramble=True, seed=seed)

    def random(self, n: int = 1) -> np.ndarray:
        """The next n points, an (n, d) array the caller owns."""
        if self._scrambled is not None:
            pts = self._scrambled.random(n)
        else:
            start = self.num_generated
            pts = _table(start + n, self.d)[start:start + n, :self.d].copy()
        self.num_generated += n
        return pts
