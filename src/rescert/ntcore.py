"""Smallest-prime-factor sieve and the integer helpers built on it.

Everything downstream (coefficient functions, resonator supports, moment
sums) factors integers through one shared FactorTable, so the table is
built once per run and treated as immutable afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError

# Entries are uint32: a limit past that range would silently truncate them.
MAX_SIEVE_LIMIT = (1 << 32) - 1


@dataclass(frozen=True)
class FactorTable:
    """Smallest prime factor for every integer in [2, limit]."""

    limit: int
    spf: np.ndarray  # uint32, length limit + 1; spf[0] = spf[1] = 0

    def is_prime(self, n: int) -> bool:
        self._check_range(n)
        return n >= 2 and int(self.spf[n]) == n

    def _check_range(self, n: int) -> None:
        if not 1 <= n <= self.limit:
            raise ValueError(f"n={n} outside table range [1, {self.limit}]")


def build_factor_table(limit: int) -> FactorTable:
    """Sieve smallest prime factors up to and including `limit`.

    Args:
        limit: inclusive upper end of the table, at least 2.

    Raises:
        ValueError: limit < 2.
        ResourceLimitError: limit would overflow the 32-bit entry type.
    """
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    if limit > MAX_SIEVE_LIMIT:
        raise ResourceLimitError(
            f"sieve limit {limit} exceeds 32-bit entry cap {MAX_SIEVE_LIMIT}",
            needed=limit,
            budget=MAX_SIEVE_LIMIT,
        )
    spf = np.zeros(limit + 1, dtype=np.uint32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            # Mark p*p, p*p+p, ...; earlier primes already claimed their slots.
            block = spf[p * p :: p]
            block[block == 0] = p
    unmarked = spf == 0
    unmarked[:2] = False
    spf[unmarked] = np.nonzero(unmarked)[0]
    spf.flags.writeable = False
    return FactorTable(limit=limit, spf=spf)


def factorize(n: int, table: FactorTable) -> list[tuple[int, int]]:
    """Prime factorization of n as (prime, exponent) pairs, primes ascending."""
    table._check_range(n)
    out: list[tuple[int, int]] = []
    spf = table.spf
    while n > 1:
        p = int(spf[n])
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return out


def primes_in(lo: float, hi: float, table: FactorTable) -> list[int]:
    """Primes p with lo <= p <= hi. Bounds are reals; empty ranges are fine."""
    if hi > table.limit:
        raise ValueError(
            f"upper bound {hi} exceeds table limit {table.limit}; rebuild the table"
        )
    a = max(2, math.ceil(lo))
    b = math.floor(hi)
    if b < a:
        return []
    window = np.arange(a, b + 1, dtype=np.uint32)
    mask = table.spf[a : b + 1] == window
    return [int(p) for p in window[mask]]
