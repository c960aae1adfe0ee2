from __future__ import annotations

import math

import pytest

from rescert.errors import ResourceLimitError
from rescert.ntcore import (
    MAX_SIEVE_LIMIT,
    build_factor_table,
    factorize,
    is_squarefree,
    primes_in,
)

TABLE = build_factor_table(100_000)


def test_spf_small_values():
    assert [int(TABLE.spf[n]) for n in range(2, 11)] == [2, 3, 2, 5, 2, 7, 2, 3, 2]


def test_spf_large_prime():
    table = build_factor_table(10_000_000)
    assert int(table.spf[9_999_991]) == 9_999_991
    assert table.is_prime(9_999_991)


def test_factorize_basic():
    assert factorize(12, TABLE) == [(2, 2), (3, 1)]
    assert factorize(1, TABLE) == []
    assert factorize(97, TABLE) == [(97, 1)]


def test_factorize_round_trip():
    for n in range(1, 100_001):
        prod = 1
        for p, e in factorize(n, TABLE):
            prod *= p**e
        if prod != n:
            raise AssertionError(f"factorization of {n} reassembles to {prod}")


def test_factorize_primes_ascending():
    for n in (360, 30030, 99991):
        ps = [p for p, _ in factorize(n, TABLE)]
        assert ps == sorted(ps)


def test_primes_in_real_bounds():
    assert primes_in(59.9, 65.9, TABLE) == [61]
    assert primes_in(24, 28, TABLE) == []
    assert primes_in(2, 10, TABLE) == [2, 3, 5, 7]


def test_primes_in_beyond_table():
    with pytest.raises(ValueError):
        primes_in(2, TABLE.limit + 1, TABLE)


def test_is_squarefree():
    assert is_squarefree(10, TABLE)
    assert not is_squarefree(12, TABLE)
    assert is_squarefree(1, TABLE)
    # Agreement with the definition on a window.
    for n in range(1, 2000):
        expected = all(e == 1 for _, e in factorize(n, TABLE))
        assert is_squarefree(n, TABLE) == expected


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13}
    for n in range(2, 15):
        assert TABLE.is_prime(n) == (n in primes)
    assert not TABLE.is_prime(1)


def test_range_checks():
    with pytest.raises(ValueError):
        factorize(0, TABLE)
    with pytest.raises(ValueError):
        factorize(TABLE.limit + 1, TABLE)
    with pytest.raises(ValueError):
        build_factor_table(1)
    with pytest.raises(ResourceLimitError):
        build_factor_table(MAX_SIEVE_LIMIT + 1)


def test_table_is_immutable():
    with pytest.raises(ValueError):
        TABLE.spf[10] = 99


def test_prime_count_checksum():
    # pi(10^5) = 9592.
    count = sum(1 for n in range(2, 100_001) if TABLE.is_prime(n))
    assert count == 9592
    assert math.isclose(len(primes_in(2, 100_000, TABLE)), 9592)
