from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from rescert.multfn import (
    archimedean_cmf,
    constant_one,
    steinhaus_sample,
    values_up_to,
)
from rescert.ntcore import build_factor_table

TABLE = build_factor_table(20_000)


def test_steinhaus_reproducible():
    a = steinhaus_sample(42)
    b = steinhaus_sample(42)
    for p in (2, 3, 61, 9973):
        assert a.prime_value(p) == b.prime_value(p)


def test_steinhaus_seed_sensitivity():
    a = steinhaus_sample(1)
    b = steinhaus_sample(2)
    assert any(a.prime_value(p) != b.prime_value(p) for p in range(2, 101))


def test_unit_modulus_at_primes():
    for f in (constant_one(), archimedean_cmf(0.7), steinhaus_sample(9)):
        assert abs(abs(f.prime_value(2)) - 1.0) <= 1e-15


def test_archimedean_closed_form():
    f = archimedean_cmf(1.3)
    assert cmath.isclose(
        f.value(6, TABLE), cmath.exp(1.3j * math.log(6)), rel_tol=1e-14
    )


def test_archimedean_period_alignment():
    # alpha = 2*pi / log 2 makes f(2) wind exactly once.
    f = archimedean_cmf(2.0 * math.pi / math.log(2.0))
    assert abs(f.value(2, TABLE) - 1.0) <= 1e-12


def test_complete_multiplicativity_examples():
    f = steinhaus_sample(12345)
    f12 = f.value(12, TABLE)
    assert cmath.isclose(
        f12, f.prime_value(2) ** 2 * f.prime_value(3), rel_tol=1e-13
    )
    assert cmath.isclose(f.value(4, TABLE), f.value(2, TABLE) ** 2, rel_tol=1e-13)


def test_complete_multiplicativity_random_pairs():
    f = steinhaus_sample(777)
    rng = np.random.default_rng(7)
    for _ in range(500):
        m = int(rng.integers(1, 140))
        n = int(rng.integers(1, 140))
        fm, fn, fmn = (
            f.value(m, TABLE),
            f.value(n, TABLE),
            f.value(m * n, TABLE),
        )
        assert abs(fmn - fm * fn) <= 1e-12


def test_unit_modulus_up_to_1e4():
    for f in (archimedean_cmf(0.3), steinhaus_sample(5)):
        vals = values_up_to(f, 10_000)
        assert np.max(np.abs(np.abs(vals) - 1.0)) <= 1e-12


def test_values_up_to_matches_pointwise():
    for f in (constant_one(), archimedean_cmf(1.1), steinhaus_sample(3)):
        vals = values_up_to(f, 500)
        for n in (1, 2, 17, 128, 360, 499, 500):
            assert abs(vals[n - 1] - f.value(n, TABLE)) <= 1e-12


def test_validation():
    from rescert.multfn import UnimodularCMF

    with pytest.raises(ValueError):
        UnimodularCMF(kind="bogus")
    f = steinhaus_sample(1)
    assert abs(f.prime_value((1 << 64) - 59)) == pytest.approx(1.0)  # largest prime < 2^64
    with pytest.raises(ValueError):
        f.prime_value(1 << 64)  # beyond the 8-byte key
    with pytest.raises(ValueError):
        values_up_to(constant_one(), 0)


def _values_by_loop(f, n_max, table):
    out = np.ones(n_max + 1, dtype=np.complex128)
    for n in range(2, n_max + 1):
        p = int(table.spf[n])
        out[n] = out[n // p] * (f.prime_value(p) if n == p else out[p])
    return out[1:]


@pytest.mark.parametrize("seed", [0, 5, 2024])
def test_values_up_to_matches_scalar_recurrence(seed):
    # The layered fill must reproduce the scalar complex products bit for bit.
    got = values_up_to(steinhaus_sample(seed), 10_000)
    want = _values_by_loop(steinhaus_sample(seed), 10_000, TABLE)
    assert np.array_equal(got, want)
