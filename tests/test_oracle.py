from __future__ import annotations

import math

import numpy as np
import pytest

from rescert.moments import m1_quadrature, m2_exact
from rescert.multfn import constant_one, steinhaus_sample
from rescert.ntcore import build_factor_table
from rescert.oracle import (
    BRUTE_FORCE_CAP,
    ToyResonator,
    diagonal_sum_bruteforce,
    m2_bruteforce_quadrature,
    parametrization_bijection_check,
    random_toy_resonator,
)
from rescert.resonator import build_resonator, support_elements

TABLE = build_factor_table(20_000)
RES20 = build_resonator(math.exp(20.0), TABLE)
SUPP20 = support_elements(RES20, RES20.x)


def test_toy_resonator_validation():
    with pytest.raises(ValueError):
        ToyResonator(values={2: 1.0})
    with pytest.raises(ValueError):
        ToyResonator(values={1: 1.0, -2: 0.5})
    toy = ToyResonator(values={1: 1.0, 3: 0.5})
    assert toy.value(3) == 0.5
    assert toy.value(4) == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_toy_resonator_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="value at 3 must be finite"):
        ToyResonator(values={1: 1.0, 2: 0.5, 3: bad})


def test_check_multiplicative():
    good = ToyResonator(values={1: 1.0, 2: 0.5, 3: 0.4, 6: 0.2})
    assert good.check_multiplicative(6)
    broken = ToyResonator(values={1: 1.0, 2: 1.0, 3: 1.0, 6: 5.0})
    assert not broken.check_multiplicative(6)


def test_random_toys_are_multiplicative():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        toy = random_toy_resonator(rng, cap=20)
        assert toy.value(1) == 1.0
        assert toy.check_multiplicative(20)


def test_random_toy_squarefree_flag():
    rng = np.random.default_rng(5)
    toy = random_toy_resonator(rng, cap=30, squarefree=True)
    assert toy.value(2) != 0.0
    assert all(toy.value(p * p) == 0.0 for p in (2, 3, 5))
    rng = np.random.default_rng(5)
    dense = random_toy_resonator(rng, cap=30, squarefree=False)
    assert dense.value(4) != 0.0


def test_bruteforce_toy_example():
    # N = X = 2 with r = 1 on {1, 2}: products {1, 2, 2, 4} give
    # multiplicities 1, 2, 1 and sum of squares 1 + 4 + 1 = 6.
    toy = ToyResonator(values={1: 1.0, 2: 1.0})
    assert diagonal_sum_bruteforce(toy, 2, 2.0) == pytest.approx(6.0, rel=1e-14)


def test_bruteforce_degenerate_axes():
    toy = ToyResonator(values={1: 1.0, 2: 0.5, 3: 0.25})
    # N = 1: only m = n = 1 and a = b survive.
    expected = sum(toy.value(a) ** 2 for a in range(1, 4))
    assert diagonal_sum_bruteforce(toy, 1, 3.0) == pytest.approx(expected, rel=1e-14)
    # X = 1: a = b = 1 and m = n.
    assert diagonal_sum_bruteforce(toy, 7, 1.0) == pytest.approx(7.0, rel=1e-14)


def test_bruteforce_window_resonator():
    val = diagonal_sum_bruteforce(RES20, 10, 100.0, TABLE)
    r61 = RES20.r_p[61]
    # Support below 100 is {1, 61}: the a = b = 1 diagonal gives N terms,
    # a = b = 61 another N, and mixed (1, 61) pairs would need 61 | m.
    expected = 10 * 1.0 + 10 * r61**2
    assert val == pytest.approx(expected, rel=1e-12)


def test_bruteforce_cap():
    toy = ToyResonator(values={1: 1.0})
    with pytest.raises(ValueError):
        diagonal_sum_bruteforce(toy, 101, float(BRUTE_FORCE_CAP))


def test_bijection_small():
    assert parametrization_bijection_check(2, 2)
    for x in (1, 7, 50, 100):
        assert parametrization_bijection_check(1, x)


def test_bijection_random_instances():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(1, 31))
        x = int(rng.integers(1, 31))
        assert parametrization_bijection_check(n, x)


def test_bijection_cap():
    with pytest.raises(ValueError):
        parametrization_bijection_check(101, 100)


def test_bijection_rejects_n_or_x_below_one():
    # Both sides would be empty sets, so the check would report a match.
    for n, x in ((3, -5), (3, 0), (0, 3)):
        with pytest.raises(ValueError, match=r"N and X must be >= 1"):
            parametrization_bijection_check(n, x)


def test_m2_bruteforce_matches_m1_at_n1():
    # |D_1| = 1, so the weighted moment collapses to the plain one.
    f = constant_one()
    t_bound = 1e3
    brute = m2_bruteforce_quadrature(RES20, f, 1, t_bound, TABLE, panels=400_000)
    m1 = m1_quadrature(f, t_bound, SUPP20)
    assert brute == pytest.approx(m1, rel=1e-5)


def test_m2_bruteforce_matches_exact_expansion():
    t_bound = 1e3
    for f in (constant_one(), steinhaus_sample(12345)):
        brute = m2_bruteforce_quadrature(RES20, f, 3, t_bound, TABLE, panels=400_000)
        exact = m2_exact(f, 3, t_bound, SUPP20, TABLE)
        assert brute == pytest.approx(exact, rel=1e-5)
    assert brute > 0.0
