from __future__ import annotations

import ast
import math
import re
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rescert import oracle
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
RES20 = build_resonator(math.exp(20.0))
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


def _loop_quadruples(n_max, x_int):
    """The quadruples (m, n, a, b), m, n <= N, a, b <= X, ma = nb, by plain loops."""
    quadruples = []
    for m in range(1, n_max + 1):
        for n in range(1, n_max + 1):
            for a in range(1, x_int + 1):
                prod = m * a
                if prod % n == 0 and prod // n <= x_int:
                    quadruples.append((m, n, a, prod // n))
    return quadruples


def _loop_mapped(n_max, x_int):
    """The parameter tuples (a', b', g, h) mapped to (h b', h a', a' g, b' g), by plain loops."""
    mapped = []
    z = min(n_max, x_int)
    for ap in range(1, z + 1):
        for bp in range(1, z + 1):
            if math.gcd(ap, bp) != 1:
                continue
            mx = max(ap, bp)
            for g in range(1, x_int // mx + 1):
                for h in range(1, n_max // mx + 1):
                    mapped.append((h * bp, h * ap, ap * g, bp * g))
    return mapped


def _loop_match(quadruples, mapped):
    return len(mapped) == len(set(mapped)) and set(mapped) == set(quadruples)


def _loop_bijection_check(n_max, x_int):
    """The bijection check as plain loops over sets: the reference for the array oracle."""
    if n_max < 1 or x_int < 1:
        raise ValueError("N and X must be >= 1")
    if n_max * x_int > BRUTE_FORCE_CAP:
        raise ValueError(f"bijection check limited to N*X <= {BRUTE_FORCE_CAP}")
    return _loop_match(_loop_quadruples(n_max, x_int), _loop_mapped(n_max, x_int))


def _rows(array):
    return [tuple(row) for row in array.tolist()]


def _array(rows):
    return np.array(rows, dtype=np.int64).reshape(-1, 4)


def _assert_matches_loops(n, x):
    quadruples, mapped = _loop_quadruples(n, x), _loop_mapped(n, x)
    # Both enumerate the quadruples in (m, n, a) order; the tuples are compared sorted.
    assert np.array_equal(oracle._quadruples(n, x), _array(quadruples))
    got = oracle._mapped_parameters(n, x)
    got = got[np.lexsort(got.T[::-1])]
    assert np.array_equal(got, _array(sorted(mapped)))
    assert parametrization_bijection_check(n, x) is _loop_match(quadruples, mapped) is True


def test_bijection_matches_loop_reference_up_to_40():
    for n in range(1, 41):
        for x in range(1, 41):
            _assert_matches_loops(n, x)


@pytest.mark.parametrize("n, x", [(1, BRUTE_FORCE_CAP), (100, 100)])
def test_bijection_matches_loop_reference_at_the_cap(n, x):
    _assert_matches_loops(n, x)


def test_bijection_over_b_matches_loop_reference(monkeypatch):
    # With chunks of 50 tests, every N^2 X > 50 takes the (m, a, b) enumeration, whose rows
    # must come back in the loops' (m, n, a) order, one chunk of m or several.
    monkeypatch.setattr(oracle, "_CHUNK_ENTRIES", 50)
    for n in range(1, 26):
        for x in range(1, 26):
            _assert_matches_loops(n, x)


def test_bijection_at_x_one_bounded():
    # The loops take N^2 = 10^8 steps here.  At X = 1, ma = nb forces a = b = 1 and m = n,
    # which the only pair a' = b' = 1 gives with g = 1 and h = m.
    n = BRUTE_FORCE_CAP
    t0 = time.perf_counter()
    assert parametrization_bijection_check(n, 1) is True
    assert time.perf_counter() - t0 < 1.0
    diagonal = [(m, m, 1, 1) for m in range(1, n + 1)]
    assert _rows(oracle._quadruples(n, 1)) == diagonal
    assert _rows(oracle._mapped_parameters(n, 1)) == diagonal


@pytest.mark.parametrize("n, x", [(BRUTE_FORCE_CAP, 1), (100, 100)])
def test_bijection_memory_bounded(n, x):
    tracemalloc.start()
    try:
        parametrization_bijection_check(n, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@pytest.mark.parametrize(
    "n, x", [(0, 3), (3, 0), (3, -5), (101, 100), (1.5, 3), (3, 2.5), (2.0, 2), (2, 2.0), (1e5, 1)]
)
def test_bijection_raises_as_the_loop_reference(n, x):
    with pytest.raises((ValueError, TypeError)) as want:
        _loop_bijection_check(n, x)
    with pytest.raises(want.type, match=re.escape(str(want.value))):
        parametrization_bijection_check(n, x)


# Faults in one enumeration, as (enumeration, rows -> faulted rows), at N = X = 12.
_FAULTS = {
    "duplicated tuple": ("_mapped_parameters", lambda rows: rows + [(1, 1, 1, 1)]),
    "dropped tuple": ("_mapped_parameters", lambda rows: [r for r in rows if r != (1, 1, 1, 1)]),
    "altered tuple": (
        "_mapped_parameters",
        lambda rows: [(1, 1, 1, 2) if r == (1, 1, 1, 1) else r for r in rows],
    ),
    # a - 1 and b + X + 1 leave the tuple's key unchanged: only the range test catches it.
    "altered tuple, same key": (
        "_mapped_parameters",
        lambda rows: [(2, 2, 1, 15) if r == (2, 2, 2, 2) else r for r in rows],
    ),
    "extra quadruple": ("_quadruples", lambda rows: rows + [(1, 1, 1, 2)]),
}


@pytest.mark.parametrize("fault", list(_FAULTS))
def test_bijection_catches_faults(monkeypatch, fault):
    name, corrupt = _FAULTS[fault]
    n = x = 12
    loops = {"_quadruples": _loop_quadruples(n, x), "_mapped_parameters": _loop_mapped(n, x)}
    assert corrupt(loops[name]) != loops[name]
    loops[name] = corrupt(loops[name])
    assert _loop_match(loops["_quadruples"], loops["_mapped_parameters"]) is False
    honest = getattr(oracle, name)
    monkeypatch.setattr(
        oracle, name, lambda n_max, x_int: np.array(corrupt(_rows(honest(n_max, x_int))))
    )
    assert parametrization_bijection_check(n, x) is False


def _rescert_imports(source):
    """The rescert modules a source imports, at any depth, by relative or absolute name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level and node.module is None:  # from . import x
                found |= {alias.name for alias in node.names}
            elif node.level or (node.module or "").startswith("rescert."):
                found.add(node.module.removeprefix("rescert.").split(".")[0])
            elif node.module == "rescert":
                found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("rescert."):
                    found.add(alias.name.split(".")[1])
    return found


def test_oracle_imports_none_of_the_checked_layers():
    # The oracles are evidence only while they share no code with what they check.
    probe = "from .moments import a\nfrom . import bump\nimport rescert.dirichlet\n"
    probe += "def f():\n    from rescert import quadrature\n"
    assert _rescert_imports(probe) == {"moments", "bump", "dirichlet", "quadrature"}
    imported = _rescert_imports(Path(oracle.__file__).read_text())
    assert imported == {"multfn", "ntcore", "resonator"}


def test_m2_bruteforce_matches_m1_at_n1():
    # |D_1| = 1, so the weighted moment collapses to the plain one.
    f = constant_one()
    t_bound = 1e3
    brute = m2_bruteforce_quadrature(RES20, f, 1, t_bound, panels=400_000)
    m1 = m1_quadrature(f, t_bound, SUPP20)
    assert brute == pytest.approx(m1, rel=1e-5)


def test_m2_bruteforce_matches_exact_expansion():
    t_bound = 1e3
    for f in (constant_one(), steinhaus_sample(12345)):
        brute = m2_bruteforce_quadrature(RES20, f, 3, t_bound, panels=400_000)
        exact = m2_exact(f, 3, t_bound, SUPP20)
        assert brute == pytest.approx(exact, rel=1e-5)
    assert brute > 0.0
