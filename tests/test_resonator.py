from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rescert import resonator
from rescert.errors import ResourceLimitError
from rescert.ntcore import build_factor_table
from rescert.resonator import (
    MIN_X,
    Resonator,
    build_resonator,
    degenerate_resonator,
    euler_product_one_plus_r2,
    r_value,
    sum_r_squared,
    support_arrays,
    support_elements,
    window_bounds,
)

TABLE = build_factor_table(20_000)

X20 = math.exp(20.0)
RES20 = build_resonator(X20)  # window [59.91, 65.89], single prime 61
R61 = 0.2410834668305234


def test_window_logx_100():
    lo, hi = window_bounds(math.exp(100.0))
    assert lo == pytest.approx(460.5170185988091, rel=1e-12)
    assert hi == pytest.approx(12105.661970176194, rel=1e-12)
    res = build_resonator(math.exp(100.0))
    assert res.lam == pytest.approx(21.459660262893472, rel=1e-12)
    assert res.primes[0] == 461
    assert res.primes[-1] <= hi


def test_window_logx_20():
    assert RES20.lam == pytest.approx(7.740455120409899, rel=1e-12)
    assert RES20.window_lo == pytest.approx(59.91464547107982, rel=1e-12)
    assert RES20.window_hi == pytest.approx(65.89091190814027, rel=1e-12)
    assert RES20.primes == (61,)
    assert RES20.r_p[61] == pytest.approx(R61, rel=1e-12)


def test_weight_formula():
    # r(p) = lam / (sqrt(p) log p).
    lam = RES20.lam
    assert RES20.r_p[61] == pytest.approx(lam / (math.sqrt(61) * math.log(61)), rel=1e-14)


def test_r_value_off_support():
    assert r_value(RES20, 13, TABLE) == 0.0      # prime outside window
    assert r_value(RES20, 61 * 61, TABLE) == 0.0  # not squarefree
    assert r_value(RES20, 1, TABLE) == 1.0
    assert r_value(RES20, 61, TABLE) == pytest.approx(R61, rel=1e-12)
    assert support_elements(RES20, X20)[1].r == r_value(RES20, 61, TABLE)


def test_support_enumeration():
    assert [e.n for e in support_elements(RES20, 1.0)] == [1]
    assert [e.n for e in support_elements(RES20, X20)] == [1, 61]
    res = build_resonator(math.exp(20.2))  # window primes {61, 67}
    assert [e.n for e in support_elements(res, 5000)] == [1, 61, 67, 4087]
    elems = support_elements(res, 5000)
    assert elems[3].primes == (61, 67)
    assert elems[3].r == pytest.approx(res.r_p[61] * res.r_p[67], rel=1e-14)


def test_support_elements_one_first():
    res = build_resonator(math.exp(20.2))
    elems = support_elements(res, 5000)
    assert elems[0].n == 1 and elems[0].primes == ()
    assert [e.n for e in elems[1:]] == [61, 67, 4087]


def test_enumeration_budget():
    res = build_resonator(math.exp(100.0))
    with pytest.raises(ResourceLimitError):
        support_elements(res, math.exp(100.0), budget=1000)
    # Streaming consumers hit the same guard.
    with pytest.raises(ResourceLimitError):
        sum_r_squared(res, math.exp(100.0), budget=1000)


def _support_by_subsets(res: Resonator, cap: float) -> list[tuple]:
    """(n, r, primes) for every subset of window primes with product
    <= cap, sorted by n; weights multiplied up in ascending prime order."""
    out = []
    for k in range(len(res.primes) + 1):
        for primes in itertools.combinations(res.primes, k):
            n = math.prod(primes)
            if n <= cap:
                r = 1.0
                for p in primes:
                    r *= res.r_p[p]
                out.append((n, r, primes))
    return sorted(out)


def test_support_arrays_match_support_elements():
    res = build_resonator(1e12)  # 14 window primes, 3473 elements
    want = _support_by_subsets(res, 1e12)
    assert len(want) == 3473
    arrays = support_arrays(res, 1e12)
    idx = res.prime_index()
    assert arrays.ns.tolist() == [n for n, _, _ in want]
    # Weights multiply up in the same prime order: equal bit for bit.
    assert arrays.r.tolist() == [r for _, r, _ in want]
    # One uint16 word per mask holds the 14 prime bits.
    assert arrays.masks.tolist() == [[sum(1 << idx[p] for p in ps)] for _, _, ps in want]
    assert arrays.masks.shape == (3473, 1)
    assert arrays.masks.dtype == np.uint16
    assert [(e.n, e.r, e.primes) for e in support_elements(res, 1e12)] == want
    prefix = arrays.upto(1e6)
    assert prefix.ns.tolist() == [n for n, _, _ in want if n <= 1e6]
    assert prefix.r.tolist() == support_arrays(res, 1e6).r.tolist()
    assert support_arrays(res, 0.5).ns.tolist() == []
    assert support_arrays(RES20, 1.0).ns.tolist() == [1]
    assert support_arrays(RES20, 1e30).ns.tolist() == [1, 61]


def test_support_edge_caps():
    res = build_resonator(math.exp(20.2))  # window primes {61, 67}
    # An infinite cap takes the whole support.
    assert [e.n for e in support_elements(res, math.inf)] == [1, 61, 67, 4087]
    assert sum_r_squared(res, math.inf) == euler_product_one_plus_r2(res)
    with pytest.raises(ValueError):
        support_arrays(res, math.nan)
    with pytest.raises(ValueError):
        sum_r_squared(res, math.nan)
    assert support_arrays(res, -math.inf).ns.tolist() == []


def test_support_arrays_budget_and_int64_range():
    res = build_resonator(math.exp(100.0))
    with pytest.raises(ResourceLimitError) as info:
        support_arrays(res, math.exp(100.0), budget=1000)
    assert info.value.needed > 1000
    big = (2147483647, 2147483659, 2147483693)
    wide = Resonator(
        x=1e30, lam=None, window_lo=None, window_hi=None, primes=big,
        r_p=dict.fromkeys(big, 0.5), alpha_default=None,
    )
    assert len(support_arrays(wide, 1e19).ns) == 7  # products of two fit in int64
    with pytest.raises(ResourceLimitError):
        support_arrays(wide, 1e30)  # the product of all three does not


PRIMES_140 = tuple(p for p in range(2, 810) if all(p % q for q in range(2, p)))
PRIMES_80 = PRIMES_140[:80]


def _resonator_on(primes) -> Resonator:
    """A Resonator on arbitrary primes, every weight 1/2."""
    return Resonator(
        x=1e30, lam=None, window_lo=None, window_hi=None, primes=tuple(primes),
        r_p=dict.fromkeys(primes, 0.5), alpha_default=None,
    )


def _assert_coprime_pairs(sup, count=None, tiles=()):
    """The tiles' pairs (k, i) are the gcd pairs i <= k < count, each once,
    in tiles of at most `tiles` (cols, rows) elements, by default _COLS by
    _ROWS, and with the pair (0, 0) first."""
    ns = sup.ns.tolist()[:count]
    want = [(k, i) for k in range(len(ns)) for i in range(k + 1) if math.gcd(ns[i], ns[k]) == 1]
    with pytest.MonkeyPatch.context() as mp:
        for name, value in zip(("_COLS", "_ROWS"), tiles):
            mp.setattr(resonator, name, value)
        most = (resonator._COLS, resonator._ROWS)
        walk = list(sup.coprime_tiles(count))
    got = []
    for k, i, ok in walk:
        assert ok.dtype == bool and ok.shape == (k.stop - k.start, i.stop - i.start)
        assert ok.shape[0] <= most[0] and ok.shape[1] <= most[1]
        rows, cols = np.nonzero(ok)
        got += zip((rows + k.start).tolist(), (cols + i.start).tolist())
    assert got[:1] == want[:1]
    assert sorted(got) == want
    return got


@settings(max_examples=60, deadline=None)
@given(
    primes=st.one_of(
        st.lists(st.sampled_from(PRIMES_80[:15]), max_size=9, unique=True),
        st.lists(st.sampled_from(PRIMES_80), min_size=65, max_size=80, unique=True),
        # Over 128 primes: three-word masks.
        st.lists(st.sampled_from(PRIMES_140), max_size=11, unique=True).map(
            lambda dropped: [p for p in PRIMES_140 if p not in dropped]
        ),
    ).map(sorted),
    cap=st.floats(-2.0, 1000.0),
    tiles=st.sampled_from([(3, 3), (2, 5), (5, 2), (64, 64), (64, 256), ()]),
    data=st.data(),
)
def test_coprime_pairs_match_gcd_pairs_property(primes, cap, tiles, data):
    # More than 64 primes give two-word masks, more than 128 three; small
    # tiles, square or not, split the lower triangle into many.
    sup = support_arrays(_resonator_on(primes), cap)
    _assert_coprime_pairs(sup, data.draw(st.one_of(st.none(), st.integers(0, len(sup.ns)))), tiles)


@pytest.mark.parametrize(
    "res, cap, count",
    [
        (_resonator_on(PRIMES_80[:70]), 1000.0, None),  # 70 primes: two words
        (build_resonator(math.exp(19.0)), math.inf, 1),  # empty window: (1, 1)
        (RES20, 0.5, 0),  # cap < 1: no element, no pair
        (RES20, math.inf, 3),  # (1, 1), (1, 61), (61, 1)
    ],
)
def test_coprime_pairs_edge_cases(res, cap, count):
    sup = support_arrays(res, cap)
    pairs = _assert_coprime_pairs(sup)
    if count is not None:
        assert 2 * len(pairs) - (len(pairs) > 0) == count
    else:
        assert sup.masks.shape[1] == 2 and any(n % 313 == 0 for n in sup.ns.tolist())


def test_support_build_peak_memory():
    # The support <= X of `certify --n 1e7 --c 3` (X = N^2): the build peaks
    # below 2.5 times the arrays it returns, and below 16 MiB, which a
    # second per-element weight array (about 4 MiB more) would exceed.
    x = 1e14
    res = build_resonator(x)
    tracemalloc.start()
    try:
        sup = support_arrays(res, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sup.ns.nbytes + sup.masks.nbytes + sup.r.nbytes
    assert len(sup.ns) > 10**5
    assert peak < 2.5 * held, (peak, held)
    assert peak < 16 * 2**20, peak


def test_sums_on_empty_support():
    res = build_resonator(math.exp(19.0))  # window holds no prime
    assert res.is_empty
    assert not res.is_degenerate
    assert sum_r_squared(res, 1e6) == 1.0
    assert [(e.n, e.r, e.primes) for e in support_elements(res, 1e6)] == [(1, 1.0, ())]
    assert euler_product_one_plus_r2(res) == 1.0


def test_sum_r_squared_single_prime():
    assert sum_r_squared(RES20, X20) == pytest.approx(1.0581212379790241, rel=1e-12)
    # Full support realizes the whole Euler product here.
    assert sum_r_squared(RES20, X20) == pytest.approx(
        euler_product_one_plus_r2(RES20), rel=1e-14
    )


def test_sum_r_squared_below_euler_product():
    res = build_resonator(math.exp(100.0))
    partial = sum_r_squared(res, 1e8)
    assert partial <= euler_product_one_plus_r2(res) * (1.0 + 1e-12)


def test_euler_product_exclusions():
    res = build_resonator(math.exp(20.2))
    full = euler_product_one_plus_r2(res)
    without_61 = euler_product_one_plus_r2(res, exclude=(61,))
    assert full == pytest.approx(without_61 * (1.0 + res.r_p[61] ** 2), rel=1e-14)


def test_lam_monotone_in_x():
    lams = [build_resonator(math.exp(lx)).lam for lx in (19.0, 25.0, 50.0, 100.0)]
    assert all(a < b for a, b in zip(lams, lams[1:]))


def test_window_empty_boundary():
    lo, hi = window_bounds(math.exp(18.5))
    assert lo > hi
    lo, hi = window_bounds(math.exp(18.66))
    assert lo <= hi


def test_degenerate_and_validation():
    with pytest.raises(ValueError):
        window_bounds(MIN_X * 0.99)
    with pytest.raises(ValueError):
        degenerate_resonator(0.5)
    res = degenerate_resonator(3.0)
    assert res.is_degenerate and res.is_empty
    assert res.alpha_default is None
    assert [e.n for e in support_elements(res, 100.0)] == [1]


def test_alpha_default():
    assert RES20.alpha_default == pytest.approx(math.log(RES20.lam) ** -3, rel=1e-14)
    assert RES20.alpha_default == pytest.approx(0.11667825057681681, rel=1e-12)


def test_alpha_default_tiny_window_unusable():
    # (log lam)^-3 lands at 0.56 here, past the 1/2 validity edge of the
    # shift bound, so no default is offered.
    res = build_resonator(500.0)
    assert res.alpha_default is None
