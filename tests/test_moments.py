from __future__ import annotations

import json
import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from rescert import moments
from rescert.bump import Bump, decay_constant, default_bump, phi_hat
from rescert.cli import main as cli_main
from rescert.errors import ResourceLimitError
from rescert.moments import (
    DEFAULT_DECAY_GRID,
    alpha_shift_error_term,
    balanced_pair_bound_check,
    diagonal_lower_bound,
    diagonal_sum,
    growth_bound_from_n,
    growth_bound_from_t,
    m1_exact,
    m1_main,
    m1_offdiag_bound,
    m1_quadrature,
    m2_exact,
    m2_quadrature,
    min_offdiag_gap,
    moment_main_term,
    offdiag_bound,
    ratio_and_bounds,
    tail_truncation_check,
)
from rescert.multfn import archimedean_cmf, constant_one, steinhaus_sample
from rescert.ntcore import build_factor_table
from rescert.oracle import (
    BRUTE_FORCE_CAP,
    ToyResonator,
    diagonal_sum_bruteforce,
    random_toy_resonator,
)
from rescert.resonator import (
    Resonator,
    SupportArrays,
    build_resonator,
    degenerate_resonator,
    support_arrays,
    support_elements,
    sum_r_squared,
    sum_t_over_sqrt,
)

TABLE = build_factor_table(20_000)
RES20 = build_resonator(math.exp(20.0), TABLE)  # support {1, 61}
R61 = RES20.r_p[61]
T61 = RES20.t_p[61]
SUPP20 = support_elements(RES20, RES20.x)
EMPTY = build_resonator(math.exp(19.0), TABLE)  # window holds no prime
PHI0 = default_bump().transform(0.0).real


# -- first moment -----------------------------------------------------------


def test_m1_trivial_resonator():
    one = constant_one()
    supp = support_elements(EMPTY, EMPTY.x)
    t_bound = 100.0
    expected = t_bound * PHI0  # |R| = 1, so M1 is just the window mass
    assert m1_quadrature(EMPTY, one, t_bound, supp, TABLE) == pytest.approx(
        expected, rel=1e-8
    )
    assert m1_exact(EMPTY, one, t_bound, supp, TABLE) == pytest.approx(
        expected, rel=1e-12
    )
    assert m1_main(EMPTY, t_bound, EMPTY.x) == pytest.approx(expected, rel=1e-12)


def test_m1_main_single_prime():
    t_bound = 1e4
    assert m1_main(RES20, t_bound, RES20.x) == pytest.approx(
        t_bound * PHI0 * (1.0 + R61 * R61), rel=1e-12
    )


def test_m1_exact_vs_quadrature_tiny():
    t_bound = 1e4
    for f in (constant_one(), steinhaus_sample(12345), archimedean_cmf(1.0)):
        quad = m1_quadrature(RES20, f, t_bound, SUPP20, TABLE)
        exact = m1_exact(RES20, f, t_bound, SUPP20, TABLE)
        assert quad == pytest.approx(exact, rel=1e-6)


def test_m1_exact_offdiagonal_envelope():
    # With support {1, 61} the only off-diagonal contribution is the
    # conjugate pair at transform argument T log 61.
    t_bound = 1e3
    b = default_bump()
    for f in (constant_one(), steinhaus_sample(2)):
        exact = m1_exact(RES20, f, t_bound, SUPP20, TABLE)
        diag = m1_main(RES20, t_bound, RES20.x)
        envelope = 2.0 * t_bound * R61 * abs(b.transform(t_bound * math.log(61.0)))
        assert abs(exact - diag) <= envelope * 1.01 + 1e-9
        assert exact > 0.0


def test_m1_positive():
    for t_bound in (1e3, 1e4):
        assert m1_quadrature(RES20, steinhaus_sample(8), t_bound, SUPP20, TABLE) > 0.0


# -- second moment ----------------------------------------------------------


def test_m2_exact_reduces_to_m1_at_n1():
    t_bound = 1e3
    for f in (constant_one(), steinhaus_sample(31)):
        m2 = m2_exact(RES20, f, 1, t_bound, SUPP20, TABLE)
        m1 = m1_exact(RES20, f, t_bound, SUPP20, TABLE)
        assert m2 == pytest.approx(m1, rel=1e-12)


def test_m2_quadrature_reduces_to_m1_at_n1():
    t_bound = 1e3
    f = steinhaus_sample(4)
    m2 = m2_quadrature(RES20, f, 1, t_bound, SUPP20, TABLE)
    m1 = m1_quadrature(RES20, f, t_bound, SUPP20, TABLE)
    assert m2 == pytest.approx(m1, rel=1e-8)


def test_m2_exact_vs_quadrature_tiny():
    t_bound = 1e3
    for f in (constant_one(), steinhaus_sample(12345), archimedean_cmf(1.0)):
        quad = m2_quadrature(RES20, f, 3, t_bound, SUPP20, TABLE)
        exact = m2_exact(RES20, f, 3, t_bound, SUPP20, TABLE)
        assert quad == pytest.approx(exact, rel=1e-6)


def test_m2_exact_diagonal_is_f_free():
    # At T = 1e4 the off-diagonal terms are negligible and the diagonal
    # m*a = n*b terms carry no f dependence at all.
    t_bound = 1e4
    values = [
        m2_exact(RES20, f, 3, t_bound, SUPP20, TABLE)
        for f in (constant_one(), steinhaus_sample(7), archimedean_cmf(0.7))
    ]
    assert values[0] == pytest.approx(values[1], rel=1e-8)
    assert values[0] == pytest.approx(values[2], rel=1e-8)


def test_m2_bounded_by_n_m1():
    t_bound = 1e3
    f = constant_one()
    n_max = 3
    m2 = m2_quadrature(RES20, f, n_max, t_bound, SUPP20, TABLE)
    m1 = m1_quadrature(RES20, f, t_bound, SUPP20, TABLE)
    assert m2 <= n_max * m1 * (1.0 + 1e-8)


# -- diagonal sums ----------------------------------------------------------


def test_diagonal_sum_n1_is_r2_mass():
    assert diagonal_sum(RES20, 1, RES20.x, TABLE) == pytest.approx(
        sum_r_squared(RES20, RES20.x), rel=1e-14
    )


def test_diagonal_sum_toy_example():
    toy = ToyResonator(values={1: 1.0, 2: 1.0})
    assert diagonal_sum(toy, 2, 2.0, TABLE) == pytest.approx(6.0, rel=1e-14)
    assert diagonal_sum_bruteforce(toy, 2, 2.0) == pytest.approx(6.0, rel=1e-14)


def test_diagonal_sum_matches_bruteforce_random():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        toy = random_toy_resonator(rng, cap=12)
        for n_max, x in ((5, 9.0), (12, 12.0), (8, 3.0)):
            fast = diagonal_sum(toy, n_max, x, TABLE)
            brute = diagonal_sum_bruteforce(toy, n_max, x)
            assert fast == pytest.approx(brute, rel=1e-12, abs=1e-12)


def test_diagonal_sum_window_resonator_vs_bruteforce():
    # Window path cross-checked against the dense product-matching oracle.
    n_max, x = 100, 100.0
    fast = diagonal_sum(RES20, n_max, x, TABLE)
    brute = diagonal_sum_bruteforce(RES20, n_max, x, TABLE)
    assert fast == pytest.approx(brute, rel=1e-12)


def test_diagonal_sum_g_cap_is_lower_bound():
    toy = ToyResonator(values={1: 1.0, 2: 0.5, 3: 0.25, 6: 0.125}, squarefree_supported=True)
    full = diagonal_sum(toy, 6, 6.0, TABLE)
    capped = diagonal_sum(toy, 6, 6.0, TABLE, g_cap=1.0)
    assert capped <= full + 1e-15


def test_diagonal_sum_budget():
    toy = ToyResonator(values={1: 1.0, 2: 1.0})
    with pytest.raises(ResourceLimitError):
        diagonal_sum(toy, 50, 50.0, TABLE, budget=3)


# -- sparse coprime-pair kernel ---------------------------------------------

# `certify --n N --c 3 --f one` at N = 1e5 and 1e6 from the inclusion-
# exclusion implementation the pair kernel replaced:
# (diag_sum, main_term, tail_error).
PINNED_C3 = {
    100_000: (128420.98606102215, 1.0082646411263891, 0.14899788645682618),
    1_000_000: (1684925.7997398882, 1.0336062485474968, 0.21372247297946656),
}

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _resonator_on(primes, weights, x: float) -> Resonator:
    """A Resonator with arbitrary primes and weights.

    Small primes give supports whose elements share prime factors below
    the brute-force cap, which window primes (all above 50) never do.
    """
    r_p = dict(zip(primes, weights))
    return Resonator(
        x=x,
        lam=None,
        window_lo=None,
        window_hi=None,
        primes=tuple(primes),
        r_p=r_p,
        t_p={p: r / (1.0 + r * r) for p, r in r_p.items()},
        alpha_default=None,
    )


def _coprime_pairs(res: Resonator, z: float):
    elems = support_elements(res, z)
    return [(a, b) for a in elems for b in elems if math.gcd(a.n, b.n) == 1]


@pytest.mark.parametrize("n_max", sorted(PINNED_C3))
def test_certify_c3_pinned(tmp_path, n_max):
    out = tmp_path / "out.json"
    assert cli_main(["certify", "--n", str(n_max), "--c", "3", "--f", "one", "--out", str(out)]) == 0
    report = json.loads(out.read_text())["report"]
    diag, main, tail = PINNED_C3[n_max]
    assert report["diag_sum"] == pytest.approx(diag, rel=1e-12)
    assert report["main_term"] == pytest.approx(main, rel=1e-12)
    assert report["tail_error"] == pytest.approx(tail, rel=1e-12)
    assert report["balanced_pair_sum"] == report["main_term"]
    assert not report["flags"]["diag_sum_truncated"]


# `certify --n 1000000 --c 3` under three term budgets: the support <= X
# over budget; the support within it but not the diagonal's coprime
# pairs; everything within it.  (budget, support sums truncated, diagonal
# truncated, diag_g_cap, ratio), from the enumerator this replaced.
BUDGET_REGIMES = (
    (3000, True, True, 3725.2902984619254, 1.0064440254241152),
    (8000, False, True, 3725.2902984619254, 1.0064461334172656),
    (20000, False, False, None, 1.08110278837266),
)


@pytest.mark.parametrize("budget, sums_cut, diag_cut, g_cap, ratio", BUDGET_REGIMES)
def test_certify_budget_fallbacks_pinned(tmp_path, budget, sums_cut, diag_cut, g_cap, ratio):
    out = tmp_path / "out.json"
    argv = ["certify", "--n", "1000000", "--c", "3", "--budget-terms", str(budget)]
    assert cli_main([*argv, "--out", str(out)]) == 0
    report = json.loads(out.read_text())["report"]
    flags = report["flags"]
    assert flags["r2_sum_truncated"] is sums_cut
    assert flags["sum_r_truncated"] is sums_cut
    assert flags["diag_sum_truncated"] is diag_cut
    assert flags.get("diag_g_cap") == g_cap
    assert report["ratio"] == pytest.approx(ratio, rel=1e-12)


@pytest.mark.parametrize(
    "res, n_max, t_bound",
    [(build_resonator(1e12, TABLE), 10_000, 1e12), (RES20, 3, 1e4)],  # the second is tiny
)
def test_report_builds_the_support_once(monkeypatch, res, n_max, t_bound):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return support_arrays(*args, **kwargs)

    monkeypatch.setattr(moments, "support_arrays", counted)
    report = ratio_and_bounds(res, constant_one(), n_max, t_bound, 0.5, 0.5, TABLE)
    assert not any(report.flags.values())
    assert len(calls) == 1
    assert (report.m1_exact is not None) == (n_max == 3)


@pytest.mark.parametrize(
    "res, n_max, t_bound, budget",
    [
        (build_resonator(1e12, TABLE), 10_000, 1e12, moments.DEFAULT_TERM_BUDGET),
        # The over-budget fallback of the next test: support sums and the
        # diagonal both truncated, the diagonal through the g_cap loop.
        (build_resonator(1e9, TABLE), 4, 1e4, 2),
    ],
)
def test_report_lists_the_coprime_pairs_once(monkeypatch, res, n_max, t_bound, budget):
    calls = []
    listed = SupportArrays.coprime_pairs

    def counted(self):
        calls.append(self)
        return listed(self)

    monkeypatch.setattr(SupportArrays, "coprime_pairs", counted)
    report = ratio_and_bounds(res, constant_one(), n_max, t_bound, 0.5, 0.5, TABLE, budget=budget)
    assert report.flags["diag_sum_truncated"] is (budget == 2)
    assert len(calls) == 1


def test_report_over_budget_skips_auto_exact_moments():
    # The support <= X (4 elements, a tiny instance at N = 4) is over the
    # budget: "auto" leaves out the exact moments, "always" cannot.
    res = build_resonator(1e9, TABLE)
    report = ratio_and_bounds(res, constant_one(), 4, 1e4, 0.5, 0.5, TABLE, budget=2)
    assert report.flags["r2_sum_truncated"] and report.flags["diag_sum_truncated"]
    assert report.m1_exact is None and report.m2_quad is None
    with pytest.raises(ResourceLimitError):
        ratio_and_bounds(res, constant_one(), 4, 1e4, 0.5, 0.5, TABLE, budget=2,
                         exact_mode="always")


def test_diagonal_sum_g_cap_window_resonator():
    n_max = 100_000
    x = float(n_max) ** 2
    res = build_resonator(x, TABLE)
    full = diagonal_sum(res, n_max, x, TABLE)
    assert diagonal_sum(res, n_max, x, TABLE, g_cap=2.0 * x) == full
    previous = full
    for g_cap in (x / 16.0, 1e6, 1e3, 100.0):
        capped = diagonal_sum(res, n_max, x, TABLE, g_cap=g_cap)
        assert 0.0 < capped <= previous
        previous = capped
    # The cap bounds the pair elements too: only (1, 1) with g = 1 is left.
    assert diagonal_sum(res, n_max, x, TABLE, g_cap=1.0) == float(n_max)


def test_diagonal_sum_sparse_budget_counts_coprime_pairs():
    n_max = 100_000
    x = float(n_max) ** 2
    res = build_resonator(x, TABLE)
    pairs = len(_coprime_pairs(res, n_max))
    assert len(support_elements(res, x)) < pairs - 1  # enumeration fits either budget
    with pytest.raises(ResourceLimitError) as info:
        diagonal_sum(res, n_max, x, TABLE, budget=pairs - 1)
    assert info.value.needed == pairs
    assert info.value.budget == pairs - 1
    assert diagonal_sum(res, n_max, x, TABLE, budget=pairs) > 0.0


@settings(max_examples=60, deadline=None)
@given(
    primes=st.lists(st.sampled_from(SMALL_PRIMES), max_size=8, unique=True).map(sorted),
    data=st.data(),
)
def test_diagonal_sum_sparse_matches_bruteforce_property(primes, data):
    weights = data.draw(
        st.lists(st.floats(0.05, 2.0), min_size=len(primes), max_size=len(primes))
    )
    n_max = data.draw(st.integers(1, 200))
    x = data.draw(st.floats(1.0, BRUTE_FORCE_CAP / n_max))
    res = _resonator_on(primes, weights, x)
    fast = diagonal_sum(res, n_max, x, TABLE)
    brute = diagonal_sum_bruteforce(res, n_max, x, TABLE)
    assert fast == pytest.approx(brute, rel=1e-12)


def test_pair_sums_beyond_63_primes():
    # More window primes than one 64-bit word holds: the masks span two
    # words (70 primes) and three words (130 primes; 2 * 733 <= 1500 sets
    # bit 129).  The tail check excludes a prime above bit 64 (bit 67)
    # and one above bit 128 (bit 129); the second input's weights are
    # small enough that its tail sees r(733)^2 well above the tolerance.
    all_primes = [p for p in range(2, 740) if all(p % q for q in range(2, p))]
    inputs = ((70, 20, 500.0, 67, 0.2, 0.01), (130, 6, 1500.0, 129, 0.02, 0.001))
    for count, n_max, x, top, w0, dw in inputs:
        primes = all_primes[:count]
        res = _resonator_on(primes, [w0 + dw * i for i in range(count)], x)
        alpha = 0.1
        assert diagonal_sum(res, n_max, x, TABLE) == pytest.approx(
            diagonal_sum_bruteforce(res, n_max, x, TABLE), rel=1e-12
        )
        pairs = _coprime_pairs(res, n_max)
        main = math.fsum(a.t * b.t * a.n * b.n / max(a.n, b.n) ** 3 for a, b in pairs)
        assert moment_main_term(res, n_max, x, TABLE) == pytest.approx(main, rel=1e-12)
        shift = {p: 1.0 + res.r_p[p] ** 2 * p**alpha for p in primes}
        bracket = math.fsum(
            a.r * b.r * (a.n * b.n) ** (alpha - 0.5)
            * math.prod(v for p, v in shift.items() if (a.n * b.n) % p)
            for a, b in pairs
        )
        plain = math.prod(1.0 + res.r_p[p] ** 2 for p in primes)
        assert alpha_shift_error_term(res, n_max, x, alpha, TABLE) == pytest.approx(
            x**-alpha * bracket / plain, rel=1e-12
        )
        ab = 2 * primes[top]
        kept = [e.r**2 for e in support_elements(res, x) if math.gcd(e.n, ab) == 1]
        full = plain / ((1.0 + res.r_p[2] ** 2) * (1.0 + res.r_p[primes[top]] ** 2))
        tail, _ = tail_truncation_check(res, ab, x, alpha, TABLE)
        assert tail == pytest.approx(full - math.fsum(kept), rel=1e-9)
    sup = support_arrays(res, x)  # the 130-prime input
    assert sup.masks.shape[1] == 3 and 2 * 733 in sup.ns.tolist()


def test_decay_constant_belongs_to_its_bump():
    # Each Bump is dropped before the next is made, so CPython may hand a
    # new Bump the id of a collected one; it must still get its own
    # constant.  With T = X = 1 and sum r = 1 the envelope is C_nu itself.
    for w in (0.05, 0.125, 0.1, 0.05, 0.2):
        got = m1_offdiag_bound(RES20, 1.0, 1.0, 3, b=Bump(ramp_width=w), sum_r=1.0)
        assert got == decay_constant(Bump(ramp_width=w), 3, DEFAULT_DECAY_GRID)


def test_diagonal_lower_bound_ordering():
    for seed in range(4):
        rng = np.random.default_rng(100 + seed)
        toy = random_toy_resonator(rng, cap=10, squarefree=False)
        lo = diagonal_lower_bound(toy, 8, 10.0, TABLE)
        full = diagonal_sum(toy, 8, 10.0, TABLE)
        assert lo <= full * (1.0 + 1e-12) + 1e-12


def test_diagonal_lower_bound_equality_on_squarefree():
    toy = ToyResonator(values={1: 1.0, 2: 0.7, 3: 0.4, 6: 0.28}, squarefree_supported=True)
    lo = diagonal_lower_bound(toy, 6, 6.0, TABLE)
    full = diagonal_sum(toy, 6, 6.0, TABLE)
    assert lo == pytest.approx(full, rel=1e-12)


def test_diagonal_lower_bound_n1():
    assert diagonal_lower_bound(RES20, 1, RES20.x, TABLE) == pytest.approx(
        sum_r_squared(RES20, RES20.x), rel=1e-14
    )


def test_min_offdiag_gap():
    assert min_offdiag_gap(2, 2) == pytest.approx(math.log(2.0), rel=1e-14)
    assert min_offdiag_gap(3, 2) == pytest.approx(math.log(4.0 / 3.0), rel=1e-14)
    for n, x in ((2, 2), (10, 7), (25, 25)):
        assert min_offdiag_gap(n, x) >= 1.0 / (n * x)
    with pytest.raises(ValueError):
        min_offdiag_gap(1, 1)


# -- envelopes and tail bounds ----------------------------------------------


def test_offdiag_bound_formula():
    val = offdiag_bound(RES20, 10, 100.0, 1e6, 3, TABLE, c_nu=2.0, sum_r=1.5)
    expected = (1e6 / 10) * 10**2 * 1.5**2 * 2.0 * (1e6 / (10 * 100.0)) ** -3
    assert val == pytest.approx(expected, rel=1e-14)


def test_m1_offdiag_bound_formula():
    val = m1_offdiag_bound(RES20, 100.0, 1e6, 3, c_nu=2.0, sum_r=1.5)
    expected = 1e6 * 1.5**2 * 2.0 * (1e6 / 100.0) ** -3
    assert val == pytest.approx(expected, rel=1e-14)


def test_moment_main_term():
    assert moment_main_term(EMPTY, 10, EMPTY.x, TABLE) == 1.0
    expected = 1.0 + 2.0 * T61 / 61.0**2
    assert moment_main_term(RES20, 100, math.exp(20.0), TABLE) == pytest.approx(
        expected, rel=1e-12
    )
    assert moment_main_term(RES20, 100, math.exp(20.0), TABLE) >= 1.0


def test_alpha_shift_error_term_trivial():
    x = EMPTY.x
    assert alpha_shift_error_term(EMPTY, 10, x, 0.1, TABLE) == pytest.approx(
        x**-0.1, rel=1e-12
    )


def test_alpha_shift_error_term_single_prime():
    alpha = 0.05
    x = math.exp(20.0)
    full_plain = 1.0 + R61 * R61
    full_shift = 1.0 + R61 * R61 * 61.0**alpha
    # Coprime pairs over {1, 61}: (1,1) keeps the full shifted product,
    # (1,61) and (61,1) each drop the 61 factor from it.
    bracket = full_shift + 2.0 * R61 * 61.0 ** (alpha - 0.5)
    expected = x**-alpha * bracket / full_plain
    got = alpha_shift_error_term(RES20, 100, x, alpha, TABLE)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got > 0.0


def test_alpha_shift_error_term_validation():
    with pytest.raises(ValueError):
        alpha_shift_error_term(RES20, 10, RES20.x, 0.0, TABLE)
    with pytest.raises(ValueError):
        alpha_shift_error_term(RES20, 10, RES20.x, 0.5, TABLE)


def test_tail_truncation_full_cap():
    tail, shifted = tail_truncation_check(RES20, 1, 100.0, 0.1, TABLE)
    assert tail == 0.0
    assert shifted > 0.0


def test_tail_truncation_cap_one():
    alpha = 0.1
    tail, shifted = tail_truncation_check(RES20, 1, 1.0, alpha, TABLE)
    assert tail == pytest.approx(R61 * R61, rel=1e-12)
    assert shifted == pytest.approx(1.0 + R61 * R61 * 61.0**alpha, rel=1e-12)
    assert tail < shifted


def test_tail_truncation_excluded_prime():
    # ab divisible by 61 removes the only window prime: no tail at all.
    tail, shifted = tail_truncation_check(RES20, 61, 1.0, 0.1, TABLE)
    assert tail == 0.0
    assert shifted == pytest.approx(1.0, rel=1e-12)


def test_tail_truncation_validation():
    with pytest.raises(ValueError):
        tail_truncation_check(RES20, 1, 0.5, 0.1, TABLE)
    with pytest.raises(ValueError):
        tail_truncation_check(RES20, 1, 10.0, 0.7, TABLE)


def test_balanced_pair_bound_below_window():
    # Support below the window is just {1}: the pair sum is 1 and the
    # comparison term collapses to 1 / log z.
    lhs, rhs = balanced_pair_bound_check(RES20, 10.0, TABLE)
    assert lhs == 1.0
    assert rhs == pytest.approx(1.0 / math.log(10.0), rel=1e-12)
    assert rhs < 1.0


def test_balanced_pair_bound_past_window():
    lhs, rhs = balanced_pair_bound_check(RES20, 100.0, TABLE)
    assert lhs == pytest.approx(1.0 + 2.0 * T61 / 61.0**2, rel=1e-12)
    expected_rhs = (1.0 + T61 / math.sqrt(61.0)) ** 2 / math.log(100.0)
    assert rhs == pytest.approx(expected_rhs, rel=1e-12)
    assert lhs >= rhs


def test_balanced_pair_bound_validation():
    with pytest.raises(ValueError):
        balanced_pair_bound_check(RES20, 1.0, TABLE)


def test_sum_t_over_sqrt_single_prime():
    assert sum_t_over_sqrt(RES20, 100.0) == pytest.approx(
        1.0 + T61 / math.sqrt(61.0), rel=1e-13
    )


# -- growth benchmarks ------------------------------------------------------


def test_growth_bound_from_t():
    assert growth_bound_from_t(100.0, 0.5) == pytest.approx(26.98, rel=1e-3)
    assert growth_bound_from_t(100.0, 0.5) == pytest.approx(
        math.exp(math.sqrt(0.5 * 100.0 / math.log(100.0))), rel=1e-14
    )
    assert growth_bound_from_t(1.0, 0.5) is None


def test_growth_bound_from_n():
    got = growth_bound_from_n(10_000, 3.0, 0.5, 0.5)
    expected = math.exp(
        math.sqrt((0.5 / 1.5) * 3.0 * math.log(10_000) / math.log(math.log(10_000)))
    )
    assert got == pytest.approx(expected, rel=1e-14)
    assert growth_bound_from_n(2, 3.0, 0.5, 0.5) is None


# -- assembled report -------------------------------------------------------


def test_report_n1_trivial():
    res = degenerate_resonator(2.0)
    report = ratio_and_bounds(res, constant_one(), 1, 4.0, 0.5, 0.5, TABLE)
    assert report.ratio == pytest.approx(1.0, rel=1e-14)
    assert report.lower_bound == pytest.approx(1.0, rel=1e-14)


def test_report_ratio_is_f_free():
    blobs = set()
    for f in (constant_one(), archimedean_cmf(1.0), steinhaus_sample(60)):
        report = ratio_and_bounds(RES20, f, 100, 1e6, 0.5, 0.5, TABLE)
        blobs.add(json.dumps(report.to_dict(), sort_keys=True))
    assert len(blobs) == 1


def test_report_bracket_contains_ratio():
    # T well past N*X so the off-diagonal envelopes stay below the
    # diagonal and both bracket ends exist.
    report = ratio_and_bounds(RES20, constant_one(), 100, 1e13, 0.5, 0.5, TABLE)
    assert not report.flags["r2_sum_truncated"]
    assert not report.flags["diag_sum_truncated"]
    assert report.ratio_bracket_lo <= report.ratio <= report.ratio_bracket_hi
    assert report.lower_bound == pytest.approx(math.sqrt(report.ratio), rel=1e-14)
    assert report.lower_bound_bracket <= report.lower_bound


def test_report_ratio_recomputes():
    report = ratio_and_bounds(RES20, constant_one(), 100, 1e6, 0.5, 0.5, TABLE)
    r2 = sum_r_squared(RES20, RES20.x)
    diag = diagonal_sum(RES20, 100, RES20.x, TABLE)
    assert report.ratio == pytest.approx(diag / (100 * r2), rel=1e-14)
    assert report.diag_sum == pytest.approx(diag, rel=1e-14)


def test_report_exact_fields_tiny_instance():
    report = ratio_and_bounds(RES20, steinhaus_sample(5), 3, 1e4, 0.5, 0.5, TABLE)
    assert report.m1_exact is not None
    assert report.m1_quad == pytest.approx(report.m1_exact, rel=1e-6)
    assert report.m2_quad == pytest.approx(report.m2_exact, rel=1e-6)


def test_report_exact_fields_skipped_for_large_t():
    report = ratio_and_bounds(RES20, constant_one(), 100, 1e6, 0.5, 0.5, TABLE)
    assert report.m1_exact is None and report.m2_exact is None
    assert report.m1_quad is None and report.m2_quad is None


def test_report_exact_mode_flags():
    with pytest.raises(ValueError):
        ratio_and_bounds(RES20, None, 3, 1e3, 0.5, 0.5, TABLE, exact_mode="always")
    report = ratio_and_bounds(
        RES20, None, 3, 1e3, 0.5, 0.5, TABLE, exact_mode="never"
    )
    assert report.m1_exact is None
    with pytest.raises(ValueError):
        ratio_and_bounds(RES20, None, 3, 1e3, 0.5, 0.5, TABLE, exact_mode="bogus")


def test_report_serialization_round_trip():
    report = ratio_and_bounds(RES20, constant_one(), 100, 1e6, 0.5, 0.5, TABLE)
    d = report.to_dict()
    json.dumps(d)  # must be JSON-clean
    assert len(report.csv_header()) == len(report.csv_row())
    assert d["ratio"] == report.ratio
    assert report.growth_bound_t is not None
    assert report.growth_bound_n is not None
    assert report.main_term >= 1.0
    assert report.tail_error > 0.0
