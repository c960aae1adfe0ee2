from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from rescert import moments
from rescert.bump import decay_constant, default_bump
from rescert.cli import main as cli_main
from rescert.dirichlet import _support_coeff_logs
from rescert.errors import ResourceLimitError
from rescert.moments import (
    DEFAULT_DECAY_GRID,
    alpha_shift_error_term,
    balanced_pair_bound_check,
    diagonal_sum,
    growth_bound_from_n,
    growth_bound_from_t,
    m1_exact,
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
from rescert.multfn import archimedean_cmf, constant_one, steinhaus_sample, values_up_to
from rescert.ntcore import build_factor_table
from rescert.quadrature import adaptive_oscillatory, composite_gl
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
    disjoint,
    support_arrays,
    support_elements,
    sum_r_squared,
)

TABLE = build_factor_table(20_000)
RES20 = build_resonator(math.exp(20.0), TABLE)  # support {1, 61}
R61 = RES20.r_p[61]
T61 = RES20.t_p[61]
SUPP20 = support_elements(RES20, RES20.x)
EMPTY = build_resonator(math.exp(19.0), TABLE)  # window holds no prime
PHI0 = default_bump().transform(0.0).real


def _m1_main(res, t_bound):
    """The report's m1_main field: T * phi_hat(0) * sum of r(n)^2 over the support <= X."""
    return ratio_and_bounds(res, None, 1, t_bound, 0.5, 0.5, TABLE, exact_mode="never").m1_main


# -- first moment -----------------------------------------------------------


def test_m1_trivial_resonator():
    one = constant_one()
    supp = support_elements(EMPTY, EMPTY.x)
    t_bound = 100.0
    expected = t_bound * PHI0  # |R| = 1, so M1 is just the window mass
    assert m1_quadrature(one, t_bound, supp) == pytest.approx(
        expected, rel=1e-8
    )
    assert m1_exact(one, t_bound, supp) == pytest.approx(
        expected, rel=1e-12
    )
    assert _m1_main(EMPTY, t_bound) == pytest.approx(expected, rel=1e-12)


def test_m1_main_single_prime():
    t_bound = 1e4
    assert _m1_main(RES20, t_bound) == pytest.approx(
        t_bound * PHI0 * (1.0 + R61 * R61), rel=1e-12
    )


def test_m1_exact_vs_quadrature_tiny():
    t_bound = 1e4
    for f in (constant_one(), steinhaus_sample(12345), archimedean_cmf(1.0)):
        quad = m1_quadrature(f, t_bound, SUPP20)
        exact = m1_exact(f, t_bound, SUPP20)
        assert quad == pytest.approx(exact, rel=1e-6)


def test_m1_exact_offdiagonal_envelope():
    # With support {1, 61} the only off-diagonal contribution is the
    # conjugate pair at transform argument T log 61.
    t_bound = 1e3
    b = default_bump()
    for f in (constant_one(), steinhaus_sample(2)):
        exact = m1_exact(f, t_bound, SUPP20)
        diag = _m1_main(RES20, t_bound)
        envelope = 2.0 * t_bound * R61 * abs(b.transform(t_bound * math.log(61.0)))
        assert abs(exact - diag) <= envelope * 1.01 + 1e-9
        assert exact > 0.0


def test_m1_positive():
    for t_bound in (1e3, 1e4):
        assert m1_quadrature(steinhaus_sample(8), t_bound, SUPP20) > 0.0


# -- second moment ----------------------------------------------------------


def test_m2_exact_reduces_to_m1_at_n1():
    t_bound = 1e3
    for f in (constant_one(), steinhaus_sample(31)):
        m2 = m2_exact(f, 1, t_bound, SUPP20, TABLE)
        m1 = m1_exact(f, t_bound, SUPP20)
        assert m2 == pytest.approx(m1, rel=1e-12)


def test_m2_quadrature_reduces_to_m1_at_n1():
    t_bound = 1e3
    f = steinhaus_sample(4)
    m2 = m2_quadrature(f, 1, t_bound, SUPP20, TABLE)
    m1 = m1_quadrature(f, t_bound, SUPP20)
    assert m2 == pytest.approx(m1, rel=1e-8)


def test_m2_exact_vs_quadrature_tiny():
    t_bound = 1e3
    for f in (constant_one(), steinhaus_sample(12345), archimedean_cmf(1.0)):
        quad = m2_quadrature(f, 3, t_bound, SUPP20, TABLE)
        exact = m2_exact(f, 3, t_bound, SUPP20, TABLE)
        assert quad == pytest.approx(exact, rel=1e-6)


def test_m2_exact_diagonal_is_f_free():
    # At T = 1e4 the off-diagonal terms are negligible and the diagonal
    # m*a = n*b terms carry no f dependence at all.
    t_bound = 1e4
    values = [
        m2_exact(f, 3, t_bound, SUPP20, TABLE)
        for f in (constant_one(), steinhaus_sample(7), archimedean_cmf(0.7))
    ]
    assert values[0] == pytest.approx(values[1], rel=1e-8)
    assert values[0] == pytest.approx(values[2], rel=1e-8)


def test_m2_bounded_by_n_m1():
    t_bound = 1e3
    f = constant_one()
    n_max = 3
    m2 = m2_quadrature(f, n_max, t_bound, SUPP20, TABLE)
    m1 = m1_quadrature(f, t_bound, SUPP20)
    assert m2 <= n_max * m1 * (1.0 + 1e-8)


def _dense_window_integral(polys, t_bound, b):
    """The same window integral with the dense exp(1j * outer(t, logs))
    integrand through the reference rule composite_gl."""

    def integrand(t):
        out = b.phi_vec(t / t_bound)
        for coeffs, logs in polys:
            vals = np.exp(1j * np.multiply.outer(t, logs)) @ coeffs
            out = out * (vals * vals.conjugate()).real
        return out

    max_freq = sum(float(logs.max(initial=0.0)) for _, logs in polys)
    value, _ = adaptive_oscillatory(
        integrand, b.lo * t_bound, b.hi * t_bound, max_freq=max_freq, rel_tol=1e-8,
        rule=composite_gl,
    )
    return value.real


CRITERION3 = [(n, t, lx) for n in (3, 4, 12) for t in (1e3, 1e4) for lx in (20.0, 20.2)]
CRITERION3_FS = (constant_one(), steinhaus_sample(12345), archimedean_cmf(1.0))


@pytest.mark.parametrize("idx", range(len(CRITERION3)))
def test_quadrature_moments_match_dense_reference(idx):
    n, t_bound, logx = CRITERION3[idx]
    f = CRITERION3_FS[idx % 3]
    b = default_bump()
    res = build_resonator(math.exp(logx), TABLE)
    supp = support_elements(res, res.x)
    r_poly = _support_coeff_logs(f, supp)
    d_poly = (
        values_up_to(f, n, TABLE) / math.sqrt(n),
        np.log(np.arange(1, n + 1, dtype=np.float64)),
    )
    m1_ref = _dense_window_integral([r_poly], t_bound, b)
    m2_ref = _dense_window_integral([r_poly, d_poly], t_bound, b)
    assert m1_quadrature(f, t_bound, supp) == pytest.approx(m1_ref, rel=1e-12)
    assert m2_quadrature(f, n, t_bound, supp, TABLE) == pytest.approx(m2_ref, rel=1e-12)


# m1_quadrature and m2_quadrature with each level's panel sums added by numpy's pairwise
# sum, the same under any BLAS thread count: (N, T, log X, f, M1, M2).
QUADRATURE_PINS = [
    (3, 1e3, 20.0, constant_one(), 396.79546424213396, 396.7974271620906),
    (4, 1e4, 20.2, steinhaus_sample(12345), 4174.399071895654, 4174.39907189667),
    (12, 1e4, 20.0, archimedean_cmf(1.0), 3967.95464242134, 3967.954646773768),
]


@pytest.mark.parametrize("idx", range(len(QUADRATURE_PINS)))
def test_quadrature_moments_pinned(idx):
    # Scanning a group of nodes per chunk moves no float of either moment.
    n, t_bound, logx, f, m1, m2 = QUADRATURE_PINS[idx]
    res = build_resonator(math.exp(logx), TABLE)
    supp = support_elements(res, res.x)
    assert m1_quadrature(f, t_bound, supp) == m1
    assert m2_quadrature(f, n, t_bound, supp, TABLE) == m2


def test_m2_quadrature_memory():
    # The dense integrand held every abscissa times every term (134.6 MiB
    # here); a group of nodes per chunk of panels, the grid kernel needs a few MiB.
    res = build_resonator(math.exp(20.2), TABLE)
    supp = support_elements(res, res.x)
    f = steinhaus_sample(1)
    tracemalloc.start()
    try:
        m2_quadrature(f, 12, 1e4, supp, TABLE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


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


def test_diagonal_sum_budget():
    # The budget counts the |S|^2 gcd-matrix entries of the support S <= X and
    # is checked before anything with an entry per integer <= X is built.
    toy = ToyResonator(values={1: 1.0, 2: 1.0})
    with pytest.raises(ResourceLimitError):
        diagonal_sum(toy, 50, 50.0, TABLE, budget=3)
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimitError) as exc:
        diagonal_sum(toy, 50, 1e9, budget=3)
    assert time.perf_counter() - t0 < 0.1
    assert exc.value.needed == 4


def test_dense_diagonal_keeps_pairs_off_the_multiplicative_support():
    # r(2) = r(3) = 0, but a' = 2, b' = 3, g = 5 pairs 10 with 15:
    # floor(3/3) r(10) r(15) twice, on top of floor(3/1) for each of 1, 10, 15.
    toy = ToyResonator(values={1: 1.0, 10: 1.0, 15: 1.0})
    assert diagonal_sum(toy, 3, 15.0) == 11.0
    assert diagonal_sum_bruteforce(toy, 3, 15.0) == 11.0


@settings(max_examples=60, deadline=None)
@given(
    values=st.dictionaries(st.integers(2, 40), st.floats(-2.0, 2.0), max_size=20),
    data=st.data(),
)
def test_dense_diagonal_matches_bruteforce_property(values, data):
    # Any weights: prime powers, zeros, signs and keys above X, multiplicative or not.
    toy = ToyResonator(values={1: 1.0, **values})
    n_max = data.draw(st.integers(1, 250))
    x = data.draw(st.floats(1.0, min(60.0, BRUTE_FORCE_CAP / n_max)))
    fast = diagonal_sum(toy, n_max, x)
    brute = diagonal_sum_bruteforce(toy, n_max, x)
    unsigned = ToyResonator({n: abs(v) for n, v in toy.values.items()})
    size = diagonal_sum_bruteforce(unsigned, n_max, x)
    assert abs(fast - brute) <= 1e-12 * max(1.0, size)


def _loop_diagonal_sum(res, n_max, x):
    """The dense triple loop over (a', b', g) that the gcd-matrix kernel replaced."""
    x_int = math.floor(x)
    r_vec = [0.0] + [float(res.value(k)) for k in range(1, x_int + 1)]
    z_int = min(n_max, x_int)
    terms = []
    for a in range(1, z_int + 1):
        for bb in range(1, z_int + 1):
            if math.gcd(a, bb) != 1:
                continue
            mx = max(a, bb)
            inner = [r_vec[a * g] * r_vec[bb * g] for g in range(1, math.floor(x / mx) + 1)]
            inner = [v for v in inner if v != 0.0]
            if inner:
                terms.append((n_max // mx) * math.fsum(inner))
    return math.fsum(terms)


def _loop_diagonal_lower_bound(res, n_max, x):
    """The coprime-restricted diagonal: floor(N/max) r(a') r(b') r(g)^2 over
    coprime (a', b') and g <= X/max coprime to a'b'."""
    x_int = math.floor(x)
    r_vec = [0.0] + [float(res.value(k)) for k in range(1, x_int + 1)]
    z_int = min(n_max, x_int)
    terms = []
    for a in range(1, z_int + 1):
        for bb in range(1, z_int + 1):
            if math.gcd(a, bb) != 1:
                continue
            mx = max(a, bb)
            ab = a * bb
            inner = [
                r_vec[g] * r_vec[g]
                for g in range(1, math.floor(x / mx) + 1)
                if math.gcd(g, ab) == 1 and r_vec[g] != 0.0
            ]
            if inner and r_vec[a] != 0.0 and r_vec[bb] != 0.0:
                terms.append((n_max // mx) * r_vec[a] * r_vec[bb] * math.fsum(inner))
    return math.fsum(terms)


@pytest.mark.parametrize("squarefree", [True, False])
def test_dense_diagonal_matches_loops(squarefree):
    # One correctly rounded sum replaces the loops' sum of per-pair sums, so
    # values agree up to rounding; the budget counts the |S|^2 gcd-matrix
    # entries of the support S <= X.
    for seed in range(3):
        toy = random_toy_resonator(np.random.default_rng(300 + seed), cap=40, squarefree=squarefree)
        for n_max, x in ((40, 40.0), (17, 40.0), (40, 23.5), (6, 1.0), (1, 33.0)):
            want = _loop_diagonal_sum(toy, n_max, x)
            needed = sum(1 for n, v in toy.values.items() if n <= x and v != 0.0) ** 2
            got = diagonal_sum(toy, n_max, x, TABLE, budget=needed)
            assert got == pytest.approx(want, rel=1e-14)
            with pytest.raises(ResourceLimitError) as exc:
                diagonal_sum(toy, n_max, x, TABLE, budget=needed - 1)
            assert exc.value.needed == needed


def test_dense_diagonal_memory():
    # The loop held one float per coprime pair (about 1.4e6 here); the
    # gcd-matrix kernel holds one row block of the 1500 x 1500 matrix at a time.
    n = 1500
    toy = ToyResonator(values=dict.fromkeys(range(1, n + 1), 1.0))
    tracemalloc.start()
    try:
        diagonal_sum(toy, n, float(n), TABLE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


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


def test_diag_g_cap_is_bisected(monkeypatch, tmp_path):
    # X = 1e40 and a support over budget: each try at g_cap = X/16^k builds the
    # support <= g_cap, for k up to k_max = 34 (the first cap below 1), and the
    # first to fit is k = 28.  Trying the caps in turn took 28 builds; a
    # bisection takes at most ceil(log2 34) + 1.
    built = []
    real = moments.support_arrays

    def counted(res, cap, budget):
        built.append(cap)
        return real(res, cap, budget)

    monkeypatch.setattr(moments, "support_arrays", counted)
    out = tmp_path / "out.json"
    argv = ["certify", "--n", "10", "--t", "1e60", "--budget-terms", "100000"]
    assert cli_main([*argv, "--out", str(out)]) == 0
    report = json.loads(out.read_text())["report"]
    x = report["x"]
    k_max = next(k for k in range(1, 100) if x / 16.0**k < 1.0)
    assert k_max == 34
    g_caps = {x / 16.0**k for k in range(1, k_max + 1)}
    caps = [cap for cap in built if cap in g_caps]
    assert report["flags"]["diag_g_cap"] == x / 16.0**28
    assert report["flags"]["diag_g_cap"] in caps
    assert len(caps) <= math.ceil(math.log2(k_max)) + 1


def test_diag_g_cap_raises_the_last_caps_error(monkeypatch):
    # When no cap fits, the error is the one of the first cap below 1,
    # X/16^8 at X = e^20, as when the caps were tried in turn.  Every cap
    # >= 1 keeps the element 1, so only that last cap leaves an empty support.
    tried = []

    def refuse(sup, n_max, x, budget):
        tried.append(len(sup.ns))
        raise ResourceLimitError(f"support of {len(sup.ns)} elements", needed=1, budget=0)

    monkeypatch.setattr(moments, "_window_diagonal", refuse)
    with pytest.raises(ResourceLimitError) as info:
        ratio_and_bounds(RES20, None, 3, 1e4, 0.5, 0.5, TABLE, exact_mode="never")
    assert RES20.x / 16.0**7 >= 1.0 > RES20.x / 16.0**8
    assert str(info.value) == "support of 0 elements"
    assert tried.count(0) == 1
    assert tried[0] == len(support_arrays(RES20, RES20.x).ns)  # the uncapped diagonal
    assert len(tried[1:]) <= math.ceil(math.log2(8)) + 1


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


@pytest.mark.parametrize("n_max", [100_000, 1_000_000, 10_000_000])
def test_pair_sums_memory_is_flat(n_max):
    # The main term and the alpha-tail stream the coprime pairs of the
    # support <= N (C = 3, X = N^2) as tiles: their peak does not grow with
    # the pair count (2.6e6 ordered pairs at N = 1e7).
    x = float(n_max) ** 2
    res = build_resonator(x, TABLE)
    tracemalloc.start()
    try:
        moment_main_term(res, n_max, x)
        alpha_shift_error_term(res, n_max, x, res.alpha_default)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


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


def _capped_diagonal(res: Resonator, n_max: int, x: float, g_cap: float) -> float:
    """The diagonal cut at g_cap, as ratio_and_bounds' fallback takes it:
    the window kernel over the support <= min(X, g_cap)."""
    sup = support_arrays(res, min(x, g_cap))
    return moments._window_diagonal(sup, n_max, x, moments.DEFAULT_TERM_BUDGET)


def test_diagonal_sum_g_cap_window_resonator():
    n_max = 100_000
    x = float(n_max) ** 2
    res = build_resonator(x, TABLE)
    full = diagonal_sum(res, n_max, x, TABLE)
    assert _capped_diagonal(res, n_max, x, 2.0 * x) == full
    previous = full
    for g_cap in (x / 16.0, 1e6, 1e3, 100.0):
        capped = _capped_diagonal(res, n_max, x, g_cap)
        assert 0.0 < capped <= previous
        previous = capped
    # The cap bounds the pair elements too: only (1, 1) with g = 1 is left.
    assert _capped_diagonal(res, n_max, x, 1.0) == float(n_max)


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


def _capped_bruteforce(res: Resonator, n_max: int, x: float, g_cap: float) -> float:
    """sum of r(a) r(b) over m, n <= N and support a, b <= X with ma = nb,
    by matching products, over the quadruples that the diagonal cut at
    g_cap keeps: g = gcd(a, b) <= g_cap and a/g, b/g <= g_cap."""
    by_product = defaultdict(list)
    for e in support_elements(res, x):
        for m in range(1, n_max + 1):
            by_product[m * e.n].append(e)
    return math.fsum(
        a.r * b.r
        for group in by_product.values()
        for a in group
        for b in group
        if (g := math.gcd(a.n, b.n)) <= g_cap and max(a.n, b.n) // g <= g_cap
    )


@settings(max_examples=60, deadline=None)
@given(
    primes=st.lists(st.sampled_from(SMALL_PRIMES), max_size=8, unique=True).map(sorted),
    data=st.data(),
)
def test_diagonal_sum_g_cap_matches_bruteforce_property(primes, data):
    weights = data.draw(
        st.lists(st.floats(0.05, 2.0), min_size=len(primes), max_size=len(primes))
    )
    n_max = data.draw(st.integers(1, 200))
    x = data.draw(st.floats(1.0, BRUTE_FORCE_CAP / n_max))
    g_cap = data.draw(st.floats(1.0, 2.0 * x))
    res = _resonator_on(primes, weights, x)
    fast = _capped_diagonal(res, n_max, x, g_cap)
    assert fast == pytest.approx(_capped_bruteforce(res, n_max, x, g_cap), rel=1e-12)


def _per_element_diagonal(sup: SupportArrays, n_max: int, x: float, g_cap=None) -> float:
    """The per-element diagonal kernel the tiled one replaced: for each
    larger element k, its partners i <= k by gcd, the g-prefix
    <= min(X/n_k, g_cap) filtered to g coprime to n_k, and one masked
    product with r^2 for all its partners."""
    count = len(sup.upto(min(float(n_max), x)).ns)
    ns = sup.ns.tolist()
    r2 = sup.r * sup.r
    terms = []
    for k in range(count):
        idx = np.array([i for i in range(k + 1) if math.gcd(ns[i], ns[k]) == 1])
        n_k = ns[k]
        g = sup.upto(x / n_k if g_cap is None else min(x / n_k, g_cap))
        g_ok = np.flatnonzero(disjoint(g.masks, sup.masks[k]))
        inner = disjoint(sup.masks[idx, None], g.masks[None, g_ok]) @ r2[g_ok]
        terms.append(((n_max // n_k) * float(sup.r[k])) * sup.r[idx] * inner)
    return moments._pair_fsum(terms)


@pytest.mark.parametrize("n_max, g_cap", [(1_000_000, None), (2_000_000, None), (2_000_000, 1e8)])
def test_window_diagonal_matches_per_element_kernel(n_max, g_cap):
    # The supports of `certify --n N --c 3` (X = N^2).  At N = 2e6, 296
    # elements are <= N: five column groups, the last with two row batches,
    # so batches off the group's own columns run too.
    x = float(n_max) ** 2
    res = build_resonator(x, TABLE)
    sup = support_arrays(res, x if g_cap is None else min(x, g_cap))
    tiled = moments._window_diagonal(sup, n_max, x, moments.DEFAULT_TERM_BUDGET)
    assert tiled == pytest.approx(_per_element_diagonal(sup, n_max, x, g_cap), rel=1e-13)


@pytest.mark.parametrize("n_max", [1_000_000, 2_000_000, 5_000_000])
def test_window_diagonal_independent_of_chunk_width(monkeypatch, n_max):
    # INNER is the exact limb sum whatever the chunks of the g-range, so
    # narrow chunks of uneven widths (_TILE cut to 5000, _LIMB kept) give
    # the same bits.  At N = 5e6 the g-ranges reach 93 186 elements, past
    # 2^16, beyond which the limb sums of a g-range could reach 2^53.
    x = float(n_max) ** 2
    sup = support_arrays(build_resonator(x, TABLE), x)
    want = moments._window_diagonal(sup, n_max, x, moments.DEFAULT_TERM_BUDGET)
    monkeypatch.setattr(moments, "_TILE", 5000)
    assert moments._window_diagonal(sup, n_max, x, moments.DEFAULT_TERM_BUDGET) == want


def test_window_diagonal_refuses_g_ranges_past_exact_int64_sums(monkeypatch):
    # A g-range of 2^(63 - _LIMB) elements could carry the int64 limb sums
    # past 2^63.  With _LIMB = 50 that is 8192 elements, fewer than the
    # 10 504 of the support <= X at N = 2e6.
    n_max = 2_000_000
    x = float(n_max) ** 2
    sup = support_arrays(build_resonator(x, TABLE), x)
    monkeypatch.setattr(moments, "_LIMB", 50)
    with pytest.raises(ResourceLimitError) as info:
        moments._window_diagonal(sup, n_max, x, moments.DEFAULT_TERM_BUDGET)
    assert info.value.needed == len(sup.ns) > info.value.budget == 2**13 - 1


def test_window_diagonal_memory_is_flat():
    # The stated bound: at most a dozen arrays of _TILE float64 entries,
    # however large the support <= X (32 to 309 632 elements here) and the
    # pair count.
    bound = 12 * moments._TILE * 8
    for n_max in (100_000, 300_000, 1_000_000, 2_000_000, 10_000_000):
        x = float(n_max) ** 2
        sup = support_arrays(build_resonator(x, TABLE), x)
        tracemalloc.start()
        try:
            moments._window_diagonal(sup, n_max, x, moments.DEFAULT_TERM_BUDGET)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (n_max, peak)


def _exact_sum(chunks) -> float:
    total = moments._ExactSum()
    for chunk in chunks:
        total.add(np.asarray(chunk, dtype=np.float64))
    return total.value()


def _bits_or_error(fn):
    """fn()'s float as hex (so the sign of a zero counts), or the type of its error."""
    try:
        return fn().hex()
    except (ValueError, OverflowError) as exc:
        return type(exc)


# Finite floats of both signs from subnormals (and zero) up to ~1e300.
_WIDE_FLOATS = st.one_of(
    st.floats(-1e300, 1e300),
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1080, 996)),
)


@settings(max_examples=300, deadline=None)
@given(terms=st.lists(_WIDE_FLOATS, max_size=200), data=st.data())
def test_exact_sum_is_fsum_property(terms, data):
    # Streamed in uneven chunks, with small chunk and fold sizes so that the
    # chunk loop and the folds into the integer run mid-stream.
    cuts = sorted(data.draw(st.lists(st.integers(0, len(terms)), max_size=6)))
    chunks = [terms[a:b] for a, b in zip([0, *cuts], [*cuts, len(terms)])]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moments._ExactSum, "_CHUNK", data.draw(st.integers(1, 64)))
        mp.setattr(moments._ExactSum, "_FOLD", data.draw(st.integers(64, 256)))
        got = _exact_sum(chunks)
    assert got.hex() == math.fsum(terms).hex()


@settings(max_examples=200, deadline=None)
@given(
    big=st.lists(_WIDE_FLOATS, min_size=1, max_size=60),
    small=st.lists(st.floats(-1e-20, 1e-20), max_size=20),
    data=st.data(),
)
def test_exact_sum_cancellation_property(big, small, data):
    # Every big term cancels against its negation, leaving the small ones.
    terms = data.draw(st.permutations(big + [-v for v in big] + small))
    assert _exact_sum([terms]).hex() == math.fsum(terms).hex() == math.fsum(small).hex()


def test_exact_sum_million_terms():
    rng = np.random.default_rng(7)
    n = 1_000_000
    terms = np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(-1070, 990, n))
    terms[::3] *= 1e-200  # some subnormals and heavy scale mixing
    assert _exact_sum(np.array_split(terms, 7)).hex() == math.fsum(terms.tolist()).hex()


@pytest.mark.parametrize(
    "chunks",
    [
        [[math.inf, -math.inf]],
        [[math.inf], [1.0, -math.inf]],
        [[1e308, 1e308]],
        [[math.inf, 1.0]],
        [[-math.inf, 2.0, -math.inf]],
        [[math.nan, 1.0]],
        [[1.0], [math.nan, math.inf]],
        [[1e308, 1e308, math.inf]],
        [[], [-0.0]],
    ],
)
def test_exact_sum_special_values_as_fsum(chunks):
    # ValueError for infinities of both signs, OverflowError past the float
    # range, and otherwise fsum's infinity or NaN.
    want = _bits_or_error(lambda: math.fsum(v for c in chunks for v in c))
    assert _bits_or_error(lambda: _exact_sum(chunks)) == want


def test_certify_report_independent_of_blas_threads():
    # The inner g-sums' limb products are exact, so no BLAS thread count
    # can move a report; a floating-point matrix product can split its
    # sums differently under 1 and 2 threads.  The tiny certify's quadrature
    # moments add their panel sums by numpy's pairwise sum, and the certified
    # search at |t| ~ T/2 scans with range-reduced anchor rows and real Taylor
    # products.
    src = str(Path(moments.__file__).resolve().parents[1])
    commands = [
        ["certify", "--n", "2000000", "--c", "3"],
        ["certify", "--n", "4", "--t", "1e4", "--x", "598741417.6", "--f", "steinhaus",
         "--seed", "3"],
        ["search", "--n", "500", "--t", "6.25e10", "--f", "steinhaus", "--seed", "3",
         "--window-lo", "3.125e10", "--window-hi", "3.125000001e10"],
    ]
    for argv in commands:
        texts = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
            proc = subprocess.run(
                [sys.executable, "-m", "rescert", *argv],
                env=env, capture_output=True, text=True, check=True,
            )
            stamp = json.loads(proc.stdout)["generated_at"]
            texts.append(proc.stdout.replace(stamp, "<generated-at>"))
        assert texts[0] == texts[1], argv


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
        assert moment_main_term(res, n_max, x) == pytest.approx(main, rel=1e-12)
        shift = {p: 1.0 + res.r_p[p] ** 2 * p**alpha for p in primes}
        bracket = math.fsum(
            a.r * b.r * (a.n * b.n) ** (alpha - 0.5)
            * math.prod(v for p, v in shift.items() if (a.n * b.n) % p)
            for a, b in pairs
        )
        plain = math.prod(1.0 + res.r_p[p] ** 2 for p in primes)
        assert alpha_shift_error_term(res, n_max, x, alpha) == pytest.approx(
            x**-alpha * bracket / plain, rel=1e-12
        )
        ab = 2 * primes[top]
        kept = [e.r**2 for e in support_elements(res, x) if math.gcd(e.n, ab) == 1]
        full = plain / ((1.0 + res.r_p[2] ** 2) * (1.0 + res.r_p[primes[top]] ** 2))
        tail, _ = tail_truncation_check(res, ab, x, alpha)
        assert tail == pytest.approx(full - math.fsum(kept), rel=1e-9)
    sup = support_arrays(res, x)  # the 130-prime input
    assert sup.masks.shape[1] == 3 and 2 * 733 in sup.ns.tolist()


def test_report_decay_constant_follows_nu():
    # Reports in one process, nu changing and coming back: each report reads the
    # default window's constant for its own nu.
    for nu in (3, 2, 4, 3):
        report = ratio_and_bounds(RES20, constant_one(), 100, 1e6, 0.5, 0.5, TABLE, nu=nu)
        assert report.decay_constant == decay_constant(default_bump(), nu, DEFAULT_DECAY_GRID)


def test_diagonal_lower_bound_equality_on_squarefree():
    # On a multiplicative r with squarefree support the coprime-restricted form
    # that the window kernel sums is the whole diagonal.
    toy = ToyResonator(values={1: 1.0, 2: 0.7, 3: 0.4, 6: 0.28})
    lo = _loop_diagonal_lower_bound(toy, 6, 6.0)
    full = diagonal_sum(toy, 6, 6.0, TABLE)
    assert lo == pytest.approx(full, rel=1e-12)


def test_min_offdiag_gap():
    assert min_offdiag_gap(2, 2) == pytest.approx(math.log(2.0), rel=1e-14)
    assert min_offdiag_gap(3, 2) == pytest.approx(math.log(4.0 / 3.0), rel=1e-14)
    for n, x in ((2, 2), (10, 7), (25, 25)):
        assert min_offdiag_gap(n, x) >= 1.0 / (n * x)
    with pytest.raises(ValueError):
        min_offdiag_gap(1, 1)


# -- envelopes and tail bounds ----------------------------------------------


def test_offdiag_bound_formula():
    val = offdiag_bound(10, 100.0, 1e6, 3, c_nu=2.0, sum_r=1.5)
    expected = (1e6 / 10) * 10**2 * 1.5**2 * 2.0 * (1e6 / (10 * 100.0)) ** -3
    assert val == pytest.approx(expected, rel=1e-14)


def test_m1_offdiag_bound_formula():
    val = m1_offdiag_bound(100.0, 1e6, 3, c_nu=2.0, sum_r=1.5)
    expected = 1e6 * 1.5**2 * 2.0 * (1e6 / 100.0) ** -3
    assert val == pytest.approx(expected, rel=1e-14)


def test_moment_main_term():
    assert moment_main_term(EMPTY, 10, EMPTY.x) == 1.0
    expected = 1.0 + 2.0 * T61 / 61.0**2
    assert moment_main_term(RES20, 100, math.exp(20.0)) == pytest.approx(
        expected, rel=1e-12
    )
    assert moment_main_term(RES20, 100, math.exp(20.0)) >= 1.0


def test_alpha_shift_error_term_trivial():
    x = EMPTY.x
    assert alpha_shift_error_term(EMPTY, 10, x, 0.1) == pytest.approx(
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
    got = alpha_shift_error_term(RES20, 100, x, alpha)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got > 0.0


def test_alpha_shift_error_term_validation():
    with pytest.raises(ValueError):
        alpha_shift_error_term(RES20, 10, RES20.x, 0.0)
    with pytest.raises(ValueError):
        alpha_shift_error_term(RES20, 10, RES20.x, 0.5)


def test_tail_truncation_full_cap():
    tail, shifted = tail_truncation_check(RES20, 1, 100.0, 0.1)
    assert tail == 0.0
    assert shifted > 0.0


def test_tail_truncation_cap_one():
    alpha = 0.1
    tail, shifted = tail_truncation_check(RES20, 1, 1.0, alpha)
    assert tail == pytest.approx(R61 * R61, rel=1e-12)
    assert shifted == pytest.approx(1.0 + R61 * R61 * 61.0**alpha, rel=1e-12)
    assert tail < shifted


def test_tail_truncation_excluded_prime():
    # ab divisible by 61 removes the only window prime: no tail at all.
    tail, shifted = tail_truncation_check(RES20, 61, 1.0, 0.1)
    assert tail == 0.0
    assert shifted == pytest.approx(1.0, rel=1e-12)


def test_tail_truncation_validation():
    with pytest.raises(ValueError):
        tail_truncation_check(RES20, 1, 0.5, 0.1)
    with pytest.raises(ValueError):
        tail_truncation_check(RES20, 1, 10.0, 0.7)


def test_balanced_pair_bound_below_window():
    # Support below the window is just {1}: the pair sum is 1 and the
    # comparison term collapses to 1 / log z.
    lhs, rhs = balanced_pair_bound_check(RES20, 10.0)
    assert lhs == 1.0
    assert rhs == pytest.approx(1.0 / math.log(10.0), rel=1e-12)
    assert rhs < 1.0


def test_balanced_pair_bound_past_window():
    lhs, rhs = balanced_pair_bound_check(RES20, 100.0)
    assert lhs == pytest.approx(1.0 + 2.0 * T61 / 61.0**2, rel=1e-12)
    expected_rhs = (1.0 + T61 / math.sqrt(61.0)) ** 2 / math.log(100.0)
    assert rhs == pytest.approx(expected_rhs, rel=1e-12)
    assert lhs >= rhs


def test_balanced_pair_bound_validation():
    with pytest.raises(ValueError):
        balanced_pair_bound_check(RES20, 1.0)


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
