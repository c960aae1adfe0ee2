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

from rescert import dirichlet, moments
from rescert.bump import TOLERANCE, Bump, default_bump
from rescert.cli import main as cli_main
from rescert.dirichlet import RESYNC_STRIDE, _dn_terms, _support_coeff_logs
from rescert.errors import ResourceLimitError
from rescert.moments import (
    _offdiag_eps,
    alpha_shift_error_term,
    balanced_pair_bound_check,
    diagonal_sum,
    growth_bound_from_n,
    growth_bound_from_t,
    m1_exact,
    m1_quadrature,
    m2_exact,
    m2_quadrature,
    min_offdiag_gap,
    moment_main_term,
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
RES20 = build_resonator(math.exp(20.0))  # support {1, 61}
R61 = RES20.r_p[61]
T61 = R61 / (1.0 + R61 * R61)
SUPP20 = support_elements(RES20, RES20.x)
EMPTY = build_resonator(math.exp(19.0))  # window holds no prime
PHI0 = default_bump().transform(0.0).real


def _m1_main(res, t_bound):
    """The report's m1_main field: T * phi_hat(0) * sum of r(n)^2 over the support <= X."""
    return ratio_and_bounds(res, None, 1, t_bound, 0.5, 0.5, exact_mode="never").m1_main


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
        m2 = m2_exact(f, 1, t_bound, SUPP20)
        m1 = m1_exact(f, t_bound, SUPP20)
        assert m2 == pytest.approx(m1, rel=1e-12)


def test_m2_quadrature_reduces_to_m1_at_n1():
    t_bound = 1e3
    f = steinhaus_sample(4)
    m2 = m2_quadrature(f, 1, t_bound, SUPP20)
    m1 = m1_quadrature(f, t_bound, SUPP20)
    assert m2 == pytest.approx(m1, rel=1e-8)


def test_m2_exact_vs_quadrature_tiny():
    t_bound = 1e3
    for f in (constant_one(), steinhaus_sample(12345), archimedean_cmf(1.0)):
        quad = m2_quadrature(f, 3, t_bound, SUPP20)
        exact = m2_exact(f, 3, t_bound, SUPP20)
        assert quad == pytest.approx(exact, rel=1e-6)


def test_m2_exact_diagonal_is_f_free():
    # At T = 1e4 the off-diagonal terms are negligible and the diagonal
    # m*a = n*b terms carry no f dependence at all.
    t_bound = 1e4
    values = [
        m2_exact(f, 3, t_bound, SUPP20)
        for f in (constant_one(), steinhaus_sample(7), archimedean_cmf(0.7))
    ]
    assert values[0] == pytest.approx(values[1], rel=1e-8)
    assert values[0] == pytest.approx(values[2], rel=1e-8)


def test_m2_bounded_by_n_m1():
    t_bound = 1e3
    f = constant_one()
    n_max = 3
    m2 = m2_quadrature(f, n_max, t_bound, SUPP20)
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
    res = build_resonator(math.exp(logx))
    supp = support_elements(res, res.x)
    r_poly = _support_coeff_logs(f, supp)
    d_poly = (
        values_up_to(f, n) / math.sqrt(n),
        np.log(np.arange(1, n + 1, dtype=np.float64)),
    )
    m1_ref = _dense_window_integral([r_poly], t_bound, b)
    m2_ref = _dense_window_integral([r_poly, d_poly], t_bound, b)
    assert m1_quadrature(f, t_bound, supp) == pytest.approx(m1_ref, rel=1e-12)
    assert m2_quadrature(f, n, t_bound, supp) == pytest.approx(m2_ref, rel=1e-12)


# m1_quadrature and m2_quadrature by the trapezoidal rule, each level's points added by
# numpy's pairwise sum, the same under any BLAS thread count, with the doubling started at
# two points per cycle, and the certificate's m1_quad, M1 read off M2's grid by the one scan
# that gives both moments: (N, T, log X, f, M1, M2, report M1).
QUADRATURE_PINS = [
    (3, 1e3, 20.0, constant_one(), 396.795464242134, 396.79742716209074, 396.7954642421341),
    (4, 1e4, 20.2, steinhaus_sample(12345), 4174.399071895655, 4174.399071896674,
     4174.399071895644),
    (12, 1e4, 20.0, archimedean_cmf(1.0), 3967.954642421341, 3967.9546467737287,
     3967.954642421341),
]
# The same moments by composite Gauss-Legendre node groups, the doubling started at one
# panel per cycle: (M1, M2, report M1).  Each pin above stays within 1e-13 relative of them.
QUADRATURE_PINS_GAUSS_LEGENDRE = [
    (396.795464242134, 396.79742716209074, 396.79546424213396),
    (4174.3990718956475, 4174.399071896685, 4174.399071895654),
    (3967.9546424213395, 3967.95464677375, 3967.9546424213395),
]


@pytest.mark.parametrize("idx", range(len(QUADRATURE_PINS)))
def test_quadrature_moments_pinned(idx):
    # The trapezoidal rule stays within 1e-13 relative of the Gauss-Legendre moments, and
    # the one scan of a certificate gives M2's pin with M1 within 1e-13 relative of R's own
    # schedule.
    n, t_bound, logx, f, m1, m2, m1_report = QUADRATURE_PINS[idx]
    for pin, old in zip((m1, m2, m1_report), QUADRATURE_PINS_GAUSS_LEGENDRE[idx]):
        assert pin == pytest.approx(old, rel=1e-13, abs=0.0)
    assert m1_report == pytest.approx(m1, rel=1e-13, abs=0.0)
    res = build_resonator(math.exp(logx))
    supp = support_elements(res, res.x)
    assert m1_quadrature(f, t_bound, supp) == m1
    assert m2_quadrature(f, n, t_bound, supp) == m2
    both = moments._window_integral(_support_coeff_logs(f, supp), t_bound, _dn_terms(f, n))
    assert (both.real, both.imag) == (m1_report, m2)


def test_tiny_certify_sieves_n_inside_moments(tmp_path, sieve_limits):
    # exact="auto" at T = 1e3: the resonator sieves its prime window (to 66).
    # The moments read f(n) for n <= N, but f = one has a closed form, so
    # nothing sieves the integers up to N; the report's quadrature moments
    # are the pinned ones, M1 read off M2's grid.
    n, t_bound, logx, _, _, m2, m1_report = QUADRATURE_PINS[0]
    out = tmp_path / "out.json"
    argv = ["certify", "--n", str(n), "--t", repr(t_bound), "--x", repr(math.exp(logx))]
    assert cli_main([*argv, "--out", str(out)]) == 0
    report = json.loads(out.read_text())["report"]
    assert (report["m1_quad"], report["m2_quad"]) == (m1_report, m2)
    assert sieve_limits == [("rescert.resonator", 66)]


def test_tiny_steinhaus_certify_sieves_n_for_each_m2(tmp_path, sieve_limits):
    # A Steinhaus f(n) needs factorizations: values_up_to sieves N once for
    # M2 by quadrature and once for M2 exact, after the resonator's window.
    out = tmp_path / "out.json"
    argv = ["certify", "--n", "3", "--t", "1000.0", "--x", repr(math.exp(20.0)),
            "--f", "steinhaus", "--seed", "3", "--out", str(out)]
    assert cli_main(argv) == 0
    assert json.loads(out.read_text())["report"]["m2_exact"] is not None
    assert sieve_limits == [
        ("rescert.resonator", 66), ("rescert.multfn", 3), ("rescert.multfn", 3)
    ]


def test_exact_moments_refuse_n_past_the_sieve_cap_before_m1(monkeypatch, capsys):
    # M2 reads f(n) for n <= N, so an N past the sieve's cap is refused before any moment
    # work: before the one quadrature scan that gives M1 and M2, and before M1 exact.
    def never(*args):
        raise AssertionError("moment computed before the N cap refusal")

    monkeypatch.setattr(moments, "_window_integral", never)
    monkeypatch.setattr(moments, "m1_exact", never)
    argv = ["certify", "--n", "4294967296", "--t", "1e4", "--x", repr(math.exp(20.0)),
            "--exact", "always", "--f", "steinhaus"]
    assert cli_main(argv) == 3
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["layer"] == "rescert.ntcore"


@pytest.mark.parametrize("idx", range(len(CRITERION3)))
def test_quadrature_moments_converge_in_two_levels(idx, monkeypatch):
    # Two trapezoid points per cycle already meet the 1e-8 tolerance (the aliasing error is
    # about |phi_hat(T * omega)|), so the second level, at four points per cycle, confirms it
    # and no third level runs, for M1 and for M2.  M2's scan carries M1 + i*M2 on M2's grid,
    # the certificate's one scan, and each part meets the tolerance there on its own.
    n, t_bound, logx = CRITERION3[idx]
    f = CRITERION3_FS[idx % 3]
    levels = []
    rule = moments.trapezoid_grid

    def recorded(fn, a, b, panels):
        value = rule(fn, a, b, panels)
        levels.append((panels, value))
        return value

    monkeypatch.setattr(moments, "trapezoid_grid", recorded)
    res = build_resonator(math.exp(logx))
    supp = support_elements(res, res.x)
    m1_quadrature(f, t_bound, supp)
    assert len(levels) == 2 and levels[1][0] == 2 * levels[0][0]
    levels.clear()
    m2 = m2_quadrature(f, n, t_bound, supp)
    assert len(levels) == 2 and levels[1][0] == 2 * levels[0][0]
    (_, first), (_, second) = levels
    assert second.imag == m2 and second.real > 0.0
    assert abs(second.real - first.real) <= 1e-8 * abs(second.real)
    assert abs(second.imag - first.imag) <= 1e-8 * abs(second.imag)


def test_tiny_certify_scans_r_once_per_quadrature_level(tmp_path, monkeypatch):
    # One scan gives both quadrature moments: R's grid-kernel pass runs once per level (two
    # levels here), not once per level of M1 and again of M2, and D_N's pass once per level
    # too.
    n, t_bound, logx, *_ = QUADRATURE_PINS[0]
    res = build_resonator(math.exp(logx))
    support_size = len(support_elements(res, res.x))
    assert support_size != n
    scans, levels = [], []
    grid_abs2, rule = moments._grid_abs2, moments.trapezoid_grid

    def counted(coeffs, *args):
        scans.append(coeffs.size)
        return grid_abs2(coeffs, *args)

    def recorded(fn, a, b, panels):
        levels.append(panels)
        return rule(fn, a, b, panels)

    monkeypatch.setattr(moments, "_grid_abs2", counted)
    monkeypatch.setattr(moments, "trapezoid_grid", recorded)
    argv = ["certify", "--n", str(n), "--t", repr(t_bound), "--x", repr(math.exp(logx))]
    assert cli_main([*argv, "--out", str(tmp_path / "out.json")]) == 0
    assert len(levels) == 2
    assert scans == [support_size, n, support_size, n]


# m1_exact and m2_exact on criterion 3's cells, f = CRITERION3_FS[idx % 3], each cell on a
# fresh Bump so the transform memo does not depend on the tests run before: float.hex of
# (M1, M2), recorded with the per-term loop that _termwise_reference keeps.
EXACT_PINS = [
    ("0x1.8ccba38b691a6p+8", "0x1.8ccc242fbe1f1p+8"),
    ("0x1.a17b3e4ccdd21p+8", "0x1.a17b5fa7571dep+8"),
    ("0x1.effe8c6e43611p+11", "0x1.effe8c6e43604p+11"),
    ("0x1.04e6629893eb1p+12", "0x1.04e6629893eaap+12"),
    ("0x1.8ccba38b691a6p+8", "0x1.8cceac725ee8fp+8"),
    ("0x1.a16cb38c559d8p+8", "0x1.a16a48d853095p+8"),
    ("0x1.effe8c6e4360dp+11", "0x1.effe8c6e4345fp+11"),
    ("0x1.04e6629936493p+12", "0x1.04e66299368f8p+12"),
    ("0x1.8ccba38b691a6p+8", "0x1.8d18be55ea903p+8"),
    ("0x1.a16b233bdb4efp+8", "0x1.a2cdf0ebbcd7fp+8"),
    ("0x1.effe8c6e43612p+11", "0x1.effe8c610e99cp+11"),
    ("0x1.04e6629893afcp+12", "0x1.04f41e7be02cfp+12"),
]


@pytest.mark.parametrize("idx", range(len(CRITERION3)))
def test_exact_moments_pinned(idx, monkeypatch):
    n, t_bound, logx = CRITERION3[idx]
    f = CRITERION3_FS[idx % 3]
    fresh = Bump()
    monkeypatch.setattr(moments, "default_bump", lambda: fresh)
    res = build_resonator(math.exp(logx))
    supp = support_elements(res, res.x)
    got = (m1_exact(f, t_bound, supp).hex(), m2_exact(f, n, t_bound, supp).hex())
    assert got == EXACT_PINS[idx]


def _termwise_reference(coeffs, logs, t_bound, scale, b):
    """_termwise_sum as a per-term loop: one transform call per term in row-major order,
    the products in Python's complex arithmetic, both parts summed by math.fsum."""
    pairs = list(zip(logs, coeffs))
    terms = [
        wq * wv.conjugate() * b.transform(t_bound * (lv - lu))
        for lu, wq in pairs
        for lv, wv in pairs
    ]
    total = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms)) * scale
    return total.real


def _memo_bits(b):
    return [(k, v.real.hex(), v.imag.hex(), deep) for k, (v, deep) in b._memo.items()]


@pytest.mark.parametrize("term_block", [1, 13, moments._TERM_BLOCK])
@pytest.mark.parametrize("shape", ["m1", "m2"])
def test_termwise_sum_matches_per_term_loop(monkeypatch, shape, term_block):
    # The array pass calls the transform once per distinct |xi| in the order the per-term
    # loop first reaches it, so where two distinct floats xi share the memo's 12-digit key
    # the first one decides both values, as in the loop.  Sums, memo keys, values and
    # insertion order all match bit for bit, in one row block or several.
    f = steinhaus_sample(12345)
    t_bound = 1e3
    if shape == "m1":
        res = build_resonator(math.exp(20.2))
        coeffs, logs = _support_coeff_logs(f, support_elements(res, res.x))
    else:
        r_coeffs, _ = _support_coeff_logs(f, SUPP20)
        coeffs = np.multiply.outer(r_coeffs, values_up_to(f, 3)).ravel()
        logs = [math.log(m * e.n) for e in SUPP20 for m in range(1, 4)]
    xi = {abs(t_bound * (lv - lu)) for lu in logs for lv in logs}
    keys = {f"{x:.12e}" for x in xi}
    # The m2-shaped instance has two floats that share a key; the m1-shaped one (numpy
    # logs) has none.
    assert (len(keys) < len(xi)) == (shape == "m2")
    ref_bump, new_bump = Bump(), Bump()
    want = _termwise_reference(coeffs, logs, t_bound, 2.0, ref_bump)
    monkeypatch.setattr(moments, "default_bump", lambda: new_bump)
    monkeypatch.setattr(moments, "_TERM_BLOCK", term_block)
    got = moments._termwise_sum(coeffs, logs, t_bound, 2.0)
    assert got.hex() == want.hex()
    assert _memo_bits(new_bump) == _memo_bits(ref_bump)


def test_m2_quadrature_memory():
    # The dense integrand held every abscissa times every term (134.6 MiB
    # here); a level's grid through the grid kernel needs a few MiB.
    res = build_resonator(math.exp(20.2))
    supp = support_elements(res, res.x)
    f = steinhaus_sample(1)
    tracemalloc.start()
    try:
        m2_quadrature(f, 12, 1e4, supp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_m2_quadrature_builds_step_tables_once_per_level_polynomial_and_shape(monkeypatch):
    # Each level scans its grid with one grid-kernel pass per polynomial, so the explicit
    # step tables are built once per level, polynomial and block shape: a full block of
    # RESYNC_STRIDE points and the short last block.
    builds = []
    for name in ("_step_tables", "_taylor_tables"):
        build = getattr(dirichlet, name)

        def counted(rows, cols, h, logs, *rest, build=build, name=name):
            builds.append((name, rows, cols, logs.size))
            return build(rows, cols, h, logs, *rest)

        monkeypatch.setattr(dirichlet, name, counted)
    levels = []
    rule = moments.trapezoid_grid

    def recorded(fn, a, b, panels):
        levels.append(panels)
        return rule(fn, a, b, panels)

    monkeypatch.setattr(moments, "trapezoid_grid", recorded)
    res = build_resonator(math.exp(20.2))
    supp = support_elements(res, res.x)
    m2_quadrature(steinhaus_sample(1), 12, 1e4, supp)
    assert levels == [1719, 3438] and RESYNC_STRIDE == 10_000
    # 17 189 interior points take a full block and a last one of 7189 points; 34 379 take
    # three full blocks, batched as one, and a last one of 4379 points.
    shapes = {1719: [(100, 100), (85, 85)], 3438: [(100, 100), (67, 66)]}
    want = [
        ("_step_tables", *shape, terms)
        for panels in levels
        for terms in (len(supp), 12)
        for shape in shapes[panels]
    ]
    assert builds == want


# -- diagonal sums ----------------------------------------------------------


def test_diagonal_sum_n1_is_r2_mass():
    assert diagonal_sum(RES20, 1, RES20.x, TABLE) == pytest.approx(
        sum_r_squared(RES20, RES20.x), rel=1e-14
    )


def test_diagonal_sum_toy_example():
    toy = ToyResonator(values={1: 1.0, 2: 1.0})
    assert diagonal_sum(toy, 2, 2.0, TABLE) == pytest.approx(6.0, rel=1e-14)
    assert diagonal_sum_bruteforce(toy, 2, 2.0) == pytest.approx(6.0, rel=1e-14)


@pytest.mark.parametrize("n_max", [2**63, 2**64 + 5])
def test_n_past_int64_refused(n_max):
    # The diagonal's weights floor(N / b') are int64: an N from 2^63 on is refused, for a
    # window resonator and a test resonator alike, before any work.
    toy = ToyResonator(values={1: 1.0, 2: 1.0})
    for res, x in ((RES20, RES20.x), (toy, 2.0)):
        with pytest.raises(ValueError, match="2\\^63"):
            diagonal_sum(res, n_max, x)
    with pytest.raises(ValueError, match="2\\^63"):
        ratio_and_bounds(RES20, None, n_max, 1e30, 0.5, 0.5)
    # Just below the range both still run.
    assert diagonal_sum(toy, 2**63 - 1, 2.0) > 0.0


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


@settings(max_examples=200, deadline=None)
@given(
    values=st.dictionaries(
        st.integers(2, 40),
        st.one_of(
            st.floats(-2.0, 2.0),
            st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(470, 505)),
        ),
        max_size=20,
    ),
    n_max=st.integers(1, 250),
    x=st.floats(1.0, 40.0),
)
def test_dense_diagonal_single_block_is_the_exact_sum_path_property(values, n_max, x):
    # A one-block gcd matrix goes to math.fsum where no partial sum can overflow; with
    # _BLOCK = 1 each row is a block of its own and goes to _ExactSum.  Both give the
    # correctly rounded sum bit for bit, or raise the same error.  Weights up to 2^505 put
    # the sums near the top of the float range, where the one-block matrix keeps _ExactSum
    # unless its terms are bounded well below it.
    toy = ToyResonator(values={1: 1.0, **values})
    built = []
    exact_sum = moments._ExactSum
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moments, "_ExactSum", lambda: built.append(1) or exact_sum())
        one_block = _bits_or_error(lambda: diagonal_sum(toy, n_max, x))
    if all(abs(v) <= 2.0 for v in values.values()):
        assert built == []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moments, "_BLOCK", 1)
        row_blocks = _bits_or_error(lambda: diagonal_sum(toy, n_max, x))
    assert one_block == row_blocks


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
        alpha_default=None,
    )


def _t_by_product(res: Resonator, e) -> float:
    """t(n) = r(n) / prod_{p | n}(1 + r(p)^2) for one support element."""
    return e.r / math.prod(1.0 + res.r_p[p] ** 2 for p in e.primes)


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


# Every field of six certify reports, float.hex for floats, with nested
# dicts flattened to dotted keys: the benchmark's op, a C = 4 run, the
# three budget regimes of BUDGET_REGIMES (the first two take Rankin's
# diagonal over a prefix of the pairs, cut at diag_rankin_cut < N) and an
# X = 1e40 run whose support <= X is over budget, where Rankin's diagonal
# takes the one pair (1, 1).  The tolerance checks and the benchmark's
# reference (ratio, diag_sum and lower_bound) would miss a last-bit move
# in any other field.
REPORT_PINS = {
    "certify --n 2000000 --c 3 --f steinhaus --seed 0": {
        "alpha": "0x1.54975d00895f6p-4",
        "balanced_pair_bound": "0x1.cb90032b9e211p-4",
        "balanced_pair_diag_ratio": "0x1.36a03077f732cp-7",
        "balanced_pair_sum": "0x1.0ab02efff2fafp+0",
        "c": "0x1.8000000000000p+1",
        "delta": "0x1.0000000000000p-1",
        "diag_sum": "0x1.bcdefbdf077aap+21",
        "diagnostic_exponent_ratio": "0x1.38bf3ac39ea90p-6",
        "feasibility.c_le_log_n_pow_gamma": True,
        "feasibility.log_n_gt_3lam_loglog_lam": False,
        "feasibility.log_x_gt_3lam_loglog_lam": True,
        "feasibility.t_ge_n_pow_two_over_delta": False,
        "flags.diag_sum_truncated": False,
        "flags.r2_sum_truncated": False,
        "gamma": "0x1.0000000000000p-1",
        "growth_bound_n": "0x1.48920bf6abc9cp+3",
        "growth_bound_t": "0x1.614bbf2440d7dp+3",
        "lower_bound": "0x1.0c0243449d225p+0",
        "lower_bound_bracket": "0x0.0p+0",
        "m1_exact": None,
        "m1_main": "0x1.14def11219c5dp+62",
        "m1_quad": None,
        "m2_diag_main": "0x1.2f74b4d1ab4fep+62",
        "m2_exact": None,
        "m2_quad": None,
        "main_term": "0x1.0ab02efff2fafp+0",
        "n": 2000000,
        "offdiag_eps1": "0x1.34abfe7fe1a9fp-31",
        "offdiag_eps2": "0x1.18bc4418cc18dp+11",
        "ratio": "0x1.1894bcdcc7bf4p+0",
        "ratio_bracket_hi": "0x1.33d419095f8acp+11",
        "ratio_bracket_lo": "0x0.0p+0",
        "resonator.alpha_default": "0x1.54975d00895f6p-4",
        "resonator.euler_product": "0x1.a99da3362caa3p+0",
        "resonator.is_empty": False,
        "resonator.lam": "0x1.3c57b68aa13a7p+3",
        "resonator.prime_count": 17,
        "resonator.sum_r_squared": "0x1.a99d24363d275p+0",
        "resonator.window_hi": "0x1.7cc9821b92292p+7",
        "resonator.window_lo": "0x1.86e8a8b3d26b4p+6",
        "resonator.x": "0x1.d1a94a200001ap+41",
        "t": "0x1.bc16d674ec800p+62",
        "tail_error": "0x1.dc93c96093331p-3",
        "x": "0x1.d1a94a200001ap+41",
    },
    "certify --n 100000 --c 4": {
        "alpha": "0x1.44d0995a81ff1p-4",
        "balanced_pair_bound": "0x1.2edd5f6812134p-3",
        "balanced_pair_diag_ratio": "0x1.6496ada8ed9d7p-7",
        "balanced_pair_sum": "0x1.0c92212304807p+0",
        "c": "0x1.0000000000000p+2",
        "delta": "0x1.0000000000000p-1",
        "diag_sum": "0x1.7b8b90b76541fp+17",
        "diagnostic_exponent_ratio": "0x1.55780d44526afp-6",
        "feasibility.c_le_log_n_pow_gamma": False,
        "feasibility.log_n_gt_3lam_loglog_lam": False,
        "feasibility.log_x_gt_3lam_loglog_lam": True,
        "feasibility.t_ge_n_pow_two_over_delta": True,
        "flags.diag_sum_truncated": False,
        "flags.r2_sum_truncated": False,
        "gamma": "0x1.0000000000000p-1",
        "growth_bound_n": "0x1.885c8fa02192cp+3",
        "growth_bound_t": "0x1.7392814072939p+3",
        "lower_bound": "0x1.0d6c30ef0081ap+0",
        "lower_bound_bracket": "0x0.0p+0",
        "m1_exact": None,
        "m1_main": "0x1.c886fe2620f9bp+65",
        "m1_quad": None,
        "m2_diag_main": "0x1.f9a7df710c769p+65",
        "m2_exact": None,
        "m2_quad": None,
        "main_term": "0x1.0c92212304807p+0",
        "n": 100000,
        "offdiag_eps1": "0x1.ca79102c575ccp-34",
        "offdiag_eps2": "0x1.0addc94bafe87p+0",
        "ratio": "0x1.1b8c8c8f9a135p+0",
        "ratio_bracket_hi": "0x1.21911ef42e893p+1",
        "ratio_bracket_lo": "0x0.0p+0",
        "resonator.alpha_default": "0x1.44d0995a81ff1p-4",
        "resonator.euler_product": "0x1.c124f7a92bcc2p+0",
        "resonator.is_empty": False,
        "resonator.lam": "0x1.481aec331ba3cp+3",
        "resonator.prime_count": 21,
        "resonator.sum_r_squared": "0x1.c124c3268ca3cp+0",
        "resonator.window_hi": "0x1.c2ba029f89549p+7",
        "resonator.window_lo": "0x1.a4850017cb238p+6",
        "resonator.x": "0x1.3982f24d75ee9p+44",
        "t": "0x1.5af1d78b58c40p+66",
        "tail_error": "0x1.f862db1a1edc6p-3",
        "x": "0x1.3982f24d75ee9p+44",
    },
    "certify --n 1000000 --c 3 --budget-terms 3000": {
        "alpha": "0x1.632ce1742a995p-4",
        "balanced_pair_bound": "0x1.c83d8f2078fb1p-4",
        "balanced_pair_diag_ratio": "0x1.ff10df9cba5e2p-8",
        "balanced_pair_sum": "0x1.089a6b4a73e73p+0",
        "c": "0x1.8000000000000p+1",
        "delta": "0x1.0000000000000p-1",
        "diag_sum": "0x1.9af20c7522befp+20",
        "diagnostic_exponent_ratio": "0x1.0b52677198a01p-6",
        "feasibility.c_le_log_n_pow_gamma": True,
        "feasibility.log_n_gt_3lam_loglog_lam": False,
        "feasibility.log_x_gt_3lam_loglog_lam": True,
        "feasibility.t_ge_n_pow_two_over_delta": False,
        "flags.diag_rankin_cut": 15857,
        "flags.diag_sum_truncated": True,
        "flags.r2_sum_truncated": True,
        "gamma": "0x1.0000000000000p-1",
        "growth_bound_n": "0x1.3d328510e5368p+3",
        "growth_bound_t": "0x1.528587d8eaea9p+3",
        "lower_bound": "0x1.0a0b752b9caa8p+0",
        "lower_bound_bracket": "0x0.0p+0",
        "m1_exact": None,
        "m1_main": "0x1.038c0f28e8630p+59",
        "m1_quad": None,
        "m2_diag_main": "0x1.185087871f3c9p+59",
        "m2_exact": None,
        "m2_quad": None,
        "main_term": "0x1.089a6b4a73e73p+0",
        "n": 1000000,
        "offdiag_eps1": "0x1.34abfe7fe1fa8p-29",
        "offdiag_eps2": "0x1.18bc4418cc18dp+11",
        "ratio": "0x1.147bd001e8f2ap+0",
        "ratio_bracket_hi": None,
        "ratio_bracket_lo": "0x0.0p+0",
        "resonator.alpha_default": "0x1.632ce1742a995p-4",
        "resonator.euler_product": "0x1.8efbb6850c83ep+0",
        "resonator.is_empty": False,
        "resonator.lam": "0x1.32711d9e2d5e0p+3",
        "resonator.prime_count": 14,
        "resonator.sum_r_squared": None,
        "resonator.window_hi": "0x1.497d9eedcdf4ep+7",
        "resonator.window_lo": "0x1.6ed29cc94d860p+6",
        "resonator.x": "0x1.d1a94a2000019p+39",
        "t": "0x1.bc16d674ec800p+59",
        "tail_error": "0x1.b5b420beefb94p-3",
        "x": "0x1.d1a94a2000019p+39",
    },
    "certify --n 1000000 --c 3 --budget-terms 8000": {
        "alpha": "0x1.632ce1742a995p-4",
        "balanced_pair_bound": "0x1.c83d8f2078fb1p-4",
        "balanced_pair_diag_ratio": "0x1.ff10df9cba5e2p-8",
        "balanced_pair_sum": "0x1.089a6b4a73e73p+0",
        "c": "0x1.8000000000000p+1",
        "delta": "0x1.0000000000000p-1",
        "diag_sum": "0x1.9b23663726cdbp+20",
        "diagnostic_exponent_ratio": "0x1.0cf53a3df39b7p-6",
        "feasibility.c_le_log_n_pow_gamma": True,
        "feasibility.log_n_gt_3lam_loglog_lam": False,
        "feasibility.log_x_gt_3lam_loglog_lam": True,
        "feasibility.t_ge_n_pow_two_over_delta": False,
        "flags.diag_rankin_cut": 23393,
        "flags.diag_sum_truncated": True,
        "flags.r2_sum_truncated": False,
        "gamma": "0x1.0000000000000p-1",
        "growth_bound_n": "0x1.3d328510e5368p+3",
        "growth_bound_t": "0x1.528587d8eaea9p+3",
        "lower_bound": "0x1.0a1b807b1eb3dp+0",
        "lower_bound_bracket": "0x0.0p+0",
        "m1_exact": None,
        "m1_main": "0x1.038beb887d5bap+59",
        "m1_quad": None,
        "m2_diag_main": "0x1.187231479af2ep+59",
        "m2_exact": None,
        "m2_quad": None,
        "main_term": "0x1.089a6b4a73e73p+0",
        "n": 1000000,
        "offdiag_eps1": "0x1.34abfe7fe1fa8p-29",
        "offdiag_eps2": "0x1.18bc4418cc18dp+11",
        "ratio": "0x1.149d29f436417p+0",
        "ratio_bracket_hi": None,
        "ratio_bracket_lo": "0x0.0p+0",
        "resonator.alpha_default": "0x1.632ce1742a995p-4",
        "resonator.euler_product": "0x1.8efbb6850c83ep+0",
        "resonator.is_empty": False,
        "resonator.lam": "0x1.32711d9e2d5e0p+3",
        "resonator.prime_count": 14,
        "resonator.sum_r_squared": "0x1.8efb7fc0e175ep+0",
        "resonator.window_hi": "0x1.497d9eedcdf4ep+7",
        "resonator.window_lo": "0x1.6ed29cc94d860p+6",
        "resonator.x": "0x1.d1a94a2000019p+39",
        "t": "0x1.bc16d674ec800p+59",
        "tail_error": "0x1.b5b420beefb94p-3",
        "x": "0x1.d1a94a2000019p+39",
    },
    "certify --n 1000000 --c 3 --budget-terms 20000": {
        "alpha": "0x1.632ce1742a995p-4",
        "balanced_pair_bound": "0x1.c83d8f2078fb1p-4",
        "balanced_pair_diag_ratio": "0x1.ff10df9cba5e2p-8",
        "balanced_pair_sum": "0x1.089a6b4a73e73p+0",
        "c": "0x1.8000000000000p+1",
        "delta": "0x1.0000000000000p-1",
        "diag_sum": "0x1.9b5bdccbbc0d6p+20",
        "diagnostic_exponent_ratio": "0x1.0ed20b04b5c79p-6",
        "feasibility.c_le_log_n_pow_gamma": True,
        "feasibility.log_n_gt_3lam_loglog_lam": False,
        "feasibility.log_x_gt_3lam_loglog_lam": True,
        "feasibility.t_ge_n_pow_two_over_delta": False,
        "flags.diag_sum_truncated": False,
        "flags.r2_sum_truncated": False,
        "gamma": "0x1.0000000000000p-1",
        "growth_bound_n": "0x1.3d328510e5368p+3",
        "growth_bound_t": "0x1.528587d8eaea9p+3",
        "lower_bound": "0x1.0a2dc5af6fdcep+0",
        "lower_bound_bracket": "0x0.0p+0",
        "m1_exact": None,
        "m1_main": "0x1.038beb887d5bap+59",
        "m1_quad": None,
        "m2_diag_main": "0x1.1898b50d8ca4cp+59",
        "m2_exact": None,
        "m2_quad": None,
        "main_term": "0x1.089a6b4a73e73p+0",
        "n": 1000000,
        "offdiag_eps1": "0x1.34abfe7fe1fa8p-29",
        "offdiag_eps2": "0x1.18bc4418cc18dp+11",
        "ratio": "0x1.14c326ffaccbcp+0",
        "ratio_bracket_hi": "0x1.2fa39407401b5p+11",
        "ratio_bracket_lo": "0x0.0p+0",
        "resonator.alpha_default": "0x1.632ce1742a995p-4",
        "resonator.euler_product": "0x1.8efbb6850c83ep+0",
        "resonator.is_empty": False,
        "resonator.lam": "0x1.32711d9e2d5e0p+3",
        "resonator.prime_count": 14,
        "resonator.sum_r_squared": "0x1.8efb7fc0e175ep+0",
        "resonator.window_hi": "0x1.497d9eedcdf4ep+7",
        "resonator.window_lo": "0x1.6ed29cc94d860p+6",
        "resonator.x": "0x1.d1a94a2000019p+39",
        "t": "0x1.bc16d674ec800p+59",
        "tail_error": "0x1.b5b420beefb94p-3",
        "x": "0x1.d1a94a2000019p+39",
    },
    "certify --n 10 --t 1e60 --budget-terms 100000": {
        "alpha": "0x1.2a9818ce5868ap-5",
        "balanced_pair_bound": "0x1.bcb7b1526e50dp-2",
        "balanced_pair_diag_ratio": "0x0.0p+0",
        "balanced_pair_sum": "0x1.0000000000000p+0",
        "c": "0x1.dffffffffffffp+5",
        "delta": "0x1.0000000000000p-1",
        "diag_sum": "0x1.d95828890030cp+7",
        "diagnostic_exponent_ratio": "-0x1.3eb48a37fad6ap-14",
        "feasibility.c_le_log_n_pow_gamma": False,
        "feasibility.log_n_gt_3lam_loglog_lam": False,
        "feasibility.log_x_gt_3lam_loglog_lam": True,
        "feasibility.t_ge_n_pow_two_over_delta": True,
        "flags.diag_rankin_cut": 1,
        "flags.diag_sum_truncated": True,
        "flags.r2_sum_truncated": True,
        "gamma": "0x1.0000000000000p-1",
        "growth_bound_n": "0x1.a5c2448155ecfp+10",
        "growth_bound_t": "0x1.5213d16e7358ep+5",
        "lower_bound": "0x1.ffdab7ec5c7e0p-1",
        "lower_bound_bracket": "0x1.ffdab7ec597e3p-1",
        "m1_exact": None,
        "m1_main": "0x1.61ad3aa906ccbp+202",
        "m1_quad": None,
        "m2_diag_main": "0x1.6179baebc1283p+202",
        "m2_exact": None,
        "m2_quad": None,
        "main_term": "0x1.0000000000000p+0",
        "n": 10,
        "offdiag_eps1": "0x1.31b19c999adb1p-122",
        "offdiag_eps2": "0x1.dda584b001f67p-116",
        "ratio": "0x1.ffb5728fadf82p-1",
        "ratio_bracket_hi": None,
        "ratio_bracket_lo": "0x1.ffb5728fabf87p-1",
        "resonator.alpha_default": "0x1.2a9818ce5868ap-5",
        "resonator.euler_product": "0x1.7ae418dcedee7p+4",
        "resonator.is_empty": False,
        "resonator.lam": "0x1.46901c521b4f4p+4",
        "resonator.prime_count": 1029,
        "resonator.sum_r_squared": None,
        "resonator.window_hi": "0x1.16dd3c196688cp+13",
        "resonator.window_lo": "0x1.a0935940fd0eap+8",
        "resonator.x": "0x1.d6329f1c35cf9p+132",
        "t": "0x1.3e9e4e4c2f344p+199",
        "tail_error": "0x1.72953659ec292p-4",
        "x": "0x1.d6329f1c35cf9p+132",
    },
}


def _report_fields(value, prefix=""):
    """The report's leaves by dotted key, floats as float.hex."""
    if isinstance(value, dict):
        fields = {}
        for key, item in value.items():
            fields.update(_report_fields(item, f"{prefix}{key}."))
        return fields
    return {prefix[:-1]: value.hex() if isinstance(value, float) else value}


@pytest.mark.parametrize("command", sorted(REPORT_PINS))
def test_certify_reports_pinned_bit_for_bit(tmp_path, command):
    out = tmp_path / "out.json"
    assert cli_main([*command.split(), "--out", str(out)]) == 0
    assert _report_fields(json.loads(out.read_text())["report"]) == REPORT_PINS[command]


# `certify --n 1000000 --c 3` under three term budgets: the support <= X
# over budget; the support within it but not the diagonal's coprime
# pairs; everything within it.  (budget, support sums truncated, diagonal
# truncated, diag_rankin_cut, ratio); the exact ratio is the last.
BUDGET_REGIMES = (
    (3000, True, True, 15857, 1.0800142292654962),
    (8000, False, True, 23393, 1.0805231305332705),
    (20000, False, False, None, 1.08110278837266),
)


@pytest.mark.parametrize("budget, sums_cut, diag_cut, z_cut, ratio", BUDGET_REGIMES)
def test_certify_budget_fallbacks_pinned(tmp_path, budget, sums_cut, diag_cut, z_cut, ratio):
    out = tmp_path / "out.json"
    argv = ["certify", "--n", "1000000", "--c", "3", "--budget-terms", str(budget)]
    assert cli_main([*argv, "--out", str(out)]) == 0
    report = json.loads(out.read_text())["report"]
    flags = report["flags"]
    assert flags["r2_sum_truncated"] is sums_cut
    assert flags["diag_sum_truncated"] is diag_cut
    assert flags.get("diag_rankin_cut") == z_cut
    assert report["ratio"] == pytest.approx(ratio, rel=1e-12)
    assert report["lower_bound_bracket"] <= report["lower_bound"]


def _ordered_pairs(sup: SupportArrays, count: int) -> int:
    """The ordered coprime pairs of the first `count` elements of sup."""
    return 2 * sum(np.count_nonzero(ok) for _, _, ok in sup.coprime_tiles(count)) - 1


def test_rankin_cut_is_the_longest_prefix_within_budget():
    # The support <= N = 1e6 (C = 3) has 106 elements: two column blocks.
    # Every budget from one pair to all of them cuts the walk at the
    # longest prefix whose ordered pairs fit, and a larger prefix gives a
    # larger diagonal.
    n_max = 1_000_000
    x = float(n_max) ** 2
    res = build_resonator(x)
    sup = support_arrays(res, n_max)
    alpha = 4.0 * res.alpha_default
    previous = 0.0
    for count in (1, 2, 40, 64, 65, 80, len(sup.ns)):
        budget = _ordered_pairs(sup, count)
        for b in (budget, budget + 1):
            term, z_cut = moments._rankin_terms(res, sup, n_max, x, alpha, b)
            assert z_cut == sup.ns[count - 1]
        diag = moments._pair_sums(sup, term)[0]
        assert diag > previous
        previous = diag
    assert previous < diagonal_sum(res, n_max, x)


@settings(max_examples=60, deadline=None)
@given(
    primes=st.lists(st.sampled_from(SMALL_PRIMES), max_size=8, unique=True).map(sorted),
    data=st.data(),
)
def test_rankin_diagonal_is_below_the_exact_one_property(primes, data):
    # For weights up to 2, every alpha in [0, 1/2) and every cut of the
    # walk, Rankin's diagonal is >= 0, grows with the cut and stays below
    # the exact diagonal over the support <= X; at alpha = 0 it is 0.
    weights = data.draw(
        st.lists(st.floats(0.05, 2.0), min_size=len(primes), max_size=len(primes))
    )
    n_max = data.draw(st.integers(1, 10**6))
    x = data.draw(st.floats(1.0, 1e6))
    alpha = data.draw(st.one_of(st.just(0.0), st.floats(1e-3, 0.499)))
    res = _resonator_on(primes, weights, x)
    sup = support_arrays(res, min(float(n_max), x))
    exact = moments._window_diagonal(support_arrays(res, x), n_max, x, 10**9)
    previous = 0.0
    for count in range(1, len(sup.ns) + 1):
        budget = _ordered_pairs(sup, count)
        term, z_cut = moments._rankin_terms(res, sup, n_max, x, alpha, budget)
        assert z_cut == sup.ns[count - 1]
        rankin = moments._pair_sums(sup, term)[0]
        assert previous <= rankin <= exact
        assert alpha > 0.0 or rankin == 0.0
        previous = rankin


def test_rankin_fallback_without_alpha_default():
    # A resonator with no shift parameter takes alpha = 0 over budget: the
    # diagonal's lower bound is then 0, a certificate that says nothing.
    res = _resonator_on((2, 3), (0.5, 0.5), 100.0)
    report = ratio_and_bounds(res, None, 10, 1e6, 0.5, 0.5, budget=4, exact_mode="never")
    assert report.flags == {
        "r2_sum_truncated": False, "diag_sum_truncated": True, "diag_rankin_cut": 2,
    }
    assert report.diag_sum == report.ratio == report.lower_bound_bracket == 0.0


@pytest.mark.parametrize(
    "res, n_max, t_bound",
    [(build_resonator(1e12), 10_000, 1e12), (RES20, 3, 1e4)],  # the second is tiny
)
def test_report_builds_the_support_once(monkeypatch, res, n_max, t_bound):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return support_arrays(*args, **kwargs)

    monkeypatch.setattr(moments, "support_arrays", counted)
    report = ratio_and_bounds(res, constant_one(), n_max, t_bound, 0.5, 0.5)
    assert not any(report.flags.values())
    assert len(calls) == 1
    assert (report.m1_exact is not None) == (n_max == 3)


def test_report_walks_the_coprime_pairs_twice(monkeypatch):
    # With the support <= X within budget, the diagonal's pair count is one
    # walk of the coprime tiles; the diagonal, the main term and the tail
    # share the other.
    walks = []
    real = SupportArrays.coprime_tiles

    def counted(self, *args):
        walks.append(args)
        return real(self, *args)

    monkeypatch.setattr(SupportArrays, "coprime_tiles", counted)
    res = build_resonator(1e12)
    report = ratio_and_bounds(res, None, 10**6, 1e18, 0.5, 0.5, exact_mode="never")
    assert not any(report.flags.values()) and report.tail_error is not None
    assert len(walks) == 2


@pytest.mark.parametrize("n_max", [100_000, 1_000_000, 10_000_000])
def test_pair_sums_memory_is_flat(n_max):
    # The main term and the alpha-tail stream the coprime pairs of the
    # support <= N (C = 3, X = N^2) as tiles: their peak does not grow with
    # the pair count (2.6e6 ordered pairs at N = 1e7).
    x = float(n_max) ** 2
    res = build_resonator(x)
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
    res = build_resonator(1e9)
    report = ratio_and_bounds(res, constant_one(), 4, 1e4, 0.5, 0.5, budget=2)
    assert report.flags["r2_sum_truncated"] and report.flags["diag_sum_truncated"]
    assert report.m1_exact is None and report.m2_quad is None
    with pytest.raises(ResourceLimitError):
        ratio_and_bounds(res, constant_one(), 4, 1e4, 0.5, 0.5, budget=2,
                         exact_mode="always")


def test_diagonal_sum_sparse_budget_counts_coprime_pairs():
    n_max = 100_000
    x = float(n_max) ** 2
    res = build_resonator(x)
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
    # The sum over ordered pairs: (0, 0) once, every pair i < k and its mirror.
    values = [v for t in terms for v in t.tolist()]
    return math.fsum([values[0], *values[1:], *values[1:]])


@pytest.mark.parametrize("n_max, g_cap", [(1_000_000, None), (2_000_000, None), (2_000_000, 1e8)])
def test_window_diagonal_matches_per_element_kernel(n_max, g_cap):
    # The supports of `certify --n N --c 3` (X = N^2).  At N = 2e6, 296
    # elements are <= N: five column groups, the last with two row batches,
    # so batches off the group's own columns run too.
    x = float(n_max) ** 2
    res = build_resonator(x)
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
    sup = support_arrays(build_resonator(x), x)
    want = moments._window_diagonal(sup, n_max, x, moments.DEFAULT_TERM_BUDGET)
    monkeypatch.setattr(moments, "_TILE", 5000)
    assert moments._window_diagonal(sup, n_max, x, moments.DEFAULT_TERM_BUDGET) == want


def test_window_diagonal_refuses_g_ranges_past_exact_int64_sums(monkeypatch):
    # A g-range of 2^(63 - _LIMB) elements could carry the int64 limb sums
    # past 2^63.  With _LIMB = 50 that is 8192 elements, fewer than the
    # 10 504 of the support <= X at N = 2e6.
    n_max = 2_000_000
    x = float(n_max) ** 2
    sup = support_arrays(build_resonator(x), x)
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
        sup = support_arrays(build_resonator(x), x)
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
    # Streamed in uneven chunks, with small chunk sizes so that the chunk
    # loop runs mid-stream.  These lists rarely hold more terms than _FOLD;
    # test_exact_sum_folds_mid_stream_property makes the folds run.
    cuts = sorted(data.draw(st.lists(st.integers(0, len(terms)), max_size=6)))
    chunks = [terms[a:b] for a, b in zip([0, *cuts], [*cuts, len(terms)])]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moments._ExactSum, "_CHUNK", data.draw(st.integers(1, 64)))
        mp.setattr(moments._ExactSum, "_FOLD", data.draw(st.integers(64, 256)))
        got = _exact_sum(chunks)
    assert got.hex() == math.fsum(terms).hex()


@settings(max_examples=200, deadline=None)
@given(
    chunks=st.lists(st.lists(_WIDE_FLOATS, min_size=1, max_size=40), min_size=2, max_size=8),
    data=st.data(),
)
def test_exact_sum_folds_mid_stream_property(chunks, data):
    # _FOLD below the number of terms and _CHUNK at most _FOLD: the bins
    # fold into the integer inside add() while they hold terms, not only in
    # value().
    folds = []
    real = moments._ExactSum._fold
    fold = data.draw(st.integers(1, min(8, sum(map(len, chunks)) - 1)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moments._ExactSum, "_CHUNK", data.draw(st.integers(1, fold)))
        mp.setattr(moments._ExactSum, "_FOLD", fold)
        mp.setattr(moments._ExactSum, "_fold", lambda self: folds.append(1) or real(self))
        got = _exact_sum(chunks)
    assert len(folds) > 1
    assert got.hex() == math.fsum(v for chunk in chunks for v in chunk).hex()


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
    # sums differently under 1 and 2 threads.  The tiny certifies' quadrature
    # moments add their panel sums by numpy's pairwise sum (at N = 12 both
    # polynomials take the grid kernel's explicit tables), and the certified
    # search at |t| ~ T/2 scans with range-reduced anchor rows and real Taylor
    # products.
    src = str(Path(moments.__file__).resolve().parents[1])
    commands = [
        ["certify", "--n", "2000000", "--c", "3"],
        ["certify", "--n", "4", "--t", "1e4", "--x", "598741417.6", "--f", "steinhaus",
         "--seed", "3"],
        ["certify", "--n", "12", "--t", "1e4", "--x", "485165195.4097903", "--f", "steinhaus",
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
        main = math.fsum(
            _t_by_product(res, a) * _t_by_product(res, b) * a.n * b.n / max(a.n, b.n) ** 3
            for a, b in pairs
        )
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


# (N, X, T) with NX/T from 0.02 to 0.04, where the off-diagonal part of M2
# is near 10^-3 of the diagonal one and eps2 is about 1 to 4.
OFFDIAG_ROWS = ((4, 12, 1200.0), (4, 12, 2400.0), (6, 10, 1500.0), (3, 20, 1500.0))


def _expansion(c: np.ndarray, ks: np.ndarray, t_bound: float, scale: float) -> float:
    """scale * sum over k, l of c_k conj(c_l) phi_hat(T log(l/k)), k and l in ks."""
    b = default_bump()
    terms = [
        (c[i] * c[j].conjugate() * b.transform(t_bound * math.log(ks[j] / ks[i]))).real
        for i in range(len(ks))
        for j in range(len(ks))
    ]
    return scale * math.fsum(terms)


def _envelope_cases(n_max: int, x: int, t_bound: float, r: np.ndarray, f):
    """M2 and then M1 of the toy resonator with weights r on {1, ..., X} at
    (N, T) and f: yields (full, diag, eps, rounding), the full transform
    expansion, its diagonal part, the report's eps, and the float allowance
    beyond eps: the transform's absolute error TOLERANCE and a few roundings
    per term, times (sum |c_k|)^2."""
    b = np.zeros(n_max * x + 1)  # B_k = sum of r(a) over k = m*a, m <= N, a <= X
    for m in range(1, n_max + 1):
        b[m : m * x + 1 : m] += r
    ks = np.flatnonzero(b)
    fv = values_up_to(f, n_max * x)
    eps2, eps1 = _offdiag_eps(n_max * x, t_bound), _offdiag_eps(x, t_bound)
    for c, k, scale, diag, eps in (
        (fv[ks - 1] * b[ks], ks, t_bound / n_max, math.fsum(b * b), eps2),
        (fv[:x] * r, np.arange(1, x + 1), t_bound, math.fsum(r * r), eps1),
    ):
        full = _expansion(c, k, t_bound, scale)
        rounding = scale * (TOLERANCE + 2.0**-50) * math.fsum(np.abs(c)) ** 2
        yield full, diag * (scale * PHI0), eps, rounding


@pytest.mark.parametrize("n_max, x, t_bound", OFFDIAG_ROWS)
def test_offdiag_eps_bounds_the_full_expansion(n_max, x, t_bound):
    # A toy resonator with random weights in [0, 1) on {1, ..., X} (the bound
    # holds for any r >= 0), f = 1 and five Steinhaus f: M2 and M1 by the full
    # transform expansion against their diagonal parts, which the report's eps
    # must bound, up to the float allowance of _envelope_cases.
    r = np.random.default_rng([n_max, x, int(t_bound)]).random(x)
    for f in (constant_one(), *(steinhaus_sample(seed) for seed in range(5))):
        for full, diag, eps, rounding in _envelope_cases(n_max, x, t_bound, r, f):
            assert abs(full - diag) <= eps * diag + rounding


@settings(max_examples=25, deadline=None)
@given(
    x=st.integers(1, 60),
    data=st.data(),
    ratio=st.floats(0.01, 0.1),
    seed=st.integers(0, 2**32 - 1),
    f_seed=st.none() | st.integers(0, 2**32 - 1),
)
def test_offdiag_eps_bounds_random_toys(x, data, ratio, seed, f_seed):
    # The same envelope on random toys: N * X <= 60, NX/T in [0.01, 0.1], where
    # the off-diagonal part is not negligible, weights in [0, 1), and f = 1
    # (f_seed None) or a Steinhaus f.  No slack beyond the float allowance.
    n_max = data.draw(st.integers(1, 60 // x), label="n_max")
    t_bound = n_max * x / ratio
    r = np.random.default_rng(seed).random(x)
    f = constant_one() if f_seed is None else steinhaus_sample(f_seed)
    for full, diag, eps, rounding in _envelope_cases(n_max, x, t_bound, r, f):
        assert abs(full - diag) <= eps * diag + rounding


def test_t_weights_match_r_over_euler_factors():
    # The main term's weight, derived from r, against the product taken per
    # element: 14 window primes, 3473 elements.
    res = build_resonator(1e12)
    sup = support_arrays(res, 1e12)
    elems = sup.elements(res)
    assert len(res.primes) == 14 and len(elems) == 3473
    t = moments._t_weights(res, sup).tolist()
    assert t == pytest.approx([_t_by_product(res, e) for e in elems], rel=1e-14, abs=0.0)
    assert t[0] == 1.0
    assert all(w < e.r for w, e in zip(t[1:], elems[1:]))
    # The one-prime support of X = e^20: t(61) = r(61) / (1 + r(61)^2), pinned.
    t20 = moments._t_weights(RES20, support_arrays(RES20, RES20.x)).tolist()
    assert t20 == [1.0, pytest.approx(0.22784106223119072, rel=1e-14)]


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
    report = ratio_and_bounds(res, constant_one(), 1, 4.0, 0.5, 0.5)
    assert report.ratio == pytest.approx(1.0, rel=1e-14)
    assert report.lower_bound == pytest.approx(1.0, rel=1e-14)


def test_report_ratio_is_f_free():
    blobs = set()
    for f in (constant_one(), archimedean_cmf(1.0), steinhaus_sample(60)):
        report = ratio_and_bounds(RES20, f, 100, 1e6, 0.5, 0.5)
        blobs.add(json.dumps(report.to_dict(), sort_keys=True))
    assert len(blobs) == 1


def test_report_bracket_contains_ratio(tmp_path):
    # T well past N*X, so eps1 < 1 and both bracket ends exist.
    report = ratio_and_bounds(RES20, constant_one(), 100, 1e13, 0.5, 0.5)
    assert not report.flags["r2_sum_truncated"]
    assert not report.flags["diag_sum_truncated"]
    assert report.ratio_bracket_lo <= report.ratio <= report.ratio_bracket_hi
    assert report.lower_bound == pytest.approx(math.sqrt(report.ratio), rel=1e-14)
    assert report.lower_bound_bracket <= report.lower_bound
    # The Rankin and Euler-product fallbacks (BUDGET_REGIMES) keep the lower
    # end; the upper end needs the full sums.
    for budget in (3000, 8000):
        out = tmp_path / f"{budget}.json"
        argv = ["certify", "--n", "1000000", "--c", "3", "--budget-terms", str(budget)]
        assert cli_main([*argv, "--out", str(out)]) == 0
        fallback = json.loads(out.read_text())["report"]
        assert fallback["flags"]["diag_sum_truncated"]
        assert fallback["lower_bound_bracket"] is not None
        assert fallback["lower_bound_bracket"] <= fallback["lower_bound"]
        assert fallback["ratio_bracket_lo"] <= fallback["ratio"]
        assert fallback["ratio_bracket_hi"] is None


@pytest.mark.parametrize("t_bound, x", [("1e18", "3e8"), ("1e24", "1e15")])
def test_proven_bound_above_one(tmp_path, t_bound, x):
    # At N*X/T <= 1e-3 the proven envelope is small enough that the bracket
    # certifies sup |D_N| > 1 for every unimodular completely multiplicative f.
    out = tmp_path / "out.json"
    argv = ["certify", "--n", "1000000", "--t", t_bound, "--x", x, "--out", str(out)]
    assert cli_main(argv) == 0
    report = json.loads(out.read_text())["report"]
    assert 1.0 < report["lower_bound_bracket"] <= report["lower_bound"]
    assert report["offdiag_eps1"] < report["offdiag_eps2"] < 3e-3


def test_report_ratio_recomputes():
    report = ratio_and_bounds(RES20, constant_one(), 100, 1e6, 0.5, 0.5)
    r2 = sum_r_squared(RES20, RES20.x)
    diag = diagonal_sum(RES20, 100, RES20.x, TABLE)
    assert report.ratio == pytest.approx(diag / (100 * r2), rel=1e-14)
    assert report.diag_sum == pytest.approx(diag, rel=1e-14)


def test_report_exact_fields_tiny_instance():
    report = ratio_and_bounds(RES20, steinhaus_sample(5), 3, 1e4, 0.5, 0.5)
    assert report.m1_exact is not None
    assert report.m1_quad == pytest.approx(report.m1_exact, rel=1e-6)
    assert report.m2_quad == pytest.approx(report.m2_exact, rel=1e-6)


def test_report_exact_fields_skipped_for_large_t():
    report = ratio_and_bounds(RES20, constant_one(), 100, 1e6, 0.5, 0.5)
    assert report.m1_exact is None and report.m2_exact is None
    assert report.m1_quad is None and report.m2_quad is None


def test_report_exact_mode_flags():
    with pytest.raises(ValueError):
        ratio_and_bounds(RES20, None, 3, 1e3, 0.5, 0.5, exact_mode="always")
    report = ratio_and_bounds(
        RES20, None, 3, 1e3, 0.5, 0.5, exact_mode="never"
    )
    assert report.m1_exact is None
    with pytest.raises(ValueError):
        ratio_and_bounds(RES20, None, 3, 1e3, 0.5, 0.5, exact_mode="bogus")


def test_report_serialization_round_trip():
    report = ratio_and_bounds(RES20, constant_one(), 100, 1e6, 0.5, 0.5)
    d = report.to_dict()
    json.dumps(d)  # must be JSON-clean
    assert len(report.csv_header()) == len(report.csv_row())
    assert d["ratio"] == report.ratio
    assert report.growth_bound_t is not None
    assert report.growth_bound_n is not None
    assert report.main_term >= 1.0
    assert report.tail_error > 0.0
