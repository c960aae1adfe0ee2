"""End-to-end acceptance suite.

Ten numbered criteria, one test each, covering the full pipeline:
diagonal-sum parametrization against brute force, moment quadrature
against exact expansion, certificate soundness against grid search,
f-independence of the report, the supporting inequalities, transform
decay, sweep behaviour, and byte-level reproducibility.  Each test
prints a single PASS/FAIL line (visible with -s, or on failure).
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import time

import numpy as np
import pytest

from rescert.bump import decay_constant, default_bump
from rescert.cli import main
from rescert.dirichlet import grid_sup
from rescert.moments import (
    balanced_pair_bound_check,
    diagonal_sum,
    m1_exact,
    m1_quadrature,
    m2_exact,
    m2_quadrature,
    min_offdiag_gap,
    ratio_and_bounds,
    tail_truncation_check,
)
from rescert.multfn import archimedean_cmf, constant_one, steinhaus_sample
from rescert.ntcore import build_factor_table
from rescert.oracle import (
    diagonal_sum_bruteforce,
    parametrization_bijection_check,
    random_toy_resonator,
)
from rescert.resonator import build_resonator, support_elements, window_bounds

TABLE = build_factor_table(20_000)


@contextlib.contextmanager
def _criterion(num: int, label: str):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] {label}: FAIL ({time.monotonic() - t0:.1f}s)")
        raise
    print(f"[criterion {num:02d}] {label}: PASS ({time.monotonic() - t0:.1f}s)")


def test_criterion_01_diagonal_matches_bruteforce():
    # 20 random multiplicative squarefree-supported resonators, every
    # (N, X) up to 30: parametrized diagonal == brute-force product match.
    with _criterion(1, "diagonal sum matches brute force"):
        t0 = time.monotonic()
        rng = np.random.default_rng(0)
        toys = [random_toy_resonator(rng, 30) for _ in range(20)]
        worst = 0.0
        for toy in toys:
            for n in range(1, 31):
                for x in range(1, 31):
                    got = diagonal_sum(toy, n, float(x), TABLE)
                    want = diagonal_sum_bruteforce(toy, n, float(x), TABLE)
                    worst = max(worst, abs(got - want) / max(1.0, abs(want)))
        assert worst <= 1e-12
        assert time.monotonic() - t0 < 60.0


def test_criterion_02_parametrization_bijection():
    with _criterion(2, "gcd parametrization is a bijection"):
        t0 = time.monotonic()
        for n in range(1, 31):
            for x in range(1, 31):
                assert parametrization_bijection_check(n, x)
        assert time.monotonic() - t0 < 60.0


def test_criterion_03_moment_quadrature_matches_exact():
    # Tiny instances (N <= 12, support size <= 8): both moments computed
    # two independent ways agree to 1e-6 relative.
    with _criterion(3, "moment quadrature matches exact expansion"):
        cases = []
        for logx, n in ((20.0, 3), (20.0, 12), (20.2, 4)):
            res = build_resonator(math.exp(logx), TABLE)
            supp = support_elements(res, res.x)
            assert len(supp) <= 8
            cases.append((res, n, supp))
        fs = [constant_one(), steinhaus_sample(12345), archimedean_cmf(1.0)]
        for res, n, supp in cases:
            for f in fs:
                for t_bound in (1e3, 1e4):
                    q1 = m1_quadrature(f, t_bound, supp)
                    e1 = m1_exact(f, t_bound, supp)
                    q2 = m2_quadrature(f, n, t_bound, supp, TABLE)
                    e2 = m2_exact(f, n, t_bound, supp, TABLE)
                    assert q1 == pytest.approx(e1, rel=1e-6)
                    assert q2 == pytest.approx(e2, rel=1e-6)


def test_criterion_04_certificate_sound_against_grid():
    # N = 500, T = N^4: the certified lower bound must sit below what a
    # grid search actually finds, up to the grid's own slack.  The scan
    # covers a budget-sized piece of [T/2, T] at the default eps rather
    # than all of it at a uselessly large one.
    with _criterion(4, "certified lower bound below observed sup"):
        n, delta = 500, 0.5
        t_bound = float(n) ** 4
        x = t_bound ** (1.0 - 2.0 * delta / 3.0)
        res = build_resonator(x, TABLE)
        eps = 1e-3 * math.sqrt(n)
        window = (t_bound / 2.0, t_bound / 2.0 + 48.3)
        for seed in range(10):
            f = steinhaus_sample(seed)
            report = ratio_and_bounds(res, f, n, t_bound, delta, 1.0, TABLE)
            sr = grid_sup(f, n, t_bound, None, TABLE, window=window)
            assert sr.certified_slack <= eps + 1e-15
            assert sr.value + eps >= report.lower_bound


def test_criterion_05_report_free_of_coefficient_function():
    # One fixed resonator, twelve coefficient functions: every report
    # field is byte-identical (the certificate never depends on f).
    with _criterion(5, "report independent of coefficient function"):
        res = build_resonator(math.exp(20.0), TABLE)
        fs = [steinhaus_sample(seed) for seed in range(10)]
        fs += [constant_one(), archimedean_cmf(1.0)]
        ratio_reprs = set()
        dumps = set()
        for f in fs:
            report = ratio_and_bounds(res, f, 100, 1e6, 0.5, 1.0, TABLE)
            d = report.to_dict()
            ratio_reprs.add(json.dumps(d["ratio"]))
            dumps.add(json.dumps(d, sort_keys=True))
        assert len(ratio_reprs) == 1
        assert len(dumps) == 1


def test_criterion_06_pair_bound_and_tail_truncation():
    with _criterion(6, "pair inequality and tail truncation hold"):
        t0 = time.monotonic()
        for logx in (20.0, 40.0, 100.0):
            res = build_resonator(math.exp(logx), TABLE)
            lo, _ = window_bounds(res.x)
            for z in (10.0, 100.0, 1000.0):
                lhs, rhs = balanced_pair_bound_check(res, z)
                if z < lo:
                    # No support below the window: the pair sum collapses
                    # to the (1,1) term while the bound side stays < 1.
                    assert lhs == 1.0
                    assert rhs < 1.0
                else:
                    assert lhs >= rhs
        rng = np.random.default_rng(42)
        for _ in range(100):
            logx = float(rng.uniform(19.0, 45.0))
            res = build_resonator(math.exp(logx), TABLE)
            cap_hi = min(math.exp(logx), 1e6)
            cap = float(math.exp(rng.uniform(0.0, math.log(cap_hi))))
            elems = [e.n for e in support_elements(res, min(res.x, 1e5))]
            ab = int(elems[int(rng.integers(0, len(elems)))])
            alpha = float(rng.uniform(0.01, 0.49))
            tail, shifted = tail_truncation_check(res, ab, cap, alpha)
            assert tail <= shifted * (1.0 + 1e-12)
        assert time.monotonic() - t0 < 120.0


def test_criterion_07_offdiagonal_gap_floor():
    with _criterion(7, "off-diagonal log gap >= 1/(N X)"):
        assert min_offdiag_gap(2, 2) == pytest.approx(math.log(2.0), rel=1e-15)
        assert min_offdiag_gap(3, 2) == pytest.approx(math.log(4.0 / 3.0), rel=1e-15)
        for n in range(1, 51):
            for x in range(1, 51):
                if n == x == 1:
                    continue
                assert min_offdiag_gap(n, x) >= 1.0 / (n * x)


def test_criterion_08_transform_decay():
    # Decay constant finite over [10, 1e4]; each doubling of the
    # frequency keeps |phi_hat| within 10 * 2^-2 of the previous value
    # (order-of-magnitude decay sanity; the true decay is much faster).
    with _criterion(8, "window transform decays"):
        b = default_bump()
        grid = [10.0 * 2.0**k for k in range(9)] + [5120.0, 10000.0]
        const = decay_constant(b, 3, grid)
        assert math.isfinite(const)
        assert const == pytest.approx(2106.6178148212693, rel=1e-9)
        for xi in grid:
            if 2.0 * xi in grid:
                lo = abs(b.transform(xi, deep=True))
                hi = abs(b.transform(2.0 * xi, deep=True))
                assert hi <= lo * 10.0 * 2.0**-2


def test_criterion_09_sweep_growth_trend(tmp_path):
    # The asymptotic growth rate is out of desk reach; instead the sweep
    # must show a positive, nondecreasing certified bound and report the
    # exponent diagnostic for trend inspection (no threshold asserted).
    with _criterion(9, "sweep bound positive and nondecreasing"):
        out = os.path.join(tmp_path, "sweep.json")
        code = main([
            "sweep", "--n-list", "1000,10000,100000",
            "--seed-list", "0", "--c", "3", "--out", out,
        ])
        assert code == 0
        with open(out) as fh:
            rows = json.load(fh)["report"]
        assert len(rows) == 3
        lbs = [row["report"]["lower_bound"] for row in rows]
        assert all(lb > 0.0 for lb in lbs)
        assert lbs == sorted(lbs)
        assert lbs[-1] == pytest.approx(1.0166229116400012, rel=1e-9)
        for row in rows:
            assert "diagnostic_exponent_ratio" in row["report"]
        assert rows[-1]["report"]["diagnostic_exponent_ratio"] == pytest.approx(
            0.00746643176603869, rel=1e-9
        )
        assert rows[-1]["report"]["ratio"] == pytest.approx(1.0335221444713938, rel=1e-9)


def test_criterion_10_byte_identical_reruns(tmp_path):
    with _criterion(10, "identical config gives identical bytes"):
        args = ["certify", "--n", "60", "--t", "1e6", "--f", "steinhaus", "--seed", "5"]
        paths = [os.path.join(tmp_path, name) for name in ("a.json", "b.json")]
        stamps = []
        for path in paths:
            assert main([*args, "--out", path]) == 0
            with open(path) as fh:
                stamps.append(json.load(fh)["generated_at"])
        raw = []
        for path, stamp in zip(paths, stamps):
            with open(path, "rb") as fh:
                raw.append(fh.read().replace(stamp.encode(), b"<generated-at>"))
        assert raw[0] == raw[1]
