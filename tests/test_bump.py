from __future__ import annotations

import json
import math
import os
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import mpmath
import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp.libelefun import exp_fixed, ln2_fixed

import rescert.bump as bump_mod
from rescert.bump import (
    DECAY_A2,
    PHI_HAT_0,
    RAMP_WIDTH,
    TOLERANCE,
    Bump,
    decay_constant,
    default_bump,
)
from rescert.errors import QuadratureError

B = default_bump()

# |phi_hat| at the doubling grid, frozen from a 50-digit mpmath rerun of
# the same two-ramp-plus-plateau integral.
DECAY_PROFILE = {
    10.0: 1.8683455352596745e-01,
    20.0: 5.2491704400514460e-02,
    40.0: 3.2915903356582336e-02,
    80.0: 2.6551864663345010e-03,
    160.0: 5.0772242184494350e-04,
    320.0: 1.3585090047830951e-06,
    640.0: 1.4259772415381686e-07,
    1280.0: 8.4520631858344870e-10,
}


def test_window_values():
    assert B.phi_vec(0.75) == 1.0
    assert B.phi_vec(0.25) == 0.0
    assert B.phi_vec(0.5) == 0.0
    assert B.phi_vec(1.0) == 0.0
    # Ramp midpoint: psi(1/2) = 1/2 since 1/s - 1/(1-s) vanishes there.
    assert B.phi_vec(0.5625) == pytest.approx(0.5, abs=1e-15)


def test_psi_vec_matches_one_expression():
    # The buffered ufunc sequence gives the bits of the one-line expression, ends included.
    s = np.concatenate(([0.0, 1.0, 0.5, 5e-324, 1e-300, 1.0 - 2**-53], np.linspace(0.0, 1.0, 1001)))
    with np.errstate(over="ignore", divide="ignore"):
        want = 1.0 / (1.0 + np.exp(1.0 / s - 1.0 / (1.0 - s)))
    got = bump_mod._psi_vec(s)
    assert np.array_equal(got, want)
    assert got[0] == 0.0 and got[1] == 1.0 and got[2] == 0.5
    grid = s[6:].reshape(7, 143)  # the float ramp rule passes (panels, order) arrays
    assert np.array_equal(bump_mod._psi_vec(grid), want[6:].reshape(7, 143))


def test_window_symmetry():
    for y in (0.51, 0.55, 0.6, 0.62, 0.7):
        assert B.phi_vec(y) == pytest.approx(B.phi_vec(1.5 - y), abs=1e-15)


def test_vectorized_matches_scalar():
    ys = np.linspace(0.0, 1.5, 301)
    vec = B.phi_vec(ys)
    for y, v in zip(ys, vec):
        assert v == pytest.approx(B.phi_vec(float(y)), abs=1e-15)


@pytest.mark.parametrize("w", [RAMP_WIDTH])
def test_scalar_window_is_the_vectorized_one(w):
    # Near the ramp ends exp(1/s - 1/(1 - s)) overflows; a scalar argument takes
    # the value of the same point in a vector there, with no error.
    ys = [0.5 + w / 1000, 1.0 - w / 1000, math.nextafter(0.5, 1.0), math.nextafter(1.0, 0.0),
          0.5 + w / 2]
    vec = B.phi_vec(ys)
    for y, v in zip(ys, vec):
        assert B.phi_vec(y) == v
        assert B.phi_vec([y])[0] == v


def test_transform_at_zero():
    # Plateau length 1/4 plus two ramps of integral w/2 each: 3/8 total.
    v = B.transform(0.0)
    assert v.imag == 0.0
    assert v.real == pytest.approx(0.375, abs=1e-10)
    assert 0.25 <= v.real <= 0.5


def test_transform_peak_at_zero():
    for xi in (0.5, 1.0, 7.0, 40.0, 333.3):
        assert abs(B.transform(xi)) <= B.transform(0.0).real


def test_transform_conjugate_symmetry():
    for xi in (0.25, 3.0, 61.0):
        assert B.transform(-xi) == B.transform(xi).conjugate()


def test_decay_profile():
    for xi, mag in DECAY_PROFILE.items():
        assert abs(B.transform(xi)) == pytest.approx(mag, rel=1e-6)


def test_tolerance_halving_consistency():
    # The float transform is within its absolute error bound of the 50-digit one.
    for xi in (0.0, 3.7, 61.0, 320.0):
        assert abs(B.transform(xi) - B._transform_mp(xi)) <= TOLERANCE


def test_memo_rounds_to_12_digits():
    b = Bump()
    v1 = b.transform(1.0)
    v2 = b.transform(1.0 + 1e-15)  # same key after 12-digit rounding
    assert v1 == v2
    assert b.transform(1.0) == v1  # repeat call is a pure cache hit


def test_deep_recompute_below_noise():
    # Around |phi_hat| ~ 1e-13 the float64 pipeline returns noise; the
    # deep path must agree in order of magnitude with the x^-3 trend.
    v = abs(B.transform(2560.0, deep=True))
    assert 0.0 < v < 1e-11
    assert v == pytest.approx(2.115458e-13, rel=1e-4)


def test_decay_constant_frozen():
    grid = (10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0, 1280.0)
    assert decay_constant(B, 3, grid) == pytest.approx(2106.6178148212693, rel=1e-9)


def test_decay_constant_validation():
    with pytest.raises(ValueError):
        decay_constant(B, 0, (10.0,))
    with pytest.raises(ValueError):
        decay_constant(B, 3, (0.5,))


def _psi_mp(s):
    """psi at the working precision (mpmath.diff needs one precision throughout)."""
    return 1 / (1 + mpmath.exp(1 / s - 1 / (1 - s)))


def _g(s, ctx):
    """g(s) = 2/(1-s)^3 - 2/s^3 + q^2 tanh(x/2), q = 1/s^2 + 1/(1-s)^2,
    x = 1/s - 1/(1-s), in mpmath's `ctx` (mpmath.mp or mpmath.iv).  tanh(x/2)
    is written 1 - 2/(e^x + 1), with x once, so intervals stay tight."""
    u = 1 - s
    th = 1 - 2 / (ctx.exp(1 / s - 1 / u) + 1)
    q = 1 / s**2 + 1 / u**2
    return 2 / u**3 - 2 / s**3 + q * q * th


def _g_prime(s, ctx):
    """g'(s) = 6/(1-s)^4 + 6/s^4 + 2q (2/(1-s)^3 - 2/s^3) tanh(x/2)
    - q^3/2 sech^2(x/2), since x' = -q and tanh(x/2)' = sech^2(x/2) x'/2."""
    u = 1 - s
    th = 1 - 2 / (ctx.exp(1 / s - 1 / u) + 1)
    q = 1 / s**2 + 1 / u**2
    return 6 / u**4 + 6 / s**4 + 2 * q * (2 / u**3 - 2 / s**3) * th - q**3 / 2 * (1 - th * th)


def test_decay_a2_is_proven():
    # A_2 = ||Phi''||_1.  Each ramp is psi((x - 1/2)/w) or psi((1 - x)/w), so
    # its share is ||psi''||_1 / w.  With x = 1/s - 1/(1-s), psi = 1/(1 + e^x)
    # has psi'' = l(x) g(s), l = e^x/(1 + e^x)^2 > 0.  If g > 0 on (0, 1/2),
    # then psi(1 - s) = 1 - psi(s) makes psi'' < 0 on (1/2, 1): psi' rises from
    # psi'(0) = 0 to psi'(1/2) = 2 and falls back to psi'(1) = 0, so
    # ||psi''||_1 = 2 psi'(1/2) and A_2 = 2 * 2 psi'(1/2) / w = 64.
    iv = mpmath.iv
    with mpmath.workdps(30):
        for s in (mpmath.mpf("0.05"), mpmath.mpf("0.3"), mpmath.mpf("0.47")):
            x = 1 / s - 1 / (1 - s)
            ell = mpmath.exp(x) / (1 + mpmath.exp(x)) ** 2
            assert mpmath.diff(_psi_mp, s, 2) == pytest.approx(ell * _g(s, mpmath.mp), rel=1e-15)
            assert mpmath.diff(lambda v: _g(v, mpmath.mp), s) == pytest.approx(
                _g_prime(s, mpmath.mp), rel=1e-15
            )
            assert _psi_mp(1 - s) == pytest.approx(1 - _psi_mp(s), rel=1e-25)
        assert mpmath.diff(_psi_mp, mpmath.mpf("0.5")) == pytest.approx(2, rel=1e-20)
    lo, hi = 0.01, 0.49
    # (0, lo]: x >= x(lo) makes tanh(x/2) >= 1/2 there, so
    # g >= 2/(1-s)^3 - 2/s^3 + (1/s^4)/2 > (1 - 4s)/(2 s^4) > 0.
    x_lo = 1 / iv.mpf(lo) - 1 / (1 - iv.mpf(lo))
    assert (1 - 2 / (iv.exp(x_lo) + 1)).a >= 0.5 and 1 - 4 * lo > 0
    # [lo, hi]: interval arithmetic with outward rounding, bisected until
    # g's lower bound is positive on every piece.
    stack = [(lo, hi)]
    while stack:
        a, b = stack.pop()
        if _g(iv.mpf([a, b]), iv).a > 0:
            continue
        mid = (a + b) / 2
        assert a < mid < b, (a, b)
        stack += [(a, mid), (mid, b)]
    # [hi, 1/2]: g' < 0 and g(1/2) = 0, so g > 0 on [hi, 1/2).
    assert _g_prime(iv.mpf([hi, 0.5]), iv).b < 0
    assert _g(iv.mpf(0.5), iv) == 0
    assert DECAY_A2 == 2 * 2 * 2 / RAMP_WIDTH == 64.0
    assert PHI_HAT_0 == 0.5 - RAMP_WIDTH == B.transform(0.0).real == 0.375


def test_transform_obeys_the_proven_decay():
    # |phi_hat(xi)| xi^2 <= A_2 over criterion 8's grid, the deep points in
    # 50-digit arithmetic; the maximum there is about 52.7.
    grid = [10.0 * 2.0**k for k in range(9)] + [5120.0, 10000.0]
    assert max(abs(B.transform(xi, deep=True)) * xi * xi for xi in grid) <= DECAY_A2


def test_transform_riemann_sum_cross_check():
    # Independent check of one moderate frequency against a dense
    # midpoint rule (error O(h^2) on a smooth compactly supported f).
    xi = 7.0
    n = 200_001
    x = np.linspace(0.5, 1.0, n)
    vals = B.phi_vec(x) * np.exp(-1j * xi * x)
    ref = np.trapezoid(vals, x)
    assert B.transform(xi) == pytest.approx(complex(ref), abs=1e-8)


def test_support_is_half_one():
    assert math.isclose(B.lo, 0.5) and math.isclose(B.hi, 1.0)
    assert math.isclose(B.plateau_lo, 0.625) and math.isclose(B.plateau_hi, 0.875)


@pytest.mark.parametrize("xi", [math.nan, math.inf, -math.inf])
def test_transform_rejects_non_finite(xi):
    b = Bump()
    with pytest.raises(ValueError, match="finite"):
        b.transform(xi)
    with pytest.raises(ValueError, match="finite"):
        b.transform(xi, deep=True)
    with pytest.raises(ValueError, match="finite"):
        decay_constant(b, 3, (10.0, xi))


# phi_hat at ramp width 1/8 from a 70-digit tanh-sinh rerun of the ramp
# integrals, rounded to 25 digits.
DEEP_REFERENCE = {
    2560.0: complex(1.869626941432048590736153e-13, -9.89777185384876522265692e-14),
    5120.0: complex(8.119869631040806798415058e-19, -1.194503402515628663425986e-18),
}


def test_transform_mp_matches_70_digit_reference():
    b = Bump()
    for xi, ref in DEEP_REFERENCE.items():
        assert abs(b._transform_mp(xi) - ref) <= 1e-15 * abs(ref)


def _two_ramp_tanh_sinh(w: float, xi: float) -> complex:
    """The ramp-by-ramp tanh-sinh form of the 50-digit transform."""
    with mpmath.workdps(50):
        mxi = mpmath.mpf(xi)
        w_mp = mpmath.mpf(w)
        half = mpmath.mpf("0.5")
        one = mpmath.mpf(1)
        p_lo = half + w_mp
        p_hi = one - w_mp

        def psi_mp(s):
            if s <= 0:
                return mpmath.mpf(0)
            if s >= 1:
                return mpmath.mpf(1)
            return 1 / (1 + mpmath.exp(1 / s - 1 / (1 - s)))

        plateau = (
            mpmath.exp(-1j * mxi * p_lo) - mpmath.exp(-1j * mxi * p_hi)
        ) / (1j * mxi)
        pieces = max(4, int(mpmath.ceil(abs(mxi) * w_mp / mpmath.pi)) + 1)

        def ramp_integral(a, b, local):
            return mpmath.quad(
                lambda x: psi_mp(local(x)) * mpmath.exp(-1j * mxi * x),
                mpmath.linspace(a, b, pieces + 1),
            )

        up = ramp_integral(half, p_lo, lambda x: (x - half) / w_mp)
        down = ramp_integral(p_hi, one, lambda x: (one - x) / w_mp)
        return complex(plateau + up + down)


# (xi, pieces): the half-cycle piece count of the 50-digit rule.  The
# cases have the 4-piece floor, small and large even counts, and small and
# large odd ones, whose middle piece is its own mirror.
PIECE_CASES = [(50.0, 4), (110.0, 6), (150.0, 7), (2883.19, 116), (2560.0, 103)]


@pytest.mark.parametrize("w", [RAMP_WIDTH])
def test_transform_mp_matches_two_ramp_integral(w):
    for xi, pieces in PIECE_CASES:
        assert max(4, math.ceil(xi * w / math.pi) + 1) == pieces
        got = Bump()._transform_mp(xi)
        want = _two_ramp_tanh_sinh(w, xi)
        assert abs(got - want) <= 1e-15 * abs(want), (xi, pieces)


@pytest.mark.parametrize("w", [RAMP_WIDTH])
def test_transform_mp_at_zero(w):
    # Plateau 1/2 - 2w plus two ramps of integral w/2 each: 3/8 at w = 1/8.
    v = Bump()._transform_mp(0.0)
    assert v.imag == 0.0
    assert v.real == pytest.approx(0.5 - w, abs=1e-16)


def test_deep_transform_makes_no_mpmath_quad_call(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)

    monkeypatch.setattr(mpmath, "quad", counting)
    monkeypatch.setattr(type(mpmath.mp), "quad", counting)
    value = Bump().transform(2560.0, deep=True)
    assert calls == []
    assert abs(value - DEEP_REFERENCE[2560.0]) <= 1e-15 * abs(DEEP_REFERENCE[2560.0])


def test_transform_mp_raises_when_a_pair_does_not_converge(monkeypatch):
    # Degrees 1 and 2 (3 and 6 nodes a piece) leave every pair above eps.
    monkeypatch.setattr(bump_mod._gauss_legendre(), "guess_degree", lambda prec: 2)
    b = Bump()
    with pytest.raises(QuadratureError, match="did not converge") as info:
        b.transform(2560.0, deep=True)
    assert info.value.achieved_error > float(mpmath.mpf(2) ** -160)
    assert isinstance(info.value.value, complex)
    assert math.isfinite(abs(info.value.value))
    assert b._memo == {}  # nothing unconverged is memoized


def test_transform_mp_restores_precision(monkeypatch):
    before = mpmath.mp.dps
    prec = mpmath.mp.prec
    Bump()._transform_mp(2560.0)
    assert mpmath.mp.dps == before
    # A one-degree cap leaves no error estimate at all, which also raises.
    monkeypatch.setattr(bump_mod._gauss_legendre(), "guess_degree", lambda p: 1)
    with pytest.raises(QuadratureError):
        Bump()._transform_mp(2560.0)
    assert mpmath.mp.prec == prec
    assert mpmath.mp.dps == before


def _fresh_python(code: str):
    """Run `code` in a new interpreter with this package on its path and
    return the JSON value it prints last."""
    src = str(Path(bump_mod.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _readme_commands() -> list[list[str]]:
    """The `rescert ...` lines of README's "Command line" block, as argv lists."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("rescert ")]
    return [shlex.split(line, comments=True)[1:] for line in lines]


def test_imports_and_readme_commands_leave_mpmath_unloaded():
    # mpmath serves only the 50-digit transform, which no CLI path reaches.
    commands = _readme_commands()
    assert len(commands) >= 8
    loaded, codes = _fresh_python(f"""
        import contextlib, io, json, sys
        loaded, codes = {{}}, {{}}
        import rescert
        loaded["import rescert"] = "mpmath" in sys.modules
        import rescert.cli, rescert.oracle
        loaded["import rescert.cli, rescert.oracle"] = "mpmath" in sys.modules
        for argv in {commands!r}:
            with contextlib.redirect_stdout(io.StringIO()):
                codes[" ".join(argv)] = rescert.cli.main(argv)
            loaded[" ".join(argv)] = "mpmath" in sys.modules
        rescert.Bump().transform(2560.0, deep=True)
        loaded["deep transform"] = "mpmath" in sys.modules
        print(json.dumps([loaded, codes]))
    """)
    assert codes == dict.fromkeys(codes, 0) and len(codes) == len(commands)
    assert loaded.pop("deep transform") is True
    assert loaded == dict.fromkeys(loaded, False)


def test_cold_deep_transform_is_the_pinned_value():
    # The first deep transform of a process imports mpmath and builds the node
    # cache; its value is the warm one to the bit, at mpmath's default precision.
    got = _fresh_python("""
        import json, sys
        from rescert.bump import Bump
        loaded = "mpmath" in sys.modules
        v = Bump().transform(2560.0, deep=True)
        import mpmath
        print(json.dumps([loaded, v.real.hex(), v.imag.hex(), mpmath.mp.dps, mpmath.mp.prec]))
    """)
    ref = DEEP_REFERENCE[2560.0]
    assert got == [False, ref.real.hex(), ref.imag.hex(), 15, 53]


# _transform_mp at ramp width 1/8, as complex128, re-derived in
# test_fused_reference_is_transform_mp.
FUSED_REFERENCE = {
    0.0: complex(0.375, 0.0),
    1.0: complex(0.2727210731117331, -0.25406598626303917),
    3.3: complex(-0.2756434331310559, -0.21685504525617708),
    10.0: complex(0.06476345484403888, -0.1752508068680762),
    123.4: complex(-0.00017344465878749578, 0.0013585363606415596),
    777.7: complex(-3.199985203232826e-08, -5.726686096217857e-08),
    1280.0: complex(2.0373432808189349e-10, 8.202842760659727e-10),
    2883.19: complex(-8.747845060596611e-15, 1.2951604106329772e-14),
    10991.87: complex(1.4965517713477454e-26, -5.690835672946102e-27),
    19398.51: complex(2.489340830993551e-33, -4.194265289478551e-34),
}


def test_fused_reference_is_transform_mp():
    b = Bump()
    for xi, ref in FUSED_REFERENCE.items():
        tol = 1e-16 if xi <= 1280.0 else 1e-15 * abs(ref)
        assert abs(b._transform_mp(xi) - ref) <= tol, xi


def _psi_deep(s):
    """psi as the 50-digit rule took it from mpmath: 50 digits plus 20 guard bits."""
    with mpmath.workdps(bump_mod.DEEP_DPS), mpmath.workprec(mpmath.mp.prec + 20):
        t = 1 - s
        return 1 / (1 + mpmath.exp((t - s) / (s * t)))


def test_psi_fixed_matches_50_digit_psi():
    with mpmath.workdps(bump_mod.DEEP_DPS):
        prec = mpmath.mp.prec
    fixed = prec + 20
    one = 1 << fixed
    rng = np.random.default_rng(11)
    near_end = [int(d * one) for d in rng.uniform(1e-12, 1e-3, 40)] + [1, 2**40]
    # Around s = 0.0073, x = 1/s - 1/(1 - s) crosses the cut (fixed + 8) ln 2.
    near_cut = [int(d * one) for d in rng.uniform(0.005, 0.01, 80)]
    points = [int(d * one) for d in rng.uniform(0.0, 1.0, 200)] + [one // 2]
    points += near_end + [one - p for p in near_end] + near_cut + [one - p for p in near_cut]
    branches = {0: 0, one: 0}
    for s in points:
        got = bump_mod._psi_fixed(s, fixed)
        if got in branches:
            branches[got] += 1
        with mpmath.workprec(2 * fixed):
            err = abs(mpmath.mpf((got, -fixed)) - _psi_deep(mpmath.mpf((s, -fixed))))
        assert err <= mpmath.mpf(2) ** -prec, s
    assert branches[0] > 0 and branches[one] > 0
    assert bump_mod._psi_fixed(one // 2, fixed) == one // 2


# The 50-digit rule's fixed-point precision, P = prec + 20 bits.
with mpmath.workdps(bump_mod.DEEP_DPS):
    DEEP_FIXED = mpmath.mp.prec + 20


def _assert_exp_fixed_close(x: int) -> None:
    # Against mpmath's exp_fixed at 2 * fixed bits: within 4 units of 2^-fixed
    # relative to e^x, plus the one unit that the final shift truncates.
    fixed = DEEP_FIXED
    got = bump_mod._exp_fixed(x, fixed)
    ref = exp_fixed(x << fixed, 2 * fixed)
    assert abs((got << fixed) - ref) <= 4 * (ref >> fixed) + (1 << fixed), x


@settings(max_examples=300, deadline=None)
@given(frac=st.fractions(-1, 1))
def test_exp_fixed_matches_mpmath(frac):
    # x over psi's whole range |x| <= (fixed + 8) ln 2, both signs.
    cut = (DEEP_FIXED + 8) * ln2_fixed(DEEP_FIXED)
    _assert_exp_fixed_close(int(frac * cut))


def test_exp_fixed_at_reduction_and_table_edges():
    # x at each multiple n ln 2 in range, and x whose reduced argument t lands on
    # a boundary j 2^(-8k) of table level k (where the Taylor remainder is
    # largest just below), each +-1 unit, in _exp_fixed's own ln 2.
    guard = bump_mod._EXP_GUARD
    wp = DEEP_FIXED + guard
    ln2 = bump_mod._exp_tables(DEEP_FIXED)[0]
    edges = [n * ln2 for n in range(-(DEEP_FIXED + 8), DEEP_FIXED + 9)]
    edges += [
        n * ln2 + (j << (wp - 8 * k))
        for n in (-DEEP_FIXED, 0, DEEP_FIXED)
        for k in (1, 2, 3)
        for j in range(1, 256)
        if j << (wp - 8 * k) < ln2
    ]
    for edge in edges:
        for x in range((edge >> guard) - 1, (edge >> guard) + 2):
            _assert_exp_fixed_close(x)


# C = integral_0^1 psi(s) e^{-i lam s} ds at lam = xi w, as (re, im) to 60
# digits: mpmath.quad (tanh-sinh) at 70 digits of psi(s) expj(-lam s) over
# [0, 1] cut at the half-cycle points k pi / lam < 1, with psi as in _psi_mp
# inside (0, 1), psi(0) = 0 and psi(1) = 1.
FOLDED_RAMP_REFERENCE = {
    3.3: (
        "0.476554371920819282792982554055082067608552925248898178499934",
        "-0.146532177750549377789624492035612006972332196020161955313179",
    ),
    320.0: (
        "0.0186115534066342335924223629003840538259367914972249823809746",
        "-0.0166807266572929492122229779413280739007511201409553767209436",
    ),
    2560.0: (
        "-0.00133798571246250048364966375700116780616150436411159214333691",
        "0.0028240784735680083537689536615578125289122437205226040831482",
    ),
}


def test_folded_ramp_mp_matches_70_digit_quad():
    # The 50-digit C itself, which the complex128 pins above cannot see below
    # 10^-16: within the working eps relative.
    for xi, (re, im) in FOLDED_RAMP_REFERENCE.items():
        with mpmath.workdps(bump_mod.DEEP_DPS):
            c, _ = bump_mod._folded_ramp_mp(mpmath.mpf(xi) * RAMP_WIDTH)
            eps = +mpmath.eps
        with mpmath.workdps(70):
            ref = mpmath.mpc(re, im)
            assert abs(c - ref) <= eps * abs(ref), xi


def test_integer_estimate_makes_mpmath_stopping_decisions(monkeypatch):
    # Each estimate of the 50-digit rule, on its exact integer results, next to
    # mpmath's own on the same results as mpc at 2 * fixed bits, and next to
    # mpmath's on those times a unit phase, which the rule leaves out.
    calls = []
    ours = bump_mod._estimate_error
    rule = bump_mod._gauss_legendre()

    def both(results, prec, fixed):
        got = ours(results, prec, fixed)
        stop = (10 ** (2 * prec) << (4 * fixed)) >> (2 * prec + 4)  # eps/8 in got's unit
        with mpmath.workprec(2 * fixed):
            eps = mpmath.mpf(2) ** (1 - prec) / 8  # mp.eps / 8 at the rule's precision
            plain = [
                mpmath.mpc(mpmath.mpf((re, -2 * fixed)), mpmath.mpf((im, -2 * fixed)))
                for re, im in results
            ]
            phase = mpmath.expj(len(calls))
            want = rule.estimate_error(plain, prec, eps) <= eps
            phased = rule.estimate_error([phase * z for z in plain], prec, eps) <= eps
        calls.append((len(results), got <= stop, want, phased))
        return got

    monkeypatch.setattr(bump_mod, "_estimate_error", both)
    b = Bump()
    for xi in [0.0, 3.3, 777.7, 12345.6] + [10.0 * 2**k for k in range(13)]:
        b._transform_mp(xi)
    assert len(calls) > 5000
    assert any(n > 2 for n, _, _, _ in calls)
    assert any(got for _, got, _, _ in calls) and not all(got for _, got, _, _ in calls)
    assert [(n, want, phased) for n, _, want, phased in calls] == [
        (n, got, got) for n, got, _, _ in calls
    ]


# _transform_mp's complex128 parts, as hex, recorded before its degree climb
# moved to exact integers, and its psi evaluations at two of these xi.
PINNED_DEEP_BITS = {
    0.0: ("0x1.8000000000000p-2", "0x0.0p+0"),
    1.0: ("0x1.17443167c798cp-2", "-0x1.0429dfb81a5b3p-2"),
    3.3: ("-0x1.1a4245aa9ec4ep-2", "-0x1.bc1e7f7ac8759p-3"),
    10.0: ("0x1.094567887f777p-4", "-0x1.66e9e520c49b6p-3"),
    20.0: ("0x1.46acc99741eb3p-5", "0x1.17a1b0b0a50bcp-5"),
    40.0: ("0x1.4cbf6455ec21bp-8", "0x1.0a6b7acf4ae48p-5"),
    80.0: ("-0x1.4b7597227cb1bp-9", "0x1.a8524dedc065fp-11"),
    160.0: ("0x1.b1754b54ad855p-12", "-0x1.351be7958213fp-12"),
    320.0: ("-0x1.db36983ac2864p-22", "0x1.58c70119ab269p-20"),
    640.0: ("0x1.e272fb2e18b30p-24", "0x1.7947f09f7c90bp-24"),
    1280.0: ("0x1.c0043b024fcdbp-33", "0x1.c2f4bfae23786p-31"),
    2560.0: ("0x1.a500a7c2f3772p-43", "-0x1.bdc18a493ba2ep-44"),
    5120.0: ("0x1.df50002808c52p-61", "-0x1.608e201425995p-60"),
    10240.0: ("0x1.591c63228e543p-83", "0x1.b41f36c9b3f02p-82"),
    20480.0: ("0x1.61029f3501d4cp-112", "-0x1.4b3082765c4dcp-112"),
    40960.0: ("-0x1.87e1eb2000000p-159", "0x1.7f99450000000p-155"),
    50.0: ("0x1.20b702a992042p-10", "0x1.d21163ff0f850p-13"),
    123.4: ("-0x1.6bbd64639989ap-13", "0x1.6421d4f520a64p-10"),
    300.0: ("0x1.612faecea147ap-19", "0x1.bf2773f9da289p-18"),
    777.7: ("-0x1.12e06b3609de2p-25", "-0x1.ebeb28b614086p-25"),
    2883.19: ("-0x1.3b2ca127df2c7p-47", "0x1.d2a17690c8d24p-47"),
    10991.87: ("0x1.286c30a70ad5bp-86", "-0x1.c2dfdc2fe4361p-88"),
    12345.6: ("-0x1.71e54daffbdd3p-89", "0x1.ec53a1767922bp-89"),
    19398.51: ("0x1.9d9cd94809243p-109", "-0x1.16c1b9dbc8fddp-111"),
}
PINNED_PSI_CALLS = {2560.0: 2532, 5120.0: 4635}


def test_transform_mp_pinned_bits_and_psi_calls(monkeypatch):
    b = Bump()
    got = {}
    for xi in PINNED_DEEP_BITS:
        v = b._transform_mp(xi)
        got[xi] = (v.real.hex(), v.imag.hex())
    assert got == PINNED_DEEP_BITS
    # The same psi work means every piece pair stops at the same degree.
    real = bump_mod._psi_fixed
    for xi, want in PINNED_PSI_CALLS.items():
        calls = []

        def counting(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(bump_mod, "_psi_fixed", counting)
        b._transform_mp(xi)
        assert len(calls) == want, xi


@pytest.mark.parametrize("xi", sorted(FUSED_REFERENCE))
def test_transform_float_matches_transform_mp(xi):
    assert abs(Bump()._transform_float(xi) - FUSED_REFERENCE[xi]) <= 1e-14


# float.hex of (re, im) of the float transform at transform-deep's float points
# xi = 10 * 2^k, k = 0..7, whose rounding noise its decay-constant reference records.
FLOAT_TRANSFORM_BITS = {
    10.0: ("0x1.094567887f778p-4", "-0x1.66e9e520c49b6p-3"),
    20.0: ("0x1.46acc99741eaep-5", "0x1.17a1b0b0a50b8p-5"),
    40.0: ("0x1.4cbf6455ec21ap-8", "0x1.0a6b7acf4ae46p-5"),
    80.0: ("-0x1.4b7597227cb38p-9", "0x1.a8524dedc0678p-11"),
    160.0: ("0x1.b1754b54ad640p-12", "-0x1.351be79581fb0p-12"),
    320.0: ("-0x1.db36983aba000p-22", "0x1.58c70119a4000p-20"),
    640.0: ("0x1.e272fb3488000p-24", "0x1.7947f0a484000p-24"),
    1280.0: ("0x1.c004387200000p-33", "0x1.c2f4bd2000000p-31"),
}


def test_transform_float_pinned_bits():
    got = {}
    for xi in FLOAT_TRANSFORM_BITS:
        v = Bump()._transform_float(xi)
        got[xi] = (v.real.hex(), v.imag.hex())
    assert got == FLOAT_TRANSFORM_BITS


def _two_ramp_float(b: Bump, w: float, xi: float) -> complex:
    """The float transform as two separate ramp integrals, one per ramp."""
    from rescert.quadrature import adaptive_oscillatory, composite_gl


    def psi(s):
        out = np.zeros_like(s)
        out[s >= 1.0] = 1.0
        inside = (s > 0.0) & (s < 1.0)
        si = s[inside]
        with np.errstate(over="ignore"):
            out[inside] = 1.0 / (1.0 + np.exp(1.0 / si - 1.0 / (1.0 - si)))
        return out

    plateau = (
        (np.exp(-1j * xi * b.plateau_lo) - np.exp(-1j * xi * b.plateau_hi)) / (1j * xi)
        if xi
        else b.plateau_hi - b.plateau_lo
    )
    tol = 0.45 * TOLERANCE
    up, _ = adaptive_oscillatory(
        lambda x: psi((x - 0.5) / w) * np.exp(-1j * xi * x),
        0.5, b.plateau_lo, max_freq=abs(xi), rule=composite_gl, abs_tol=tol, rel_tol=0.0,
    )
    down, _ = adaptive_oscillatory(
        lambda x: psi((1.0 - x) / w) * np.exp(-1j * xi * x),
        b.plateau_hi, 1.0, max_freq=abs(xi), rule=composite_gl, abs_tol=tol, rel_tol=0.0,
    )
    return complex(plateau) + up + down


@pytest.mark.parametrize("w", [RAMP_WIDTH])
def test_transform_float_matches_two_ramp_integral(w):
    b = Bump()
    for xi in FUSED_REFERENCE:
        assert abs(b._transform_float(xi) - _two_ramp_float(b, w, xi)) <= 1e-14


def test_cold_transform_is_one_adaptive_integral(monkeypatch):
    import rescert.bump as bump_mod

    calls = []
    real = bump_mod.adaptive_oscillatory

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(bump_mod, "adaptive_oscillatory", counting)
    b = Bump()
    b.transform(777.7)
    assert calls == [(0.0, 1.0)]
    b.transform(777.7)
    b.transform(-777.7)
    assert len(calls) == 1
