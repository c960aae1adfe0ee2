"""Smooth bump window and its Fourier transform.

The window is fixed: supported in [1/2, 1], equal to 1 on the plateau
[1/2 + w, 1 - w] with ramp width w = RAMP_WIDTH = 1/8 (plateau
[5/8, 7/8]), and climbing each ramp through the standard smooth
partition function

    psi(s) = sigma(s) / (sigma(s) + sigma(1 - s)),   sigma(s) = exp(-1/s)

evaluated at the ramp-local coordinate.  The transform convention is

    phi_hat(xi) = integral phi(x) * exp(-i*xi*x) dx.

Two closed-form constants carry the certificate's off-diagonal bound:
PHI_HAT_0 = phi_hat(0) = 1/2 - w and DECAY_A2 = ||Phi''||_1 = 64, with
|phi_hat(xi)| <= DECAY_A2 / xi^2 for every xi.

The plateau piece has a closed form.  x = 1/2 + w*s on the up-ramp and
x = 1 - w*s on the down-ramp fold both ramps into

    w * (e^{-i xi/2} C + e^{-i xi} conj(C)),  C = integral_0^1 psi(s) e^{-i xi w s} ds.

In float64, C goes through adaptive Gauss-Legendre quadrature with the
level rule quadrature.composite_gl_phased, which factors each node's
phase into a per-node and a per-panel exponential, to absolute error
TOLERANCE = 1e-12.  Transform values are memoized on xi rounded to 12
significant digits.  Oscillatory cancellation pushes genuine transform
values below double precision noise (~1e-16) for large |xi|; callers
that need trustworthy relative magnitudes out there (decay diagnostics)
request deep=True, which re-evaluates those points in 50-digit
arithmetic.  Window values, at one point or many, come from phi_vec.

The 50-digit path integrates the same C with its own composite
Gauss-Legendre rule on P equal pieces between half-cycle breakpoints of
e^{-i xi w s}, in quadrature's panel layout, and at least 4 of them.
A node s = s_k + u_j of piece k has phase e^{-i lam s_k} e^{-i lam u_j}
(lam = xi w), so the node factors h/2 * w_j * e^{-i lam u_j} are built
once per degree and a node costs one psi and a real-times-complex
product.  Since psi(1 - s) = 1 - psi(s) and the layout is symmetric
about 1/2, piece P-1-k is
e^{-i lam} conj(e^{-i lam s_k} sum_j (1 - psi_j) * factor_j) node for
node, so each psi value (one exp) serves both pieces of a mirror pair.
The whole rule runs in Python-int fixed point at prec + 20 bits, with no
mpf per node: offsets, factors and phases are integers times
2^-(prec+20), their cosines and sines from mpmath.libmp's cos_sin_fixed,
psi comes from three floor divisions and a table-driven exponential
(_exp_fixed, Tang 1989) within a few units of 2^-(prec+20) (_psi_fixed),
and the products sum exactly.
Each pair climbs mpmath's Gauss-Legendre degrees (3 * 2^(m-1) nodes)
until the GaussLegendre.estimate_error extrapolation is at most eps/8 for
both pieces, mpmath.quad's stopping rule, and a pair that has not got
there at the top degree raises QuadratureError.  The climb stays in
these exact integer sums: the estimate (_estimate_error) works on their
exact differences, which the unimodular piece phase would not change,
with its two logarithms in float and its test against eps/8 an integer
comparison.  A piece's last degree times its phase joins an exact integer
sum, and C becomes one mpc at the end.

mpmath serves only this 50-digit path, so it is imported on the first
deep transform of a process, not with this module: importing rescert and
every CLI command leave it unloaded.  The deep functions bind its names
once per call, outside the node loop, and two things are built on the
first deep call and kept for the process: the Gauss-Legendre rule with its
node cache (_gauss_legendre) and the exponential's tables (_exp_tables).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import QuadratureError
from .quadrature import adaptive_oscillatory, composite_gl_phased

# The window's ramp width and the float transform's absolute error bound.
RAMP_WIDTH = 0.125
TOLERANCE = 1e-12
# phi_hat(0) = the window's mass, 1/2 - w in closed form (exactly 3/8).
PHI_HAT_0 = 0.5 - RAMP_WIDTH
# A_2 = ||Phi''||_1, so |phi_hat(xi)| <= A_2 / xi^2 (two integrations by parts).
# psi' is unimodal on (0, 1) with peak psi'(1/2) = 2, so each ramp's
# ||Phi''||_1 is 2 psi'(1/2) / w; the unimodality is proved in
# tests/test_bump.py (test_decay_a2_is_proven).  Exactly 64.
DECAY_A2 = 2 * 2 * 2.0 / RAMP_WIDTH
# Below this magnitude a float64 quadrature result is dominated by
# rounding noise of the O(1) integrand, not by the true value.
DEEP_THRESHOLD = 1e-12
DEEP_DPS = 50
# Guard bits of _exp_fixed's tables and products over its prec.
_EXP_GUARD = 12
_LOG10_2 = math.log10(2)


def _psi_vec(s: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(1/s - 1/(1 - s))) for s in [0, 1], one ufunc at a time into two
    # buffers; at the ends exp(+-inf) gives psi(0) = 0, psi(1) = 1.
    with np.errstate(over="ignore", divide="ignore"):
        rev = np.subtract(1.0, s)
        np.divide(1.0, rev, out=rev)
        out = np.divide(1.0, s)
        np.subtract(out, rev, out=out)
        np.exp(out, out=out)
        np.add(out, 1.0, out=out)
        return np.divide(1.0, out, out=out)


@functools.cache
def _gauss_legendre():
    """mpmath's Gauss-Legendre rule of the 50-digit path, which caches its node
    tables per (degree, precision): built on the first deep call, kept for the
    process."""
    import mpmath
    from mpmath.calculus.quadrature import GaussLegendre

    return GaussLegendre(mpmath.mp)


@functools.cache
def _exp_tables(prec: int):
    """Tang's tables for _exp_fixed at prec bits, built once per precision and
    kept for the process: ln 2, three levels e^{j 2^-8k} (j < 256, k = 1, 2, 3)
    and the Horner coefficients 1/k! of e^r for r < 2^-24, every entry an
    integer times 2^-(prec + _EXP_GUARD) within a few units, from mpmath.libmp.
    """
    from mpmath.libmp.libelefun import exp_fixed, ln2_fixed

    wp = prec + _EXP_GUARD
    levels = tuple(
        tuple(exp_fixed(j << (wp - 8 * k), wp) for j in range(256)) for k in (1, 2, 3)
    )
    # Taylor terms up to r^(n-1)/(n-1)!, the first n with r^n/n! below 2^-wp.
    n = next(n for n in range(1, wp) if 24 * n + math.log2(math.factorial(n)) >= wp)
    horner = tuple((1 << wp) // math.factorial(k) for k in reversed(range(n)))
    return ln2_fixed(wp), levels, horner


def _exp_fixed(x: int, prec: int) -> int:
    """e^x for x an integer times 2^-prec, as an integer times 2^-prec.

    Tang, ACM TOMS 15 (1989): x = n ln 2 + t with 0 <= t < ln 2, and
    e^t = e^{j1 2^-8} e^{j2 2^-16} e^{j3 2^-24} e^r, the three factors looked
    up by t's leading three bytes (_exp_tables) and e^r (r < 2^-24) by Horner's
    rule, all at _EXP_GUARD bits more than prec.  Within a few units
    relative of e^x, plus one unit of 2^-prec from the last shift.
    """
    ln2, (e8, e16, e24), horner = _exp_tables(prec)
    wp = prec + _EXP_GUARD
    n, t = divmod(x << _EXP_GUARD, ln2)
    r = t & ((1 << (wp - 24)) - 1)
    v = 0
    for c in horner:
        v = c + (v * r >> wp)
    v = v * e8[t >> (wp - 8)] >> wp
    v = v * e16[(t >> (wp - 16)) & 255] >> wp
    v = v * e24[(t >> (wp - 24)) & 255] >> wp
    n -= _EXP_GUARD
    return v << n if n >= 0 else v >> -n


def _psi_fixed(s: int, prec: int) -> int:
    """psi at s * 2^-prec in (0, 1), as an integer scaled by 2^prec.

    x = 1/s - 1/(1 - s) takes two floor divisions and psi = 1/(1 + e^x) a third,
    with e^x from _exp_fixed.  Past |x| > (prec + 8) ln 2, psi is within
    2^-(prec+8) of 0 (x > 0) or 1 (x < 0) and returns that end.
    Each floor costs under one unit of 2^-prec, _exp_fixed a few units relative
    to e^x, and |d psi / d ln e^x| <= 1/4, so the result is within a few units
    of 2^-prec of psi at the represented s.
    """
    one = 1 << prec
    x = (one << prec) // s - (one << prec) // (one - s)
    cut = (prec + 8) * _exp_tables(prec)[0] >> _EXP_GUARD
    if x > cut:
        return 0
    if x < -cut:
        return one
    return (one << prec) // (one + _exp_fixed(x, prec))


def _estimate_error(results, prec, fixed):
    """GaussLegendre.estimate_error on a piece's exact integer results.

    results are (re, im) integer sums at scale 2^(2 fixed), one per degree.
    The estimate E is mpmath's Borwein-Bailey-Girgensohn extrapolation:
    |r[-1] - r[-2]| for two results, 0 when the last three are equal, and
    otherwise 10^int(D4) with D4 = min(0, max(D1^2/D2, 2 D1, -prec)), where
    D1 and D2 are log10 |r[-1] - r[-2]| and log10 |r[-1] - r[-3]|, taken in
    float from the leading bits of the exact squared differences.  Only
    int(D4) reaches the estimate, so it differs from mpmath's only where D4
    lies within float rounding of an integer.  The piece phase is left out:
    it has modulus 1 and changes no |difference|.

    Returns E^2 * 10^(2 prec) * 2^(4 fixed), an exact integer in each case
    (int(D4) >= -prec), so the caller's stopping test and largest estimate
    are integer comparisons.
    """
    re, im = results[-1]
    re2, im2 = results[-2]
    if len(results) == 2:
        return ((re - re2) ** 2 + (im - im2) ** 2) * 10 ** (2 * prec)
    if results[-1] == results[-2] == results[-3]:
        return 0
    re3, im3 = results[-3]
    d1, d2 = (
        (math.log2(norm) / 2 - 2 * fixed) * _LOG10_2 if norm else -math.inf
        for norm in ((re - re2) ** 2 + (im - im2) ** 2, (re - re3) ** 2 + (im - im3) ** 2)
    )
    n = int(min(0, max(d1 * d1 / d2, 2 * d1, -prec)))
    return 10 ** (2 * (prec + n)) << (4 * fixed)


def _folded_ramp_mp(lam):
    """C = integral_0^1 psi(s) e^{-i lam s} ds by the 50-digit ramp rule
    (module docstring), in Python-int fixed point at P = prec + 20 bits.

    Per degree, each Gauss-Legendre node x_j and weight w_j is truncated once
    to an integer times 2^-P, and the offset u_j = h (1 + x_j) / 2 and the
    factor h/2 * w_j * e^{-i lam u_j} follow by integer products and floor
    divisions, the cosine and sine from mpmath.libmp's cos_sin_fixed.  psi
    comes from _psi_fixed at the piece start plus u_j, and
    sum_j psi_j * factor_j is an exact integer sum.  The mirror piece's sum of
    (1 - psi_j) * factor_j is the exact integer 2^P * sum_j factor_j minus it.
    A pair's whole degree climb stays in these integers: the stopping estimate
    works on their exact differences (_estimate_error).  The last degree of a
    piece is multiplied by its phase e^{-i lam k h}, and the mirror's conjugate
    by e^{-i lam} conj(e^{-i lam k h}), both from cos_sin_fixed, into one exact
    sum at scale 2^-(3P) that becomes an mpc at the end.
    A node is within one unit of 2^-P of its place, and a factor, phase or psi
    value within a few units (_psi_fixed).  With |psi'| <= 2 and
    sum_j |factor_j| <= h, a piece of n nodes (n <= 3 * 2^(top-1)) is off by
    about (n + 8) 2^-P per part, and its phase adds a few units more: far below
    the eps/8 = 2^-(prec+2) a piece pair's estimate is tested against.

    Returns (C, worst): worst is the largest error estimate of a piece
    pair at its last degree, an mpf to be compared with eps/8 at the
    working precision.
    """
    import mpmath
    from mpmath.libmp import from_man_exp, to_fixed
    from mpmath.libmp.libelefun import cos_sin_fixed, pi_fixed

    gauss_legendre = _gauss_legendre()
    prec = mpmath.mp.prec
    top = gauss_legendre.guess_degree(prec)
    fixed = prec + 20
    one = 1 << fixed
    lam = to_fixed(lam._mpf_, fixed)  # lam times 2^fixed from here on
    pieces = max(4, -(-abs(lam) // pi_fixed(fixed)) + 1)
    # cos_sin_fixed reduces its argument by pi/2 with an error of up to a unit
    # per multiple of pi/2, so phases up to lam are taken at as many more bits
    # as lam has integer bits, and each is within a unit of 2^-fixed before its
    # own few units.
    guard = (abs(lam) >> fixed).bit_length()

    def expj(num, den):
        # e^{-i lam num / den} as (re, im) times 2^fixed.
        c, s = cos_sin_fixed((lam * num << guard) // den, fixed + guard)
        return c >> guard, -s >> guard

    # _estimate_error's unit: E <= eps/8 = 2^-(prec+2) iff its value is <= stop.
    scale = 10 ** (2 * prec) << (4 * fixed)
    stop = scale >> (2 * prec + 4)
    degrees = {}

    def node_factors(degree):
        # Offsets u_j in a piece and the parts of h/2 * w_j * e^{-i lam u_j},
        # all times 2^fixed, with the sums of the parts (the rule applied to
        # psi = 1) times 2^(2 fixed).
        if degree not in degrees:
            offsets, re, im = [], [], []
            den = 2 * pieces << fixed
            for x, weight in gauss_legendre.get_nodes(-1, 1, degree, prec):
                span = one + to_fixed(x._mpf_, fixed)  # (1 + x_j) 2^fixed
                weight = to_fixed(weight._mpf_, fixed)
                c, s = expj(span, den)
                offsets.append(span // (2 * pieces))
                re.append(weight * c // den)
                im.append(weight * s // den)
            degrees[degree] = offsets, re, im, sum(re) << fixed, sum(im) << fixed
        return degrees[degree]

    back_re, back_im = expj(1, 1)
    total_re = total_im = 0
    worst = 0
    for k in range((pieces + 1) // 2):
        start = (k << fixed) // pieces
        paired = 2 * k + 1 < pieces  # else the middle piece, its own mirror
        here, mirror = [], []
        err = math.inf
        for degree in range(1, top + 1):
            offsets, re, im, ones_re, ones_im = node_factors(degree)
            dot_re = dot_im = 0
            for u, a, b in zip(offsets, re, im):
                p = _psi_fixed(start + u, fixed)
                dot_re += p * a
                dot_im += p * b
            here.append((dot_re, dot_im))
            if paired:
                mirror.append((ones_re - dot_re, ones_im - dot_im))
            if degree > 1:
                err = _estimate_error(here, prec, fixed)
                # The mirror's estimate only matters once this one passes.
                if paired and err <= stop:
                    err = max(err, _estimate_error(mirror, prec, fixed))
                if err <= stop:
                    break
        worst = max(worst, err)
        # phase * here + e^{-i lam} conj(phase * mirror), the latter as
        # (e^{-i lam} conj(phase)) * conj(mirror), at scale 2^(3 fixed).
        phase_re, phase_im = expj(k, pieces)
        re, im = here[-1]
        total_re += phase_re * re - phase_im * im
        total_im += phase_re * im + phase_im * re
        if paired:
            q_re = (back_re * phase_re + back_im * phase_im) >> fixed
            q_im = (back_im * phase_re - back_re * phase_im) >> fixed
            re, im = mirror[-1]
            total_re += q_re * re + q_im * im
            total_im += q_im * re - q_re * im
    c = mpmath.mp.make_mpc(
        (from_man_exp(total_re, -3 * fixed), from_man_exp(total_im, -3 * fixed))
    )
    return c, mpmath.sqrt(mpmath.mpf(worst) / scale)


@dataclass
class Bump:
    """The fixed window (module docstring) and its memoized transform."""

    _memo: dict[str, tuple[complex, bool]] = field(default_factory=dict, repr=False)

    # Ramp boundaries.
    @property
    def lo(self) -> float:
        return 0.5

    @property
    def plateau_lo(self) -> float:
        return 0.5 + RAMP_WIDTH

    @property
    def plateau_hi(self) -> float:
        return 1.0 - RAMP_WIDTH

    @property
    def hi(self) -> float:
        return 1.0

    def phi_vec(self, y: np.ndarray) -> np.ndarray:
        """Vectorized window values."""
        y = np.asarray(y, dtype=np.float64)
        w = RAMP_WIDTH
        out = np.zeros_like(y)
        plateau = (y >= 0.5 + w) & (y <= 1.0 - w)
        out[plateau] = 1.0
        up = (y > 0.5) & (y < 0.5 + w)
        out[up] = _psi_vec((y[up] - 0.5) / w)
        down = (y > 1.0 - w) & (y < 1.0)
        out[down] = _psi_vec((1.0 - y[down]) / w)
        return out

    def transform(self, xi: float, deep: bool = False) -> complex:
        """phi_hat(xi) with absolute error <= TOLERANCE.

        With deep=True, values whose float64 magnitude falls below the
        noise threshold are recomputed in high precision so that their
        relative size is meaningful.

        Negative arguments route through phi_hat(-xi) conjugated (exact
        for a real window), so conjugate pairs cancel exactly in the
        moment sums.

        Raises:
            ValueError: xi is NaN or infinite.
        """
        if not math.isfinite(xi):
            raise ValueError(f"transform argument must be finite, got {xi}")
        if xi < 0.0:
            return self.transform(-xi, deep=deep).conjugate()
        key = f"{float(xi):.12e}"
        hit = self._memo.get(key)
        if hit is not None:
            value, is_deep = hit
            if is_deep or not deep or abs(value) >= DEEP_THRESHOLD:
                return value
        value = self._transform_float(float(xi))
        is_deep = False
        if deep and abs(value) < DEEP_THRESHOLD:
            value = self._transform_mp(float(xi))
            is_deep = True
        self._memo[key] = (value, is_deep)
        return value

    def _transform_float(self, xi: float) -> complex:
        """phi_hat(xi) in float64: closed-form plateau plus the folded ramps
        (module docstring), C by one adaptive integral under
        composite_gl_phased.
        An error d in C moves the ramps by at most 2w|d|, so C's budget
        0.45 * TOLERANCE / w keeps the ramps within 0.9 * TOLERANCE.
        """
        w = RAMP_WIDTH
        p_lo, p_hi = self.plateau_lo, self.plateau_hi
        if xi == 0.0:
            plateau = p_hi - p_lo
        else:
            # integral_{p_lo}^{p_hi} e^{-i xi x} dx
            plateau = (
                np.exp(-1j * xi * p_lo) - np.exp(-1j * xi * p_hi)
            ) / (1j * xi)
        c, _ = adaptive_oscillatory(
            (_psi_vec, xi * w), 0.0, 1.0, max_freq=abs(xi) * w,
            abs_tol=0.45 * TOLERANCE / w, rel_tol=0.0, rule=composite_gl_phased,
        )
        ramps = w * (np.exp(-0.5j * xi) * c + np.exp(-1j * xi) * c.conjugate())
        return complex(plateau + ramps)

    def _transform_mp(self, xi: float) -> complex:
        """phi_hat(xi) in DEEP_DPS-digit arithmetic: the closed-form plateau
        plus the folded ramps w * (e^{-i xi/2} C + e^{-i xi} conj(C)), with
        C from the 50-digit ramp rule (module docstring: phase-factored
        fixed-point nodes, one psi per mirror node pair, per-pair degree
        escalation).  Its nodes are interior, so psi needs no endpoint cases.

        Raises:
            QuadratureError: a piece pair's error estimate is still above
                eps/8 at the top degree.  `achieved_error` is the largest
                such estimate (of C) and `value` the unconverged transform.
        """
        import mpmath

        with mpmath.workdps(DEEP_DPS):
            mxi = mpmath.mpf(xi)
            w_mp = mpmath.mpf(RAMP_WIDTH)
            p_lo = mpmath.mpf("0.5") + w_mp
            p_hi = 1 - w_mp

            if mxi == 0:
                plateau = p_hi - p_lo
            else:
                plateau = (
                    mpmath.exp(-1j * mxi * p_lo) - mpmath.exp(-1j * mxi * p_hi)
                ) / (1j * mxi)

            c, worst = _folded_ramp_mp(mxi * w_mp)
            ramps = w_mp * (mpmath.expj(-mxi / 2) * c + mpmath.expj(-mxi) * mpmath.conj(c))
            value = complex(plateau + ramps)
            if worst > mpmath.eps / 8:
                raise QuadratureError(
                    f"50-digit ramp rule did not converge at xi = {xi}: a piece pair's "
                    f"error estimate is {mpmath.nstr(worst, 3)} at the top degree",
                    achieved_error=float(worst),
                    value=value,
                )
            return value


@functools.cache
def default_bump() -> Bump:
    """The fixed window every moment and report uses (ramp width 1/8)."""
    return Bump()


def decay_constant(b: Bump, nu: int, xi_grid) -> float:
    """Empirical constant C with |phi_hat(xi)| <= C * |xi|^-nu on the grid.

    All grid points must satisfy |xi| >= 1; the returned constant is only
    as trustworthy as the grid is representative.
    """
    if nu < 1:
        raise ValueError("nu must be a positive integer")
    best = 0.0
    for xi in xi_grid:
        if abs(xi) < 1.0:
            raise ValueError(f"decay grid point {xi} has |xi| < 1")
        best = max(best, abs(b.transform(float(xi), deep=True)) * abs(xi) ** nu)
    return best
