"""Moment integrals of the resonated Dirichlet polynomial and the
certificate report built from them.

With Phi the bump window and R the resonator polynomial,

    M1 = integral |R(t)|^2 Phi(t/T) dt
    M2 = integral |R(t)|^2 Phi(t/T) |D_N(t)|^2 dt

so sup over the window of |D_N| is at least sqrt(M2 / M1).  Expanding
both integrals termwise leaves transform factors phi_hat at T times a
log-ratio of integers.  The terms with vanishing log-ratio (the diagonal
m*a = n*b) are independent of the coefficient function f and carry the
main contribution; everything else is suppressed by transform decay.
The diagonal collapses through the coprime parametrization

    g = gcd(a,b), h = gcd(m,n), a = a'g, b = b'g, m = h*b', n = h*a'

to sums over coprime pairs (a', b') that this module evaluates exactly
(correctly rounded sums) or brackets rigorously.

For window resonators the support is held as sorted arrays of integers,
weights and prime masks (resonator.SupportArrays), whose bits this module
never reads.  A certificate plans the diagonal, every budget check before
any g-sum work (_diagonal_terms), then walks the coprime pairs of the
support <= min(N, X) once, as boolean tiles (SupportArrays.coprime_tiles):
the diagonal, the main term and the alpha-shift tail are terms of that one
walk (_pair_sums), so no pair list is held.  The diagonal's inner g-sums,
sum of r(g)^2 over support g <= X/max(a',b') coprime to a'b', are exact
limb sums of 0/1 coprimality tiles times r(g)^2, whatever the BLAS and the
chunks of g; over budget, Rankin's lower bound from two Euler products
stands in for each (_rankin_terms).  Every pair sum and every sum over a
support array goes into one exact accumulator (_ExactSum), bit for bit
math.fsum, and every term is >= 0: no inclusion-exclusion is left.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bump import DECAY_A2, PHI_HAT_0, default_bump
from .dirichlet import _dn_terms, _grid_abs2, _support_coeff_logs
from .errors import ResourceLimitError
from .multfn import UnimodularCMF, values_up_to
from .ntcore import FactorTable, check_sieve_cap
from .quadrature import adaptive_oscillatory, trapezoid_grid
from .resonator import (
    _COLS,
    _ROWS,
    Resonator,
    SupportArrays,
    SupportElement,
    disjoint,
    euler_product_one_plus_r2,
    prime_mask,
    support_arrays,
)

DEFAULT_TERM_BUDGET = 50_000_000
# The proven report fields are moved by this relative margin in the safe
# direction (ratio_and_bounds derives it).
PROVEN_MARGIN = 2.0**-40
# Exact and quadrature moments are attempted in exact_mode="auto" only up
# to this T (and only for tiny supports); only they read f(n) for n <= N.
EXACT_AUTO_MAX_T = 2.0e4


# ---------------------------------------------------------------------------
# Quadrature moments (tiny instances; the oracle-facing route).


def _window_integral(r_poly, t_bound: float, d_poly=None) -> complex:
    """M1 + i*M2 with M1 = integral of Phi(t/T) |R(t)|^2 over the window and, given d_poly,
    M2 = integral of Phi(t/T) |R(t)|^2 |D(t)|^2 (else 0), each to 1e-8 relative;
    R = sum c_n e^{i t log n} over r_poly's (coeffs, logs), D over d_poly's.

    The level rule quadrature.trapezoid_grid hands over a level's interior points as one
    progression in t and a zeroed complex buffer to fill.  Each polynomial scans the level in
    one dirichlet._grid_abs2 pass, so its step tables are built once per level, polynomial
    and block shape.  Blocks of |P|^2 are used as they arrive: R's times Phi of its points,
    computed once, goes to the buffer's real part, and D's times that real part goes to the
    imaginary part, so every M2 value is (Phi * |R|^2) * |D|^2.  One sum of the buffer
    gives both moments, and adaptive_oscillatory holds each part to the tolerance on its
    own.

    Phi vanishes with all its derivatives at both ends of the window, so the trapezoidal
    rule converges spectrally: the integrand's frequencies are at most the summed top
    frequency omega (R's alone without d_poly), and at step h the rule errs by Phi's
    transform at the aliases of those frequencies, |omega'| >= 2*pi/h - omega.  The schedule
    starts at two points per cycle of omega (0.2 panels of GL_ORDER steps), so the first
    level errs by about |phi_hat(T*omega)| relative, and the second level, at four points
    per cycle, confirms it within the 1e-8 tolerance and is the value returned.  With
    d_poly, M1 is read off M2's grid, a finer schedule than R's own (m1_quadrature).
    """
    b = default_bump()
    lo, hi = b.lo * t_bound, b.hi * t_bound
    coeffs, logs = r_poly

    def integrand(origin: float, step: float, out: np.ndarray) -> None:
        m1 = out.real
        for start, mag2 in _grid_abs2(coeffs, logs, origin, 1, out.size, step):
            span = slice(start, start + mag2.size)
            y = origin + step * np.arange(start + 1, start + 1 + mag2.size)
            y /= t_bound
            np.multiply(b.phi_vec(y), mag2, out=m1[span])
        if d_poly is not None:
            m2 = out.imag
            for start, mag2 in _grid_abs2(*d_poly, origin, 1, out.size, step):
                span = slice(start, start + mag2.size)
                np.multiply(m1[span], mag2, out=m2[span])

    max_freq = float(logs.max(initial=0.0))
    if d_poly is not None:
        max_freq += float(d_poly[1].max(initial=0.0))
    value, _ = adaptive_oscillatory(
        integrand, lo, hi, max_freq=max_freq, rel_tol=1e-8, abs_tol=0.0,
        rule=trapezoid_grid, panels_per_cycle=0.2,
    )
    return value


def m1_quadrature(f: UnimodularCMF, t_bound: float, support: list[SupportElement]) -> float:
    """M1 by adaptive quadrature over the window support [T/2, T].

    The trapezoidal rule on one uniform grid per level (quadrature.trapezoid_grid), on which
    |R|^2 comes from one pass of the grid-scan kernel's reader dirichlet._grid_abs2
    (_window_integral, on R's own schedule; a certificate reads its m1_quad off M2's grid
    instead).
    """
    return _window_integral(_support_coeff_logs(f, support), t_bound).real


def m2_quadrature(
    f: UnimodularCMF,
    n_max: int,
    t_bound: float,
    support: list[SupportElement],
) -> float:
    """M2 by adaptive quadrature over the window support [T/2, T].

    The imaginary part of the shared scan (_window_integral), whose real part
    is M1 on the same grid: one grid-kernel pass per polynomial and level,
    |D_N|^2 times the real part's Phi |R|^2 written to the imaginary part of
    the rule's buffer (oracle.m2_bruteforce_quadrature keeps a dense rule as
    the independent check).
    """
    both = _window_integral(_support_coeff_logs(f, support), t_bound, _dn_terms(f, n_max))
    return both.imag


# ---------------------------------------------------------------------------
# Exact termwise moments (tiny instances).


# About this many terms per row block of _termwise_sum's term matrix.
_TERM_BLOCK = 1 << 16


def _termwise_sum(coeffs, logs, t_bound: float, scale: float) -> float:
    """scale * sum_{q,q'} W_q conj(W_{q'}) phi_hat(T*(log u_{q'} - log u_q)),
    W = coeffs and log u = logs.

    One array pass over the term matrix (row q, column q'), in row blocks of about
    _TERM_BLOCK terms.  Per block: the matrix of xi = T*(log u_{q'} - log u_q), one
    Bump.transform call per distinct |xi| in the order a row-major loop over the terms first
    reaches it, phi_hat(xi) as the conjugate of phi_hat(|xi|) for xi < 0 (as transform
    itself routes it), and the products W_q * conj(W_{q'}) * phi_hat(xi) in Python's
    complex-multiply order on the real and imaginary parts.  The transform memo keys xi to
    12 digits, so the first float to reach a key decides the value of every later float of
    that key: calling in first-touch order gives every term, and the memo, the bits a
    per-term loop gives them.  Both parts go into exact sums (_ExactSum, bit for bit
    math.fsum), so the sum is correctly rounded; its imaginary residue (zero by conjugate
    symmetry) is asserted tiny and dropped.
    """
    b = default_bump()
    logs = np.asarray(logs, dtype=np.float64)
    wr, wi = coeffs.real, coeffs.imag
    cr, ci = wr, -wi  # conj(W_{q'})
    re_sum, im_sum = _ExactSum(), _ExactSum()
    rows = max(1, _TERM_BLOCK // max(1, logs.size))
    for s in range(0, logs.size, rows):
        xi = t_bound * (logs - logs[s : s + rows, None])
        mag, first, inverse = np.unique(np.abs(xi).ravel(), return_index=True, return_inverse=True)
        order = np.argsort(first)
        phi = np.empty(mag.size, dtype=np.complex128)
        phi[order] = [b.transform(x) for x in mag[order].tolist()]
        tr = phi.real[inverse].reshape(xi.shape)
        ti = phi.imag[inverse].reshape(xi.shape)
        np.negative(ti, out=ti, where=xi < 0.0)
        ar, ai = wr[s : s + rows, None], wi[s : s + rows, None]
        pr = ar * cr - ai * ci
        pi = ar * ci + ai * cr
        re_sum.add((pr * tr - pi * ti).ravel())
        im_sum.add((pr * ti + pi * tr).ravel())
    total = complex(re_sum.value(), im_sum.value()) * scale
    if abs(total.imag) > 1e-12 * max(1.0, abs(total.real)):
        raise AssertionError(f"moment sum imaginary residue {total.imag!r} too large")
    return total.real


def m1_exact(f: UnimodularCMF, t_bound: float, support: list[SupportElement]) -> float:
    """M1 as T * sum over support pairs of the transform expansion.

    M1 = T * sum_{a,b} V_a conj(V_b) phi_hat(T*(log b - log a)) with
    V_a = f(a) * r(a).  The transform's conjugate symmetry makes the sum
    real; the float residue is asserted tiny and dropped.
    """
    coeffs, logs = _support_coeff_logs(f, support)
    return _termwise_sum(coeffs, logs, t_bound, t_bound)


def m2_exact(
    f: UnimodularCMF,
    n_max: int,
    t_bound: float,
    support: list[SupportElement],
) -> float:
    """M2 as the full quadruple transform expansion (tiny instances).

    Pairs q = (m, a) with m <= N and a in the support enter through
    W_q = f(m) f(a) r(a) and u_q = m*a:

        M2 = (T/N) * sum_{q,q'} W_q conj(W_{q'}) phi_hat(T*(log u_{q'} - log u_q))

    f(a) r(a) comes from dirichlet._support_coeff_logs, as in the other
    moments.  Products are formed as exact integers so equal products give
    a transform argument of exactly zero.
    """
    r_coeffs, _ = _support_coeff_logs(f, support)
    coeffs = np.multiply.outer(r_coeffs, values_up_to(f, n_max)).ravel()
    logs = [math.log(m * e.n) for e in support for m in range(1, n_max + 1)]
    return _termwise_sum(coeffs, logs, t_bound, t_bound / n_max)


# ---------------------------------------------------------------------------
# Coprime support pairs and the diagonal sums of the gcd parametrization.


class _ExactSum:
    """Exact sum of the float64 arrays passed to add(); value() rounds it
    correctly, half to even, so it is bit for bit math.fsum of the same
    terms.  Infinities and NaNs give fsum's answers: a NaN, an infinity,
    or ValueError for infinities of both signs.  When the sum of the
    finite terms is beyond the float range, OverflowError, as in fsum;
    unlike fsum, a sum in range never raises for a partial sum out of it.

    frexp writes each finite term as m * 2^e with 1/2 <= |m| < 1, and
    m * 2^27 splits exactly into its integer part hi (|hi| < 2^27) and
    the rest lo (a multiple of 2^-26, |lo| < 1).  np.bincount sums hi and
    lo per exponent into float64 bins.  A bin of at most 2^26 terms stays
    exact, since each of its partial sums is a multiple of 1 (of 2^-26)
    below 2^53 (2^27).  So the bins fold into one Python integer, in
    units of 2^-1126 = 2^(e_min - 53), before any bin could hold more.
    value() divides that integer by 2^1126, which Python rounds correctly.
    Terms go through in chunks of one coprime tile's pairs, so the
    temporaries stay small whatever the array.
    """

    _E_MIN = -1073  # frexp's exponent of 2^-1074; finite terms have e <= 1024
    _BINS = 1024 - _E_MIN + 1
    _CHUNK = _COLS * _ROWS
    _FOLD = 1 << 26

    def __init__(self) -> None:
        self._total = 0
        self._hi = np.zeros(self._BINS)
        self._lo = np.zeros(self._BINS)
        self._held = 0  # terms in the bins since the last fold
        self._special = 0.0  # fsum's sums of the nonfinite terms and of the infinite ones
        self._inf = 0.0

    def add(self, x: np.ndarray) -> None:
        for s in range(0, len(x), self._CHUNK):
            self._add_chunk(x[s : s + self._CHUNK])

    def _add_chunk(self, x: np.ndarray) -> None:
        if self._held + len(x) > self._FOLD:
            self._fold()
        m, e = np.frexp(x)
        e -= self._E_MIN
        y = m * 2.0**27
        hi = np.trunc(y)
        bins = np.bincount(e, hi, self._BINS)
        if not math.isfinite(bins[-self._E_MIN]):
            # An infinity or a NaN: frexp gives it e = 0, and trunc keeps it.
            bad = ~np.isfinite(x)
            for v in x[bad].tolist():
                self._special += v
                self._inf += v if math.isinf(v) else 0.0
            self._add_chunk(x[~bad])
            return
        self._hi += bins
        y -= hi
        self._lo += np.bincount(e, y, self._BINS)
        self._held += len(x)

    def _fold(self) -> None:
        used = np.flatnonzero((self._hi != 0.0) | (self._lo != 0.0))
        for b, h, lo in zip(used.tolist(), self._hi[used].tolist(), self._lo[used].tolist()):
            self._total += ((int(h) << 26) + int(lo * 2.0**26)) << b
        self._hi[used] = 0.0
        self._lo[used] = 0.0
        self._held = 0

    def value(self) -> float:
        self._fold()
        finite = self._total / (1 << 53 - self._E_MIN)
        if self._special != 0.0:  # true for a NaN too
            if math.isnan(self._inf):
                raise ValueError("-inf + inf in fsum")
            return self._special
        return finite


def _exact_fsum(x: np.ndarray) -> float:
    """math.fsum(x.tolist()), without the Python floats (_ExactSum)."""
    total = _ExactSum()
    total.add(x)
    return total.value()


def _pair_sums(
    sup: SupportArrays, *terms: Callable[[slice, slice, np.ndarray], np.ndarray]
) -> list[float]:
    """For each term, the correctly rounded sum of a symmetric term over
    the ordered coprime pairs of sup, all from one walk of the coprime
    tiles (SupportArrays.coprime_tiles).

    A term fn(k, i, ok) returns a new array of its values on the tile's
    pairs i <= k in ok's order: all of them, or those of a prefix of sup's
    elements.  Each value also stands for its mirror pair, except that of
    the pair (0, 0), the pair (1, 1), first in the first tile.  So the sum
    is twice the exact sum (_ExactSum) of the values with that one halved;
    halving and doubling are exact away from the ends of the float range,
    so it is the correctly rounded sum over the ordered pairs.
    """
    totals = [_ExactSum() for _ in terms]
    for k, i, ok in sup.coprime_tiles():
        for term, total in zip(terms, totals):
            vals = term(k, i, ok)
            if k.start == i.start == 0:
                vals[:1] *= 0.5
            total.add(vals)
    return [2.0 * total.value() for total in totals]


def _dense_diagonal(toy, n_max: int, x: float, budget: int) -> float:
    """diagonal_sum for a test resonator: the gcd-matrix form over its
    support S = {n <= X : r(n) != 0},

        sum over a, b in S of floor(N / (max(a,b) // gcd(a,b))) r(a) r(b).

    This is the parametrized sum with a = a'g, b = b'g and g = gcd(a, b),
    term for term: the weight is floor(N / max(a',b')), zero when
    max(a',b') > N, and max(a, b) <= X is g <= X/max(a',b').  Rows of the
    matrix go in blocks of about _BLOCK entries, and every block's terms
    go into one exact accumulator (_ExactSum), correctly rounded at the end.
    A matrix of one block whose terms are all below 2^1020 / |S|^2 in size,
    so that no partial sum nears the float range, goes to math.fsum: the
    same correctly rounded sum without _ExactSum's fixed cost.  The matrix
    is symmetric, so that sum takes its diagonal, N r(a)^2, and each term
    a < b of its strict upper triangle doubled, whose weight is
    floor(N / (b // gcd(a, b))): the same exact sum, as doubling is exact
    there, from half the gcds and terms.
    The budget counts the |S|^2 entries, before any work.
    """
    sup = sorted((n, v) for n, v in toy.values.items() if n <= x and v != 0.0)
    needed = len(sup) ** 2
    if needed > budget:
        raise ResourceLimitError(
            f"diagonal gcd-matrix entries exceeded budget {budget}",
            needed=needed,
            budget=budget,
        )
    s = np.array([n for n, _ in sup], dtype=np.int64)
    r = np.array([float(v) for _, v in sup])
    rows = max(1, _BLOCK // len(s))  # S holds 1, since r(1) = 1 and X >= 1
    r_max = float(np.abs(r).max())
    # Python floats overflow to inf here, and inf fails the test.
    if rows >= len(s) and n_max * r_max * r_max * needed < 2.0**1020:
        i, j = np.nonzero(s[:, None] < s)  # s is sorted and distinct
        b = s[j]
        upper = (n_max // (b // np.gcd(s[i], b))) * (r[i] * r[j])
        upper *= 2.0
        return math.fsum(upper.tolist() + (n_max * (r * r)).tolist())
    total = _ExactSum()
    for i0 in range(0, len(s), rows):
        a = s[i0 : i0 + rows, None]
        weight = n_max // (np.maximum(a, s) // np.gcd(a, s))
        total.add((weight * (r[i0 : i0 + rows, None] * r)).ravel())
    return total.value()


# The diagonal kernel takes the support elements <= min(N, X) in the
# coprime tiles (_COLS columns by _ROWS rows), and holds arrays of at most
# _TILE entries: a tile's coprimality rows against a chunk of the g-range
# as wide as that allows, its columns' limb products, and their int64 sums.
# r(g)^2 enters as two integer-valued limbs of _LIMB bits, so the limb
# sums over a chunk (at most _TILE g's) stay below 2^53 and are exact, and
# their int64 sums over any g-range of fewer than 2^(63 - _LIMB) elements
# are exact too.  _dense_diagonal's row blocks of the gcd matrix hold
# about _BLOCK entries.
_TILE = 2 * _COLS * _ROWS
_BLOCK = 2 * _TILE
_LIMB = 52 - (_TILE - 1).bit_length()


def _r2_limbs(r: np.ndarray, scale: float) -> np.ndarray:
    """[hi, lo]: integer-valued limbs in [0, 2^_LIMB] with
    hi + lo * 2^-_LIMB within 2^-(_LIMB+1) of r^2 * scale < 2^_LIMB."""
    limbs = np.empty((2, len(r)))
    y = r * r * scale
    np.floor(y, out=limbs[0])
    y -= limbs[0]
    y *= 2.0**_LIMB
    np.rint(y, out=limbs[1])
    return limbs


def _view(buf: np.ndarray, *shape: int) -> np.ndarray:
    """The leading entries of the flat array buf, as an array of `shape`."""
    return buf[: math.prod(shape)].reshape(shape)


def _diagonal_terms(
    sup: SupportArrays, n_max: int, x: float, budget: int
) -> Callable[[slice, slice, np.ndarray], np.ndarray]:
    """Plan the diagonal over sup, a prefix of the support <= X, and return
    its _pair_sums term for the walk of sup.upto(min(N, X)): weight[k] *
    r[i] * INNER[k, i] on the coprime pairs (i, k), i <= k, weight[k] =
    floor(N/n_k) r(n_k), INNER[k, i] the sum of r(g)^2 over the first
    lens[k] elements g of sup coprime to elements i and k.

    Every check comes before any g-sum work: the ordered coprime pairs,
    counted in a pass over the tiles, against the budget, and the longest
    g-range, lens[0], against the 2^(63 - _LIMB) elements of exact int64
    limb sums.  Then come lens, the limbs' power-of-two scale and the
    buffers the term reuses.

    Per tile and chunk of g: lens does not increase, so the columns in play
    are those with lens[k] past the chunk start, and the rows in play those
    up to the last such column.  F is the 0/1 coprimality tile of the rows
    in play, keep that of the columns in play, cut at each column's
    lens[k], and W stacks the hi and lo limbs (_r2_limbs) of r(g)^2 times
    keep.  W @ F^T gives both limb sums of the chunk at once.  A block's
    last tile holds its columns among its rows, so keep is a slice of F
    there, and its rows stop at the last column in play, which skips most
    pairs i > k.  A chunk is as wide as F and W allow within _TILE entries.

    Memory: at most a dozen arrays of at most _TILE entries at once (3 MiB),
    and a few with one entry per element <= min(N, X); none with an entry
    per element of the g-ranges.

    Precision: a chunk's limb sums are exact integers below 2^53 in any
    order of the matrix product, and their int64 sums are the exact limb
    sums H and L of the g-range, so no bit depends on the BLAS, its thread
    count or the chunk width.  INNER = (H + L * 2^-_LIMB) / scale is within
    gamma_2 relative (gamma_n = n*u/(1 - n*u), u = 2^-53; H and L convert
    exactly while below 2^53, as on g-ranges under 2^16 elements), and the
    limbs carry r^2 to within 2^-(2*_LIMB) * max r^2 each.  r(1) = 1 makes
    INNER >= 1, so INNER is within gamma_2 + |G| * 2^-(2*_LIMB) * max r^2
    relative of its sum over |G| = lens[k] g's; window r(p) are <= 1/4.

    Raises:
        ResourceLimitError: the pair count is over budget, or the longest
            g-range is past the exact int64 limb sums.
    """
    count = len(sup.upto(min(float(n_max), x)).ns)
    pairs = sum(np.count_nonzero(ok) for _, _, ok in sup.coprime_tiles(count))
    needed = 2 * pairs - 1
    if needed > budget:
        raise ResourceLimitError(
            f"diagonal pair enumeration exceeded budget {budget}",
            needed=needed,
            budget=budget,
        )
    ns, masks, r = sup.ns, sup.masks, sup.r
    cap = x / ns[:count]
    lens = np.full(count, len(ns))
    short = cap < ns[-1]
    lens[short] = np.searchsorted(ns, np.floor(cap[short]).astype(np.int64), side="right")
    if lens[0] >= 1 << (63 - _LIMB):
        raise ResourceLimitError(
            f"diagonal g-range of {lens[0]} elements beyond the int64 limb sums",
            needed=int(lens[0]),
            budget=(1 << (63 - _LIMB)) - 1,
        )
    # r^2 * scale < 2^_LIMB over every g-range, all within the first lens[0].
    scale = math.ldexp(1.0, _LIMB - math.frexp(float(r[: lens[0]].max()) ** 2)[1])
    weight = (n_max // ns[:count]) * r[:count]
    # F, W and a chunk's product go into these, reused by every chunk: F
    # and W have at most 2 * count * lens[0] entries, the product
    # 2 * count^2.
    tile = min(_TILE, 2 * count * int(lens[0]))
    fbuf, wbuf = np.empty(tile), np.empty(tile)
    pbuf = np.empty(min(2 * _COLS * _ROWS, 2 * count**2))

    def term(k: slice, i: slice, ok: np.ndarray) -> np.ndarray:
        k0, k1, i0, i1 = k.start, k.stop, i.start, i.stop
        acc = np.zeros((2, k1 - k0, i1 - i0), dtype=np.int64)
        c0, end = 0, int(lens[k0])
        while c0 < end:
            kc = k0 + int(np.count_nonzero(lens[k0:k1] > c0))
            ic = min(i1, kc)
            c1 = min(end, c0 + _TILE // max(ic - i0, 2 * (kc - k0)))
            g = masks[None, c0:c1]
            f = disjoint(masks[i0:ic, None], g, out=_view(fbuf, ic - i0, c1 - c0))
            w = _view(wbuf, 2, kc - k0, c1 - c0)
            if i1 == k1:
                keep = f[k0 - i0 : kc - i0]
            else:
                keep = disjoint(masks[k0:kc, None], g, out=w[1])
            if lens[kc - 1] < c1:
                keep = np.multiply(keep, np.arange(c0, c1) < lens[k0:kc, None], out=w[1])
            limbs = _r2_limbs(r[c0:c1], scale)
            np.multiply(keep, limbs[0], out=w[0])
            np.multiply(keep, limbs[1], out=w[1])
            prod = _view(pbuf, 2 * (kc - k0), ic - i0)
            np.matmul(w.reshape(-1, c1 - c0), f.T, out=prod)
            acc[:, : kc - k0, : ic - i0] += prod.reshape(2, kc - k0, ic - i0).astype(np.int64)
            c0 = c1
        inner = (acc[0] + acc[1] * 2.0**-_LIMB) / scale
        return (weight[k0:k1, None] * r[None, i0:i1] * inner)[ok]

    return term


def _window_diagonal(sup: SupportArrays, n_max: int, x: float, budget: int) -> float:
    """diagonal_sum for a window resonator over the support `sup`, a
    prefix of the support <= X: the plan (_diagonal_terms), then one walk
    of the coprime pairs of its elements <= min(N, X) (_pair_sums).

    r is multiplicative on squarefree support, so the term of a pair
    (a', b') with larger element b' = n_k is floor(N/n_k) r(b') r(a')
    times INNER, the sum of r(g)^2 over the first len_k elements g of sup
    (those <= X/n_k) coprime to a'b'.  len_k does not increase with k,
    and one searchsorted gives all of them.  The terms go into one exact
    sum, correctly rounded at the end, so the result depends on no order
    of tiles or chunks.
    """
    term = _diagonal_terms(sup, n_max, x, budget)
    return _pair_sums(sup.upto(min(float(n_max), x)), term)[0]


def _check_n(n_max: int) -> None:
    """Refuse an N outside [1, 2^63): the diagonal's weights floor(N / b') are int64."""
    if n_max < 1:
        raise ValueError("N must be >= 1")
    if n_max >= 2**63:
        raise ValueError(f"N = {n_max} is not below 2^63, the range of the int64 diagonal weights")


def diagonal_sum(
    res,
    n_max: int,
    x: float,
    table: FactorTable | None = None,
    budget: int = DEFAULT_TERM_BUDGET,
) -> float:
    """sum of r(a) r(b) over m, n <= N and support a, b <= X with ma = nb.

    Parametrized form: over coprime (a', b') with max <= min(N, X),

        floor(N / max(a',b')) * sum_{g <= X/max(a',b')} r(a'g) r(b'g).

    Accepts either a window resonator or a test resonator
    (oracle.ToyResonator: a `values` map n -> r(n)).  `table` is not
    read; it keeps its place because perfbench passes it positionally.
    The sum is always the full one; the Rankin lower bound of an
    over-budget certificate is ratio_and_bounds' own (`diag_rankin_cut`).

    For a window resonator the support <= X is built once into arrays and
    _window_diagonal sums the coprime pairs of its elements <= min(N, X)
    (its plan, _diagonal_terms, states memory, precision and budget); for a
    test resonator _dense_diagonal, which states its own, sums the gcd
    matrix over its support S <= X.  Both results are correctly rounded
    sums of their terms, whatever the BLAS thread count.

    Raises:
        ValueError: N outside [1, 2^63) (_check_n) or X < 1.
        ResourceLimitError: support enumeration, coprime-pair count or
            gcd-matrix entry count over budget; `needed` is the exact count.
    """
    _check_n(n_max)
    if x < 1.0:
        raise ValueError("X must be >= 1")
    if isinstance(res, Resonator):
        return _window_diagonal(support_arrays(res, x, budget), n_max, x, budget)
    return _dense_diagonal(res, n_max, x, budget)


def min_offdiag_gap(n_max: int, x_int: int) -> float:
    """min over off-diagonal quadruples of |log(ma / nb)|.

    Equals the smallest log-ratio between distinct values of m*a with
    m <= N, a <= X; always at least 1/(N*X).
    """
    if n_max < 1 or x_int < 1:
        raise ValueError("N and X must be >= 1")
    if n_max * x_int == 1:
        raise ValueError("no off-diagonal pairs exist for N = X = 1")
    products = np.unique(
        np.multiply.outer(
            np.arange(1, n_max + 1, dtype=np.int64),
            np.arange(1, x_int + 1, dtype=np.int64),
        )
    )
    logs = np.log(products.astype(np.float64))
    return float(np.min(np.diff(logs)))


def _offdiag_eps(k_max: float, t_bound: float) -> float:
    """eps(K) = [2 zeta(2) A_2 (2K/T)^2 + 2K A_2 / (T log 2)^2] / phi_hat(0),
    raised by PROVEN_MARGIN: the off-diagonal part of a moment with
    coefficients f(k) B_k, B_k >= 0, on k <= K (N*X for M2, X for M1) is
    within eps of its diagonal part, for every unimodular f.

    B_k B_l <= (B_k^2 + B_l^2)/2 charges row k with B_k^2 times the sum over
    l != k of |phi_hat(T log(l/k))| <= A_2 / (T log(l/k))^2 (bump.DECAY_A2).
    The l within a factor 2 of k have |log(l/k)| >= |l - k|/(2k), so they
    add at most 2 zeta(2) A_2 (2k/T)^2; the at most K others have
    |log(l/k)| >= log 2.  The diagonal carries phi_hat(0) (bump.PHI_HAT_0).
    """
    near = 2.0 * k_max / t_bound
    far = t_bound * math.log(2.0)
    eps = (math.pi**2 / 3.0 * near * near + 2.0 * k_max / (far * far)) * DECAY_A2 / PHI_HAT_0
    return eps * (1.0 + PROVEN_MARGIN)


# ---------------------------------------------------------------------------
# Main-term and tail-bound sums over coprime support pairs.


def _shift_factors(res: Resonator, sup: SupportArrays, alpha: float) -> tuple[np.ndarray, float]:
    """(1 / prod_{p | n}(1 + r(p)^2 p^alpha) on every element n of sup, log E_alpha),
    E_alpha = prod_p (1 + r(p)^2 p^alpha) over the window primes (E_0 at alpha = 0)."""
    log_shift = [math.log1p(res.r_p[p] ** 2 * p**alpha) for p in res.primes]
    return np.exp(-sup.prime_factor_sums(log_shift)), math.fsum(log_shift)


def _t_weights(res: Resonator, sup: SupportArrays) -> np.ndarray:
    """t(n) = r(n) / prod_{p | n}(1 + r(p)^2) on every element of sup."""
    return sup.r * _shift_factors(res, sup, 0.0)[0]


def _outer_term(left: np.ndarray, right: np.ndarray) -> Callable:
    """The _pair_sums term with value left[i] * right[k] on a pair (i, k)."""
    return lambda k, i, ok: (left[None, i] * right[k, None])[ok]


def _main_term(sup: SupportArrays, t: np.ndarray) -> Callable:
    """_pair_sums term of the main term, the sum over the ordered coprime
    pairs of sup of t(a') t(b') a'b' / max^3, t = _t_weights on sup."""
    w = t * sup.ns
    return _outer_term(w, w / sup.ns.astype(np.float64) ** 3)


def _balanced_pair_bound(sup: SupportArrays, t: np.ndarray, z: float) -> float:
    """(sum over support m <= z of t(m)/sqrt(m))^2 / log z, for sup <= z and
    t = _t_weights on sup."""
    return _exact_fsum(t / np.sqrt(sup.ns)) ** 2 / math.log(z)


def _tail_term(
    res: Resonator, sup: SupportArrays, x: float, alpha: float
) -> tuple[Callable, float]:
    """(term, scale): alpha_shift_error_term over the coprime pairs of sup
    is scale times their _pair_sums sum of term, u[i] * u[k]."""
    if not 0.0 < alpha < 0.5:
        raise ValueError("alpha must lie in (0, 1/2)")
    shift, log_full_shift = _shift_factors(res, sup, alpha)
    log_full_plain = math.fsum(math.log1p(res.r_p[p] ** 2) for p in res.primes)
    # Coprime a', b' split prod_{p not | a'b'} into the full product over
    # the per-element products of the primes each one drops.
    u = sup.r * sup.ns.astype(np.float64) ** (alpha - 0.5) * shift
    return _outer_term(u, u), math.exp(log_full_shift - log_full_plain) * x ** (-alpha)


def _rankin_terms(
    res: Resonator, sup: SupportArrays, n_max: int, x: float, alpha: float, budget: int
) -> tuple[Callable, int]:
    """(term, z'): the _pair_sums term over sup, the support <= min(N, X), of
    Rankin's lower bound of the diagonal over the pairs b' <= z'; alpha >= 0.

    For r >= 0, every g > Y = X/b' has (g/Y)^alpha >= 1, so the inner sum of
    the pair (a', b'), b' the larger, is at least E_0(Q) - Y^-alpha E_alpha(Q),
    Euler products over the primes not dividing a'b'.  Split off those primes:
    floor(N/b') max(0, E_0 t(a')t(b') - (b'/X)^alpha E_alpha v(a')v(b')) is the
    term, t = _t_weights and v = r / prod_{p | n}(1 + r(p)^2 p^alpha).  Terms are
    >= 0 (0 at alpha = 0), so the walk takes the longest prefix whose ordered
    pairs, 2 pairs - 1, fit the budget: one count pass, to the first block past it.

    Rounding: m = 2^-47 (1 + log E_alpha) lowers the positive part and raises
    the subtracted part before the clip.  With u = 2^-53 and libm within 2u, an
    element's sum s of at most 15 log1p(r(p)^2 p^alpha), each within 7u, is within
    21u s; so v is within 18u + 21u s (r(n) within 15u, exp 2u), t within 18u +
    18u s, E_alpha within 8u log E_alpha + 2u, E_0 within 5u log E_0 + 2u, and as
    s(a') + s(b') <= log E <= log E_alpha, the subtracted part (n^alpha / X^alpha
    6u, five roundings) is within 49u + 29u log E_alpha and the positive part
    (four) within 43u + 23u log E_0, both below m.  The clip, the weight and the
    sum add 4u: the result is at most 1 + 4u times a lower bound of the diagonal.
    """
    counts = np.zeros(len(sup.ns), dtype=np.int64)
    for k, i, ok in sup.coprime_tiles():
        if i.start == 0 and 2 * counts.sum() - 1 > budget:
            break  # the blocks before k are counted, and over budget
        counts[k] += np.count_nonzero(ok, axis=1)
    cut = int(np.searchsorted(2 * np.cumsum(counts) - 1, budget, side="right"))
    shift, log_e_alpha = _shift_factors(res, sup, alpha)
    margin = 2.0**-47 * (1.0 + log_e_alpha)
    ns, t, v = sup.ns[:cut], _t_weights(res, sup)[:cut], (sup.r * shift)[:cut]
    weight = n_max // ns
    plus = euler_product_one_plus_r2(res) * (1.0 - margin) * t
    minus = ns**alpha / x**alpha * (math.exp(log_e_alpha) * (1.0 + margin)) * v

    def term(k: slice, i: slice, ok: np.ndarray) -> np.ndarray:
        vals = weight[k, None] * np.maximum(plus[k, None] * t[i] - minus[k, None] * v[i], 0.0)
        return vals[ok[: vals.shape[0], : vals.shape[1]]]

    return term, int(ns[-1]) if cut else 0


def moment_main_term(
    res: Resonator, n_max: int, x: float, budget: int = DEFAULT_TERM_BUDGET
) -> float:
    """Balanced coprime main term of the diagonal ratio:

        sum_{(a',b')=1, a',b' <= min(N,X)} t(a') t(b') a'b' / max(a',b')^3.

    t(n) = r(n) / prod_{p | n}(1 + r(p)^2) is derived from r on each
    support element, so t(a')t(b') = r(a')r(b') / prod_{p | a'b'}(1 + r(p)^2)
    for coprime a', b'.  Always at least 1 (the (1,1) term).
    """
    sup = support_arrays(res, min(float(n_max), x), budget)
    return _pair_sums(sup, _main_term(sup, _t_weights(res, sup)))[0]


def balanced_pair_bound_check(
    res: Resonator, z: float, budget: int = DEFAULT_TERM_BUDGET
) -> tuple[float, float]:
    """(lhs, rhs) of the balanced coprime pair inequality at height z:

        lhs = sum_{(m1,m2)=1, <= z} t(m1) t(m2) m1 m2 / max^3
        rhs = (1/log z) * (sum_{m <= z} t(m)/sqrt(m))^2

    Instances with the resonator's own weights are expected to satisfy
    lhs >= rhs once z clears the support window (callers assert).
    """
    if z <= 1.0:
        raise ValueError("z must exceed 1")
    sup = support_arrays(res, z, budget)
    t = _t_weights(res, sup)
    return _pair_sums(sup, _main_term(sup, t))[0], _balanced_pair_bound(sup, t, z)


def alpha_shift_error_term(
    res: Resonator,
    n_max: int,
    x: float,
    alpha: float,
    budget: int = DEFAULT_TERM_BUDGET,
) -> float:
    """Tail error from bounding truncated g-sums by the alpha-power shift:

        prod_p (1+r(p)^2)^{-1} * X^{-alpha}
          * sum_{(a',b')=1, <= min(N,X)} r(a')r(b') (a'b')^{alpha - 1/2}
              * prod_{p not | a'b'} (1 + r(p)^2 p^alpha).

    Positive whenever the support is nonempty or trivially X^{-alpha}.
    """
    sup = support_arrays(res, min(float(n_max), x), budget)
    term, scale = _tail_term(res, sup, x, alpha)
    return scale * _pair_sums(sup, term)[0]


def tail_truncation_check(
    res: Resonator,
    ab: int,
    cap: float,
    alpha: float,
    budget: int = DEFAULT_TERM_BUDGET,
) -> tuple[float, float]:
    """(exact_tail, shifted_bound) for the g-sum truncation at `cap`:

        exact_tail = sum_{g > cap, (g, ab)=1} r(g)^2
                   = prod_{p not | ab}(1 + r(p)^2) - truncated sum
        shifted_bound = cap^{-alpha} * prod_{p not | ab}(1 + r(p)^2 p^alpha)

    exact_tail <= shifted_bound always (each dropped term g > cap picks
    up a factor (g/cap)^alpha >= 1).
    """
    if not 0.0 < alpha < 0.5:
        raise ValueError("alpha must lie in (0, 1/2)")
    if cap < 1.0:
        raise ValueError("cap must be >= 1")
    excluded = tuple(p for p in res.primes if ab % p == 0)
    full = euler_product_one_plus_r2(res, exclude=excluded)
    sup = support_arrays(res, cap, budget)
    r = sup.r[disjoint(sup.masks, prime_mask(res, excluded))]
    truncated = _exact_fsum(r * r)
    tail = full - truncated
    if tail < 0.0:
        if tail < -1e-12 * full:
            raise AssertionError(f"tail {tail} more negative than rounding allows")
        tail = 0.0
    shifted = cap ** (-alpha) * math.exp(
        math.fsum(
            math.log1p(res.r_p[p] ** 2 * p**alpha)
            for p in res.primes
            if p not in excluded
        )
    )
    return tail, shifted


# ---------------------------------------------------------------------------
# Growth benchmarks and the assembled report.


def growth_bound_from_t(log_t: float, delta: float) -> float | None:
    """exp(sqrt((1 - delta) * log T / log log T)); None if log T <= 1."""
    if log_t <= 1.0:
        return None
    return math.exp(math.sqrt((1.0 - delta) * log_t / math.log(log_t)))


def growth_bound_from_n(n_max: int, c: float, delta: float, gamma: float) -> float | None:
    """exp(sqrt(((1-delta)/(1+gamma)) * C * log N / log log N))."""
    if n_max <= 2 or math.log(n_max) <= 1.0:
        return None
    log_n = math.log(n_max)
    return math.exp(
        math.sqrt(((1.0 - delta) / (1.0 + gamma)) * c * log_n / math.log(log_n))
    )


@dataclass
class MomentReport:
    """The certificate report of ratio_and_bounds: the f-free main term
    ratio, its square root lower_bound, and the bracket fields proven from
    the off-diagonal bounds offdiag_eps2 (M2) and offdiag_eps1 (M1)."""

    n: int
    t: float
    x: float
    c: float | None
    delta: float
    gamma: float
    alpha: float | None
    resonator: dict
    m1_quad: float | None
    m1_exact: float | None
    m1_main: float
    m2_quad: float | None
    m2_exact: float | None
    diag_sum: float
    m2_diag_main: float
    offdiag_eps2: float
    offdiag_eps1: float
    ratio: float
    lower_bound: float
    ratio_bracket_lo: float
    ratio_bracket_hi: float | None
    lower_bound_bracket: float
    main_term: float
    tail_error: float | None
    balanced_pair_sum: float | None
    balanced_pair_bound: float | None
    balanced_pair_diag_ratio: float | None
    growth_bound_t: float | None
    growth_bound_n: float | None
    diagnostic_exponent_ratio: float | None
    feasibility: dict
    flags: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {k: dict(v) if isinstance(v, dict) else v for k, v in vars(self).items()}

    def _csv_items(self) -> list[tuple[str, object]]:
        """(column, value): the scalar fields in declaration order, then
        the keys of each dict field, sorted, as field.key."""
        items = vars(self).items()
        scalars = [(k, v) for k, v in items if not isinstance(v, dict)]
        return scalars + [
            (f"{k}.{key}", v[key]) for k, v in items if isinstance(v, dict) for key in sorted(v)
        ]

    def csv_header(self) -> list[str]:
        return [k for k, _ in self._csv_items()]

    def csv_row(self) -> list:
        return [v for _, v in self._csv_items()]


def _feasibility_flags(
    res: Resonator, n_max: int, t_bound: float, x: float, delta: float, gamma: float
) -> dict:
    log_n = math.log(n_max)
    log_t = math.log(t_bound)
    flags = {
        "t_ge_n_pow_two_over_delta": bool(
            log_n > 0.0 and log_t >= (2.0 / delta) * log_n
        ),
        "c_le_log_n_pow_gamma": bool(
            log_n > 0.0 and (log_t / log_n) <= math.log(n_max) ** gamma
        ),
    }
    lam = res.lam
    if lam is None or lam <= 1.0:
        flags["log_n_gt_3lam_loglog_lam"] = False
        flags["log_x_gt_3lam_loglog_lam"] = False
    else:
        threshold = 3.0 * lam * math.log(math.log(lam)) if math.log(lam) > 0 else -math.inf
        flags["log_n_gt_3lam_loglog_lam"] = bool(log_n > threshold)
        flags["log_x_gt_3lam_loglog_lam"] = bool(math.log(x) > threshold)
    return flags


def ratio_and_bounds(
    res: Resonator,
    f: UnimodularCMF | None,
    n_max: int,
    t_bound: float,
    delta: float,
    gamma: float,
    *,
    alpha: float | None = None,
    budget: int = DEFAULT_TERM_BUDGET,
    exact_mode: str = "auto",
) -> MomentReport:
    """Assemble the full certificate report.

    ratio = diag_sum / (N * sum r(n)^2) and lower_bound = sqrt(ratio) are
    the f-free diagonal main term of M2/M1, not certified bounds: the
    off-diagonal terms they leave out can have either sign.  With
    eps2 = _offdiag_eps(N*X, T) and eps1 = _offdiag_eps(X, T), for every
    unimodular completely multiplicative f,

        ratio (1 - eps2) / (1 + eps1) <= M2/M1 <= ratio (1 + eps2) / (1 - eps1).

    ratio_bracket_lo is the left side (0 when eps2 >= 1) and
    lower_bound_bracket its square root, a lower bound of sup |D_N|.  The
    Euler product for sum r(n)^2 and Rankin's diagonal over the pairs b' <= z'
    (_rankin_terms, alpha = 4 alpha_default or 0 without it, flag
    diag_rankin_cut = z') keep it so over budget; ratio_bracket_hi is given
    only without them and while eps1 < 1.  Exact and quadrature moments are
    filled in for tiny instances (exact_mode="auto") or on demand ("always");
    either may be None.

    Rounding: eps1 and eps2 are raised, ratio_bracket_lo and
    lower_bound_bracket lowered, and ratio_bracket_hi raised, by the
    relative margin PROVEN_MARGIN = 2^-40 each; ratio and lower_bound keep
    their round-to-nearest values.  With u = 2^-53, the computed ratio is
    within 2^-41.8 relative of the ratio of the resonator whose prime
    weights are the float r(p):
      - support elements are below 2^63, so each has at most 15 primes,
        and a float product r(n) is within 15u of the exact one;
      - a diagonal term floor(N/b') r(b') r(a') INNER, a'g and b'g of at
        most 15 primes each, is within (2 * 15 + 8)u + gamma_2 +
        |G| 2^-74 of its exact value (_diagonal_terms; |G| < 2^26 and
        max r^2 <= 1 there), and the sum of these positive terms is
        correctly rounded: within 2^-46.8 in all (Rankin's diagonal is at
        most 1 + 4u times a lower bound of it);
      - sum r(n)^2 is within 32u; the Euler product exp(fsum(log1p(r(p)^2)))
        is within 3u log E + u of E < 2^1024, so within 2^-41.9;
      - N * denominator and the quotient add 3u.
    eps is a dozen operations on T, K, pi and log 2, within 20u.  The
    bracket's products and quotients add 6u (1 - eps2 is exact for
    eps2 >= 1/2 and within u relative below), and the square root u/2.
    Each of these is far below the 2^-40 it is charged to.

    `f` is only consulted for those exact/quadrature cross-checks, and
    only they read f(n), n <= N (multfn.values_up_to, which sieves to N for
    a Steinhaus f alone).  Every moment uses the fixed window default_bump().
    """
    if exact_mode not in ("auto", "always", "never"):
        raise ValueError(f"unknown exact_mode {exact_mode!r}")
    _check_n(n_max)
    x = res.x
    c = math.log(t_bound) / math.log(n_max) if n_max > 1 and t_bound > 1 else None

    flags: dict = {}

    # Every support sum below runs over prefixes of one build of the support
    # <= X, and every pair sum comes from one walk of the coprime pairs of the
    # support <= z = min(N, X).  Over budget, the support <= z is built on its
    # own and sum r(n)^2 falls back to its Euler-product upper bound (flagged).
    try:
        sup = support_arrays(res, x, budget)
    except ResourceLimitError:
        sup = None
    z = min(float(n_max), x)
    sup_z = sup.upto(z) if sup is not None else support_arrays(res, z, budget)
    t_z = _t_weights(res, sup_z)

    flags["r2_sum_truncated"] = sup is None
    euler = euler_product_one_plus_r2(res)
    r2 = _exact_fsum(sup.r * sup.r) if sup is not None else None
    r2_denominator = r2 if r2 is not None else euler

    diag_term = None
    if sup is not None:
        try:
            diag_term = _diagonal_terms(sup, n_max, x, budget)
        except ResourceLimitError:
            pass
    flags["diag_sum_truncated"] = diag_term is None
    if diag_term is None:  # Rankin's lower bound over the pairs b' <= z' (flagged)
        rankin = _rankin_terms(res, sup_z, n_max, x, 4.0 * (res.alpha_default or 0.0), budget)
        diag_term, flags["diag_rankin_cut"] = rankin

    # Exact moments need the whole support: under "always" an over-budget
    # support raises again here; "auto" takes tiny ones, N * |support| <= 64.
    support = None
    m1_q = m1_e = m2_q = m2_e = None
    if exact_mode == "always":
        support = (sup if sup is not None else support_arrays(res, x, budget)).elements(res)
    elif exact_mode == "auto" and t_bound <= EXACT_AUTO_MAX_T and sup is not None:
        support = sup.elements(res) if n_max * len(sup.ns) <= 64 else None
    if support is not None:
        if f is None:
            raise ValueError("exact moments require a coefficient function")
        check_sieve_cap(n_max)  # M2 reads f(n) for n <= N: refuse N before any moment work
        # One scan on M2's grid gives both quadrature moments, M1 + i*M2.
        both = _window_integral(_support_coeff_logs(f, support), t_bound, _dn_terms(f, n_max))
        m1_q, m2_q = both.real, both.imag
        m1_e = m1_exact(f, t_bound, support)
        m2_e = m2_exact(f, n_max, t_bound, support)

    # One walk of the coprime tiles sums the diagonal, the main term (the
    # balanced pair sum too) and the tail's pairs.
    terms = [diag_term, _main_term(sup_z, t_z)]
    alpha_eff = alpha if alpha is not None else res.alpha_default
    if alpha_eff is not None:
        tail_term, tail_scale = _tail_term(res, sup_z, x, alpha_eff)
        terms.append(tail_term)
    diag, main, *tail_sum = _pair_sums(sup_z, *terms)
    # None on a degenerate resonator: no shift parameter to run the tail bound with.
    tail = tail_scale * tail_sum[0] if tail_sum else None

    ratio = diag / (n_max * r2_denominator)
    lower_bound = math.sqrt(max(0.0, ratio))

    m1_diag = t_bound * PHI_HAT_0 * r2_denominator
    m2_diag = (t_bound / n_max) * PHI_HAT_0 * diag
    eps2 = _offdiag_eps(n_max * x, t_bound)
    eps1 = _offdiag_eps(x, t_bound)
    bracket_lo = 0.0
    if eps2 < 1.0:
        bracket_lo = ratio * (1.0 - eps2) / (1.0 + eps1) * (1.0 - PROVEN_MARGIN)
    lb_bracket = math.sqrt(bracket_lo) * (1.0 - PROVEN_MARGIN)
    # The upper end needs the full sums (a truncated support truncates the diagonal too).
    bracket_hi = None
    if eps1 < 1.0 and not flags["diag_sum_truncated"]:
        bracket_hi = ratio * (1.0 + eps2) / (1.0 - eps1) * (1.0 + PROVEN_MARGIN)

    if z > 1.0:
        pair_lhs, pair_rhs = main, _balanced_pair_bound(sup_z, t_z, z)
    else:
        pair_lhs = pair_rhs = None
    # Growth-rate diagnostic for the pair sum; trend data only, nothing
    # is asserted about it.
    pair_diag = None
    if pair_lhs is not None and pair_lhs > 0.0 and res.lam is not None and res.lam > 1.0:
        pair_diag = math.log(pair_lhs) * math.log(res.lam) / res.lam

    log_t = math.log(t_bound) if t_bound > 0 else 0.0
    g_t = growth_bound_from_t(log_t, delta)
    g_n = growth_bound_from_n(n_max, c, delta, gamma) if c is not None else None
    diag_ratio = None
    if g_t is not None and lower_bound > 0.0:
        diag_ratio = math.log(lower_bound) / math.sqrt(
            (1.0 - delta) * log_t / math.log(log_t)
        )

    res_summary = {**res.summary(), "sum_r_squared": r2, "euler_product": euler}

    return MomentReport(
        n=n_max,
        t=t_bound,
        x=x,
        c=c,
        delta=delta,
        gamma=gamma,
        alpha=alpha_eff,
        resonator=res_summary,
        m1_quad=m1_q,
        m1_exact=m1_e,
        m1_main=m1_diag,
        m2_quad=m2_q,
        m2_exact=m2_e,
        diag_sum=diag,
        m2_diag_main=m2_diag,
        offdiag_eps2=eps2,
        offdiag_eps1=eps1,
        ratio=ratio,
        lower_bound=lower_bound,
        ratio_bracket_lo=bracket_lo,
        ratio_bracket_hi=bracket_hi,
        lower_bound_bracket=lb_bracket,
        main_term=main,
        tail_error=tail,
        balanced_pair_sum=pair_lhs,
        balanced_pair_bound=pair_rhs,
        balanced_pair_diag_ratio=pair_diag,
        growth_bound_t=g_t,
        growth_bound_n=g_n,
        diagnostic_exponent_ratio=diag_ratio,
        feasibility=_feasibility_flags(res, n_max, t_bound, x, delta, gamma),
        flags=flags,
    )
