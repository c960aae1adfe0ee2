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
weights and prime masks (resonator.SupportArrays).  The diagonal, its
g-capped fallbacks, the main term and the alpha-shift tail stream the
coprime pairs of the support <= min(N, X) as boolean tiles
(SupportArrays.coprime_tiles; the diagonal's tiles are a column group by
a row batch), so no pair list is held and their memory does not grow with
the pair count.
The inner g-sums of the diagonal, sum of r(g)^2 over support
g <= X/max(a',b') coprime to a'b', come from dense products over the same
arrays: 0/1 coprimality tiles times r(g)^2 split into integer limbs,
exact whatever the BLAS and the chunks of g (_window_diagonal).  Every
pair sum and every sum over a support array goes into one exact
accumulator (_ExactSum), bit for bit math.fsum.  Every term the
certificate adds is positive and no inclusion-exclusion subtraction is
left.  This module never reads the mask bits itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .bump import default_bump, decay_constant
from .dirichlet import _dn_terms, _grid_values, _support_coeff_logs
from .errors import ResourceLimitError
from .multfn import UnimodularCMF, values_up_to
from .ntcore import FactorTable
from .quadrature import adaptive_oscillatory, composite_gl_grid
from .resonator import (
    _SIDE,
    Resonator,
    SupportArrays,
    SupportElement,
    disjoint,
    euler_product_one_plus_r2,
    prime_mask,
    support_arrays,
)

DEFAULT_TERM_BUDGET = 50_000_000
# Transform decay constants are calibrated on this grid (|xi| >= 10;
# points sit away from the transform's near-zeros).
DEFAULT_DECAY_GRID = (10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0, 1280.0)
DEFAULT_NU = 3
# Exact and quadrature moments are attempted in exact_mode="auto" only up
# to this T (and only for tiny supports); they need a factor table to N.
EXACT_AUTO_MAX_T = 2.0e4


# ---------------------------------------------------------------------------
# Quadrature moments (tiny instances; the oracle-facing route).


def _window_integral(polys, t_bound: float) -> float:
    """Integral of Phi(t/T) * prod |P(t)|^2 over the window, P = sum c_n e^{i t log n},
    to 1e-8 relative.

    `polys` lists (coeffs, logs) pairs.  The level rule composite_gl_grid asks for a group
    of Gauss-Legendre nodes over a chunk of panels at a time: per node an arithmetic
    progression in t, and _grid_values scans all the group's progressions in one pass with
    shared phase tables.  Phi and the |P|^2 products are formed once per chunk, for every
    node of the group; the panel schedule starts at the summed top frequency.
    """
    b = default_bump()
    lo, hi = b.lo * t_bound, b.hi * t_bound

    def integrand(origins: np.ndarray, k0: int, step: float, count: int) -> np.ndarray:
        out = b.phi_vec((origins[:, None] + step * np.arange(k0, k0 + count)) / t_bound)
        for coeffs, logs in polys:
            for start, vals in _grid_values(coeffs, logs, origins, k0, count, step):
                stop = start + vals.shape[-1]
                out[:, start:stop] *= vals.real * vals.real + vals.imag * vals.imag
        return out

    max_freq = sum(float(logs.max(initial=0.0)) for _, logs in polys)
    value, _ = adaptive_oscillatory(
        integrand, lo, hi, max_freq=max_freq, rel_tol=1e-8, abs_tol=0.0,
        rule=composite_gl_grid,
    )
    return value.real


def m1_quadrature(f: UnimodularCMF, t_bound: float, support: list[SupportElement]) -> float:
    """M1 by adaptive quadrature over the window support [T/2, T].

    Composite Gauss-Legendre a group of nodes at a time
    (quadrature.composite_gl_grid): each node's abscissae across the panels
    form a uniform grid on which |R|^2 comes from the grid-scan kernel
    dirichlet._grid_values, which scans the group's grids together.
    """
    return _window_integral([_support_coeff_logs(f, support)], t_bound)


def m2_quadrature(
    f: UnimodularCMF,
    n_max: int,
    t_bound: float,
    support: list[SupportElement],
    table: FactorTable,
) -> float:
    """M2 by adaptive quadrature over the window support [T/2, T].

    As m1_quadrature, with |R|^2 |D_N|^2 from the grid-scan kernel on
    each Gauss-Legendre node's grid (oracle.m2_bruteforce_quadrature keeps
    a dense rule as the independent check).
    """
    polys = [_support_coeff_logs(f, support), _dn_terms(f, n_max, table)]
    return _window_integral(polys, t_bound)


# ---------------------------------------------------------------------------
# Exact termwise moments (tiny instances).


def _termwise_sum(coeffs, logs, t_bound: float, scale: float) -> float:
    """scale * sum_{q,q'} W_q conj(W_{q'}) phi_hat(T*(log u_{q'} - log u_q)),
    W = coeffs and log u = logs.

    The sum is correctly rounded; its imaginary residue (zero by conjugate
    symmetry) is asserted tiny and dropped.
    """
    b = default_bump()
    pairs = list(zip(logs, coeffs))
    terms = [
        wq * wv.conjugate() * b.transform(t_bound * (lv - lu))
        for lu, wq in pairs
        for lv, wv in pairs
    ]
    total = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms)) * scale
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
    table: FactorTable,
) -> float:
    """M2 as the full quadruple transform expansion (tiny instances).

    Pairs q = (m, a) with m <= N and a in the support enter through
    W_q = f(m) f(a) r(a) and u_q = m*a:

        M2 = (T/N) * sum_{q,q'} W_q conj(W_{q'}) phi_hat(T*(log u_{q'} - log u_q))

    Products are formed as exact integers so equal products give a
    transform argument of exactly zero.
    """
    f_vals = values_up_to(f, n_max, table)
    coeffs, logs = [], []
    for e in support:
        fa = 1.0 + 0.0j
        for p in e.primes:
            fa *= f.prime_value(p)
        for m in range(1, n_max + 1):
            coeffs.append(f_vals[m - 1] * fa * e.r)
            logs.append(math.log(m * e.n))
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
    Terms go through in chunks of _SIDE^2, so the temporaries stay small
    whatever the array.
    """

    _E_MIN = -1073  # frexp's exponent of 2^-1074; finite terms have e <= 1024
    _BINS = 1024 - _E_MIN + 1
    _CHUNK = _SIDE * _SIDE
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


def _pair_fsum(vals: Iterable[np.ndarray]) -> float:
    """Correctly rounded sum of a symmetric term over ordered coprime pairs.

    vals yields the terms of the pairs (i, k), i <= k, in arrays, the
    pair (0, 0) first; the sum does not depend on their order.  Each term
    also stands for its mirror pair, so it is added twice, except the
    first: the pair (0, 0) is (1, 1), its own mirror.  One exact
    accumulator (_ExactSum) takes every array.
    """
    total = _ExactSum()
    first = True
    for v in vals:
        twice = 2.0 * v
        if first and len(v):
            twice[0], first = v[0], False
        total.add(twice)
    return total.value()


def _dense_diagonal(toy, n_max: int, x: float, budget: int) -> float:
    """diagonal_sum for a test resonator: the gcd-matrix form over its
    support S = {n <= X : r(n) != 0},

        sum over a, b in S of floor(N / (max(a,b) // gcd(a,b))) r(a) r(b).

    This is the parametrized sum with a = a'g, b = b'g and g = gcd(a, b),
    term for term: the weight is floor(N / max(a',b')), zero when
    max(a',b') > N, and max(a, b) <= X is g <= X/max(a',b').  Rows of the
    matrix go in blocks of about _BLOCK entries, and every block's terms
    go into one exact accumulator (_ExactSum), correctly rounded at the end.
    The budget counts the |S|^2 entries, before any work.
    """
    sup = sorted(n for n, v in toy.values.items() if n <= x and v != 0.0)
    needed = len(sup) ** 2
    if needed > budget:
        raise ResourceLimitError(
            f"diagonal gcd-matrix entries exceeded budget {budget}",
            needed=needed,
            budget=budget,
        )
    s = np.array(sup, dtype=np.int64)
    r = np.array([float(toy.values[n]) for n in sup])
    total = _ExactSum()
    rows = max(1, _BLOCK // len(s))  # S holds 1, since r(1) = 1 and X >= 1
    for i0 in range(0, len(s), rows):
        a = s[i0 : i0 + rows, None]
        weight = n_max // (np.maximum(a, s) // np.gcd(a, s))
        total.add((weight * (r[i0 : i0 + rows, None] * r)).ravel())
    return total.value()


# The diagonal kernel takes the support elements <= min(N, X) in column
# groups of _GROUP and row batches of _ROWS, and holds arrays of at most
# _TILE entries: a batch's coprimality tile against a chunk of the g-range
# as wide as that allows, the group's limb products, and their int64 sums.
# r(g)^2 enters as two integer-valued limbs of _LIMB bits, so the limb
# sums over a chunk (at most _TILE g's) stay below 2^53 and are exact, and
# their int64 sums over any g-range of fewer than 2^(63 - _LIMB) elements
# are exact too.  _dense_diagonal's row blocks of the gcd matrix hold
# about _BLOCK entries.
_TILE = 2 * _SIDE * _SIDE
_BLOCK = 2 * _TILE
_LIMB = 52 - (_TILE - 1).bit_length()
_GROUP = 64
_ROWS = _TILE // (2 * _GROUP)


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
    sup: SupportArrays, lens: np.ndarray, weight: np.ndarray, scale: float
) -> Iterable[np.ndarray]:
    """Yield the terms weight[k] * r[i] * INNER[k, i] of the coprime pairs
    (i, k), i <= k < len(lens), of sup's elements, the pair (0, 0) first.
    INNER[k, i] is the sum of r(g)^2 over the first lens[k] elements g of
    sup coprime to elements i and k.

    The pairs come from SupportArrays.coprime_tiles, in tiles of a column
    group of _GROUP elements k by a row batch of _ROWS elements i <= k.
    lens does not increase, so the columns in play at a chunk start are
    those with lens[k] past it, and the rows in play are those up to the
    last such column.  Per tile and chunk of g: F is the 0/1 coprimality
    tile of the rows in play, keep that of the columns in play, cut at each
    column's lens[k], and W stacks the hi and lo limbs (_r2_limbs) of
    r(g)^2 times keep.  W @ F^T gives both limb sums of the chunk at once,
    exact integers below 2^53, and they add into int64 sums, so these are
    the exact limb sums whatever the chunks.  The group's last tile holds
    the group's columns among its rows, so keep is a slice of its F there;
    and its rows stop at the last column in play, so it skips most of the
    pairs i > k.  A chunk is as wide as F and W allow within _TILE entries
    each.  INNER is put together from the limb sums at the end.
    """
    masks, r = sup.masks, sup.r
    count = len(lens)
    # F, W and a chunk's product go into these, reused by every chunk: F
    # and W have at most 2 * count * lens[0] entries, the product
    # 2 * count^2.
    tile = min(_TILE, 2 * count * int(lens[0]))
    fbuf, wbuf = np.empty(tile), np.empty(tile)
    pbuf = np.empty(min(2 * _GROUP * _ROWS, 2 * count**2))
    for k, i, ok in sup.coprime_tiles(count, _GROUP, _ROWS):
        k0, k1, i0, i1 = k.start, k.stop, i.start, i.stop
        acc = np.zeros((2, k1 - k0, i1 - i0), dtype=np.int64)
        c0, end = 0, int(lens[k0])
        while c0 < end:
            kc = k0 + int(np.count_nonzero(lens[k] > c0))
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
        yield (weight[k, None] * r[None, i] * inner)[ok]


def _window_diagonal(sup: SupportArrays, n_max: int, x: float, budget: int) -> float:
    """diagonal_sum for a window resonator over the support `sup`, a
    prefix of the support <= X, and the coprime pairs of its elements
    <= min(N, X).

    r is multiplicative on squarefree support, so the term of a pair
    (a', b') with larger element b' = n_k is floor(N/n_k) r(b') r(a')
    times INNER, the sum of r(g)^2 over the first len_k elements g of sup
    (those <= X/n_k) coprime to a'b'.  len_k does not increase with k,
    and one searchsorted gives all of them.  With sup the support
    <= g_cap < X, this is the diagonal with every g-range and every pair
    element cut at g_cap, a lower bound of the full one (ratio_and_bounds'
    fallback).

    _diagonal_terms gives the terms floor(N/n_k) r(b') r(a') INNER of the
    pairs, a column group and row batch at a time, with INNER from one
    dense product of limbs per chunk of the g-range.  All terms go into
    one exact accumulator (_pair_fsum), correctly rounded at the end, so
    the result does not depend on the order of the groups or the chunks.

    Memory: every array the kernel makes has at most _TILE entries, and it
    holds at most a dozen at once (3 MiB), however large the support and
    the pair count are; besides them it keeps a few arrays with one entry
    per element <= min(N, X).  It holds nothing with an entry per element
    of the g-ranges, the support <= X.

    Precision: a chunk's limb sums are exact integers below 2^53, whatever
    order the matrix product adds them in, and their int64 sums are the
    exact limb sums H and L of the whole g-range, whatever the chunks.  So
    the result does not depend on the BLAS, its thread count or the chunk
    width.  INNER is (H + L * 2^-_LIMB) / scale, computed within gamma_2
    relative (gamma_n = n*u/(1 - n*u), u = 2^-53; H and L convert to
    float64 exactly while below 2^53, as on g-ranges of fewer than 2^16
    elements); the limbs carry r^2 to within 2^-(2*_LIMB) * max r^2 each.
    r(1) = 1 makes INNER >= 1, and the window weights have r^2 <= 1, so
    the computed INNER is within gamma_2 + |G| * 2^-(2*_LIMB) relative of
    the true sum over |G| = len_k elements.

    The budget counts ordered coprime pairs, from a pass over the tiles
    that only counts, before any g-sum work.

    Raises:
        ResourceLimitError: the pair count is over budget, or the longest
            g-range has 2^(63 - _LIMB) elements or more, past the exact
            int64 limb sums.
    """
    count = len(sup.upto(min(float(n_max), x)).ns)
    pairs = sum(np.count_nonzero(ok) for _, _, ok in sup.coprime_tiles(count))
    needed = 2 * pairs - 1 if count else 0
    if needed > budget:
        raise ResourceLimitError(
            f"diagonal pair enumeration exceeded budget {budget}",
            needed=needed,
            budget=budget,
        )
    if not count:
        return 0.0
    ns = sup.ns
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
    scale = math.ldexp(1.0, _LIMB - math.frexp(float(sup.r[: lens[0]].max()) ** 2)[1])
    weight = (n_max // ns[:count]) * sup.r[:count]
    return _pair_fsum(_diagonal_terms(sup, lens, weight, scale))


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
    The sum is always the full one; the g-capped lower bound that a
    certificate falls back to over budget is ratio_and_bounds' own (its
    `diag_g_cap` flag).

    For a window resonator the support <= X is built once into arrays,
    and _window_diagonal streams the coprime pairs of its elements
    <= min(N, X) as tiles of a column group by a row batch
    (SupportArrays.coprime_tiles), holding no pair list;
    the budget bounds both the support and the ordered coprime pairs.
    Its inner g-sums are exact limb sums from dense products of limbs,
    whatever the chunks of g.  It holds arrays of at most _TILE entries
    (at most a dozen at once, 3 MiB) and nothing with an entry per element
    of the support <= X beyond the support itself.  Each inner sum of |G|
    terms is within gamma_2 + |G| * 2^-(2*_LIMB) relative
    (gamma_n = n*u / (1 - n*u), u = 2^-53), all terms go into one exact
    accumulator, and the result does not depend on the BLAS thread count.

    For a test resonator _dense_diagonal sums the same terms as the gcd
    matrix over its support S <= X, a, b in S weighted
    floor(N / (max(a,b) // gcd(a,b))), in row blocks of about _BLOCK
    entries into one correctly rounded sum.  The budget bounds the |S|^2
    matrix entries and is checked before any work.

    Raises:
        ResourceLimitError: support enumeration, coprime-pair count or
            gcd-matrix entry count over budget; `needed` is the exact count.
    """
    if n_max < 1:
        raise ValueError("N must be >= 1")
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


def _support_within_budget(res: Resonator, cap: float, budget: int) -> SupportArrays | None:
    """support_arrays(res, cap, budget), or None when that is over budget."""
    try:
        return support_arrays(res, cap, budget)
    except ResourceLimitError:
        return None


def _sum_r_with_fallback(res: Resonator, sup: SupportArrays | None) -> tuple[float, bool]:
    """sum of r(n) over the support `sup`, or, when it is None (over
    budget), the Euler-product upper bound prod_p (1 + r(p)).

    The second component flags the fallback.  An upper bound keeps every
    envelope built from it a valid bound.
    """
    if sup is not None:
        return _exact_fsum(sup.r), False
    return math.exp(math.fsum(math.log1p(res.r_p[p]) for p in res.primes)), True


def offdiag_bound(
    n_max: int, x: float, t_bound: float, nu: int, *, c_nu: float, sum_r: float
) -> float:
    """Envelope for all off-diagonal M2 terms:

        (T/N) * N^2 * (sum_{a<=X} r(a))^2 * C_nu * (T/(N*X))^{-nu}.

    Off-diagonal transform arguments have magnitude at least T/(N*X);
    C_nu comes from the decay grid, so the constant is empirical, not
    proven.
    """
    return (t_bound / n_max) * n_max**2 * sum_r**2 * c_nu * (t_bound / (n_max * x)) ** (-nu)


def m1_offdiag_bound(x: float, t_bound: float, nu: int, *, c_nu: float, sum_r: float) -> float:
    """Envelope for off-diagonal M1 terms: T (sum r)^2 C_nu (T/X)^{-nu}."""
    return t_bound * sum_r**2 * c_nu * (t_bound / x) ** (-nu)


# ---------------------------------------------------------------------------
# Main-term and tail-bound sums over coprime support pairs.


def _main_term(res: Resonator, sup: SupportArrays) -> float:
    """sum over the ordered coprime pairs of sup of t(a') t(b') a'b' / max^3.

    Asserts t(n) = r(n) / prod_{p | n}(1 + r(p)^2) on every element first.
    """
    log_plain = sup.prime_factor_sums([math.log1p(res.r_p[p] ** 2) for p in res.primes])
    if not np.allclose(sup.t * np.exp(log_plain), sup.r, rtol=1e-12, atol=0.0):
        raise AssertionError("t-weight identity violated")
    w = sup.t * sup.ns
    w_over_cube = w / sup.ns.astype(np.float64) ** 3
    return _pair_fsum((w[None, i] * w_over_cube[k, None])[ok] for k, i, ok in sup.coprime_tiles())


def _balanced_pair_bound(sup: SupportArrays, z: float) -> float:
    """(sum over support m <= z of t(m)/sqrt(m))^2 / log z, for sup <= z."""
    return _exact_fsum(sup.t / np.sqrt(sup.ns)) ** 2 / math.log(z)


def _alpha_tail(res: Resonator, sup: SupportArrays, x: float, alpha: float) -> float:
    """alpha_shift_error_term over the coprime pairs of sup."""
    if not 0.0 < alpha < 0.5:
        raise ValueError("alpha must lie in (0, 1/2)")
    log_shift = [math.log1p(res.r_p[p] ** 2 * p**alpha) for p in res.primes]
    log_full_plain = math.fsum(math.log1p(res.r_p[p] ** 2) for p in res.primes)
    log_full_shift = math.fsum(log_shift)
    # Coprime a', b' split prod_{p not | a'b'} into the full product over
    # the per-element products of the primes each one drops.
    u = (
        sup.r
        * sup.ns.astype(np.float64) ** (alpha - 0.5)
        * np.exp(-sup.prime_factor_sums(log_shift))
    )
    pair_sum = _pair_fsum((u[None, i] * u[k, None])[ok] for k, i, ok in sup.coprime_tiles())
    return math.exp(log_full_shift - log_full_plain) * x ** (-alpha) * pair_sum


def moment_main_term(
    res: Resonator, n_max: int, x: float, budget: int = DEFAULT_TERM_BUDGET
) -> float:
    """Balanced coprime main term of the diagonal ratio:

        sum_{(a',b')=1, a',b' <= min(N,X)} t(a') t(b') a'b' / max(a',b')^3.

    t(a')t(b') equals r(a')r(b') / prod_{p | a'b'}(1 + r(p)^2) for
    coprime squarefree support products; the identity is asserted on
    every support element.  Always at least 1 (the (1,1) term).
    """
    sup = support_arrays(res, min(float(n_max), x), budget)
    return _main_term(res, sup)


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
    return _main_term(res, sup), _balanced_pair_bound(sup, z)


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
    return _alpha_tail(res, sup, x, alpha)


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
    n: int
    t: float
    x: float
    c: float | None
    delta: float
    gamma: float
    nu: int
    alpha: float | None
    resonator: dict
    m1_quad: float | None
    m1_exact: float | None
    m1_main: float
    m2_quad: float | None
    m2_exact: float | None
    diag_sum: float
    m2_diag_main: float
    offdiag_bound: float
    m1_offdiag_bound: float
    decay_constant: float
    ratio: float
    lower_bound: float
    ratio_bracket_lo: float | None
    ratio_bracket_hi: float | None
    lower_bound_bracket: float | None
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
    table: FactorTable,
    *,
    nu: int = DEFAULT_NU,
    alpha: float | None = None,
    budget: int = DEFAULT_TERM_BUDGET,
    exact_mode: str = "auto",
) -> MomentReport:
    """Assemble the full certificate report.

    The headline fields ratio = diag_sum / (N * sum r(n)^2) and
    lower_bound = sqrt(ratio) are f-free: the diagonal main term of M2/M1,
    not certified bounds, since the off-diagonal terms they leave out can
    have either sign.  The bracket fields add the off-diagonal envelopes,
    whose C_nu is fitted on a grid (offdiag_bound), so they are empirical
    too.  Exact and quadrature moments are filled in for tiny instances
    (exact_mode="auto") or on demand ("always"); either may be None.

    `f` is only consulted for those exact/quadrature cross-checks.  Every
    moment uses the fixed window default_bump().
    """
    if exact_mode not in ("auto", "always", "never"):
        raise ValueError(f"unknown exact_mode {exact_mode!r}")
    if n_max < 1:
        raise ValueError("N must be >= 1")
    x = res.x
    c = math.log(t_bound) / math.log(n_max) if n_max > 1 and t_bound > 1 else None

    flags: dict = {}

    # Every support sum below runs over prefixes of one build of the
    # support <= X.  When that build is over budget, prefixes are built
    # on their own, and the sums over the whole support fall back as
    # flagged: sum r(n)^2 and sum r(n) to Euler-product upper bounds
    # (which keep the ratio a lower bound of the diagonal ratio), the
    # diagonal to g-ranges cut at g_cap.
    sup = _support_within_budget(res, x, budget)

    def support_upto(cap: float) -> SupportArrays:
        return sup.upto(cap) if sup is not None else support_arrays(res, cap, budget)

    # Every pair sum below streams the coprime pairs of the support
    # <= z = min(N, X) (g-capped fallbacks: of its prefixes) as tiles.
    z = min(float(n_max), x)
    sup_z = support_upto(z)

    flags["r2_sum_truncated"] = sup is None
    if sup is not None:
        r2 = r2_denominator = _exact_fsum(sup.r * sup.r)
    else:
        r2 = None
        r2_denominator = euler_product_one_plus_r2(res)

    diag = None
    if sup is not None:
        try:
            diag = _window_diagonal(sup, n_max, x, budget)
        except ResourceLimitError:
            pass
    flags["diag_sum_truncated"] = diag is None
    if diag is None:
        # The first g_cap = X/16^k, k >= 1, whose diagonal fits the budget.  A
        # smaller cap shrinks the support and the pair count, so success is
        # monotone in k and a bisection finds that k; k_max, the first k with
        # g_cap < 1, is the last try, and its error propagates.
        k_max = 1
        while math.ldexp(x, -4 * k_max) >= 1.0:
            k_max += 1

        def diagonal_at(k: int) -> float | None:
            g_cap = math.ldexp(x, -4 * k)
            try:
                return _window_diagonal(support_upto(g_cap), n_max, x, budget)
            except ResourceLimitError:
                if k == k_max:
                    raise
                return None

        lo, hi = 0, k_max  # k = lo fails (or is 0); the first success is in (lo, hi]
        while hi - lo > 1:
            mid = (lo + hi) // 2
            found = diagonal_at(mid)
            if found is None:
                lo = mid
            else:
                hi, diag = mid, found
        if diag is None:
            diag = diagonal_at(hi)
        flags["diag_g_cap"] = math.ldexp(x, -4 * hi)

    ratio = diag / (n_max * r2_denominator)
    lower_bound = math.sqrt(max(0.0, ratio))

    c_nu = decay_constant(default_bump(), nu, DEFAULT_DECAY_GRID)
    sum_r, flags["sum_r_truncated"] = _sum_r_with_fallback(res, sup)
    od2 = offdiag_bound(n_max, x, t_bound, nu, c_nu=c_nu, sum_r=sum_r)
    od1 = m1_offdiag_bound(x, t_bound, nu, c_nu=c_nu, sum_r=sum_r)
    phi0 = default_bump().transform(0.0).real
    m1_diag = t_bound * phi0 * r2_denominator
    m2_diag = (t_bound / n_max) * phi0 * diag

    bracket_lo = bracket_hi = lb_bracket = None
    if not flags["r2_sum_truncated"] and not flags["diag_sum_truncated"]:
        m1_hi = m1_diag + od1
        m1_lo = m1_diag - od1
        bracket_lo = max(0.0, (m2_diag - od2) / m1_hi) if m1_hi > 0 else None
        bracket_hi = (m2_diag + od2) / m1_lo if m1_lo > 0 else None
        if bracket_lo is not None:
            lb_bracket = math.sqrt(bracket_lo)

    # Exact moments need the whole support: under "always" an over-budget
    # support raises again here; "auto" takes tiny ones, N * |support| <= 64.
    support = None
    m1_q = m1_e = m2_q = m2_e = None
    if exact_mode == "always":
        support = support_upto(x).elements(res)
    elif exact_mode == "auto" and t_bound <= EXACT_AUTO_MAX_T and sup is not None:
        support = sup.elements(res) if n_max * len(sup.ns) <= 64 else None
    if support is not None:
        if f is None:
            raise ValueError("exact moments require a coefficient function")
        m1_q = m1_quadrature(f, t_bound, support)
        m1_e = m1_exact(f, t_bound, support)
        m2_q = m2_quadrature(f, n_max, t_bound, support, table)
        m2_e = m2_exact(f, n_max, t_bound, support, table)

    alpha_eff = alpha if alpha is not None else res.alpha_default
    if alpha_eff is not None:
        tail = _alpha_tail(res, sup_z, x, alpha_eff)
    else:
        # Degenerate resonator: no shift parameter to run the tail bound with.
        tail = None

    main = _main_term(res, sup_z)  # the balanced pair sum too
    if z > 1.0:
        pair_lhs, pair_rhs = main, _balanced_pair_bound(sup_z, z)
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

    res_summary = {
        **res.summary(),
        "sum_r_squared": r2,
        "euler_product": euler_product_one_plus_r2(res),
    }

    return MomentReport(
        n=n_max,
        t=t_bound,
        x=x,
        c=c,
        delta=delta,
        gamma=gamma,
        nu=nu,
        alpha=alpha_eff,
        resonator=res_summary,
        m1_quad=m1_q,
        m1_exact=m1_e,
        m1_main=m1_diag,
        m2_quad=m2_q,
        m2_exact=m2_e,
        diag_sum=diag,
        m2_diag_main=m2_diag,
        offdiag_bound=od2,
        m1_offdiag_bound=od1,
        decay_constant=c_nu,
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
