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
(with compensated summation) or brackets rigorously.

For window resonators the support is held as sorted arrays of integers,
weights and prime masks (resonator.SupportArrays).  The diagonal, its
g-capped fallbacks, the main term and the alpha-shift tail each stream
the coprime pairs of the support <= min(N, X) as boolean tiles
(SupportArrays.coprime_tiles) and sum the terms of each tile's pairs, so
no pair list is held and their memory does not grow with the pair count.
The inner g-sums of the diagonal, sum of r(g)^2 over support
g <= X/max(a',b') coprime to a'b', come from one tiled dense product over
the same arrays and tiles: 0/1 coprimality tiles times r(g)^2 split into
integer limbs, exact whatever the BLAS (_window_diagonal).  Every term
the certificate adds is positive and no inclusion-exclusion subtraction
is left.  This module never reads the mask bits itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
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


def _pair_fsum(vals: Iterable[np.ndarray]) -> float:
    """Correctly rounded sum of a symmetric term over ordered coprime pairs.

    vals yields the terms of the pairs (i, k), i <= k, of
    SupportArrays.coprime_tiles tile by tile, the pair (0, 0) first; the
    sum does not depend on their order.  Each term also stands for its
    mirror pair, so it is added twice, except the first: the pair (0, 0)
    is (1, 1), its own mirror.  The terms become Python floats 4096 at a
    time.
    """

    def doubled():
        first = True
        for v in vals:
            twice = 2.0 * v
            if first and len(v):
                twice[0], first = v[0], False
            for s in range(0, len(twice), 4096):
                yield twice[s : s + 4096].tolist()

    return math.fsum(chain.from_iterable(doubled()))


def _dense_diagonal(toy, n_max: int, x: float, budget: int) -> float:
    """diagonal_sum for a dense test resonator (`.value(n)` and a
    `squarefree_supported` flag).

    Enumerates (a', b', g) with a', b' <= z = min(N, X) coprime, in the
    order of a' then b', and 1 <= g <= X/max(a',b'); the term is
    floor(N/max) r(a'g) r(b'g).  When r is declared squarefree-supported,
    pairs with r(a') = 0 or r(b') = 0 are skipped, and a nonzero
    r(a'g) r(b'g) with gcd(g, a'b') > 1 fails the declaration.

    Rows a' go in blocks of about _BLOCK pairs plus (a', b', g) entries,
    counted from the g-ranges before the coprime filter; a single row over
    that is a block of its own.  The budget counts the (a', b', g) entries
    of the pairs enumerated and is checked once per block, before its
    g-sum work.  Every block's terms stream into one correctly rounded sum.
    """
    x_int = math.floor(x)
    r = np.array([0.0] + [float(toy.value(k)) for k in range(1, x_int + 1)])
    flagged = bool(getattr(toy, "squarefree_supported", False))
    z = min(n_max, x_int)
    ks = np.arange(1, z + 1)
    g_hi = np.floor(x / ks).astype(np.int64)
    # The rows and columns a', b' of the pair grid.
    cand = ks[r[1 : z + 1] != 0.0] if flagged else ks
    # Row a' spans at most z pairs and sum_b g_hi[max(a', b')] entries.
    row_work = z + ks * g_hi + (int(g_hi.sum()) - np.cumsum(g_hi))
    row_end = np.cumsum(row_work[cand - 1])

    def terms():
        ops = 0
        i0 = 0
        while i0 < len(cand):
            done = int(row_end[i0 - 1]) if i0 else 0
            i1 = max(i0 + 1, int(np.searchsorted(row_end, done + _BLOCK, side="right")))
            ai, bi = np.nonzero(np.gcd(cand[i0:i1, None], cand) == 1)
            a, b = cand[ai + i0], cand[bi]
            mx = np.maximum(a, b)
            cnt = g_hi[mx - 1]
            total = int(cnt.sum())
            ops += total
            if ops > budget:
                raise ResourceLimitError(
                    f"diagonal enumeration exceeded budget {budget}",
                    needed=ops,
                    budget=budget,
                )
            i0 = i1
            # Expand each pair into its g = 1 .. cnt entries.
            g = np.arange(1, total + 1) - np.repeat(np.cumsum(cnt) - cnt, cnt)
            a, b = np.repeat(a, cnt), np.repeat(b, cnt)
            weight = np.repeat((n_max // mx).astype(np.float64), cnt)
            v = r[a * g] * r[b * g]
            if flagged:
                bad = np.flatnonzero((v != 0.0) & (np.gcd(g, a * b) != 1))
                if len(bad):
                    k = bad[0]
                    raise AssertionError(
                        "squarefree-supported flag violated: "
                        f"r({a[k] * g[k]})*r({b[k] * g[k]}) != 0 with gcd(g, a'b') > 1"
                    )
            yield weight * v

    return math.fsum(chain.from_iterable(t.tolist() for t in terms()))


# The tiled diagonal kernel holds arrays of at most _TILE entries: the
# coprime tiles of _SIDE by _SIDE support elements, against chunks of the
# g-range as wide as that allows.  r(g)^2 enters as two integer-valued
# limbs of _LIMB bits, so the limb sums over a chunk (at most _TILE g's)
# stay below 2^53 and are exact.  _dense_diagonal's row blocks hold about
# _BLOCK entries.
_TILE = 2 * _SIDE * _SIDE
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


def _inner_sums(
    masks: np.ndarray, lens: np.ndarray, r: np.ndarray, scale: float, k: slice, i: slice
) -> np.ndarray:
    """INNER[a, b]: the sum of r(g)^2 over g < lens[k.start + a] coprime to
    elements k.start + a and i.start + b, for the tile (k, i) of
    SupportArrays.coprime_tiles.  Entries with i > k are not wanted and
    are left partial.

    lens does not increase, so the columns k in play at a chunk start are
    those with lens[k] past it, and the rows in play are those up to the
    last such column.  Per chunk of g: F is the 0/1 coprimality tile of the
    rows in play, W stacks the hi and lo limbs (_r2_limbs) of the
    g < lens[k] coprime to each column in play, and W @ F^T adds both limb
    sums at once, exactly.  A chunk is as wide as F and W allow within
    _TILE entries each.  The limb sums accumulate over the chunks in order
    and are put together at the end.
    """
    (k0, k1), (i0, i1) = (k.start, k.stop), (i.start, i.stop)
    acc = np.zeros((2, k1 - k0, i1 - i0))
    c0, end = 0, int(lens[k0])
    while c0 < end:
        kc = k0 + int(np.count_nonzero(lens[k] > c0))
        ic = min(i1, kc)
        if ic <= i0:
            break
        c1 = min(end, c0 + _TILE // max(ic - i0, 2 * (kc - k0)))
        g = masks[None, c0:c1]
        f = disjoint(masks[i0:ic, None], g, out=np.empty((ic - i0, c1 - c0)))
        # On the diagonal tile the rows in play are the columns in play.
        keep = f if i0 == k0 else disjoint(masks[k0:kc, None], g, out=np.empty((kc - k0, c1 - c0)))
        if lens[kc - 1] < c1:
            keep = keep * (np.arange(c0, c1) < lens[k0:kc, None])
        w = keep * _r2_limbs(r[c0:c1], scale)[:, None, :]
        acc[:, : kc - k0, : ic - i0] += (w.reshape(-1, c1 - c0) @ f.T).reshape(2, kc - k0, -1)
        c0 = c1
    return (acc[0] + acc[1] * 2.0**-_LIMB) / scale


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

    The pairs come as the tiles of SupportArrays.coprime_tiles, and every
    tile's INNER comes from a tiled dense product (_inner_sums) that
    accumulates over chunks of the g-range.  A tile's terms are its
    coprime entries of floor(N/n_k) r(b') r(a') INNER, and all of them go
    into one correctly rounded sum; math.fsum's result does not depend on
    the order of the tiles.

    Memory: every tile the kernel makes has at most _TILE entries, and it
    holds at most a dozen at once (3 MiB), however large the support and
    the pair count are; besides them it keeps a few arrays with one entry
    per element <= min(N, X).

    Precision: a chunk's limb sums are exact integers below 2^53, whatever
    order the matrix product adds them in, so the result does not depend
    on the BLAS or its thread count.  With |G| = len_k terms in m chunks,
    the computed INNER is within gamma_{m+1} * INNER +
    |G| * 2^-(2*_LIMB) * max r^2 of the true sum (gamma_n = n*u/(1 - n*u),
    u = 2^-53).  r(1) = 1 makes INNER >= 1, and the window weights have
    r^2 <= 1, so that is within gamma_{|G|} relative.

    The budget counts ordered coprime pairs, from a pass over the tiles
    that only counts, before any g-sum work.
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
    # r^2 * scale < 2^_LIMB over every g-range, all within the first lens[0].
    scale = math.ldexp(1.0, _LIMB - math.frexp(float(sup.r[: lens[0]].max()) ** 2)[1])
    weight = (n_max // ns[:count]) * sup.r[:count]
    return _pair_fsum(
        (weight[k, None] * sup.r[None, i] * _inner_sums(sup.masks, lens, sup.r, scale, k, i))[ok]
        for k, i, ok in sup.coprime_tiles(count)
    )


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

    Accepts either a window resonator or any object with a dense
    `.value(n)` map and a `squarefree_supported` flag (the test-resonator
    protocol).  `table` is not read; it keeps its place because perfbench
    passes it positionally.  The sum is always the full one; the
    g-capped lower bound that a certificate falls back to over budget is
    ratio_and_bounds' own (its `diag_g_cap` flag).

    For a window resonator the support <= X is built once into arrays,
    and _window_diagonal streams the coprime pairs of its elements
    <= min(N, X) as tiles (SupportArrays.coprime_tiles), holding no pair
    list; the budget bounds both the support and the ordered
    coprime pairs.  Its inner g-sums come from one tiled dense product
    whose tiles have at most _TILE entries each (at most a dozen held at
    once, 3 MiB); each inner sum of |G| terms is within
    gamma_{|G|} = |G|*u / (1 - |G|*u) relative (u = 2^-53), and the
    result does not depend on the BLAS thread count.

    For a test resonator the blocked kernel _dense_diagonal enumerates the
    (a', b', g) entries in row blocks of about _BLOCK, so it holds one
    block at a time, and all terms go into one correctly rounded sum.  The
    budget bounds the (a', b', g) entries and is checked before each
    block's g-sum work.

    Raises:
        ResourceLimitError: support enumeration, coprime-pair count or
            (a', b', g) entry count over budget.  For the pair count,
            `needed` is the exact count; for the entry count, it is the
            count up to the end of the block that crossed the budget.
        AssertionError: a test resonator flagged squarefree-supported has
            r(a'g) r(b'g) != 0 with gcd(g, a'b') > 1.
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
        return math.fsum(sup.r.tolist()), False
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
    return math.fsum((sup.t / np.sqrt(sup.ns)).tolist()) ** 2 / math.log(z)


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
    truncated = math.fsum((r * r).tolist())
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
        r2 = r2_denominator = math.fsum((sup.r * sup.r).tolist())
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
        "x": res.x,
        "lam": res.lam,
        "window_lo": res.window_lo,
        "window_hi": res.window_hi,
        "prime_count": len(res.primes),
        "is_empty": res.is_empty,
        "alpha_default": res.alpha_default,
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
