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
weights and prime masks (resonator.SupportArrays).  A report lists the
coprime pairs of the support <= min(N, X) once (coprime_pairs), and the
diagonal, its g-capped fallbacks, the main term and the alpha-shift tail
all sum over that list.  The inner g-sums of the diagonal, sum of r(g)^2
over support g <= X/max(a',b') coprime to a'b', are masked matrix-vector
products over the same arrays, so every term the certificate adds is
positive and no inclusion-exclusion subtraction is left.  This module
never reads the mask bits itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from .bump import Bump, default_bump, decay_constant
from .dirichlet import _support_coeff_logs
from .errors import ResourceLimitError
from .multfn import UnimodularCMF, values_up_to
from .ntcore import FactorTable, gcd
from .quadrature import adaptive_oscillatory
from .resonator import (
    _BLOCK,
    DEFAULT_ENUM_BUDGET,
    Pairs,
    Resonator,
    SupportArrays,
    SupportElement,
    disjoint,
    euler_product_one_plus_r2,
    prime_mask,
    support_arrays,
    sum_r_squared,
)

DEFAULT_TERM_BUDGET = 50_000_000
# Transform decay constants are calibrated on this grid (|xi| >= 10;
# points sit away from the transform's near-zeros).
DEFAULT_DECAY_GRID = (10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0, 1280.0)
DEFAULT_NU = 3
# Exact and quadrature moments are attempted in exact_mode="auto" only up
# to this T (and only for tiny supports); they need a factor table to N.
EXACT_AUTO_MAX_T = 2.0e4


def _decay_const(b: Bump, nu: int) -> float:
    c_nu = b._decay_memo.get(nu)
    if c_nu is None:
        c_nu = b._decay_memo[nu] = decay_constant(b, nu, DEFAULT_DECAY_GRID)
    return c_nu


# ---------------------------------------------------------------------------
# Quadrature moments (tiny instances; the oracle-facing route).


def _window_integral(fn_extra, t_bound: float, b: Bump, max_freq: float, rel_tol: float):
    lo, hi = b.lo * t_bound, b.hi * t_bound

    def integrand(t):
        return fn_extra(t) * b.phi_vec(t / t_bound)

    value, err = adaptive_oscillatory(
        integrand, lo, hi, max_freq=max_freq, rel_tol=rel_tol, abs_tol=0.0
    )
    return value.real, err


def m1_quadrature(
    res: Resonator,
    f: UnimodularCMF,
    t_bound: float,
    support: list[SupportElement],
    table: FactorTable,
    b: Bump | None = None,
    rel_tol: float = 1e-8,
) -> float:
    """M1 by adaptive quadrature over the window support [T/2, T]."""
    b = b or default_bump()
    coeffs, logs = _support_coeff_logs(res, f, support)

    def r_abs2(t):
        vals = np.exp(1j * np.multiply.outer(t, logs)) @ coeffs
        return (vals * vals.conjugate()).real

    value, _ = _window_integral(r_abs2, t_bound, b, max_freq=float(logs.max(initial=0.0)), rel_tol=rel_tol)
    return value


def m2_quadrature(
    res: Resonator,
    f: UnimodularCMF,
    n_max: int,
    t_bound: float,
    support: list[SupportElement],
    table: FactorTable,
    b: Bump | None = None,
    rel_tol: float = 1e-8,
) -> float:
    """M2 by adaptive quadrature over the window support [T/2, T]."""
    b = b or default_bump()
    coeffs, logs = _support_coeff_logs(res, f, support)
    d_coeffs = values_up_to(f, n_max, table) / math.sqrt(n_max)
    d_logs = np.log(np.arange(1, n_max + 1, dtype=np.float64))

    def weighted_abs2(t):
        rv = np.exp(1j * np.multiply.outer(t, logs)) @ coeffs
        dv = np.exp(1j * np.multiply.outer(t, d_logs)) @ d_coeffs
        return (rv * rv.conjugate()).real * (dv * dv.conjugate()).real

    max_freq = float(logs.max(initial=0.0)) + float(d_logs.max(initial=0.0))
    value, _ = _window_integral(weighted_abs2, t_bound, b, max_freq=max_freq, rel_tol=rel_tol)
    return value


# ---------------------------------------------------------------------------
# Exact termwise moments (tiny instances).


def _real_sum(terms: list[complex], scale: float) -> float:
    """scale times the correctly rounded sum of terms, whose imaginary
    residue (zero by conjugate symmetry) is asserted tiny and dropped."""
    total = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms)) * scale
    if abs(total.imag) > 1e-12 * max(1.0, abs(total.real)):
        raise AssertionError(f"moment sum imaginary residue {total.imag!r} too large")
    return total.real


def m1_exact(
    res: Resonator,
    f: UnimodularCMF,
    t_bound: float,
    support: list[SupportElement],
    table: FactorTable,
    b: Bump | None = None,
) -> float:
    """M1 as T * sum over support pairs of the transform expansion.

    M1 = T * sum_{a,b} V_a conj(V_b) phi_hat(T*(log b - log a)) with
    V_a = f(a) * r(a).  The transform's conjugate symmetry makes the sum
    real; the float residue is asserted tiny and dropped.
    """
    b = b or default_bump()
    coeffs, logs = _support_coeff_logs(res, f, support)
    terms = [
        coeffs[i] * coeffs[j].conjugate() * b.transform(t_bound * (logs[j] - logs[i]))
        for i in range(len(support))
        for j in range(len(support))
    ]
    return _real_sum(terms, t_bound)


def m1_main(res: Resonator, t_bound: float, cap: float, b: Bump | None = None) -> float:
    """Diagonal part of M1: T * phi_hat(0) * sum_{n<=cap} r(n)^2."""
    b = b or default_bump()
    return t_bound * b.transform(0.0).real * sum_r_squared(res, cap)


def m2_exact(
    res: Resonator,
    f: UnimodularCMF,
    n_max: int,
    t_bound: float,
    support: list[SupportElement],
    table: FactorTable,
    b: Bump | None = None,
) -> float:
    """M2 as the full quadruple transform expansion (tiny instances).

    Pairs q = (m, a) with m <= N and a in the support enter through
    W_q = f(m) f(a) r(a) and u_q = m*a:

        M2 = (T/N) * sum_{q,q'} W_q conj(W_{q'}) phi_hat(T*(log u_{q'} - log u_q))

    Products are formed as exact integers so equal products give a
    transform argument of exactly zero.
    """
    b = b or default_bump()
    f_vals = values_up_to(f, n_max, table)
    pairs: list[tuple[float, complex]] = []
    for e in support:
        fa = 1.0 + 0.0j
        for p in e.primes:
            fa *= f.prime_value(p)
        for m in range(1, n_max + 1):
            pairs.append((math.log(m * e.n), f_vals[m - 1] * fa * e.r))
    terms = [
        wq * wv.conjugate() * b.transform(t_bound * (lv - lu))
        for lu, wq in pairs
        for lv, wv in pairs
    ]
    return _real_sum(terms, t_bound / n_max)


# ---------------------------------------------------------------------------
# Coprime support pairs and the diagonal sums of the gcd parametrization.


def _pair_fsum(vals: Iterable[np.ndarray]) -> float:
    """Correctly rounded sum of a symmetric term over ordered coprime pairs.

    vals yields the terms of the pairs of SupportArrays.coprime_pairs in
    their order, in blocks.  Each term also stands for its mirror pair, so
    it is added twice, except the first: the pair (0, 0) is (1, 1), its
    own mirror.
    """

    def doubled():
        first = True
        for v in vals:
            twice = 2.0 * v
            if first and len(v):
                twice[0], first = v[0], False
            yield twice.tolist()

    return math.fsum(chain.from_iterable(doubled()))


def _blocks(pairs: Pairs) -> Iterator[Pairs]:
    """The pairs (i, j) in consecutive blocks of at most _BLOCK."""
    i, j = pairs
    for k in range(0, len(i), _BLOCK):
        yield i[k : k + _BLOCK], j[k : k + _BLOCK]


def _coprime_r2_sums(
    masks: np.ndarray, g_masks: np.ndarray, g_r2: np.ndarray
) -> np.ndarray:
    """For each mask m: sum of g_r2 over the entries whose g_masks are
    disjoint from m.

    The mask comparisons run in blocks of about _BLOCK entries.
    """
    out = np.zeros(len(masks))
    cols = max(1, min(len(g_masks), _BLOCK))
    rows = max(1, _BLOCK // cols)
    for c0 in range(0, len(g_masks), cols):
        gm = g_masks[None, c0 : c0 + cols]
        r2 = g_r2[c0 : c0 + cols]
        for r0 in range(0, len(masks), rows):
            out[r0 : r0 + rows] += disjoint(masks[r0 : r0 + rows, None], gm) @ r2
    return out


def _toy_r_vector(toy, x_int: int) -> list[float]:
    return [0.0] + [float(toy.value(k)) for k in range(1, x_int + 1)]


def _window_diagonal(
    sup: SupportArrays, pairs: Pairs, n_max: int, x: float, budget: int, g_cap: float | None = None
) -> float:
    """diagonal_sum for a window resonator whose support <= min(X, g_cap)
    is `sup`, over the prefix of `pairs` (coprime_pairs of a support
    prefix) whose elements are <= min(N, X).

    r is multiplicative on squarefree support, so a term is r(a') r(b')
    floor(N/max) times the sum of r(g)^2 over support g <= X/max coprime
    to a'b'.  For each larger element b' of a pair the g-range is the
    prefix of sup <= X/b', filtered to g coprime to b', and the inner sums
    of all its partners a' <= b' come from one blocked masked product.
    All terms are positive and go into one correctly rounded sum.  The
    budget counts ordered coprime pairs before any g-sum work.
    """
    count = len(sup.upto(min(float(n_max), x)).ns)
    i, j = pairs
    # i[starts[k] : starts[k + 1]] are element k's partners (a j.dtype needle: no int64 copy of j).
    starts = np.searchsorted(j, np.arange(count + 1, dtype=j.dtype))
    needed = 2 * int(starts[-1]) - 1 if count else 0
    if needed > budget:
        raise ResourceLimitError(
            f"diagonal pair enumeration exceeded budget {budget}",
            needed=needed,
            budget=budget,
        )
    r2 = sup.r * sup.r

    def terms():
        for k in range(count):
            idx = i[starts[k] : starts[k + 1]]
            n_k = int(sup.ns[k])
            g = sup.upto(x / n_k if g_cap is None else min(x / n_k, g_cap))
            g_ok = np.flatnonzero(disjoint(g.masks, sup.masks[k]))
            inner = _coprime_r2_sums(sup.masks[idx], g.masks[g_ok], r2[g_ok])
            yield ((n_max // n_k) * float(sup.r[k])) * sup.r[idx] * inner

    return _pair_fsum(terms())


def diagonal_sum(
    res,
    n_max: int,
    x: float,
    table: FactorTable,
    budget: int = DEFAULT_TERM_BUDGET,
    g_cap: float | None = None,
) -> float:
    """sum of r(a) r(b) over m, n <= N and support a, b <= X with ma = nb.

    Parametrized form: over coprime (a', b') with max <= min(N, X),

        floor(N / max(a',b')) * sum_{g <= X/max(a',b')} r(a'g) r(b'g).

    Accepts either a window resonator or any object with a dense
    `.value(n)` map and a `squarefree_supported` flag (the test-resonator
    protocol).  `g_cap` truncates every inner g-range; the result is then
    a certified lower bound of the full sum.

    For a window resonator the support <= min(X, g_cap) is built once
    into arrays, and _window_diagonal sums over the coprime pairs of its
    elements <= min(N, X); the budget bounds both the support and the
    ordered coprime pairs.

    Raises:
        ResourceLimitError: support enumeration or coprime-pair count
            over budget; for the pair count, `needed` is the exact count.
    """
    if n_max < 1:
        raise ValueError("N must be >= 1")
    if x < 1.0:
        raise ValueError("X must be >= 1")
    if isinstance(res, Resonator):
        sup = support_arrays(res, x if g_cap is None else min(x, g_cap), budget)
        pairs = sup.upto(min(float(n_max), x)).coprime_pairs()
        return _window_diagonal(sup, pairs, n_max, x, budget, g_cap)

    # Dense path for explicit test resonators.
    x_int = math.floor(x)
    r_vec = _toy_r_vector(res, x_int)
    flagged = bool(getattr(res, "squarefree_supported", False))
    z_int = min(n_max, x_int)
    terms = []
    ops = 0
    for a in range(1, z_int + 1):
        if flagged and r_vec[a] == 0.0:
            continue
        for bb in range(1, z_int + 1):
            if flagged and r_vec[bb] == 0.0:
                continue
            if gcd(a, bb) != 1:
                continue
            mx = a if a > bb else bb
            g_hi = math.floor(x / mx)
            if g_cap is not None:
                g_hi = min(g_hi, math.floor(g_cap))
            ops += g_hi
            if ops > budget:
                raise ResourceLimitError(
                    f"diagonal enumeration exceeded budget {budget}",
                    needed=ops,
                    budget=budget,
                )
            ab = a * bb
            inner = []
            for g in range(1, g_hi + 1):
                v = r_vec[a * g] * r_vec[bb * g]
                if v != 0.0:
                    if flagged and gcd(g, ab) != 1:
                        raise AssertionError(
                            "squarefree-supported flag violated: "
                            f"r({a * g})*r({bb * g}) != 0 with gcd(g, a'b') > 1"
                        )
                    inner.append(v)
            if inner:
                terms.append((n_max // mx) * math.fsum(inner))
    return math.fsum(terms)


def diagonal_lower_bound(
    res,
    n_max: int,
    x: float,
    table: FactorTable,
    budget: int = DEFAULT_TERM_BUDGET,
) -> float:
    """The coprime-restricted diagonal sum

        sum_{(a',b')=1, a',b' <= min(N,X)} r(a') r(b') floor(N/max)
            * sum_{g <= X/max, (g, a'b')=1} r(g)^2.

    Never exceeds diagonal_sum; coincides with it whenever r is
    squarefree-supported (the restriction only drops zero terms then).
    """
    if isinstance(res, Resonator):
        return diagonal_sum(res, n_max, x, table, budget)
    x_int = math.floor(x)
    r_vec = _toy_r_vector(res, x_int)
    z_int = min(n_max, x_int)
    terms = []
    for a in range(1, z_int + 1):
        for bb in range(1, z_int + 1):
            if gcd(a, bb) != 1:
                continue
            mx = a if a > bb else bb
            g_hi = math.floor(x / mx)
            ab = a * bb
            inner = [
                r_vec[g] * r_vec[g]
                for g in range(1, g_hi + 1)
                if gcd(g, ab) == 1 and r_vec[g] != 0.0
            ]
            if inner and r_vec[a] != 0.0 and r_vec[bb] != 0.0:
                terms.append((n_max // mx) * r_vec[a] * r_vec[bb] * math.fsum(inner))
    return math.fsum(terms)


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
    res: Resonator,
    n_max: int,
    x: float,
    t_bound: float,
    nu: int,
    table: FactorTable,
    b: Bump | None = None,
    c_nu: float | None = None,
    sum_r: float | None = None,
) -> float:
    """Envelope for all off-diagonal M2 terms:

        (T/N) * N^2 * (sum_{a<=X} r(a))^2 * C_nu * (T/(N*X))^{-nu}.

    Off-diagonal transform arguments have magnitude at least T/(N*X);
    C_nu comes from the decay grid, so the constant is empirical, not
    proven.
    """
    b = b or default_bump()
    if c_nu is None:
        c_nu = _decay_const(b, nu)
    if sum_r is None:
        sum_r, _ = _sum_r_with_fallback(res, _support_within_budget(res, x, DEFAULT_ENUM_BUDGET))
    return (t_bound / n_max) * n_max**2 * sum_r**2 * c_nu * (t_bound / (n_max * x)) ** (-nu)


def m1_offdiag_bound(
    res: Resonator,
    x: float,
    t_bound: float,
    nu: int,
    b: Bump | None = None,
    c_nu: float | None = None,
    sum_r: float | None = None,
) -> float:
    """Envelope for off-diagonal M1 terms: T (sum r)^2 C_nu (T/X)^{-nu}."""
    b = b or default_bump()
    if c_nu is None:
        c_nu = _decay_const(b, nu)
    if sum_r is None:
        sum_r, _ = _sum_r_with_fallback(res, _support_within_budget(res, x, DEFAULT_ENUM_BUDGET))
    return t_bound * sum_r**2 * c_nu * (t_bound / x) ** (-nu)


# ---------------------------------------------------------------------------
# Main-term and tail-bound sums over coprime support pairs.


def _main_term(res: Resonator, sup: SupportArrays, pairs: Pairs) -> float:
    """sum over the ordered coprime pairs of sup of t(a') t(b') a'b' / max^3.

    Asserts t(n) = r(n) / prod_{p | n}(1 + r(p)^2) on every element first.
    """
    log_plain = sup.prime_factor_sums([math.log1p(res.r_p[p] ** 2) for p in res.primes])
    if not np.allclose(sup.t * np.exp(log_plain), sup.r, rtol=1e-12, atol=0.0):
        raise AssertionError("t-weight identity violated")
    w = sup.t * sup.ns
    w_over_cube = w / sup.ns.astype(np.float64) ** 3
    return _pair_fsum(w[i] * w_over_cube[j] for i, j in _blocks(pairs))


def _balanced_pair_bound(sup: SupportArrays, z: float) -> float:
    """(sum over support m <= z of t(m)/sqrt(m))^2 / log z, for sup <= z."""
    return math.fsum((sup.t / np.sqrt(sup.ns)).tolist()) ** 2 / math.log(z)


def _alpha_tail(res: Resonator, sup: SupportArrays, pairs: Pairs, x: float, alpha: float) -> float:
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
    pair_sum = _pair_fsum(u[i] * u[j] for i, j in _blocks(pairs))
    return math.exp(log_full_shift - log_full_plain) * x ** (-alpha) * pair_sum


def moment_main_term(
    res: Resonator,
    n_max: int,
    x: float,
    table: FactorTable,
    budget: int = DEFAULT_TERM_BUDGET,
) -> float:
    """Balanced coprime main term of the diagonal ratio:

        sum_{(a',b')=1, a',b' <= min(N,X)} t(a') t(b') a'b' / max(a',b')^3.

    t(a')t(b') equals r(a')r(b') / prod_{p | a'b'}(1 + r(p)^2) for
    coprime squarefree support products; the identity is asserted on
    every support element.  Always at least 1 (the (1,1) term).
    """
    sup = support_arrays(res, min(float(n_max), x), budget)
    return _main_term(res, sup, sup.coprime_pairs())


def balanced_pair_bound_check(
    res: Resonator,
    z: float,
    table: FactorTable,
    budget: int = DEFAULT_TERM_BUDGET,
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
    return _main_term(res, sup, sup.coprime_pairs()), _balanced_pair_bound(sup, z)


def alpha_shift_error_term(
    res: Resonator,
    n_max: int,
    x: float,
    alpha: float,
    table: FactorTable,
    budget: int = DEFAULT_TERM_BUDGET,
) -> float:
    """Tail error from bounding truncated g-sums by the alpha-power shift:

        prod_p (1+r(p)^2)^{-1} * X^{-alpha}
          * sum_{(a',b')=1, <= min(N,X)} r(a')r(b') (a'b')^{alpha - 1/2}
              * prod_{p not | a'b'} (1 + r(p)^2 p^alpha).

    Positive whenever the support is nonempty or trivially X^{-alpha}.
    """
    sup = support_arrays(res, min(float(n_max), x), budget)
    return _alpha_tail(res, sup, sup.coprime_pairs(), x, alpha)


def tail_truncation_check(
    res: Resonator,
    ab: int,
    cap: float,
    alpha: float,
    table: FactorTable,
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
    b: Bump | None = None,
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

    `f` is only consulted for those exact/quadrature cross-checks.
    """
    if exact_mode not in ("auto", "always", "never"):
        raise ValueError(f"unknown exact_mode {exact_mode!r}")
    if n_max < 1:
        raise ValueError("N must be >= 1")
    b = b or default_bump()
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

    # Every pair sum below (g-capped fallbacks are prefixes) runs over the
    # coprime pairs of the support <= z = min(N, X), listed once here.
    z = min(float(n_max), x)
    sup_z = support_upto(z)
    pairs = sup_z.coprime_pairs()

    flags["r2_sum_truncated"] = sup is None
    if sup is not None:
        r2 = r2_denominator = math.fsum((sup.r * sup.r).tolist())
    else:
        r2 = None
        r2_denominator = euler_product_one_plus_r2(res)

    diag = None
    if sup is not None:
        try:
            diag = _window_diagonal(sup, pairs, n_max, x, budget)
        except ResourceLimitError:
            pass
    flags["diag_sum_truncated"] = diag is None
    if diag is None:
        g_cap = x
        while diag is None:
            g_cap /= 16.0
            try:
                diag = _window_diagonal(support_upto(g_cap), pairs, n_max, x, budget, g_cap)
            except ResourceLimitError:
                if g_cap < 1.0:
                    raise
        flags["diag_g_cap"] = g_cap

    ratio = diag / (n_max * r2_denominator)
    lower_bound = math.sqrt(max(0.0, ratio))

    c_nu = _decay_const(b, nu)
    sum_r, flags["sum_r_truncated"] = _sum_r_with_fallback(res, sup)
    od2 = offdiag_bound(res, n_max, x, t_bound, nu, table, b, c_nu=c_nu, sum_r=sum_r)
    od1 = m1_offdiag_bound(res, x, t_bound, nu, b, c_nu=c_nu, sum_r=sum_r)
    phi0 = b.transform(0.0).real
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
        m1_q = m1_quadrature(res, f, t_bound, support, table, b)
        m1_e = m1_exact(res, f, t_bound, support, table, b)
        m2_q = m2_quadrature(res, f, n_max, t_bound, support, table, b)
        m2_e = m2_exact(res, f, n_max, t_bound, support, table, b)

    alpha_eff = alpha if alpha is not None else res.alpha_default
    if alpha_eff is not None:
        tail = _alpha_tail(res, sup_z, pairs, x, alpha_eff)
    else:
        # Degenerate resonator: no shift parameter to run the tail bound with.
        tail = None

    main = _main_term(res, sup_z, pairs)  # the balanced pair sum too
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
