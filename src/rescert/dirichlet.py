"""Dirichlet polynomial evaluation and certified grid search.

D_{f,N}(t) = N^{-1/2} * sum_{n<=N} f(n) * n^{it}.  The derivative bound
|D'| <= sqrt(N) * log N turns a uniform grid of step h into a certificate:
the true supremum over the scanned window exceeds the best grid value by
at most h * sqrt(N) * log(N) / 2.  One kernel, _grid_values, scans D_N and
the resonator polynomial R in anchor blocks of RESYNC_STRIDE points.  Each
block computes one direct exponential row at its anchor t0 and multiplies
it into step tables that do not depend on t0, which a scan builds once per
block shape and term slice.  The inner step table takes one of two forms,
whichever costs fewer flops given h, L = max log n and the number of terms
(_taylor_rank): the explicit table e^{i*j*h*log n}, or a rank-K Taylor
factor over sub-blocks of r points with x = (r - 1)/2 * h * L <= 1 and
x^K / K! <= u/4, so the search's step (h*L = 2e-3) costs K = 19 products per
term and sub-block of 1001 points instead of 1001.  The quadrature moments
(h*L >= 0.3, a dozen terms) keep the explicit tables.  Every value is
within rho = sum|c_n| * u * (1/4 + e*(S + 40) + 3*L*|t|) (plus a block
margin) of the exact sum, S terms, u = 2^-52 (_grid_error_bound); grid_sup
refuses an eps <= rho, where the certified slack would be below rounding.
The kernel also scans several origins on the same grid offsets at once (the
quadrature moments' Gauss-Legendre nodes): they share the step tables, each
block does one stacked matmul for all of them, and each origin's values
are bit for bit those of its own scan.  The anchors stay at fixed grid
indices: at |t| ~ 6e10 each phase t*log n carries ~3e-5 rad of rounding,
so moved anchors shift grid values by ~1e-5 relative, enough to change
which grid point wins a near tie.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ResourceLimitError
from .multfn import UnimodularCMF, values_up_to
from .ntcore import FactorTable
from .resonator import Resonator, SupportElement, support_elements

RESYNC_STRIDE = 10_000
DEFAULT_EVAL_BUDGET = 20_000_000
REFINE_REL_WIDTH = 1e-10
# |R| peaks whose neighbourhoods the guided search refines.
GUIDED_TOP_K = 5
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Machine epsilon: a correctly rounded float64 operation is within _U / 2 relative.
_U = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class SearchResult:
    t_star: float
    value: float
    grid_step: float
    refinement_iterations: int
    certified_slack: float | None
    window: tuple[float, float]

    def as_dict(self) -> dict:
        return {**asdict(self), "window": list(self.window)}


def derivative_bound(n_max: int) -> float:
    """sqrt(N) * log N bounds |D'| (log N >= (1/N) * sum log n)."""
    return math.sqrt(n_max) * math.log(n_max) if n_max > 1 else 0.0


def _dn_terms(f: UnimodularCMF, n_max: int, table: FactorTable) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients f(n) / sqrt(N) and log n of D_{f,N}."""
    coeffs = values_up_to(f, n_max, table) / math.sqrt(n_max)
    logs = np.log(np.arange(1, n_max + 1, dtype=np.float64))
    return coeffs, logs


def _point_value(coeffs: np.ndarray, logs: np.ndarray, t: float) -> np.complex128:
    """sum_n c_n e^{i*t*log n} by direct exponentials, summed in numpy's pairwise order."""
    return np.sum(coeffs * np.exp(1j * t * logs))


def _abs2(terms: tuple[np.ndarray, np.ndarray], t: float) -> float:
    """|sum_n c_n e^{i*t*log n}|^2 of the (coeffs, logs) pair `terms`."""
    v = _point_value(*terms, t)
    return float(v.real * v.real + v.imag * v.imag)


def eval_DN(f: UnimodularCMF, n_max: int, t: float, table: FactorTable) -> complex:
    """D_{f,N}(t), summed in numpy's pairwise order."""
    if n_max < 1:
        raise ValueError("N must be >= 1")
    return complex(_point_value(*_dn_terms(f, n_max, table), t))


def _expi(x: np.ndarray) -> np.ndarray:
    """e^{i*x} from cos and sin: half the work of np.exp(1j * x)."""
    out = np.empty(x.shape, dtype=np.complex128)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


def _step_tables(rows: int, cols: int, h: float, logs: np.ndarray):
    """Inner table e^{i*j*h*log n} (j < rows) and outer table e^{i*rows*m*h*log n} (m < cols).

    Both are views of one table, so a scan of one small block costs one outer product and
    one cos/sin pass for its step tables.
    """
    steps = np.concatenate((np.arange(rows), np.arange(0, rows * cols, rows)))
    tab = _expi(np.outer(steps * h, logs))
    return tab[:rows], tab[rows:]


def _taylor_rank(h: float, max_log: float, n_terms: int) -> tuple[int, int] | None:
    """(r, K) of the factored inner table, or None where the explicit tables cost fewer flops.

    Sub-blocks of r points centred at t_m put |delta * log n| <= x = (r - 1)/2 * h * L <= 1
    (r <= RESYNC_STRIDE), and K is the least degree with x^K / K! <= u/4, so K <= 19.  Per
    sub-block the explicit inner table costs r * S complex products and the factor
    (K + 1) * S + r * K.
    """
    hl = h * max_log
    if not hl > 0.0:
        return None
    r = 1 + int(min(RESYNC_STRIDE - 1, 2.0 / hl))
    x = 0.5 * (r - 1) * hl
    rank, tail = 1, x  # tail = x^rank / rank!
    while tail > _U / 4:
        rank += 1
        tail *= x / rank
    if (rank + 1) * n_terms + r * rank >= r * n_terms:
        return None
    return r, rank


def _taylor_tables(r: int, cols: int, h: float, logs: np.ndarray, rank: int, max_log: float):
    """Outer table e^{i*(m*r + (r - 1)/2)*h*log n} (m < cols), the sub-block centres' steps,
    and the Vandermonde table (log n / L)^k (k < rank), both as complex arrays for matmul."""
    outer = _expi(np.outer((np.arange(cols) * r + 0.5 * (r - 1)) * h, logs))
    vander = np.vander(logs / max_log, rank, increasing=True).astype(np.complex128)
    return outer, vander


def _taylor_steps(r: int, rank: int, h: float, max_log: float) -> np.ndarray:
    """(rank, r) table (i * delta_j * L)^k / k!, delta_j = (j - (r - 1)/2) * h."""
    steps = np.empty((rank, r), dtype=np.complex128)
    steps[0] = 1.0
    y = 1j * (np.arange(r) - 0.5 * (r - 1)) * (h * max_log)
    for k in range(1, rank):
        steps[k] = steps[k - 1] * y / k
    return steps


def _grid_error_bound(l1: float, max_log: float, n_terms: int, t_abs: float, h: float) -> float:
    """rho: a bound on |value - sum_n c_n e^{i*t*log n}| at every point of a _grid_values scan.

    l1 = sum |c_n|, max_log = L, n_terms = S, and t_abs >= |origin| + |k0 + k|*h over the
    scan's points (for origin 0 simply max |t|); the derivation is _grid_values'.
    """
    phase = 3.0 * (t_abs + 2 * RESYNC_STRIDE * h) * max_log
    return l1 * _U * (0.25 + math.e * (n_terms + 40) + phase)


def _grid_values(coeffs, logs, origin, k0: int, count: int, h: float):
    """Yield (start, values): values[k] = sum_n c_n e^{i*t*log n}, t = origin + (k0 + start + k)*h.

    `origin` is a float, or a 1-d array of origins scanned together on the same grid offsets;
    values then has one row per origin, and row i is bit for bit the scan of origin[i] alone.

    A block of size <= RESYNC_STRIDE points starts at the anchor t0 = origin + (k0 + start)*h,
    whose row c_n e^{i*t0*log n} is the one direct exponential of the block.  Its points come
    from step tables that depend on neither t0 nor the origin, built once per scan for each
    block shape (the full blocks, and a shorter last block) and term slice of RESYNC_STRIDE
    terms; each block adds its slices' products in slice order.  The step tables take one of
    two forms, whichever costs fewer flops (_taylor_rank, from h, L = max log n and S alone):

    * Explicit: with rows = ceil(sqrt(size)), point j + rows*m is the inner table
      e^{i*j*h*log n} times the anchor row times the outer table e^{i*rows*m*h*log n}, summed
      over n: one (rows, slice) @ (slice, cols) product per block and slice.  The slices run
      in the outer loop over a group of consecutive blocks, so with several slices only one
      slice's tables are held.  A group of a scan of n origins has floor(201 / n) blocks (at
      least one), so its held block sums stay within the tables' bound of 201 * RESYNC_STRIDE
      entries.  The quadrature moments (h*L >= 0.3, a dozen terms) take this form.
    * Taylor-factored: the block splits into sub-blocks of r points centred at
      t_m = t0 + (m*r + (r - 1)/2)*h, with x = (r - 1)/2 * h * L <= 1, and
      e^{i*(t_m + delta_j)*log n} = e^{i*t_m*log n} * sum_{k<K} (i*delta_j*L)^k/k! * (log n/L)^k
      up to x^K/K! <= u/4.  Per block and slice: the outer table (sub-block centres) times the
      anchor row, then one (cols, slice) @ (slice, K) product with the Vandermonde table of
      log n / L; per block one (cols, K) @ (K, r) product with the step powers.  Held sums
      are (cols, K), so all blocks form one group.  The certified search (h*L = 2e-3:
      r = 1001, K = 19) takes this form.

    A block is yielded as soon as its last slice is added, so a one-slice scan holds no block
    sum but the current one.  Each block does one stacked matmul for all origins, so each
    origin's product is the one a scalar scan computes.  The anchors stay at fixed grid
    indices: at |t| ~ 6e10 each phase t*log n carries ~3e-5 rad of rounding, so moved anchors
    shift grid values by ~1e-5 relative, enough to change which grid point wins a near tie.

    Error.  With u = 2^-52 (a correctly rounded operation is within u/2 relative), every
    value is within rho = sum|c_n| * u * (1/4 + e*(S + 40) + 3*L*t_abs') of the exact sum
    (_grid_error_bound), t_abs' = t_abs + 2*RESYNC_STRIDE*h and t_abs >= |origin| + |k0 + k|*h:

    * truncation (factored form only): |e^{iy} - sum_{k<K} (iy)^k/k!| <= |y|^K/K! <= u/4 per
      term, |y| = |delta_j * log n| <= x;
    * rounding of both forms: each term's factors (table entries within u, products within
      2u, (log n/L)^k and the step powers within (k + 2)u) and the S-term sums (within S*u
      of the summed moduli) give at most e*(S + K + 18)*u*sum|c_n| in the factored form
      (the power sum over k is at most e^x <= e) and (S + 12)*u*sum|c_n| in the explicit one;
      K <= 19 gives e*(S + 40);
    * anchor phase: t0 (two roundings, u*t_abs), log n (one ulp) and their product (half an
      ulp) put each phase t0*log n within 2.5*t_abs*L*u, the step tables' offsets (at most
      2*RESYNC_STRIDE*h) within 2*u*L per unit, and |e^{ia} - e^{ib}| <= |a - b|.
    """
    lead = np.shape(origin)  # () for a scalar origin, (n,) for n origins
    cuts = range(0, max(logs.size, 1), RESYNC_STRIDE)  # no terms: one empty slice, zero blocks
    max_log = float(logs.max(initial=0.0))
    factor = _taylor_rank(h, max_log, logs.size)
    if factor is None:
        # Points per group: 201 held block sums in all, the tables' bound.
        span = max(1, 201 // math.prod(lead)) * RESYNC_STRIDE
    else:
        r, rank = factor
        steps = _taylor_steps(r, rank, h, max_log)
        span = max(1, count)  # held sums are (cols, K) per block: one group
    key = tables = None
    for first in range(0, count, span):
        starts = range(first, min(count, first + span), RESYNC_STRIDE)
        sums = {}
        for s in cuts:
            c, lg = coeffs[s : s + RESYNC_STRIDE], logs[s : s + RESYNC_STRIDE]
            for start in starts:
                size = min(RESYNC_STRIDE, count - start)
                rows = math.isqrt(size - 1) + 1 if factor is None else r
                cols = -(-size // rows)
                if key != (s, rows, cols):
                    tables = None  # free the old tables before building the new ones
                    key = (s, rows, cols)
                    if factor is None:
                        tables = _step_tables(rows, cols, h, lg)
                    else:
                        tables = _taylor_tables(rows, cols, h, lg, rank, max_log)
                anchor = c * _expi(np.multiply.outer(origin + (k0 + start) * h, lg))
                if factor is None:
                    inner, outer = tables
                    prod = inner @ (outer * anchor[..., None, :]).swapaxes(-1, -2)
                else:
                    outer, vander = tables
                    prod = (outer * anchor[..., None, :]) @ vander
                if s == 0:
                    sums[start] = prod
                else:
                    sums[start] += prod
                if s == cuts[-1]:
                    acc = sums.pop(start)
                    block = acc.swapaxes(-1, -2) if factor is None else acc @ steps
                    yield start, block.reshape(*lead, rows * cols)[..., :size]


def _search_args(n_max: int, t_bound: float, eps, window, eval_budget: int, eps_scale: float):
    """Checked (eps, lo, hi) of a search; by default eps = eps_scale * sqrt(N), window [-T, T]."""
    if n_max < 1:
        raise ValueError("N must be >= 1")
    if not t_bound > 0.0:
        raise ValueError(f"T must be positive, got {t_bound}")
    if eps is None:
        eps = eps_scale * math.sqrt(n_max)
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if eval_budget < 1:
        raise ValueError(f"eval budget must be >= 1, got {eval_budget}")
    lo, hi = window if window is not None else (-t_bound, t_bound)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ValueError(f"window [{lo}, {hi}] must be finite and non-empty")
    return eps, lo, hi


def _support_coeff_logs(
    f: UnimodularCMF, support: list[SupportElement]
) -> tuple[np.ndarray, np.ndarray]:
    """f(a) * r(a) and log(a) per support element (f via prime tuples).

    The coefficients carry the same f-phases as the target polynomial, so
    the products in the weighted second moment cancel f on the m*a = n*b
    terms instead of doubling it.
    """
    coeffs = np.empty(len(support), dtype=np.complex128)
    logs = np.empty(len(support), dtype=np.float64)
    for i, e in enumerate(support):
        fa = 1.0 + 0.0j
        for p in e.primes:
            fa *= f.prime_value(p)
        coeffs[i] = fa * e.r
        logs[i] = math.log(e.n)
    return coeffs, logs


def eval_R(f: UnimodularCMF, t: float, support: list[SupportElement]) -> complex:
    """Resonator polynomial R(t) = sum over support of f(a) r(a) a^{it}."""
    return complex(_point_value(*_support_coeff_logs(f, support), t))


def _refine_peak(terms, t_c: float, step: float, lo: float, hi: float) -> tuple[float, float, int]:
    """Golden-section maximization of |P|^2 on [t_c - step, t_c + step] within [lo, hi],
    P the polynomial of the (coeffs, logs) pair `terms`."""
    a, b = max(lo, t_c - step), min(hi, t_c + step)
    tol_width = REFINE_REL_WIDTH * max(1.0, abs(t_c))
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = _abs2(terms, c), _abs2(terms, d)
    iters = 0
    while (b - a) > tol_width and iters < 200:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = _abs2(terms, c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = _abs2(terms, d)
        iters += 1
    return (c, fc, iters) if fc >= fd else (d, fd, iters)


def grid_sup(
    f: UnimodularCMF,
    n_max: int,
    t_bound: float,
    eps: float | None,
    table: FactorTable,
    *,
    window: tuple[float, float] | None = None,
    eval_budget: int = DEFAULT_EVAL_BUDGET,
    trace_path: str | None = None,
    trace_stride: int = 0,
) -> SearchResult:
    """Grid search for sup |D_{f,N}| over `window` (default [-T, T]).

    The step is 2*eps / (sqrt(N)*log N) so the certified slack

        certified_slack = grid_step * sqrt(N) * log(N) / 2 <= eps

    bounds how far the true supremum over the window can sit above the
    refined grid maximum.  Ties prefer smaller |t|, then smaller t.

    Raises:
        ValueError: eps <= rho, the grid kernel's float error bound
            (_grid_error_bound) at max(|lo|, |hi|): the slack would be
            below the rounding of the grid values.
        ResourceLimitError: the grid would exceed eval_budget points
            (use a larger eps or a narrower window).
    """
    eps, lo, hi = _search_args(n_max, t_bound, eps, window, eval_budget, 1e-3)

    deriv = derivative_bound(n_max)
    if deriv == 0.0:
        # N = 1: |D| = 1 everywhere; pick the tie-break point directly.
        t_star = 0.0 if lo <= 0.0 <= hi else (lo if abs(lo) <= abs(hi) else hi)
        return SearchResult(t_star, 1.0, 0.0, 0, 0.0, (lo, hi))

    step = 2.0 * eps / deriv
    # sum |c_n| = sqrt(N): the coefficients f(n) / sqrt(N) are unimodular over sqrt(N).
    rho = _grid_error_bound(
        math.sqrt(n_max), math.log(n_max), n_max, max(abs(lo), abs(hi)), step
    )
    if eps <= rho:
        raise ValueError(
            f"eps = {eps:.3e} is not above the grid values' float error bound "
            f"{rho:.3e} at |t| = {max(abs(lo), abs(hi)):.3e}; increase eps"
        )
    # The grid lives on integer multiples of the step so that t = 0 is a
    # grid point whenever the window straddles it; the window endpoints are
    # evaluated separately, keeping every window point within step/2 of an
    # evaluated one.
    k_lo = math.ceil(lo / step)
    k_hi = math.floor(hi / step)
    while k_lo * step < lo:
        k_lo += 1
    while k_hi * step > hi:
        k_hi -= 1
    n_interior = max(0, k_hi - k_lo + 1)
    n_points = n_interior + 2
    if n_points > eval_budget:
        raise ResourceLimitError(
            f"grid of {n_points} points exceeds budget {eval_budget}; "
            f"increase eps (>= {((hi - lo) * deriv / (2 * eval_budget)):.3e}) "
            "or narrow the window",
            needed=n_points,
            budget=eval_budget,
        )

    terms = _dn_terms(f, n_max, table)

    best_mag2 = -1.0
    best_t = lo

    def consider(t_k: float, mag2: float) -> None:
        nonlocal best_mag2, best_t
        if mag2 > best_mag2 + 1e-18 or (
            abs(mag2 - best_mag2) <= 1e-18
            and (abs(t_k) < abs(best_t) or (abs(t_k) == abs(best_t) and t_k < best_t))
        ):
            best_mag2 = mag2
            best_t = t_k

    consider(lo, _abs2(terms, lo))
    consider(hi, _abs2(terms, hi))
    tracing = bool(trace_path) and trace_stride > 0
    with open(trace_path, "w") if tracing else contextlib.nullcontext() as trace_file:
        if tracing:
            trace_file.write("t,abs_dn\n")
        for start, vals in _grid_values(*terms, 0.0, k_lo, n_interior, step):
            mag2 = vals.real * vals.real + vals.imag * vals.imag
            # Only points within the tie tolerance of the block maximum can
            # win; they reach consider() in grid order.
            for k in np.flatnonzero(mag2 >= mag2.max() - 1e-18):
                consider((k_lo + start + int(k)) * step, float(mag2[k]))
            if tracing:
                for k in range(-start % trace_stride, vals.size, trace_stride):
                    t_k = (k_lo + start + k) * step
                    trace_file.write(f"{t_k:.17g},{math.sqrt(mag2[k]):.17g}\n")

    t_star, mag2_star, iters = _refine_peak(terms, best_t, step, lo, hi)
    # Keep the grid point unless refinement wins by more than float noise
    # (sub-ulp "gains" near a flat peak would displace an exact t=0).
    if mag2_star - best_mag2 <= 1e-12 * max(1.0, best_mag2):
        t_star, mag2_star = best_t, best_mag2
    value = math.sqrt(_abs2(terms, t_star))
    slack = step * deriv / 2.0
    return SearchResult(t_star, value, step, iters, slack, (lo, hi))


def _guided_candidates(blocks, max_log: float, lo: float, step: float, top_k: int) -> np.ndarray:
    """Grid indices of the top-k local maxima of |R| over the kernel's blocks of R values.

    The maxima are found block by block: the last two |R| values of a block carry over to
    the next, so every interior point is compared with both neighbours once.  With no
    interior maximum the first argmax stands in.
    """
    peaks, heights = [], []
    tail = np.empty(0)
    top_idx, top = 0, -math.inf
    for start, vals in blocks:
        mag = np.abs(vals)
        k = int(np.argmax(mag))
        if mag[k] > top:
            top_idx, top = start + k, mag[k]
        ext = np.concatenate((tail, mag))
        idx = 1 + np.flatnonzero((ext[1:-1] >= ext[:-2]) & (ext[1:-1] >= ext[2:]))
        peaks.append(start - tail.size + idx)
        heights.append(ext[idx])
        tail = ext[-2:]
    peak_idx, heights = np.concatenate(peaks), np.concatenate(heights)
    if peak_idx.size == 0:
        peak_idx, heights = np.array([top_idx]), np.array([top])
    h_top = float(heights.max())
    # Grid offset shifts a sampled peak height by O((omega*step)^2), so
    # peaks within that band are indistinguishable at this resolution
    # (e.g. every peak of a single-prime |R|, which is periodic).  Scan
    # the band smallest |t| first, matching the grid-search tie-break.
    blur = h_top * (max_log * step) ** 2
    in_band = heights >= h_top - blur
    band = peak_idx[in_band]
    band = band[np.argsort(np.abs(lo + step * band), kind="stable")]
    rest = peak_idx[~in_band]
    rest = rest[np.argsort(heights[~in_band], kind="stable")[::-1]]
    return np.concatenate([band, rest])[:top_k]


def resonance_guided_search(
    res: Resonator,
    f: UnimodularCMF,
    n_max: int,
    t_bound: float,
    coarse_eps: float | None,
    table: FactorTable,
    *,
    window: tuple[float, float] | None = None,
    eval_budget: int = DEFAULT_EVAL_BUDGET,
) -> SearchResult:
    """Search |D_N| near the GUIDED_TOP_K highest peaks of |R| on a coarse grid.

    A heuristic accelerator: no slack certificate is attached
    (certified_slack is None).  With an empty resonator support this
    degenerates to a plain coarse grid_sup on D_N.
    """
    coarse_eps, lo, hi = _search_args(n_max, t_bound, coarse_eps, window, eval_budget, 1e-2)
    support = support_elements(res, res.x)
    if len(support) <= 1:
        return grid_sup(
            f, n_max, t_bound, coarse_eps, table, window=window, eval_budget=eval_budget
        )
    deriv = derivative_bound(n_max)
    step = 2.0 * coarse_eps / deriv if deriv > 0 else (hi - lo) or 1.0
    n_points = int(math.floor((hi - lo) / step)) + 1 if hi > lo else 1
    if n_points > eval_budget:
        raise ResourceLimitError(
            f"coarse grid of {n_points} points exceeds budget {eval_budget}",
            needed=n_points,
            budget=eval_budget,
        )
    if n_points > 1:
        step = (hi - lo) / (n_points - 1)

    r_coeffs, r_logs = _support_coeff_logs(f, support)
    blocks = _grid_values(r_coeffs, r_logs, lo, 0, n_points, step)
    candidates = _guided_candidates(
        blocks, float(r_logs.max(initial=0.0)), lo, step, GUIDED_TOP_K
    )

    terms = _dn_terms(f, n_max, table)
    # The first of the highest refined peaks wins.
    t_star, mag2, iters = max(
        (_refine_peak(terms, lo + step * int(idx), step, lo, hi) for idx in candidates),
        key=lambda peak: peak[1],
        default=(lo, _abs2(terms, lo), 0),
    )
    return SearchResult(t_star, math.sqrt(mag2), step, iters, None, (lo, hi))
