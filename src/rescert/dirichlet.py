"""Dirichlet polynomial evaluation and certified grid search.

D_{f,N}(t) = N^{-1/2} * sum_{n<=N} f(n) * n^{it}.  The derivative bound
|D'| <= sqrt(N) * log N turns a uniform grid of step h into a certificate:
the true supremum over the scanned window exceeds the best grid value by
at most h * sqrt(N) * log(N) / 2.  One kernel, _grid_blocks, scans D_N and
the resonator polynomial R in anchor blocks of RESYNC_STRIDE points.  Each
block computes one direct exponential row at its anchor t0 and multiplies
it into step tables that do not depend on t0, which a scan builds once per
block shape and term slice.  Consecutive blocks of one shape are computed
in batches whose largest array holds at most 2^16 entries (6 blocks of the
guided search or of the N = 500 search, one of the N = 5000 search): one
_expi, one multiply and one stacked product per batch, the product the same
BLAS call per block as a block alone, so no value moves a bit and the
per-block overhead of numpy calls is paid once per batch.  The inner step
table takes one of two forms, whichever costs fewer flops given h,
L = max log n and the number of terms (_taylor_rank): the explicit table
e^{i*j*h*log n}, or a rank-K Taylor
factor over sub-blocks of r points with x = (r - 1)/2 * h * L <= 1 and
x^K / K! <= u/4, so the search's step (h*L = 2e-3) costs K = 19 products per
term and sub-block of 1001 points instead of 1001.  The factor's two tables
of powers are real, so its two products run as real matmuls on the float64
view of the complex operand, half the multiplies of complex ones.  In both
forms the sum over terms goes in chunks that OpenBLAS runs on one thread, so
that no thread count moves a bit (_sum_matmul).  The factor i^k goes in exactly, as
signs of the step powers and a swap of the held sums' odd rows.  The
quadrature moments (at most 64 terms, h*L of 0.08 to pi at T >= 50) keep the
explicit tables.
The anchors stay at fixed grid indices: at |t| ~ 6e10 each phase t*log n
carries ~3e-5 rad of rounding, so moved anchors shift grid values by ~1e-5
relative, enough to change which grid point wins a near tie.
_expi reduces anchor phases with 2^27 <= |t*log n| < 2^37 * C1 (|t| ~ 1e10)
modulo 2*pi by Cody-Waite's five-piece split of 2*pi before cos and sin,
which would otherwise take libm's slow argument reduction; smaller and
larger phases keep their bits.
Every value is within rho = sum|c_n| * u * (1/4 + e*(S + 40) + 4 + 3*L*|t|)
(plus a block margin) of the exact sum, S terms, u = 2^-52, where the 4 is
the reduction's (_grid_error_bound); grid_sup refuses an eps <= rho, where
the certified slack would be below rounding.

The kernel hands each block over in its native layout, a (cols, rows) array
in grid order that is a transposed view of either form's product, without
copying it; the explicit form hands a batch over as one block, its products
side by side.  It has one reader, _grid_abs2, which squares each block in
place on the product's float64 view and copies |P|^2 once, in grid order,
into a reused buffer; grid_sup, the guided search's peak finder
(_guided_candidates, on |R|^2) and the quadrature moments
(moments._window_integral) all read |P|^2 from it.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ResourceLimitError
from .multfn import UnimodularCMF, values_up_to
from .resonator import Resonator, SupportElement, support_elements

RESYNC_STRIDE = 10_000
DEFAULT_EVAL_BUDGET = 20_000_000
REFINE_REL_WIDTH = 1e-10
# |R| peaks whose neighbourhoods the guided search refines.
GUIDED_TOP_K = 5
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Machine epsilon: a correctly rounded float64 operation is within _U / 2 relative.
_U = float(np.finfo(np.float64).eps)
# 2*pi = _C1 + _C2 + _C3 + _C4 + _C5: the leading 16 bits of each remainder, then a float
# tail; _expi reduces phases with _REDUCE_LO <= |x| < _REDUCE_HI by them.
_TWO_PI = 2.0 * math.pi
_C1 = 6.2830810546875  # 0x1.921ep+2
_C2 = 1.0425224900245667e-4  # 0x1.b544p-14
_C3 = 2.430837753308879e-10  # 0x1.0b46p-32
_C4 = 2.449280470280535e-16  # 0x1.1a62p-52
_C5 = 1.3128014171494002e-21  # 0x1.8cc51701b839ap-70
_REDUCE_LO = 2.0**27
_REDUCE_HI = 2.0**37 * _C1
# OpenBLAS runs a product of at most 65536 * 4 multiply-adds (its default
# GEMM_MULTITHREAD_THRESHOLD) on one thread.  A larger product with a long sum, real or
# complex, can split that sum by thread: (19, 5000) @ (5000, 20) gives other bits under 2
# threads.
_ONE_THREAD_MADDS = 2**18
# Entries of a grid-kernel batch's largest array (_blocks_per_batch).
_BATCH_ENTRIES = 2**16


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


def _dn_terms(f: UnimodularCMF, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients f(n) / sqrt(N) and log n of D_{f,N}."""
    coeffs = values_up_to(f, n_max) / math.sqrt(n_max)
    logs = np.log(np.arange(1, n_max + 1, dtype=np.float64))
    return coeffs, logs


def _point_value(coeffs: np.ndarray, logs: np.ndarray, t: float) -> np.complex128:
    """sum_n c_n e^{i*t*log n} by direct exponentials, summed in numpy's pairwise order."""
    return np.sum(coeffs * np.exp(1j * t * logs))


def _abs2(terms: tuple[np.ndarray, np.ndarray], t: float) -> float:
    """|sum_n c_n e^{i*t*log n}|^2 of the (coeffs, logs) pair `terms`."""
    v = _point_value(*terms, t)
    return float(v.real * v.real + v.imag * v.imag)


def eval_DN(f: UnimodularCMF, n_max: int, t: float) -> complex:
    """D_{f,N}(t), summed in numpy's pairwise order."""
    if n_max < 1:
        raise ValueError("N must be >= 1")
    return complex(_point_value(*_dn_terms(f, n_max), t))


def _expi(x: np.ndarray, x_bound: float = math.inf) -> np.ndarray:
    """e^{i*x} from cos and sin: half the work of np.exp(1j * x).  A caller that knows an
    upper bound x_bound < 2^27 on |x| saves the range test below.

    Phases with 2^27 <= |x| < 2^37 * C1 (a scan's anchor rows at |t| ~ 1e10) are reduced
    modulo 2*pi first, where cos and sin would otherwise take libm's slow argument reduction;
    all other phases go to cos and sin as they are, so their values keep every bit.  The
    reduction is Cody-Waite's: 2*pi = C1 + C2 + C3 + C4 + C5, where C1..C4 are the leading 16
    bits of what is left of 2*pi (C1 = 0x1.921ep+2, C2 ~ 2^-14, C3 ~ 2^-32, C4 ~ 2^-52,
    each truncated, so each is positive) and C5 is the float nearest the tail (~ 2^-70).
    With q = rint(x / 2*pi) and r = ((((x - q*C1) - q*C2) - q*C3) - q*C4) - q*C5:

    * |x| < 2^37 * C1 < 2^37 * 2*pi puts |q| < 2^37, so q*C1 .. q*C4 (at most 37 + 16
      significant bits) are exact, and |x - 2*pi*q| <= pi + 2^-12;
    * x - q*C1 is exact by Sterbenz: |x - q*C1| <= pi + 2^-12 + |q|*(2*pi - C1) < 2^25,
      at most half of |x| >= 2^27;
    * subtracting q*C2 and q*C3 is exact by bit span: x is a multiple of ulp(x) >= 2^-25 and
      q*Ci of ulp(Ci), so the exact differences are multiples of 2^-29 and 2^-47, of
      magnitude below pi + 2^-11 + |q| * (2*pi - C1 - ... - Ci) < 2^9 and < 4, within the
      2^53 multiples a float holds (2^24 and 2^6);
    * the last two subtractions round, each by at most u/2 * (pi + 2^-11), and q*C5 and
      C5 itself are off by less than 2^-80.

    So r is within u * (pi + 2^-10) < 4u of x - 2*pi*q (u = 2^-52), and e^{i*r} within 4u of
    e^{i*x} before cos and sin round: at most 4u per anchor entry (_grid_error_bound).
    """
    out = np.empty(x.shape, dtype=np.complex128)
    if x_bound >= _REDUCE_LO:
        ax = np.abs(x)
        big = (ax >= _REDUCE_LO) & (ax < _REDUCE_HI)
        if big.any():
            q = np.rint(x / _TWO_PI)
            r = x - q * _C1
            for c in (_C2, _C3, _C4, _C5):
                r -= q * c
            x = np.where(big, r, x)
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
    """The (slice, cols) outer table e^{i*(m*r + (r - 1)/2)*h*log n} (m < cols), the sub-block
    centres' steps, and the real (rank, slice) Vandermonde table (log n / L)^k (k < rank)."""
    outer = _expi(np.outer(logs, (np.arange(cols) * r + 0.5 * (r - 1)) * h))
    vander = np.ascontiguousarray(np.vander(logs / max_log, rank, increasing=True).T)
    return outer, vander


def _taylor_steps(r: int, rank: int, h: float, max_log: float) -> np.ndarray:
    """Real (r, rank) table (-1)^floor(k/2) * (delta_j * L)^k / k!, delta_j = (j - (r - 1)/2) * h:
    the step powers times the sign of i^k = (-1)^floor(k/2) * i^(k mod 2)."""
    steps = np.empty((rank, r))
    steps[0] = 1.0
    y = (np.arange(r) - 0.5 * (r - 1)) * (h * max_log)
    for k in range(1, rank):
        steps[k] = steps[k - 1] * y / k
    steps[2::4] *= -1.0
    steps[3::4] *= -1.0
    return np.ascontiguousarray(steps.T)


def _sum_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b for an (m, k) a and an (..., k, n) b, both real or both complex, the k-sum in
    chunks small enough for one BLAS thread, added in order: no BLAS thread count moves a
    bit of it.  The product goes into `out` where one is given."""
    step = max(1, _ONE_THREAD_MADDS // (a.shape[0] * b.shape[-1]))
    out = np.matmul(a[:, :step], b[..., :step, :], out=out)
    for i in range(step, a.shape[1], step):
        out += a[:, i : i + step] @ b[..., i : i + step, :]
    return out


def _grid_error_bound(l1: float, max_log: float, n_terms: int, t_abs: float, h: float) -> float:
    """rho: a bound on |value - sum_n c_n e^{i*t*log n}| at every point of a _grid_blocks scan.

    l1 = sum |c_n|, max_log = L, n_terms = S, and t_abs >= |origin| + |k0 + k|*h over the
    scan's points (for origin 0 simply max |t|); the derivation is _grid_blocks'.
    """
    phase = 3.0 * (t_abs + 2 * RESYNC_STRIDE * h) * max_log
    return l1 * _U * (0.25 + math.e * (n_terms + 40) + 4.0 + phase)


def _block_shape(size: int, r: int | None) -> tuple[int, int]:
    """(rows, cols) of an anchor block of `size` points: r rows (the Taylor factor's
    sub-blocks), or ceil(sqrt(size)) where r is None."""
    rows = math.isqrt(size - 1) + 1 if r is None else r
    return rows, -(-size // rows)


def _blocks_per_batch(rows: int, cols: int, n_terms: int) -> int:
    """Anchor blocks of one (rows, cols) shape that _grid_blocks computes together: as many as
    keep the batch's largest array within _BATCH_ENTRIES entries, and at least one.  Per block
    that array is the (rows, cols) product or the (n_terms, cols) operand, n_terms the terms
    of the scan's first (largest) slice."""
    return max(1, _BATCH_ENTRIES // (cols * max(rows, n_terms)))


def _anchor_batches(first: int, end: int, count: int, r: int | None, n_terms: int):
    """Batches (start, nb, rows, cols) of the anchor blocks first, first + RESYNC_STRIDE, ...
    < end of a count-point scan: nb consecutive blocks of one shape from `start`.  Only the
    scan's last block can be short; it joins the full blocks' run where its shape is theirs.
    Each run is cut into batches of _blocks_per_batch blocks."""
    n = -(-(end - first) // RESYNC_STRIDE)
    last = first + (n - 1) * RESYNC_STRIDE
    tail = _block_shape(min(RESYNC_STRIDE, count - last), r)
    runs = [(first, n - 1, _block_shape(RESYNC_STRIDE, r)), (last, 1, tail)]
    if n > 1 and runs[0][2] == tail:
        runs = [(first, n, tail)]
    batches = []
    for start, n_run, (rows, cols) in runs:
        # The explicit form yields a batch as one block, so its blocks must be unpadded.
        if r is None and rows * cols != RESYNC_STRIDE:
            per = 1
        else:
            per = _blocks_per_batch(rows, cols, n_terms)
        for i in range(0, n_run, per):
            batches.append((start + i * RESYNC_STRIDE, min(per, n_run - i), rows, cols))
    return batches


def _grid_blocks(coeffs, logs, origin, k0: int, count: int, h: float):
    """Yield (start, size, block): block[m, j] = sum_n c_n e^{i*t*log n} at point
    k = j + rows*m of the block, t = origin + (k0 + start + k)*h, for its first `size` points.

    The block is the kernel's product in its native layout, handed over without a copy: a
    (cols, rows) array in grid order, which is a transposed view of the (rows, cols) product
    for the explicit tables and of the (r, cols) product for the Taylor factor.  Its
    points past `size` (the short last block's padding, up to rows - 1 of them) lie outside
    the scan.

    An anchor block of size <= RESYNC_STRIDE points starts at the anchor
    t0 = origin + (k0 + start)*h, whose row c_n e^{i*t0*log n} is the one direct exponential
    of the block.  Its points come from step tables that do not depend on t0, built once per
    scan for each block shape (the full blocks, and a shorter last block) and term slice of
    RESYNC_STRIDE terms; each block adds its slices' products in slice order.
    The step tables take one of two forms, whichever costs fewer flops (_taylor_rank, from h,
    L = max log n and S alone):

    * Explicit: with rows = ceil(sqrt(size)), point j + rows*m is the inner table
      e^{i*j*h*log n} times the anchor row times the outer table e^{i*rows*m*h*log n}, summed
      over n: one (rows, slice) @ (slice, cols) product per block and slice, summed over the
      slice's terms in one-thread chunks (_sum_matmul).  The slices run in the outer loop
      over a group of consecutive blocks, so with several slices only one slice's tables are
      held.  A group of a multi-slice scan has 201 blocks, so its held block sums stay
      within the tables' bound of 201 * RESYNC_STRIDE entries; a one-slice scan holds no
      block sum (below) and forms one group.  The quadrature moments (at most 64 terms,
      h*L of 0.08 to pi at T >= 50) and the guided search (R has a few terms) take this
      form.
    * Taylor-factored: the block splits into sub-blocks of r points centred at
      t_m = t0 + (m*r + (r - 1)/2)*h, with x = (r - 1)/2 * h * L <= 1, and
      e^{i*(t_m + delta_j)*log n} = e^{i*t_m*log n} * sum_{k<K} i^k*(delta_j*L)^k/k! * (log n/L)^k
      up to x^K/K! <= u/4.  Both tables of powers are real, and the products run in real
      arithmetic: the complex operand sits on the right, C-contiguous, so each product is a
      real matmul on its float64 view.  Per block and slice: the anchor row times the
      (slice, cols) outer table (sub-block centres), then the real (K, slice) Vandermonde
      table of log n / L times its (slice, 2*cols) view, summed over the slice's terms in
      one-thread chunks (_sum_matmul).  Per block, the (K, cols) held sums take the factor
      i^k exactly (its sign is in the step powers, and the odd rows are multiplied by i),
      then the real (r, K) step powers times their (K, 2*cols) view give the (r, cols)
      product.  Held sums are (K, cols), so all blocks form one group.  The certified search
      (h*L = 2e-3: r = 1001, K = 19) takes this form.

    Batches.  Within a group and slice, each run of consecutive blocks of one shape is
    computed in batches of nb blocks (_anchor_batches), stacked on a leading axis: one _expi
    over the (nb, slice) anchor phases, one multiply into the operands and one stacked
    _sum_matmul.  A batch's largest array, per block the (rows, cols) product or the
    (slice, cols) operand, holds at most _BATCH_ENTRIES = 2^16 entries (_blocks_per_batch, at
    least one block): the guided search, the N = 500 certified search and the quadrature
    moments compute 6 blocks a batch, while the N = 5000 search keeps one.  Numpy runs a
    stacked matmul as the same BLAS call per block as a block alone, on the same operands,
    and every other step is elementwise, so every value keeps its bits whatever the batch;
    the anchors stay at their grid indices.  The explicit form writes its products through
    `out=` side by side into one (rows, nb*cols) buffer, and yields the batch as one
    (nb*cols, rows) block in grid order: rows*cols = RESYNC_STRIDE (10^4 is a square), so
    only the scan's last block has padding (a stride that is not a square batches no
    explicit blocks).  The Taylor form, whose blocks carry padding (1001*10 > 10^4 points),
    yields block by block, and takes the (r, K) product of each block as it yields it.

    A batch is yielded as soon as its last slice is added, so a one-slice scan holds no block
    sum but the current batch's, at most _BATCH_ENTRIES entries per array.  The anchors stay
    at fixed grid indices (module docstring).

    Error.  With u = 2^-52 (a correctly rounded operation is within u/2 relative), every
    value is within rho of the exact sum (_grid_error_bound), with t_abs' = t_abs +
    2*RESYNC_STRIDE*h and t_abs >= |origin| + |k0 + k|*h:

    * truncation (factored form only): |e^{iy} - sum_{k<K} (iy)^k/k!| <= |y|^K/K! <= u/4 per
      term, |y| = |delta_j * log n| <= x;
    * rounding of both forms: each term's factors (table entries within u, products within
      2u, (log n/L)^k and the step powers within (k + 2)u; the factor i^k and its signs are
      exact) and the S-term sums (within S*u of the summed moduli) give at most
      e*(S + K + 18)*u*sum|c_n| in the factored form (the power sum over k is at most
      e^x <= e) and (S + 12)*u*sum|c_n| in the explicit one; K <= 19 gives e*(S + 40);
    * anchor phase: t0 (two roundings, u*t_abs), log n (one ulp) and their product (half an
      ulp) put each phase t0*log n within 2.5*t_abs*L*u, the step tables' offsets (at most
      2*RESYNC_STRIDE*h) within 2*u*L per unit, and |e^{ia} - e^{ib}| <= |a - b|;
    * reduction: _expi reduces the anchor phases with 2^27 <= |t0*log n| < 2^37 * C1 modulo
      2*pi before cos and sin, within 4u each (its docstring), which adds 4*u*sum|c_n|.
    So rho = sum|c_n| * u * (1/4 + e*(S + 40) + 4 + 3*L*t_abs').
    """
    cuts = range(0, max(logs.size, 1), RESYNC_STRIDE)  # no terms: one empty slice, zero blocks
    max_log = float(logs.max(initial=0.0))
    factor = _taylor_rank(h, max_log, logs.size)
    if factor is None:
        r = None
    else:
        r, rank = factor
        steps = _taylor_steps(r, rank, h, max_log)
    if factor is None and len(cuts) > 1:
        # Points per group: 201 held block sums in all, the tables' bound.
        span = 201 * RESYNC_STRIDE
    else:
        # One slice holds no block sum, the Taylor factor (K, cols) per block: one group.
        span = max(1, count)
    # Every anchor phase |t0 * log n| is below this, with a margin for the roundings of t0
    # and of the product; most scans stay below 2^27, and _expi then skips its range test.
    t_max = abs(origin) + max(abs(k0), abs(k0 + count)) * h
    anchor_bound = t_max * max_log * (1.0 + 1e-12)
    n_terms = min(logs.size, RESYNC_STRIDE)
    key = tables = None
    for first in range(0, count, span):
        batches = _anchor_batches(first, min(count, first + span), count, r, n_terms)
        sums = {}
        for s in cuts:
            c, lg = coeffs[s : s + RESYNC_STRIDE], logs[s : s + RESYNC_STRIDE]
            for b, (start, nb, rows, cols) in enumerate(batches):
                if key != (s, rows, cols):
                    tables = None  # free the old tables before building the new ones
                    key = (s, rows, cols)
                    if factor is None:
                        tables = _step_tables(rows, cols, h, lg)
                    else:
                        tables = _taylor_tables(rows, cols, h, lg, rank, max_log)
                # The batch's blocks stack on a leading axis: (nb, ...).
                k = np.arange(k0 + start, k0 + start + nb * RESYNC_STRIDE, RESYNC_STRIDE)
                t0 = origin + k * h
                anchor = c * _expi(np.multiply.outer(t0, lg), anchor_bound)
                if factor is None:
                    inner, outer = tables
                    operand = (outer * anchor[:, None, :]).swapaxes(-1, -2)
                    if s == 0:
                        buf = np.empty((rows, nb, cols), dtype=np.complex128)
                        prod = _sum_matmul(inner, operand, buf.swapaxes(0, 1))
                    else:
                        prod = _sum_matmul(inner, operand)
                else:
                    # The complex operand on the right and C-contiguous: a real product
                    # on its float64 view, (K, slice) @ (slice, 2*cols).
                    outer, vander = tables
                    prod = _sum_matmul(vander, (anchor[:, :, None] * outer).view(np.float64))
                if s == 0:
                    sums[b] = prod
                else:
                    sums[b] += prod
                if s != cuts[-1]:
                    continue
                acc = sums.pop(b)
                if factor is None:
                    # The products side by side, (rows, nb*cols): one block in grid order,
                    # padded only at the scan's end.
                    merged = acc.swapaxes(0, 1).reshape(rows, nb * cols)
                    yield start, min(nb * RESYNC_STRIDE, count - start), merged.T
                    continue
                # The rest of i^k: the odd rows of the held sums times i, a swap and a sign;
                # then (r, K) @ (K, 2*cols) on their float64 view, a block at a time, so the
                # (r, cols) product is still in cache when the caller reads it.
                acc.view(np.complex128)[:, 1::2, :] *= 1j
                for i in range(nb):
                    at = start + i * RESYNC_STRIDE
                    block = (steps @ acc[i]).view(np.complex128).T
                    yield at, min(RESYNC_STRIDE, count - at), block


def _grid_abs2(coeffs, logs, origin, k0: int, count: int, h: float):
    """Yield (start, mag2): mag2[k] = |sum_n c_n e^{i*t*log n}|^2, t = origin + (k0 + start + k)*h,
    over the points of one _grid_blocks block, in grid order.

    The one reader of _grid_blocks.  Each block is squared in place on the float64 view of
    the kernel's C-contiguous product, re*re + im*im in memory order, and copied once, in
    grid order, into one float buffer reused by every block (sized by the largest), so mag2
    is valid until the next block is drawn.
    """
    buf = np.empty(0)
    for start, size, block in _grid_blocks(coeffs, logs, origin, k0, count, h):
        parts = block.T.view(np.float64)  # re, im interleaved along the last axis
        np.multiply(parts, parts, out=parts)
        abs2 = parts[:, ::2]
        abs2 += parts[:, 1::2]
        if buf.size < block.size:
            buf = np.empty(block.size)
        buf[: block.size].reshape(block.shape)[...] = abs2.T
        yield start, buf[:size]


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
    *,
    window: tuple[float, float] | None = None,
    eval_budget: int = DEFAULT_EVAL_BUDGET,
    trace_path: str | None = None,
    trace_stride: int = 0,
) -> SearchResult:
    """Grid search for sup |D_{f,N}| over `window` (default [-T, T]).

    The step is 2*eps / (sqrt(N)*log N), so the certified slack

        certified_slack = grid_step * sqrt(N) * log(N) / 2

    is eps up to one rounding (it can land an ulp above eps) and bounds how
    far the true supremum over the window can sit above the refined grid
    maximum.  Ties prefer smaller |t|, then smaller t.

    Raises:
        ValueError: eps <= rho, the grid kernel's float error bound
            (_grid_error_bound) at max(|lo|, |hi|): the slack would be
            below the rounding of the grid values.
        ResourceLimitError: the grid would exceed eval_budget points
            (use a larger eps or a narrower window).
    """
    eps, lo, hi = _search_args(n_max, t_bound, eps, window, eval_budget, 1e-3)

    tracing = bool(trace_path) and trace_stride > 0
    deriv = derivative_bound(n_max)
    if deriv == 0.0:
        # N = 1: |D| = 1 everywhere; pick the tie-break point directly.  There is no
        # grid, so a trace is its header alone, as for an empty grid.
        if tracing:
            with open(trace_path, "w") as trace_file:
                trace_file.write("t,abs_dn\n")
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

    terms = _dn_terms(f, n_max)

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
    with open(trace_path, "w") if tracing else contextlib.nullcontext() as trace_file:
        if tracing:
            trace_file.write("t,abs_dn\n")
        for start, mag2 in _grid_abs2(*terms, 0.0, k_lo, n_interior, step):
            # Only points within the tie tolerance of the block maximum can win; one
            # bool mask per block sends them to consider() in grid order.
            for k in np.flatnonzero(mag2 >= mag2.max() - 1e-18):
                consider((k_lo + start + int(k)) * step, float(mag2[k]))
            if tracing:
                for k in range(-start % trace_stride, mag2.size, trace_stride):
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
    """Grid indices of the top-k local maxima of |R| over the (start, mag2) blocks of |R|^2
    that _grid_abs2 yields.

    The maxima are found on |R|^2, whose peaks and their order are those of |R|, in each
    block where it is handed over: no buffer is held and no block is copied, only its last
    two values are carried to the next.  Point j is decided in the block that holds j + 1:
    inside mag2 when both its neighbours are there, else on a four-value array, the two
    carried values followed by the block's first two.  With no interior maximum the scan
    falls, then rises, so its first argmax is an end: the first point unless the last is
    higher.
    """
    peaks, heights = [], []
    tail = np.empty(0)  # the last two |R|^2 values of the earlier blocks (fewer at the start)
    for start, mag2 in blocks:
        if not tail.size:
            first = mag2[0]
        edge = np.concatenate((tail, mag2[:2]))
        for v, k in ((edge, start - tail.size), (mag2, start)):  # v[0] is grid point k
            mid = v[1:-1]
            (idx,) = ((mid >= v[:-2]) & (mid >= v[2:])).nonzero()
            peaks.append(idx + (k + 1))
            heights.append(mid[idx])
        tail = np.concatenate((edge, mag2[2:][-2:]))[-2:]
    peak_idx, heights = np.concatenate(peaks), np.concatenate(heights)
    if not peak_idx.size:
        last = tail[-1]
        peak_idx = np.array([0 if first >= last else start + mag2.size - 1])
        heights = np.array([max(first, last)])
    h_top = float(heights.max())
    # Grid offset shifts a sampled peak of |R| by O((omega*step)^2) relative, so
    # peaks within that band are indistinguishable at this resolution
    # (e.g. every peak of a single-prime |R|, which is periodic).  Scan
    # the band smallest |t| first, matching the grid-search tie-break.  The
    # band is |R| >= |R|_top * (1 - (L*step)^2) in squares; clipped at 0 it
    # holds every peak where L*step >= 1, as the unsquared band does.
    in_band = heights >= h_top * max(0.0, 1.0 - (max_log * step) ** 2) ** 2
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
        return grid_sup(f, n_max, t_bound, coarse_eps, window=window, eval_budget=eval_budget)
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

    terms = _dn_terms(f, n_max)  # f(n) is refused past the sieve's cap before the R scan
    r_coeffs, r_logs = _support_coeff_logs(f, support)
    blocks = _grid_abs2(r_coeffs, r_logs, lo, 0, n_points, step)
    candidates = _guided_candidates(
        blocks, float(r_logs.max(initial=0.0)), lo, step, GUIDED_TOP_K
    )
    # The first of the highest refined peaks wins.
    t_star, mag2, iters = max(
        (_refine_peak(terms, lo + step * int(idx), step, lo, hi) for idx in candidates),
        key=lambda peak: peak[1],
    )
    return SearchResult(t_star, math.sqrt(mag2), step, iters, None, (lo, hi))
