"""Resonator coefficients: prime window, weights, and support enumeration.

Given a length cutoff X, set lam = sqrt(log X * log log X).  The prime
window is lam^2 <= p <= exp((log lam)^2); inside it the weight is

    r(p) = lam / (sqrt(p) * log(p)),

extended multiplicatively to squarefree products of window primes and
zero elsewhere.  r is the only weight stored: the main term's companion
weight t(n) = r(n) / prod_{p | n}(1 + r(p)^2) is a function of r, and
moments derives it where it reads it.  For small X the window is empty
(the lower end exceeds the upper end); that is a legitimate degenerate
state, flagged rather than rejected, in which r is supported on {1} alone.
build_resonator sieves the window itself, up to its upper end.

The support is the set of squarefree products of window primes up to a
cap.  support_arrays is its one builder: sorted integers, prime masks
and the weights r as parallel arrays, under an element budget.  Products
can exceed any factor table, so the weights are multiplied up along the
build instead of refactorizing; support_elements and sum_r_squared are
views of those arrays.

A prime mask is a row of unsigned words with bit i for the i-th window
prime (mask_layout fixes the word type and count).  Only this module
reads or writes the bits: disjoint tests coprimality, prime_mask builds
the mask of a set of primes, SupportArrays.prime_factor_sums sums
per-prime values over each element's primes, and
SupportArrays.coprime_tiles streams the coprime pairs of the elements as
boolean tiles, so no pair list is ever held.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import ResourceLimitError
from .ntcore import FactorTable, build_factor_table, primes_in

MIN_X = math.exp(math.e)
DEFAULT_ENUM_BUDGET = 10_000_000
_INT64_MAX = (1 << 63) - 1
# A SupportArrays.coprime_tiles tile: a block of _COLS elements k by a
# batch of _ROWS elements i, the diagonal kernel's shape (moments).
_COLS = 64
_ROWS = 256


@dataclass(frozen=True)
class SupportElement:
    """One squarefree product of window primes with its weight."""

    n: int
    r: float
    primes: tuple[int, ...]


@dataclass(frozen=True)
class Resonator:
    x: float
    lam: float | None
    window_lo: float | None
    window_hi: float | None
    primes: tuple[int, ...]
    r_p: dict[int, float] = field(repr=False)
    alpha_default: float | None

    @property
    def is_empty(self) -> bool:
        return len(self.primes) == 0

    @property
    def is_degenerate(self) -> bool:
        """True when X was too small for the weight formula entirely."""
        return self.lam is None

    def prime_index(self) -> dict[int, int]:
        return {p: i for i, p in enumerate(self.primes)}

    def summary(self) -> dict:
        """The construction's scalars, as `rescert resonator` and the
        certificate report's `resonator` field show them."""
        return {
            "x": self.x,
            "lam": self.lam,
            "window_lo": self.window_lo,
            "window_hi": self.window_hi,
            "prime_count": len(self.primes),
            "is_empty": self.is_empty,
            "alpha_default": self.alpha_default,
        }


def window_bounds(x: float) -> tuple[float, float]:
    """(lam^2, exp((log lam)^2)) for cutoff x >= e^e; lo > hi means empty."""
    if not x >= MIN_X:
        raise ValueError(f"resonator cutoff must be >= e^e ~ {MIN_X:.4f}, got {x}")
    log_x = math.log(x)
    lam = math.sqrt(log_x * math.log(log_x))
    return lam * lam, math.exp(math.log(lam) ** 2)


def build_resonator(x: float) -> Resonator:
    """Construct the resonator for cutoff X, sieving its own prime window.

    Args:
        x: length cutoff, at least e^e so the lam formula is defined.

    Raises:
        ValueError: x below e^e.
        ResourceLimitError: window upper end beyond the sieve's entry cap.
    """
    window_lo, window_hi = window_bounds(x)
    log_x = math.log(x)
    lam = math.sqrt(log_x * math.log(log_x))
    primes: tuple[int, ...] = ()
    if window_lo <= window_hi:
        table = build_factor_table(math.ceil(window_hi))
        primes = tuple(primes_in(window_lo, window_hi, table))
    r_p = {p: lam / (math.sqrt(p) * math.log(p)) for p in primes}
    alpha_default = math.log(lam) ** -3 if lam > 1.0 else None
    if alpha_default is not None and alpha_default >= 0.5:
        # The shift-based tail bound needs alpha < 1/2; windows too small
        # for the formula to land there get no usable default.
        alpha_default = None
    return Resonator(
        x=x,
        lam=lam,
        window_lo=window_lo,
        window_hi=window_hi,
        primes=primes,
        r_p=r_p,
        alpha_default=alpha_default,
    )


def degenerate_resonator(x: float) -> Resonator:
    """Empty resonator for cutoffs below e^e (weight formula undefined)."""
    if x < 1.0:
        raise ValueError(f"cutoff must be >= 1, got {x}")
    return Resonator(
        x=x,
        lam=None,
        window_lo=None,
        window_hi=None,
        primes=(),
        r_p={},
        alpha_default=None,
    )


def r_value(res: Resonator, n: int, table: FactorTable) -> float:
    """r(n): product of r(p) over the factorization of n; zero unless n is
    a squarefree product of window primes."""
    table._check_range(n)
    out = 1.0
    spf = table.spf
    while n > 1:
        p = int(spf[n])
        n //= p
        if n % p == 0:
            return 0.0  # not squarefree
        w = res.r_p.get(p)
        if w is None:
            return 0.0  # prime outside the window
        out *= w
    return out


def mask_layout(prime_count: int) -> tuple[np.dtype, int]:
    """(word dtype, words per mask) for masks over `prime_count` primes.

    The word is the narrowest unsigned integer with min(prime_count, 64)
    bits, and bit i of the mask is bit i % width of word i // width.
    """
    width = next(w for w in (8, 16, 32, 64) if min(prime_count, 64) <= w)
    return np.dtype(f"uint{width}"), max(1, -(-prime_count // width))


def _word_bit(dtype: np.dtype, i: int) -> tuple[int, np.unsignedinteger]:
    """(word index, word value) of bit i."""
    word, bit = divmod(i, dtype.itemsize * 8)
    return word, dtype.type(1 << bit)


def disjoint(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Whether masks a and b (broadcast over all but the word axis, the
    last) share no bit, i.e. whether their elements are coprime.  `out`,
    if given, receives the answer in its own dtype (a float array as 0/1)."""
    common = a[..., 0] & b[..., 0]
    for w in range(1, a.shape[-1]):
        common |= a[..., w] & b[..., w]
    return np.equal(common, 0, out=out)


def prime_mask(res: Resonator, primes) -> np.ndarray:
    """The mask of `primes`, all of them window primes of res."""
    dtype, words = mask_layout(len(res.primes))
    mask = np.zeros(words, dtype=dtype)
    index = res.prime_index()
    for p in primes:
        word, value = _word_bit(dtype, index[p])
        mask[word] |= value
    return mask


@dataclass(frozen=True)
class SupportArrays:
    """The support <= some cap as parallel arrays sorted by n.

    masks[k] is the prime mask of ns[k]: a row of mask_layout words with
    bit i set when the i-th window prime divides ns[k].  ns[0] = 1 unless
    empty.
    """

    ns: np.ndarray  # int64
    masks: np.ndarray  # (len(ns), words)
    r: np.ndarray

    def upto(self, cap: float) -> SupportArrays:
        """The prefix of the elements <= cap."""
        count = len(self.ns)
        if count and cap < self.ns[-1]:
            count = int(np.searchsorted(self.ns, math.floor(cap), side="right"))
        return SupportArrays(self.ns[:count], self.masks[:count], self.r[:count])

    def prime_factor_sums(self, values: list[float]) -> np.ndarray:
        """For each element, the sum of values[i] over the window primes i
        dividing it, added in ascending i."""
        out = np.zeros(len(self.ns))
        for i, v in enumerate(values):
            word, value = _word_bit(self.masks.dtype, i)
            out[(self.masks[:, word] & value) != 0] += v
        return out

    def coprime_tiles(self, count: int | None = None) -> Iterator[tuple[slice, slice, np.ndarray]]:
        """Every coprime pair (i, k), i <= k, of the first `count` elements
        (default all) once, as tiles (k, i, ok): k is a slice of at most
        _COLS elements, i one of at most _ROWS, and ok[a, b] says whether
        elements k.start + a and i.start + b are coprime.  The tiles come by
        blocks k, then by i up to the block's end; on the tiles that reach
        the block's own elements only i <= k is kept.  The first tile's first
        pair is (0, 0), the pair (1, 1) and the only pair of an element with
        itself.
        """
        n = len(self.ns) if count is None else count
        for k0 in range(0, n, _COLS):
            k = slice(k0, min(k0 + _COLS, n))
            for i0 in range(0, k.stop, _ROWS):
                i = slice(i0, min(i0 + _ROWS, k.stop))
                ok = disjoint(self.masks[k, None], self.masks[None, i])
                if i.stop > k.start:
                    ok &= np.arange(i.start, i.stop) <= np.arange(k.start, k.stop)[:, None]
                yield k, i, ok

    def elements(self, res: Resonator) -> list[SupportElement]:
        """The elements as SupportElements, prime tuples read off the masks."""
        primes: list[list[int]] = [[] for _ in range(len(self.ns))]
        width = self.masks.dtype.itemsize * 8
        rows, words = np.nonzero(self.masks)  # row-major: primes come out ascending
        for k, word, bits in zip(rows.tolist(), words.tolist(), self.masks[rows, words].tolist()):
            while bits:
                low = bits & -bits
                primes[k].append(res.primes[word * width + low.bit_length() - 1])
                bits ^= low
        return [
            SupportElement(n, r, tuple(ps))
            for n, r, ps in zip(self.ns.tolist(), self.r.tolist(), primes)
        ]


def support_arrays(
    res: Resonator, cap: float, budget: int = DEFAULT_ENUM_BUDGET
) -> SupportArrays:
    """All squarefree window-prime products <= cap, with their weights r.

    Built one window prime at a time, in ascending order: each prime p
    extends every element so far whose product with p stays <= cap, and
    the extensions are written in place after the elements so far (the
    arrays double when full).  The weights are thus multiplied up in
    ascending prime order; one sort by n ends the build.  The n are
    distinct squarefree products, so any sort gives the same permutation,
    and numpy's default one is the fastest.  1 is always included when
    cap >= 1; cap = inf gives the whole support.

    Raises:
        ValueError: cap is NaN.
        ResourceLimitError: more than `budget` elements, or an element
            beyond the int64 range.
    """
    if math.isnan(cap):
        raise ValueError("support cap must not be NaN")
    dtype, words = mask_layout(len(res.primes))
    size = 1 if cap >= 1.0 else 0
    ns = np.ones(max(size, 1024), dtype=np.int64)
    masks = np.zeros((len(ns), words), dtype=dtype)
    r = np.ones(len(ns))
    # No element exceeds the product of all window primes.
    top = math.floor(min(cap, math.prod(res.primes))) if size else 0
    # The elements <= the current prime's limit: the limits fall as the
    # primes ascend, so an element dropped here never extends again.
    active = np.zeros(size, dtype=np.intp)
    for i, p in enumerate(res.primes):
        limit = top // p
        if limit < 1:
            break  # primes ascend, so every later product is larger too
        active = active[ns[active] <= min(limit, _INT64_MAX)]
        safe = _INT64_MAX // p
        if limit > safe and np.any(ns[active] > safe):
            raise ResourceLimitError(
                f"support element below cap {cap} beyond the int64 range",
                needed=top,
                budget=_INT64_MAX,
            )
        count = size + len(active)
        if count > budget:
            raise ResourceLimitError(
                f"support enumeration exceeded budget {budget} below cap {cap}",
                needed=count,
                budget=budget,
            )
        if count > len(ns):
            # One array at a time, so each old buffer goes before the next grows.
            grown = max(count, 2 * len(ns))
            ns = np.resize(ns, grown)
            masks = np.resize(masks, (grown, words))
            r = np.resize(r, grown)
        ns[size:count] = ns[active] * p
        masks[size:count] = masks[active]
        word, value = _word_bit(dtype, i)
        masks[size:count, word] |= value
        r[size:count] = r[active] * res.r_p[p]
        active = np.concatenate((active, np.arange(size, count)))
        size = count
    # Permuted one at a time, so each unsorted buffer goes before the next
    # copy; masks first, as below 33 window primes they are the narrowest.
    del active
    order = np.argsort(ns[:size])
    masks = masks[order]
    ns = ns[order]
    r = r[order]
    return SupportArrays(ns=ns, masks=masks, r=r)


def support_elements(
    res: Resonator, cap: float, budget: int = DEFAULT_ENUM_BUDGET
) -> list[SupportElement]:
    """The elements of support_arrays(res, cap, budget), sorted by n."""
    return support_arrays(res, cap, budget).elements(res)


def sum_r_squared(res: Resonator, cap: float, budget: int = DEFAULT_ENUM_BUDGET) -> float:
    """sum of r(n)^2 over support n <= cap."""
    r = support_arrays(res, cap, budget).r
    return math.fsum((r * r).tolist())


def euler_product_one_plus_r2(res: Resonator, exclude: tuple[int, ...] = ()) -> float:
    """prod over window primes p (not excluded) of (1 + r(p)^2).

    Upper-bounds sum r(n)^2 over the full support; the truncated sums
    approach it as the cap grows.
    """
    skip = set(exclude)
    return math.exp(
        math.fsum(
            math.log1p(res.r_p[p] * res.r_p[p]) for p in res.primes if p not in skip
        )
    )
