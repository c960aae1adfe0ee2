"""Independent brute-force checks for the moment machinery.

Everything here recomputes quantities from their definitions with the
dumbest method that terminates: full quadruple enumeration (every
(m, n, a) tested, or every (m, a, b) where N is much larger than X, in
numpy arrays of bounded size rather than Python loops), dense product
matching, fixed-panel Simpson quadrature.  Nothing is shared with the
parametrized/adaptive code paths being checked, so agreement is evidence
rather than tautology.  All functions cap their input sizes
and raise ValueError beyond the cap instead of grinding.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .multfn import UnimodularCMF, values_up_to
from .ntcore import FactorTable
from .resonator import Resonator, support_elements

BRUTE_FORCE_CAP = 10_000  # max N * X any brute-force enumeration accepts
_CHUNK_ENTRIES = 2**20  # (m, n, a) tests per array of the bijection check's enumeration


@dataclass
class ToyResonator:
    """Dense stand-in for a resonator: explicit n -> r(n) values.

    `values` must contain 1 -> 1.0 and only finite values; every n not
    present evaluates to 0.
    Nothing else is assumed: r need not be multiplicative, and
    moments.diagonal_sum reads `values` for the support it sums over.
    """

    values: dict[int, float]

    def __post_init__(self):
        if self.values.get(1) != 1.0:
            raise ValueError("toy resonator must map 1 -> 1.0")
        if any(n < 1 for n in self.values):
            raise ValueError("toy resonator keys must be positive")
        for n, v in self.values.items():
            if not math.isfinite(v):
                raise ValueError(f"toy resonator value at {n} must be finite, got {v}")

    def value(self, n: int) -> float:
        return self.values.get(n, 0.0)

    def r_vector(self, cap: int) -> np.ndarray:
        out = np.zeros(cap + 1)
        for n, v in self.values.items():
            if n <= cap:
                out[n] = v
        return out

    def check_multiplicative(self, limit: int) -> bool:
        """True iff r(mn) = r(m) r(n) for all coprime m, n with mn <= limit."""
        for m in range(1, limit + 1):
            for n in range(1, limit // m + 1):
                if math.gcd(m, n) == 1:
                    if not math.isclose(
                        self.value(m * n),
                        self.value(m) * self.value(n),
                        rel_tol=1e-12,
                        abs_tol=1e-15,
                    ):
                        return False
        return True


def random_toy_resonator(
    rng: np.random.Generator,
    cap: int,
    max_primes: int = 4,
    squarefree: bool = True,
) -> ToyResonator:
    """Multiplicative toy with random weights on primes up to cap.

    Squarefree mode assigns r(p) and extends to squarefree products, so
    r(p^2) = 0; otherwise prime powers also get (independent) random
    weights, which keeps r multiplicative but not completely so.
    """
    primes = [p for p in range(2, cap + 1) if all(p % q for q in range(2, p))]
    k = min(max_primes, len(primes))
    chosen = sorted(rng.choice(len(primes), size=k, replace=False).tolist())
    chosen = [primes[i] for i in chosen]
    prime_power_weight: dict[int, float] = {}
    for p in chosen:
        prime_power_weight[p] = float(rng.uniform(0.1, 1.4))
        if not squarefree:
            q = p * p
            while q <= cap:
                prime_power_weight[q] = float(rng.uniform(0.1, 1.4))
                q *= p
    values = {1: 1.0}
    for n in range(2, cap + 1):
        m, acc = n, 1.0
        ok = True
        for p in chosen:
            if m % p == 0:
                q = 1
                while m % p == 0:
                    m //= p
                    q *= p
                if q not in prime_power_weight:
                    ok = False
                    break
                acc *= prime_power_weight[q]
        if ok and m == 1:
            values[n] = acc
    return ToyResonator(values=values)


def _dense_r_vector(res, x_int: int, table: FactorTable | None) -> np.ndarray:
    if isinstance(res, Resonator):
        from .resonator import r_value

        if table is None:
            raise ValueError("window resonators need a factor table here")
        return np.array([0.0] + [r_value(res, n, table) for n in range(1, x_int + 1)])
    return res.r_vector(x_int)


def diagonal_sum_bruteforce(
    res,
    n_max: int,
    x: float,
    table: FactorTable | None = None,
) -> float:
    """sum r(a) r(b) over all quadruples m, n <= N, a, b <= X, ma = nb,
    by matching products directly.  Caps at N * X <= BRUTE_FORCE_CAP.
    """
    x_int = math.floor(x)
    if n_max < 1 or x_int < 1:
        raise ValueError("N and X must be >= 1")
    if n_max * x_int > BRUTE_FORCE_CAP:
        raise ValueError(f"brute force limited to N*X <= {BRUTE_FORCE_CAP}")
    r_vec = _dense_r_vector(res, x_int, table)
    m = np.arange(1, n_max + 1, dtype=np.int64)
    a = np.arange(1, x_int + 1, dtype=np.int64)
    products = np.multiply.outer(m, a).ravel()
    weights = np.tile(r_vec[1:], n_max)
    per_product = np.bincount(products, weights=weights)
    return float(per_product @ per_product)


def _quadruples(n_max: int, x_int: int) -> np.ndarray:
    """Every (m, n, a, b) with m, n <= N, a, b <= X and ma = nb, one per row in (m, n, a)
    order, found by testing each (m, n, a) for n | ma and ma / n <= X.  A chunk of
    consecutive m takes its tests as one array of at most about _CHUNK_ENTRIES entries.
    When the N^2 X tests fill more than one chunk, each (m, a, b) is tested for b | ma
    and ma / b <= N instead, N X^2 tests (N X <= BRUTE_FORCE_CAP, so N is then the larger
    side), and each chunk's rows are sorted back into (m, n, a) order."""
    by_n = n_max * n_max * x_int <= _CHUNK_ENTRIES
    a = np.arange(1, x_int + 1, dtype=np.int64)
    d, d_max = (n_max, x_int) if by_n else (x_int, n_max)
    div = np.arange(1, d + 1, dtype=np.int64)[:, None]  # the n, or the b
    step = max(1, _CHUNK_ENTRIES // (d * x_int))
    found = []
    for first in range(1, n_max + 1, step):
        m = np.arange(first, min(n_max + 1, first + step), dtype=np.int64)
        prod = (m[:, None] * a)[:, None, :]  # (m, 1, a) against (d, 1): (m, d, a)
        mi, di, ai = np.nonzero((prod % div == 0) & (prod <= div * d_max))
        mm, dd, aa = m[mi], di + 1, ai + 1
        rows = np.stack([mm, dd, aa, mm * aa // dd], axis=1)
        if not by_n:  # rows of (m, b, a, n): put n second and sort by (m, n, a)
            rows = rows[:, [0, 3, 2, 1]]
            rows = rows[np.lexsort(rows[:, 2::-1].T)]
        found.append(rows)
    return np.concatenate(found)


def _mapped_parameters(n_max: int, x_int: int) -> np.ndarray:
    """Every parameter tuple (a', b', g, h) with (a', b') = 1, a'g, b'g <= X and
    h*max(a', b') <= N, mapped to (m, n, a, b) = (h b', h a', a' g, b' g), one per row."""
    z = np.arange(1, min(n_max, x_int) + 1, dtype=np.int64)
    ap, bp = np.nonzero(np.gcd.outer(z, z) == 1)
    ap, bp = ap + 1, bp + 1
    top = np.maximum(ap, bp)
    h_count = n_max // top
    per_pair = (x_int // top) * h_count  # the g's times the h's of each pair
    pair = np.repeat(np.arange(ap.size), per_pair)
    offset = np.arange(pair.size) - np.repeat(np.cumsum(per_pair) - per_pair, per_pair)
    g, h = np.divmod(offset, h_count[pair])
    g, h, ap, bp = g + 1, h + 1, ap[pair], bp[pair]
    return np.stack([h * bp, h * ap, ap * g, bp * g], axis=1)


def parametrization_bijection_check(n_max: int, x_int: int) -> bool:
    """Verify the gcd parametrization of the diagonal is a bijection.

    Enumerates all quadruples (m, n, a, b) with m, n <= N, a, b <= X and
    ma = nb, then all parameter tuples (a', b', g, h) with (a', b') = 1,
    a'g, b'g <= X, h*max(a', b') <= N mapped through

        (m, n, a, b) = (h b', h a', a' g, b' g)

    and requires the two sets to coincide with no parameter collisions.
    Each tuple is compared as one key ((m(N+1) + n)(X+1) + a)(X+1) + b,
    which is one-to-one on tuples with m, n <= N and a, b <= X; a tuple
    outside that range is a mismatch.  N and X must be integers
    (TypeError otherwise).
    """
    if n_max < 1 or x_int < 1:
        raise ValueError("N and X must be >= 1")
    if n_max * x_int > BRUTE_FORCE_CAP:
        raise ValueError(f"bijection check limited to N*X <= {BRUTE_FORCE_CAP}")
    n_max, x_int = operator.index(n_max), operator.index(x_int)
    top = np.array([n_max, n_max, x_int, x_int])
    keys = []
    for tuples in (_quadruples(n_max, x_int), _mapped_parameters(n_max, x_int)):
        if not ((tuples >= 1) & (tuples <= top)).all():
            return False
        m, n, a, b = tuples.T
        keys.append(np.sort(((m * (n_max + 1) + n) * (x_int + 1) + a) * (x_int + 1) + b))
    quadruples, mapped = keys
    return bool((mapped[1:] != mapped[:-1]).all() and np.array_equal(mapped, quadruples))


def m2_bruteforce_quadrature(
    res: Resonator,
    f: UnimodularCMF,
    n_max: int,
    t_bound: float,
    panels: int = 1_000_000,
) -> float:
    """M2 by composite Simpson with a fixed panel count.

    Integrand |R(t)|^2 Phi(t/T) |D_N(t)|^2 evaluated from scratch: the
    window directly from its two ramp pieces, R and D_N by plain complex
    exponentials, no shared quadrature code.
    """
    elems = support_elements(res, res.x)
    supp_logs = np.array([math.log(e.n) for e in elems])
    supp_coeffs = np.empty(len(elems), dtype=np.complex128)
    for i, e in enumerate(elems):
        fa = 1.0 + 0.0j
        for p in e.primes:
            fa *= f.prime_value(p)
        supp_coeffs[i] = fa * e.r
    d_coeffs = values_up_to(f, n_max) / math.sqrt(n_max)
    d_logs = np.log(np.arange(1, n_max + 1, dtype=np.float64))

    def window(y: np.ndarray) -> np.ndarray:
        out = np.zeros_like(y)
        up = (y > 0.5) & (y < 0.625)
        dn = (y > 0.875) & (y < 1.0)
        mid = (y >= 0.625) & (y <= 0.875)
        out[mid] = 1.0
        for mask, s in ((up, (y[up] - 0.5) / 0.125), (dn, (1.0 - y[dn]) / 0.125)):
            with np.errstate(over="ignore"):
                out[mask] = 1.0 / (1.0 + np.exp(1.0 / s - 1.0 / (1.0 - s)))
        return out

    lo, hi = 0.5 * t_bound, 1.0 * t_bound
    nodes = panels * 2 + 1
    h = (hi - lo) / (nodes - 1)
    total = 0.0
    chunk = 1 << 15
    for start in range(0, nodes, chunk):
        idx = np.arange(start, min(start + chunk, nodes))
        t = lo + idx * h
        rv = np.exp(1j * np.multiply.outer(t, supp_logs)) @ supp_coeffs
        dv = np.exp(1j * np.multiply.outer(t, d_logs)) @ d_coeffs
        vals = (
            (rv * rv.conjugate()).real
            * (dv * dv.conjugate()).real
            * window(t / t_bound)
        )
        w = np.where(idx % 2 == 1, 4.0, 2.0)
        w[idx == 0] = 1.0
        w[idx == nodes - 1] = 1.0
        total += float(vals @ w)
    return total * h / 3.0
