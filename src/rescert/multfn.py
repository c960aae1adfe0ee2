"""Unimodular completely multiplicative coefficient functions.

Three families:

  * constant-one        f(n) = 1
  * archimedean(alpha)  f(n) = n^{i*alpha}
  * steinhaus(seed)     f(p) = exp(2*pi*i*u_p) with u_p drawn per prime

The Steinhaus draw must be reproducible across runs and platforms, so it
is a keyed hash rather than a stateful RNG: u_p is the first 8 bytes of
SHA-256(seed as big-endian uint64 || p as big-endian uint64), divided by
2^64.  Distinct primes therefore get independent values and the order of
evaluation never matters; a prime of 2^64 or more has no key and is
refused.
"""

from __future__ import annotations

import cmath
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .ntcore import FactorTable, build_factor_table, check_sieve_cap, factorize

KIND_ONE = "one"
KIND_ARCHIMEDEAN = "archimedean"
KIND_STEINHAUS = "steinhaus"


def _steinhaus_unit(seed: int, p: int) -> float:
    if p >= 1 << 64:
        raise ValueError(f"prime {p} does not fit the 8-byte Steinhaus key")
    key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big") + p.to_bytes(8, "big")
    digest = hashlib.sha256(key).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


@dataclass
class UnimodularCMF:
    """A unimodular completely multiplicative function, evaluated lazily."""

    kind: str
    alpha: float = 0.0
    seed: int = 0
    _cache: dict[int, complex] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.kind not in (KIND_ONE, KIND_ARCHIMEDEAN, KIND_STEINHAUS):
            raise ValueError(f"unknown coefficient family {self.kind!r}")
        if self.kind == KIND_ARCHIMEDEAN and not math.isfinite(self.alpha):
            raise ValueError(f"archimedean alpha must be finite, got {self.alpha}")

    def prime_value(self, p: int) -> complex:
        if self.kind == KIND_ONE:
            return 1.0 + 0.0j
        if self.kind == KIND_ARCHIMEDEAN:
            return cmath.exp(1j * self.alpha * math.log(p))
        v = self._cache.get(p)
        if v is None:
            v = cmath.exp(2j * math.pi * _steinhaus_unit(self.seed, p))
            self._cache[p] = v
        return v

    def value(self, n: int, table: FactorTable) -> complex:
        """f(n) via the factor table; n must lie within the table."""
        table._check_range(n)
        if self.kind == KIND_ONE:
            return 1.0 + 0.0j
        if self.kind == KIND_ARCHIMEDEAN:
            return cmath.exp(1j * self.alpha * math.log(n))
        out = 1.0 + 0.0j
        for p, e in factorize(n, table):
            out *= self.prime_value(p) ** e
        return out


def constant_one() -> UnimodularCMF:
    return UnimodularCMF(kind=KIND_ONE)


def archimedean_cmf(alpha: float) -> UnimodularCMF:
    return UnimodularCMF(kind=KIND_ARCHIMEDEAN, alpha=float(alpha))


def steinhaus_sample(seed: int) -> UnimodularCMF:
    return UnimodularCMF(kind=KIND_STEINHAUS, seed=int(seed))


def values_up_to(f: UnimodularCMF, n_max: int) -> np.ndarray:
    """Vector [f(1), ..., f(n_max)] as complex128, index shifted by one.

    Every f is held to the sieve's cap on n_max.  Constant-one and n^{i*alpha}
    have closed forms; a Steinhaus f sieves max(2, n_max) here, and complete
    multiplicativity lets the sieve fill the range one Omega-layer at a
    time: f(n) = f(n / spf(n)) * f(spf(n)), where n / spf(n) lies in
    the layer before n's.  The product is taken on the real and imaginary
    parts separately, in the order of Python's complex multiply, so every
    value equals the one the scalar recurrence gives.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    check_sieve_cap(n_max)
    if f.kind == KIND_ONE:
        return np.ones(n_max, dtype=np.complex128)
    idx = np.arange(1, n_max + 1)
    if f.kind == KIND_ARCHIMEDEAN:
        return np.exp(1j * f.alpha * np.log(idx.astype(np.float64)))
    spf = build_factor_table(max(2, n_max)).spf[: n_max + 1].astype(np.int64)
    cof = np.zeros(n_max + 1, dtype=np.int64)
    cof[2:] = idx[1:] // spf[2:]
    out = np.ones(n_max + 1, dtype=np.complex128)
    re, im = out.real, out.imag  # writable views into out
    layer = np.flatnonzero(cof == 1)  # the primes
    out[layer] = [f.prime_value(p) for p in layer.tolist()]
    while layer.size:
        in_layer = np.zeros(n_max + 1, dtype=bool)
        in_layer[layer] = True
        layer = np.flatnonzero(in_layer[cof])
        a, b = cof[layer], spf[layer]
        re[layer], im[layer] = (
            re[a] * re[b] - im[a] * im[b],
            re[a] * im[b] + im[a] * re[b],
        )
    return out[1:]
