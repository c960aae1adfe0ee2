"""Smooth bump window and its Fourier transform.

The window is supported in [1/2, 1], equals 1 on the plateau
[1/2 + w, 1 - w] (default ramp width w = 1/8, so plateau [5/8, 7/8]),
and climbs each ramp through the standard smooth partition function

    psi(s) = sigma(s) / (sigma(s) + sigma(1 - s)),   sigma(s) = exp(-1/s)

evaluated at the ramp-local coordinate.  The transform convention is

    phi_hat(xi) = integral phi(x) * exp(-i*xi*x) dx.

The plateau piece has a closed form; the two ramps go through adaptive
Gauss-Legendre quadrature.  Transform values are memoized on xi rounded
to 12 significant digits.  Oscillatory cancellation pushes genuine
transform values below double precision noise (~1e-16) for large |xi|;
callers that need trustworthy relative magnitudes out there (decay
diagnostics) request deep=True, which re-evaluates those points in
50-digit arithmetic.  The deep path substitutes x = 1/2 + w*s on the
up-ramp and x = 1 - w*s on the down-ramp, so both ramps become one
integral of psi(s) times two phases over s in [0, 1]; mpmath's
Gauss-Legendre rule integrates it piece by piece between half-cycle
breakpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath
import numpy as np

from .quadrature import adaptive_oscillatory

DEFAULT_TOLERANCE = 1e-12
# Below this magnitude a float64 quadrature result is dominated by
# rounding noise of the O(1) integrand, not by the true value.
DEEP_THRESHOLD = 1e-12
DEEP_DPS = 50


def _psi_scalar(s: float) -> float:
    if s <= 0.0:
        return 0.0
    if s >= 1.0:
        return 1.0
    # sigma(s)/(sigma(s)+sigma(1-s)) rewritten to a single stable exp.
    return 1.0 / (1.0 + math.exp(1.0 / s - 1.0 / (1.0 - s)))


def _psi_vec(s: np.ndarray) -> np.ndarray:
    out = np.zeros_like(s)
    out[s >= 1.0] = 1.0
    inside = (s > 0.0) & (s < 1.0)
    si = s[inside]
    with np.errstate(over="ignore"):
        out[inside] = 1.0 / (1.0 + np.exp(1.0 / si - 1.0 / (1.0 - si)))
    return out


@dataclass
class Bump:
    ramp_width: float = 0.125
    tolerance: float = DEFAULT_TOLERANCE
    _memo: dict[str, tuple[complex, bool]] = field(default_factory=dict, repr=False)
    # Decay constants on the moments decay grid, by nu (filled by moments).
    _decay_memo: dict[int, float] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not 0.0 < self.ramp_width <= 0.25:
            raise ValueError("ramp width must lie in (0, 1/4]")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")

    # Ramp boundaries.
    @property
    def lo(self) -> float:
        return 0.5

    @property
    def plateau_lo(self) -> float:
        return 0.5 + self.ramp_width

    @property
    def plateau_hi(self) -> float:
        return 1.0 - self.ramp_width

    @property
    def hi(self) -> float:
        return 1.0

    def phi(self, y: float) -> float:
        """Window value at a single point."""
        w = self.ramp_width
        if y <= 0.5 or y >= 1.0:
            return 0.0
        if y < 0.5 + w:
            return _psi_scalar((y - 0.5) / w)
        if y <= 1.0 - w:
            return 1.0
        return _psi_scalar((1.0 - y) / w)

    def phi_vec(self, y: np.ndarray) -> np.ndarray:
        """Vectorized window values."""
        y = np.asarray(y, dtype=np.float64)
        w = self.ramp_width
        out = np.zeros_like(y)
        plateau = (y >= 0.5 + w) & (y <= 1.0 - w)
        out[plateau] = 1.0
        up = (y > 0.5) & (y < 0.5 + w)
        out[up] = _psi_vec((y[up] - 0.5) / w)
        down = (y > 1.0 - w) & (y < 1.0)
        out[down] = _psi_vec((1.0 - y[down]) / w)
        return out

    def transform(self, xi: float, deep: bool = False) -> complex:
        """phi_hat(xi) with absolute error <= self.tolerance.

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
        w = self.ramp_width
        p_lo, p_hi = self.plateau_lo, self.plateau_hi
        if xi == 0.0:
            plateau = p_hi - p_lo
        else:
            # integral_{p_lo}^{p_hi} e^{-i xi x} dx
            plateau = (
                np.exp(-1j * xi * p_lo) - np.exp(-1j * xi * p_hi)
            ) / (1j * xi)

        def ramp_up(x):
            return _psi_vec((x - 0.5) / w) * np.exp(-1j * xi * x)

        def ramp_down(x):
            return _psi_vec((1.0 - x) / w) * np.exp(-1j * xi * x)

        tol = 0.45 * self.tolerance
        up, _ = adaptive_oscillatory(
            ramp_up, 0.5, p_lo, max_freq=abs(xi), abs_tol=tol, rel_tol=0.0
        )
        down, _ = adaptive_oscillatory(
            ramp_down, p_hi, 1.0, max_freq=abs(xi), abs_tol=tol, rel_tol=0.0
        )
        return complex(plateau) + up + down

    def _transform_mp(self, xi: float) -> complex:
        """phi_hat(xi) in DEEP_DPS-digit arithmetic.

        With x = 1/2 + w*s on the up-ramp and x = 1 - w*s on the down-ramp
        both ramps share psi(s) and fold into one integral over s in [0, 1]:

            w * integral psi(s) * (e^{-i xi/2} c(s) + e^{-i xi} conj(c(s))) ds,

        c(s) = e^{-i xi w s}.  Breakpoints at half cycles of c keep every
        piece non-oscillatory, so Gauss-Legendre converges in few nodes;
        its nodes are interior, so psi needs no endpoint cases.
        """
        with mpmath.workdps(DEEP_DPS):
            mxi = mpmath.mpf(xi)
            w_mp = mpmath.mpf(self.ramp_width)
            p_lo = mpmath.mpf("0.5") + w_mp
            p_hi = 1 - w_mp

            if mxi == 0:
                plateau = p_hi - p_lo
            else:
                plateau = (
                    mpmath.exp(-1j * mxi * p_lo) - mpmath.exp(-1j * mxi * p_hi)
                ) / (1j * mxi)

            up_phase = mpmath.expj(-mxi / 2)
            down_phase = mpmath.expj(-mxi)

            def ramps(s):
                c = mpmath.expj(-mxi * w_mp * s)
                psi = 1 / (1 + mpmath.exp(1 / s - 1 / (1 - s)))
                return psi * (up_phase * c + down_phase * mpmath.conj(c))

            pieces = max(4, int(mpmath.ceil(abs(mxi) * w_mp / mpmath.pi)) + 1)
            ramp = w_mp * mpmath.quad(
                ramps, mpmath.linspace(0, 1, pieces + 1), method="gauss-legendre"
            )
            return complex(plateau + ramp)


_DEFAULT_BUMP: Bump | None = None


def default_bump() -> Bump:
    global _DEFAULT_BUMP
    if _DEFAULT_BUMP is None:
        _DEFAULT_BUMP = Bump()
    return _DEFAULT_BUMP


def phi(b: Bump, y: float) -> float:
    return b.phi(y)


def phi_hat(b: Bump, xi: float, deep: bool = False) -> complex:
    return b.transform(xi, deep=deep)


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
