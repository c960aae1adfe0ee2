"""Smooth bump window and its Fourier transform.

The window is supported in [1/2, 1], equals 1 on the plateau
[1/2 + w, 1 - w] (default ramp width w = 1/8, so plateau [5/8, 7/8]),
and climbs each ramp through the standard smooth partition function

    psi(s) = sigma(s) / (sigma(s) + sigma(1 - s)),   sigma(s) = exp(-1/s)

evaluated at the ramp-local coordinate.  The transform convention is

    phi_hat(xi) = integral phi(x) * exp(-i*xi*x) dx.

The plateau piece has a closed form.  x = 1/2 + w*s on the up-ramp and
x = 1 - w*s on the down-ramp fold both ramps into

    w * (e^{-i xi/2} C + e^{-i xi} conj(C)),  C = integral_0^1 psi(s) e^{-i xi w s} ds.

In float64, C goes through adaptive Gauss-Legendre quadrature with a
level rule that factors each node's phase into a per-node and a
per-panel exponential.  Transform values are memoized on xi rounded to
12 significant digits.  Oscillatory cancellation pushes genuine
transform values below double precision noise (~1e-16) for large |xi|;
callers that need trustworthy relative magnitudes out there (decay
diagnostics) request deep=True, which re-evaluates those points in
50-digit arithmetic: mpmath's Gauss-Legendre rule integrates the same
folded ramps piece by piece between half-cycle breakpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath
import numpy as np

from .quadrature import _gl_nodes, adaptive_oscillatory

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
    # For s in [0, 1]; at the ends exp(+-inf) gives psi(0) = 0, psi(1) = 1.
    with np.errstate(over="ignore", divide="ignore"):
        return 1.0 / (1.0 + np.exp(1.0 / s - 1.0 / (1.0 - s)))


def _ramp_level(freq: float, a: float, b: float, panels: int, order: int) -> complex:
    """adaptive_oscillatory level rule for integral_a^b psi(s) e^{-i freq s} ds,
    given freq in place of an integrand.  Node j of panel k sits at s = a + k*h + u_j
    (composite_gl_grid's layout), so its phase is e^{-i freq u_j} e^{-i freq (a + k*h)}.
    """
    nodes, weights = _gl_nodes(order)
    h = (b - a) / panels
    u = 0.5 * h * (1.0 + nodes)
    starts = a + h * np.arange(panels)
    psi_w = _psi_vec(starts[:, None] + u) * weights  # (panels, order)
    node = np.exp(-1j * freq * u)
    # Two real products: a real matrix times a complex vector skips BLAS.
    per_panel = psi_w @ node.real + 1j * (psi_w @ node.imag)
    return 0.5 * h * complex(np.exp(-1j * freq * starts) @ per_panel)


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
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")

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
        """phi_hat(xi) in float64: closed-form plateau plus the folded ramps
        (module docstring), C by one adaptive integral under _ramp_level.
        An error d in C moves the ramps by at most 2w|d|, so C's budget
        0.45 * tolerance / w keeps the ramps within 0.9 * tolerance.
        """
        w = self.ramp_width
        p_lo, p_hi = self.plateau_lo, self.plateau_hi
        if xi == 0.0:
            plateau = p_hi - p_lo
        else:
            # integral_{p_lo}^{p_hi} e^{-i xi x} dx
            plateau = (
                np.exp(-1j * xi * p_lo) - np.exp(-1j * xi * p_hi)
            ) / (1j * xi)
        c, _ = adaptive_oscillatory(
            xi * w, 0.0, 1.0, max_freq=abs(xi) * w,
            abs_tol=0.45 * self.tolerance / w, rel_tol=0.0, rule=_ramp_level,
        )
        ramps = w * (np.exp(-0.5j * xi) * c + np.exp(-1j * xi) * c.conjugate())
        return complex(plateau + ramps)

    def _transform_mp(self, xi: float) -> complex:
        """phi_hat(xi) in DEEP_DPS-digit arithmetic.

        The folded ramps (module docstring) are integrated as
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
