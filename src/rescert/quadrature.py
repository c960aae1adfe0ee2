"""Composite Gauss-Legendre quadrature for smooth oscillatory integrands.

The integrands in this package (windowed Dirichlet polynomial moments,
bump transforms) are smooth but oscillate with a known top frequency, so
a composite rule with a couple of panels per cycle converges fast and
vectorizes cleanly.  Panel counts double until two successive refinements
agree to tolerance; the difference of the last two levels is reported as
the error estimate.

Every rule here splits [a, b] into P equal panels of width h and puts
Gauss-Legendre node x_j (one of GL_ORDER) of panel k at

    a + k*h + h*(1 + x_j)/2,

so for fixed j the nodes of all panels form an arithmetic progression
with step h, and a node's phase under e^{-i freq s} factors into a
per-node part e^{-i freq h(1 + x_j)/2} and a per-panel part
e^{-i freq (a + k*h)}.  The level rules differ in how they hand the
nodes over.  composite_gl hands the integrand every abscissa in one
array; no caller in the package uses it, and the tests keep it as the
plain reference the other two rules are checked against.
composite_gl_grid hands it a group of nodes at a time, each node
a uniform grid given by its origin a + h*(1 + x_j)/2, over one chunk of
RESYNC_STRIDE panels per call (the moments scan a group's grids together
with the grid kernel dirichlet._grid_values, whose anchor blocks the
chunks match).  composite_gl_phased integrates a real weight times
e^{-i freq s} with the factored phases (bump's float ramp integral).
bump's 50-digit ramp rule lays out its mpmath nodes the same way on
half-cycle pieces.  adaptive_oscillatory takes the rule from its caller,
which may pass its own rule with the same signature; `fn` is then
whatever that rule reads.
"""

from __future__ import annotations

import functools

import numpy as np

from .dirichlet import RESYNC_STRIDE
from .errors import QuadratureError

GL_ORDER = 10
MAX_DOUBLINGS = 14
# Gauss-Legendre nodes per composite_gl_grid call.  All ten nodes of a level in one call
# ran the tiny quadrature moments no faster and held about 5 % more peak memory.
_NODES_PER_SCAN = 5


@functools.cache
def _gl_nodes() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1] of every level rule, built on first use: importing
    numpy.polynomial at package import would add about 6 ms to every CLI start."""
    return np.polynomial.legendre.leggauss(GL_ORDER)


def composite_gl(fn, a: float, b: float, panels: int) -> complex:
    """One composite Gauss-Legendre pass with `panels` equal panels.

    `fn` must accept a 1-d numpy array of abscissae and return values of
    matching shape (real or complex).
    """
    nodes, weights = _gl_nodes()
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])  # (panels,)
    mid = 0.5 * (edges[1:] + edges[:-1])
    # All abscissae in one flat array: panel-major ordering.
    x = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    vals = np.asarray(fn(x))
    vals = vals.reshape(panels, GL_ORDER)
    return complex((vals @ weights) @ half)


def composite_gl_grid(fn, a: float, b: float, panels: int) -> complex:
    """One composite Gauss-Legendre pass, evaluated a group of nodes and a chunk of panels
    at a time.

    `fn(origins, k0, step, count)` must return an array of shape (len(origins), count)
    whose row i holds the integrand values (real or complex) at origins[i] + (k0 + k)*step,
    k < count.  `origins` holds the first abscissa of up to _NODES_PER_SCAN nodes, the
    step is h = (b - a) / panels, and each call covers one chunk of RESYNC_STRIDE panels
    (the grid kernel's block), k0 being the chunk's first panel.
    """
    nodes, weights = _gl_nodes()
    h = (b - a) / panels
    origins = a + 0.5 * h * (1.0 + nodes)
    vals = np.empty((panels, GL_ORDER), dtype=np.complex128)
    for j in range(0, GL_ORDER, _NODES_PER_SCAN):
        group = slice(j, j + _NODES_PER_SCAN)
        for k0 in range(0, panels, RESYNC_STRIDE):
            count = min(RESYNC_STRIDE, panels - k0)
            vals[k0 : k0 + count, group] = fn(origins[group], k0, h, count).T
    return complex((vals @ weights) @ np.full(panels, 0.5 * h))


def composite_gl_phased(fn, a: float, b: float, panels: int) -> complex:
    """One composite Gauss-Legendre pass for integral_a^b weight(s) e^{-i freq s} ds.

    `fn` is the pair (weight, freq): `weight` maps a numpy array of
    abscissae to real values, and `freq` is the angular frequency.  The
    phases factor per node and per panel (module docstring), so a pass
    takes GL_ORDER + panels complex exponentials instead of one per node.
    """
    weight, freq = fn
    nodes, weights = _gl_nodes()
    h = (b - a) / panels
    u = 0.5 * h * (1.0 + nodes)
    starts = a + h * np.arange(panels)
    weighted = weight(starts[:, None] + u) * weights  # (panels, GL_ORDER)
    node = np.exp(-1j * freq * u)
    # Two real products: a real matrix times a complex vector skips BLAS.
    per_panel = weighted @ node.real + 1j * (weighted @ node.imag)
    return 0.5 * h * complex(np.exp(-1j * freq * starts) @ per_panel)


def adaptive_oscillatory(
    fn,
    a: float,
    b: float,
    *,
    max_freq: float,
    rule,
    abs_tol: float = 0.0,
    rel_tol: float = 1e-9,
    max_evals: int = 40_000_000,
) -> tuple[complex, float]:
    """Integrate `fn` over [a, b], doubling panels until converged.

    Args:
        fn: handed to `rule` unchanged; the integrand in the form the
            rule calls it: a numpy array of abscissae in, values out for
            composite_gl; a chunk of node grids (origins, k0, step,
            count) in, one row of values per origin out, for
            composite_gl_grid; a (weight, freq) pair for
            composite_gl_phased.  A caller's own rule may read it as data.
        max_freq: largest angular frequency present in the integrand
            (rad per unit); sets the initial panel count at roughly two
            panels per cycle.
        rule: the level rule `rule(fn, a, b, panels)`, one pass with
            `panels` equal panels of GL_ORDER nodes.
            The package's callers pass composite_gl_grid (the quadrature
            moments) or composite_gl_phased (bump's ramp integral);
            composite_gl, every abscissa in one array, is the reference
            rule the tests check those two against.
        abs_tol / rel_tol: accept once the last refinement moved the
            value by no more than max(abs_tol, rel_tol * |value|).
        max_evals: budget on total integrand evaluations; a level that
            would pass it is refused before it is evaluated.

    Returns:
        (value, error_estimate)

    Raises:
        QuadratureError: tolerance not reached within the budget.  On
            budget exhaustion it carries `needed` (the evaluation total
            the refused level would reach) and `budget` (max_evals).
    """
    if b <= a:
        return 0.0 + 0.0j, 0.0
    cycles = abs(max_freq) * (b - a) / (2.0 * np.pi)
    panels = max(8, int(np.ceil(2.0 * cycles)))
    spent = 0
    prev = None
    err = float("inf")
    for _ in range(MAX_DOUBLINGS + 1):
        if spent + panels * GL_ORDER > max_evals:
            raise QuadratureError(
                f"quadrature budget exhausted at {panels} panels "
                f"({spent} evaluations used, cap {max_evals})",
                achieved_error=None if prev is None else err,
                value=prev,
                needed=spent + panels * GL_ORDER,
                budget=max_evals,
            )
        value = rule(fn, a, b, panels)
        spent += panels * GL_ORDER
        if prev is not None:
            err = abs(value - prev)
            if err <= max(abs_tol, rel_tol * abs(value)):
                return value, err
        prev = value
        panels *= 2
    raise QuadratureError(
        f"no convergence after {MAX_DOUBLINGS} panel doublings over [{a}, {b}]",
        achieved_error=err,
        value=prev,
    )
