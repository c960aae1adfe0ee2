"""Composite Gauss-Legendre quadrature for smooth oscillatory integrands.

The integrands in this package (windowed Dirichlet polynomial moments,
bump transforms) are smooth but oscillate with a known top frequency, so
a composite rule with a fixed number of panels per cycle converges fast
and vectorizes cleanly.  The caller picks that starting density: at p
panels per cycle the Gauss-Legendre error term (Davis-Rabinowitz,
Methods of Numerical Integration, 2.7) of a unit oscillation, per unit
length, is about 2^(2n+1) (n!)^4 / ((2n+1) ((2n)!)^3) (pi/p)^(2n) with
n = GL_ORDER: 1e-14 at one panel per cycle, 1e-20 at two and 1e-8 at
half a panel.  Panel counts double until two successive refinements
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
a uniform grid given by its origin a + h*(1 + x_j)/2, over every panel of
the level, with a view of the rule's complex buffer to fill (the moments
scan a group's grids together, one pass of the grid kernel
dirichlet._grid_blocks per polynomial and level, and write two real
integrands into it, M1's values to the real part and M2's to the
imaginary part), and adds the panel sums by numpy's pairwise sum rather
than a BLAS dot, which splits its sum by thread.
composite_gl_phased integrates a real weight times e^{-i freq s} with the
factored phases (bump's float ramp integral).
bump's 50-digit ramp rule lays out its mpmath nodes the same way on
half-cycle pieces.  adaptive_oscillatory takes the rule from its caller,
which may pass its own rule with the same signature; `fn` is then
whatever that rule reads.  Its relative tolerance holds the real and the
imaginary part of a level each to itself, so two real integrals carried
as one complex value converge each to its own size.
"""

from __future__ import annotations

import functools

import numpy as np

from .dirichlet import RESYNC_STRIDE
from .errors import QuadratureError

GL_ORDER = 10
MAX_DOUBLINGS = 14
# Points of one grid-kernel block over a composite_gl_grid node group: a group takes as many
# nodes as keep min(panels, RESYNC_STRIDE) points per node within this, so five nodes from
# 10 000 panels and all ten up to 5000.  Ten nodes in blocks of 10**4 points ran the tiny
# quadrature moments slower than five, and five at small levels paid each scan's fixed
# cost twice.
_GROUP_POINTS = 5 * RESYNC_STRIDE


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
    """One composite Gauss-Legendre pass, evaluated a group of nodes at a time.

    `fn(origins, step, out)` fills the (len(origins), panels) array `out`, a view of the
    rule's complex buffer that holds zeros on entry: row i takes the integrand values (real
    or complex) at origins[i] + k*step, k < panels.  A real integrand writes out.real, and
    two real integrands may share the buffer, one in out.real and one in out.imag: the pass
    returns integral one + i * integral two, each part reduced in the same order as a lone
    real integrand's.  The step is h = (b - a) / panels, and `origins` holds the first
    abscissa of each node of a group, so one call covers its nodes over every panel of the
    level.  A group takes _GROUP_POINTS // min(panels, RESYNC_STRIDE) nodes (at most
    GL_ORDER): a grid-kernel block over the group holds at most _GROUP_POINTS points.
    """
    nodes, weights = _gl_nodes()
    h = (b - a) / panels
    origins = a + 0.5 * h * (1.0 + nodes)
    vals = np.zeros((panels, GL_ORDER), dtype=np.complex128)
    per_scan = min(GL_ORDER, _GROUP_POINTS // min(panels, RESYNC_STRIDE))
    for j in range(0, GL_ORDER, per_scan):
        group = slice(j, j + per_scan)
        fn(origins[group], h, vals[:, group].T)
    # numpy's pairwise sum adds the panels in one fixed order; a BLAS dot splits its sum by
    # thread.
    return complex((vals @ weights).sum()) * (0.5 * h)


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
    panels_per_cycle: float = 2.0,
    abs_tol: float = 0.0,
    rel_tol: float = 1e-9,
    max_evals: int = 40_000_000,
) -> tuple[complex, float]:
    """Integrate `fn` over [a, b], doubling panels until converged.

    Args:
        fn: handed to `rule` unchanged; the integrand in the form the
            rule calls it: a numpy array of abscissae in, values out for
            composite_gl; a group of node grids (origins, step) and
            the view `out` to fill, one row per origin over every panel,
            for composite_gl_grid; a (weight, freq) pair for
            composite_gl_phased.  A caller's own rule may read it as data.
        max_freq: largest angular frequency present in the integrand
            (rad per unit); with panels_per_cycle it sets the initial
            panel count (at least 8).
        rule: the level rule `rule(fn, a, b, panels)`, one pass with
            `panels` equal panels of GL_ORDER nodes.
            The package's callers pass composite_gl_grid (the quadrature
            moments) or composite_gl_phased (bump's ramp integral);
            composite_gl, every abscissa in one array, is the reference
            rule the tests check those two against.
        panels_per_cycle: panels per cycle of max_freq at the first
            level.  Two (the default, bump's ramp integral) puts the
            first level's error term near 1e-20; one (the quadrature
            moments) near 1e-14, so the second level, at two per cycle,
            confirms the first (module docstring).
        abs_tol / rel_tol: accept once the last refinement moved the
            value by no more than abs_tol, or moved its real part by no
            more than rel_tol * |value.real| and its imaginary part by no
            more than rel_tol * |value.imag|: two real integrals carried
            as the parts of one value (the quadrature moments, M1 + i*M2)
            each meet rel_tol on their own.  For a real integrand this is
            max(abs_tol, rel_tol * |value|), and for rel_tol = 0 (bump's
            ramp integral) the test on abs_tol alone.
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
    panels = max(8, int(np.ceil(panels_per_cycle * cycles)))
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
            step = value - prev
            err = abs(step)
            if err <= abs_tol or (
                abs(step.real) <= rel_tol * abs(value.real)
                and abs(step.imag) <= rel_tol * abs(value.imag)
            ):
                return value, err
        prev = value
        panels *= 2
    raise QuadratureError(
        f"no convergence after {MAX_DOUBLINGS} panel doublings over [{a}, {b}]",
        achieved_error=err,
        value=prev,
    )
