"""Adaptive quadrature for smooth oscillatory integrands.

The integrands in this package (windowed Dirichlet polynomial moments,
bump transforms) are smooth but oscillate with a known top frequency, so
a composite rule with a fixed number of panels per cycle converges fast
and vectorizes cleanly.  The caller picks that starting density.  Panel
counts double until two successive refinements agree to tolerance; the
difference of the last two levels is reported as the error estimate.

Every rule here splits [a, b] into P equal panels of width h.  Two of them
put Gauss-Legendre node x_j (one of GL_ORDER) of panel k at

    a + k*h + h*(1 + x_j)/2,

so for fixed j the nodes of all panels form an arithmetic progression
with step h, and a node's phase under e^{-i freq s} factors into a
per-node part e^{-i freq h(1 + x_j)/2} and a per-panel part
e^{-i freq (a + k*h)}.  At p panels per cycle the Gauss-Legendre error term
(Davis-Rabinowitz, Methods of Numerical Integration, 2.7) of a unit
oscillation, per unit length, is about
2^(2n+1) (n!)^4 / ((2n+1) ((2n)!)^3) (pi/p)^(2n) with n = GL_ORDER: 1e-14 at
one panel per cycle, 1e-20 at two.  composite_gl hands the integrand every
abscissa in one array; no caller in the package uses it, and the tests keep
it as the plain reference the other rules are checked against.
composite_gl_phased integrates a real weight times e^{-i freq s} with the
factored phases (bump's float ramp integral).  bump's 50-digit ramp rule
lays out its mpmath nodes the same way on half-cycle pieces.

trapezoid_grid is the trapezoidal rule on one uniform grid of GL_ORDER steps
a panel, for an integrand that vanishes with all its derivatives at both
ends (the quadrature moments, whose bump window does).  There the endpoint
terms drop out and the rule converges spectrally (Euler-Maclaurin;
Trefethen and Weideman, The exponentially convergent trapezoidal rule, SIAM
Review 56, 2014): for a window times e^{i omega t}, the rule at step s errs
by the window's transform at the aliased frequencies omega + 2 pi k/s,
k != 0.  It hands the integrand the grid's interior points as one
progression and a zeroed complex buffer to fill, so two real integrands can
share it, one in each part (the moments write M1's values to the real part
and M2's to the imaginary part), and adds the buffer by numpy's pairwise sum
rather than a BLAS dot, which splits its sum by thread.

adaptive_oscillatory takes the rule from its caller, which may pass its own
rule with the same signature; `fn` is then whatever that rule reads.  Its
relative tolerance holds the real and the imaginary part of a level each to
itself, so two real integrals carried as one complex value converge each to
its own size.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import QuadratureError

GL_ORDER = 10
MAX_DOUBLINGS = 14


@functools.cache
def _gl_nodes() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1] of the Gauss-Legendre rules, built on first use: importing
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


def trapezoid_grid(fn, a: float, b: float, panels: int) -> complex:
    """The trapezoidal rule with panels * GL_ORDER equal steps, for an integrand that is 0 at
    both ends: its endpoint terms drop out (module docstring).

    `fn(origin, step, out)` fills the 1-d complex buffer `out`, zeros on entry, with the
    integrand (real or complex) at the interior points: out[k] at origin + (k + 1)*step,
    k < panels * GL_ORDER - 1, with origin = a.  A real integrand writes out.real, and two
    real integrands may share the buffer, one in out.real and one in out.imag: the pass
    returns integral one + i * integral two, each part added in the same order as a lone
    real integrand's.  The level's panels * GL_ORDER evaluations are these interior points
    and the two half-weight endpoints.
    """
    steps = panels * GL_ORDER
    h = (b - a) / steps
    vals = np.zeros(steps - 1, dtype=np.complex128)
    fn(a, h, vals)
    # numpy's pairwise sum adds the points in one fixed order; a BLAS dot splits its sum by
    # thread.
    return complex(vals.sum()) * h


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
            composite_gl; the grid (origin, step) and the buffer `out`
            to fill at its interior points for trapezoid_grid; a
            (weight, freq) pair for composite_gl_phased.  A caller's own
            rule may read it as data.
        max_freq: largest angular frequency present in the integrand
            (rad per unit); with panels_per_cycle it sets the initial
            panel count (at least 8).
        rule: the level rule `rule(fn, a, b, panels)`, one pass with
            `panels` equal panels of GL_ORDER nodes or steps.
            The package's callers pass trapezoid_grid (the quadrature
            moments) or composite_gl_phased (bump's ramp integral);
            composite_gl, every abscissa in one array, is the reference
            rule the tests check those two against.
        panels_per_cycle: panels per cycle of max_freq at the first
            level.  Two (the default, bump's ramp integral) puts the
            first level's Gauss-Legendre error term near 1e-20.  The
            quadrature moments pass 0.2, two trapezoid points per cycle
            (module docstring).
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
