from __future__ import annotations

import math

import numpy as np
import pytest

from rescert.bump import default_bump
from rescert.dirichlet import RESYNC_STRIDE, _grid_blocks
from rescert.errors import QuadratureError
from rescert.quadrature import (
    GL_ORDER,
    adaptive_oscillatory,
    composite_gl,
    composite_gl_phased,
    trapezoid_grid,
)


def test_polynomial_exact():
    # GL of order 10 integrates degree <= 19 exactly per panel.
    val = composite_gl(lambda x: x**7, 0.0, 2.0, panels=1)
    assert complex(val) == pytest.approx(2.0**8 / 8.0, rel=1e-14)


def test_oscillatory_closed_form():
    xi = 37.0
    val, err = adaptive_oscillatory(
        lambda x: np.exp(-1j * xi * x), 0.0, 1.0, max_freq=xi, rule=composite_gl,
        rel_tol=1e-12,
    )
    exact = (1.0 - np.exp(-1j * xi)) / (1j * xi)
    assert val == pytest.approx(complex(exact), rel=1e-11)
    assert err <= 1e-10


def test_real_integrand_cosine():
    val, _ = adaptive_oscillatory(
        np.cos, 0.0, 10.0, max_freq=1.0, rule=composite_gl, rel_tol=1e-12
    )
    assert val.real == pytest.approx(math.sin(10.0), rel=1e-12)
    assert abs(val.imag) <= 1e-14


def test_empty_interval():
    val, err = adaptive_oscillatory(np.cos, 1.0, 1.0, max_freq=1.0, rule=composite_gl)
    assert val == 0.0 and err == 0.0


def test_budget_exhaustion():
    def chirp(x):
        return np.exp(-1j * 1e4 * x)

    evaluated = []

    def counted(x):
        evaluated.append(x.size)
        return chirp(x)

    def chirp_grid(origin, step, out):
        # The interior points, plus the two half-weight endpoints the rule skips.
        evaluated.append(out.size + 1)
        out[...] = chirp(origin + step * np.arange(1, out.size + 1))

    # Levels of 3184 and 6368 panels, 10 nodes or steps each: a cap of 100
    # refuses the first before it runs, a cap of 50 000 the second; `needed`
    # is the total the refused level would reach, the evaluations of the
    # levels that ran and its own.
    for budget, ran, needed in ((100, [], 31_840), (50_000, [31_840], 31_840 + 63_680)):
        for fn, rule in ((counted, composite_gl), (chirp_grid, trapezoid_grid)):
            evaluated.clear()
            with pytest.raises(QuadratureError) as info:
                adaptive_oscillatory(
                    fn, 0.0, 1.0, max_freq=1e4, rel_tol=1e-15, max_evals=budget, rule=rule
                )
            assert info.value.value is None or isinstance(info.value.value, complex)
            assert evaluated == ran
            assert info.value.needed == needed
            assert info.value.budget == budget


def test_nonconvergence_has_no_budget_context():
    rng = np.random.default_rng(0)
    with pytest.raises(QuadratureError) as info:
        adaptive_oscillatory(
            lambda x: rng.standard_normal(x.shape), 0.0, 1.0, max_freq=1.0,
            rule=composite_gl, rel_tol=1e-15,
        )
    assert info.value.needed is None and info.value.budget is None
    assert info.value.achieved_error is not None


# |P|^2 for a trigonometric polynomial P(t) = sum_n c_n e^{i t log n}.
_COEFFS = np.array([1.0, 0.5 - 0.25j, -0.3j, 0.2 + 0.1j, 0.7])
_LOGS = np.log(np.arange(1.0, 6.0))


def _poly_abs2(t):
    vals = np.exp(1j * np.multiply.outer(t, _LOGS)) @ _COEFFS
    return (vals * vals.conjugate()).real


def _poly_abs2_grid(origin, step, out):
    for start, size, block in _grid_blocks(_COEFFS, _LOGS, origin, 1, out.size, step):
        vals = block.reshape(-1)[:size]  # grid order
        out.real[start : start + size] = (vals * vals.conjugate()).real


# Phi(t/T) |P|^2 on the window [T/2, T]: zero with all its derivatives at both ends.
_T = 1000.0


def _windowed_abs2(t):
    return default_bump().phi_vec(t / _T) * _poly_abs2(t)


def _windowed_abs2_grid(origin, step, out):
    _poly_abs2_grid(origin, step, out)
    out.real *= default_bump().phi_vec((origin + step * np.arange(1, out.size + 1)) / _T)


@pytest.mark.parametrize("panels, blocks", [(100, 1), (1000, 1), (1001, 2), (2500, 3)])
def test_grid_rule_matches_composite_gl(panels, blocks):
    # The trapezoidal rule on GL_ORDER * panels - 1 interior points, one, two and three anchor
    # blocks of the grid kernel, against dense Gauss-Legendre panels.
    assert -(-(GL_ORDER * panels - 1) // RESYNC_STRIDE) == blocks
    a, b = 0.5 * _T, _T
    dense = composite_gl(_windowed_abs2, a, b, 2000)
    grid = trapezoid_grid(_windowed_abs2_grid, a, b, panels)
    assert abs(grid - dense) <= 1e-13 * abs(dense)


def test_grid_rule_adaptive_matches_default():
    kw = dict(max_freq=float(_LOGS.max()), rel_tol=1e-12)
    a, b = 0.5 * _T, _T
    dense, _ = adaptive_oscillatory(_windowed_abs2, a, b, rule=composite_gl, **kw)
    grid, _ = adaptive_oscillatory(_windowed_abs2_grid, a, b, rule=trapezoid_grid, **kw)
    assert abs(grid - dense) <= 1e-13 * abs(dense)


def test_trapezoid_rule_calls_once_on_the_interior_points():
    # One call covers the level: origin a, step (b - a) / (GL_ORDER * panels) and a zeroed
    # buffer of the interior points; the endpoints, where the integrand is 0, are never
    # passed.
    calls = []

    def recorded(origin, step, out):
        calls.append((origin, step, out.shape, out.dtype))
        assert not out.any()
        out.real[...] = 1.0

    steps = GL_ORDER * 4
    value = trapezoid_grid(recorded, 2.0, 7.0, 4)
    assert calls == [(2.0, 5.0 / steps, (steps - 1,), np.complex128)]
    assert value == (steps - 1) * (5.0 / steps)


@pytest.mark.parametrize("panels", [8, 4000, RESYNC_STRIDE + 1])
def test_grid_rule_carries_two_real_integrands_bit_for_bit(panels):
    # Two real integrands in the real and imaginary parts of one buffer come back as the
    # parts of one value, each bit for bit the pass of that integrand alone.
    def cos2(origin, step, dest):
        dest[...] = np.cos(0.01 * (origin + step * np.arange(1, dest.size + 1))) ** 2

    def second(origin, step, out):
        cos2(origin, step, out.real)

    def both(origin, step, out):
        _windowed_abs2_grid(origin, step, out)
        cos2(origin, step, out.imag)

    a, b = 500.0, 1000.0
    one = trapezoid_grid(_windowed_abs2_grid, a, b, panels)
    two = trapezoid_grid(second, a, b, panels)
    pair = trapezoid_grid(both, a, b, panels)
    assert one.imag == two.imag == 0.0
    assert (pair.real.hex(), pair.imag.hex()) == (one.real.hex(), two.real.hex())


def test_rel_tol_holds_each_part_to_itself():
    # A level whose modulus moved by 1e-5 relative but whose small imaginary part moved by
    # 1e-3 of itself is refined once more; rel_tol = 0 leaves the abs_tol test alone.
    values = iter([100.0 + 1.0j, 100.0 + 1.001j, 100.0 + 1.001j])
    levels = []

    def rule(fn, a, b, panels):
        levels.append(panels)
        return next(values)

    val, err = adaptive_oscillatory(None, 0.0, 1.0, max_freq=1.0, rule=rule, rel_tol=1e-4)
    assert (val, err) == (100.0 + 1.001j, 0.0) and levels == [8, 16, 32]
    values = iter([100.0 + 1.0j, 100.0 + 1.001j])
    val, err = adaptive_oscillatory(
        None, 0.0, 1.0, max_freq=1.0, rule=rule, rel_tol=0.0, abs_tol=1.5e-3
    )
    assert val == 100.0 + 1.001j and err == pytest.approx(1e-3)


@pytest.mark.parametrize("panels", [1, 8, 37])
def test_phased_rule_matches_composite_gl(panels):
    # The factored phases give the same pass as a per-node exponential.
    freq = 45.0

    def weight(s):
        return np.cos(3.0 * s) ** 2

    dense = composite_gl(lambda s: weight(s) * np.exp(-1j * freq * s), 0.5, 2.0, panels)
    phased = composite_gl_phased((weight, freq), 0.5, 2.0, panels)
    assert abs(phased - dense) <= 1e-14 * max(1.0, abs(dense))


def test_error_estimate_tracks_truth():
    xi = 11.0
    val, err = adaptive_oscillatory(
        lambda x: np.exp(-1j * xi * x), 0.0, 1.0, max_freq=xi, rule=composite_gl,
        rel_tol=1e-10,
    )
    exact = complex((1.0 - np.exp(-1j * xi)) / (1j * xi))
    assert abs(val - exact) <= max(err * 10.0, 1e-12)
