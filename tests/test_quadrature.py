from __future__ import annotations

import math

import numpy as np
import pytest

from rescert import quadrature
from rescert.dirichlet import RESYNC_STRIDE, _grid_values
from rescert.errors import QuadratureError
from rescert.quadrature import (
    GL_ORDER,
    adaptive_oscillatory,
    composite_gl,
    composite_gl_grid,
    composite_gl_phased,
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

    def chirp_grid(origins, k0, step, count):
        return chirp(origins[:, None] + step * np.arange(k0, k0 + count))

    # Levels of 3184 and 6368 panels, 10 nodes each: a cap of 100 refuses
    # the first before it runs, a cap of 50 000 the second; `needed` is
    # the total the refused level would reach.
    for budget, needed in ((100, 31_840), (50_000, 31_840 + 63_680)):
        for fn, rule in ((chirp, composite_gl), (chirp_grid, composite_gl_grid)):
            with pytest.raises(QuadratureError) as info:
                adaptive_oscillatory(
                    fn, 0.0, 1.0, max_freq=1e4, rel_tol=1e-15, max_evals=budget, rule=rule
                )
            assert info.value.value is None or isinstance(info.value.value, complex)
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


def _poly_abs2_grid(origins, k0, step, count):
    out = np.empty((origins.size, count))
    for start, vals in _grid_values(_COEFFS, _LOGS, origins, k0, count, step):
        out[:, start : start + vals.shape[-1]] = (vals * vals.conjugate()).real
    return out


@pytest.mark.parametrize(
    "panels", [8, RESYNC_STRIDE - 1, RESYNC_STRIDE + 1, 5 * RESYNC_STRIDE // 2]
)
def test_grid_rule_matches_composite_gl(panels):
    # One, two and three chunks of panels, each one anchor block of the grid kernel.
    a, b = 500.0, 1000.0
    dense = composite_gl(_poly_abs2, a, b, panels)
    grid = composite_gl_grid(_poly_abs2_grid, a, b, panels)
    assert abs(grid - dense) <= 1e-13 * abs(dense)


def test_grid_rule_adaptive_matches_default():
    kw = dict(max_freq=float(_LOGS.max()), rel_tol=1e-12)
    dense, _ = adaptive_oscillatory(_poly_abs2, 500.0, 1000.0, rule=composite_gl, **kw)
    grid, _ = adaptive_oscillatory(_poly_abs2_grid, 500.0, 1000.0, rule=composite_gl_grid, **kw)
    assert abs(grid - dense) <= 1e-13 * abs(dense)


@pytest.mark.parametrize("panels", [8, RESYNC_STRIDE + 1, 5 * RESYNC_STRIDE // 2])
def test_grid_rule_calls_once_per_node_group_and_chunk(panels):
    # Each call covers a group of nodes over one chunk of RESYNC_STRIDE panels; together the
    # calls cover every node and panel once, at the abscissae composite_gl uses.
    calls = []

    def recorded(origins, k0, step, count):
        calls.append((origins.size, k0, count))
        return origins[:, None] + step * np.arange(k0, k0 + count)

    a, b = 500.0, 1000.0
    grid = composite_gl_grid(recorded, a, b, panels)
    chunks = [(k0, min(RESYNC_STRIDE, panels - k0)) for k0 in range(0, panels, RESYNC_STRIDE)]
    per_scan = quadrature._NODES_PER_SCAN
    groups = [min(per_scan, GL_ORDER - j) for j in range(0, GL_ORDER, per_scan)]
    assert calls == [(g, k0, count) for g in groups for k0, count in chunks]
    dense = composite_gl(lambda t: t, a, b, panels)
    assert abs(grid - dense) <= 1e-14 * abs(dense)


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
